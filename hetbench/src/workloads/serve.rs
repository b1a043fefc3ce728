//! `serve_uec_mix`: the user-visible served query.
//!
//! An in-process `hetarch-serve` over loopback TCP under a closed loop of
//! two clients on two connections with no think time: 70% cold `sweep_uec`
//! queries (d = 3, unique seed, one of eight storage coherences, default
//! shots), 20% exact repeats of one of the client's last 32 cold queries
//! (answered from the LRU) and 10% `stats`. Exercises serve, UEC module
//! build and Monte Carlo, and cell-cache hits; bypasses union-find, the
//! frame sampler, rare-event and distillation.
//!
//! Why d = 3 alone: while a handler waits for a result it probes its
//! client with `TcpStream::peek`, which blocks for the connection's 50 ms
//! read timeout, so a query whose evaluation takes 50–100 ms is answered
//! at about 104 ms. A d ∈ {3, 5} sweep takes 45–55 ms alone and about
//! 90 ms when both clients' queries overlap, so its served latency jumps
//! between two modes from run to run. A d = 3 sweep stays far below 50 ms
//! either way.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetarch::devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch::devices::json::{self, Json};
use hetarch::exec::{shard_seed, CancelToken, WorkerPool};
use hetarch::obs;
use hetarch::prelude::*;
use hetarch::serve::server::ok_response;
use hetarch::serve::{evaluate, parse_query, Client, Query, Server, ServerConfig, ServerStats};

use super::{timed, Check, Ctx, Digest, Pass, SplitMix, Traced, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Storage coherences T_S (seconds) the cold queries draw from.
const TS_VALUES: [f64; 8] = [0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3];
/// Closed-loop clients, one connection each: the host's two hardware
/// threads.
const CLIENTS: u64 = 2;
/// Repeats draw from this many of the client's latest cold queries.
const RECENT: usize = 32;
/// The compute coherence every served query pins (the server's constant).
const COMPUTE_TC: f64 = 0.5e-3;
const STATS_BODY: &str = r#"{"query":"stats"}"#;

struct Dims {
    distances: &'static [u32],
    /// `None` leaves the server's default shot count.
    shots: Option<u32>,
    ts: &'static [f64],
    /// Each client keeps sending until this long after the pass started
    /// (seconds), then finishes its request in flight.
    pass_s: f64,
    /// Cold queries re-evaluated on a fresh single-worker library.
    sample: usize,
    /// Requests per client that enter the fingerprint.
    fingerprinted: u64,
}

const FULL: Dims = Dims {
    distances: &[3],
    shots: None,
    ts: &TS_VALUES,
    pass_s: 1.0,
    sample: 16,
    fingerprinted: 8,
};

const TINY: Dims = Dims {
    distances: &[3],
    shots: Some(256),
    ts: &[5e-3, 50e-3],
    pass_s: 0.0,
    sample: 2,
    fingerprinted: 1,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cold,
    Repeat,
    Stats,
}

struct Record {
    /// `client << 32 | request number`.
    id: u64,
    kind: Kind,
    body: Arc<str>,
    reply: Result<Vec<u8>, String>,
    latency: f64,
}

impl Record {
    fn ok(&self) -> bool {
        let Ok(bytes) = &self.reply else { return false };
        let parsed = std::str::from_utf8(bytes)
            .ok()
            .and_then(|t| json::parse(t).ok());
        parsed.is_some_and(|v| v.get("status").and_then(Json::as_str) == Some("ok"))
    }
}

/// One client connection and its request generator.
struct ClientState {
    client: Client,
    index: u64,
    rng: SplitMix,
    seed_base: u64,
    sent: u64,
    recent: VecDeque<Arc<str>>,
}

impl ClientState {
    fn next(&mut self, dims: &Dims) -> (Kind, Arc<str>) {
        let u = self.rng.next_f64();
        if u >= 0.9 {
            return (Kind::Stats, Arc::from(STATS_BODY));
        }
        if u >= 0.7 && !self.recent.is_empty() {
            let i = self.rng.below(self.recent.len());
            return (Kind::Repeat, self.recent[i].clone());
        }
        let ts = dims.ts[self.rng.below(dims.ts.len())];
        // shard_seed is a bijection of its index, so seeds never repeat.
        let seed = shard_seed(self.seed_base, self.sent) >> 1;
        (Kind::Cold, Arc::from(sweep_body(dims, ts, seed)))
    }

    fn request(&mut self, dims: &Dims, tracer: Option<&Tracer>) -> Record {
        let (kind, body) = self.next(dims);
        let id = self.index << 32 | self.sent;
        self.sent += 1;
        let span = tracer.map(|t| t.request("serve.request", id));
        let (reply, latency) = timed(|| self.client.request_raw(body.as_bytes()));
        drop(span);
        if kind == Kind::Cold {
            self.recent.push_back(body.clone());
            if self.recent.len() > RECENT {
                self.recent.pop_front();
            }
        }
        Record {
            id,
            kind,
            body,
            reply: reply.map_err(|e| e.to_string()),
            latency,
        }
    }
}

fn sweep_body(dims: &Dims, ts: f64, seed: u64) -> String {
    let mut fields = vec![
        ("query", Json::Str("sweep_uec".to_string())),
        (
            "distances",
            Json::Arr(
                dims.distances
                    .iter()
                    .map(|&d| Json::Int(i64::from(d)))
                    .collect(),
            ),
        ),
        ("ts_values", Json::Arr(vec![Json::Num(ts)])),
        ("seed", Json::Int(seed as i64)),
    ];
    if let Some(shots) = dims.shots {
        fields.push(("shots", Json::Int(i64::from(shots))));
    }
    Json::obj(fields).render()
}

/// A server with its clients. A traced run keeps a twin lane that replays
/// the plain lane's request stream.
struct Lane {
    server: Option<Server>,
    clients: Vec<ClientState>,
}

impl Lane {
    fn start(ctx: &Ctx, dims: &Dims) -> Lane {
        let server = Server::start(ServerConfig::default()).expect("bind a loopback port");
        let addr = server.local_addr();
        let clients = (0..CLIENTS)
            .map(|index| ClientState {
                client: Client::connect(addr).expect("connect to the in-process server"),
                index,
                rng: SplitMix::new(shard_seed(ctx.seed, index)),
                seed_base: shard_seed(ctx.seed, CLIENTS + index),
                sent: 0,
                recent: VecDeque::new(),
            })
            .collect();
        let mut lane = Lane {
            server: Some(server),
            clients,
        };
        // Warm-up: every storage coherence once, so the timed passes hit
        // the characterization cache.
        std::thread::scope(|s| {
            for (c, client) in lane.clients.iter_mut().enumerate() {
                s.spawn(move || {
                    for (i, &ts) in dims.ts.iter().enumerate().skip(c).step_by(CLIENTS as usize) {
                        let body = sweep_body(dims, ts, i as u64);
                        client
                            .client
                            .request_raw(body.as_bytes())
                            .expect("warm-up query answered");
                    }
                });
            }
        });
        lane
    }

    /// One pass: every client sends requests back to back until the pass
    /// deadline. A deadline rather than a fixed count per client keeps both
    /// connections busy to the end of the pass.
    fn run(&mut self, dims: &Dims, tracer: Option<&Tracer>) -> Vec<Record> {
        let deadline = Instant::now() + Duration::from_secs_f64(dims.pass_s);
        let mut records: Vec<Record> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        let mut records = vec![c.request(dims, tracer)];
                        while Instant::now() < deadline {
                            records.push(c.request(dims, tracer));
                        }
                        records
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        records.sort_by_key(|r| r.id);
        records
    }

    fn stats(&self) -> &ServerStats {
        self.server.as_ref().expect("lane server runs").stats()
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        // Hang up first, so the server's handlers exit at once.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Work items are the cold queries: LRU hits and `stats` answer in well
/// under a millisecond, and mixing them in would put the median on the
/// boundary between two latency modes.
fn pass_of(records: &[Record]) -> Pass {
    let items: Vec<f64> = records
        .iter()
        .filter(|r| r.kind == Kind::Cold)
        .map(|r| r.latency)
        .collect();
    Pass {
        units: items.len() as u64,
        other: (records.len() - items.len()) as u64,
        items,
        failed: records.iter().filter(|r| !r.ok()).count() as u64,
    }
}

pub struct ServeMix {
    dims: &'static Dims,
    /// `lanes[0]` serves the timed passes, `lanes[1]` the traced twins.
    lanes: Vec<Lane>,
    /// Records of every plain pass, in pass order.
    records: Vec<Record>,
    /// Warm library for the direct replays of a traced run.
    replay_lib: CellLibrary,
}

impl Workload for ServeMix {
    // Each pass continues the request stream with fresh queries.
    const SAME_WORK_EVERY_PASS: bool = false;

    fn setup(ctx: &Ctx, traced: bool) -> Self {
        let dims = if ctx.tiny { &TINY } else { &FULL };
        let lanes = (0..if traced { 2 } else { 1 })
            .map(|_| Lane::start(ctx, dims))
            .collect();
        let replay_lib = CellLibrary::new();
        if traced {
            let compute = coherence_limited_compute(COMPUTE_TC);
            for &ts in dims.ts {
                replay_lib.get::<UscCell>(&compute, &coherence_limited_storage(ts));
            }
        }
        ServeMix {
            dims,
            lanes,
            records: Vec::new(),
            replay_lib,
        }
    }

    fn pass(&mut self, _ctx: &Ctx) -> Pass {
        let records = self.lanes[0].run(self.dims, None);
        let pass = pass_of(&records);
        self.records.extend(records);
        pass
    }

    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced {
        let count = |s: &ServerStats| {
            [&s.cache_hits, &s.coalesced, &s.executions, &s.busy_rejects]
                .map(|c| c.load(Ordering::Relaxed))
        };
        let before = count(self.lanes[1].stats());
        let phase = tracer.phase("served");
        let (records, wall) = timed(|| self.lanes[1].run(self.dims, Some(tracer)));
        drop(phase);
        // The replays below are analysis, not served work.
        obs::force_enabled(false);
        let after = count(self.lanes[1].stats());
        let [hits, coalesced, executions, busy] = [0, 1, 2, 3].map(|i| after[i] - before[i]);

        // The twin lane sends the plain lane's request stream; requests
        // both lanes have sent must get the same bytes.
        let plain: HashMap<u64, &Result<Vec<u8>, String>> =
            self.records.iter().map(|r| (r.id, &r.reply)).collect();
        let shared: Vec<bool> = records
            .iter()
            .filter(|r| r.kind != Kind::Stats)
            .filter_map(|r| plain.get(&r.id).map(|p| **p == r.reply))
            .collect();
        let mut checks = vec![Check::new(
            "traced requests get the plain lane's replies",
            !shared.is_empty() && shared.iter().all(|&same| same),
            format!(
                "{} of {} equal",
                shared.iter().filter(|&&s| s).count(),
                shared.len()
            ),
        )];

        let cold: Vec<&Record> = records.iter().filter(|r| r.kind == Kind::Cold).collect();
        let token = CancelToken::new();
        let queries: Vec<Query> = cold.iter().map(|r| query_of(&r.body)).collect();
        // Direct replay: the same query through `serve::evaluate`, alone.
        let overhead: Vec<f64> = cold
            .iter()
            .zip(&queries)
            .map(|(r, q)| {
                let (_, direct) = timed(|| evaluate(q, &self.replay_lib, &ctx.pool, &token));
                r.latency - direct
            })
            .collect();
        // Decomposed replay: the evaluation rebuilt layer by layer.
        let phase = tracer.phase("replay");
        let reproduced = cold
            .iter()
            .zip(&queries)
            .filter(|(r, q)| {
                let _s = tracer.request("serve.replay", r.id);
                let bytes = replay(q, &self.replay_lib, &ctx.pool, tracer);
                r.reply.as_ref().ok() == Some(&bytes)
            })
            .count();
        drop(phase);
        checks.push(Check::equal(
            "decomposed replays reproduce the served replies",
            reproduced,
            cold.len(),
        ));

        let compute = hits + coalesced + executions + busy;
        Traced {
            pass: pass_of(&records),
            wall,
            checks,
            stats: vec![
                ("serve.overhead_ms_p50", median(&overhead) * 1e3),
                ("serve.lru_hit_ratio", hits as f64 / compute.max(1) as f64),
                ("serve.executions", executions as f64),
                ("serve.busy_rejects", busy as f64),
            ],
        }
    }

    fn checks(&mut self) -> Vec<Check> {
        let first: HashMap<&str, &Result<Vec<u8>, String>> = self
            .records
            .iter()
            .filter(|r| r.kind == Kind::Cold)
            .map(|r| (&*r.body, &r.reply))
            .collect();
        let repeats: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.kind == Kind::Repeat)
            .collect();
        let equal = repeats
            .iter()
            .filter(|r| first.get(&*r.body) == Some(&&r.reply))
            .count();
        let mut checks = vec![Check::equal(
            "repeats are byte-equal to the first reply",
            equal,
            repeats.len(),
        )];

        // A sample of cold queries against a fresh library on one worker.
        let cold: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.kind == Kind::Cold)
            .collect();
        let n = self.dims.sample.min(cold.len());
        let lib = CellLibrary::new();
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let matching = (0..n)
            .map(|i| cold[i * cold.len() / n])
            .filter(|r| {
                let direct = evaluate(&query_of(&r.body), &lib, &pool, &token)
                    .map(|v| ok_response(v).render().into_bytes());
                r.reply.as_ref().ok() == direct.as_ref().ok()
            })
            .count();
        checks.push(Check::equal(
            "sampled cold replies equal a fresh single-worker evaluation",
            matching,
            n,
        ));
        checks
    }

    fn fingerprint(&self) -> u64 {
        // The first requests of each client: per-client streams are
        // deterministic. Stats replies depend on timing.
        let mut first: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.kind != Kind::Stats && r.id & 0xffff_ffff < self.dims.fingerprinted)
            .collect();
        first.sort_by_key(|r| r.id);
        let mut d = Digest::default();
        for r in first {
            d.u64(r.id).bytes(r.body.as_bytes());
            if let Ok(reply) = &r.reply {
                d.bytes(reply);
            }
        }
        d.finish()
    }
}

fn query_of(body: &str) -> Query {
    let value = json::parse(body).expect("generated bodies are JSON");
    parse_query(&value).expect("generated bodies are valid queries")
}

/// `serve::evaluate` of a `sweep_uec` query rebuilt from public functions,
/// one span per layer call; returns the reply bytes the server would send.
fn replay(query: &Query, lib: &CellLibrary, pool: &WorkerPool, tracer: &Tracer) -> Vec<u8> {
    let Query::SweepUec {
        distances,
        ts_values,
        shots,
        seed,
    } = query
    else {
        unreachable!("the mix replays only sweep_uec queries");
    };
    let space = DesignSpace::new(vec![
        Axis::new("d", distances.iter().map(|&d| f64::from(d)).collect()),
        Axis::new("ts", ts_values.clone()),
    ]);
    let compute = coherence_limited_compute(COMPUTE_TC);
    let mut points = Vec::new();
    let mut objectives = Vec::new();
    {
        let _s = tracer.span("dse.sweep");
        for p in space.points() {
            let (d, ts) = (p.get("d"), p.get("ts"));
            let usc = {
                let _s = tracer.span("cells.get_usc");
                lib.get::<UscCell>(&compute, &coherence_limited_storage(ts))
            };
            let module = {
                let _s = tracer.span("modules.uec_build");
                UecModule::new(
                    rotated_surface_code(d as usize),
                    (*usc).clone(),
                    UecNoise::default(),
                )
            };
            let r = {
                let _s = tracer.span("modules.uec_mc");
                module.logical_error_rate_on(pool, *shots as usize, *seed)
            };
            objectives.push(vec![r.logical_error_rate, ts]);
            points.push(Json::obj([
                ("cycle_duration", Json::Num(r.cycle_duration)),
                ("d", Json::Int(d as i64)),
                ("p_l", Json::Num(r.logical_error_rate)),
                ("ts", Json::Num(ts)),
            ]));
        }
    }
    let front = {
        let _s = tracer.span("dse.pareto");
        pareto_front(&objectives)
    };
    let result = Json::obj([
        (
            "pareto",
            Json::Arr(front.into_iter().map(|i| Json::Int(i as i64)).collect()),
        ),
        ("points", Json::Arr(points)),
        ("shots", Json::Int(i64::from(*shots))),
    ]);
    ok_response(result).render().into_bytes()
}
