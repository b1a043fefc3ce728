//! `rare_surface`: the deep-subthreshold rare-event workload.
//!
//! The same stab layer as `surface_fig7`, used differently: every
//! conditioned shot carries exactly `w` faults, so syndromes are dense and a
//! decode change tuned for sparse syndromes shows its cost here. Also
//! exercises `exec::rare` and exact stratum enumeration.

use hetarch::exec::rare::{RareConfig, RareOutcome, StratifiedEstimator, StratumEval};
use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;
use hetarch::stab::detector::assemble_detectors;
use hetarch::stab::frame::{enumerate_at_weight, sample_at_weight, FaultModel};

use super::surface::count_failures;
use super::{timed, Check, Ctx, Digest, Pass, Traced, Workload};
use crate::trace::Tracer;

/// The deep-subthreshold noise point of the repository's rare-event
/// benchmark row: 10 s coherence, p1 = 2e-5, p2 = 2e-4, p_meas = 1e-4.
fn rare_noise() -> SurfaceNoise {
    SurfaceNoise {
        t_data: 10.0,
        t_anc: 10.0,
        p1: 2e-5,
        p2: 2e-4,
        p_meas: 1e-4,
        ..SurfaceNoise::default()
    }
}

struct Point {
    mem: SurfaceMemory,
    config: RareConfig,
    seed: u64,
}

pub struct Rare {
    points: Vec<Point>,
    first: Vec<RareOutcome>,
}

fn run_point(mem: &SurfaceMemory, pool: &WorkerPool, config: RareConfig, seed: u64) -> RareOutcome {
    mem.logical_error_rate_rare_on(pool, SurfaceDecoder::UnionFind, config, seed)
}

/// (sigma + truncation) / p_L: the relative error the fixed budget buys.
fn rel_err(outcome: &RareOutcome) -> f64 {
    let r = outcome.report();
    if r.p_l > 0.0 {
        (r.sigma + r.truncation_bound) / r.p_l
    } else {
        f64::INFINITY
    }
}

impl Workload for Rare {
    fn setup(ctx: &Ctx, _traced: bool) -> Self {
        // (d, rounds, absolute tolerance). Each tolerance lies between two
        // of the point's exact prior tails, far from both, so the estimator
        // stops at the same stratum for every seed: a pass is the same work
        // whatever the seed.
        let (shape, shots): (&[(usize, usize, f64)], usize) = if ctx.tiny {
            (&[(3, 2, 1e-4)], 1024)
        } else {
            (&[(5, 5, 1e-7), (7, 3, 1e-9)], 32768)
        };
        let points: Vec<Point> = shape
            .iter()
            .enumerate()
            .map(|(i, &(d, r, abs_tol))| Point {
                mem: SurfaceMemory::new(d, r, rare_noise()),
                config: RareConfig {
                    max_strata: 8,
                    shots_per_stratum: shots,
                    rel_tol: 0.0,
                    abs_tol,
                    ..RareConfig::default()
                },
                seed: shard_seed(ctx.seed, i as u64),
            })
            .collect();
        // Warm-up: every point at a quarter of its stratum budget.
        for p in &points {
            let warm = RareConfig {
                shots_per_stratum: shots / 4,
                ..p.config
            };
            let _ = run_point(&p.mem, &ctx.pool, warm, p.seed);
        }
        Rare {
            points,
            first: Vec::new(),
        }
    }

    fn pass(&mut self, ctx: &Ctx) -> Pass {
        let mut pass = Pass::default();
        let mut outcomes = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let (outcome, secs) = timed(|| run_point(&p.mem, &ctx.pool, p.config, p.seed));
            pass.units += outcome.report().total_shots as u64;
            pass.items.push(secs);
            outcomes.push(outcome);
        }
        if self.first.is_empty() {
            self.first = outcomes;
        }
        pass
    }

    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced {
        let _phase = tracer.phase("pass");
        let mut out = Traced::default();
        let (mut strata, mut rel) = (0u64, 0f64);
        let start = std::time::Instant::now();
        for (i, p) in self.points.iter().enumerate() {
            let (outcome, secs) =
                timed(|| traced_point(&p.mem, p.config, p.seed, &ctx.pool, tracer));
            out.pass.units += outcome.report().total_shots as u64;
            out.pass.items.push(secs);
            strata += outcome
                .report()
                .strata
                .iter()
                .filter(|s| s.prior > 0.0)
                .count() as u64;
            rel = rel.max(rel_err(&outcome));
            out.checks.push(Check::equal(
                format!("traced point {i} reproduces the RareReport"),
                format!("{outcome:?}"),
                format!("{:?}", self.first[i]),
            ));
        }
        out.wall = start.elapsed().as_secs_f64();
        out.stats = vec![
            ("exec.rare.strata", strata as f64),
            ("exec.rare.shots", out.pass.units as f64),
            ("exec.rare.rel_err", rel),
        ];
        out
    }

    fn checks(&mut self) -> Vec<Check> {
        let mut checks: Vec<Check> = self
            .first
            .iter()
            .enumerate()
            .map(|(i, o)| Check::equal(format!("point {i} converged"), o.is_converged(), true))
            .collect();
        let p = &self.points[0];
        let serial = run_point(&p.mem, &WorkerPool::new(1), p.config, p.seed);
        checks.push(Check::equal(
            "point 0 is worker-count invariant",
            format!("{serial:?}"),
            format!("{:?}", self.first[0]),
        ));
        checks
    }

    fn fingerprint(&self) -> u64 {
        let mut d = Digest::default();
        for o in &self.first {
            let r = o.report();
            d.f64(r.p_l)
                .f64(r.sigma)
                .f64(r.truncation_bound)
                .u64(r.total_shots as u64)
                .u64(u64::from(o.is_converged()));
        }
        d.finish()
    }

    fn extra(&self) -> Vec<(&'static str, f64)> {
        let worst = self.first.iter().map(rel_err).fold(0.0, f64::max);
        vec![("rare_rel_err", worst)]
    }
}

/// `SurfaceMemory::logical_error_rate_rare_on` rebuilt from public
/// functions, one span per layer call. Stratum `w` samples with
/// `shard_seed(seed, w)`, as the library does.
fn traced_point(
    mem: &SurfaceMemory,
    config: RareConfig,
    seed: u64,
    pool: &WorkerPool,
    tracer: &Tracer,
) -> RareOutcome {
    let (circuit, decoder) = {
        let _s = tracer.span("stab.build");
        let circuit = mem.circuit();
        let decoder = UnionFindDecoder::new(&mem.matching_graph());
        (circuit, decoder)
    };
    let (model, prior) = {
        let _s = tracer.span("exec.rare.prior");
        let model = FaultModel::from_circuit(&circuit);
        let prior = model.prior();
        (model, prior)
    };
    let _s = tracer.span("exec.rare.estimate");
    StratifiedEstimator::new(&prior, config).run(|w| {
        let enumerated = {
            let _s = tracer.span("stab.enumerate");
            enumerate_at_weight(&circuit, &model, w, config.enumerate_threshold)
        };
        match enumerated {
            Some((configs, frames)) => {
                let samples = {
                    let _s = tracer.span("stab.detector");
                    assemble_detectors(&circuit, &frames.meas_flips, configs.len())
                };
                let _s = tracer.span("stab.decode_conditioned");
                let mut failure_probability = 0.0;
                let mut scratch = decoder.new_scratch();
                decoder.decode_shots(
                    &mut scratch,
                    &samples.detectors,
                    &samples.observables,
                    0,
                    0,
                    configs.len(),
                    |shot, failed| {
                        if failed {
                            failure_probability += configs[shot].weight;
                        }
                    },
                );
                StratumEval::Enumerated {
                    failure_probability,
                    configs: configs.len() as u64,
                }
            }
            None => {
                let shots = config.shots_per_stratum;
                let stratum_seed = shard_seed(seed, w as u64);
                let frames = {
                    let _s = tracer.span("stab.frame_conditioned");
                    sample_at_weight(&circuit, &model, w, shots, stratum_seed, pool)
                };
                let samples = {
                    let _s = tracer.span("stab.detector");
                    assemble_detectors(&circuit, &frames.meas_flips, shots)
                };
                let _s = tracer.span("stab.decode_conditioned");
                let failures = count_failures(&decoder, &samples, shots, stratum_seed, pool);
                StratumEval::Sampled { failures, shots }
            }
        }
    })
}
