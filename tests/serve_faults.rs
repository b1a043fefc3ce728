//! Fault injection against the query server: client disconnects mid-sweep,
//! malformed/oversized/truncated frames, deterministic queue-full
//! backpressure, and executor panics — none of which may kill the accept
//! loop, the executors, or the shared cell library.

use std::net::Shutdown as NetShutdown;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hetarch::devices::json::Json;
use hetarch::serve::query::MAX_SHOTS;
use hetarch::serve::{Client, Server, ServerConfig};

/// Serializes tests: the obs registry (asserted under `--features obs`) is
/// process-global, so concurrent servers would cross-pollute its counters.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(feature = "obs")]
fn obs_fresh() {
    hetarch::obs::force_enabled(true);
    hetarch::obs::reset();
}

#[cfg(not(feature = "obs"))]
fn obs_fresh() {}

fn block_request(millis: i64) -> Json {
    Json::obj([
        ("query", Json::Str("test_block".to_string())),
        ("millis", Json::Int(millis)),
    ])
}

fn status_of(reply: &[u8]) -> String {
    let parsed = hetarch::devices::json::parse(std::str::from_utf8(reply).unwrap()).unwrap();
    parsed
        .get("status")
        .and_then(Json::as_str)
        .expect("status field")
        .to_string()
}

/// Polls `stats` until `probe` passes or the deadline expires.
fn wait_for(server: &Server, what: &str, timeout: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(
            start.elapsed() < timeout,
            "timed out waiting for {what}; stats: {}",
            server.stats().to_json().render()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A client that disconnects mid-sweep cancels the execution: the shard
/// loop stops (well inside the time the full sweep would take) and the
/// executor is free for the next query.
#[test]
fn disconnect_mid_request_cancels_the_sweep() {
    let _guard = serialized();
    obs_fresh();
    let server = Server::start(ServerConfig {
        workers: 1,
        executors: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Eight design points of a million shots each run for seconds even in
    // a release build, so the sweep is still running when the disconnect
    // is seen; a bounded wall-clock on the *next* query only holds if
    // cancellation actually stops the shard loop.
    let sweep = Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3), Json::Int(5)])),
        (
            "ts_values",
            Json::Arr([0.5e-3, 1e-3, 2e-3, 5e-3].map(Json::Num).into()),
        ),
        ("shots", Json::Int(i64::from(MAX_SHOTS))),
        ("seed", Json::Int(5)),
    ]);
    let mut doomed = Client::connect(addr).expect("connect");
    doomed
        .send_raw_frame(sweep.render().as_bytes())
        .expect("send sweep");
    // Vanish without reading the reply as soon as the execution starts.
    wait_for(
        &server,
        "sweep execution to start",
        Duration::from_secs(10),
        || server.stats().executions.load(Relaxed) == 1,
    );
    drop(doomed);

    wait_for(
        &server,
        "disconnect-triggered cancellation",
        Duration::from_secs(10),
        || server.stats().cancellations.load(Relaxed) == 1,
    );

    // The executor must come free promptly — the current shard finishes,
    // the rest of the sweep is abandoned.
    let mut next = Client::connect(addr).expect("connect");
    next.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let start = Instant::now();
    let reply = next
        .request_raw(block_request(1).render().as_bytes())
        .expect("post-cancel query");
    assert_eq!(status_of(&reply), "ok");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "executor still busy {:?} after cancellation",
        start.elapsed()
    );

    #[cfg(feature = "obs")]
    {
        let report = hetarch::obs::report();
        assert_eq!(report.counters["serve.cancellations"], 1);
        assert!(
            report
                .counters
                .get("exec.cancellations")
                .copied()
                .unwrap_or(0)
                >= 1,
            "the shard loop itself must observe the cancellation"
        );
    }

    server.shutdown();
}

/// Malformed bodies get an error reply and the connection stays usable;
/// framing-level damage (oversized, truncated) gets an error reply and a
/// close — and none of it perturbs the accept loop.
#[test]
fn malformed_frames_get_error_replies_without_killing_the_server() {
    let _guard = serialized();
    obs_fresh();
    let server = Server::start(ServerConfig {
        max_frame_len: 1024,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Bad JSON, wrong types, unknown fields: error reply, same connection
    // keeps serving.
    let mut client = Client::connect(addr).expect("connect");
    for bad in [
        "not json at all".as_bytes(),
        b"{\"query\":\"sweep_uec\",\"distances\":[7]}" as &[u8],
        b"{\"query\":\"no_such_query\"}",
        b"{\"query\":\"test_block\",\"millis\":1,\"bogus\":2}",
        &[0xff, 0xfe, 0x00],
    ] {
        let reply = client.request_raw(bad).expect("error reply");
        assert_eq!(status_of(&reply), "error");
    }
    let stats = client.stats().expect("connection still serves");
    assert_eq!(
        stats.get("status").and_then(Json::as_str),
        Some("ok"),
        "connection survives malformed bodies"
    );
    assert_eq!(server.stats().malformed.load(Relaxed), 5);

    // Oversized frame: error reply naming the limit, then close.
    let mut oversized = Client::connect(addr).expect("connect");
    oversized
        .send_bytes(&4096u32.to_le_bytes())
        .expect("send prefix");
    let reply = oversized.read_reply().expect("oversized error reply");
    assert_eq!(status_of(&reply), "error");
    assert!(String::from_utf8_lossy(&reply).contains("1024-byte limit"));
    assert!(
        oversized.read_reply().is_err(),
        "framing is unrecoverable: server closes"
    );

    // Truncated frame: declare 100 bytes, send 10, half-close.
    let mut truncated = Client::connect(addr).expect("connect");
    truncated
        .send_bytes(&100u32.to_le_bytes())
        .expect("send prefix");
    truncated.send_bytes(&[b'x'; 10]).expect("send partial");
    truncated
        .stream()
        .shutdown(NetShutdown::Write)
        .expect("half-close");
    let reply = truncated.read_reply().expect("truncated error reply");
    assert_eq!(status_of(&reply), "error");
    assert!(String::from_utf8_lossy(&reply).contains("truncated"));

    // The accept loop is untouched: fresh connections still work.
    let mut fresh = Client::connect(addr).expect("accept loop alive");
    let reply = fresh
        .request_raw(block_request(1).render().as_bytes())
        .expect("fresh query");
    assert_eq!(status_of(&reply), "ok");
    assert_eq!(server.stats().malformed.load(Relaxed), 7);

    server.shutdown();
}

/// Queue-full backpressure is deterministic: one executor occupied, a
/// one-slot queue filled, and the third query is refused with `busy` and
/// the observed depth — it never blocks and never evicts queued work.
#[test]
fn full_queue_replies_busy_with_depth() {
    let _guard = serialized();
    obs_fresh();
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // A: dequeued and executing (distinct millis keep the keys distinct —
    // identical queries would coalesce instead of queueing).
    let mut a = Client::connect(addr).expect("connect");
    a.send_raw_frame(block_request(1500).render().as_bytes())
        .expect("send a");
    wait_for(
        &server,
        "job A to occupy the executor",
        Duration::from_secs(10),
        || server.stats().dequeued.load(Relaxed) == 1,
    );

    // B: sitting in the queue (depth 1 == capacity).
    let mut b = Client::connect(addr).expect("connect");
    b.send_raw_frame(block_request(1501).render().as_bytes())
        .expect("send b");
    let mut probe = Client::connect(addr).expect("connect");
    wait_for(
        &server,
        "job B to fill the queue",
        Duration::from_secs(10),
        || {
            let stats = probe.stats().expect("stats");
            stats
                .get("result")
                .and_then(|r| r.get("queue_depth"))
                .and_then(Json::as_u64)
                == Some(1)
        },
    );

    // C: deterministically refused.
    let mut c = Client::connect(addr).expect("connect");
    let reply = c.request_json(&block_request(1502)).expect("busy reply");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("busy"));
    assert_eq!(reply.get("queue_depth").and_then(Json::as_u64), Some(1));
    assert_eq!(server.stats().busy_rejects.load(Relaxed), 1);

    // A and B still complete normally; C can retry once the queue drains.
    assert_eq!(status_of(&a.read_reply().expect("a reply")), "ok");
    assert_eq!(status_of(&b.read_reply().expect("b reply")), "ok");
    let retry = c.request_json(&block_request(1502)).expect("retry reply");
    assert_eq!(retry.get("status").and_then(Json::as_str), Some("ok"));

    server.shutdown();
}

/// A panicking query is contained: its waiters get an error reply, and the
/// server — including the shared `CellLibrary` — keeps answering.
#[test]
fn panicking_query_poisons_neither_server_nor_library() {
    let _guard = serialized();
    obs_fresh();
    let server = Server::start(ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let panic_reply = client
        .request_json(&Json::obj([("query", Json::Str("test_panic".to_string()))]))
        .expect("panic turned into a reply");
    assert_eq!(
        panic_reply.get("status").and_then(Json::as_str),
        Some("error")
    );
    assert!(panic_reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("panicked"));
    assert_eq!(server.stats().panics.load(Relaxed), 1);

    // The same executor thread and the shared library keep working: a real
    // sweep (which characterizes cells through the library) succeeds.
    let sweep = Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        ("ts_values", Json::Arr(vec![Json::Num(5e-3)])),
        ("shots", Json::Int(128)),
        ("seed", Json::Int(2)),
    ]);
    let reply = client.request_json(&sweep).expect("post-panic sweep");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    // And a retried panic key is not stuck: the failed slot was evicted,
    // so the retry executes (and fails) afresh rather than caching.
    let again = client
        .request_json(&Json::obj([("query", Json::Str("test_panic".to_string()))]))
        .expect("second panic reply");
    assert_eq!(again.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(server.stats().panics.load(Relaxed), 2);

    server.shutdown();
}
