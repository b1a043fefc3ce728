//! The length-prefixed JSON-over-TCP design-space query server.
//!
//! ## Wire protocol
//!
//! Every frame — request and response — is a `u32` little-endian byte
//! length followed by that many bytes of UTF-8 JSON. Frames above the
//! configured maximum are rejected with an error reply (and the connection
//! closed, since stream framing is lost). One connection may pipeline any
//! number of request/response round trips.
//!
//! ## Request lifecycle
//!
//! A compute query is parsed, canonicalized into its [`QueryKey`], and
//! admitted through the single-flight [`QueryCache`]: a cached response is
//! returned immediately; an in-flight identical query is **coalesced**
//! (this request waits on the same execution and shares the same response
//! buffer, byte for byte); otherwise the request leads and enqueues a job
//! on the bounded [`JobQueue`]. A full queue replies `busy` with the
//! current depth — backpressure is explicit and buffering is never
//! unbounded. Executor threads pop jobs and run [`evaluate`] on the shared
//! [`CellLibrary`] and [`WorkerPool`] with the slot's [`CancelToken`]
//! threaded through every sweep/shard loop.
//!
//! ## Cancellation and shutdown
//!
//! While waiting for a result the handler polls its socket; a client that
//! disconnected drops its waiter registration, and when the last waiter of
//! a slot is gone the slot's token fires and the sweep stops within one
//! shard per worker. On shutdown the server stops accepting, lets
//! connected handlers finish their in-flight requests, then closes the
//! queue and **drains** it before the executors exit.

use std::io::{self, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hetarch_cells::CellLibrary;
use hetarch_exec::WorkerPool;
use hetarch_obs as obs;

use crate::cache::{Admit, Outcome, QueryCache};
use crate::eval::evaluate;
use crate::query::{parse_query, Query};
use crate::queue::JobQueue;
use hetarch_devices::json::{self, Json};

// Serve metrics (no-ops unless the `obs` feature is on and `HETARCH_OBS=1`).
static OBS_REQUESTS: obs::Counter = obs::Counter::new("serve.requests");
static OBS_EXECUTIONS: obs::Counter = obs::Counter::new("serve.executions");
static OBS_COALESCED: obs::Counter = obs::Counter::new("serve.coalesce_hits");
static OBS_CACHE_HITS: obs::Counter = obs::Counter::new("serve.cache_hits");
static OBS_BUSY: obs::Counter = obs::Counter::new("serve.busy_rejects");
static OBS_CANCELLED: obs::Counter = obs::Counter::new("serve.cancellations");
static OBS_PANICS: obs::Counter = obs::Counter::new("serve.panics");
static OBS_MALFORMED: obs::Counter = obs::Counter::new("serve.malformed");
static OBS_QUEUE_WAIT_NS: obs::Histogram = obs::Histogram::new("serve.queue_wait_ns");
static OBS_COMPUTE_NS: obs::Histogram = obs::Histogram::new("serve.compute_ns");

/// How often a waiting handler re-checks its client's liveness, and how
/// often a blocked frame read re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads in the shared [`WorkerPool`].
    pub workers: usize,
    /// Executor threads draining the job queue.
    pub executors: usize,
    /// Bounded job-queue capacity (backpressure beyond this).
    pub queue_capacity: usize,
    /// LRU result-cache capacity (completed responses).
    pub cache_capacity: usize,
    /// Largest accepted frame, in bytes.
    pub max_frame_len: u32,
    /// Optional [`CellLibrary`] persistence path: loaded on boot (a missing
    /// file is a normal cold start) and saved atomically after a graceful
    /// drain, so a restarted server re-answers prior sweeps without
    /// re-simulating any characterization.
    pub library_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            executors: 2,
            queue_capacity: 32,
            cache_capacity: 64,
            max_frame_len: 1 << 20,
            library_path: None,
        }
    }
}

/// Always-on per-server counters, surfaced by the `stats` query.
///
/// Unlike the `hetarch-obs` statics these are per-instance and active in
/// every build, so tests and the golden snapshot can assert coalescing and
/// backpressure without the `obs` feature; they are worker-count- and
/// timing-invariant by construction (pure event counts).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests read off connections (including admin queries).
    pub requests: AtomicU64,
    /// Jobs that actually executed a query evaluation.
    pub executions: AtomicU64,
    /// Requests coalesced onto an identical in-flight execution.
    pub coalesced: AtomicU64,
    /// Requests answered from the LRU result cache.
    pub cache_hits: AtomicU64,
    /// Requests rejected with `busy` (queue full).
    pub busy_rejects: AtomicU64,
    /// Executions cancelled (every waiter disconnected).
    pub cancellations: AtomicU64,
    /// Executor panics contained (query answered with an error).
    pub panics: AtomicU64,
    /// Malformed frames or bodies answered with an error.
    pub malformed: AtomicU64,
    /// Jobs dequeued by executors (== executions + jobs skipped as
    /// already-cancelled).
    pub dequeued: AtomicU64,
}

impl ServerStats {
    /// Renders the counters as a sorted-key JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "busy_rejects",
                Json::Int(self.busy_rejects.load(Ordering::Relaxed) as i64),
            ),
            (
                "cache_hits",
                Json::Int(self.cache_hits.load(Ordering::Relaxed) as i64),
            ),
            (
                "cancellations",
                Json::Int(self.cancellations.load(Ordering::Relaxed) as i64),
            ),
            (
                "coalesced",
                Json::Int(self.coalesced.load(Ordering::Relaxed) as i64),
            ),
            (
                "dequeued",
                Json::Int(self.dequeued.load(Ordering::Relaxed) as i64),
            ),
            (
                "executions",
                Json::Int(self.executions.load(Ordering::Relaxed) as i64),
            ),
            (
                "malformed",
                Json::Int(self.malformed.load(Ordering::Relaxed) as i64),
            ),
            (
                "panics",
                Json::Int(self.panics.load(Ordering::Relaxed) as i64),
            ),
            (
                "requests",
                Json::Int(self.requests.load(Ordering::Relaxed) as i64),
            ),
        ])
    }
}

struct Shared {
    lib: CellLibrary,
    library_path: Option<std::path::PathBuf>,
    pool: WorkerPool,
    cache: QueryCache,
    queue: JobQueue,
    stats: ServerStats,
    shutdown: AtomicBool,
    addr: SocketAddr,
    max_frame_len: u32,
    conns: Mutex<usize>,
    conns_cond: Condvar,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Flags shutdown and unblocks the accept loop with a self-connect.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::Relaxed) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`] or [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Warm-start: a persisted characterization cache means a restarted
        // server answers prior sweeps with zero new simulations. A missing
        // file is the normal cold start; a corrupt one is a hard error
        // (silently discarding it would mask operational mistakes).
        let lib = match &config.library_path {
            Some(path) => match CellLibrary::load(path) {
                Ok(lib) => lib,
                Err(e) if e.kind() == io::ErrorKind::NotFound => CellLibrary::new(),
                Err(e) => return Err(e),
            },
            None => CellLibrary::new(),
        };
        let shared = Arc::new(Shared {
            lib,
            library_path: config.library_path.clone(),
            pool: WorkerPool::new(config.workers.max(1)),
            cache: QueryCache::new(config.cache_capacity),
            queue: JobQueue::new(config.queue_capacity),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            addr,
            max_frame_len: config.max_frame_len,
            conns: Mutex::new(0),
            conns_cond: Condvar::new(),
        });
        let executors = (0..config.executors.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            executors,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The always-on per-instance counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Characterization-cache statistics of the shared [`CellLibrary`]:
    /// a warm-started server answering only previously seen design points
    /// shows zero misses (zero new simulations).
    pub fn library_stats(&self) -> hetarch_cells::CacheStats {
        self.shared.lib.stats()
    }

    /// Initiates a graceful shutdown and blocks until drained.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.finish();
    }

    /// Blocks until the server shuts down (e.g. via a `shutdown` query),
    /// then drains. This is what the `hetarch-serve` bin parks on.
    pub fn wait(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        // 1. Accept loop exits once the shutdown flag is up (the flag-setter
        //    self-connects to unblock it).
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // 2. Connected handlers finish their in-flight requests; they
        //    observe the flag at the next frame boundary and hang up.
        {
            let mut conns = self.shared.conns.lock().expect("conn lock");
            while *conns > 0 {
                let (next, _) = self
                    .shared
                    .conns_cond
                    .wait_timeout(conns, POLL_INTERVAL)
                    .expect("conn lock");
                conns = next;
            }
        }
        // 3. Close the queue; executors drain what was admitted, then exit.
        self.shared.queue.close();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // 4. Executors are done, so the library is quiescent: persist the
        //    characterization cache for the next boot. The save is atomic
        //    (temp file + rename), so a crash here leaves either the old
        //    cache or the new one, never a torn file.
        if let Some(path) = &self.shared.library_path {
            if let Err(e) = self.shared.lib.save(path) {
                eprintln!("warning: failed to save cell library to {path:?}: {e}");
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            // The wake-up connection (or anything racing it) is dropped.
            break;
        }
        let Ok(stream) = stream else { continue };
        *shared.conns.lock().expect("conn lock") += 1;
        let shared = shared.clone();
        std::thread::spawn(move || {
            // A connection panic must not take down the server; the
            // counter decrement below must run on every exit path.
            let result = catch_unwind(AssertUnwindSafe(|| handle_connection(&stream, &shared)));
            let mut conns = shared.conns.lock().expect("conn lock");
            *conns -= 1;
            shared.conns_cond.notify_all();
            drop(conns);
            drop(result);
        });
    }
}

/// Why a frame read ended without a frame.
enum ReadEnd {
    /// Clean EOF at a frame boundary.
    Eof,
    /// Server shutting down (checked only at frame boundaries).
    Shutdown,
    /// Frame declared longer than the configured maximum.
    Oversized(u32),
    /// Connection died mid-frame (truncated frame or transport error).
    Truncated,
}

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    loop {
        let body = match read_frame(stream, shared) {
            Ok(body) => body,
            Err(ReadEnd::Eof | ReadEnd::Shutdown) => return,
            Err(ReadEnd::Oversized(len)) => {
                shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                OBS_MALFORMED.inc();
                // Reply, then close: the stream position is unrecoverable.
                let reply = error_response(&format!(
                    "frame of {len} bytes exceeds the {}-byte limit",
                    shared.max_frame_len
                ));
                let _ = write_frame(stream, reply.render().as_bytes());
                let _ = stream.shutdown(NetShutdown::Both);
                return;
            }
            Err(ReadEnd::Truncated) => {
                shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                OBS_MALFORMED.inc();
                // Best-effort error reply: with a half-closed client the
                // write side may still be open.
                let reply = error_response("truncated frame");
                let _ = write_frame(stream, reply.render().as_bytes());
                let _ = stream.shutdown(NetShutdown::Both);
                return;
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        OBS_REQUESTS.inc();
        let reply = handle_request(stream, shared, &body);
        let Some(reply) = reply else {
            // The client disconnected while we waited; nothing to write.
            return;
        };
        if write_frame(stream, &reply).is_err() {
            return;
        }
    }
}

/// Processes one request body; `None` means the client vanished mid-wait.
fn handle_request(stream: &TcpStream, shared: &Shared, body: &[u8]) -> Option<Vec<u8>> {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "frame is not UTF-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| format!("invalid JSON: {e}")))
        .and_then(|v| parse_query(&v));
    let query = match parsed {
        Ok(query) => query,
        Err(message) => {
            shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
            OBS_MALFORMED.inc();
            return Some(error_response(&message).render().into_bytes());
        }
    };
    match query {
        Query::Stats => {
            let mut result = vec![
                (
                    "queue_depth".to_string(),
                    Json::Int(shared.queue.depth() as i64),
                ),
                ("serve".to_string(), shared.stats.to_json()),
            ];
            if obs::enabled() {
                let counters = obs::report()
                    .counters
                    .into_iter()
                    .map(|(k, v)| (k, Json::Int(v as i64)))
                    .collect();
                result.push(("obs".to_string(), Json::Obj(counters)));
            }
            Some(
                ok_response(Json::Obj(result.into_iter().collect()))
                    .render()
                    .into_bytes(),
            )
        }
        Query::Shutdown => {
            shared.begin_shutdown();
            Some(
                ok_response(Json::Str("shutting down".to_string()))
                    .render()
                    .into_bytes(),
            )
        }
        query => serve_compute(stream, shared, &query),
    }
}

/// Admits a compute query through the cache/queue and waits for its bytes.
fn serve_compute(stream: &TcpStream, shared: &Shared, query: &Query) -> Option<Vec<u8>> {
    let key = query.key();
    let slot = match shared.cache.admit(&key) {
        Admit::Hit(bytes) => {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            OBS_CACHE_HITS.inc();
            return Some((*bytes).clone());
        }
        Admit::Join(slot) => {
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            OBS_COALESCED.inc();
            slot
        }
        Admit::Lead(slot) => {
            slot.set_query(query.clone());
            if let Err(depth) = shared.queue.push(slot.clone()) {
                shared.stats.busy_rejects.fetch_add(1, Ordering::Relaxed);
                OBS_BUSY.inc();
                shared.cache.cancel(&slot);
                return Some(busy_response(depth).render().into_bytes());
            }
            slot
        }
    };
    loop {
        match slot.wait_outcome(POLL_INTERVAL) {
            Some(Outcome::Done(bytes)) => return Some((*bytes).clone()),
            Some(Outcome::Failed(message)) => {
                return Some(error_response(&message).render().into_bytes())
            }
            Some(Outcome::Cancelled) => {
                // Another path aborted the slot (queue-full race, or its
                // last waiter left just as we joined).
                return Some(error_response("query was cancelled").render().into_bytes());
            }
            None => {
                if client_disconnected(stream) {
                    if slot.drop_waiter() == 0 {
                        shared.stats.cancellations.fetch_add(1, Ordering::Relaxed);
                        OBS_CANCELLED.inc();
                        shared.cache.cancel(&slot);
                    }
                    return None;
                }
            }
        }
    }
}

/// Non-destructive, non-blocking liveness probe: with the frame protocol
/// strictly request/response per connection *per in-flight request*,
/// readable data can only be a pipelined next request (alive), `Ok(0)` is
/// EOF and nothing to read (`WouldBlock`) is an idle, healthy client.
///
/// The peek runs with the socket switched to non-blocking mode, so an idle
/// client never stalls the handler for the connection's read timeout (a
/// query finishing meanwhile would be answered that much later). A socket
/// whose mode cannot be switched, or switched back, counts as gone.
fn client_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
        ),
    };
    stream.set_nonblocking(false).is_err() || gone
}

fn executor_loop(shared: &Arc<Shared>) {
    while let Some(slot) = shared.queue.pop() {
        shared.stats.dequeued.fetch_add(1, Ordering::Relaxed);
        if slot.is_settled() {
            // Cancelled while queued; never run it.
            continue;
        }
        OBS_QUEUE_WAIT_NS.record(u64::try_from(slot.queued_for().as_nanos()).unwrap_or(u64::MAX));
        let query = slot.query().expect("leader attached the query");
        shared.stats.executions.fetch_add(1, Ordering::Relaxed);
        OBS_EXECUTIONS.inc();
        let span = obs::span!(OBS_COMPUTE_NS);
        let result = catch_unwind(AssertUnwindSafe(|| {
            evaluate(query, &shared.lib, &shared.pool, slot.token())
        }));
        drop(span);
        match result {
            Ok(Ok(value)) => {
                let bytes = Arc::new(ok_response(value).render().into_bytes());
                shared.cache.fulfill(&slot, bytes);
            }
            Ok(Err(_cancelled)) => {
                // The waiters are gone; just release the key.
                shared.cache.cancel(&slot);
            }
            Err(_panic) => {
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                OBS_PANICS.inc();
                shared.cache.fail(
                    &slot,
                    "internal error: query execution panicked".to_string(),
                );
            }
        }
    }
}

/// Builds the `ok` response envelope.
pub fn ok_response(result: Json) -> Json {
    Json::obj([("result", result), ("status", Json::Str("ok".to_string()))])
}

/// Builds the `error` response envelope.
pub fn error_response(message: &str) -> Json {
    Json::obj([
        ("error", Json::Str(message.to_string())),
        ("status", Json::Str("error".to_string())),
    ])
}

/// Builds the `busy` backpressure envelope.
pub fn busy_response(queue_depth: usize) -> Json {
    Json::obj([
        ("queue_depth", Json::Int(queue_depth as i64)),
        ("status", Json::Str("busy".to_string())),
    ])
}

/// Reads one length-prefixed frame, polling the shutdown flag between
/// timeouts. Only returns `Shutdown` at a frame boundary — a frame whose
/// prefix has started is read to completion.
fn read_frame(stream: &TcpStream, shared: &Shared) -> Result<Vec<u8>, ReadEnd> {
    let mut prefix = [0u8; 4];
    read_exact_polling(stream, &mut prefix, true, shared)?;
    let len = u32::from_le_bytes(prefix);
    if len > shared.max_frame_len {
        return Err(ReadEnd::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    read_exact_polling(stream, &mut body, false, shared).map_err(|e| match e {
        // EOF after the prefix means the body was cut short.
        ReadEnd::Eof => ReadEnd::Truncated,
        other => other,
    })?;
    Ok(body)
}

fn read_exact_polling(
    stream: &TcpStream,
    buf: &mut [u8],
    at_boundary: bool,
    shared: &Shared,
) -> Result<(), ReadEnd> {
    let mut filled = 0;
    let mut stream = stream;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && at_boundary {
                    ReadEnd::Eof
                } else {
                    ReadEnd::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // Leave only at a clean boundary; mid-frame reads keep
                // polling so a slow client is not mistaken for shutdown.
                if shared.shutting_down() && filled == 0 && at_boundary {
                    return Err(ReadEnd::Shutdown);
                }
            }
            Err(_) => return Err(ReadEnd::Truncated),
        }
    }
    Ok(())
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(mut stream: &TcpStream, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn liveness_probe_does_not_block_on_an_idle_client() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();

        let start = Instant::now();
        assert!(!client_disconnected(&server_side), "idle client is alive");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "probe blocked for {elapsed:?}"
        );
        // The probe restores blocking mode: a read still waits for the
        // read timeout rather than failing at once.
        let mut byte = [0u8; 1];
        let start = Instant::now();
        let err = (&server_side).read(&mut byte).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        assert!(start.elapsed() >= Duration::from_millis(500));

        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !client_disconnected(&server_side) {
            assert!(Instant::now() < deadline, "dropped client never seen");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
