//! The five workloads and the contract each one implements.
//!
//! A workload owns its inputs and state. The driver times its set-up, runs
//! its fixed pass again and again until the run's time is up, then runs its
//! output checks untimed. In a traced run each plain pass is followed by
//! the same work rebuilt from the layers' public functions with a span
//! around every call, and the two must agree bit for bit.

pub mod calib;
pub mod distill;
pub mod rare;
pub mod serve;
pub mod surface;

use hetarch::exec::WorkerPool;

use crate::trace::Tracer;

/// What every workload call receives.
pub struct Ctx {
    /// The run's seed; every input is derived from it.
    pub seed: u64,
    /// Shrinks every dimension for the debug-build smoke test.
    pub tiny: bool,
    /// The batch pool, one worker per hardware thread.
    pub pool: WorkerPool,
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Work units completed (queries, shots, conditioned shots, trials or
    /// snapshots).
    pub units: u64,
    /// Latency of every work item (a cold served query, a design point, a
    /// snapshot), in seconds.
    pub items: Vec<f64>,
    /// Further operations attempted that are not work items (LRU hits and
    /// `stats` requests).
    pub other: u64,
    /// Items or operations that failed: error, busy or transport failures.
    pub failed: u64,
}

/// One named output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    /// Passes when `got == want`; the detail shows both on failure.
    pub fn equal<T: PartialEq + std::fmt::Debug>(
        name: impl Into<String>,
        got: T,
        want: T,
    ) -> Check {
        let ok = got == want;
        let detail = if ok {
            String::new()
        } else {
            format!("got {got:?}, want {want:?}")
        };
        Check::new(name, ok, detail)
    }
}

/// The outcome of one traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub pass: Pass,
    /// Wall time of the part that repeats the plain pass, in seconds.
    pub wall: f64,
    /// The decomposition against the plain pass, bit for bit.
    pub checks: Vec<Check>,
    /// Per-layer numbers measured by the workload itself.
    pub stats: Vec<(&'static str, f64)>,
}

/// The contract between a workload and the driver.
pub trait Workload: Sized {
    /// Every pass repeats exactly the same work, item for item, so a
    /// slower pass can only mean interference from outside the process.
    const SAME_WORK_EVERY_PASS: bool = true;

    /// Builds inputs and warms caches; `traced` also prepares what the
    /// traced passes need.
    fn setup(ctx: &Ctx, traced: bool) -> Self;
    /// One fixed pass of timed work.
    fn pass(&mut self, ctx: &Ctx) -> Pass;
    /// The work of the latest `pass`, rebuilt from public functions with
    /// spans around each layer call.
    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced;
    /// Output checks on what the timed passes produced.
    fn checks(&mut self) -> Vec<Check>;
    /// Digest of the first pass's outputs.
    fn fingerprint(&self) -> u64;
    /// Workload-only numbers for the result file.
    fn extra(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// SplitMix64: the benchmark's input generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over everything pushed into it: the result fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes the exact bits, so any change in a result shows.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}
