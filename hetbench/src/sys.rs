//! Process and host facts every result records (Linux `/proc`), and the
//! one allocator setting every run makes.

use hetarch::devices::json::Json;

/// Environment variables that would silently change what a run measures:
/// the observability gate, the density-matrix backend, the global worker
/// count and the shot scaling of the older bench binaries.
pub const POLLUTING_ENV: [&str; 4] = [
    "HETARCH_OBS",
    "HETARCH_DM_BACKEND",
    "HETARCH_WORKERS",
    "HETARCH_SHOTS",
];

/// The polluting variables that are set.
pub fn polluted_env() -> Vec<&'static str> {
    POLLUTING_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_MAX: i32 = -4;

/// Keeps freed heap memory in the process: glibc neither trims the heap
/// nor serves large blocks from `mmap`, so a pass reuses the pages earlier
/// passes touched. Returning pages to the kernel and faulting them back in
/// costs this virtual machine anywhere from nothing to half a pass, which
/// swamped every other source of spread. Call once, before any work.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` only adjusts allocator tunables; it is called
    // before any other thread exists, with parameters glibc defines for it.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_MAX, 0);
    }
}

/// Linux's clock id for the CPU time of every thread of the process,
/// living or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, in seconds, at
/// nanosecond resolution (`/proc/self/stat` counts only 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout matches the C struct on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// nproc, CPU model, build profile and git revision.
pub fn env_json() -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("git_rev", Json::Str(git_rev())),
    ])
}
