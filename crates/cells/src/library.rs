//! The cell library: one generic, single-flight, persistent cache of cell
//! characterizations.
//!
//! Characterizing a cell runs density-matrix simulations; design-space
//! sweeps revisit the same `(T_C, T_S)` points constantly. The library
//! memoizes characterizations behind the [`Cell`] trait, so every cell kind
//! is served by the same get-or-characterize path:
//!
//! * **Injective keys** — [`CharKey`] encodes the cell kind plus the full
//!   byte encoding of both device specs, with a presence tag before every
//!   `Option` field, so distinct design points can never alias.
//! * **Single-flight admission** — concurrent requests for the same
//!   uncached key run exactly one simulation; the others block on the
//!   in-flight result and share it.
//! * **Persistence** — [`CellLibrary::save`]/[`CellLibrary::load`] write
//!   and warm-start the cache across processes.
//! * **Observability** — [`CacheStats`] counts hits, misses and in-flight
//!   waits per cell kind and accumulates the simulation seconds avoided,
//!   feeding the DSE cost ledger that reproduces the paper's ~10⁴
//!   simulation-burden reduction claim.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hetarch_obs as obs;
use parking_lot::Mutex;
use serde::Serialize;

use hetarch_devices::calib::CalibSnapshot;
use hetarch_devices::device::DeviceSpec;

use crate::cell::{Cell, CellKind};
use crate::parcheck::ParCheckChannel;
use crate::register::RegisterChannel;
use crate::seqop::SeqOpChannel;
use crate::usc::UscChannel;

// Workspace-wide cache metrics, aggregated over every `CellLibrary`
// instance (the per-instance view stays available via
// [`CellLibrary::stats`]). Indexed by `CellKind::index()` (tag order).
// No-ops unless the `obs` feature is on and `HETARCH_OBS=1`.
static OBS_HITS: [obs::Counter; 4] = [
    obs::Counter::new("cells.register.hits"),
    obs::Counter::new("cells.parcheck.hits"),
    obs::Counter::new("cells.seqop.hits"),
    obs::Counter::new("cells.usc.hits"),
];
static OBS_MISSES: [obs::Counter; 4] = [
    obs::Counter::new("cells.register.misses"),
    obs::Counter::new("cells.parcheck.misses"),
    obs::Counter::new("cells.seqop.misses"),
    obs::Counter::new("cells.usc.misses"),
];
static OBS_WAITS: [obs::Counter; 4] = [
    obs::Counter::new("cells.register.inflight_waits"),
    obs::Counter::new("cells.parcheck.inflight_waits"),
    obs::Counter::new("cells.seqop.inflight_waits"),
    obs::Counter::new("cells.usc.inflight_waits"),
];
static OBS_SIM_SECONDS_RUN: obs::Ledger = obs::Ledger::new("cells.sim_seconds_run");
static OBS_SIM_SECONDS_SAVED: obs::Ledger = obs::Ledger::new("cells.sim_seconds_saved");
static OBS_CHARACTERIZE_NS: obs::Histogram = obs::Histogram::new("cells.characterize_ns");

/// Injective cache key for one characterization request.
///
/// The key is the cell-kind tag followed by the byte encoding of both
/// [`DeviceSpec`]s in the workspace binary format. That format
/// length-prefixes strings and collections and writes a presence tag before
/// every `Option` field, so two specs that differ only in *which* optional
/// field is set get distinct keys — the collision the old ad-hoc
/// f64-bits key allowed by concatenating optional fields untagged.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CharKey(Vec<u8>);

impl CharKey {
    /// Builds the key for characterizing a `kind` cell on `(a, b)` under a
    /// calibration snapshot.
    ///
    /// An empty snapshot produces the plain key: the kind tag and both
    /// specs, so calibration-free callers keep hitting (and warm-starting
    /// from) the entries they always produced. A non-empty snapshot sets
    /// the high bit of the leading kind tag (plain tags are ≤ 3) and
    /// appends the per-label override map, so calibrated keys can never
    /// collide with uncalibrated ones and stay injective over the override
    /// set. Snapshot metadata (`device`, `taken_at`) is deliberately
    /// excluded: two snapshots with identical physics are the same design
    /// point.
    pub fn new(kind: CellKind, a: &DeviceSpec, b: &DeviceSpec, calib: &CalibSnapshot) -> Self {
        let calibrated = !calib.is_empty();
        let mut s = serde::Serializer::new();
        s.write_u8(kind.tag() | if calibrated { 0x80 } else { 0 });
        a.serialize(&mut s);
        b.serialize(&mut s);
        if calibrated {
            calib.qubits.serialize(&mut s);
        }
        CharKey(s.into_bytes())
    }

    /// The encoded key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Per-cell-kind cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindStats {
    /// Characterizations served from a completed cache entry.
    pub hits: u64,
    /// Characterizations computed by density-matrix simulation.
    pub misses: u64,
    /// Requests that piggybacked on a simulation already in flight.
    pub inflight_waits: u64,
}

/// Cache counters, overall and per cell kind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Total characterizations served from cache.
    pub hits: u64,
    /// Total characterizations computed by simulation.
    pub misses: u64,
    /// Total requests that piggybacked on an in-flight simulation.
    pub inflight_waits: u64,
    /// Wall-clock seconds spent actually simulating (misses).
    pub sim_seconds_run: f64,
    /// Wall-clock simulation seconds avoided by cache hits — the quantity
    /// the DSE cost ledger credits for characterization reuse.
    pub sim_seconds_saved: f64,
    by_kind: [KindStats; 4],
}

impl CacheStats {
    /// Counters for one cell kind.
    pub fn kind(&self, kind: CellKind) -> KindStats {
        self.by_kind[kind.index()]
    }
}

type Payload = Arc<dyn Any + Send + Sync>;

/// A completed characterization: the type-erased channel plus bookkeeping.
#[derive(Clone)]
struct ReadyEntry {
    kind: CellKind,
    sim_seconds: f64,
    payload: Payload,
}

/// `None` means the in-flight characterization panicked; retry admission.
type Flight = Arc<OnceLock<Option<ReadyEntry>>>;

enum Slot {
    Ready(ReadyEntry),
    InFlight(Flight),
}

/// Removes the in-flight slot and wakes waiters if the leader unwinds
/// before publishing, so a panicking characterization never wedges its key.
struct FlightGuard<'a> {
    entries: &'a Mutex<HashMap<CharKey, Slot>>,
    key: &'a CharKey,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.entries.lock().remove(self.key);
            let _ = self.flight.set(None);
        }
    }
}

/// What one admission attempt resolved to.
enum Claim {
    Done(ReadyEntry),
    Wait(Flight),
    Lead(Flight),
}

fn downcast<C: Cell>(entry: &ReadyEntry) -> Arc<C::Channel> {
    entry
        .payload
        .clone()
        .downcast::<C::Channel>()
        .expect("cache entry payload matches its key's cell kind")
}

const MAGIC: &[u8] = b"hetarch-cell-library-v1";

/// A memoizing, thread-safe, persistable cache of cell characterizations.
///
/// # Examples
///
/// ```
/// use hetarch_cells::library::CellLibrary;
/// use hetarch_cells::RegisterCell;
/// use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};
///
/// let lib = CellLibrary::new();
/// let a = lib.get::<RegisterCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
/// let b = lib.get::<RegisterCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
/// assert_eq!(a.load.fidelity, b.load.fidelity);
/// assert_eq!(lib.stats().misses, 1);
/// assert_eq!(lib.stats().hits, 1);
/// assert!(lib.stats().sim_seconds_saved > 0.0);
/// ```
#[derive(Default)]
pub struct CellLibrary {
    entries: Mutex<HashMap<CharKey, Slot>>,
    stats: Mutex<CacheStats>,
}

impl fmt::Debug for CellLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellLibrary")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        CellLibrary::default()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Number of completed characterizations currently cached.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// True if no characterization has completed or been loaded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`CellLibrary::get_with_calib`] with no calibration snapshot.
    pub fn get<C: Cell>(&self, a: &DeviceSpec, b: &DeviceSpec) -> Arc<C::Channel> {
        self.get_with_calib::<C>(a, b, &CalibSnapshot::default())
    }

    /// The single get-or-characterize path behind every cell kind.
    ///
    /// Returns the cached channel if `(C::KIND, a, b)` was characterized
    /// under the same calibration overrides before. Otherwise builds the
    /// cell, applies the snapshot with [`Cell::calibrate`] and runs the
    /// density-matrix characterization exactly once, even under
    /// concurrency: other threads requesting the same key while the
    /// simulation is in flight block on it and share its result. An empty
    /// snapshot shares the plain cache key (and hence entries); a non-empty
    /// one gets its own injective key, so the same `(a, b)` under different
    /// fleet calibrations never alias.
    ///
    /// # Panics
    ///
    /// Panics if the pair violates the cell's design rules (the shipped
    /// catalog devices never do).
    pub fn get_with_calib<C: Cell>(
        &self,
        a: &DeviceSpec,
        b: &DeviceSpec,
        calib: &CalibSnapshot,
    ) -> Arc<C::Channel> {
        let key = CharKey::new(C::KIND, a, b, calib);
        loop {
            let claim = {
                let mut map = self.entries.lock();
                match map.get(&key) {
                    Some(Slot::Ready(entry)) => Claim::Done(entry.clone()),
                    Some(Slot::InFlight(flight)) => Claim::Wait(flight.clone()),
                    None => {
                        let flight: Flight = Arc::new(OnceLock::new());
                        map.insert(key.clone(), Slot::InFlight(flight.clone()));
                        Claim::Lead(flight)
                    }
                }
            };
            match claim {
                Claim::Done(entry) => {
                    self.record_hit(C::KIND, entry.sim_seconds);
                    return downcast::<C>(&entry);
                }
                Claim::Wait(flight) => match flight.wait() {
                    Some(entry) => {
                        self.record_wait(C::KIND);
                        return downcast::<C>(entry);
                    }
                    // The leader panicked and its slot was cleaned up;
                    // retry admission from scratch.
                    None => continue,
                },
                Claim::Lead(flight) => {
                    let mut guard = FlightGuard {
                        entries: &self.entries,
                        key: &key,
                        flight: &flight,
                        armed: true,
                    };
                    let started = Instant::now();
                    let span = obs::span!(OBS_CHARACTERIZE_NS);
                    let mut cell = C::build(a.clone(), b.clone()).unwrap_or_else(|violations| {
                        panic!("{} design rules violated: {violations:?}", C::KIND)
                    });
                    cell.calibrate(calib);
                    let channel = Arc::new(cell.characterize());
                    drop(span);
                    let payload: Payload = channel.clone();
                    let entry = ReadyEntry {
                        kind: C::KIND,
                        sim_seconds: started.elapsed().as_secs_f64(),
                        payload,
                    };
                    self.entries
                        .lock()
                        .insert(key.clone(), Slot::Ready(entry.clone()));
                    let sim_seconds = entry.sim_seconds;
                    let _ = flight.set(Some(entry));
                    guard.armed = false;
                    self.record_miss(C::KIND, sim_seconds);
                    return channel;
                }
            }
        }
    }

    /// Persists every completed characterization to `path` in the
    /// workspace binary format. In-flight entries are skipped and counters
    /// are not saved; a loaded library starts with fresh statistics.
    ///
    /// The write is atomic: bytes go to a temporary file in the same
    /// directory which is then renamed over `path`, so a concurrent or
    /// later [`CellLibrary::load`] observes either the previous complete
    /// file or the new one — never a torn half-write (e.g. when a serve
    /// process is killed mid-drain).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut ready: Vec<(CharKey, ReadyEntry)> = self
            .entries
            .lock()
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready(e) => Some((k.clone(), e.clone())),
                Slot::InFlight(_) => None,
            })
            .collect();
        // Sort by key bytes so the file is deterministic regardless of
        // insertion order.
        ready.sort_by(|x, y| x.0 .0.cmp(&y.0 .0));
        let mut s = serde::Serializer::new();
        s.write_bytes(MAGIC);
        s.write_u64(ready.len() as u64);
        for (key, entry) in &ready {
            s.write_u8(entry.kind.tag());
            s.write_bytes(&key.0);
            s.write_f64(entry.sim_seconds);
            s.write_bytes(&encode_payload(entry));
        }
        let path = path.as_ref();
        // The temp file must live in the target's directory: rename is only
        // atomic within one filesystem, and std::env::temp_dir may be on
        // another one.
        // The name is unique per call, not just per process: two threads
        // saving to one path must not truncate or rename each other's file.
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_file_name(format!(
            ".{}.tmp-{}-{}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "cell-library".to_string()),
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, s.into_bytes())
            .and_then(|()| std::fs::rename(&tmp, path))
            .inspect_err(|_| {
                std::fs::remove_file(&tmp).ok();
            })
    }

    /// Loads a library persisted by [`CellLibrary::save`]. Loaded entries
    /// count neither as hits nor misses until they are requested again.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a malformed or truncated file is
    /// reported as [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<CellLibrary> {
        let bytes = std::fs::read(path)?;
        Self::from_saved_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn from_saved_bytes(bytes: &[u8]) -> Result<CellLibrary, serde::Error> {
        let mut d = serde::Deserializer::new(bytes);
        // A bad header should say "not a cell-library file", not whatever
        // EOF the length-prefixed read happens to hit first.
        if d.read_bytes().ok().as_deref() != Some(MAGIC) {
            return Err(serde::Error::new("not a cell-library file"));
        }
        let n = d.read_u64()?;
        let mut map = HashMap::new();
        for _ in 0..n {
            let kind = CellKind::from_tag(d.read_u8()?)
                .ok_or_else(|| serde::Error::new("unknown cell kind tag"))?;
            let key = CharKey(d.read_bytes()?);
            let sim_seconds = d.read_f64()?;
            let payload = decode_payload(kind, &d.read_bytes()?)?;
            map.insert(
                key,
                Slot::Ready(ReadyEntry {
                    kind,
                    sim_seconds,
                    payload,
                }),
            );
        }
        if !d.is_empty() {
            return Err(serde::Error::new("trailing bytes in cell-library file"));
        }
        Ok(CellLibrary {
            entries: Mutex::new(map),
            stats: Mutex::new(CacheStats::default()),
        })
    }

    fn record_hit(&self, kind: CellKind, sim_seconds: f64) {
        let mut s = self.stats.lock();
        s.hits += 1;
        s.sim_seconds_saved += sim_seconds;
        s.by_kind[kind.index()].hits += 1;
        OBS_HITS[kind.index()].inc();
        OBS_SIM_SECONDS_SAVED.add(sim_seconds);
    }

    fn record_miss(&self, kind: CellKind, sim_seconds: f64) {
        let mut s = self.stats.lock();
        s.misses += 1;
        s.sim_seconds_run += sim_seconds;
        s.by_kind[kind.index()].misses += 1;
        OBS_MISSES[kind.index()].inc();
        OBS_SIM_SECONDS_RUN.add(sim_seconds);
    }

    fn record_wait(&self, kind: CellKind) {
        let mut s = self.stats.lock();
        s.inflight_waits += 1;
        s.by_kind[kind.index()].inflight_waits += 1;
        OBS_WAITS[kind.index()].inc();
    }
}

fn encode_payload(entry: &ReadyEntry) -> Vec<u8> {
    fn bytes<T: Serialize + 'static>(payload: &Payload) -> Vec<u8> {
        serde::to_bytes(
            payload
                .downcast_ref::<T>()
                .expect("cache entry payload matches its recorded kind"),
        )
    }
    match entry.kind {
        CellKind::Register => bytes::<RegisterChannel>(&entry.payload),
        CellKind::ParCheck => bytes::<ParCheckChannel>(&entry.payload),
        CellKind::SeqOp => bytes::<SeqOpChannel>(&entry.payload),
        CellKind::Usc => bytes::<UscChannel>(&entry.payload),
    }
}

fn decode_payload(kind: CellKind, bytes: &[u8]) -> Result<Payload, serde::Error> {
    Ok(match kind {
        CellKind::Register => Arc::new(serde::from_bytes::<RegisterChannel>(bytes)?),
        CellKind::ParCheck => Arc::new(serde::from_bytes::<ParCheckChannel>(bytes)?),
        CellKind::SeqOp => Arc::new(serde::from_bytes::<SeqOpChannel>(bytes)?),
        CellKind::Usc => Arc::new(serde::from_bytes::<UscChannel>(bytes)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parcheck::ParCheckCell;
    use crate::register::RegisterCell;
    use crate::seqop::SeqOpCell;
    use crate::usc::UscCell;
    use hetarch_devices::calib::CalibParams;
    use hetarch_devices::catalog::{
        fixed_frequency_qubit, multimode_resonator_3d, on_chip_multimode_resonator,
    };
    use hetarch_devices::device::GateSpec;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hetarch-{}-{}.bin", name, std::process::id()))
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let lib = CellLibrary::new();
        lib.get::<RegisterCell>(&fixed_frequency_qubit(), &multimode_resonator_3d());
        lib.get::<RegisterCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
        assert_eq!(lib.stats().misses, 2);
        assert_eq!(lib.stats().hits, 0);
    }

    #[test]
    fn repeated_sweep_points_hit_cache() {
        let lib = CellLibrary::new();
        for _ in 0..5 {
            lib.get::<UscCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
        }
        let stats = lib.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.kind(CellKind::Usc).hits, 4);
        assert_eq!(stats.kind(CellKind::Register).hits, 0);
        assert!(stats.sim_seconds_saved > 0.0);
    }

    #[test]
    fn coherence_scaling_changes_the_key() {
        let lib = CellLibrary::new();
        for ts_ms in [0.5, 1.0, 2.5, 5.0] {
            let storage = on_chip_multimode_resonator().with_coherence(ts_ms * 1e-3, ts_ms * 1e-3);
            lib.get::<RegisterCell>(&fixed_frequency_qubit(), &storage);
        }
        assert_eq!(lib.stats().misses, 4);
    }

    #[test]
    fn all_cell_types_cacheable() {
        let lib = CellLibrary::new();
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        lib.get::<RegisterCell>(&c, &s);
        lib.get::<ParCheckCell>(&c, &c);
        lib.get::<SeqOpCell>(&c, &s);
        lib.get::<UscCell>(&c, &s);
        let stats = lib.stats();
        assert_eq!(stats.misses, 4);
        for kind in CellKind::ALL {
            assert_eq!(stats.kind(kind).misses, 1, "{kind}");
        }
        assert_eq!(lib.len(), 4);
    }

    /// Regression: the old `Vec<u64>` key concatenated `gate_1q`/`gate_2q`
    /// without presence tags, so a spec with only `gate_1q` set collided
    /// with one carrying the same numbers in `gate_2q`; `readout_time:
    /// Some(0.0)` likewise collided with `None`.
    #[test]
    fn optional_field_presence_is_part_of_the_key() {
        let c = fixed_frequency_qubit();
        let mut only_1q = on_chip_multimode_resonator();
        only_1q.gate_1q = Some(GateSpec::new(40e-9, 1e-3));
        only_1q.gate_2q = None;
        let mut only_2q = only_1q.clone();
        only_2q.gate_1q = None;
        only_2q.gate_2q = Some(GateSpec::new(40e-9, 1e-3));
        assert_ne!(
            CharKey::new(CellKind::Register, &c, &only_1q, &CalibSnapshot::default()),
            CharKey::new(CellKind::Register, &c, &only_2q, &CalibSnapshot::default()),
        );

        let mut zero_readout = on_chip_multimode_resonator();
        zero_readout.readout_time = Some(0.0);
        let mut no_readout = zero_readout.clone();
        no_readout.readout_time = None;
        assert_ne!(
            CharKey::new(
                CellKind::Register,
                &c,
                &zero_readout,
                &CalibSnapshot::default()
            ),
            CharKey::new(
                CellKind::Register,
                &c,
                &no_readout,
                &CalibSnapshot::default()
            ),
        );
    }

    #[test]
    fn cell_kind_is_part_of_the_key() {
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        assert_ne!(
            CharKey::new(CellKind::Register, &c, &s, &CalibSnapshot::default()),
            CharKey::new(CellKind::SeqOp, &c, &s, &CalibSnapshot::default()),
        );
    }

    #[test]
    fn concurrent_requests_are_single_flight() {
        let lib = CellLibrary::new();
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    lib.get::<UscCell>(&c, &s);
                });
            }
        });
        let stats = lib.stats();
        assert_eq!(stats.misses, 1, "exactly one simulation ran");
        assert_eq!(stats.hits + stats.inflight_waits, 15);
        assert_eq!(stats.kind(CellKind::Usc).misses, 1);
    }

    #[test]
    fn save_load_round_trips_and_warm_starts() {
        let lib = CellLibrary::new();
        let c = fixed_frequency_qubit();
        let storages = [multimode_resonator_3d(), on_chip_multimode_resonator()];
        for s in &storages {
            lib.get::<RegisterCell>(&c, s);
            lib.get::<UscCell>(&c, s);
        }
        let path = temp_path("library-roundtrip");
        lib.save(&path).expect("save cache");
        let warm = CellLibrary::load(&path).expect("load cache");
        std::fs::remove_file(&path).ok();
        assert_eq!(warm.len(), 4);
        // Repeating the sweep on the warm library runs zero new simulations
        // and reproduces the channels exactly.
        for s in &storages {
            let fresh = lib.get::<RegisterCell>(&c, s);
            let loaded = warm.get::<RegisterCell>(&c, s);
            assert_eq!(*fresh, *loaded);
            warm.get::<UscCell>(&c, s);
        }
        let stats = warm.stats();
        assert_eq!(stats.misses, 0, "warm start re-simulates nothing");
        assert_eq!(stats.hits, 4);
        assert!(stats.sim_seconds_saved > 0.0);
    }

    #[test]
    fn calibrated_requests_get_their_own_entries() {
        let lib = CellLibrary::new();
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        let baseline = lib.get::<RegisterCell>(&c, &s);

        // An empty snapshot is the same design point: it shares the
        // uncalibrated entry instead of re-simulating.
        let same = lib.get_with_calib::<RegisterCell>(&c, &s, &CalibSnapshot::default());
        assert_eq!(*baseline, *same);
        assert_eq!(lib.stats().misses, 1);
        assert_eq!(lib.stats().hits, 1);

        // Degraded storage coherence must reach the characterization: a new
        // entry with a measurably worse channel.
        let mut degraded = CalibSnapshot::default();
        degraded.qubits.insert(
            "register/storage".to_string(),
            CalibParams {
                t1: Some(20e-6),
                t2: Some(20e-6),
                ..CalibParams::default()
            },
        );
        let worse = lib.get_with_calib::<RegisterCell>(&c, &s, &degraded);
        assert_eq!(lib.stats().misses, 2);
        assert_eq!(worse.storage_idle.t1, 20e-6);
        assert!(
            worse.load.fidelity < baseline.load.fidelity,
            "degraded {} vs baseline {}",
            worse.load.fidelity,
            baseline.load.fidelity
        );

        // The same snapshot is the same design point (cache hit); a
        // different one is not (fresh miss).
        lib.get_with_calib::<RegisterCell>(&c, &s, &degraded);
        assert_eq!(lib.stats().hits, 2);
        let mut other = degraded.clone();
        let params = other.qubits.get_mut("register/storage").unwrap();
        params.t1 = Some(40e-6);
        params.t2 = Some(40e-6);
        lib.get_with_calib::<RegisterCell>(&c, &s, &other);
        assert_eq!(lib.stats().misses, 3);
    }

    #[test]
    fn calibrated_entries_survive_save_load() {
        let lib = CellLibrary::new();
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        let mut snap = CalibSnapshot::default();
        snap.qubits.insert(
            "usc/s1".to_string(),
            CalibParams {
                swap_error: Some(0.05),
                ..CalibParams::default()
            },
        );
        let fresh = lib.get_with_calib::<UscCell>(&c, &s, &snap);
        let path = temp_path("library-calib-roundtrip");
        lib.save(&path).expect("save cache");
        let warm = CellLibrary::load(&path).expect("load cache");
        std::fs::remove_file(&path).ok();
        let loaded = warm.get_with_calib::<UscCell>(&c, &s, &snap);
        assert_eq!(*fresh, *loaded);
        assert_eq!(warm.stats().misses, 0, "warm start re-simulates nothing");
        assert_eq!(warm.stats().hits, 1);
    }

    /// Regression: `save` used to `fs::write` the target path directly, so
    /// a reader racing the writer (or a crash mid-write) could observe a
    /// truncated file. With write-to-temp + rename, every `load` observes a
    /// complete file.
    #[test]
    fn save_never_exposes_a_partial_file() {
        let lib = CellLibrary::new();
        lib.get::<RegisterCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
        let path = temp_path("library-atomic");
        lib.save(&path).expect("initial save");
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for _ in 0..200 {
                    lib.save(&path).expect("concurrent save");
                }
            });
            while !writer.is_finished() {
                let loaded = CellLibrary::load(&path).expect("load must never see a torn file");
                assert_eq!(loaded.len(), 1);
            }
        });
        // The temp file is transient: nothing but the target remains.
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&name) && *n != name)
            .collect();
        std::fs::remove_file(&path).ok();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    }

    /// Regression: every `save` in a process used the same temp name, so two
    /// threads saving to one path truncated and renamed each other's temp
    /// file — spurious `save` errors and torn files seen by `load`.
    #[test]
    fn concurrent_saves_to_one_path_never_tear_the_file() {
        let lib = CellLibrary::new();
        lib.get::<RegisterCell>(&fixed_frequency_qubit(), &on_chip_multimode_resonator());
        let path = temp_path("library-concurrent-saves");
        lib.save(&path).expect("initial save");
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| (0..300).filter(|_| lib.save(&path).is_err()).count()))
                .collect();
            let mut torn = 0;
            while writers.iter().any(|w| !w.is_finished()) {
                if CellLibrary::load(&path).map_or(true, |l| l.len() != 1) {
                    torn += 1;
                }
            }
            let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!((failed, torn), (0, 0), "(failed saves, torn loads)");
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = temp_path("library-garbage");
        std::fs::write(&path, b"not a cache").unwrap();
        let err = CellLibrary::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn failed_build_does_not_wedge_the_key() {
        let lib = CellLibrary::new();
        let storage = on_chip_multimode_resonator();
        // A Register wants (compute, storage); passing storage first trips
        // the role assertion inside the build and unwinds mid-flight.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lib.get::<RegisterCell>(&storage, &storage);
        }));
        assert!(attempt.is_err());
        // The key was released: retrying panics again rather than
        // deadlocking on a wedged in-flight slot...
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lib.get::<RegisterCell>(&storage, &storage);
        }));
        assert!(retry.is_err());
        // ...and valid requests still succeed.
        lib.get::<RegisterCell>(&fixed_frequency_qubit(), &storage);
        assert_eq!(lib.stats().misses, 1);
    }
}
