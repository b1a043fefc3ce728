//! Cross-cutting characterization-cache properties: key injectivity over
//! perturbed device specs, single-flight admission under thread pressure,
//! bit-identity of cached vs freshly simulated channels, and the shape
//! invariance of calibrating a built layout.

use proptest::prelude::*;

use hetarch_cells::{
    Cell, CellKind, CellLibrary, CharKey, ParCheckCell, RegisterCell, SeqOpCell, UscCell, UscChain,
};
use hetarch_devices::calib::{CalibParams, CalibSnapshot};
use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};
use hetarch_devices::device::{DeviceSpec, GateSpec};
use hetarch_devices::rules::validate;
use hetarch_devices::topology::DeviceGraph;

/// Deterministically perturbs one field of the catalog transmon, covering
/// every field class the cache key must discriminate: plain floats,
/// optional floats, optional gate specs, and integer widths.
fn perturbed_spec(field: usize, x: f64) -> DeviceSpec {
    let mut s = fixed_frequency_qubit();
    match field {
        0 => s.t1 = 1e-6 + x * 1e-3,
        1 => s.t2 = 1e-6 + x * 1e-3,
        2 => {
            s.readout_time = if x < 0.25 {
                None
            } else {
                Some(1e-7 + x * 1e-6)
            }
        }
        3 => {
            s.gate_1q = if x < 0.25 {
                None
            } else {
                Some(GateSpec::new(1e-8 + x * 1e-7, 1e-3))
            }
        }
        4 => {
            s.gate_2q = if x < 0.25 {
                None
            } else {
                Some(GateSpec::new(1e-8 + x * 1e-7, 1e-3))
            }
        }
        5 => s.swap = GateSpec::new(1e-8 + x * 1e-7, 1e-4),
        6 => s.capacity = 1 + (x * 8.0) as u32,
        _ => s.max_connectivity = 1 + (x * 6.0) as u32,
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// The key function is injective on spec pairs: equal specs map to
    /// equal keys, distinct specs to distinct keys — including the cases
    /// where the specs differ only in *which* optional field is present.
    fn charkey_is_injective_over_perturbed_specs(
        a in (0usize..8, 0.0f64..1.0),
        b in (0usize..8, 0.0f64..1.0),
    ) {
        let spec_a = perturbed_spec(a.0, a.1);
        let spec_b = perturbed_spec(b.0, b.1);
        let partner = on_chip_multimode_resonator();
        let key_a = CharKey::new(CellKind::Register, &spec_a, &partner, &CalibSnapshot::default());
        let key_b = CharKey::new(CellKind::Register, &spec_b, &partner, &CalibSnapshot::default());
        prop_assert_eq!(spec_a == spec_b, key_a == key_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// The pair is ordered: `(a, b)` and `(b, a)` key differently whenever
    /// the specs differ.
    fn charkey_distinguishes_argument_order(a in (0usize..8, 0.0f64..1.0)) {
        let spec = perturbed_spec(a.0, a.1);
        let base = fixed_frequency_qubit();
        if spec != base {
            prop_assert_ne!(
                CharKey::new(CellKind::ParCheck, &spec, &base, &CalibSnapshot::default()),
                CharKey::new(CellKind::ParCheck, &base, &spec, &CalibSnapshot::default())
            );
        }
    }
}

/// A calibration-override label drawn from the real cell layout label set
/// (plus one stranger, which keys like any other label).
fn calib_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("register/compute".to_string()),
        Just("register/storage".to_string()),
        Just("parcheck/a".to_string()),
        Just("seqop/c1".to_string()),
        Just("usc/ancilla".to_string()),
        Just("usc/s2".to_string()),
        Just("somewhere/else".to_string()),
    ]
}

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u32..2, s).prop_map(|(tag, v)| (tag == 1).then_some(v))
}

fn calib_params() -> impl Strategy<Value = CalibParams> {
    (
        opt(1e-6f64..1e-3),
        opt(1e-6f64..1e-3),
        opt(0.0f64..0.1),
        opt(0.0f64..0.1),
        opt(0.0f64..0.1),
        opt(1e-7f64..1e-5),
    )
        .prop_map(
            |(t1, t2, gate_1q_error, gate_2q_error, swap_error, readout_time)| CalibParams {
                t1,
                t2,
                gate_1q_error,
                gate_2q_error,
                swap_error,
                readout_time,
            },
        )
}

fn snapshot() -> impl Strategy<Value = CalibSnapshot> {
    proptest::collection::vec((calib_label(), calib_params()), 0..4).prop_map(|entries| {
        CalibSnapshot {
            device: "fleet-under-test".to_string(),
            taken_at: String::new(),
            qubits: entries.into_iter().collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Calibrated keys are injective over the override set and never alias
    /// the uncalibrated key family: an effectively-empty snapshot keys
    /// exactly like no snapshot at all, equal override maps key equally,
    /// and distinct override maps (with at least one side non-empty) key
    /// distinctly.
    fn charkey_is_injective_over_calib_override_sets(
        snap_a in snapshot(),
        snap_b in snapshot(),
    ) {
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        let legacy = CharKey::new(CellKind::Usc, &c, &s, &CalibSnapshot::default());
        // The plain key is exactly the kind tag then both specs, so cache
        // files written by calibration-free runs keep warm-starting.
        let plain_bytes = [
            vec![CellKind::Usc as u8],
            serde::to_bytes(&c),
            serde::to_bytes(&s),
        ]
        .concat();
        prop_assert_eq!(legacy.as_bytes(), &plain_bytes[..]);
        let key_a = CharKey::new(CellKind::Usc, &c, &s, &snap_a);
        let key_b = CharKey::new(CellKind::Usc, &c, &s, &snap_b);

        for (snap, key) in [(&snap_a, &key_a), (&snap_b, &key_b)] {
            if snap.is_empty() {
                prop_assert_eq!(key.clone(), legacy.clone());
            } else {
                prop_assert_ne!(key.clone(), legacy.clone());
                prop_assert_eq!(key.as_bytes()[0] & 0x80, 0x80);
            }
        }

        if (snap_a.is_empty() && snap_b.is_empty()) || snap_a.qubits == snap_b.qubits {
            prop_assert_eq!(key_a, key_b);
        } else {
            prop_assert_ne!(key_a, key_b);
        }
    }
}

#[test]
fn calib_key_ignores_snapshot_metadata() {
    // Two snapshots with identical physics but different provenance are the
    // same design point: `device`/`taken_at` must not reach the key.
    let c = fixed_frequency_qubit();
    let s = on_chip_multimode_resonator();
    let mut snap_a = CalibSnapshot::default();
    snap_a.qubits.insert(
        "usc/s0".to_string(),
        CalibParams {
            swap_error: Some(0.02),
            ..CalibParams::default()
        },
    );
    let mut snap_b = snap_a.clone();
    snap_b.device = "another-fridge".to_string();
    snap_b.taken_at = "2026-08-08T00:00:00Z".to_string();
    assert_eq!(
        CharKey::new(CellKind::Usc, &c, &s, &snap_a),
        CharKey::new(CellKind::Usc, &c, &s, &snap_b),
    );
}

#[test]
fn sixteen_thread_hammer_runs_one_simulation() {
    let lib = CellLibrary::new();
    let a = fixed_frequency_qubit();
    std::thread::scope(|scope| {
        for _ in 0..16 {
            scope.spawn(|| {
                lib.get::<ParCheckCell>(&a, &a);
            });
        }
    });
    let stats = lib.stats();
    assert_eq!(stats.misses, 1, "single-flight admission must hold");
    assert_eq!(stats.hits + stats.inflight_waits, 15);
    assert_eq!(stats.kind(CellKind::ParCheck).misses, 1);
}

#[test]
fn cached_channel_is_bit_identical_to_fresh_characterization() {
    let compute = fixed_frequency_qubit();
    let storage = on_chip_multimode_resonator();
    let lib = CellLibrary::new();
    let cached = lib.get::<RegisterCell>(&compute, &storage);
    let fresh = RegisterCell::build(compute, storage)
        .expect("catalog pair obeys the design rules")
        .characterize();
    assert_eq!(*cached, fresh);
    // PartialEq would accept -0.0 == 0.0; compare the raw bit patterns of
    // the float fields to pin exact reproducibility.
    assert_eq!(
        cached.load.fidelity.to_bits(),
        fresh.load.fidelity.to_bits()
    );
    assert_eq!(
        cached.load.duration.to_bits(),
        fresh.load.duration.to_bits()
    );
    assert_eq!(
        cached.storage_idle.t1.to_bits(),
        fresh.storage_idle.t1.to_bits()
    );
    assert_eq!(
        cached.compute_idle.t2.to_bits(),
        fresh.compute_idle.t2.to_bits()
    );
}

/// Most slots any layout below carries (a USC chain with two extensions).
const MAX_SLOTS: usize = 17;

/// Builds layout variant `which`: the four cell kinds, USC with one to three
/// registers, and USC chains with zero to two extensions. Returns the plain
/// layout, the same layout calibrated the way the library calibrates it
/// ([`Cell::calibrate`] for cells, [`DeviceGraph::calibrate`] on a clone for
/// chains) and the readout budget it was checked with.
fn layouts(which: usize, calib: &CalibSnapshot) -> (DeviceGraph, DeviceGraph, usize) {
    fn cell<C: Cell>(mut cell: C, calib: &CalibSnapshot) -> (DeviceGraph, DeviceGraph) {
        let plain = cell.layout().clone();
        cell.calibrate(calib);
        (plain, cell.layout().clone())
    }
    let c = fixed_frequency_qubit();
    let s = on_chip_multimode_resonator();
    let ((plain, calibrated), readouts) = match which {
        0 => (cell(RegisterCell::build(c, s).unwrap(), calib), 0),
        1 => (cell(ParCheckCell::build(c.clone(), c).unwrap(), calib), 1),
        2 => (cell(SeqOpCell::build(c, s).unwrap(), calib), 1),
        3..=5 => (
            cell(UscCell::with_registers(c, s, which - 2).unwrap(), calib),
            1,
        ),
        _ => {
            let n_ext = which - 6;
            let chain = UscChain::new(c, s, n_ext).unwrap();
            let mut calibrated = chain.layout().clone();
            calibrated.calibrate(calib);
            return (chain.layout().clone(), calibrated, 1 + n_ext);
        }
    };
    (plain, calibrated, readouts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Calibration only rewrites device parameters: for random overrides on
    /// a layout's own labels, every label, coupling, role, readout flag,
    /// connectivity limit and capacity survives, the design rules give the
    /// same verdict at every readout budget, and each node's spec is exactly
    /// `calib.apply(label, plain_spec)`.
    fn calibrate_never_changes_layout_shape(
        which in 0usize..9,
        overrides in proptest::collection::vec(opt(calib_params()), MAX_SLOTS),
    ) {
        let (plain, _, _) = layouts(which, &CalibSnapshot::default());
        let calib = CalibSnapshot {
            device: "fleet-under-test".to_string(),
            taken_at: String::new(),
            qubits: plain
                .iter()
                .zip(overrides)
                .filter_map(|((_, node), params)| Some((node.label.clone(), params?)))
                .collect(),
        };
        let (plain, calibrated, readouts) = layouts(which, &calib);

        prop_assert_eq!(calibrated.num_devices(), plain.num_devices());
        prop_assert_eq!(calibrated.edges(), plain.edges());
        prop_assert_eq!(calibrated.total_capacity(), plain.total_capacity());
        for ((_, before), (id, after)) in plain.iter().zip(calibrated.iter()) {
            prop_assert_eq!(&after.label, &before.label);
            prop_assert_eq!(after.spec.role, before.spec.role);
            prop_assert_eq!(after.readout_equipped, before.readout_equipped);
            prop_assert_eq!(after.spec.max_connectivity, before.spec.max_connectivity);
            prop_assert_eq!(after.spec.capacity, before.spec.capacity);
            prop_assert_eq!(calibrated.degree(id), plain.degree(id));
            prop_assert_eq!(&after.spec, &calib.apply(&before.label, &before.spec));
        }
        for budget in 0..=readouts + 1 {
            prop_assert_eq!(validate(&calibrated, budget), validate(&plain, budget));
        }
        prop_assert!(validate(&calibrated, readouts).is_ok());
    }
}
