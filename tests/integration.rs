//! Cross-crate integration: devices → cells → modules plumbing.

use hetarch::prelude::*;

#[test]
fn catalog_devices_build_all_standard_cells() {
    let lib = CellLibrary::new();
    let transmon = catalog::fixed_frequency_qubit();
    for storage in [
        catalog::memory_3d(),
        catalog::multimode_resonator_3d(),
        catalog::on_chip_multimode_resonator(),
    ] {
        let reg = lib.get::<RegisterCell>(&transmon, &storage);
        assert!(reg.load.fidelity > 0.9, "{}", storage.name);
        let usc = lib.get::<UscCell>(&transmon, &storage);
        assert!(usc.check2.fidelity > 0.8, "{}", storage.name);
        let seq = lib.get::<SeqOpCell>(&transmon, &storage);
        assert!(seq.seq_cnot.fidelity > 0.8, "{}", storage.name);
    }
    let pc = lib.get::<ParCheckCell>(&transmon, &catalog::flux_tunable_qubit());
    assert!(pc.parity.fidelity > 0.9);
}

#[test]
fn design_rules_reject_pathological_layouts() {
    // A storage device coupled to two computes breaks DR2/DR3.
    let mut g = DeviceGraph::new();
    let s = g.add_device("s", catalog::multimode_resonator_3d(), false);
    let c1 = g.add_device("c1", catalog::fixed_frequency_qubit(), false);
    let c2 = g.add_device("c2", catalog::fixed_frequency_qubit(), false);
    g.connect(s, c1);
    g.connect(s, c2);
    let violations = validate(&g, 0).unwrap_err();
    assert!(violations.len() >= 2);
}

#[test]
fn cell_library_cache_feeds_dse_ledger() {
    let lib = CellLibrary::new();
    let c = catalog::coherence_limited_compute(0.5e-3);
    for _ in 0..4 {
        for ts in [1e-3, 5e-3] {
            lib.get::<RegisterCell>(&c, &catalog::coherence_limited_storage(ts));
        }
    }
    let stats = lib.stats();
    assert_eq!(stats.misses, 2, "two distinct design points");
    assert_eq!(stats.hits, 6, "revisits served from cache");
    assert_eq!(stats.kind(CellKind::Register).misses, 2);
    assert_eq!(stats.kind(CellKind::Usc).misses, 0);
    assert!(
        stats.sim_seconds_saved > 0.0,
        "hits credit saved simulation"
    );

    let mut ledger = CostLedger::new();
    ledger.record_cell_sim(2);
    ledger.record_cell_sim(2);
    ledger.record_cache_hits(stats.hits);
    ledger.record_module(12, 10_000);
    assert!(ledger.reduction_factor() > 1e3);
}

#[test]
fn dse_sweep_runs_modules_in_parallel() {
    let space = DesignSpace::new(vec![Axis::new("ts", vec![1e-3, 12.5e-3])]);
    let results = sweep_on(&WorkerPool::new(2), space.points(), |p| {
        let cfg = DistillConfig::heterogeneous(p.get("ts"), 1e6, 5);
        DistillModule::new(cfg).run(0.5e-3).rounds_attempted
    });
    assert_eq!(results.len(), 2);
    for (_, attempts) in &results {
        assert!(*attempts > 0);
    }
}

#[test]
fn all_small_codes_validate_and_decode() {
    for code in [
        steane(),
        color_17(),
        reed_muller_15(),
        rotated_surface_code(3),
    ] {
        assert!(code.is_css());
        let dec = LookupDecoder::new(&code, 1);
        // Every weight-1 error decodes cleanly.
        for q in 0..code.num_qubits() {
            let e = PauliString::from_sparse(code.num_qubits(), &[(q, Pauli::X)]);
            let corr = dec.decode(&code.syndrome_of(&e));
            let residual = e.xor(&corr);
            assert!(code.in_normalizer(&residual));
            assert!(!code.is_logical_error(&residual));
        }
    }
}

#[test]
fn footprint_accounting_spans_cells() {
    use hetarch::devices::footprint::layout_cost;
    let cell = RegisterCell::new(
        catalog::fixed_frequency_qubit(),
        catalog::multimode_resonator_3d(),
    )
    .unwrap();
    let cost = layout_cost(cell.layout());
    assert!(cost.area_mm2 > 1e4, "3D resonator dominates the area");
    assert_eq!(cost.capacity, 11);
    assert_eq!(cost.three_d_devices, 1);
}
