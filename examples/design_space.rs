//! Design-space exploration (paper §2, third contribution): sweep storage
//! coherence against delivered distillation rate and footprint, extract the
//! Pareto front, and show the hierarchical-simulation cost advantage.
//!
//! Run with: `cargo run --release --example design_space`

use hetarch::prelude::*;

fn main() {
    let pool = WorkerPool::available();
    // --- 1. Which storage coherence is "enough" for distillation? -------
    let ts_values = [0.5e-3, 1e-3, 2.5e-3, 5e-3, 12.5e-3, 50e-3];
    let space = DesignSpace::new(vec![Axis::new("ts", ts_values.to_vec())]);
    for gen_rate in [1e5, 1e6] {
        let points = sweep_on(&pool, space.points(), |p| {
            let config = DistillConfig::heterogeneous(p.get("ts"), gen_rate, 13);
            DistillModule::new(config).run(5e-3).delivered_rate_hz
        });
        println!("EP generation {} kHz:", gen_rate / 1e3);
        for (p, rate_hz) in &points {
            println!(
                "  Ts = {:>5.1} ms -> {:>8.1} kHz",
                p.get("ts") * 1e3,
                rate_hz / 1e3
            );
        }
        // The smallest Ts reaching 90% of the best delivered rate.
        let best = points.iter().map(|(_, rate)| *rate).fold(0.0, f64::max);
        let sufficient = points
            .iter()
            .find(|(_, rate)| best > 0.0 && *rate >= 0.9 * best)
            .map(|(p, _)| p.get("ts"));
        match sufficient {
            Some(ts) => println!("  -> Ts = {:.1} ms already reaches 90% of best\n", ts * 1e3),
            None => println!("  -> no setting delivered pairs\n"),
        }
    }

    // --- 2. Pareto front: delivered rate vs physical footprint. ---------
    // Candidate storage devices trade coherence against footprint.
    let candidates = [
        ("on-chip resonator", catalog::on_chip_multimode_resonator()),
        ("3D multimode", catalog::multimode_resonator_3d()),
        ("3D memory", catalog::memory_3d()),
    ];
    let mut metrics = Vec::new();
    let mut names = Vec::new();
    for (name, storage) in &candidates {
        let mut cfg = DistillConfig::heterogeneous(storage.t1, 1e6, 17);
        // Use each device's real coherence, capacity, footprint and swap
        // *time*, with the §4 coherence-limited gate-error convention.
        let mut storage = storage.clone();
        storage.swap = hetarch::devices::GateSpec::new(storage.swap.time, 0.0);
        let lib = CellLibrary::new();
        cfg.register = (*lib
            .get::<RegisterCell>(&catalog::coherence_limited_compute(0.5e-3), &storage))
        .clone();
        let report = DistillModule::new(cfg).run(3e-3);
        let area = storage.footprint.area_mm2();
        println!(
            "{name:>18}: rate {:>8.1} kHz, area {:>9.1} mm^2",
            report.delivered_rate_hz / 1e3,
            area
        );
        // Minimize (negative rate, area).
        metrics.push(vec![-report.delivered_rate_hz, area]);
        names.push(*name);
    }
    let front = pareto_front(&metrics);
    println!(
        "Pareto-optimal storage choices: {:?}\n",
        front.iter().map(|&i| names[i]).collect::<Vec<_>>()
    );

    // --- 3. The hierarchical-simulation cost ledger. ---------------------
    let mut ledger = CostLedger::new();
    // Cells characterized exactly: Register (2 qubits), ParCheck (2),
    // SeqOp CNOT probe (4), USC weight-2 check (5).
    for q in [2, 2, 4, 5] {
        ledger.record_cell_sim(q);
    }
    // The distillation module spans ~16 physical qubits and the event
    // simulator executed ~1e5 operations above the cell abstraction.
    ledger.record_module(16, 100_000);
    println!(
        "simulation cost: hierarchical {:.3e} vs flat {:.3e} -> {:.1e}x reduction",
        ledger.hierarchical_cost(),
        ledger.flat_cost(),
        ledger.reduction_factor()
    );
}
