//! The §1/§2 simulation-burden claim: the hierarchical methodology (exact
//! density-matrix simulation at the cell level, phenomenological
//! composition at the module level, with characterization caching) reduces
//! the simulation cost by 10^4 or more.

use hetarch::prelude::*;

use crate::header;

/// Prints the cost ledger and a cached sweep's cell statistics; panics if
/// a reduction falls below 10^4 or a design point simulates twice.
pub fn dse_cost() {
    header(
        "DSE cost ablation",
        "Hierarchical vs flat simulation cost for the three §4 applications",
    );

    // Representative accounting for one full design-point evaluation of
    // each application, with cell characterizations measured by their
    // density-matrix system sizes.
    let apps: Vec<(&str, Vec<usize>, usize, u64)> = vec![
        // (name, cell sims (qubits), module span (qubits), module-level ops)
        ("distillation", vec![2, 2, 4], 16, 200_000),
        ("UEC memory (17QCC)", vec![2, 5], 17 + 4, 500_000),
        (
            "code teleportation",
            vec![2, 2, 4, 4, 5],
            24 + 16,
            1_000_000,
        ),
    ];
    println!(
        "{:<22} {:>16} {:>16} {:>12}",
        "application", "hierarchical", "flat", "reduction"
    );
    for (name, cells, span, ops) in apps {
        let mut ledger = CostLedger::new();
        for q in cells {
            ledger.record_cell_sim(q);
        }
        ledger.record_module(span, ops);
        println!(
            "{:<22} {:>16.3e} {:>16.3e} {:>11.1e}x",
            name,
            ledger.hierarchical_cost(),
            ledger.flat_cost(),
            ledger.reduction_factor()
        );
        assert!(
            ledger.reduction_factor() > 1e4,
            "{name}: reduction below the paper's 1e4 claim"
        );
    }

    // The cache multiplies the saving across a sweep: characterize once,
    // reuse at every sweep point (and single-flight admission keeps that
    // true for concurrent sweep workers). The loop stays serial so the
    // `waits` column never depends on thread timing.
    println!();
    let lib = CellLibrary::new();
    let c = catalog::coherence_limited_compute(0.5e-3);
    let sweep_points = 24;
    for _ in 0..sweep_points {
        for ts in [1e-3, 2.5e-3, 12.5e-3] {
            let storage = catalog::coherence_limited_storage(ts);
            lib.get::<RegisterCell>(&c, &storage);
            lib.get::<UscCell>(&c, &storage);
        }
        lib.get::<ParCheckCell>(&c, &c);
    }
    let stats = lib.stats();
    println!(
        "sweep of {} evaluations: {} cell simulations run, {} served from cache",
        sweep_points * 7,
        stats.misses,
        stats.hits
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "cell", "misses", "hits", "waits"
    );
    for kind in CellKind::ALL {
        let k = stats.kind(kind);
        println!(
            "{:<10} {:>8} {:>8} {:>8}",
            kind.name(),
            k.misses,
            k.hits,
            k.inflight_waits
        );
    }
    // Wall-clock seconds vary run to run, so they stay off stdout.
    eprintln!(
        "simulation time: {:.1} ms run, {:.1} ms avoided by caching",
        stats.sim_seconds_run * 1e3,
        stats.sim_seconds_saved * 1e3
    );
    assert_eq!(stats.misses, 7, "one simulation per distinct design point");
}
