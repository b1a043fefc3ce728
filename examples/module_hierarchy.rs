//! The hierarchical design view (paper §2, Figs. 1, 2, 8, 11): build the
//! three case-study modules as design trees, validate every layout against
//! the design rules, and roll up footprint and control overhead from the
//! device level.
//!
//! Run with: `cargo run --release --example module_hierarchy`

use hetarch::modules::hierarchy::{ct_design, distillation_design, uec_design};
use hetarch::prelude::*;

fn main() {
    let lib = CellLibrary::new();
    let compute = catalog::coherence_limited_compute(0.5e-3);
    let storage = catalog::coherence_limited_storage(12.5e-3);
    let nominal = CalibSnapshot::default();

    for (title, tree) in [
        (
            "Fig. 1 — entanglement distillation",
            distillation_design(&lib, &compute, &storage, &nominal),
        ),
        (
            "Fig. 8 — universal error correction (USC + 1 EXT)",
            uec_design(&lib, &compute, &storage, 1, &nominal),
        ),
        (
            "Fig. 11 — code teleportation",
            ct_design(&lib, &compute, &storage),
        ),
    ] {
        println!("== {title} ==");
        print!("{}", tree.render());
        match tree.validate_tree() {
            Ok(()) => println!("design rules: all layouts pass DR1-DR4"),
            Err(violations) => {
                for (node, v) in violations {
                    println!("  {node}: {v}");
                }
            }
        }
        let cost = tree.footprint();
        println!(
            "inherited footprint: {:.0} mm^2 planar, {} devices, capacity {} qubits,\n\
             control I/O: {} charge + {} readout lines\n",
            cost.area_mm2,
            tree.num_devices(),
            cost.capacity,
            cost.control.charge_lines,
            cost.control.readout_lines,
        );
    }

    // The cell library characterized each distinct cell exactly once even
    // though the trees above instantiate them many times.
    let stats = lib.stats();
    println!(
        "cell characterizations: {} density-matrix runs, {} cache hits \
         ({:.1} ms of simulation avoided)",
        stats.misses,
        stats.hits,
        stats.sim_seconds_saved * 1e3
    );
}
