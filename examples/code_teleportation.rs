//! Code teleportation (paper §4.3): prepare the logical Bell resource
//! `Φ+_AB` between two different QEC codes, composing the distillation, CAT
//! generation and UEC sub-modules.
//!
//! Run with: `cargo run --release --example code_teleportation`

use hetarch::prelude::*;

fn main() {
    let pool = WorkerPool::available();
    let pairs: Vec<(&str, StabilizerCode, StabilizerCode)> = vec![
        ("SC3 <-> RM15", rotated_surface_code(3), reed_muller_15()),
        (
            "SC3 <-> SC4",
            rotated_surface_code(3),
            rotated_surface_code(4),
        ),
        ("17QCC <-> SC4", color_17(), rotated_surface_code(4)),
    ];

    println!("EP generation 1000 kHz, distillation target 99.5%\n");
    println!(
        "{:>14} {:>10} {:>10} {:>10}",
        "pair", "het", "hom", "reduction"
    );
    for (name, a, b) in &pairs {
        let mut het_cfg = CtConfig::heterogeneous(a.clone(), b.clone(), 50e-3);
        het_cfg.shots = 10_000;
        let het = CtModule::new(het_cfg).evaluate(&pool);
        let mut hom_cfg = CtConfig::homogeneous(a.clone(), b.clone());
        hom_cfg.shots = 10_000;
        let hom = CtModule::new(hom_cfg).evaluate(&pool);
        println!(
            "{:>14} {:>10.3} {:>10.3} {:>9.2}x",
            name,
            het.logical_error_probability,
            hom.logical_error_probability,
            hom.logical_error_probability / het.logical_error_probability
        );
    }

    // Error breakdown for one pair.
    let mut cfg = CtConfig::heterogeneous(rotated_surface_code(3), reed_muller_15(), 50e-3);
    cfg.shots = 10_000;
    let r = CtModule::new(cfg).evaluate(&pool);
    println!("\nBreakdown for SC3 <-> RM15 at Ts = 50 ms:");
    println!(
        "  EP link (2 pairs @ F = {:.4}): {:.4}",
        r.ep_fidelity, r.breakdown.ep
    );
    println!("  CAT generation:                {:.4}", r.breakdown.cat);
    println!("  logical |+> in SC3:            {:.4}", r.breakdown.plus_a);
    println!("  logical |+> in RM15:           {:.4}", r.breakdown.plus_b);
    println!(
        "  transversal CNOT layer:        {:.4}",
        r.breakdown.transversal
    );
    println!(
        "  logical measurement:           {:.4}",
        r.breakdown.measurement
    );
    println!(
        "  total:                         {:.4}",
        r.logical_error_probability
    );

    // Storage-coherence sweep, Fig. 12 style.
    println!("\nCT error vs storage coherence (SC3 <-> SC4):");
    for ts_ms in [0.5, 2.0, 10.0, 50.0] {
        let mut cfg = CtConfig::heterogeneous(
            rotated_surface_code(3),
            rotated_surface_code(4),
            ts_ms * 1e-3,
        );
        cfg.shots = 6_000;
        let r = CtModule::new(cfg).evaluate(&pool);
        println!("  Ts = {ts_ms:>5.1} ms: {:.3}", r.logical_error_probability);
    }
}
