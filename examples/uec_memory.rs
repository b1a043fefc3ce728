//! A universal error-corrected memory (paper §4.2.2): any stabilizer code up
//! to 30 qubits runs on the same USC hardware with serialized checks, so
//! even non-planar codes (Reed-Muller) work without routing overhead.
//!
//! Run with: `cargo run --release --example uec_memory`

use hetarch::prelude::*;

fn main() {
    let pool = WorkerPool::available();
    let compute = catalog::coherence_limited_compute(0.5e-3);
    let storage = catalog::coherence_limited_storage(50e-3);
    let usc = UscCell::new(compute, storage)
        .expect("USC satisfies the design rules")
        .characterize();
    println!(
        "USC: {} registers x {} modes, weight-2 Z-check fidelity {:.4} in {:.2} µs\n",
        usc.registers,
        usc.capacity / usc.registers,
        usc.check2.fidelity,
        usc.check2.duration * 1e6
    );

    let noise = UecNoise::default(); // CX 1%, storage SWAP 0.5%
    let shots = 20_000;

    println!(
        "{:8} {:>4} {:>6} {:>14} {:>14} {:>12}",
        "code", "n", "d", "cycle (µs)", "logical/cycle", "hom/cycle"
    );
    let codes: Vec<StabilizerCode> = vec![
        steane(),
        color_17(),
        reed_muller_15(),
        rotated_surface_code(3),
        rotated_surface_code(4),
    ];
    for code in codes {
        let module = UecModule::new(code.clone(), usc.clone(), noise);
        let het = module.logical_error_rate_on(&pool, shots, 42);
        let hom = if code.name().starts_with("SC") {
            hom_surface_logical_error(&pool, code.distance(), 0.5e-3, noise, shots, 43)
        } else {
            HomModule::new(code.clone(), 0.5e-3, noise)
                .logical_error_rate_on(&pool, shots, 43)
                .logical_error_rate
        };
        println!(
            "{:8} {:>4} {:>6} {:>14.2} {:>14.4} {:>12.4}",
            code.name(),
            code.num_qubits(),
            code.distance(),
            het.cycle_duration * 1e6,
            het.logical_error_rate,
            hom
        );
    }

    // Chaining USC-EXT cells scales capacity past 30 qubits (Fig. 8).
    println!("\nUSC-EXT chaining:");
    for n_ext in 0..=2 {
        let chain = UscChain::new(
            catalog::coherence_limited_compute(0.5e-3),
            catalog::coherence_limited_storage(50e-3),
            n_ext,
        )
        .expect("chain satisfies the design rules");
        println!(
            "  USC + {} EXT: capacity {} data qubits, {} ancillas",
            n_ext,
            chain.capacity(),
            chain.num_ancillas()
        );
    }
}
