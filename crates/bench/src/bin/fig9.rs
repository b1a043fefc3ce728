//! Regenerates Fig. 9: logical error rate of selected QEC codes on the
//! universal error correction module as a function of storage coherence T_S.

use hetarch::prelude::*;
use hetarch_bench::{header, shots};

fn main() {
    let pool = WorkerPool::available();
    header(
        "Figure 9",
        "Per-cycle logical error on the UEC module vs T_S (serialized checks,\n\
         Tc = 0.5 ms, CX error 1%, storage SWAP error 0.5%)",
    );
    let n = shots(20_000);
    let noise = UecNoise::default();
    let ts_ms = [0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0];
    let codes: Vec<StabilizerCode> = vec![
        reed_muller_15(),
        color_17(),
        rotated_surface_code(3),
        rotated_surface_code(4),
        steane(),
    ];

    print!("{:>9}", "Ts (ms)");
    for c in &codes {
        print!(" {:>9}", c.name());
    }
    println!();
    for &ts in &ts_ms {
        print!("{ts:>9.1}");
        for code in &codes {
            let usc = UscCell::new(
                catalog::coherence_limited_compute(0.5e-3),
                catalog::coherence_limited_storage(ts * 1e-3),
            )
            .expect("design rules hold")
            .characterize();
            let r = UecModule::new(code.clone(), usc, noise).logical_error_rate_on(&pool, n, 9);
            print!(" {:>9.4}", r.logical_error_rate);
        }
        println!();
    }
    println!();
    println!(
        "expected shape: every curve falls as T_S grows and flattens once gate\n\
         errors dominate; the Reed-Muller code sits highest, Steane and the\n\
         surface codes lowest."
    );
}
