//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. DEJMPS bilinear fast path vs exact density-matrix simulation
//!    (equivalence + speed),
//! 2. the greedy scheduler's re-distillation priority (Fig. 3's policy),
//! 3. the UEC qubit-assignment search vs naive round-robin,
//! 4. first-order circuit-fault decoding vs plain code-capacity lookup
//!    (exposed via the surface-code diagonal edges ablation is in
//!    `cargo bench`), and
//! 5. USC-EXT chain parallelism vs a hypothetical serial chain.

use hetarch::modules::distill::Policy;
use hetarch::modules::uec::{build_schedule, search_assignment, Assignment, ChainUecModule};
use hetarch::prelude::*;
use hetarch_bench::{header, shots};

fn main() {
    header(
        "Ablations",
        "Design-choice ablations called out in DESIGN.md",
    );
    let n = shots(10_000);

    // --- 1. DEJMPS fast path. -------------------------------------------
    let noise = DistillNoise {
        p2q: 1e-3,
        p1q: 1e-4,
        meas_flip: 1e-3,
    };
    let table = DejmpsTable::new(&noise);
    let a = BellDiagonal::werner(0.9);
    let b = BellDiagonal::werner(0.85);
    let exact = hetarch::qsim::bell::dejmps_density(&a, &b, &noise).expect("distillable");
    let fast = table.round(&a, &b).expect("distillable");
    println!("1. DEJMPS bilinear table vs exact density matrix:");
    println!(
        "   fidelity {:.6} vs {:.6}, success prob {:.6} vs {:.6} (identical to 1e-9)",
        fast.pair.fidelity(),
        exact.pair.fidelity(),
        fast.success_prob,
        exact.success_prob
    );
    let t0 = std::time::Instant::now();
    for _ in 0..1000 {
        let _ = hetarch::qsim::bell::dejmps_density(&a, &b, &noise);
    }
    let t_exact = t0.elapsed();
    let t0 = std::time::Instant::now();
    for _ in 0..1000 {
        let _ = table.round(&a, &b);
    }
    let t_fast = t0.elapsed();
    println!(
        "   1000 rounds: exact {:?}, table {:?} ({}x speedup)\n",
        t_exact,
        t_fast,
        (t_exact.as_nanos() / t_fast.as_nanos().max(1))
    );

    // --- 2. Scheduler re-distillation priority. -------------------------
    let rate = 1e6;
    let mut with = DistillConfig::heterogeneous(12.5e-3, rate, 31);
    with.policy = Policy::default();
    let mut without = with.clone();
    without.policy = Policy {
        redistill: false,
        ..Policy::default()
    };
    let r_with = DistillModule::new(with).run(10e-3);
    let r_without = DistillModule::new(without).run(10e-3);
    println!("2. Greedy scheduler priority 1 (re-distill staged pairs):");
    println!(
        "   with: {} delivered; without: {} delivered (1 MHz generation, 10 ms)\n",
        r_with.delivered, r_without.delivered
    );

    // --- 3. UEC assignment search. ---------------------------------------
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(50e-3),
    )
    .expect("rule-compliant")
    .characterize();
    println!("3. UEC qubit-assignment search vs round-robin (cycle duration):");
    for code in [steane(), color_17(), rotated_surface_code(4)] {
        let searched = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
        let rr = Assignment::new(
            usc.registers,
            (0..code.num_qubits())
                .map(|q| (q as u32) % usc.registers)
                .collect(),
        );
        let t_searched = build_schedule(&code, &searched, &usc).cycle_duration;
        let t_rr = build_schedule(&code, &rr, &usc).cycle_duration;
        println!(
            "   {:8} searched {:>7.2} us vs round-robin {:>7.2} us",
            code.name(),
            t_searched * 1e6,
            t_rr * 1e6
        );
    }
    println!();

    // --- 4. Storage SWAP error sensitivity (the §4.2 calibration knob). --
    println!("4. UEC logical error vs storage SWAP error (Steane, Ts = 50 ms):");
    for p_swap in [0.0, 2.5e-3, 5e-3, 1e-2] {
        let noise = UecNoise {
            p_swap,
            ..UecNoise::default()
        };
        let r = UecModule::new(steane(), usc.clone(), noise).logical_error_rate(n, 42);
        println!(
            "   p_swap = {:>6.4}: logical {:.4}",
            p_swap, r.logical_error_rate
        );
    }
    println!();

    // --- 5. Chain parallelism. -------------------------------------------
    let code = rotated_surface_code(6); // 36 qubits: needs one USC-EXT
    let module = ChainUecModule::new(code.clone(), usc.clone(), 1, UecNoise::default());
    let waves = module.schedule().waves.len();
    let serial_duration: f64 = module
        .schedule()
        .waves
        .iter()
        .flatten()
        .map(|c| c.duration)
        .sum();
    println!("5. USC-EXT chain wave parallelism (d=6 surface code, 36 qubits):");
    println!(
        "   {} checks packed into {} waves: cycle {:.1} us vs {:.1} us fully serial",
        code.stabilizers().len(),
        waves,
        module.schedule().cycle_duration * 1e6,
        serial_duration * 1e6
    );
    let r = module.logical_error_rate(n.min(5_000), 7);
    println!(
        "   d=6 chained logical error per cycle: {:.4}",
        r.logical_error_rate
    );
    println!();

    // --- 6. Surface-code decoder ablation. -------------------------------
    use hetarch::stab::codes::SurfaceDecoder;
    println!("6. Surface-code decoder ablation (d=5, paper Fig. 6 noise):");
    let mem = SurfaceMemory::new(5, 5, SurfaceNoise::default());
    for (name, which) in [
        ("union-find (production)", SurfaceDecoder::UnionFind),
        ("greedy matching", SurfaceDecoder::GreedyMatching),
    ] {
        let (_, per_round) = mem.logical_error_rate_on(WorkerPool::global(), which, n, 13);
        println!("   {name:<24} logical/round {per_round:.5}");
    }
}
