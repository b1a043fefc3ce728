//! Ablation studies for the design choices DESIGN.md calls out, and the
//! paper's sizing studies:
//!
//! 1. DEJMPS bilinear fast path vs exact density-matrix simulation
//!    (asserted equal to 1e-9; the speedup goes to stderr),
//! 2. the greedy scheduler's re-distillation priority (Fig. 3's policy),
//! 3. the UEC qubit-assignment search vs naive round-robin,
//! 4. UEC logical error vs storage SWAP error (the §4.2 calibration knob),
//! 5. USC-EXT chain parallelism vs a hypothetical serial chain,
//! 6. union-find vs greedy-matching surface-code decoding,
//! 7. the distillation module's memory capacities (the §4.1 sizing study),
//! 8. the distiller's compute device (the §3.1 within-type tradeoff).

use hetarch::devices::GateSpec;
use hetarch::modules::distill::Policy;
use hetarch::modules::uec::{build_schedule, search_assignment, Assignment, ChainUecModule};
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;

use crate::{header, Scale};

/// One §4.1 sizing point: the distilled-EP rate (Hz) delivered with an
/// input and an output memory of the given capacities (pairs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityPoint {
    pub input_pairs: usize,
    pub output_pairs: usize,
    pub rate_hz: f64,
}

/// The §4.1 sizing study at 1 MHz generation and Ts = 12.5 ms, which found
/// "two Register cells for the input memory with three modes each ... and
/// one output Register with three modes" sufficient; the capacities run in
/// parallel on `pool`.
pub fn capacity_points(pool: &WorkerPool, duration: f64, seed: u64) -> Vec<CapacityPoint> {
    const CAPACITIES: [(usize, usize); 5] = [(2, 1), (3, 3), (6, 3), (9, 3), (12, 6)];
    pool.map_indexed(CAPACITIES.len(), |i| {
        let (input_pairs, output_pairs) = CAPACITIES[i];
        let mut cfg = DistillConfig::heterogeneous(12.5e-3, 1e6, seed);
        cfg.input_capacity = input_pairs;
        cfg.output_capacity = output_pairs;
        let rate_hz = DistillModule::new(cfg).run(duration).delivered_rate_hz;
        CapacityPoint {
            input_pairs,
            output_pairs,
            rate_hz,
        }
    })
}

/// One §3.1 compute-device point: the distilled-EP rate (Hz) with the
/// named device as the distiller's compute element, its T2 (s) and its
/// control lines. Fluxonium trades higher T1 and an extra flux line for
/// lower T2.
#[derive(Clone, Debug, PartialEq)]
pub struct ComputeChoicePoint {
    pub device: String,
    pub rate_hz: f64,
    pub control_lines: u32,
    pub t2: f64,
}

/// The §3.1 within-type study at 2 MHz generation and Ts = 12.5 ms: each
/// catalog compute device, with §4's coherence-limited gates but its own
/// T1/T2, as the distiller's compute element; the devices run in parallel
/// on `pool`.
pub fn compute_choice_points(
    pool: &WorkerPool,
    duration: f64,
    seed: u64,
) -> Vec<ComputeChoicePoint> {
    let devices = [
        catalog::fixed_frequency_qubit(),
        catalog::flux_tunable_qubit(),
    ];
    pool.map_indexed(devices.len(), |i| {
        let base = &devices[i];
        let mut compute = base.clone();
        // §4 convention: gate errors are coherence-limited.
        compute.gate_1q = Some(GateSpec::new(40e-9, 0.0));
        compute.gate_2q = Some(GateSpec::new(100e-9, 0.0));
        compute.swap = GateSpec::new(100e-9, 0.0);
        let storage = catalog::coherence_limited_storage(12.5e-3);
        let lib = CellLibrary::new();
        let mut cfg = DistillConfig::heterogeneous(12.5e-3, 2e6, seed);
        cfg.register = (*lib.get::<RegisterCell>(&compute, &storage)).clone();
        cfg.parcheck = (*lib.get::<ParCheckCell>(&compute, &compute)).clone();
        ComputeChoicePoint {
            device: base.name.clone(),
            rate_hz: DistillModule::new(cfg).run(duration).delivered_rate_hz,
            control_lines: base.control.total(),
            t2: base.t2,
        }
    })
}

/// Prints every ablation. Panics if the DEJMPS table and the exact
/// density-matrix round differ by more than 1e-9.
pub fn ablations(pool: &WorkerPool, scale: &Scale) {
    header(
        "Ablations",
        "Design-choice ablations called out in DESIGN.md",
    );
    let n = scale.shots(10_000);

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
    assert!(
        (fast.pair.fidelity() - exact.pair.fidelity()).abs() <= 1e-9
            && (fast.success_prob - exact.success_prob).abs() <= 1e-9,
        "DEJMPS table diverges from the exact density matrix"
    );
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
    // Wall-clock timings vary run to run, so they stay off stdout.
    eprintln!(
        "   1000 rounds: exact {:?}, table {:?} ({}x speedup)",
        t_exact,
        t_fast,
        (t_exact.as_nanos() / t_fast.as_nanos().max(1))
    );
    println!();

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
        let r = UecModule::new(steane(), usc.clone(), noise).logical_error_rate_on(pool, n, 42);
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
    let r = module.logical_error_rate_on(pool, n.min(5_000), 7);
    println!(
        "   d=6 chained logical error per cycle: {:.4}",
        r.logical_error_rate
    );
    println!();

    // --- 6. Surface-code decoder ablation. -------------------------------
    println!("6. Surface-code decoder ablation (d=5, paper Fig. 6 noise):");
    let mem = SurfaceMemory::new(5, 5, SurfaceNoise::default());
    for (name, which) in [
        ("union-find (production)", SurfaceDecoder::UnionFind),
        ("greedy matching", SurfaceDecoder::GreedyMatching),
    ] {
        let (_, per_round) = mem.logical_error_rate_on(pool, which, n, 13);
        println!("   {name:<24} logical/round {per_round:.5}");
    }
    println!();

    // --- 7. Distillation memory sizing (§4.1). ---------------------------
    let duration = scale.duration(10.0);
    println!(
        "7. Distillation memory capacity (paper §4.1 sizing; 1 MHz generation, Ts = 12.5 ms):"
    );
    for p in capacity_points(pool, duration, 11) {
        println!(
            "   input {:>2} / output {} pairs: {:>8.1} kHz",
            p.input_pairs,
            p.output_pairs,
            p.rate_hz / 1e3
        );
    }
    println!();

    // --- 8. Compute-device choice (§3.1). --------------------------------
    println!("8. Distiller compute device (paper §3.1; 2 MHz generation, Ts = 12.5 ms):");
    for p in compute_choice_points(pool, duration, 5) {
        println!(
            "   {:<22} T2 = {:>6.1} us, {} control lines: {:>8.1} kHz",
            p.device,
            p.t2 * 1e6,
            p.control_lines,
            p.rate_hz / 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_sizing_is_sufficient() {
        // §4.1: 6 input pairs + 3 output pairs suffice — larger memories do
        // not deliver meaningfully more.
        let pts = capacity_points(&WorkerPool::new(2), 4e-3, 11);
        let rate_of = |inp: usize| {
            pts.iter()
                .find(|p| p.input_pairs == inp)
                .map(|p| p.rate_hz)
                .unwrap()
        };
        let paper = rate_of(6);
        let bigger = rate_of(12);
        assert!(paper > 0.0);
        assert!(
            bigger <= paper * 1.25,
            "doubling capacity should not buy >25%: {paper} -> {bigger}"
        );
        // A 2-pair input memory is a real bottleneck at this rate.
        assert!(rate_of(2) < paper, "tiny memory should underperform");
    }

    #[test]
    fn compute_choice_reflects_t2_tradeoff() {
        // The throughput gap from the fluxonium's lower T2 is smaller than
        // single-seed Monte-Carlo noise at short sim durations, so compare
        // rates averaged over several seeds.
        let mut transmon_sum = 0.0;
        let mut fluxonium_sum = 0.0;
        for seed in [5, 6, 7, 8, 9] {
            let pts = compute_choice_points(&WorkerPool::new(2), 2e-3, seed);
            assert_eq!(pts.len(), 2);
            let transmon = pts.iter().find(|p| p.device.contains("Fixed")).unwrap();
            let fluxonium = pts.iter().find(|p| p.device.contains("Flux")).unwrap();
            // The fluxonium's extra flux line shows in the control budget...
            assert!(fluxonium.control_lines > transmon.control_lines);
            transmon_sum += transmon.rate_hz;
            fluxonium_sum += fluxonium.rate_hz;
        }
        // ...and its lower T2 costs distillation throughput on average.
        assert!(
            transmon_sum >= fluxonium_sum,
            "transmon {} vs fluxonium {}",
            transmon_sum / 5.0,
            fluxonium_sum / 5.0
        );
    }

    #[test]
    fn capacity_study_is_worker_count_invariant() {
        let study = |workers| capacity_points(&WorkerPool::new(workers), 1e-3, 11);
        let baseline = study(1);
        assert_eq!(baseline.len(), 5);
        for workers in [1, 2, 8] {
            assert_eq!(study(workers), baseline, "differs at {workers} workers");
        }
    }

    #[test]
    fn compute_choice_study_is_worker_count_invariant() {
        let study = |workers| compute_choice_points(&WorkerPool::new(workers), 1e-3, 5);
        let baseline = study(1);
        assert_eq!(baseline.len(), 2);
        for workers in [1, 2, 8] {
            assert_eq!(study(workers), baseline, "differs at {workers} workers");
        }
    }
}
