//! Exhaustive first-order fault coverage of the UEC decoding pipeline:
//! every single circuit fault — any Pauli on any data qubit at any point in
//! the serialized schedule, or any single measurement flip — must decode
//! without a logical error. This is the property that restores Stim-grade
//! circuit-level decoding on top of lookup tables.

use hetarch_cells::UscCell;
use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch_modules::baseline::layer_checks;
use hetarch_modules::faults::Frame;
use hetarch_modules::uec::{build_schedule, search_assignment, CycleDecoder};
use hetarch_stab::codes::{color_17, reed_muller_15, rotated_surface_code, steane, StabilizerCode};
use hetarch_stab::pauli::Pauli;

/// Runs the full decode pipeline for a single injected fault and asserts it
/// never produces a logical error.
fn assert_single_faults_covered(code: &StabilizerCode, groups: &[Vec<usize>]) {
    let n = code.num_qubits();
    let stabs: Vec<Frame> = code.stabilizers().iter().map(Frame::of).collect();
    let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
    let decoder = CycleDecoder::new(code, weight_cap, groups);

    let decode = |symptom: u64, error: Frame| {
        assert!(
            !decoder.fails(symptom, error),
            "{}: single fault left a syndrome or a logical error (symptom {symptom:#x})",
            code.name()
        );
    };

    // Data faults at every temporal position.
    for k in 0..=groups.len() {
        for q in 0..n {
            for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                let mut e = Frame::default();
                e.apply(1 << q, p);
                let mut symptom = 0u64;
                for group in &groups[k.min(groups.len())..] {
                    for &s in group {
                        if stabs[s].anticommutes(e) {
                            symptom |= 1 << s;
                        }
                    }
                }
                decode(symptom, e);
            }
        }
    }
    // Single measurement flips (no data error).
    for s in 0..stabs.len() {
        decode(1u64 << s, Frame::default());
    }
}

#[test]
fn uec_serialized_schedules_cover_all_single_faults() {
    let usc = UscCell::new(
        coherence_limited_compute(0.5e-3),
        coherence_limited_storage(50e-3),
    )
    .unwrap()
    .characterize();
    for code in [
        steane(),
        color_17(),
        reed_muller_15(),
        rotated_surface_code(3),
        rotated_surface_code(4),
        rotated_surface_code(5),
    ] {
        let assignment = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
        let schedule = build_schedule(&code, &assignment, &usc);
        let groups: Vec<Vec<usize>> = schedule.checks.iter().map(|c| vec![c.stabilizer]).collect();
        assert_single_faults_covered(&code, &groups);
    }
}

#[test]
fn homogeneous_layered_schedules_cover_all_single_faults() {
    for code in [steane(), color_17(), reed_muller_15()] {
        let layers = layer_checks(&code);
        assert_single_faults_covered(&code, &layers);
    }
}
