//! End-to-end error-corrected memory (paper §4.2 headline behaviours).

use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;
use hetarch::testkit::prelude::*;

fn usc(ts: f64) -> UscChannel {
    UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(ts),
    )
    .unwrap()
    .characterize()
}

fn noise() -> UecNoise {
    UecNoise::default()
}

#[test]
fn surface_code_data_coherence_matters_more_than_ancilla() {
    // Paper Fig. 6: scaling T_CD outperforms scaling T_CA.
    let shots = 6_000;
    let d = 7; // a mid-size code keeps the test fast but meaningful
    let base = SurfaceNoise::default();
    let data_scaled = SurfaceNoise {
        t_data: base.t_data * 5.0,
        ..base
    };
    let anc_scaled = SurfaceNoise {
        t_anc: base.t_anc * 5.0,
        ..base
    };
    let (_, p_data) = SurfaceMemory::new(d, d, data_scaled).logical_error_rate_on(
        &WorkerPool::new(4),
        SurfaceDecoder::UnionFind,
        shots,
        41,
    );
    let (_, p_anc) = SurfaceMemory::new(d, d, anc_scaled).logical_error_rate_on(
        &WorkerPool::new(4),
        SurfaceDecoder::UnionFind,
        shots,
        41,
    );
    assert!(
        p_data < p_anc,
        "data-scaled {p_data} should beat ancilla-scaled {p_anc}"
    );
}

#[test]
fn surface_code_ratio_pushes_below_threshold() {
    // Paper Fig. 7: with a high T_CD/T_CA ratio, larger distance helps.
    // Coherence times are scaled down 2x from the d=5-vs-d=9 figure setting
    // (ratio still 5) and the distances widened to 3-vs-9 so the per-round
    // gap (~3e-3) is several standard errors at this shot count.
    let shots = 10_000;
    let noise = SurfaceNoise {
        t_data: 0.25e-3, // ratio 5
        t_anc: 0.05e-3,
        ..SurfaceNoise::default()
    };
    let (_, p3) = SurfaceMemory::new(3, 3, noise).logical_error_rate_on(
        &WorkerPool::new(4),
        SurfaceDecoder::UnionFind,
        shots,
        43,
    );
    let (_, p9) = SurfaceMemory::new(9, 9, noise).logical_error_rate_on(
        &WorkerPool::new(4),
        SurfaceDecoder::UnionFind,
        shots,
        44,
    );
    // Per-round rates over shots × d rounds each; the testkit two-proportion
    // comparison demands a 3σ separation, not just a raw inequality.
    let per_round_sample = |p: f64, d: u64| {
        let rounds = shots as u64 * d;
        BinomialTest::new((p * rounds as f64).round() as u64, rounds)
    };
    assert_rate_below(
        per_round_sample(p9, 9),
        per_round_sample(p3, 3),
        3.0,
        "below threshold, d=9 beats d=3 per round",
    );
}

#[test]
fn uec_favors_non_planar_codes() {
    // Paper Table 3: RM / 17QCC / Steane improve on the UEC; surface codes
    // prefer the homogeneous lattice.
    let shots = 8_000;
    let ch = usc(50e-3);
    for code in [steane(), color_17(), reed_muller_15()] {
        let het = UecModule::new(code.clone(), ch.clone(), noise())
            .logical_error_rate_on(&WorkerPool::new(4), shots, 47)
            .logical_error_rate;
        let hom = HomModule::new(code.clone(), 0.5e-3, noise())
            .logical_error_rate_on(&WorkerPool::new(4), shots, 48)
            .logical_error_rate;
        assert!(
            het < hom,
            "{}: heterogeneous {het} should beat homogeneous {hom}",
            code.name()
        );
    }
    // Surface code: the square lattice is native, the baseline wins.
    let het_sc = UecModule::new(rotated_surface_code(3), ch, noise())
        .logical_error_rate_on(&WorkerPool::new(4), shots, 49)
        .logical_error_rate;
    let hom_sc = hom_surface_logical_error(&WorkerPool::new(4), 3, 0.5e-3, noise(), shots, 50);
    assert!(
        hom_sc < het_sc,
        "surface code: homogeneous {hom_sc} should beat UEC {het_sc}"
    );
}

#[test]
fn uec_logical_error_falls_with_storage_coherence() {
    // Paper Fig. 9: every code's curve decreases in Ts.
    let shots = 5_000;
    for code in [steane(), rotated_surface_code(3)] {
        let hi = UecModule::new(code.clone(), usc(0.5e-3), noise())
            .logical_error_rate_on(&WorkerPool::new(4), shots, 53)
            .logical_error_rate;
        let lo = UecModule::new(code.clone(), usc(50e-3), noise())
            .logical_error_rate_on(&WorkerPool::new(4), shots, 53)
            .logical_error_rate;
        assert!(
            lo < hi,
            "{}: Ts=50ms ({lo}) should beat Ts=0.5ms ({hi})",
            code.name()
        );
    }
}

#[test]
fn uec_handles_any_code_up_to_capacity() {
    // The same USC hardware executes every shipped code ≤ 30 qubits.
    let ch = usc(50e-3);
    for code in [
        steane(),
        color_17(),
        reed_muller_15(),
        rotated_surface_code(3),
        rotated_surface_code(4),
        rotated_surface_code(5), // 25 data qubits
    ] {
        let m = UecModule::new(code.clone(), ch.clone(), noise());
        let r = m.logical_error_rate_on(&WorkerPool::new(4), 300, 59);
        assert!(
            r.logical_error_rate <= 1.0 && r.cycle_duration > 0.0,
            "{} must run on the UEC",
            code.name()
        );
    }
}
