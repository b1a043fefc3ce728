//! End-to-end code teleportation (paper §4.3 headline behaviours).

use hetarch::prelude::*;

fn quick_het(a: StabilizerCode, b: StabilizerCode, ts: f64) -> CtResult {
    let mut cfg = CtConfig::heterogeneous(a, b, ts);
    cfg.shots = 4_000;
    CtModule::new(cfg).evaluate(&WorkerPool::new(4))
}

fn quick_hom(a: StabilizerCode, b: StabilizerCode) -> CtResult {
    let mut cfg = CtConfig::homogeneous(a, b);
    cfg.shots = 4_000;
    CtModule::new(cfg).evaluate(&WorkerPool::new(4))
}

#[test]
fn heterogeneous_wins_for_every_paper_pair() {
    // Paper Table 4: heterogeneous CT beats homogeneous for every pair.
    let pairs: Vec<(StabilizerCode, StabilizerCode)> = vec![
        (reed_muller_15(), rotated_surface_code(3)),
        (rotated_surface_code(3), rotated_surface_code(4)),
        (color_17(), rotated_surface_code(4)),
        (steane(), rotated_surface_code(3)),
    ];
    for (a, b) in pairs {
        let names = format!("{} & {}", a.name(), b.name());
        let het = quick_het(a.clone(), b.clone(), 50e-3);
        let hom = quick_hom(a, b);
        assert!(
            het.logical_error_probability < hom.logical_error_probability,
            "{names}: het {} vs hom {}",
            het.logical_error_probability,
            hom.logical_error_probability
        );
    }
}

#[test]
fn ct_error_decreases_with_storage_coherence() {
    // Paper Fig. 12: error probability falls as Ts grows.
    let mut last = f64::MAX;
    for ts in [0.5e-3, 5e-3, 50e-3] {
        let r = quick_het(rotated_surface_code(3), rotated_surface_code(4), ts);
        assert!(
            r.logical_error_probability < last,
            "Ts {} ms should improve on the previous point",
            ts * 1e3
        );
        last = r.logical_error_probability;
    }
}

#[test]
fn breakdown_is_dominated_by_plus_state_preparation() {
    // With cheap EPs and small CATs, the logical |+> preparations are the
    // leading terms — matching the paper's observation that storage
    // lifetime requirements are driven by the stabilizer rounds.
    let r = quick_het(rotated_surface_code(3), reed_muller_15(), 50e-3);
    let b = r.breakdown;
    assert!(
        b.plus_a + b.plus_b > b.ep,
        "plus states should dominate EP cost"
    );
    assert!(r.logical_error_probability < 0.6);
    assert!(!r.ep_starved);
}

#[test]
fn composition_is_monotone_in_components() {
    // Worsening one sub-module (lower Ts) cannot improve the total.
    let good = quick_het(steane(), rotated_surface_code(3), 50e-3);
    let bad = quick_het(steane(), rotated_surface_code(3), 0.5e-3);
    assert!(bad.logical_error_probability >= good.logical_error_probability);
}
