//! Structural pin of the union-find decoder's growth and peel phases.
//!
//! The prediction is a function of the defects and the final grown-edge
//! set only (DESIGN.md §5k), so a change to how growth walks its edges
//! could keep every prediction bit and still change how many passes and
//! unions it takes to get there. This test decodes one fixed d = 5 Fig. 7
//! sample and pins the decoder's traced counters to exact values recorded
//! at `f6cb271`, before growth and peeling walked grown-incidence masks.
//! Compiled only with the `obs` feature (the file is empty otherwise); it
//! lives in a binary of its own because the obs registry is
//! process-global.

#![cfg(feature = "obs")]

use hetarch::exec::WorkerPool;
use hetarch::obs;
use hetarch::stab::codes::{SurfaceMemory, SurfaceNoise};
use hetarch::stab::decoder::UnionFindDecoder;
use hetarch::stab::detector::sample_detectors;

/// A d = 5, 5-round memory at the Fig. 7 noise point (T_CA = 0.1 ms,
/// T_CD/T_CA = 3), 4096 shots at seed 13, decoded through one scratch.
#[test]
fn fig7_d5_sample_keeps_its_pass_union_and_peel_counts() {
    let noise = SurfaceNoise {
        t_data: 3.0 * 0.1e-3,
        t_anc: 0.1e-3,
        ..SurfaceNoise::default()
    };
    let mem = SurfaceMemory::new(5, 5, noise);
    let uf = UnionFindDecoder::new(&mem.matching_graph());
    let shots = 4096;
    let samples = sample_detectors(&WorkerPool::new(1), &mem.circuit(), shots, 13);
    let mut scratch = uf.new_scratch();

    obs::force_enabled(true);
    obs::reset();
    let failures = uf.count_failures(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        shots,
    );
    let counters = obs::report().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let got = [
        ("failures", failures),
        ("decodes", counter("stab.decoder.decodes")),
        ("growth_passes", counter("stab.decoder.growth_passes")),
        ("unions", counter("stab.decoder.unions")),
        ("peel_discharges", counter("stab.decoder.peel_discharges")),
        ("peel_leaks", counter("stab.decoder.peel_leaks")),
    ];
    let expected = [
        ("failures", 169),
        ("decodes", 3904),
        ("growth_passes", 19356),
        ("unions", 31976),
        ("peel_discharges", 13413),
        ("peel_leaks", 0),
    ];
    assert_eq!(got, expected);
}
