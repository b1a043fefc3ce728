//! Criterion benches for the allocation-free union-find decode paths.
//!
//! Three rows per distance, all decoding the **same** 256 sampled
//! surface-memory shots so times are directly comparable:
//!
//! * `reference` — the pristine per-shot decoder (`decode_reference`),
//!   allocating its state fresh every syndrome.
//! * `scratch` — the dense `decode_with` path through one reused arena.
//! * `batch` — `count_failures`: sparse bit-packed syndrome extraction
//!   plus the empty-syndrome fast path over the packed detector table.
//!
//! Absolute timings on shared machines swing between CPU-frequency bands;
//! for repeated, interleaved end-to-end numbers use `hetbench` (its
//! `surface_fig7` and `rare_surface` workloads time the same decode path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetarch::prelude::*;
use hetarch::stab::detector::{sample_detectors, DetectorSamples};

const SHOTS: usize = 256;

fn setup(d: usize) -> (UnionFindDecoder, DetectorSamples, usize) {
    let mem = SurfaceMemory::new(d, d, SurfaceNoise::default());
    let circuit = mem.circuit();
    let decoder = UnionFindDecoder::new(&mem.matching_graph());
    let samples = sample_detectors(&WorkerPool::available(), &circuit, SHOTS, 7);
    let n_det = circuit.num_detectors();
    (decoder, samples, n_det)
}

fn dense_syndromes(samples: &DetectorSamples, n_det: usize) -> Vec<Vec<bool>> {
    (0..SHOTS)
        .map(|shot| (0..n_det).map(|i| samples.detectors.get(i, shot)).collect())
        .collect()
}

fn bench_surface_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("surface_decode");
    group.sample_size(10);
    for d in [5usize, 7, 11] {
        let (decoder, samples, n_det) = setup(d);
        let syndromes = dense_syndromes(&samples, n_det);

        group.bench_with_input(BenchmarkId::new("reference", d), &d, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for syn in &syndromes {
                    acc ^= decoder.decode_reference(syn);
                }
                acc
            });
        });

        group.bench_with_input(BenchmarkId::new("scratch", d), &d, |b, _| {
            let mut scratch = decoder.new_scratch();
            b.iter(|| {
                let mut acc = 0u64;
                for syn in &syndromes {
                    acc ^= decoder.decode_with(&mut scratch, syn);
                }
                acc
            });
        });

        group.bench_with_input(BenchmarkId::new("batch", d), &d, |b, _| {
            let mut scratch = decoder.new_scratch();
            b.iter(|| {
                decoder.count_failures(
                    &mut scratch,
                    &samples.detectors,
                    &samples.observables,
                    0,
                    0,
                    SHOTS,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_surface_decode);
criterion_main!(benches);
