//! Criterion benches for decoding: union-find on surface-code space-time
//! graphs (Figs. 6–7) and lookup tables for the UEC codes (Fig. 9, Table 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetarch::prelude::*;
use hetarch::stab::decoder::GreedyMatchingDecoder;
use hetarch::stab::detector::sample_detectors;

fn bench_union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find_decode");
    group.sample_size(20);
    for d in [5usize, 9, 13] {
        let mem = SurfaceMemory::new(d, d, SurfaceNoise::default());
        let circuit = mem.circuit();
        let graph = mem.matching_graph();
        let decoder = UnionFindDecoder::new(&graph);
        let shots = 256;
        let samples = sample_detectors(WorkerPool::global(), &circuit, shots, 7);
        let n_det = circuit.num_detectors();
        group.bench_with_input(BenchmarkId::new("surface", d), &d, |b, _| {
            let mut shot = 0usize;
            let mut syndrome = vec![false; n_det];
            b.iter(|| {
                shot = (shot + 1) % shots;
                for (i, s) in syndrome.iter_mut().enumerate() {
                    *s = samples.detectors.get(i, shot);
                }
                decoder.decode(&syndrome)
            });
        });
    }
    group.finish();
}

fn bench_greedy_matching(c: &mut Criterion) {
    // Decoder ablation: the greedy matcher trades accuracy headroom for a
    // simpler algorithm; this measures its runtime gap against union-find.
    let mut group = c.benchmark_group("greedy_matching_decode");
    group.sample_size(20);
    for d in [5usize, 9] {
        let mem = SurfaceMemory::new(d, d, SurfaceNoise::default());
        let circuit = mem.circuit();
        let graph = mem.matching_graph();
        let decoder = GreedyMatchingDecoder::new(&graph);
        let shots = 128;
        let samples = sample_detectors(WorkerPool::global(), &circuit, shots, 7);
        let n_det = circuit.num_detectors();
        group.bench_with_input(BenchmarkId::new("surface", d), &d, |b, _| {
            let mut shot = 0usize;
            let mut syndrome = vec![false; n_det];
            b.iter(|| {
                shot = (shot + 1) % shots;
                for (i, s) in syndrome.iter_mut().enumerate() {
                    *s = samples.detectors.get(i, shot);
                }
                decoder.decode(&syndrome)
            });
        });
    }
    group.finish();
}

fn bench_lookup_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_table_build");
    group.sample_size(10);
    for (name, code, w) in [
        ("steane_w2", steane(), 2usize),
        ("color17_w2", color_17(), 2),
        ("rm15_w2", reed_muller_15(), 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| LookupDecoder::new(&code, w));
        });
    }
    group.finish();
}

fn bench_lookup_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_decode");
    let code = color_17();
    let dec = LookupDecoder::new(&code, 2);
    let syndromes: Vec<u64> = (0..64u64).map(|i| i * 37 % (1 << 16)).collect();
    group.bench_function("color17", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % syndromes.len();
            dec.decode_bits(syndromes[i])
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_union_find,
    bench_greedy_matching,
    bench_lookup_build,
    bench_lookup_decode
);
criterion_main!(benches);
