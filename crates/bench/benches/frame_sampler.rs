//! Criterion benches for the Pauli-frame sampler — the hot loop behind
//! Figs. 6, 7 and the homogeneous surface-code baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetarch::prelude::*;
use hetarch::stab::detector::sample_detectors;
use hetarch::stab::frame::FrameSampler;

fn bench_surface_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_surface_memory");
    group.sample_size(10);
    for d in [5usize, 9, 13] {
        let mem = SurfaceMemory::new(d, d, SurfaceNoise::default());
        let circuit = mem.circuit();
        let shots = 4096;
        group.throughput(Throughput::Elements(shots as u64));
        group.bench_with_input(BenchmarkId::new("sample", d), &d, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut s = FrameSampler::new(circuit.num_qubits() as usize, shots, seed);
                s.run(&circuit)
            });
        });
    }
    group.finish();
}

fn bench_detector_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_assembly");
    group.sample_size(10);
    let mem = SurfaceMemory::new(9, 9, SurfaceNoise::default());
    let circuit = mem.circuit();
    group.bench_function("d9_detectors_4096_shots", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            sample_detectors(WorkerPool::global(), &circuit, 4096, seed)
        });
    });
    group.finish();
}

fn bench_tableau_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_reference");
    group.sample_size(10);
    for d in [5usize, 9] {
        let mem = SurfaceMemory::new(d, d, SurfaceNoise::default());
        let circuit = mem.circuit();
        group.bench_with_input(BenchmarkId::new("reference_sample", d), &d, |b, _| {
            b.iter(|| hetarch::stab::detector::reference_sample(&circuit));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_surface_shots,
    bench_detector_assembly,
    bench_tableau_reference
);
criterion_main!(benches);
