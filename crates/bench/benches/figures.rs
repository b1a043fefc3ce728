//! Criterion benches measuring one representative point of each paper
//! figure's regeneration pipeline, so a regression in any experiment path is
//! visible from `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;

fn bench_fig4_point(c: &mut Criterion) {
    c.benchmark_group("figures")
        .sample_size(10)
        .bench_function("fig4_point_het_1MHz", |b| {
            let module = DistillModule::new(DistillConfig::heterogeneous(2.5e-3, 1e6, 4));
            b.iter(|| module.run(0.5e-3));
        });
}

fn bench_fig6_point(c: &mut Criterion) {
    c.benchmark_group("figures")
        .sample_size(10)
        .bench_function("fig6_point_d13_1k_shots", |b| {
            let noise = SurfaceNoise {
                t_data: 0.3e-3,
                ..SurfaceNoise::default()
            };
            let mem = SurfaceMemory::new(13, 13, noise);
            let pool = WorkerPool::available();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                mem.logical_error_rate_on(&pool, SurfaceDecoder::UnionFind, 1_000, seed)
            });
        });
}

fn bench_fig9_point(c: &mut Criterion) {
    c.benchmark_group("figures")
        .sample_size(10)
        .bench_function("fig9_point_17qcc_2k_shots", |b| {
            let usc = UscCell::new(
                catalog::coherence_limited_compute(0.5e-3),
                catalog::coherence_limited_storage(5e-3),
            )
            .unwrap()
            .characterize();
            let noise = UecNoise::default();
            let module = UecModule::new(color_17(), usc, noise);
            let pool = WorkerPool::available();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                module.logical_error_rate_on(&pool, 2_000, seed)
            });
        });
}

fn bench_table4_point(c: &mut Criterion) {
    c.benchmark_group("figures")
        .sample_size(10)
        .bench_function("table4_point_sc3_sc4", |b| {
            let pool = WorkerPool::available();
            b.iter(|| {
                let mut cfg = CtConfig::heterogeneous(
                    rotated_surface_code(3),
                    rotated_surface_code(4),
                    50e-3,
                );
                cfg.shots = 1_000;
                CtModule::new(cfg).evaluate(&pool)
            });
        });
}

criterion_group!(
    benches,
    bench_fig4_point,
    bench_fig6_point,
    bench_fig9_point,
    bench_table4_point
);
criterion_main!(benches);
