//! Criterion benches for the distillation path (Figs. 3–4): DEJMPS rounds
//! (exact vs bilinear-table fast path — the ablation called out in
//! DESIGN.md) and full event-simulator throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hetarch::prelude::*;
use hetarch::qsim::bell::dejmps_density;

fn bench_dejmps_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("dejmps_round");
    let noise = DistillNoise {
        p2q: 1e-3,
        p1q: 1e-4,
        meas_flip: 1e-3,
    };
    let a = BellDiagonal::werner(0.9);
    let b = BellDiagonal::werner(0.85);
    group.bench_function("exact_density_matrix", |bch| {
        bch.iter(|| dejmps_density(&a, &b, &noise));
    });
    let table = DejmpsTable::new(&noise);
    group.bench_function("bilinear_table", |bch| {
        bch.iter(|| table.round(&a, &b));
    });
    group.bench_function("table_construction", |bch| {
        bch.iter(|| DejmpsTable::new(&noise));
    });
    group.finish();
}

fn bench_event_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill_module");
    group.sample_size(10);
    let sim_time = 1e-3;
    group.throughput(Throughput::Elements((sim_time * 1e6) as u64)); // per µs
    group.bench_function("het_1MHz_1ms", |b| {
        let module = DistillModule::new(DistillConfig::heterogeneous(12.5e-3, 1e6, 3));
        b.iter(|| module.run(sim_time));
    });
    // At 10 MHz EP arrivals outnumber DEJMPS rounds ~15:1, so this case
    // is dominated by the per-arrival cost (memory decay, Pauli kernels).
    group.bench_function("het_10MHz_1ms", |b| {
        let module = DistillModule::new(DistillConfig::heterogeneous(12.5e-3, 10e6, 3));
        b.iter(|| module.run(sim_time));
    });
    group.bench_function("hom_1MHz_1ms", |b| {
        let module = DistillModule::new(DistillConfig::homogeneous(1e6, 3));
        b.iter(|| module.run(sim_time));
    });
    group.finish();
}

criterion_group!(benches, bench_dejmps_paths, bench_event_simulation);
criterion_main!(benches);
