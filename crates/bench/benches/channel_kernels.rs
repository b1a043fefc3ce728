//! Naive Kraus-sum vs precompiled-superoperator channel application.
//!
//! The `naive` rows run `apply_reference` (clone + conjugation sweep per
//! Kraus operator); the `superop` rows run `apply` (the compiled
//! `ChannelKernel` one-pass path). The 16-operator `Kraus2::depolarizing`
//! at n = 5 is where the kernel pays most (≥3× over the Kraus sum).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetarch::prelude::*;

fn bench_kraus1(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_kernels_1q");
    // A T1/T2 idle channel: 4 Kraus operators, dense 4×4 superoperator.
    let idle = IdleParams::new(300e-6, 150e-6)
        .unwrap()
        .channel(1e-6)
        .unwrap();
    idle.kernel(); // compile outside the timing loop
    for n in [2usize, 5] {
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            b.iter(|| idle.apply_reference(&mut rho, 0));
        });
        group.bench_with_input(BenchmarkId::new("superop", n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            b.iter(|| idle.apply(&mut rho, 0));
        });
    }
    group.finish();
}

fn bench_kraus2(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_kernels_2q");
    // 16 Kraus operators; the superop path collapses them into one sparse
    // 16×16 matvec per block.
    let depol = Kraus2::depolarizing(0.01).unwrap();
    depol.kernel();
    for n in [2usize, 5] {
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            b.iter(|| depol.apply_reference(&mut rho, 0, 1));
        });
        group.bench_with_input(BenchmarkId::new("superop", n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            b.iter(|| depol.apply(&mut rho, 0, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kraus1, bench_kraus2);
criterion_main!(benches);
