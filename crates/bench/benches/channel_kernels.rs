//! Naive Kraus-sum vs precompiled-superoperator channel application.
//!
//! The `naive` rows run `apply_reference` (clone + conjugation sweep per
//! Kraus operator); the `superop` rows run `apply` (the compiled
//! `ChannelKernel` one-pass path). The PR 5 acceptance target is ≥3× on the
//! 16-operator `Kraus2::depolarizing` at n = 5.
//!
//! The 2q `superop_per_state` / `superop_batch` rows compare, on a
//! 16-state batch, a per-state loop of `Kraus2::apply` with one
//! `Kraus2::apply_batch` call that blocks lanes of states through the
//! kernel (target ≥1.5×). Single-qubit channels have no lane-blocked path
//! — `Kraus1::apply_batch` is the per-state loop — so the 1q group has no
//! batch rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetarch::prelude::*;

/// States per batch in the 2q `superop_per_state`/`superop_batch` rows: a
/// multiple of the lane width, sized like a cell-characterization probe set.
const BATCH: usize = 16;

fn batch_of_states(n: usize) -> Vec<DensityMatrix> {
    (0..BATCH).map(|_| DensityMatrix::zero_state(n)).collect()
}

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
        group.bench_with_input(BenchmarkId::new("superop_per_state", n), &n, |b, &n| {
            let mut states = batch_of_states(n);
            b.iter(|| {
                for rho in states.iter_mut() {
                    depol.apply(rho, 0, 1);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("superop_batch", n), &n, |b, &n| {
            let mut states = batch_of_states(n);
            b.iter(|| depol.apply_batch(&mut states, 0, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kraus1, bench_kraus2);
criterion_main!(benches);
