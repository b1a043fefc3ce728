//! Criterion benches for the UEC path (Fig. 9, Table 3): qubit-assignment
//! search, schedule construction, and Monte-Carlo cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetarch::modules::uec::{build_schedule, search_assignment};
use hetarch::prelude::*;

fn usc() -> UscChannel {
    // Shared library: the second bench asking for this channel gets the
    // cached characterization instead of re-simulating.
    static LIB: std::sync::OnceLock<CellLibrary> = std::sync::OnceLock::new();
    let lib = LIB.get_or_init(CellLibrary::new);
    (*lib.get::<UscCell>(
        &catalog::coherence_limited_compute(0.5e-3),
        &catalog::coherence_limited_storage(50e-3),
    ))
    .clone()
}

fn bench_assignment_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_assignment");
    group.sample_size(10);
    for (name, code) in [
        ("steane_exhaustive", steane()),
        ("color17_hillclimb", color_17()),
        ("sc5_hillclimb", rotated_surface_code(5)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| search_assignment(&code, 3, 10));
        });
    }
    group.finish();
}

fn bench_schedule_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_schedule");
    let ch = usc();
    let code = color_17();
    let assignment = search_assignment(&code, 3, 10);
    group.bench_function("color17", |b| {
        b.iter(|| build_schedule(&code, &assignment, &ch));
    });
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_monte_carlo");
    group.sample_size(10);
    let ch = usc();
    let noise = UecNoise::default();
    let shots = 2_000;
    let pool = WorkerPool::available();
    group.throughput(Throughput::Elements(shots as u64));
    for code in [steane(), color_17(), reed_muller_15()] {
        let module = UecModule::new(code.clone(), ch.clone(), noise);
        group.bench_with_input(
            BenchmarkId::new("cycles", code.name()),
            &shots,
            |b, &shots| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    module.logical_error_rate_on(&pool, shots, seed)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_assignment_search,
    bench_schedule_build,
    bench_monte_carlo
);
criterion_main!(benches);
