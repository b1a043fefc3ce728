//! The run and trace loops shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

use hetarch::devices::json::{self, Json};
use hetarch::obs::{self, HistSnapshot, RunReport};

use crate::stats::{hist_quantile, median, percentile, samples_beyond, tail_percentile};
use crate::sys;
use crate::trace::{self, Accounting, Tracer};
use crate::workloads::{timed, Check, Ctx, Pass, Workload};

/// The seed whose result fingerprints are frozen in `expected.json`.
pub const DEFAULT_SEED: u64 = 2023;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Fingerprints of the first pass of each workload at full size and the
/// default seed.
const EXPECTED: &str = include_str!("../expected.json");

/// What one run measured.
pub struct Outcome {
    /// Metric name → value, in the units `BENCHMARK.json` gives.
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Facts for the result file only.
    pub extra: Vec<(&'static str, Json)>,
    /// Spans of the first traced pass (traced runs only).
    pub spans: Option<Json>,
}

fn fingerprint_check(name: &str, ctx: &Ctx, got: u64) -> Option<Check> {
    if ctx.tiny || ctx.seed != DEFAULT_SEED {
        return None;
    }
    let expected = json::parse(EXPECTED).expect("expected.json is JSON");
    let want = expected
        .get("fingerprints")
        .and_then(|f| f.get(name))
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_string();
    Some(Check::equal(
        "result fingerprint matches expected.json",
        format!("{got:016x}"),
        want,
    ))
}

/// (attempted, failed): every operation of every pass plus every check.
fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>, checks: &[Check]) -> (u64, u64) {
    let (mut tried, mut failed) = (checks.len() as u64, 0);
    for p in passes {
        tried += p.items.len() as u64 + p.other;
        failed += p.failed;
    }
    (
        tried,
        failed + checks.iter().filter(|c| !c.ok).count() as u64,
    )
}

/// One timed pass with its wall and CPU seconds.
struct Timed {
    pass: Pass,
    wall: f64,
    cpu: f64,
}

/// Throughput (units/s), CPU seconds per unit and item latencies of the
/// timed passes.
///
/// A slower repeat of the same work measures the host's other tenants, not
/// the code, so the figures come from the fastest passes. When every pass
/// repeats identical work, each figure is the best over the passes.
/// Otherwise (the served mix, whose passes are alike but not identical) the
/// fastest quarter of the passes is pooled.
fn summarize<W: Workload>(passes: &[Timed]) -> (f64, f64, Vec<f64>) {
    if W::SAME_WORK_EVERY_PASS {
        let best = |f: &dyn Fn(&Timed) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
        let per_unit = |t: &Timed| t.pass.units.max(1) as f64;
        let wall = best(&|t| t.wall / per_unit(t));
        let cpu = best(&|t| t.cpu / per_unit(t));
        // Item i is the same design point (or snapshot) in every pass.
        let items = (0..passes[0].pass.items.len())
            .map(|i| best(&|t| t.pass.items[i]))
            .collect();
        (1.0 / wall, cpu, items)
    } else {
        let rate = |t: &Timed| t.pass.units as f64 / t.wall;
        let mut fastest: Vec<&Timed> = passes.iter().collect();
        fastest.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        fastest.truncate(passes.len().div_ceil(4));
        let units = fastest.iter().map(|t| t.pass.units).sum::<u64>().max(1) as f64;
        let wall: f64 = fastest.iter().map(|t| t.wall).sum();
        let cpu: f64 = fastest.iter().map(|t| t.cpu).sum();
        let items = fastest
            .iter()
            .flat_map(|t| t.pass.items.iter().copied())
            .collect();
        (units / wall, cpu / units, items)
    }
}

/// The end-to-end run: set-up several times, passes until `seconds` have
/// elapsed, then the output checks.
pub fn run<W: Workload>(name: &str, ctx: &Ctx, seconds: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPS {
        let (fresh, secs) = timed(|| W::setup(ctx, false));
        setups.push(secs);
        // The previous state is torn down outside the timed set-up.
        drop(state.replace(fresh));
    }
    let mut state = state.expect("at least one set-up");

    let start = Instant::now();
    let mut timed_passes = Vec::new();
    while timed_passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = sys::cpu_seconds();
        let (pass, wall) = timed(|| state.pass(ctx));
        let cpu = sys::cpu_seconds() - cpu0;
        timed_passes.push(Timed { pass, wall, cpu });
    }
    let timed_s = start.elapsed().as_secs_f64();
    let rss = sys::peak_rss_mb();

    let mut checks = state.checks();
    let fingerprint = state.fingerprint();
    checks.extend(fingerprint_check(name, ctx, fingerprint));
    let (attempted, failed) = tally(timed_passes.iter().map(|t| &t.pass), &checks);

    let (throughput, cpu_per_unit, items) = summarize::<W>(&timed_passes);
    let values = BTreeMap::from([
        ("setup_s".to_string(), median(&setups)),
        ("throughput".to_string(), throughput),
        ("latency_p50_ms".to_string(), percentile(&items, 50.0) * 1e3),
        ("latency_p95_ms".to_string(), percentile(&items, 95.0) * 1e3),
        ("cpu_ms_per_unit".to_string(), cpu_per_unit * 1e3),
        ("peak_rss_mb".to_string(), rss),
    ]);
    let units: u64 = timed_passes.iter().map(|t| t.pass.units).sum();

    let num = |v: f64| Json::Num(v);
    let int = |v: usize| Json::Int(v as i64);
    let tail = tail_percentile(items.len()).map_or(Json::Null, |q| {
        Json::obj([
            ("percentile", num(q)),
            ("value_ms", num(percentile(&items, q) * 1e3)),
            ("samples_beyond", int(samples_beyond(items.len(), q))),
        ])
    });
    let mut extra = vec![
        ("failed_frac", num(failed as f64 / attempted.max(1) as f64)),
        ("passes", int(timed_passes.len())),
        ("items", int(items.len())),
        ("units", Json::Int(units as i64)),
        ("timed_s", num(timed_s)),
        (
            "setup_s_all",
            Json::Arr(setups.into_iter().map(num).collect()),
        ),
        (
            "pass_s_all",
            Json::Arr(timed_passes.iter().map(|t| num(t.wall)).collect()),
        ),
        (
            "pass_cpu_s_all",
            Json::Arr(timed_passes.iter().map(|t| num(t.cpu)).collect()),
        ),
        (
            "pass_units_all",
            Json::Arr(
                timed_passes
                    .iter()
                    .map(|t| Json::Int(t.pass.units as i64))
                    .collect(),
            ),
        ),
        (
            "latency_p95_samples_beyond",
            int(samples_beyond(items.len(), 95.0)),
        ),
        ("latency_tail", tail),
        (
            "latency_items_ms",
            Json::Arr(items.iter().map(|&v| num(v * 1e3)).collect()),
        ),
        ("fingerprint", Json::Str(format!("{fingerprint:016x}"))),
    ];
    extra.extend(state.extra().into_iter().map(|(k, v)| (k, num(v))));
    Outcome {
        values,
        attempted,
        failed,
        checks,
        extra,
        spans: None,
    }
}

/// obs counters read per traced pass, as (metric, counter).
const COUNTERS: [(&str, &str); 6] = [
    ("exec.shards_executed", "exec.shards_executed"),
    ("qsim.kernel_applies", "qsim.kernel.applies"),
    ("qsim.kernel_compiles", "qsim.kernel.compiles"),
    ("stab.decoder.growth_passes", "stab.decoder.growth_passes"),
    ("stab.decoder.unions", "stab.decoder.unions"),
    ("dse.sweep_points", "dse.points_evaluated"),
];

/// obs wall-time histograms whose median is reported, as (metric, name).
const HISTOGRAMS: [(&str, &str); 2] = [
    ("exec.queue_wait_ms_p50", "exec.queue_wait_ns"),
    ("serve.queue_wait_ms_p50", "serve.queue_wait_ns"),
];

const CELL_KINDS: [&str; 4] = ["register", "parcheck", "seqop", "usc"];

/// The traced run: pairs of a plain pass and its traced twin until
/// `seconds` have elapsed. Per-layer numbers come from the spans and from
/// the obs counters armed only during the traced passes.
pub fn trace<W: Workload>(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut state = W::setup(ctx, true);
    let mut acc = Accounting::default();
    let mut stats: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let mut overhead = Vec::new();
    let mut checks = Vec::new();
    let mut passes = Vec::new();
    let mut spans = None;
    obs::force_enabled(false);
    // The first full pass pays for first-touch allocations; keep it out of
    // the overhead comparison.
    state.pass(ctx);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (_, plain) = timed(|| state.pass(ctx));
        obs::reset();
        obs::force_enabled(true);
        let tracer = Tracer::default();
        let traced = state.traced_pass(ctx, &tracer);
        obs::force_enabled(false);
        reports.push(obs::report());
        let (recorded, phases) = tracer.finish();
        acc.add(&recorded, &phases);
        spans.get_or_insert_with(|| trace::to_json(&recorded, &phases));
        overhead.push(traced.wall - plain);
        for (k, v) in traced.stats {
            stats.entry(k).or_default().push(v);
        }
        checks.extend(traced.checks);
        passes.push(traced.pass);
    }
    let coverage = acc.coverage();
    checks.push(Check::new(
        "layer self times account for the traced wall time within 10%",
        (0.9..=1.1).contains(&coverage),
        format!("{coverage:.4}"),
    ));
    let (attempted, failed) = tally(&passes, &checks);

    let n = passes.len() as f64;
    let mut values = BTreeMap::new();
    for (span, &(ns, calls)) in &acc.by_span {
        values.insert(format!("{span}_ms"), ns as f64 / calls as f64 / 1e6);
    }
    for (layer, &ns) in &acc.by_layer {
        values.insert(format!("{layer}.self_ms"), ns as f64 / n / 1e6);
    }
    let counter = |name: &str| -> f64 {
        reports
            .iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    for (metric, name) in COUNTERS {
        values.insert(metric.to_string(), counter(name) / n);
    }
    let hits: f64 = CELL_KINDS
        .iter()
        .map(|k| counter(&format!("cells.{k}.hits")))
        .sum();
    let misses: f64 = CELL_KINDS
        .iter()
        .map(|k| counter(&format!("cells.{k}.misses")))
        .sum();
    if hits + misses > 0.0 {
        values.insert("cells.hit_ratio".to_string(), hits / (hits + misses));
    }
    for (metric, name) in HISTOGRAMS {
        let mut merged = HistSnapshot::default();
        for r in &reports {
            if let Some(h) = r.histograms.get(name) {
                merged.merge(h);
            }
        }
        values.insert(
            metric.to_string(),
            hist_quantile(&merged.buckets, 0.5) / 1e6,
        );
    }
    for (k, v) in &stats {
        values.insert(k.to_string(), v.iter().sum::<f64>() / v.len() as f64);
    }
    values.insert("trace.coverage".to_string(), coverage);
    values.insert("trace.overhead_ms".to_string(), median(&overhead) * 1e3);

    let extra = vec![
        ("traced_passes", Json::Int(passes.len() as i64)),
        (
            "overhead_ms_all",
            Json::Arr(overhead.iter().map(|&o| Json::Num(o * 1e3)).collect()),
        ),
    ];
    Outcome {
        values,
        attempted,
        failed,
        checks,
        extra,
        spans,
    }
}
