//! `hetbench`: the repository benchmark.
//!
//! ```text
//! hetbench --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     one workload in this process; prints every metric with its unit and,
//!     as the last line, one JSON object {correct, attempted, failed, metrics}
//! hetbench run [--workload W] [--seed S] [--seconds T]
//!     each workload (default: all) in its own child process
//! hetbench trace --workload W [--seed S] [--seconds T]
//!     the traced run: per-layer metrics and target/hetbench/trace-W.json
//! hetbench compare PARENT_DIR CHANGE_DIR
//!     the A/B rule over two directories of result files
//! ```
//!
//! Results go to `target/hetbench/<workload>-<seed>.json` under the working
//! directory. The workloads, metric names, units, bounds and the default
//! run length come from `BENCHMARK.json` at the repository root.

mod compare;
mod driver;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::Path;
use std::process::Command;

use hetarch::devices::json::{self, Json};
use hetarch::exec::WorkerPool;
use hetarch::obs;

use driver::{Outcome, DEFAULT_SEED};
use stats::Better;
use workloads::{calib, distill, rare, serve, surface, Ctx, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const RESULT_DIR: &str = "target/hetbench";

/// One metric of `BENCHMARK.json`.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (0 for
    /// per-layer metrics, which have none).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the program uses.
pub struct BenchDef {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl BenchDef {
    fn load() -> BenchDef {
        let v = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| v.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
        let text =
            |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: if text(m, "better") == "higher" {
                        Better::Higher
                    } else {
                        Better::Lower
                    },
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        BenchDef {
            run_seconds: v.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Runs workload `name` in this process; `None` for an unknown name.
fn dispatch(name: &str, ctx: &Ctx, seconds: f64, traced: bool) -> Option<Outcome> {
    fn go<W: Workload>(name: &str, ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
        if traced {
            driver::trace::<W>(ctx, seconds)
        } else {
            driver::run::<W>(name, ctx, seconds)
        }
    }
    let go = match name {
        "serve_uec_mix" => go::<serve::ServeMix>,
        "surface_fig7" => go::<surface::Surface>,
        "rare_surface" => go::<rare::Rare>,
        "distill_fig4" => go::<distill::Distill>,
        "cells_calib_refresh" => go::<calib::Calib>,
        _ => return None,
    };
    Some(go(name, ctx, seconds, traced))
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String], def: &BenchDef) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: def.run_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be non-negative, got {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        (
            "value",
            Json::Num(if value.is_finite() { value } else { 0.0 }),
        ),
        ("unit", Json::Str(unit.to_string())),
    ])
}

fn write_file(name: &str, body: &Json) {
    let path = Path::new(RESULT_DIR).join(name);
    let written = std::fs::create_dir_all(RESULT_DIR)
        .and_then(|()| std::fs::write(&path, body.render() + "\n"));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Runs one workload here, prints its metrics and result line, writes its
/// result file; returns the exit code.
fn run_here(def: &BenchDef, name: &str, opts: &Opts) -> i32 {
    let ctx = Ctx {
        seed: opts.seed,
        tiny: false,
        pool: WorkerPool::new(sys::nproc()),
    };
    obs::force_enabled(false);
    let Some(out) = dispatch(name, &ctx, opts.seconds, opts.trace) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            def.workloads.join(", ")
        );
        return 2;
    };
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.ok);
    let list = if opts.trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    println!(
        "{name}: seed {} · {} · {} hardware threads",
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        sys::nproc()
    );
    for c in &out.checks {
        if !c.ok {
            println!("  FAILED check: {} ({})", c.name, c.detail);
        }
    }
    let mut metrics = Vec::new();
    for m in list {
        let value = out.values.get(&m.name).copied().unwrap_or(0.0);
        println!("  {:<34} {:>16.6} {}", m.name, value, m.unit);
        metrics.push((m.name.clone(), metric_json(value, &m.unit)));
    }
    let metrics = Json::Obj(metrics.into_iter().collect());

    let num = |v: f64| {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    };
    let checks = out
        .checks
        .iter()
        .map(|c| {
            Json::obj([
                ("name", Json::Str(c.name.clone())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    let mut file = vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Num(opts.seconds)),
        ("env", sys::env_json()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics.clone()),
        ("checks", Json::Arr(checks)),
        (
            "extra",
            Json::Obj(
                out.extra
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            if let Json::Num(x) = v {
                                num(*x)
                            } else {
                                v.clone()
                            },
                        )
                    })
                    .collect(),
            ),
        ),
    ];
    if opts.trace {
        let all = out
            .values
            .iter()
            .map(|(k, &v)| (k.clone(), num(v)))
            .collect();
        file.push(("all_values", Json::Obj(all)));
        file.push(("first_pass", out.spans.clone().unwrap_or(Json::Null)));
        write_file(&format!("trace-{name}.json"), &Json::obj(file));
    } else {
        write_file(&format!("{name}-{}.json", opts.seed), &Json::obj(file));
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        0
    } else {
        1
    }
}

/// `hetbench run`: every selected workload in a child process of its own,
/// so set-up time and peak memory are per workload.
fn run_children(def: &BenchDef, opts: &Opts) -> i32 {
    let names: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => def.workloads.clone(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the hetbench executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for name in names {
        let status = Command::new(&exe)
            .args(["--workload", &name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                code = 2;
            }
        }
    }
    code
}

fn main() {
    sys::keep_freed_memory();
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let def = BenchDef::load();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        _ => ("", &args[..]),
    };
    if cmd == "compare" {
        let [parent, change] = rest else {
            eprintln!("usage: hetbench compare PARENT_DIR CHANGE_DIR");
            return 2;
        };
        return match compare::compare(Path::new(parent), Path::new(change), &def) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }
    let polluted = sys::polluted_env();
    if !polluted.is_empty() {
        eprintln!(
            "refusing to run: {} would change what is measured; unset {}",
            polluted.join(", "),
            if polluted.len() == 1 { "it" } else { "them" }
        );
        return 2;
    }
    let mut opts = match parse_opts(rest, &def) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if cmd == "run" {
        return run_children(&def, &opts);
    }
    opts.trace |= cmd == "trace";
    let Some(name) = opts.workload.clone() else {
        eprintln!(
            "--workload is required; known: {}",
            def.workloads.join(", ")
        );
        return 2;
    };
    run_here(&def, &name, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at tiny size, untraced and traced, in one test so
    /// the process-wide obs switch is never flipped concurrently.
    #[test]
    fn every_workload_runs_tiny_and_checks_pass() {
        let def = BenchDef::load();
        for name in &def.workloads {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 11,
                    tiny: true,
                    pool: WorkerPool::new(2),
                };
                let out = dispatch(name, &ctx, 0.0, traced)
                    .expect("BENCHMARK.json names known workloads");
                let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
                assert!(failed.is_empty(), "{name} traced={traced}: {failed:?}");
                assert_eq!(out.failed, 0, "{name} traced={traced}");
                if !traced {
                    for m in &def.end_to_end {
                        let v = out.values.get(&m.name).copied().unwrap_or(0.0);
                        assert!(v > 0.0, "{name}: {} = {v}", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_program() {
        let def = BenchDef::load();
        assert_eq!(
            def.workloads,
            [
                "serve_uec_mix",
                "surface_fig7",
                "rare_surface",
                "distill_fig4",
                "cells_calib_refresh"
            ]
        );
        assert!(def.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(def
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn options_parse_and_reject() {
        let def = BenchDef::load();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args("--workload w --seed 5 --seconds 2 --trace 1"), &def).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("w"), 5, 2.0, true)
        );
        assert!(parse_opts(&args("--trace 2"), &def).is_err());
        assert!(parse_opts(&args("--seed"), &def).is_err());
        assert!(parse_opts(&args("--bogus 1"), &def).is_err());
        assert!(parse_opts(&args("--seconds -1"), &def).is_err());
    }
}
