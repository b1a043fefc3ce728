//! Query evaluation: one [`Query`] in, one deterministic [`Json`] result
//! out, against the shared cell library and worker pool.
//!
//! This is the exact computation the server's executors run — it is public
//! so tests (and offline tooling) can call the same path directly and
//! compare byte-for-byte against a served response. Determinism contract:
//! the result depends only on the canonical query (worker-count-invariant
//! sharding beneath, sorted-key JSON with `{:?}` floats above), never on
//! the pool size, executor interleaving, or cache state.

use hetarch_cells::{CellLibrary, UscCell};
use hetarch_devices::calib::CalibSnapshot;
use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch_dse::{pareto_front, try_sweep_on, Axis, DesignSpace};
use hetarch_exec::{CancelToken, Cancelled, WorkerPool};
use hetarch_modules::faults::{estimate, Estimator, RunCtx};
use hetarch_modules::uec::{UecModule, UecNoise};
use hetarch_stab::codes::rotated_surface_code;

use crate::query::Query;
use hetarch_devices::json::Json;

/// Compute coherence pinned for every query (the §4 UEC calibration);
/// queries sweep the *storage* axis.
const COMPUTE_TC: f64 = 0.5e-3;

/// Evaluates a compute query. Returns the `result` payload of an `ok`
/// response, or [`Cancelled`] if `token` fired mid-run.
///
/// # Panics
///
/// Panics on the admin queries ([`Query::Stats`], [`Query::Shutdown`]) —
/// the connection layer answers those inline and never routes them here —
/// and on [`Query::TestPanic`], whose entire purpose is to panic inside an
/// executor.
pub fn evaluate(
    query: &Query,
    lib: &CellLibrary,
    pool: &WorkerPool,
    token: &CancelToken,
) -> Result<Json, Cancelled> {
    match query {
        Query::SweepUec {
            distances,
            ts_values,
            shots,
            seed,
        } => {
            // The empty snapshot characterizes identically to no snapshot
            // (same cache key, bit-identical channels), so both sweep kinds
            // share one code path.
            let calib = CalibSnapshot::default();
            sweep_uec(
                lib, pool, token, distances, ts_values, *shots, *seed, &calib,
            )
        }
        Query::CalibSweep {
            distances,
            ts_values,
            shots,
            seed,
            calib,
        } => sweep_uec(lib, pool, token, distances, ts_values, *shots, *seed, calib),
        Query::RareUec {
            distance, ts, seed, ..
        } => {
            let config = query.rare_config().expect("RareUec has a rare config");
            let module = uec_module(lib, *distance, *ts, &CalibSnapshot::default());
            let ctx = RunCtx {
                pool,
                seed: *seed,
                cancel: Some(token),
            };
            let outcome = estimate(&module, Estimator::Rare(config), &ctx)?
                .into_rare()
                .expect("the rare estimator yields a rare outcome");
            let report = outcome.report();
            Ok(Json::obj([
                ("converged", Json::Bool(outcome.is_converged())),
                ("distance", Json::Int(i64::from(*distance))),
                ("p_l", Json::Num(report.p_l)),
                ("sigma", Json::Num(report.sigma)),
                ("total_shots", Json::Int(report.total_shots as i64)),
                ("truncation_bound", Json::Num(report.truncation_bound)),
                ("ts", Json::Num(*ts)),
            ]))
        }
        Query::TestBlock { millis } => {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < u128::from(*millis) {
                if token.is_cancelled() {
                    return Err(Cancelled);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(Json::obj([("blocked_ms", Json::Int(*millis as i64))]))
        }
        Query::TestPanic => panic!("test panic query"),
        Query::Stats | Query::Shutdown => {
            unreachable!("admin queries are answered by the connection layer")
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep_uec(
    lib: &CellLibrary,
    pool: &WorkerPool,
    token: &CancelToken,
    distances: &[u32],
    ts_values: &[f64],
    shots: u32,
    seed: u64,
    calib: &CalibSnapshot,
) -> Result<Json, Cancelled> {
    let space = DesignSpace::new(vec![
        Axis::new("d", distances.iter().map(|&d| f64::from(d)).collect()),
        Axis::new("ts", ts_values.to_vec()),
    ]);
    // Cancellation is layered: the sweep checks the token between points
    // and each point's Monte-Carlo run checks it between shards.
    let ctx = RunCtx {
        pool,
        seed,
        cancel: Some(token),
    };
    let plain = Estimator::Plain {
        shots: shots as usize,
    };
    let results = try_sweep_on(pool, space.points(), token, |p| {
        let module = uec_module(lib, p.get("d") as u32, p.get("ts"), calib);
        let p_l = estimate(&module, plain, &ctx)?.rate();
        Ok::<_, Cancelled>((p_l, module.schedule().cycle_duration))
    })?;
    let mut points = Vec::with_capacity(results.len());
    let mut objectives = Vec::with_capacity(results.len());
    for (point, result) in results {
        let (p_l, cycle_duration) = result?;
        let ts = point.get("ts");
        objectives.push(vec![p_l, ts]);
        points.push(Json::obj([
            ("cycle_duration", Json::Num(cycle_duration)),
            ("d", Json::Int(point.get("d") as i64)),
            ("p_l", Json::Num(p_l)),
            ("ts", Json::Num(ts)),
        ]));
    }
    // Pareto front minimizing (p_L, storage coherence): the cheapest
    // designs that are not strictly beaten on both axes.
    let front: Vec<Json> = pareto_front(&objectives)
        .into_iter()
        .map(|i| Json::Int(i as i64))
        .collect();
    Ok(Json::obj([
        ("pareto", Json::Arr(front)),
        ("points", Json::Arr(points)),
        ("shots", Json::Int(i64::from(shots))),
    ]))
}

/// Builds the UEC module for one design point with the snapshot's overrides
/// folded into characterization. The empty snapshot shares the uncalibrated
/// cache entry, so `sweep_uec`/`calib_sweep` with no overrides cost one
/// simulation between them.
fn uec_module(lib: &CellLibrary, distance: u32, ts: f64, calib: &CalibSnapshot) -> UecModule {
    let usc = lib.get_with_calib::<UscCell>(
        &coherence_limited_compute(COMPUTE_TC),
        &coherence_limited_storage(ts),
        calib,
    );
    UecModule::new(
        rotated_surface_code(distance as usize),
        (*usc).clone(),
        UecNoise::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_direct_module_runs() {
        let lib = CellLibrary::new();
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let query = Query::SweepUec {
            distances: vec![3],
            ts_values: vec![0.5e-3, 5e-3],
            shots: 300,
            seed: 61,
        };
        let result = evaluate(&query, &lib, &pool, &token).unwrap();
        let points = result.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 2);
        for (point, &ts) in points.iter().zip(&[0.5e-3, 5e-3]) {
            let direct = uec_module(&lib, 3, ts, &CalibSnapshot::default())
                .logical_error_rate_on(&pool, 300, 61);
            assert_eq!(
                point.get("p_l").and_then(Json::as_f64).unwrap(),
                direct.logical_error_rate,
                "ts={ts}"
            );
        }
    }

    #[test]
    fn evaluation_is_worker_count_and_library_state_invariant() {
        let query = Query::SweepUec {
            distances: vec![3],
            ts_values: vec![0.5e-3],
            shots: 200,
            seed: 7,
        };
        let token = CancelToken::new();
        let mut renders = Vec::new();
        for workers in [1, 4] {
            let lib = CellLibrary::new();
            let pool = WorkerPool::new(workers);
            // Evaluate twice on one library: the second run hits the warm
            // characterization cache and must not change the bytes.
            let cold = evaluate(&query, &lib, &pool, &token).unwrap().render();
            let warm = evaluate(&query, &lib, &pool, &token).unwrap().render();
            assert_eq!(cold, warm);
            renders.push(cold);
        }
        assert_eq!(renders[0], renders[1]);
    }

    #[test]
    fn calib_sweep_overrides_reach_characterization() {
        use hetarch_devices::calib::CalibParams;

        let lib = CellLibrary::new();
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let plain = Query::SweepUec {
            distances: vec![3],
            ts_values: vec![5e-3],
            shots: 400,
            seed: 11,
        };
        let baseline = evaluate(&plain, &lib, &pool, &token).unwrap().render();

        // An empty snapshot is the same design point: identical bytes, and
        // the characterization cache entry is shared (no new simulation).
        let misses_before = lib.stats().misses;
        let empty = Query::CalibSweep {
            distances: vec![3],
            ts_values: vec![5e-3],
            shots: 400,
            seed: 11,
            calib: CalibSnapshot::default(),
        };
        assert_eq!(
            evaluate(&empty, &lib, &pool, &token).unwrap().render(),
            baseline
        );
        assert_eq!(lib.stats().misses, misses_before);

        // A degraded storage slot must change the characterized channel and
        // hence the swept logical error rate: the module's idle noise comes
        // from the characterized storage coherence, so a fleet measurement
        // far below the sweep-axis T_S must raise p_L.
        let mut snap = CalibSnapshot::default();
        snap.qubits.insert(
            "usc/s0".to_string(),
            CalibParams {
                t1: Some(5e-5),
                t2: Some(5e-5),
                ..CalibParams::default()
            },
        );
        let degraded = Query::CalibSweep {
            distances: vec![3],
            ts_values: vec![5e-3],
            shots: 400,
            seed: 11,
            calib: snap,
        };
        let result = evaluate(&degraded, &lib, &pool, &token).unwrap();
        assert!(lib.stats().misses > misses_before);
        let p_l = |r: &Json| {
            r.get("points").and_then(Json::as_arr).unwrap()[0]
                .get("p_l")
                .and_then(Json::as_f64)
                .unwrap()
        };
        let baseline_json = evaluate(&plain, &lib, &pool, &token).unwrap();
        assert_ne!(p_l(&result), p_l(&baseline_json));
        assert!(p_l(&result) > p_l(&baseline_json));
    }

    #[test]
    fn cancelled_evaluation_returns_err() {
        let lib = CellLibrary::new();
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        token.cancel();
        let query = Query::SweepUec {
            distances: vec![3],
            ts_values: vec![0.5e-3],
            shots: 100,
            seed: 1,
        };
        assert_eq!(evaluate(&query, &lib, &pool, &token), Err(Cancelled));
        assert_eq!(
            evaluate(&Query::TestBlock { millis: 50 }, &lib, &pool, &token),
            Err(Cancelled)
        );
    }
}
