//! Parallel sweep execution over a design space, on the workspace-wide
//! [`hetarch_exec::WorkerPool`] substrate.

use hetarch_exec::{CancelToken, Cancelled, WorkerPool};
use hetarch_obs as obs;

use crate::space::{DesignSpace, Point};

// Sweep metrics (no-ops unless the `obs` feature is on and `HETARCH_OBS=1`).
static POINTS_EVALUATED: obs::Counter = obs::Counter::new("dse.points_evaluated");
static SWEEPS: obs::Counter = obs::Counter::new("dse.sweeps");
static POINT_LATENCY_NS: obs::Histogram = obs::Histogram::new("dse.point_latency_ns");

/// Evaluates `f` at every point of `space` in parallel on the global
/// [`WorkerPool`], preserving point order in the output.
///
/// # Examples
///
/// ```
/// use hetarch_dse::space::{Axis, DesignSpace};
/// use hetarch_dse::sweep::sweep;
///
/// let space = DesignSpace::new(vec![Axis::new("x", vec![1.0, 2.0, 3.0])]);
/// let results = sweep(&space, |p| p.get("x") * 10.0);
/// let values: Vec<f64> = results.iter().map(|(_, v)| *v).collect();
/// assert_eq!(values, vec![10.0, 20.0, 30.0]);
/// ```
pub fn sweep<T, F>(space: &DesignSpace, f: F) -> Vec<(Point, T)>
where
    T: Send,
    F: Fn(&Point) -> T + Sync,
{
    sweep_on(WorkerPool::global(), space.points(), f)
}

/// Evaluates `f` at every point on an explicit [`WorkerPool`], preserving
/// point order in the output regardless of which worker evaluated which
/// point.
pub fn sweep_on<T, F>(pool: &WorkerPool, points: Vec<Point>, f: F) -> Vec<(Point, T)>
where
    T: Send,
    F: Fn(&Point) -> T + Sync,
{
    match sweep_inner(pool, points, None, f) {
        Ok(out) => out,
        Err(Cancelled) => unreachable!("no token, no cancellation"),
    }
}

/// As [`sweep_on`] with a cooperative [`CancelToken`] checked before each
/// point is dispatched: a fired token stops the sweep after at most one
/// in-flight point per worker and returns [`Cancelled`]. This is the
/// re-entrant entry point the serving layer drives — `f` itself may also
/// observe the token (e.g. via the module estimators' cancellable runs) to
/// stop inside a long per-point Monte-Carlo run.
pub fn try_sweep_on<T, F>(
    pool: &WorkerPool,
    points: Vec<Point>,
    token: &CancelToken,
    f: F,
) -> Result<Vec<(Point, T)>, Cancelled>
where
    T: Send,
    F: Fn(&Point) -> T + Sync,
{
    sweep_inner(pool, points, Some(token), f)
}

fn sweep_inner<T, F>(
    pool: &WorkerPool,
    points: Vec<Point>,
    token: Option<&CancelToken>,
    f: F,
) -> Result<Vec<(Point, T)>, Cancelled>
where
    T: Send,
    F: Fn(&Point) -> T + Sync,
{
    SWEEPS.inc();
    let eval = |i: usize| {
        let span = obs::span!(POINT_LATENCY_NS);
        let value = f(&points[i]);
        drop(span);
        POINTS_EVALUATED.inc();
        value
    };
    let values = match token {
        None => pool.map_indexed(points.len(), eval),
        Some(token) => pool.try_map_indexed(points.len(), token, eval)?,
    };
    Ok(points.into_iter().zip(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Axis;

    #[test]
    fn parallel_matches_serial() {
        let space = DesignSpace::new(vec![
            Axis::new("a", (1..=5).map(f64::from).collect()),
            Axis::new("b", (1..=4).map(f64::from).collect()),
        ]);
        let serial = sweep_on(&WorkerPool::new(1), space.points(), |p| {
            p.get("a") * p.get("b")
        });
        let parallel = sweep_on(&WorkerPool::new(8), space.points(), |p| {
            p.get("a") * p.get("b")
        });
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1, p.1);
        }
    }

    #[test]
    fn order_is_point_order() {
        let space = DesignSpace::new(vec![Axis::new("x", vec![3.0, 1.0, 2.0])]);
        let out = sweep(&space, |p| p.get("x"));
        let xs: Vec<f64> = out.iter().map(|(_, v)| *v).collect();
        assert_eq!(xs, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn single_point_space() {
        let space = DesignSpace::new(vec![Axis::new("only", vec![42.0])]);
        let out = sweep(&space, |p| p.get("only") as i64);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 42);
    }

    #[test]
    fn many_workers_few_points() {
        let space = DesignSpace::new(vec![Axis::new("x", vec![1.0, 2.0])]);
        let out = sweep_on(&WorkerPool::new(16), space.points(), |p| p.get("x"));
        let xs: Vec<f64> = out.iter().map(|(_, v)| *v).collect();
        assert_eq!(xs, vec![1.0, 2.0]);
    }
}
