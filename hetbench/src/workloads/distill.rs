//! `distill_fig4`: a reduced Fig. 4 regeneration — delivered-pair rate of
//! the distillation module over generation rate × storage coherence, plus
//! the homogeneous column.
//!
//! The event-driven simulator is the slowest path per unit of work; stab is
//! bypassed entirely.

use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::prelude::*;

use super::{timed, Check, Ctx, Digest, Pass, Traced, Workload};
use crate::trace::Tracer;

/// Simulated time per trial (seconds).
const DURATION: f64 = 10e-3;

/// One design point: a heterogeneous `T_S`, or `None` for the homogeneous
/// baseline, at a generation rate.
#[derive(Clone, Copy)]
struct Point {
    ts: Option<f64>,
    rate_hz: f64,
    seed: u64,
}

impl Point {
    fn config(&self) -> DistillConfig {
        match self.ts {
            Some(ts) => DistillConfig::heterogeneous(ts, self.rate_hz, self.seed),
            None => DistillConfig::homogeneous(self.rate_hz, self.seed),
        }
    }

    fn run(&self, pool: &WorkerPool, trials: usize) -> Vec<DistillReport> {
        DistillModule::new(self.config()).run_batch_on(pool, DURATION, trials)
    }
}

pub struct Distill {
    points: Vec<Point>,
    trials: usize,
    first: Vec<Vec<DistillReport>>,
}

impl Workload for Distill {
    fn setup(ctx: &Ctx, _traced: bool) -> Self {
        let (rates, ts_values, trials): (&[f64], &[f64], usize) = if ctx.tiny {
            (&[1e5], &[2.5e-3], 2)
        } else {
            (&[1e5, 1e6, 1e7], &[0.5e-3, 2.5e-3, 12.5e-3, 50e-3], 8)
        };
        let mut points = Vec::new();
        for &rate_hz in rates {
            for ts in ts_values.iter().map(|&t| Some(t)).chain([None]) {
                let seed = shard_seed(ctx.seed, points.len() as u64);
                points.push(Point { ts, rate_hz, seed });
            }
        }
        // Warm-up: every point, one trial.
        for p in &points {
            p.run(&ctx.pool, 1);
        }
        Distill {
            points,
            trials,
            first: Vec::new(),
        }
    }

    fn pass(&mut self, ctx: &Ctx) -> Pass {
        let mut pass = Pass::default();
        let mut reports = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let (r, secs) = timed(|| p.run(&ctx.pool, self.trials));
            reports.push(r);
            pass.items.push(secs);
            pass.units += self.trials as u64;
        }
        if self.first.is_empty() {
            self.first = reports;
        }
        pass
    }

    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced {
        let _phase = tracer.phase("pass");
        let mut out = Traced::default();
        let start = std::time::Instant::now();
        for (i, p) in self.points.iter().enumerate() {
            let item = std::time::Instant::now();
            let config = {
                let _s = tracer.span("modules.distill_config");
                p.config()
            };
            let module = {
                let _s = tracer.span("modules.distill_table");
                DistillModule::new(config)
            };
            let reports = {
                let _s = tracer.span("modules.distill_run");
                module.run_batch_on(&ctx.pool, DURATION, self.trials)
            };
            out.pass.items.push(item.elapsed().as_secs_f64());
            out.pass.units += self.trials as u64;
            out.checks.push(Check::equal(
                format!("traced point {i} reproduces the reports"),
                format!("{reports:?}"),
                format!("{:?}", self.first[i]),
            ));
        }
        out.wall = start.elapsed().as_secs_f64();
        out
    }

    fn checks(&mut self) -> Vec<Check> {
        let i = self.points.len() / 2;
        let serial = self.points[i].run(&WorkerPool::new(1), self.trials);
        let delivered = self
            .first
            .iter()
            .flatten()
            .map(|r| r.delivered)
            .sum::<usize>();
        vec![
            Check::equal(
                format!("point {i} is worker-count invariant"),
                format!("{serial:?}"),
                format!("{:?}", self.first[i]),
            ),
            Check::new(
                "pairs were delivered",
                delivered > 0,
                format!("{delivered}"),
            ),
        ]
    }

    fn fingerprint(&self) -> u64 {
        let mut d = Digest::default();
        for r in self.first.iter().flatten() {
            d.u64(r.arrivals as u64)
                .u64(r.rounds_attempted as u64)
                .u64(r.rounds_succeeded as u64)
                .u64(r.delivered as u64)
                .f64(r.best_fidelity);
        }
        d.finish()
    }
}
