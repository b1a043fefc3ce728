//! `cells_calib_refresh`: refresh the cell library from fleet calibration
//! snapshots.
//!
//! Each snapshot is the committed fleet fixture with every value perturbed
//! by up to ±20%. Refreshing one parses it, characterizes all four cells on
//! a fresh library and rebuilds the DEJMPS table. This is the only
//! workload where density-matrix characterization (qsim, cells) is most of
//! the work.

use std::sync::Arc;

use hetarch::devices::calib::CalibParams;
use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::prelude::*;

use super::{timed, Check, Ctx, Digest, Pass, SplitMix, Traced, Workload};
use crate::trace::{SpanGuard, Tracer};

const FIXTURE: &str = include_str!("../../../tests/fixtures/fleet_calib_v1.json");

/// The refreshed library entries of one snapshot.
struct Refreshed {
    register: Arc<RegisterChannel>,
    parcheck: Arc<ParCheckChannel>,
    seqop: Arc<SeqOpChannel>,
    usc: Arc<UscChannel>,
    table: DejmpsTable,
}

impl Refreshed {
    /// Digest of the characterized numbers, plus one DEJMPS round on two
    /// Werner pairs through the rebuilt table.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.f64(self.register.load.fidelity)
            .f64(self.parcheck.parity.fidelity)
            .f64(self.seqop.seq_cnot.fidelity)
            .f64(self.seqop.parity.fidelity)
            .f64(self.usc.check2.fidelity)
            .f64(self.usc.swap.error);
        let pair = BellDiagonal::werner(0.9);
        if let Some(out) = self.table.round(&pair, &pair) {
            d.f64(out.success_prob).f64(out.pair.fidelity());
        }
        d.finish()
    }
}

pub struct Calib {
    /// Rendered snapshot texts, one per refresh of a pass.
    texts: Vec<String>,
    compute: DeviceSpec,
    storage: DeviceSpec,
    first: Vec<u64>,
}

/// Scales every value of `params` by a factor drawn from [0.8, 1.2).
fn perturb(params: &CalibParams, rng: &mut SplitMix) -> CalibParams {
    let mut scale = |v: Option<f64>| v.map(|v| v * (0.8 + 0.4 * rng.next_f64()));
    CalibParams {
        t1: scale(params.t1),
        t2: scale(params.t2),
        gate_1q_error: scale(params.gate_1q_error),
        gate_2q_error: scale(params.gate_2q_error),
        swap_error: scale(params.swap_error),
        readout_time: scale(params.readout_time),
    }
}

fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

impl Calib {
    /// Parse, characterize all four cells on a fresh library, rebuild the
    /// DEJMPS table; spans around each call when traced.
    fn refresh(&self, text: &str, tracer: Option<&Tracer>) -> Refreshed {
        let calib = {
            let _s = span(tracer, "devices.calib_parse");
            CalibSnapshot::parse(text).expect("rendered snapshots parse")
        };
        let lib = CellLibrary::new();
        let (c, s) = (&self.compute, &self.storage);
        let register = {
            let _s = span(tracer, "cells.characterize_register");
            lib.get_with_calib::<RegisterCell>(c, s, &calib)
        };
        let parcheck = {
            let _s = span(tracer, "cells.characterize_parcheck");
            lib.get_with_calib::<ParCheckCell>(c, c, &calib)
        };
        let seqop = {
            let _s = span(tracer, "cells.characterize_seqop");
            lib.get_with_calib::<SeqOpCell>(c, s, &calib)
        };
        let usc = {
            let _s = span(tracer, "cells.characterize_usc");
            lib.get_with_calib::<UscCell>(c, s, &calib)
        };
        let table = {
            let _s = span(tracer, "qsim.dejmps_table");
            DejmpsTable::new(&parcheck.distill_noise())
        };
        Refreshed {
            register,
            parcheck,
            seqop,
            usc,
            table,
        }
    }

    /// Refreshes every snapshot on `pool`; returns digests and latencies.
    fn refresh_all(&self, pool: &WorkerPool, tracer: Option<&Tracer>) -> (Vec<u64>, Vec<f64>) {
        pool.map_indexed(self.texts.len(), |i| {
            let (r, secs) = timed(|| self.refresh(&self.texts[i], tracer));
            (r.digest(), secs)
        })
        .into_iter()
        .unzip()
    }
}

impl Workload for Calib {
    fn setup(ctx: &Ctx, _traced: bool) -> Self {
        let snapshots = if ctx.tiny { 8 } else { 500 };
        let base = CalibSnapshot::parse(FIXTURE).expect("the committed fixture parses");
        let texts = ctx.pool.map_indexed(snapshots, |i| {
            let mut rng = SplitMix::new(shard_seed(ctx.seed, i as u64));
            let mut snap = base.clone();
            for params in snap.qubits.values_mut() {
                *params = perturb(params, &mut rng);
            }
            snap.to_json().render()
        });
        let calib = Calib {
            texts,
            compute: catalog::coherence_limited_compute(0.5e-3),
            storage: catalog::coherence_limited_storage(50e-3),
            first: Vec::new(),
        };
        // Warm-up: one refresh of every snapshot, the pass's own work.
        calib.refresh_all(&ctx.pool, None);
        calib
    }

    fn pass(&mut self, ctx: &Ctx) -> Pass {
        let (digests, items) = self.refresh_all(&ctx.pool, None);
        if self.first.is_empty() {
            self.first = digests;
        }
        Pass {
            units: items.len() as u64,
            items,
            ..Pass::default()
        }
    }

    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced {
        let phase = tracer.phase("pass");
        let ((digests, items), wall) = timed(|| self.refresh_all(&ctx.pool, Some(tracer)));
        drop(phase);
        let same = digests
            .iter()
            .zip(&self.first)
            .filter(|(a, b)| a == b)
            .count();
        Traced {
            pass: Pass {
                units: items.len() as u64,
                items,
                ..Pass::default()
            },
            wall,
            checks: vec![Check::equal(
                "traced refreshes reproduce every snapshot",
                same,
                self.first.len(),
            )],
            stats: Vec::new(),
        }
    }

    fn checks(&mut self) -> Vec<Check> {
        let serial =
            WorkerPool::new(1).map_indexed(1, |_| self.refresh(&self.texts[0], None).digest());
        vec![Check::equal(
            "snapshot 0 is worker-count invariant",
            serial[0],
            self.first[0],
        )]
    }

    fn fingerprint(&self) -> u64 {
        let mut d = Digest::default();
        for &x in &self.first {
            d.u64(x);
        }
        d.finish()
    }
}
