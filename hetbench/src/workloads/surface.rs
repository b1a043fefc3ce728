//! `surface_fig7`: a reduced Fig. 7 regeneration — planar surface-code
//! memories over distance × data/ancilla coherence ratio.
//!
//! Frame sampling plus union-find decoding of sparse syndromes; decode is
//! most of the time. Bypasses serve, cells and modules.

use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;
use hetarch::stab::detector::{assemble_detectors, DetectorSamples};
use hetarch::stab::frame::FrameSampler;

use super::{timed, Check, Ctx, Digest, Pass, Traced, Workload};
use crate::trace::Tracer;

/// Ancilla coherence T_CA (seconds).
const T_CA: f64 = 0.1e-3;
/// Data/ancilla coherence ratios T_CD / T_CA.
const RATIOS: [f64; 3] = [1.0, 3.0, 5.0];
/// Shots per decode shard (the split does not change the failure count).
const DECODE_SHARD: usize = 1024;

pub struct Surface {
    points: Vec<(SurfaceMemory, u64)>,
    shots: usize,
    /// Per-shot logical error rate of every point in the first pass.
    first: Vec<f64>,
}

fn point_memory(d: usize, ratio: f64) -> SurfaceMemory {
    let noise = SurfaceNoise {
        t_data: ratio * T_CA,
        t_anc: T_CA,
        ..SurfaceNoise::default()
    };
    SurfaceMemory::new(d, d, noise)
}

fn run_point(mem: &SurfaceMemory, pool: &WorkerPool, shots: usize, seed: u64) -> f64 {
    mem.logical_error_rate_on(pool, SurfaceDecoder::UnionFind, shots, seed)
        .0
}

impl Workload for Surface {
    fn setup(ctx: &Ctx, _traced: bool) -> Self {
        let (distances, shots): (&[usize], usize) = if ctx.tiny {
            (&[3, 5], 256)
        } else {
            (&[5, 7, 9, 11], 8192)
        };
        let mut points = Vec::new();
        for &d in distances {
            for ratio in RATIOS {
                let seed = shard_seed(ctx.seed, points.len() as u64);
                points.push((point_memory(d, ratio), seed));
            }
        }
        // Warm-up: every point once at a quarter of its shots, enough that
        // the sharded decode keeps both workers busy.
        for (mem, seed) in &points {
            run_point(mem, &ctx.pool, shots / 4, *seed);
        }
        Surface {
            points,
            shots,
            first: Vec::new(),
        }
    }

    fn pass(&mut self, ctx: &Ctx) -> Pass {
        let mut pass = Pass::default();
        let mut rates = Vec::with_capacity(self.points.len());
        for (mem, seed) in &self.points {
            let (rate, secs) = timed(|| run_point(mem, &ctx.pool, self.shots, *seed));
            rates.push(rate);
            pass.items.push(secs);
            pass.units += self.shots as u64;
        }
        if self.first.is_empty() {
            self.first = rates;
        }
        pass
    }

    fn traced_pass(&mut self, ctx: &Ctx, tracer: &Tracer) -> Traced {
        let _phase = tracer.phase("pass");
        let mut out = Traced::default();
        let (mut nonempty, mut defects, mut decode_ns) = (0u64, 0u64, 0.0);
        let start = std::time::Instant::now();
        for (i, (mem, seed)) in self.points.iter().enumerate() {
            let shots = self.shots;
            let item = std::time::Instant::now();
            let (circuit, decoder) = {
                let _s = tracer.span("stab.build");
                let circuit = mem.circuit();
                let decoder = UnionFindDecoder::new(&mem.matching_graph());
                (circuit, decoder)
            };
            let frames = {
                let _s = tracer.span("stab.frame");
                FrameSampler::sample(&circuit, shots, *seed, &ctx.pool)
            };
            let samples = {
                let _s = tracer.span("stab.detector");
                assemble_detectors(&circuit, &frames.meas_flips, shots)
            };
            let (errors, secs) = {
                let _s = tracer.span("stab.decode");
                timed(|| count_failures(&decoder, &samples, shots, *seed, &ctx.pool))
            };
            out.pass.items.push(item.elapsed().as_secs_f64());
            out.pass.units += shots as u64;
            decode_ns += secs * 1e9;
            let (n, k) = syndrome_stats(&samples);
            nonempty += n;
            defects += k;
            let rate = errors as f64 / shots as f64;
            out.checks.push(Check::equal(
                format!("traced point {i} reproduces the failure count"),
                rate.to_bits(),
                self.first[i].to_bits(),
            ));
        }
        out.wall = start.elapsed().as_secs_f64();
        let shots = out.pass.units as f64;
        out.stats = vec![
            ("stab.decode_ns_per_shot", decode_ns / shots),
            ("stab.nonempty_syndrome_frac", nonempty as f64 / shots),
            ("stab.defects_per_shot", defects as f64 / shots),
        ];
        out
    }

    fn checks(&mut self) -> Vec<Check> {
        // One point again on a single worker: sharding must not matter.
        let i = self.points.len() / 2;
        let (mem, seed) = &self.points[i];
        let serial = run_point(mem, &WorkerPool::new(1), self.shots, *seed);
        let mut checks = vec![Check::equal(
            format!("point {i} is worker-count invariant"),
            serial.to_bits(),
            self.first[i].to_bits(),
        )];
        let ok = self.first.iter().all(|&p| p > 0.0 && p < 0.5);
        checks.push(Check::new(
            "every per-shot rate lies in (0, 0.5)",
            ok,
            format!("{:?}", self.first),
        ));
        checks
    }

    fn fingerprint(&self) -> u64 {
        let mut d = Digest::default();
        for &p in &self.first {
            d.f64(p);
        }
        d.finish()
    }
}

/// Decodes every shot on the pool and counts logical failures.
pub fn count_failures(
    decoder: &UnionFindDecoder,
    samples: &DetectorSamples,
    shots: usize,
    seed: u64,
    pool: &WorkerPool,
) -> u64 {
    pool.run_shards(shots, DECODE_SHARD, seed, |shard| {
        let mut scratch = decoder.new_scratch();
        decoder.count_failures(
            &mut scratch,
            &samples.detectors,
            &samples.observables,
            0,
            shard.start,
            shard.len,
        )
    })
    .into_iter()
    .sum()
}

/// Shots with at least one detection event, and detection events in total,
/// read off the packed detector words.
pub fn syndrome_stats(samples: &DetectorSamples) -> (u64, u64) {
    let det = &samples.detectors;
    let (mut nonempty, mut defects) = (0u64, 0u64);
    for w in 0..det.words() {
        let mut any = 0u64;
        for r in 0..det.rows() {
            let word = det.word(r, w);
            any |= word;
            defects += u64::from(word.count_ones());
        }
        nonempty += u64::from(any.count_ones());
    }
    (nonempty, defects)
}
