//! Fig. 6 (d = 13 surface code vs data/ancilla coherence scaling) and
//! Fig. 7 (logical error vs distance for T_CD/T_CA ratios).

use hetarch::dse::{sweep_on, Axis, DesignSpace};
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;

use crate::{header, Scale};

/// One Fig. 6 point: the logical error rate per round with the data
/// (`scaled_data`) or the ancilla coherence scaled by `alpha`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig6Point {
    pub alpha: f64,
    pub scaled_data: bool,
    pub logical_per_round: f64,
}

/// Fig. 6's sweep: a distance-`d` surface-code memory with the data
/// coherence (seed 6), then the ancilla coherence (seed 7), scaled by each
/// α from the [`SurfaceNoise::default`] baseline, `shots` shots a point.
pub fn fig6_points(pool: &WorkerPool, d: usize, alphas: &[f64], shots: usize) -> Vec<Fig6Point> {
    let base = SurfaceNoise::default();
    let space = DesignSpace::new(vec![
        Axis::new("alpha", alphas.to_vec()),
        Axis::new("data", vec![1.0, 0.0]),
    ]);
    sweep_on(pool, space.points(), |p| {
        let (alpha, scaled_data) = (p.get("alpha"), p.get("data") > 0.5);
        let (noise, seed) = if scaled_data {
            let t_data = base.t_data * alpha;
            (SurfaceNoise { t_data, ..base }, 6)
        } else {
            let t_anc = base.t_anc * alpha;
            (SurfaceNoise { t_anc, ..base }, 7)
        };
        let (_, logical_per_round) = SurfaceMemory::new(d, d, noise).logical_error_rate_on(
            pool,
            SurfaceDecoder::UnionFind,
            shots,
            seed,
        );
        Fig6Point {
            alpha,
            scaled_data,
            logical_per_round,
        }
    })
    .into_iter()
    .map(|(_, point)| point)
    .collect()
}

/// Prints Fig. 6 at d = 13 from the Tc = 0.1 ms baseline.
pub fn fig6(pool: &WorkerPool, scale: &Scale) {
    header(
        "Figure 6",
        "d = 13 surface code, Tc baseline 0.1 ms, p2 = 1%, 1 us readout.\n\
         Column 2: T_CD = a x 0.1 ms (ancilla fixed). Column 3: T_CA scaled instead.",
    );
    let alphas = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0];
    let points = fig6_points(pool, 13, &alphas, scale.shots(20_000));

    println!(
        "{:>6} {:>18} {:>18}",
        "alpha", "scale data (TCD)", "scale ancilla (TCA)"
    );
    for pair in points.chunks(2) {
        let (alpha, p_data, p_anc) = (
            pair[0].alpha,
            pair[0].logical_per_round,
            pair[1].logical_per_round,
        );
        println!("{alpha:>6.1} {p_data:>18.5} {p_anc:>18.5}");
    }
    let homogeneous = points[0].logical_per_round;
    println!("\nhomogeneous baseline (alpha = 1): {homogeneous:.5}");
    println!(
        "expected shape: increasing T_CD reduces the logical error by ~2.5x by\n\
         T_CD ~ 0.5 ms (alpha = 5) with diminishing returns after; increasing\n\
         T_CA barely moves the curve (data idling during the 1 us readout\n\
         dominates)."
    );
}

/// One Fig. 7 point: the logical error rate per round at distance `d`
/// and T_CD/T_CA `ratio` (T_CA = 0.1 ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig7Point {
    pub d: usize,
    pub ratio: f64,
    pub logical_per_round: f64,
}

/// Fig. 7's sweep: a distance-d surface-code memory at every distance ×
/// ratio, `shots` shots a point at seed 8 + d.
pub fn fig7_points(
    pool: &WorkerPool,
    ds: &[usize],
    ratios: &[f64],
    shots: usize,
) -> Vec<Fig7Point> {
    let space = DesignSpace::new(vec![
        Axis::new("d", ds.iter().map(|&d| d as f64).collect()),
        Axis::new("ratio", ratios.to_vec()),
    ]);
    sweep_on(pool, space.points(), |p| {
        let (d, ratio) = (p.get("d") as usize, p.get("ratio"));
        let noise = SurfaceNoise {
            t_data: 0.1e-3 * ratio,
            ..SurfaceNoise::default()
        };
        let (_, logical_per_round) = SurfaceMemory::new(d, d, noise).logical_error_rate_on(
            pool,
            SurfaceDecoder::UnionFind,
            shots,
            8 + d as u64,
        );
        Fig7Point {
            d,
            ratio,
            logical_per_round,
        }
    })
    .into_iter()
    .map(|(_, point)| point)
    .collect()
}

/// Prints Fig. 7 for d = 5…18; the homogeneous system is ratio 1.
pub fn fig7(pool: &WorkerPool, scale: &Scale) {
    header(
        "Figure 7",
        "Logical error per cycle vs distance for T_CD/T_CA ratios (T_CA = 0.1 ms)",
    );
    let ratios = [1.0, 2.0, 3.0, 4.0, 5.0, 8.0];
    let ds = [5, 7, 9, 11, 13, 15, 18];
    let points = fig7_points(pool, &ds, &ratios, scale.shots(20_000));

    print!("{:>6}", "d");
    for r in ratios {
        print!(" {:>10}", format!("ratio={r}"));
    }
    println!();
    for row in points.chunks(ratios.len()) {
        print!("{:>6}", row[0].d);
        for p in row {
            print!(" {:>10.5}", p.logical_per_round);
        }
        println!();
    }
    println!();
    println!(
        "expected shape: at ratio 1 the code sits near threshold (flat or rising\n\
         in d); larger ratios push it below threshold so the error falls with d;\n\
         gains saturate beyond ratio ~5 (two-qubit gate error becomes limiting)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_data_coherence_helps() {
        let points = fig6_points(&WorkerPool::new(2), 3, &[1.0, 4.0], 1_500);
        assert_eq!(points.len(), 4);
        let rate = |alpha, scaled_data| {
            points
                .iter()
                .find(|p| p.alpha == alpha && p.scaled_data == scaled_data)
                .unwrap()
                .logical_per_round
        };
        // Scaling data coherence by 4 should help.
        let (base, better) = (rate(1.0, true), rate(4.0, true));
        assert!(better < base, "alpha=4 {better} vs alpha=1 {base}");
    }

    #[test]
    fn fig6_nested_sweep_is_worker_count_invariant() {
        // The sweep and each point's surface Monte Carlo share one pool, so
        // every worker count runs the inner estimator nested inside the
        // outer sweep.
        let sweep = |workers| fig6_points(&WorkerPool::new(workers), 3, &[1.0, 2.0], 1_300);
        let baseline = sweep(1);
        assert_eq!(baseline.len(), 4);
        for workers in [1, 2, 8] {
            assert_eq!(sweep(workers), baseline, "differs at {workers} workers");
        }
    }

    #[test]
    fn fig7_sweep_is_worker_count_invariant() {
        let sweep = |workers| fig7_points(&WorkerPool::new(workers), &[3, 5], &[1.0, 5.0], 600);
        let baseline = sweep(1);
        assert_eq!(baseline.len(), 4);
        assert_eq!((baseline[2].d, baseline[2].ratio), (5, 1.0));
        for workers in [2, 8] {
            assert_eq!(sweep(workers), baseline, "differs at {workers} workers");
        }
    }
}
