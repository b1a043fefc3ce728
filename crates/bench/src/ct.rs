//! Fig. 12 (code teleportation vs storage coherence) and Table 4 (CT
//! logical error for every code pair, heterogeneous vs homogeneous).

use hetarch::dse::{sweep_on, Axis, DesignSpace};
use hetarch::prelude::*;

use crate::{header, Scale};

/// One Fig. 12 point: the CT logical error probability of a code pair at
/// a storage coherence (ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig12Point {
    pub ts_ms: f64,
    pub pair: &'static str,
    pub logical_error_probability: f64,
}

/// Fig. 12's sweep: heterogeneous code teleportation for three code pairs
/// at each storage coherence, `shots` shots a point at the configuration's
/// default seed.
pub fn fig12_points(pool: &WorkerPool, ts_ms: &[f64], shots: usize) -> Vec<Fig12Point> {
    let pairs = [
        ("SC3&RM", rotated_surface_code(3), reed_muller_15()),
        ("SC3&SC4", rotated_surface_code(3), rotated_surface_code(4)),
        ("17QCC&SC4", color_17(), rotated_surface_code(4)),
    ];
    let space = DesignSpace::new(vec![
        Axis::new("ts_ms", ts_ms.to_vec()),
        Axis::new("pair", vec![0.0, 1.0, 2.0]),
    ]);
    sweep_on(pool, space.points(), |p| {
        let (pair, a, b) = pairs[p.get("pair") as usize].clone();
        let ts_ms = p.get("ts_ms");
        let mut cfg = CtConfig::heterogeneous(a, b, ts_ms * 1e-3);
        cfg.shots = shots;
        let logical_error_probability = CtModule::new(cfg).evaluate(pool).logical_error_probability;
        Fig12Point {
            ts_ms,
            pair,
            logical_error_probability,
        }
    })
    .into_iter()
    .map(|(_, point)| point)
    .collect()
}

/// Prints Fig. 12 (EP generation 1000 kHz, distillation target 99.5%).
pub fn fig12(pool: &WorkerPool, scale: &Scale) {
    header(
        "Figure 12",
        "CT logical error probability vs T_S for three code pairs",
    );
    let ts_ms = [0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0];
    let points = fig12_points(pool, &ts_ms, scale.shots(10_000));
    let pairs = points.len() / ts_ms.len();

    print!("{:>9}", "Ts (ms)");
    for p in &points[..pairs] {
        print!(" {:>11}", p.pair);
    }
    println!();
    for row in points.chunks(pairs) {
        print!("{:>9.1}", row[0].ts_ms);
        for p in row {
            print!(" {:>11.3}", p.logical_error_probability);
        }
        println!();
    }
    println!();
    println!(
        "expected shape: error probability falls substantially with T_S; the\n\
         simpler surface-code pair saturates past ~10 ms while pairs involving\n\
         larger/non-planar codes keep improving toward 50 ms."
    );
}

/// One Table 4 entry: the CT logical error probability between codes
/// `a < b` (indices into the swept codes), heterogeneous at T_S = 50 ms
/// and homogeneous.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table4Point {
    pub a: usize,
    pub b: usize,
    pub het: f64,
    pub hom: f64,
}

/// Table 4's sweep: code teleportation between every pair `a < b` of
/// `codes` on both architectures, `shots` shots a point at the
/// configuration's default seed.
pub fn table4_points(
    pool: &WorkerPool,
    codes: &[StabilizerCode],
    shots: usize,
) -> Vec<Table4Point> {
    let k = codes.len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|a| (a + 1..k).map(move |b| (a, b)))
        .collect();
    let space = DesignSpace::new(vec![
        Axis::new("pair", (0..pairs.len()).map(|i| i as f64).collect()),
        Axis::new("het", vec![1.0, 0.0]),
    ]);
    let rates: Vec<f64> = sweep_on(pool, space.points(), |p| {
        let (a, b) = pairs[p.get("pair") as usize];
        let (a, b) = (codes[a].clone(), codes[b].clone());
        let mut cfg = if p.get("het") > 0.5 {
            CtConfig::heterogeneous(a, b, 50e-3)
        } else {
            CtConfig::homogeneous(a, b)
        };
        cfg.shots = shots;
        CtModule::new(cfg).evaluate(pool).logical_error_probability
    })
    .into_iter()
    .map(|(_, rate)| rate)
    .collect();
    pairs
        .iter()
        .zip(rates.chunks(2))
        .map(|(&(a, b), r)| Table4Point {
            a,
            b,
            het: r[0],
            hom: r[1],
        })
        .collect()
}

/// Prints Table 4: heterogeneous above the diagonal, homogeneous below.
pub fn table4(pool: &WorkerPool, scale: &Scale) {
    header(
        "Table 4",
        "CT logical error probabilities: heterogeneous above the diagonal,\n\
         homogeneous below (T_S = 50 ms, EP generation 1000 kHz)",
    );
    let codes = [
        reed_muller_15(),
        color_17(),
        steane(),
        rotated_surface_code(3),
        rotated_surface_code(4),
    ];
    let points = table4_points(pool, &codes, scale.shots(8_000));
    let mut cells = vec![vec![f64::NAN; codes.len()]; codes.len()];
    for p in &points {
        cells[p.a][p.b] = p.het;
        cells[p.b][p.a] = p.hom;
    }

    print!("{:>8}", "");
    for c in &codes {
        print!(" {:>8}", c.name());
    }
    println!();
    for (i, row) in cells.iter().enumerate() {
        print!("{:>8}", codes[i].name());
        for (j, p) in row.iter().enumerate() {
            if i == j {
                print!(" {:>8}", "-");
            } else {
                print!(" {:>8.3}", p);
            }
        }
        println!();
    }

    // Aggregate reductions.
    let reductions: Vec<f64> = points.iter().map(|p| p.hom / p.het).collect();
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let min = reductions.iter().cloned().fold(f64::MAX, f64::min);
    let max = reductions.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!(
        "heterogeneous-over-homogeneous reduction: avg {avg:.2}x, min {min:.2}x, max {max:.2}x"
    );
    println!(
        "expected shape: heterogeneous beats homogeneous for every pair\n\
         (paper: avg 2.33x, min 1.60x, max 2.96x)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_sweep_is_worker_count_invariant() {
        let sweep = |workers| fig12_points(&WorkerPool::new(workers), &[0.5, 50.0], 48);
        let baseline = sweep(1);
        assert_eq!(baseline.len(), 6);
        assert_eq!((baseline[4].ts_ms, baseline[4].pair), (50.0, "SC3&SC4"));
        for workers in [2, 8] {
            assert_eq!(sweep(workers), baseline, "differs at {workers} workers");
        }
    }

    #[test]
    fn table4_covers_every_pair_on_both_architectures() {
        let codes = [steane(), rotated_surface_code(3), rotated_surface_code(4)];
        let sweep = |workers| table4_points(&WorkerPool::new(workers), &codes, 32);
        let baseline = sweep(1);
        let pairs: Vec<(usize, usize)> = baseline.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (1, 2)]);
        for workers in [2, 8] {
            assert_eq!(sweep(workers), baseline, "differs at {workers} workers");
        }
    }
}
