//! Regenerates Table 3: QEC code, pseudothreshold, heterogeneous and
//! homogeneous logical error rates, and the error reduction at T_S = 50 ms.

use hetarch::prelude::*;
use hetarch_bench::{header, shots};

fn uec_rate(
    pool: &WorkerPool,
    code: &StabilizerCode,
    p2q: f64,
    tc: f64,
    ts: f64,
    n: usize,
    seed: u64,
) -> f64 {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(tc),
        catalog::coherence_limited_storage(ts),
    )
    .expect("design rules hold")
    .characterize();
    let noise = UecNoise {
        p_swap: p2q / 2.0,
        p2q,
        ..UecNoise::default()
    };
    UecModule::new(code.clone(), usc, noise)
        .logical_error_rate_on(pool, n, seed)
        .logical_error_rate
}

/// Pseudothreshold: the two-qubit gate error rate at which the per-cycle
/// logical error rate breaks even with it, found by scanning a log grid and
/// interpolating the crossing. Computed idle-free (gate errors only), the
/// code-intrinsic break-even the paper's PT column reports; the Het./Hom.
/// columns include the full idle model.
fn pseudothreshold(pool: &WorkerPool, code: &StabilizerCode, n: usize) -> Option<f64> {
    let grid: Vec<f64> = (0..13).map(|i| 2.5e-4 * 2f64.powi(i)).collect(); // 2.5e-4 .. ~1
    let mut prev: Option<(f64, f64)> = None;
    for &p in &grid {
        if p > 0.6 {
            break;
        }
        let logical = uec_rate(pool, code, p, 1e3, 1e3, n, 33);
        let margin = logical - p;
        if let Some((pp, pm)) = prev {
            if pm < 0.0 && margin >= 0.0 {
                // Linear interpolation of the crossing in log(p).
                let t = -pm / (margin - pm);
                let lp = pp.ln() + t * (p.ln() - pp.ln());
                return Some(lp.exp());
            }
        }
        prev = Some((p, margin));
    }
    // Below pseudothreshold everywhere scanned -> report the last safe point
    // as a lower bound only if the code was ever above; otherwise None.
    None
}

fn main() {
    let pool = WorkerPool::available();
    header(
        "Table 3",
        "QEC code, pseudothreshold (PT), het/hom logical error rates and\n\
         reduction at T_S = 50 ms (CX error 1%)",
    );
    let n = shots(20_000);
    let pt_shots = (n / 4).max(2_000);
    let noise = UecNoise::default();

    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "Code", "PT", "Het.", "Hom.", "Red."
    );
    let codes: Vec<(StabilizerCode, bool)> = vec![
        (reed_muller_15(), true),
        (color_17(), true),
        (steane(), true),
        (rotated_surface_code(3), false),
        (rotated_surface_code(4), false),
    ];
    for (code, has_pt) in codes {
        let pt = if has_pt {
            pseudothreshold(&pool, &code, pt_shots)
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|| "-".into())
        } else {
            "-".into() // thresholds, not pseudothresholds, apply
        };
        let het = uec_rate(&pool, &code, 1e-2, 0.5e-3, 50e-3, n, 42);
        let hom = if code.name().starts_with("SC") {
            hom_surface_logical_error(&pool, code.distance(), 0.5e-3, noise, n, 43)
        } else {
            HomModule::new(code.clone(), 0.5e-3, noise)
                .logical_error_rate_on(&pool, n, 43)
                .logical_error_rate
        };
        let red = if het < hom {
            format!("{:.1}x", hom / het)
        } else {
            format!("{:.1}x (hom)", het / hom)
        };
        println!(
            "{:<8} {:>10} {:>10.4} {:>10.4} {:>10}",
            code.name(),
            pt,
            het,
            hom,
            red
        );
    }
    println!();
    println!(
        "expected shape: RM / 17QCC / Steane improve by several-x on the UEC;\n\
         the square-lattice-native surface codes prefer the homogeneous system;\n\
         the Reed-Muller code has the lowest (worst) pseudothreshold.\n\
         PT is the idle-free gate-error break-even of the serialized module;\n\
         our two-phase lookup decode is stricter than the paper's Stim\n\
         pipeline, so absolute PTs sit well below the paper's."
    );
}
