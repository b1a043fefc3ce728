//! Regenerates Table 4: code-teleportation logical error probabilities for
//! every code pair — heterogeneous (upper-right triangle) vs homogeneous
//! (lower-left triangle).

use hetarch::prelude::*;
use hetarch_bench::{header, shots};

fn main() {
    let pool = WorkerPool::available();
    header(
        "Table 4",
        "CT logical error probabilities: heterogeneous above the diagonal,\n\
         homogeneous below (T_S = 50 ms, EP generation 1000 kHz)",
    );
    let n = shots(8_000);
    let codes: Vec<StabilizerCode> = vec![
        reed_muller_15(),
        color_17(),
        steane(),
        rotated_surface_code(3),
        rotated_surface_code(4),
    ];
    let k = codes.len();
    let mut het = vec![vec![f64::NAN; k]; k];
    let mut hom = vec![vec![f64::NAN; k]; k];
    for i in 0..k {
        for j in (i + 1)..k {
            let mut cfg = CtConfig::heterogeneous(codes[i].clone(), codes[j].clone(), 50e-3);
            cfg.shots = n;
            het[i][j] = CtModule::new(cfg).evaluate(&pool).logical_error_probability;
            let mut cfg = CtConfig::homogeneous(codes[i].clone(), codes[j].clone());
            cfg.shots = n;
            hom[j][i] = CtModule::new(cfg).evaluate(&pool).logical_error_probability;
        }
    }

    print!("{:>8}", "");
    for c in &codes {
        print!(" {:>8}", c.name());
    }
    println!();
    for i in 0..k {
        print!("{:>8}", codes[i].name());
        for j in 0..k {
            if i == j {
                print!(" {:>8}", "-");
            } else if j > i {
                print!(" {:>8.3}", het[i][j]);
            } else {
                print!(" {:>8.3}", hom[i][j]);
            }
        }
        println!();
    }

    // Aggregate reductions.
    let mut reductions = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            reductions.push(hom[j][i] / het[i][j]);
        }
    }
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
