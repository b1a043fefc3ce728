//! Fig. 3 (distillation fidelity over time) and Fig. 4 (distilled-EP rate
//! vs generation rate and storage coherence).

use hetarch::dse::{sweep_on, Axis, DesignSpace};
use hetarch::prelude::*;

use crate::{header, Scale};

fn trace(mut config: DistillConfig, label: &str) {
    config.consume_output = false;
    config.trace_interval = Some(2e-6);
    let report = DistillModule::new(config).run(100e-6);
    println!("-- {label} --");
    println!("{:>10} {:>16} {:>16}", "t (us)", "memory 1-F", "output 1-F");
    for p in &report.trace {
        println!(
            "{:>10.1} {:>16} {:>16}",
            p.time * 1e6,
            p.memory_infidelity
                .map(|x| format!("{x:.5}"))
                .unwrap_or_else(|| "-".into()),
            p.output_infidelity
                .map(|x| format!("{x:.5}"))
                .unwrap_or_else(|| "-".into())
        );
    }
    let best = report
        .trace
        .iter()
        .filter_map(|p| p.output_infidelity)
        .fold(f64::MAX, f64::min);
    if best < f64::MAX {
        println!("best output infidelity: {best:.5}");
    } else {
        println!("no pairs reached the output register");
    }
    println!();
}

/// Prints Fig. 3: heterogeneous (Ts = 12.5 ms) vs homogeneous traces.
pub fn fig3() {
    header(
        "Figure 3",
        "Best output-register EP infidelity over 100 us; EP generation 2 MHz,\n\
         raw infidelity 0.01-0.1, target 0.995",
    );
    let rate = 2e6;
    trace(
        DistillConfig::heterogeneous(12.5e-3, rate, 3),
        "heterogeneous, Ts = 12.5 ms/mode",
    );
    trace(
        DistillConfig::homogeneous(rate, 3),
        "homogeneous, Ts = Tc = 0.5 ms",
    );
    println!(
        "expected shape: the heterogeneous trace reaches lower infidelity minima\n\
         and decays more slowly between distillation events."
    );
}

/// One Fig. 4 point: the distilled-EP rate (Hz) delivered at an EP
/// generation rate (kHz) and storage coherence (ms; `None` is the
/// homogeneous system).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig4Point {
    pub gen_khz: f64,
    pub ts_ms: Option<f64>,
    pub rate_hz: f64,
}

/// Fig. 4's sweep: every generation rate × storage coherence, then the
/// homogeneous system, each simulated for `duration` seconds at seed 4.
pub fn fig4_points(pool: &WorkerPool, gen: &[f64], ts: &[f64], duration: f64) -> Vec<Fig4Point> {
    // A storage coherence of 0 marks the homogeneous column.
    let space = DesignSpace::new(vec![
        Axis::new("gen_khz", gen.to_vec()),
        Axis::new("ts_ms", ts.iter().copied().chain([0.0]).collect()),
    ]);
    sweep_on(pool, space.points(), |p| {
        let (gen_khz, ts_ms) = (p.get("gen_khz"), p.get("ts_ms"));
        let config = if ts_ms > 0.0 {
            DistillConfig::heterogeneous(ts_ms * 1e-3, gen_khz * 1e3, 4)
        } else {
            DistillConfig::homogeneous(gen_khz * 1e3, 4)
        };
        let rate_hz = DistillModule::new(config).run(duration).delivered_rate_hz;
        let ts_ms = Some(ts_ms).filter(|&ts| ts > 0.0);
        Fig4Point {
            gen_khz,
            ts_ms,
            rate_hz,
        }
    })
    .into_iter()
    .map(|(_, point)| point)
    .collect()
}

/// Prints Fig. 4 (delivered fidelity ≥ 0.995).
pub fn fig4(pool: &WorkerPool, scale: &Scale) {
    header(
        "Figure 4",
        "Distilled EP rate (kHz) vs generation rate (kHz) and storage coherence",
    );
    let gen_khz = [100.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5];
    let ts_ms = [0.5, 1.0, 2.5, 5.0, 12.5, 50.0];
    let points = fig4_points(pool, &gen_khz, &ts_ms, scale.duration(10.0));

    print!("{:>12}", "gen (kHz)");
    for ts in ts_ms {
        print!(" {:>9}", format!("Ts={ts}ms"));
    }
    println!(" {:>9}", "hom");
    for row in points.chunks(ts_ms.len() + 1) {
        print!("{:>12.0}", row[0].gen_khz);
        for p in row {
            print!(" {:>9.1}", p.rate_hz / 1e3);
        }
        println!();
    }
    println!();
    println!(
        "expected shape: rates rise with generation rate; het with Ts >= 2.5 ms\n\
         beats the homogeneous column by >= 2x in the mid range; the homogeneous\n\
         system delivers essentially nothing below ~1000 kHz while het still\n\
         works at ~100 kHz."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_finds_sufficient_ts() {
        let points = fig4_points(&WorkerPool::new(2), &[1_000.0], &[0.5, 2.5, 12.5], 1.5e-3);
        assert_eq!(points.len(), 4);
        assert_eq!(points[3].ts_ms, None, "homogeneous column comes last");
        let het = &points[..3];
        let best = het.iter().map(|p| p.rate_hz).fold(0.0, f64::max);
        assert!(best > 0.0, "no pairs delivered at 1 MHz");
        let sufficient = het
            .iter()
            .filter(|p| p.rate_hz >= 0.5 * best)
            .filter_map(|p| p.ts_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(sufficient <= 12.5, "some Ts must reach 50% of best");
    }

    #[test]
    fn fig4_longer_ts_never_much_worse() {
        let points = fig4_points(&WorkerPool::new(2), &[1_000.0], &[0.5, 12.5], 1.5e-3);
        let short = points[0].rate_hz;
        let long = points[1].rate_hz;
        assert!(long >= short * 0.8, "long {long} vs short {short}");
    }

    #[test]
    fn fig4_sweep_is_worker_count_invariant() {
        let sweep =
            |workers| fig4_points(&WorkerPool::new(workers), &[300.0, 3_000.0], &[1.0], 0.5e-3);
        let baseline = sweep(1);
        assert_eq!(baseline.len(), 4);
        for workers in [2, 8] {
            assert_eq!(sweep(workers), baseline, "differs at {workers} workers");
        }
    }
}
