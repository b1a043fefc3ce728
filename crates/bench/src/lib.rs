//! # hetarch-bench
//!
//! Every table and figure of the HetArch paper's evaluation (see
//! `DESIGN.md`'s experiment index), printed by the one `figs` binary:
//!
//! | artifact | paper artifact | module |
//! |----------|----------------|--------|
//! | `table1` | Table 1 — device properties | [`devices`] |
//! | `table2` | Table 2 — standard-cell characterization | [`devices`] |
//! | `fig3`   | Fig. 3 — distillation fidelity over time | [`distill`] |
//! | `fig4`   | Fig. 4 — distilled-EP rate vs generation rate × T_S | [`distill`] |
//! | `fig6`   | Fig. 6 — d=13 surface code vs data/ancilla coherence | [`surface`] |
//! | `fig7`   | Fig. 7 — logical error vs distance for T_CD/T_CA ratios | [`surface`] |
//! | `fig9`   | Fig. 9 — QEC codes on the UEC module vs T_S | [`uec`] |
//! | `table3` | Table 3 — UEC vs homogeneous logical error rates | [`uec`] |
//! | `fig12`  | Fig. 12 — code teleportation vs T_S | [`ct`] |
//! | `table4` | Table 4 — CT logical error, all code pairs | [`ct`] |
//! | `dse_cost` | §1/§2 — hierarchical-simulation burden reduction | [`cost`] |
//! | `ablations` | design-choice ablations and the §4.1/§3.1 sizing studies | [`ablations`] |
//!
//! Each grid artifact (fig4, fig6, fig7, fig9, fig12, table4) defines its
//! sweep once, as a typed point function making one
//! [`hetarch::dse::sweep_on`] call; its printer renders those points and
//! the tests assert on them. Points run at fixed seeds, with their nested
//! Monte Carlo inline on the sweep's worker, so the printed text is the
//! same for any worker count.
//!
//! Run e.g. `cargo run --release -p hetarch-bench --bin figs -- fig4`
//! (no name prints all twelve). The binary reads `HETARCH_SHOTS` and
//! `HETARCH_DURATION_MS` once into a [`Scale`].

use hetarch::exec::WorkerPool;

pub mod ablations;
pub mod cost;
pub mod ct;
pub mod devices;
pub mod distill;
pub mod surface;
pub mod uec;

/// Run-size overrides shared by every artifact: a Monte-Carlo shot count
/// and an event-simulation duration. `None` keeps each artifact's default.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Scale {
    /// Shots per Monte-Carlo estimate (`HETARCH_SHOTS`).
    pub shots: Option<usize>,
    /// Event-simulation duration in milliseconds (`HETARCH_DURATION_MS`).
    pub duration_ms: Option<f64>,
}

impl Scale {
    /// Parses `HETARCH_SHOTS` and `HETARCH_DURATION_MS`; `None` (variable
    /// unset) keeps the default. Panics if the shot count is not a positive
    /// integer or the duration not a positive, finite number.
    pub fn parse(shots: Option<&str>, duration_ms: Option<&str>) -> Self {
        Scale {
            shots: shots.map(|s| match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => panic!("HETARCH_SHOTS must be a positive integer, got `{s}`"),
            }),
            duration_ms: duration_ms.map(|s| match s.trim().parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms > 0.0 => ms,
                _ => panic!("HETARCH_DURATION_MS must be a positive, finite number, got `{s}`"),
            }),
        }
    }

    /// Monte-Carlo shots: the override, else `default`.
    pub fn shots(&self, default: usize) -> usize {
        self.shots.unwrap_or(default)
    }

    /// Event-simulation duration in seconds: the override, else
    /// `default_ms` milliseconds.
    pub fn duration(&self, default_ms: f64) -> f64 {
        self.duration_ms.unwrap_or(default_ms) * 1e-3
    }
}

/// Prints one artifact at the given scale, its Monte Carlo on the pool.
pub type Printer = fn(&WorkerPool, &Scale);

/// Every artifact's name and printer, in the experiment index's order.
pub const ARTIFACTS: [(&str, Printer); 12] = [
    ("table1", |_, _| devices::table1()),
    ("table2", |_, _| devices::table2()),
    ("fig3", |_, _| distill::fig3()),
    ("fig4", distill::fig4),
    ("fig6", surface::fig6),
    ("fig7", surface::fig7),
    ("fig9", uec::fig9),
    ("table3", uec::table3),
    ("fig12", ct::fig12),
    ("table4", ct::table4),
    ("dse_cost", |_, _| cost::dse_cost()),
    ("ablations", ablations::ablations),
];

/// Prints a figure/table header with provenance.
pub(crate) fn header(id: &str, caption: &str) {
    println!("== {id} ==");
    println!("{caption}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_without_env() {
        assert_eq!(Scale::default().shots(123), 123);
        assert_eq!(Scale::default().duration(2.0), 2e-3);
    }

    #[test]
    fn env_values_override_defaults() {
        let scale = Scale::parse(Some(" 2048 "), Some("0.5"));
        assert_eq!(scale.shots(123), 2048);
        assert_eq!(scale.duration(2.0), 0.5e-3);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `abc`")]
    fn shots_rejects_garbage() {
        Scale::parse(Some("abc"), None);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `0`")]
    fn shots_rejects_zero() {
        Scale::parse(Some("0"), None);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `-3`")]
    fn shots_rejects_negative() {
        Scale::parse(Some("-3"), None);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `NaN`")]
    fn shots_rejects_nan() {
        Scale::parse(Some("NaN"), None);
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `abc`")]
    fn duration_rejects_garbage() {
        Scale::parse(None, Some("abc"));
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `0`")]
    fn duration_rejects_zero() {
        Scale::parse(None, Some("0"));
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `-3`")]
    fn duration_rejects_negative() {
        Scale::parse(None, Some("-3"));
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `NaN`")]
    fn duration_rejects_nan() {
        Scale::parse(None, Some("NaN"));
    }
}
