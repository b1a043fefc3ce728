//! # hetarch-bench
//!
//! The benchmark harness regenerating every table and figure of the HetArch
//! paper's evaluation (see `DESIGN.md`'s experiment index):
//!
//! | target | artifact |
//! |--------|----------|
//! | `table1` | Table 1 — device properties |
//! | `table2` | Table 2 — standard-cell characterization |
//! | `fig3`   | Fig. 3 — distillation fidelity over time |
//! | `fig4`   | Fig. 4 — distilled-EP rate vs generation rate × T_S |
//! | `fig6`   | Fig. 6 — d=13 surface code vs data/ancilla coherence |
//! | `fig7`   | Fig. 7 — logical error vs distance for T_CD/T_CA ratios |
//! | `fig9`   | Fig. 9 — QEC codes on the UEC module vs T_S |
//! | `table3` | Table 3 — UEC vs homogeneous logical error rates |
//! | `fig12`  | Fig. 12 — code teleportation vs T_S |
//! | `table4` | Table 4 — CT logical error, all code pairs |
//! | `dse_cost` | §1/§2 — hierarchical-simulation burden reduction |
//! | `ablations` | design-choice ablations (DEJMPS fast path, scheduler policy, assignment search, SWAP-error sensitivity, chain parallelism) |
//!
//! Run e.g. `cargo run --release -p hetarch-bench --bin fig4`.
//! Environment knobs: `HETARCH_SHOTS` scales Monte-Carlo shot counts,
//! `HETARCH_DURATION_MS` scales event-simulation durations.

/// Monte-Carlo shots, honoring the `HETARCH_SHOTS` override.
///
/// # Panics
///
/// Panics if `HETARCH_SHOTS` is set to anything but a positive integer.
pub fn shots(default: usize) -> usize {
    shots_from_env_str(std::env::var("HETARCH_SHOTS").ok().as_deref(), default)
}

/// Resolves a shot count from an optional `HETARCH_SHOTS` value — the
/// testable seam behind [`shots`]. `None` (variable unset) yields
/// `default`.
///
/// # Panics
///
/// Panics if the value is not a positive integer.
pub fn shots_from_env_str(value: Option<&str>, default: usize) -> usize {
    match value {
        None => default,
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HETARCH_SHOTS must be a positive integer, got `{s}`"),
        },
    }
}

/// Event-simulation duration in seconds, honoring `HETARCH_DURATION_MS`.
///
/// # Panics
///
/// Panics if `HETARCH_DURATION_MS` is set to anything but a positive,
/// finite number of milliseconds.
pub fn sim_duration(default_ms: f64) -> f64 {
    sim_duration_from_env_str(
        std::env::var("HETARCH_DURATION_MS").ok().as_deref(),
        default_ms,
    )
}

/// Resolves an event-simulation duration in seconds from an optional
/// `HETARCH_DURATION_MS` value — the testable seam behind
/// [`sim_duration`]. `None` (variable unset) yields `default_ms`.
///
/// # Panics
///
/// Panics if the value is not a positive, finite number.
pub fn sim_duration_from_env_str(value: Option<&str>, default_ms: f64) -> f64 {
    let ms = match value {
        None => default_ms,
        Some(s) => match s.trim().parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms > 0.0 => ms,
            _ => panic!("HETARCH_DURATION_MS must be a positive, finite number, got `{s}`"),
        },
    };
    ms * 1e-3
}

/// Prints a figure/table header with provenance.
pub fn header(id: &str, caption: &str) {
    println!("== {id} ==");
    println!("{caption}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_without_env() {
        assert_eq!(shots_from_env_str(None, 123), 123);
        assert_eq!(sim_duration_from_env_str(None, 2.0), 2e-3);
    }

    #[test]
    fn env_values_override_defaults() {
        assert_eq!(shots_from_env_str(Some(" 2048 "), 123), 2048);
        assert_eq!(sim_duration_from_env_str(Some("0.5"), 2.0), 0.5e-3);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `abc`")]
    fn shots_rejects_garbage() {
        shots_from_env_str(Some("abc"), 1);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `0`")]
    fn shots_rejects_zero() {
        shots_from_env_str(Some("0"), 1);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `-3`")]
    fn shots_rejects_negative() {
        shots_from_env_str(Some("-3"), 1);
    }

    #[test]
    #[should_panic(expected = "HETARCH_SHOTS must be a positive integer, got `NaN`")]
    fn shots_rejects_nan() {
        shots_from_env_str(Some("NaN"), 1);
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `abc`")]
    fn duration_rejects_garbage() {
        sim_duration_from_env_str(Some("abc"), 1.0);
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `0`")]
    fn duration_rejects_zero() {
        sim_duration_from_env_str(Some("0"), 1.0);
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `-3`")]
    fn duration_rejects_negative() {
        sim_duration_from_env_str(Some("-3"), 1.0);
    }

    #[test]
    #[should_panic(expected = "HETARCH_DURATION_MS must be a positive, finite number, got `NaN`")]
    fn duration_rejects_nan() {
        sim_duration_from_env_str(Some("NaN"), 1.0);
    }
}
