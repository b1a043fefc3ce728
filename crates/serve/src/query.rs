//! Typed design-space queries, their canonical form, and the coalescing key.
//!
//! A query arrives as JSON, is parsed into [`Query`] (defaults filled in,
//! unknown fields rejected), **canonicalized** (sweep axes sorted and
//! deduplicated), and validated. The [`QueryKey`] is the vendored-serde
//! binary encoding of the canonical value — the same injective-bytes trick
//! as the cell library's `CharKey`, so two requests coalesce onto one
//! execution iff they ask for semantically the same work:
//!
//! * reordered or duplicated sweep axes normalize to the same key;
//! * an omitted field and its explicit default normalize to the same key;
//! * distinct canonical queries never collide (every field is written
//!   length- or tag-delimited, so the encoding is injective).

use serde::{Deserialize, Serialize};

use hetarch_devices::calib::CalibSnapshot;
use hetarch_exec::rare::RareConfig;

use hetarch_devices::json::Json;

/// Default Monte-Carlo shots per sweep point.
pub const DEFAULT_SHOTS: u32 = 4096;
/// Default seed when the request omits one.
pub const DEFAULT_SEED: u64 = 0;
/// Largest accepted shot count (per point or per stratum).
pub const MAX_SHOTS: u32 = 1_000_000;
/// Largest accepted sweep-axis lengths.
pub const MAX_AXIS_LEN: usize = 64;
/// Code distances the USC capacity admits (3 registers × 10 modes = 30
/// storage qubits; a rotated surface code needs d² data qubits).
pub const SUPPORTED_DISTANCES: [u32; 2] = [3, 5];

/// A design-space query, in canonical form once [`Query::canonicalize`] has
/// run (the parser always canonicalizes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Sweep the UEC module over code distance × storage coherence, return
    /// every point plus the (p_L, ts)-Pareto front.
    SweepUec {
        /// Code distances (subset of [`SUPPORTED_DISTANCES`]).
        distances: Vec<u32>,
        /// Storage coherence values T_S (seconds).
        ts_values: Vec<f64>,
        /// Monte-Carlo shots per design point.
        shots: u32,
        /// Base seed (worker-count-invariant sharding beneath).
        seed: u64,
    },
    /// [`Query::SweepUec`] against a calibration snapshot: every design
    /// point is characterized with the snapshot's per-device overrides
    /// applied on top of the sweep-axis specs. The snapshot is part of the
    /// canonical query, so sweeps against different fleets never coalesce.
    CalibSweep {
        /// Code distances (subset of [`SUPPORTED_DISTANCES`]).
        distances: Vec<u32>,
        /// Storage coherence values T_S (seconds).
        ts_values: Vec<f64>,
        /// Monte-Carlo shots per design point.
        shots: u32,
        /// Base seed (worker-count-invariant sharding beneath).
        seed: u64,
        /// The fleet calibration snapshot to characterize against.
        calib: CalibSnapshot,
    },
    /// Rare-event logical error rate for one UEC configuration.
    RareUec {
        /// Code distance.
        distance: u32,
        /// Storage coherence T_S (seconds).
        ts: f64,
        /// Estimator stratum cap.
        max_strata: u32,
        /// Estimator relative tolerance.
        rel_tol: f64,
        /// Conditioned shots per sampled stratum.
        shots_per_stratum: u32,
        /// Base seed.
        seed: u64,
    },
    /// Server statistics (answered inline, never queued or cached).
    Stats,
    /// Graceful shutdown (answered inline, then the server drains).
    Shutdown,
    /// Test-only: a cancellation-aware sleep of `millis` milliseconds.
    #[doc(hidden)]
    TestBlock {
        /// How long to block.
        millis: u64,
    },
    /// Test-only: panics inside the executor.
    #[doc(hidden)]
    TestPanic,
}

/// The canonical coalescing key: injective bytes over the canonical query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey(Vec<u8>);

impl QueryKey {
    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl Query {
    /// Sorts and deduplicates sweep axes in place. Parsing always
    /// canonicalizes; call this when constructing a [`Query`] directly
    /// before deriving its key.
    pub fn canonicalize(&mut self) {
        if let Query::SweepUec {
            distances,
            ts_values,
            ..
        }
        | Query::CalibSweep {
            distances,
            ts_values,
            ..
        } = self
        {
            distances.sort_unstable();
            distances.dedup();
            ts_values.sort_by(f64::total_cmp);
            ts_values.dedup_by(|a, b| a.total_cmp(b).is_eq());
        }
    }

    /// The coalescing key of the (canonicalized) query.
    pub fn key(&self) -> QueryKey {
        let mut canon = self.clone();
        canon.canonicalize();
        QueryKey(serde::to_bytes(&canon))
    }

    /// True for the admin queries the connection layer answers inline.
    pub fn is_admin(&self) -> bool {
        matches!(self, Query::Stats | Query::Shutdown)
    }

    /// The rare-estimator configuration of a [`Query::RareUec`].
    pub fn rare_config(&self) -> Option<RareConfig> {
        match self {
            Query::RareUec {
                max_strata,
                rel_tol,
                shots_per_stratum,
                ..
            } => Some(RareConfig {
                max_strata: *max_strata as usize,
                rel_tol: *rel_tol,
                shots_per_stratum: *shots_per_stratum as usize,
                ..RareConfig::default()
            }),
            _ => None,
        }
    }
}

/// Parses, canonicalizes, and validates a request body.
pub fn parse_query(body: &Json) -> Result<Query, String> {
    let fields = match body {
        Json::Obj(map) => map,
        _ => return Err("request must be a JSON object".to_string()),
    };
    let kind = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string field `query`")?;
    let known: &[&str] = match kind {
        "sweep_uec" => &["query", "distances", "ts_values", "shots", "seed"],
        "calib_sweep" => &["query", "distances", "ts_values", "shots", "seed", "calib"],
        "rare_uec" => &[
            "query",
            "distance",
            "ts",
            "max_strata",
            "rel_tol",
            "shots_per_stratum",
            "seed",
        ],
        "stats" => &["query"],
        "shutdown" => &["query"],
        "test_block" => &["query", "millis"],
        "test_panic" => &["query"],
        other => return Err(format!("unknown query kind `{other}`")),
    };
    for key in fields.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` for query `{kind}`"));
        }
    }
    let mut query = match kind {
        "sweep_uec" => Query::SweepUec {
            distances: u32_list(body, "distances")?,
            ts_values: f64_list(body, "ts_values")?,
            shots: u32_field(body, "shots", DEFAULT_SHOTS)?,
            seed: u64_field(body, "seed", DEFAULT_SEED)?,
        },
        "calib_sweep" => Query::CalibSweep {
            distances: u32_list(body, "distances")?,
            ts_values: f64_list(body, "ts_values")?,
            shots: u32_field(body, "shots", DEFAULT_SHOTS)?,
            seed: u64_field(body, "seed", DEFAULT_SEED)?,
            calib: CalibSnapshot::from_json(
                body.get("calib").ok_or("missing object field `calib`")?,
            )
            .map_err(|e| format!("invalid `calib`: {e}"))?,
        },
        "rare_uec" => {
            let defaults = RareConfig::default();
            Query::RareUec {
                distance: body
                    .get("distance")
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("missing or invalid field `distance`")?,
                ts: f64_field_required(body, "ts")?,
                max_strata: u32_field(body, "max_strata", defaults.max_strata as u32)?,
                rel_tol: f64_field(body, "rel_tol", defaults.rel_tol)?,
                shots_per_stratum: u32_field(
                    body,
                    "shots_per_stratum",
                    defaults.shots_per_stratum as u32,
                )?,
                seed: u64_field(body, "seed", DEFAULT_SEED)?,
            }
        }
        "stats" => Query::Stats,
        "shutdown" => Query::Shutdown,
        "test_block" => Query::TestBlock {
            millis: u64_field(body, "millis", 0)?,
        },
        "test_panic" => Query::TestPanic,
        _ => unreachable!("kind matched above"),
    };
    query.canonicalize();
    validate(&query)?;
    Ok(query)
}

fn validate(query: &Query) -> Result<(), String> {
    match query {
        Query::SweepUec {
            distances,
            ts_values,
            shots,
            ..
        }
        | Query::CalibSweep {
            distances,
            ts_values,
            shots,
            ..
        } => validate_sweep(distances, ts_values, *shots),
        Query::RareUec {
            distance,
            ts,
            max_strata,
            rel_tol,
            shots_per_stratum,
            ..
        } => {
            validate_distance(*distance)?;
            validate_ts(*ts)?;
            if !(*max_strata >= 1 && *max_strata <= 64) {
                return Err("`max_strata` must be in 1..=64".to_string());
            }
            if !(rel_tol.is_finite() && *rel_tol > 0.0 && *rel_tol <= 1.0) {
                return Err("`rel_tol` must be in (0, 1]".to_string());
            }
            validate_shots(*shots_per_stratum)
        }
        Query::TestBlock { millis } => {
            if *millis > 60_000 {
                return Err("`millis` is capped at 60000".to_string());
            }
            Ok(())
        }
        Query::Stats | Query::Shutdown | Query::TestPanic => Ok(()),
    }
}

fn validate_sweep(distances: &[u32], ts_values: &[f64], shots: u32) -> Result<(), String> {
    if distances.is_empty() {
        return Err("`distances` must be non-empty".to_string());
    }
    if distances.len() > MAX_AXIS_LEN || ts_values.len() > MAX_AXIS_LEN {
        return Err(format!("sweep axes are capped at {MAX_AXIS_LEN} values"));
    }
    for &d in distances {
        validate_distance(d)?;
    }
    if ts_values.is_empty() {
        return Err("`ts_values` must be non-empty".to_string());
    }
    for &ts in ts_values {
        validate_ts(ts)?;
    }
    validate_shots(shots)
}

fn validate_distance(d: u32) -> Result<(), String> {
    if SUPPORTED_DISTANCES.contains(&d) {
        Ok(())
    } else {
        // d=7 would need 49 storage qubits against the USC's capacity of 30;
        // reject here instead of panicking in the assignment search.
        Err(format!(
            "unsupported distance {d}: the USC fits d in {SUPPORTED_DISTANCES:?}"
        ))
    }
}

fn validate_ts(ts: f64) -> Result<(), String> {
    if ts.is_finite() && ts > 0.0 && ts <= 10.0 {
        Ok(())
    } else {
        Err(format!("storage coherence {ts} must be in (0, 10] seconds"))
    }
}

fn validate_shots(shots: u32) -> Result<(), String> {
    if (1..=MAX_SHOTS).contains(&shots) {
        Ok(())
    } else {
        Err(format!("shot count {shots} must be in 1..={MAX_SHOTS}"))
    }
}

fn u32_list(body: &Json, key: &str) -> Result<Vec<u32>, String> {
    let arr = body
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("`{key}` entries must be unsigned integers"))
        })
        .collect()
}

fn f64_list(body: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = body
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))?;
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("`{key}` entries must be numbers"))
        })
        .collect()
}

fn u32_field(body: &Json, key: &str, default: u32) -> Result<u32, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("`{key}` must be an unsigned 32-bit integer")),
    }
}

fn u64_field(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be an unsigned integer")),
    }
}

fn f64_field(body: &Json, key: &str, default: f64) -> Result<f64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn f64_field_required(body: &Json, key: &str) -> Result<f64, String> {
    body.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::json::parse;

    #[test]
    fn reordered_axes_share_a_key() {
        let a = parse_query(
            &parse(r#"{"query":"sweep_uec","distances":[5,3],"ts_values":[0.005,0.0005]}"#)
                .unwrap(),
        )
        .unwrap();
        let b = parse_query(
            &parse(r#"{"query":"sweep_uec","distances":[3,5,3],"ts_values":[0.0005,0.005]}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn defaults_match_explicit_fields() {
        let implicit = parse_query(
            &parse(r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005]}"#).unwrap(),
        )
        .unwrap();
        let explicit = parse_query(
            &parse(
                r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005],"shots":4096,"seed":0}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(implicit.key(), explicit.key());
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        let base = r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005]}"#;
        let variants = [
            r#"{"query":"sweep_uec","distances":[5],"ts_values":[0.005]}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.05]}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005],"shots":1}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005],"seed":1}"#,
            r#"{"query":"rare_uec","distance":3,"ts":0.005}"#,
        ];
        let key = parse_query(&parse(base).unwrap()).unwrap().key();
        for v in variants {
            let other = parse_query(&parse(v).unwrap()).unwrap().key();
            assert_ne!(key, other, "{v}");
        }
    }

    #[test]
    fn rejects_invalid_queries() {
        for bad in [
            r#"{"query":"sweep_uec","distances":[],"ts_values":[0.005]}"#,
            r#"{"query":"sweep_uec","distances":[7],"ts_values":[0.005]}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[-1.0]}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005],"shots":0}"#,
            r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005],"bogus":1}"#,
            r#"{"query":"rare_uec","ts":0.005}"#,
            r#"{"query":"rare_uec","distance":3,"ts":0.005,"rel_tol":0.0}"#,
            r#"{"query":"frobnicate"}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(
                parse_query(&parse(bad).unwrap()).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn calib_sweep_keys_by_snapshot_physics() {
        let request = |t1: &str| {
            format!(
                concat!(
                    r#"{{"query":"calib_sweep","distances":[3],"ts_values":[0.005],"#,
                    r#""calib":{{"version":1,"device":"fridge-a","#,
                    r#""qubits":{{"usc/s0":{{"t1":{},"t2":{}}}}}}}}}"#,
                ),
                t1, t1
            )
        };
        let a = parse_query(&parse(&request("0.002")).unwrap()).unwrap();
        let same = parse_query(&parse(&request("0.002")).unwrap()).unwrap();
        let degraded = parse_query(&parse(&request("0.001")).unwrap()).unwrap();
        assert_eq!(a.key(), same.key());
        assert_ne!(
            a.key(),
            degraded.key(),
            "different snapshots must not coalesce"
        );
        // And a calibrated sweep never coalesces with the plain sweep over
        // the same axes, even when the snapshot carries no overrides.
        let empty = parse_query(
            &parse(
                r#"{"query":"calib_sweep","distances":[3],"ts_values":[0.005],"calib":{"version":1,"device":"fridge-a","qubits":{}}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let plain = parse_query(
            &parse(r#"{"query":"sweep_uec","distances":[3],"ts_values":[0.005]}"#).unwrap(),
        )
        .unwrap();
        assert_ne!(empty.key(), plain.key());
    }

    #[test]
    fn calib_sweep_canonicalizes_axes_like_sweep_uec() {
        let calib = r#"{"version":1,"device":"f","qubits":{}}"#;
        let a = parse_query(
            &parse(&format!(
                r#"{{"query":"calib_sweep","distances":[5,3],"ts_values":[0.005,0.0005],"calib":{calib}}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        let b = parse_query(
            &parse(&format!(
                r#"{{"query":"calib_sweep","distances":[3,5,3],"ts_values":[0.0005,0.005],"calib":{calib}}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn calib_sweep_rejects_malformed_snapshots() {
        for bad in [
            // Missing `calib` entirely.
            r#"{"query":"calib_sweep","distances":[3],"ts_values":[0.005]}"#,
            // Not an object.
            r#"{"query":"calib_sweep","distances":[3],"ts_values":[0.005],"calib":7}"#,
            // Missing the schema version.
            r#"{"query":"calib_sweep","distances":[3],"ts_values":[0.005],"calib":{"device":"f","qubits":{}}}"#,
            // Negative t1 must be rejected at parse, not during simulation.
            r#"{"query":"calib_sweep","distances":[3],"ts_values":[0.005],"calib":{"version":1,"device":"f","qubits":{"usc/s0":{"t1":-1.0,"t2":1e-3}}}}"#,
            // The sweep validation still applies.
            r#"{"query":"calib_sweep","distances":[7],"ts_values":[0.005],"calib":{"version":1,"device":"f","qubits":{}}}"#,
        ] {
            assert!(
                parse_query(&parse(bad).unwrap()).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn admin_queries_parse() {
        assert_eq!(
            parse_query(&parse(r#"{"query":"stats"}"#).unwrap()).unwrap(),
            Query::Stats
        );
        assert_eq!(
            parse_query(&parse(r#"{"query":"shutdown"}"#).unwrap()).unwrap(),
            Query::Shutdown
        );
        assert!(parse_query(&parse(r#"{"query":"stats"}"#).unwrap())
            .unwrap()
            .is_admin());
    }
}
