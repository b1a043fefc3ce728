//! Property tests for [`QueryKey`] canonicalization: semantically equal
//! requests must coalesce (equal keys) and semantically distinct requests
//! must never collide (injective keys).

use proptest::collection::vec;
use proptest::prelude::*;

use hetarch_devices::json::{parse, Json};
use hetarch_serve::query::{parse_query, Query, DEFAULT_SEED, DEFAULT_SHOTS};

/// The distances the server accepts (USC capacity bound).
const DISTANCES: [u32; 2] = [3, 5];
/// A coarse grid of valid storage-coherence values; duplicates are likely,
/// which is exactly what exercises the canonical `dedup`.
const TS_GRID: [f64; 6] = [0.5e-3, 1e-3, 2.5e-3, 5e-3, 12.5e-3, 0.1];

fn distances() -> impl Strategy<Value = Vec<u32>> {
    vec((0usize..DISTANCES.len()).prop_map(|i| DISTANCES[i]), 1..6)
}

fn ts_values() -> impl Strategy<Value = Vec<f64>> {
    vec((0usize..TS_GRID.len()).prop_map(|i| TS_GRID[i]), 1..6)
}

fn sweep_query() -> impl Strategy<Value = Query> {
    (distances(), ts_values(), 1u32..=1_000_000, 0u64..=u64::MAX).prop_map(
        |(distances, ts_values, shots, seed)| Query::SweepUec {
            distances,
            ts_values,
            shots,
            seed,
        },
    )
}

fn rare_query() -> impl Strategy<Value = Query> {
    (
        (0usize..DISTANCES.len()).prop_map(|i| DISTANCES[i]),
        (0usize..TS_GRID.len()).prop_map(|i| TS_GRID[i]),
        1u32..=64,
        0.01f64..=1.0,
        1u32..=1_000_000,
        0u64..=u64::MAX,
    )
        .prop_map(
            |(distance, ts, max_strata, rel_tol, shots_per_stratum, seed)| Query::RareUec {
                distance,
                ts,
                max_strata,
                rel_tol,
                shots_per_stratum,
                seed,
            },
        )
}

fn any_query() -> impl Strategy<Value = Query> {
    prop_oneof![sweep_query(), rare_query()]
}

/// Applies a permutation derived from `perm` to `values`.
fn shuffled<T: Clone>(values: &[T], perm: u64) -> Vec<T> {
    let mut out: Vec<T> = values.to_vec();
    let mut state = perm;
    for i in (1..out.len()).rev() {
        // SplitMix64 step: deterministic, no RNG dependency in the test.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

fn canonical(mut q: Query) -> Query {
    q.canonicalize();
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Reordering (and duplicating) sweep axes never changes the key.
    fn reordered_axes_share_a_key(
        query in sweep_query(),
        perm in 0u64..=u64::MAX,
        dup in 0u32..2,
    ) {
        let Query::SweepUec { distances, ts_values, shots, seed } = &query else {
            unreachable!("sweep_query only builds SweepUec");
        };
        let mut shuffled_d = shuffled(distances, perm);
        let mut shuffled_ts = shuffled(ts_values, perm.rotate_left(17));
        if dup == 1 {
            shuffled_d.push(shuffled_d[0]);
            shuffled_ts.push(shuffled_ts[0]);
        }
        let reordered = Query::SweepUec {
            distances: shuffled_d,
            ts_values: shuffled_ts,
            shots: *shots,
            seed: *seed,
        };
        prop_assert_eq!(query.key(), reordered.key());
    }

    /// Omitting a field is the same key as spelling out its default —
    /// checked through the real JSON parser, which is what the server runs.
    fn omitted_defaults_match_explicit_defaults(
        distances in distances(),
        ts_index in 0usize..TS_GRID.len(),
        omit_shots in 0u32..2,
        omit_seed in 0u32..2,
    ) {
        let ts = TS_GRID[ts_index];
        let d_json = Json::Arr(distances.iter().map(|&d| Json::Int(i64::from(d))).collect());
        let mut implicit = vec![
            ("query", Json::Str("sweep_uec".to_string())),
            ("distances", d_json.clone()),
            ("ts_values", Json::Arr(vec![Json::Num(ts)])),
        ];
        if omit_shots == 0 {
            implicit.push(("shots", Json::Int(i64::from(DEFAULT_SHOTS))));
        }
        if omit_seed == 0 {
            implicit.push(("seed", Json::Int(DEFAULT_SEED as i64)));
        }
        let explicit = Json::obj([
            ("query", Json::Str("sweep_uec".to_string())),
            ("distances", d_json),
            ("ts_values", Json::Arr(vec![Json::Num(ts)])),
            ("shots", Json::Int(i64::from(DEFAULT_SHOTS))),
            ("seed", Json::Int(DEFAULT_SEED as i64)),
        ]);
        // Round-trip both through render + parse: exactly the wire path.
        let implicit = parse_query(&parse(&Json::obj(implicit).render()).unwrap()).unwrap();
        let explicit = parse_query(&parse(&explicit.render()).unwrap()).unwrap();
        prop_assert_eq!(implicit.key(), explicit.key());
    }

    /// Keys are injective on canonical queries: two requests share a key
    /// iff their canonical forms are equal — across query kinds too.
    fn keys_are_injective_on_canonical_queries(
        a in any_query(),
        b in any_query(),
    ) {
        let (ca, cb) = (canonical(a), canonical(b));
        prop_assert_eq!(ca.key() == cb.key(), ca == cb);
    }

    /// Parsing is idempotent on keys: rendering a parsed query's canonical
    /// JSON and re-parsing it yields the same key.
    ///
    /// Seeds stay within `i64` because the JSON integer literal is signed;
    /// the typed [`Query`] itself carries a full `u64`.
    fn wire_round_trip_preserves_the_key(
        distances in distances(),
        ts_values in ts_values(),
        shots in 1u32..=1_000_000,
        seed in 0u64..=i64::MAX as u64,
    ) {
        let query = Query::SweepUec {
            distances: distances.clone(),
            ts_values: ts_values.clone(),
            shots,
            seed,
        };
        let body = Json::obj([
            ("query", Json::Str("sweep_uec".to_string())),
            (
                "distances",
                Json::Arr(distances.iter().map(|&d| Json::Int(i64::from(d))).collect()),
            ),
            (
                "ts_values",
                Json::Arr(ts_values.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("shots", Json::Int(i64::from(shots))),
            ("seed", Json::Int(seed as i64)),
        ]);
        let parsed = parse_query(&parse(&body.render()).unwrap()).unwrap();
        prop_assert_eq!(parsed.key(), query.key());
    }
}
