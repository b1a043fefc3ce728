//! `hetbench compare PARENT_DIR CHANGE_DIR`: the A/B rule over two sets of
//! result files, one verdict per end-to-end metric and workload.

use std::collections::BTreeMap;
use std::path::Path;

use hetarch::devices::json::{self, Json};

use crate::stats::{quartiles, verdict, Verdict};
use crate::BenchDef;

/// workload → seed → metric → value.
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Runs::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let is_result = path.extension().is_some_and(|e| e == "json")
            && !path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("trace-"));
        if !is_result {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed), Some(Json::Obj(metrics))) = (
            file.get("workload").and_then(Json::as_str),
            file.get("seed").and_then(Json::as_u64),
            file.get("metrics"),
        ) else {
            return Err(format!("{}: not a hetbench result file", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_string())
            .or_default()
            .insert(seed, values);
    }
    Ok(runs)
}

/// Prints one row per metric and workload; returns false if any metric
/// regressed beyond its bound.
pub fn compare(parent_dir: &Path, change_dir: &Path, def: &BenchDef) -> Result<bool, String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut clean = true;
    println!(
        "{:<20} {:<16} {:>5} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "wins"
    );
    for workload in &def.workloads {
        let empty = BTreeMap::new();
        let (p, c) = (
            parent.get(workload).unwrap_or(&empty),
            change.get(workload).unwrap_or(&empty),
        );
        for m in &def.end_to_end {
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(seed, pm)| Some((*pm.get(&m.name)?, *c.get(seed)?.get(&m.name)?)))
                .collect();
            let v = verdict(&pairs, m.better, m.bound);
            clean &= v != Verdict::Regression;
            let side = |i: usize| {
                let values: Vec<f64> = pairs
                    .iter()
                    .map(|p| if i == 0 { p.0 } else { p.1 })
                    .collect();
                let [q1, q2, q3] = quartiles(&values);
                format!("{q1:.4}/{q2:.4}/{q3:.4}")
            };
            let wins = pairs.iter().filter(|(a, b)| m.better.beats(*b, *a)).count();
            println!(
                "{workload:<20} {:<16} {:>5} {:>32} {:>32} {:>3}/{:<2}  {v:?}",
                m.name,
                pairs.len(),
                side(0),
                side(1),
                wins,
                pairs.len()
            );
        }
    }
    Ok(clean)
}
