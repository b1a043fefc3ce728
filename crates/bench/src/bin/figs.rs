//! Prints the named paper artifacts (all twelve, in index order, when none
//! is named): `figs [NAME...]`. `HETARCH_SHOTS` and `HETARCH_DURATION_MS`
//! scale the Monte-Carlo shot counts and event-simulation durations.

use hetarch::exec::WorkerPool;
use hetarch_bench::{Scale, ARTIFACTS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for name in &names {
        let Some(&(_, print)) = ARTIFACTS.iter().find(|(n, _)| n == name) else {
            let valid: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "unknown artifact `{name}`; valid names: {}",
                valid.join(" ")
            );
            std::process::exit(2);
        };
        selected.push(print);
    }
    if names.is_empty() {
        selected = ARTIFACTS.iter().map(|&(_, print)| print).collect();
    }
    let var = |name| std::env::var(name).ok();
    let scale = Scale::parse(
        var("HETARCH_SHOTS").as_deref(),
        var("HETARCH_DURATION_MS").as_deref(),
    );
    let pool = WorkerPool::available();
    for (i, print) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        print(&pool, &scale);
    }
}
