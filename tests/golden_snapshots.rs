//! Golden-snapshot suite: byte-stable renderings of the characterized cell
//! channels and module-level rate curves at pinned seeds.
//!
//! Regenerate after an intentional model change with
//! `GOLDEN_UPDATE=1 cargo test -q --test golden_snapshots` and review the
//! diff of `tests/golden/*.txt`.

use std::path::{Path, PathBuf};

use hetarch::modules::faults::{estimate, Estimate, Estimator, RunCtx};
use hetarch::prelude::*;
use hetarch::stab::codes::{rotated_surface_code, steane};
use hetarch::testkit::prelude::*;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn spec(s: &mut Snapshot, prefix: &str, g: &hetarch::devices::GateSpec) {
    s.f64(&format!("{prefix}.time"), g.time)
        .f64(&format!("{prefix}.error"), g.error);
}

fn op(s: &mut Snapshot, prefix: &str, c: &OpChannel) {
    s.field(&format!("{prefix}.op"), &c.op)
        .f64(&format!("{prefix}.duration"), c.duration)
        .f64(&format!("{prefix}.fidelity"), c.fidelity)
        .field(&format!("{prefix}.concurrency"), c.concurrency);
}

fn idle(s: &mut Snapshot, prefix: &str, i: &IdleParams) {
    s.f64(&format!("{prefix}.t1"), i.t1)
        .f64(&format!("{prefix}.t2"), i.t2);
}

/// Renders every field of the four characterized cell channels, plus their
/// binary serde encodings, for the paper's standard device pairings.
fn cell_channel_snapshot() -> Snapshot {
    let lib = CellLibrary::new();
    let transmon = catalog::fixed_frequency_qubit();
    let resonator = catalog::multimode_resonator_3d();

    let mut s = Snapshot::new(
        "characterized cell channels: fixed-frequency transmon + 3D multimode resonator \
         (ParCheck: + flux-tunable transmon)",
    );

    let reg = lib.get::<RegisterCell>(&transmon, &resonator);
    s.section("register");
    op(&mut s, "load", &reg.load);
    idle(&mut s, "storage_idle", &reg.storage_idle);
    idle(&mut s, "compute_idle", &reg.compute_idle);
    s.field("modes", reg.modes).serde_hex("serde", &*reg);

    let pc = lib.get::<ParCheckCell>(&transmon, &catalog::flux_tunable_qubit());
    s.section("parcheck");
    op(&mut s, "parity", &pc.parity);
    spec(&mut s, "gate_1q", &pc.gate_1q);
    spec(&mut s, "gate_2q", &pc.gate_2q);
    s.f64("readout_time", pc.readout_time);
    idle(&mut s, "idle_a", &pc.idle_a);
    idle(&mut s, "idle_b", &pc.idle_b);
    s.serde_hex("serde", &*pc);

    let seq = lib.get::<SeqOpCell>(&transmon, &resonator);
    s.section("seqop");
    op(&mut s, "seq_cnot", &seq.seq_cnot);
    op(&mut s, "parity", &seq.parity);
    idle(&mut s, "storage_idle", &seq.storage_idle);
    idle(&mut s, "compute_idle", &seq.compute_idle);
    s.field("modes", seq.modes).serde_hex("serde", &*seq);

    let usc = lib.get::<UscCell>(&transmon, &resonator);
    s.section("usc");
    spec(&mut s, "swap", &usc.swap);
    spec(&mut s, "cx", &usc.cx);
    spec(&mut s, "gate_1q", &usc.gate_1q);
    s.f64("readout_time", usc.readout_time);
    idle(&mut s, "storage_idle", &usc.storage_idle);
    idle(&mut s, "compute_idle", &usc.compute_idle);
    s.field("capacity", usc.capacity)
        .field("registers", usc.registers);
    op(&mut s, "check2", &usc.check2);
    s.serde_hex("serde", &*usc);

    s
}

/// UEC logical-error-rate curve over storage coherence, at a pinned seed,
/// computed on the given pool (worker-count invariance is asserted by the
/// caller).
fn uec_rate_snapshot(pool: &WorkerPool) -> Snapshot {
    let shots = 2_000;
    let seed = 61;
    let mut s = Snapshot::new("UEC logical error rates, 2000 shots, seed 61");
    for code in [steane(), rotated_surface_code(3)] {
        for ts_ms in [0.5, 5.0, 50.0] {
            let usc = UscCell::new(
                catalog::coherence_limited_compute(0.5e-3),
                catalog::coherence_limited_storage(ts_ms * 1e-3),
            )
            .unwrap()
            .characterize();
            let r = UecModule::new(code.clone(), usc, UecNoise::default())
                .logical_error_rate_on(pool, shots, seed);
            s.section(&format!("{} ts={}ms", code.name(), ts_ms));
            s.f64("logical_error_rate", r.logical_error_rate)
                .f64("cycle_duration", r.cycle_duration)
                .field("shots", r.shots);
        }
    }
    s
}

/// Rates of the two other lookup-decoded modules at a pinned seed: Steane
/// on USC chains with one and two extension links, and rotated d=3 on the
/// homogeneous square-lattice baseline, plus small rare-event reports of the
/// baseline and of the single-USC module (their `FaultDriver` replays).
fn chain_hom_rate_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::modules::uec::ChainUecModule;

    let shots = 2_000;
    let seed = 61;
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(5e-3),
    )
    .unwrap()
    .characterize();
    let mut s = Snapshot::new(
        "chain and homogeneous-baseline logical error rates, 2000 shots, seed 61; \
         rare-event reports, seed 43",
    );
    for n_ext in [1, 2] {
        let r = ChainUecModule::new(steane(), usc.clone(), n_ext, UecNoise::default())
            .logical_error_rate_on(pool, shots, seed);
        s.section(&format!("chain Steane n_ext={n_ext}"));
        s.f64("logical_error_rate", r.logical_error_rate)
            .f64("cycle_duration", r.cycle_duration)
            .field("shots", r.shots);
    }
    for tc_ms in [0.5, 5.0] {
        let r = HomModule::new(rotated_surface_code(3), tc_ms * 1e-3, UecNoise::default())
            .logical_error_rate_on(pool, shots, seed);
        s.section(&format!("hom SC3 tc={tc_ms}ms"));
        s.f64("logical_error_rate", r.logical_error_rate)
            .f64("cycle_duration", r.cycle_duration)
            .field("swaps_per_cycle", r.swaps_per_cycle);
    }
    let config = RareConfig {
        max_strata: 4,
        rel_tol: 0.5,
        shots_per_stratum: 1_024,
        enumerate_threshold: 64,
        ..RareConfig::default()
    };
    let ctx = RunCtx {
        pool,
        seed: 43,
        cancel: None,
    };
    let rare = |est: Result<Estimate, _>| est.unwrap().into_rare().expect("rare outcome");
    let hom = HomModule::new(rotated_surface_code(3), 5e-3, UecNoise::default());
    let hom = rare(estimate(&hom, Estimator::Rare(config), &ctx));
    rare_sections(&mut s, "hom SC3 rare", "hom SC3 rare ", hom);
    let uec = UecModule::new(steane(), usc, UecNoise::default());
    let uec = rare(estimate(&uec, Estimator::Rare(config), &ctx));
    rare_sections(&mut s, "uec Steane rare", "uec Steane rare ", uec);
    s
}

/// Renders a rare-event outcome: the headline estimate and error budget in
/// section `head`, then one `{stratum_prefix}stratum w=k` section per
/// stratum.
fn rare_sections(s: &mut Snapshot, head: &str, stratum_prefix: &str, outcome: RareOutcome) {
    let converged = outcome.is_converged();
    let report = outcome.into_report();
    s.section(head);
    s.f64("p_l", report.p_l)
        .f64("sigma", report.sigma)
        .f64("truncation_bound", report.truncation_bound)
        .field("total_shots", report.total_shots)
        .field("num_sites", report.num_sites)
        .field("converged", converged);
    for stratum in &report.strata {
        s.section(&format!("{stratum_prefix}stratum w={}", stratum.weight));
        s.f64("prior", stratum.prior)
            .f64("failure_rate", stratum.failure_rate)
            .field("shots", stratum.shots)
            .field("failures", stratum.failures)
            .field("enumerated", stratum.enumerated);
    }
}

/// Distillation module report for the paper's heterogeneous configuration
/// at a pinned seed.
fn distill_snapshot() -> Snapshot {
    let cfg = DistillConfig::heterogeneous(12.5e-3, 1e6, 7);
    let report = DistillModule::new(cfg).run(0.5e-3);
    let mut s = Snapshot::new("distillation report: heterogeneous ts=12.5ms, 1 MHz, seed 7");
    s.section("report");
    s.f64("duration", report.duration)
        .field("arrivals", report.arrivals)
        .field("rounds_attempted", report.rounds_attempted)
        .field("rounds_succeeded", report.rounds_succeeded)
        .field("delivered", report.delivered)
        .f64("delivered_rate_hz", report.delivered_rate_hz)
        .f64("best_fidelity", report.best_fidelity)
        .serde_hex("serde", &report);
    s
}

/// Renders the scalar fields of a distillation report.
fn distill_report_fields(s: &mut Snapshot, report: &DistillReport) {
    s.f64("duration", report.duration)
        .field("arrivals", report.arrivals)
        .field("rounds_attempted", report.rounds_attempted)
        .field("rounds_succeeded", report.rounds_succeeded)
        .field("delivered", report.delivered)
        .f64("delivered_rate_hz", report.delivered_rate_hz)
        .f64("best_fidelity", report.best_fidelity)
        .field("trace_points", report.trace.len());
}

/// Distillation paths the consumed-output 1 MHz golden does not reach: a
/// Fig. 3 trace run (output kept and decaying in the output memory,
/// fidelity sampled every microsecond) and a homogeneous report at 10 MHz,
/// where EP arrivals dominate the event count.
fn distill_trace_snapshot() -> Snapshot {
    let mut s = Snapshot::new(
        "distillation: Fig. 3 trace (heterogeneous ts=12.5ms, 2 MHz, seed 3, output kept, \
         1 us samples, 100 us) and homogeneous 10 MHz report (seed 7, 0.5 ms)",
    );
    let mut cfg = DistillConfig::heterogeneous(12.5e-3, 2e6, 3);
    cfg.consume_output = false;
    cfg.trace_interval = Some(1e-6);
    let report = DistillModule::new(cfg).run(100e-6);
    s.section("fig3 trace");
    distill_report_fields(&mut s, &report);
    for (i, p) in report.trace.iter().enumerate() {
        s.field(
            &format!("trace.{i}"),
            format!(
                "t={:?} memory={:?} output={:?}",
                p.time, p.memory_infidelity, p.output_infidelity
            ),
        );
    }
    let report = DistillModule::new(DistillConfig::homogeneous(10e6, 7)).run(0.5e-3);
    s.section("homogeneous 10MHz");
    distill_report_fields(&mut s, &report);
    s.serde_hex("serde", &report);
    s
}

/// Weight-stratified rare-event report for a d=5 surface memory at a
/// pinned seed: headline estimate, error budget and the full per-stratum
/// tallies (prior, conditional failure rate, shots, enumeration flag).
fn rare_report_snapshot(pool: &WorkerPool) -> Snapshot {
    let memory = SurfaceMemory::new(
        5,
        2,
        SurfaceNoise {
            t_data: 1.0,
            t_anc: 1.0,
            p1: 5e-5,
            p2: 5e-4,
            p_meas: 2e-4,
            ..SurfaceNoise::default()
        },
    );
    let config = RareConfig {
        max_strata: 6,
        rel_tol: 0.5,
        shots_per_stratum: 512,
        enumerate_threshold: 256,
        ..RareConfig::default()
    };
    let outcome = memory.logical_error_rate_rare_on(
        pool,
        hetarch::stab::codes::SurfaceDecoder::UnionFind,
        config,
        41,
    );
    let mut s = Snapshot::new("d=5 rare-event report: stratified estimator, seed 41");
    rare_sections(&mut s, "report", "", outcome);
    s
}

/// Serve-layer snapshot: the always-on [`ServerStats`] counters after a
/// deterministic scripted session, plus the byte-exact sweep response.
///
/// Deliberately built from feature-independent pieces only (no `obs`
/// counters): the golden CI job runs without the `obs` feature. The script
/// is fully sequential on one connection, so every counter is exact, and
/// the caller asserts worker-count invariance across server pools.
fn serve_stats_snapshot(workers: usize) -> Snapshot {
    use hetarch::devices::json::Json;
    use hetarch::serve::{Client, Server, ServerConfig};

    let server = Server::start(ServerConfig {
        workers,
        executors: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let sweep = Json::obj([
        ("query", Json::Str("sweep_uec".to_string())),
        ("distances", Json::Arr(vec![Json::Int(3)])),
        (
            "ts_values",
            Json::Arr(vec![Json::Num(0.5e-3), Json::Num(5e-3)]),
        ),
        ("shots", Json::Int(500)),
        ("seed", Json::Int(61)),
    ]);
    // 1: computed; 2: identical query → cache hit, same bytes.
    let cold = client.request_raw(sweep.render().as_bytes()).expect("cold");
    let warm = client.request_raw(sweep.render().as_bytes()).expect("warm");
    assert_eq!(cold, warm, "cache hit must reuse the exact bytes");
    // 3: malformed body → error reply, connection stays up.
    let bad = client.request_raw(b"not json").expect("malformed reply");
    assert!(String::from_utf8_lossy(&bad).contains("\"status\":\"error\""));
    // 4: contained executor panic.
    let panic_reply = client
        .request_raw(br#"{"query":"test_panic"}"#)
        .expect("panic reply");
    assert!(String::from_utf8_lossy(&panic_reply).contains("panicked"));

    let mut s = Snapshot::new(
        "serve counters + sweep response after a scripted session: \
         sweep, cache hit, malformed body, contained panic",
    );
    s.section("stats");
    s.field("counters", server.stats().to_json().render());
    s.section("sweep_response");
    s.field("bytes", String::from_utf8(cold).expect("UTF-8 response"));
    server.shutdown();
    s
}

#[test]
fn serve_stats_golden_is_worker_count_invariant() {
    let single = serve_stats_snapshot(1);
    let four = serve_stats_snapshot(4);
    assert_eq!(
        single.render(),
        four.render(),
        "serve counters and response bytes must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "serve_stats", &single);
}

#[test]
fn rare_report_golden_is_worker_count_invariant() {
    let single = rare_report_snapshot(&WorkerPool::new(1));
    let eight = rare_report_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "rare-event report must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "rare_report_d5", &single);
}

#[test]
fn cell_channel_goldens_are_bit_stable() {
    let first = cell_channel_snapshot();
    let second = cell_channel_snapshot();
    assert_eq!(
        first.render(),
        second.render(),
        "cell characterization must render identically across runs"
    );
    assert_golden(&golden_dir(), "cell_channels", &first);
}

#[test]
fn uec_rate_goldens_are_worker_count_invariant() {
    // Pools of 1 and 8 workers: the sharded Monte-Carlo seeding makes the
    // rendered curve identical regardless of parallelism.
    let single = uec_rate_snapshot(&WorkerPool::new(1));
    let eight = uec_rate_snapshot(&WorkerPool::new(8));
    assert_eq!(
        single.render(),
        eight.render(),
        "UEC rate curve must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "uec_rates", &single);
}

#[test]
fn chain_hom_rate_golden_is_worker_count_invariant() {
    let single = chain_hom_rate_snapshot(&WorkerPool::new(1));
    let four = chain_hom_rate_snapshot(&WorkerPool::new(4));
    assert_eq!(
        single.render(),
        four.render(),
        "chain and baseline rates must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "chain_hom_rates", &single);
}

#[test]
fn distill_report_golden_is_bit_stable() {
    let first = distill_snapshot();
    let second = distill_snapshot();
    assert_eq!(first.render(), second.render());
    assert_golden(&golden_dir(), "distill_report", &first);
}

#[test]
fn distill_trace_golden_is_bit_stable() {
    let first = distill_trace_snapshot();
    let second = distill_trace_snapshot();
    assert_eq!(first.render(), second.render());
    assert_golden(&golden_dir(), "distill_trace", &first);
}

/// Calibration-snapshot sweep golden: the committed fleet fixture drives a
/// `calib_sweep` through the exact serve evaluation path, side by side with
/// the uncalibrated sweep over the same axes. Pins (a) the strict schema
/// accepting the fixture, (b) the overrides demonstrably reaching
/// characterization (the two responses differ), and (c) byte-stability of
/// the calibrated response.
fn calib_sweep_snapshot(pool: &WorkerPool) -> Snapshot {
    use hetarch::serve::{evaluate, Query};

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fleet_calib_v1.json");
    let text = std::fs::read_to_string(&fixture).expect("read committed fleet fixture");
    let calib = CalibSnapshot::parse(&text).expect("fixture obeys the calib schema");
    assert!(!calib.is_empty(), "the fixture must carry overrides");

    let lib = CellLibrary::new();
    let token = hetarch::exec::CancelToken::new();
    let distances = vec![3, 5];
    let ts_values = vec![0.5e-3, 5e-3];
    let plain = Query::SweepUec {
        distances: distances.clone(),
        ts_values: ts_values.clone(),
        shots: 500,
        seed: 61,
    };
    let fleet = Query::CalibSweep {
        distances,
        ts_values,
        shots: 500,
        seed: 61,
        calib: calib.clone(),
    };
    assert_ne!(plain.key(), fleet.key(), "fleet sweeps must not coalesce");
    let nominal = evaluate(&plain, &lib, pool, &token)
        .expect("uncancelled sweep")
        .render();
    let calibrated = evaluate(&fleet, &lib, pool, &token)
        .expect("uncancelled calib sweep")
        .render();
    assert_ne!(
        nominal, calibrated,
        "fixture overrides must reach characterization and move the sweep"
    );

    let mut s = Snapshot::new(
        "calib_sweep over tests/fixtures/fleet_calib_v1.json vs the uncalibrated sweep, \
         d in {3,5} x ts in {0.5ms, 5ms}, 500 shots, seed 61",
    );
    s.section("snapshot");
    s.field("canonical_json", calib.to_json().render());
    s.section("nominal_response");
    s.field("bytes", nominal);
    s.section("fleet_response");
    s.field("bytes", calibrated);
    s
}

#[test]
fn calib_sweep_golden_is_worker_count_invariant() {
    let single = calib_sweep_snapshot(&WorkerPool::new(1));
    let four = calib_sweep_snapshot(&WorkerPool::new(4));
    assert_eq!(
        single.render(),
        four.render(),
        "calibrated sweep must not depend on the worker count"
    );
    assert_golden(&golden_dir(), "calib_sweep", &single);
}

/// Every slot label a calibration snapshot can address across the four
/// cell kinds and a two-extension USC chain.
fn all_slot_labels() -> Vec<String> {
    let mut labels: Vec<String> = [
        "register/compute",
        "register/storage",
        "parcheck/a",
        "parcheck/b",
        "seqop/s1",
        "seqop/c1",
        "seqop/s2",
        "seqop/c2",
        "seqop/cp",
        "usc/ancilla",
    ]
    .iter()
    .map(|l| l.to_string())
    .collect();
    for i in 0..3 {
        labels.push(format!("usc/s{i}"));
        labels.push(format!("usc/c{i}"));
    }
    for e in 0..2 {
        labels.push(format!("ext{e}/ancilla"));
        for i in 0..2 {
            labels.push(format!("ext{e}/s{i}"));
            labels.push(format!("ext{e}/c{i}"));
        }
    }
    labels
}

/// One snapshot overriding every field of every slot label with a value
/// distinct from every other slot's, so a slot read from the wrong node
/// (or not calibrated at all) changes the render.
fn full_fleet_snapshot() -> CalibSnapshot {
    let mut snap = CalibSnapshot {
        device: "golden-fleet".to_string(),
        taken_at: "2026-01-01T00:00:00Z".to_string(),
        ..CalibSnapshot::default()
    };
    for (i, label) in all_slot_labels().into_iter().enumerate() {
        let k = i as f64;
        let storage = label.contains("/s");
        let (t1, t2) = if storage {
            (2e-3 + 1e-4 * k, 1.5e-3 + 7e-5 * k)
        } else {
            (200e-6 + 11e-6 * k, 150e-6 + 7e-6 * k)
        };
        snap.qubits.insert(
            label,
            CalibParams {
                t1: Some(t1),
                t2: Some(t2),
                gate_1q_error: Some(1e-4 + 1e-5 * k),
                gate_2q_error: Some(5e-4 + 1e-4 * k),
                swap_error: Some(2e-3 + 2e-4 * k),
                readout_time: Some(400e-9 + 20e-9 * k),
            },
        );
    }
    snap
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Calibrated characterization golden: all four cell kinds under one
/// snapshot that overrides every slot, the calibrated USC-chain layouts,
/// and the cache keys with and without the snapshot.
fn calib_cells_snapshot() -> Snapshot {
    let calib = full_fleet_snapshot();
    let plain = CalibSnapshot::default();
    let c = catalog::fixed_frequency_qubit();
    let st = catalog::on_chip_multimode_resonator();
    let lib = CellLibrary::new();

    let mut s = Snapshot::new(
        "calibrated cells: fixed-frequency transmon + on-chip multimode resonator, \
         every slot label overridden with distinct values",
    );
    s.section("snapshot");
    s.field("canonical_json", calib.to_json().render());

    s.section("register");
    let reg = lib.get_with_calib::<RegisterCell>(&c, &st, &calib);
    assert_ne!(*reg, *lib.get::<RegisterCell>(&c, &st));
    s.serde_hex("serde", &*reg);
    s.section("parcheck");
    let pc = lib.get_with_calib::<ParCheckCell>(&c, &c, &calib);
    assert_ne!(*pc, *lib.get::<ParCheckCell>(&c, &c));
    s.serde_hex("serde", &*pc);
    s.section("seqop");
    let seq = lib.get_with_calib::<SeqOpCell>(&c, &st, &calib);
    assert_ne!(*seq, *lib.get::<SeqOpCell>(&c, &st));
    s.serde_hex("serde", &*seq);
    s.section("usc");
    let usc = lib.get_with_calib::<UscCell>(&c, &st, &calib);
    assert_ne!(*usc, *lib.get::<UscCell>(&c, &st));
    s.serde_hex("serde", &*usc);

    for n_ext in [1, 2] {
        let chain =
            UscChain::new(c.clone(), st.clone(), n_ext).expect("chain obeys the design rules");
        let mut layout = chain.layout().clone();
        layout.calibrate(&calib);
        s.section(&format!("usc_chain.n_ext={n_ext}"));
        s.field("capacity", chain.capacity())
            .serde_hex("layout", &layout);
    }

    s.section("char_keys");
    for kind in CellKind::ALL {
        let b = if kind == CellKind::ParCheck { &c } else { &st };
        let name = kind.name();
        s.field(
            &format!("{name}.plain"),
            hex(CharKey::new(kind, &c, b, &plain).as_bytes()),
        );
        s.field(
            &format!("{name}.calib"),
            hex(CharKey::new(kind, &c, b, &calib).as_bytes()),
        );
    }
    s
}

#[test]
fn calib_cells_golden_is_bit_stable() {
    let first = calib_cells_snapshot();
    let second = calib_cells_snapshot();
    assert_eq!(
        first.render(),
        second.render(),
        "calibrated characterization must render identically across runs"
    );
    assert_golden(&golden_dir(), "calib_cells", &first);
}
