//! Table 1 (device properties) and Table 2 (the standard cells,
//! characterized by exact density-matrix simulation).

use hetarch::prelude::*;

use crate::header;

/// Prints Table 1: properties of near-term superconducting devices.
pub fn table1() {
    header(
        "Table 1",
        "Properties of near-term superconducting quantum devices",
    );
    println!(
        "{:<42} {:>14} {:>10} {:>18} {:>6} {:>9} {:>22}",
        "Device", "T1/T2 (ms)", "Readout", "Gate (err@time)", "Conn", "Ctrl I/O", "Footprint (mm)"
    );
    for d in catalog::catalog() {
        let readout = d
            .readout_time
            .map(|t| format!("{:.0} us", t * 1e6))
            .unwrap_or_else(|| "N/A".into());
        let gate = match (d.gate_2q, d.gate_set) {
            (Some(g), _) => format!("{:.0e}@{:.0}ns (arb)", g.error, g.time * 1e9),
            (None, _) => format!("{:.0e}@{:.0}ns (SWAP)", d.swap.error, d.swap.time * 1e9),
        };
        let fp = if d.footprint.z_mm > 0.0 {
            format!(
                "{} x {} x {}",
                d.footprint.x_mm, d.footprint.y_mm, d.footprint.z_mm
            )
        } else {
            format!("{} x {}", d.footprint.x_mm, d.footprint.y_mm)
        };
        println!(
            "{:<42} {:>6.1}/{:<7.1} {:>10} {:>18} {:>6} {:>9} {:>22}",
            d.name,
            d.t1 * 1e3,
            d.t2 * 1e3,
            readout,
            gate,
            d.max_connectivity,
            d.control.total(),
            fp
        );
    }
    println!();
    println!("Extended storage options (paper §3.1 discussion, beyond Table 1):");
    for d in hetarch::devices::catalog::extended_storage_options() {
        println!(
            "  {:<40} T1 = {:>8.1} ms   swap {:.0e}@{:.0}ns",
            d.name,
            d.t1 * 1e3,
            d.swap.error,
            d.swap.time * 1e9
        );
    }
    println!();
    println!("Control-overhead comparison (paper §3.1): storing 30 qubits");
    let (het, hom) = hetarch::devices::footprint::control_savings(30, 10);
    println!("  heterogeneous (3 resonators): {het} lines");
    println!("  homogeneous  (30 transmons):  {hom} lines");
}

/// Prints Table 2, every cell characterized through one [`CellLibrary`].
pub fn table2() {
    header(
        "Table 2",
        "Quantum standard cells (density-matrix characterization; Table-1 devices)",
    );
    let lib = CellLibrary::new();
    let compute = catalog::fixed_frequency_qubit();
    let storage = catalog::multimode_resonator_3d();

    let reg = lib.get::<RegisterCell>(&compute, &storage);
    println!("Register  (1 storage + 1 compute, DR2/DR4 compliant)");
    println!(
        "  load/save: F = {:.5} in {:.0} ns; Ts = {:.1} ms over {} modes",
        reg.load.fidelity,
        reg.load.duration * 1e9,
        reg.storage_idle.t1 * 1e3,
        reg.modes
    );

    let pc = lib.get::<ParCheckCell>(&compute, &compute);
    println!("ParCheck  (2 compute, one with readout)");
    println!(
        "  parity check: F = {:.5} in {:.2} us (1q {:.0} ns / 2q {:.0} ns / readout {:.0} us)",
        pc.parity.fidelity,
        pc.parity.duration * 1e6,
        pc.gate_1q.time * 1e9,
        pc.gate_2q.time * 1e9,
        pc.readout_time * 1e6
    );

    let seq = lib.get::<SeqOpCell>(&compute, &storage);
    println!("SeqOp     (2 Registers + readout compute in a triangle)");
    println!(
        "  stored-qubit CNOT: F = {:.5} in {:.2} us; side parity check F = {:.5}",
        seq.seq_cnot.fidelity,
        seq.seq_cnot.duration * 1e6,
        seq.parity.fidelity
    );

    let usc = lib.get::<UscCell>(&compute, &storage);
    println!("USC       (3 Registers around a readout ancilla)");
    println!(
        "  weight-2 Z check: F = {:.5} in {:.2} us; capacity {} qubits",
        usc.check2.fidelity,
        usc.check2.duration * 1e6,
        usc.capacity
    );
    println!(
        "  serialized check durations: w=4 -> {:.2} us, w=8 -> {:.2} us",
        usc.check_duration(4) * 1e6,
        usc.check_duration(8) * 1e6
    );

    println!();
    println!("Swapping the storage unit (same cells, different device):");
    for s in [catalog::memory_3d(), catalog::on_chip_multimode_resonator()] {
        let reg = lib.get::<RegisterCell>(&compute, &s);
        println!(
            "  Register with {:<38} load F = {:.5}, Ts = {:>5.1} ms",
            s.name,
            reg.load.fidelity,
            reg.storage_idle.t1 * 1e3
        );
    }
}
