//! The near-term superconducting device catalog (paper Table 1).
//!
//! Values are the paper's estimates from the cited experimental literature;
//! they represent best observed properties, not at-scale demonstrations.

use crate::device::{
    ControlOverhead, DeviceKind, DeviceRole, DeviceSpec, Footprint, GateSet, GateSpec,
};

/// Fixed-frequency planar qubit (e.g. transmon): `T1 = 300 µs`,
/// `T2 = 550 µs`, 1 µs readout, arbitrary 1Q/2Q gates at `1e-3` (100 ns),
/// connectivity 4.
pub fn fixed_frequency_qubit() -> DeviceSpec {
    DeviceSpec {
        name: "Fixed-frequency qubit".into(),
        kind: DeviceKind::FixedFrequencyQubit,
        role: DeviceRole::Compute,
        t1: 300e-6,
        t2: 550e-6,
        readout_time: Some(1e-6),
        gate_set: GateSet::Arbitrary,
        gate_1q: Some(GateSpec::new(40e-9, 1e-3)),
        gate_2q: Some(GateSpec::new(100e-9, 1e-3)),
        swap: GateSpec::new(100e-9, 1e-3),
        max_connectivity: 4,
        capacity: 1,
        control: ControlOverhead {
            charge_lines: 1,
            flux_lines: 0,
            readout_lines: 1,
        },
        footprint: Footprint::planar(2.0, 2.0),
        notes: "e.g. transmon".into(),
    }
}

/// Flux-tunable planar qubit (e.g. fluxonium): `T1 = 800 µs`, `T2 = 200 µs`,
/// extra flux bias line.
pub fn flux_tunable_qubit() -> DeviceSpec {
    DeviceSpec {
        name: "Flux-tunable qubit".into(),
        kind: DeviceKind::FluxTunableQubit,
        role: DeviceRole::Compute,
        t1: 800e-6,
        t2: 200e-6,
        readout_time: Some(1e-6),
        gate_set: GateSet::Arbitrary,
        gate_1q: Some(GateSpec::new(40e-9, 1e-3)),
        gate_2q: Some(GateSpec::new(100e-9, 1e-3)),
        swap: GateSpec::new(100e-9, 1e-3),
        max_connectivity: 4,
        capacity: 1,
        control: ControlOverhead {
            charge_lines: 1,
            flux_lines: 1,
            readout_lines: 1,
        },
        footprint: Footprint::planar(2.0, 2.0),
        notes: "e.g. fluxonium".into(),
    }
}

/// Single-mode 3D cavity memory: `T1 = 25 ms`, `T2 = 30 ms`, SWAP-only
/// access at `1e-2` (1 µs); requires 2D/3D integration.
pub fn memory_3d() -> DeviceSpec {
    DeviceSpec {
        name: "3D quantum memory".into(),
        kind: DeviceKind::Memory3D,
        role: DeviceRole::Storage,
        t1: 25e-3,
        t2: 30e-3,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(1e-6, 1e-2),
        max_connectivity: 1,
        capacity: 1,
        control: ControlOverhead::default(),
        footprint: Footprint {
            x_mm: 50.0,
            y_mm: 0.5,
            z_mm: 1.0,
        },
        notes: "requires 2D/3D integration".into(),
    }
}

/// 3D multimode resonator with 10 modes: `T1 = 2 ms`, `T2 = 2.5 ms`,
/// 400 ns SWAP at `1e-2`.
pub fn multimode_resonator_3d() -> DeviceSpec {
    DeviceSpec {
        name: "3D multimode resonator (10 modes)".into(),
        kind: DeviceKind::MultimodeResonator3D,
        role: DeviceRole::Storage,
        t1: 2e-3,
        t2: 2.5e-3,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(400e-9, 1e-2),
        max_connectivity: 1,
        capacity: 10,
        control: ControlOverhead::default(),
        footprint: Footprint {
            x_mm: 100.0,
            y_mm: 100.0,
            z_mm: 10.0,
        },
        notes: "requires 2D/3D integration".into(),
    }
}

/// Projected on-chip multimode resonator: `T1 = T2 = 1 ms`, 100 ns SWAP at
/// `1e-2`; no experimental demonstration yet (paper §3.1 discussion).
pub fn on_chip_multimode_resonator() -> DeviceSpec {
    DeviceSpec {
        name: "Future on-chip multimode resonator".into(),
        kind: DeviceKind::OnChipMultimodeResonator,
        role: DeviceRole::Storage,
        t1: 1e-3,
        t2: 1e-3,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(100e-9, 1e-2),
        max_connectivity: 1,
        capacity: 10,
        control: ControlOverhead::default(),
        footprint: Footprint::planar(5.0, 5.0),
        notes: "no demonstration".into(),
    }
}

/// All Table 1 devices, in row order.
pub fn catalog() -> Vec<DeviceSpec> {
    vec![
        fixed_frequency_qubit(),
        flux_tunable_qubit(),
        memory_3d(),
        multimode_resonator_3d(),
        on_chip_multimode_resonator(),
    ]
}

/// Single-mode planar resonator (§3.1: coherence times of 1 ms demonstrated
/// on-chip \[41\]).
pub fn planar_resonator() -> DeviceSpec {
    DeviceSpec {
        name: "Single-mode planar resonator".into(),
        kind: DeviceKind::Custom,
        role: DeviceRole::Storage,
        t1: 1e-3,
        t2: 1e-3,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(100e-9, 1e-2),
        max_connectivity: 1,
        capacity: 1,
        control: ControlOverhead::default(),
        footprint: Footprint::planar(3.0, 0.5),
        notes: "on-chip, single mode".into(),
    }
}

/// Micromachined resonator (§3.1: 5 ms coherence \[63\]).
pub fn micromachined_resonator() -> DeviceSpec {
    DeviceSpec {
        name: "Micromachined resonator".into(),
        kind: DeviceKind::Custom,
        role: DeviceRole::Storage,
        t1: 5e-3,
        t2: 5e-3,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(400e-9, 1e-2),
        max_connectivity: 1,
        capacity: 1,
        control: ControlOverhead::default(),
        footprint: Footprint {
            x_mm: 10.0,
            y_mm: 10.0,
            z_mm: 0.5,
        },
        notes: "requires 2D/3D integration".into(),
    }
}

/// Speculative nanomechanical resonator (§3.1: >1 s phonon lifetimes \[69\] if
/// coupling to superconducting qubits \[93\] succeeds).
pub fn nanomechanical_resonator() -> DeviceSpec {
    DeviceSpec {
        name: "Nanomechanical resonator (speculative)".into(),
        kind: DeviceKind::Custom,
        role: DeviceRole::Storage,
        t1: 1.0,
        t2: 1.0,
        readout_time: None,
        gate_set: GateSet::SwapOnly,
        gate_1q: None,
        gate_2q: None,
        swap: GateSpec::new(1e-6, 5e-2),
        max_connectivity: 1,
        capacity: 1,
        control: ControlOverhead::default(),
        footprint: Footprint::planar(0.1, 0.1),
        notes: "no demonstrated qubit coupling; §5 future option".into(),
    }
}

/// The §3.1 extended storage options beyond Table 1's rows.
pub fn extended_storage_options() -> Vec<DeviceSpec> {
    vec![
        planar_resonator(),
        micromachined_resonator(),
        nanomechanical_resonator(),
    ]
}

/// A storage device with the given per-mode coherence `T_S` (the §4 sweep
/// knob): the on-chip multimode resonator rescaled to `T1 = T2 = ts`.
pub fn storage_with_ts(ts: f64) -> DeviceSpec {
    on_chip_multimode_resonator()
        .with_coherence(ts, ts)
        .renamed(format!("Storage (Ts = {:.1} ms)", ts * 1e3))
}

/// A compute device with coherence `T_C` (`T1 = T2 = tc`), the §4 sweep
/// knob for compute qubits.
pub fn compute_with_tc(tc: f64) -> DeviceSpec {
    fixed_frequency_qubit()
        .with_coherence(tc, tc)
        .renamed(format!("Compute (Tc = {:.1} ms)", tc * 1e3))
}

/// The §4 evaluation compute device: `T1 = T2 = tc` and **coherence-limited
/// gates** — 40 ns / 100 ns durations with no intrinsic gate error (all loss
/// comes from idle decay during the gate), plus 1 µs error-free readout, as
/// stated in the paper's §4 preamble.
pub fn coherence_limited_compute(tc: f64) -> DeviceSpec {
    let mut d = compute_with_tc(tc);
    d.gate_1q = Some(GateSpec::new(40e-9, 0.0));
    d.gate_2q = Some(GateSpec::new(100e-9, 0.0));
    d.swap = GateSpec::new(100e-9, 0.0);
    d.name = format!("Compute CL (Tc = {:.2} ms)", tc * 1e3);
    d
}

/// The §4 evaluation storage device: per-mode `T1 = T2 = ts` with a
/// coherence-limited 100 ns SWAP.
pub fn coherence_limited_storage(ts: f64) -> DeviceSpec {
    let mut d = storage_with_ts(ts);
    d.swap = GateSpec::new(100e-9, 0.0);
    d.name = format!("Storage CL (Ts = {:.2} ms)", ts * 1e3);
    d
}

/// The homogeneous baseline's "memory": compute qubits pressed into storage
/// service, modeled as a pseudo-storage spec so the same Register pipeline
/// characterizes both systems. In simulation it differs from
/// [`coherence_limited_storage`] only in coherence (`T_S = T_C`): it holds
/// `capacity` qubits per device, which the Register accesses one at a time
/// like storage modes, and it keeps the lossless 100 ns SWAP rather than a
/// SWAP built from two-qubit gates. It is therefore the heterogeneous
/// storage at a lower `T_S`. A baseline with one transmon per stored qubit
/// and gate-built moves is not modelled; ROADMAP.md tracks it under
/// "Baselines that are the paper's baselines".
pub fn homogeneous_pseudo_storage(tc: f64, capacity: u32) -> DeviceSpec {
    let mut d = coherence_limited_storage(tc);
    d.kind = DeviceKind::Custom;
    d.capacity = capacity;
    d.footprint = Footprint::planar(2.0, 2.0 * capacity as f64);
    d.name = format!("Homogeneous pseudo-storage (Tc = {:.2} ms)", tc * 1e3);
    d.notes = "compute qubits used as memory in the sea-of-qubits baseline".into();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceRole;

    #[test]
    fn catalog_has_five_rows() {
        assert_eq!(catalog().len(), 5);
    }

    #[test]
    fn all_catalog_devices_are_physical() {
        for d in catalog() {
            assert!(d.coherence_is_physical(), "{} has unphysical T1/T2", d.name);
            assert!(d.swap.time > 0.0);
        }
    }

    #[test]
    fn compute_devices_have_readout_and_gates() {
        for d in catalog() {
            match d.role {
                DeviceRole::Compute => {
                    assert!(d.has_readout(), "{}", d.name);
                    assert!(d.gate_1q.is_some() && d.gate_2q.is_some());
                    assert_eq!(d.capacity, 1);
                    assert_eq!(d.max_connectivity, 4);
                }
                DeviceRole::Storage => {
                    assert!(!d.has_readout(), "{}", d.name);
                    assert_eq!(d.max_connectivity, 1);
                    assert!(d.control.total() == 0, "storage adds no control lines");
                }
            }
        }
    }

    #[test]
    fn storage_capacities_match_table() {
        assert_eq!(memory_3d().capacity, 1);
        assert_eq!(multimode_resonator_3d().capacity, 10);
        assert_eq!(on_chip_multimode_resonator().capacity, 10);
    }

    #[test]
    fn table_values_spot_check() {
        let t = fixed_frequency_qubit();
        assert_eq!(t.t1, 300e-6);
        assert_eq!(t.t2, 550e-6);
        assert_eq!(t.gate_2q.unwrap().time, 100e-9);
        let m = memory_3d();
        assert_eq!(m.t1, 25e-3);
        assert_eq!(m.swap.time, 1e-6);
    }

    #[test]
    fn extended_storage_options_are_physical_storage() {
        for d in extended_storage_options() {
            assert!(d.coherence_is_physical(), "{}", d.name);
            assert_eq!(d.role, DeviceRole::Storage, "{}", d.name);
            assert_eq!(d.max_connectivity, 1, "{}", d.name);
            assert!(!d.has_readout(), "{}", d.name);
        }
        // The §3.1 coherence ladder: planar < micromachined < nanomechanical.
        let t1s: Vec<f64> = extended_storage_options().iter().map(|d| d.t1).collect();
        assert!(t1s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_constructors() {
        let s = storage_with_ts(12.5e-3);
        assert_eq!(s.t1, 12.5e-3);
        assert_eq!(s.role, DeviceRole::Storage);
        let c = compute_with_tc(0.5e-3);
        assert_eq!(c.t2, 0.5e-3);
        assert_eq!(c.role, DeviceRole::Compute);
    }
}
