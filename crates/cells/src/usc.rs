//! The Universal Stabilizer Cell `USC` and its chaining extension `USC-EXT`
//! (paper Table 2 row 4 and §4.2.2, Fig. 8).
//!
//! Three Register subcells arranged around a central readout-equipped
//! compute device (the stabilizer ancilla). Checks are *serialized*: data
//! qubits are swapped out of storage, entangled with the ancilla, and
//! swapped back — trading time (and hence demanding long `T_S`) for
//! topology-agnostic error correction.

use hetarch_qsim::channels::{IdleParams, Kraus1, Kraus2};
use hetarch_qsim::gates;
use hetarch_qsim::measure::project_z;
use hetarch_qsim::state::DensityMatrix;
use serde::{Deserialize, Serialize};

use hetarch_devices::device::{DeviceRole, DeviceSpec, GateSpec};
use hetarch_devices::rules::{validate, Violation};
use hetarch_devices::topology::{DeviceGraph, DeviceId};

use crate::channel::OpChannel;

/// The abstracted USC cost/fidelity model consumed by the UEC module.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UscChannel {
    /// Register load/store gate (storage SWAP).
    pub swap: GateSpec,
    /// Compute–ancilla two-qubit gate.
    pub cx: GateSpec,
    /// Single-qubit gate.
    pub gate_1q: GateSpec,
    /// Ancilla readout duration.
    pub readout_time: f64,
    /// Storage idle parameters (per mode).
    pub storage_idle: IdleParams,
    /// Compute/ancilla idle parameters.
    pub compute_idle: IdleParams,
    /// Total storage capacity of the cell (modes × registers).
    pub capacity: u32,
    /// Number of Register subcells (qubits addressable in parallel).
    pub registers: u32,
    /// DM-characterized weight-2 Z-check channel.
    pub check2: OpChannel,
}

impl UscChannel {
    /// Wall-clock duration of a serialized weight-`w` stabilizer check:
    /// parallel swap-out (grouped by register), serial CXs to the shared
    /// ancilla, parallel swap-back, readout.
    pub fn check_duration(&self, weight: usize) -> f64 {
        let groups = weight.div_ceil(self.registers as usize) as f64;
        2.0 * groups * self.swap.time + weight as f64 * self.cx.time + self.readout_time
    }
}

/// The USC standard cell (three Registers + central ancilla).
///
/// # Examples
///
/// ```
/// use hetarch_cells::usc::UscCell;
/// use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};
///
/// let cell = UscCell::new(fixed_frequency_qubit(), on_chip_multimode_resonator())?;
/// let ch = cell.characterize();
/// assert_eq!(ch.capacity, 30);
/// assert!(ch.check2.fidelity > 0.9);
/// # Ok::<(), Vec<hetarch_devices::rules::Violation>>(())
/// ```
#[derive(Clone, Debug)]
pub struct UscCell {
    pub(crate) layout: DeviceGraph,
    ancilla: DeviceId,
    registers: Vec<(DeviceId, DeviceId)>, // (storage, compute) pairs
}

impl UscCell {
    /// Builds and design-rule-checks the USC.
    ///
    /// # Errors
    ///
    /// Returns design-rule violations.
    pub fn new(compute: DeviceSpec, storage: DeviceSpec) -> Result<Self, Vec<Violation>> {
        Self::with_registers(compute, storage, 3)
    }

    /// Builds a USC variant with `n_registers ∈ 1..=3` Register subcells
    /// (the paper notes four would exhaust the ancilla's connectivity, DR1).
    ///
    /// # Errors
    ///
    /// Returns design-rule violations.
    pub fn with_registers(
        compute: DeviceSpec,
        storage: DeviceSpec,
        n_registers: usize,
    ) -> Result<Self, Vec<Violation>> {
        assert_eq!(compute.role, DeviceRole::Compute);
        assert_eq!(storage.role, DeviceRole::Storage);
        assert!(
            (1..=3).contains(&n_registers),
            "USC supports 1–3 registers (4 would exhaust DR1)"
        );
        let mut layout = DeviceGraph::new();
        let ancilla = layout.add_device("usc/ancilla", compute.clone(), true);
        let mut registers = Vec::new();
        for i in 0..n_registers {
            let s = layout.add_device(format!("usc/s{i}"), storage.clone(), false);
            let c = layout.add_device(format!("usc/c{i}"), compute.clone(), false);
            layout.connect(s, c);
            layout.connect(c, ancilla);
            registers.push((s, c));
        }
        validate(&layout, 1)?;
        Ok(UscCell {
            layout,
            ancilla,
            registers,
        })
    }

    /// The symbolic layout.
    pub fn layout(&self) -> &DeviceGraph {
        &self.layout
    }

    /// The central ancilla id.
    pub fn ancilla(&self) -> DeviceId {
        self.ancilla
    }

    /// The (storage, compute) register pairs.
    pub fn registers(&self) -> &[(DeviceId, DeviceId)] {
        &self.registers
    }

    /// Characterizes the cell. The weight-2 Z-check is simulated exactly on
    /// five qubits (two storage modes, two register computes, the ancilla):
    /// swap out, serial CXs onto the ancilla, swap back, measure — with gate
    /// depolarizing and idle decay at every phase. Fidelity is the
    /// probability of a correct syndrome bit with all data preserved,
    /// averaged over the four classical inputs.
    pub fn characterize(&self) -> UscChannel {
        // Per-slot specs: a calibration snapshot may have overridden each
        // layout slot individually, so every parameter is read from the node
        // it belongs to rather than from one shared compute/storage spec.
        // The weight-2 check probes the first two registers (a 1-register
        // variant reuses register 0 for both roles).
        let anc = &self.layout.node(self.ancilla).spec;
        let (s0_id, c0_id) = self.registers[0];
        let &(s1_id, c1_id) = self.registers.get(1).unwrap_or(&self.registers[0]);
        let s0 = &self.layout.node(s0_id).spec;
        let c0 = &self.layout.node(c0_id).spec;
        let s1 = &self.layout.node(s1_id).spec;
        let c1 = &self.layout.node(c1_id).spec;
        let g1 = c0.gate_1q.expect("compute defines 1q gates");
        let g2_c0 = c0.gate_2q.expect("compute defines 2q gates");
        let g2_c1 = c1.gate_2q.expect("compute defines 2q gates");
        let t_read = anc.readout_time.expect("compute has readout");
        let storage_idle = IdleParams::new(s0.t1, s0.t2).expect("physical coherence");
        let compute_idle = IdleParams::new(anc.t1, anc.t2).expect("physical coherence");
        let idle_s1 = IdleParams::new(s1.t1, s1.t2).expect("physical coherence");
        let idle_c0 = IdleParams::new(c0.t1, c0.t2).expect("physical coherence");
        let idle_c1 = IdleParams::new(c1.t1, c1.t2).expect("physical coherence");

        let depol_swap0 = Kraus2::depolarizing(s0.swap.error).expect("validated");
        let depol_swap1 = Kraus2::depolarizing(s1.swap.error).expect("validated");
        let depol_g2_c0 = Kraus2::depolarizing(g2_c0.error).expect("validated");
        let depol_g2_c1 = Kraus2::depolarizing(g2_c1.error).expect("validated");

        // Both registers' swaps run in parallel, so the swap phase lasts as
        // long as the slower of the two (equal when uncalibrated).
        let swap_phase = s0.swap.time.max(s1.swap.time);

        // Idle channels are built once per (slot, phase duration) and reused
        // across inputs, so each compiles its superoperator kernel exactly
        // once. Application order (storage slots 0, 2 then compute slots
        // 1, 3, 4) matches the pre-calibration code path bit for bit.
        let slot_idles: [(usize, &IdleParams); 5] = [
            (0, &storage_idle),
            (2, &idle_s1),
            (1, &idle_c0),
            (3, &idle_c1),
            (4, &compute_idle),
        ];
        let channels_for = |t: f64| -> Vec<(usize, Kraus1)> {
            slot_idles
                .iter()
                .map(|&(q, p)| (q, p.channel(t).expect("valid")))
                .collect()
        };
        let idle_swap = channels_for(swap_phase);
        let idle_g2_first = channels_for(g2_c0.time);
        let idle_g2_second = channels_for(g2_c1.time);
        let idle_read = channels_for(t_read);

        // Qubits: 0 = s0 mode, 1 = c0, 2 = s1 mode, 3 = c1, 4 = ancilla.
        // All four classical inputs run the same circuit, so they are
        // materialized up front and every channel step is one batched
        // apply over the whole probe set.
        let idle_all = |states: &mut [DensityMatrix], chs: &[(usize, Kraus1)]| {
            for (q, ch) in chs {
                ch.apply_batch(states, *q);
            }
        };
        let mut states: Vec<DensityMatrix> = (0..4usize)
            .map(|input| {
                let mut rho = DensityMatrix::zero_state(5);
                if input & 1 == 1 {
                    gates::x(&mut rho, 0);
                }
                if input & 2 == 2 {
                    gates::x(&mut rho, 2);
                }
                rho
            })
            .collect();
        // Swap out (parallel: data live in different registers).
        for rho in states.iter_mut() {
            gates::swap(rho, 0, 1);
            gates::swap(rho, 2, 3);
        }
        depol_swap0.apply_batch(&mut states, 0, 1);
        depol_swap1.apply_batch(&mut states, 2, 3);
        idle_all(&mut states, &idle_swap);
        // Serial CXs to ancilla; each is driven by its register's compute
        // device, so its gate quality and duration apply.
        for rho in states.iter_mut() {
            gates::cnot(rho, 1, 4);
        }
        depol_g2_c0.apply_batch(&mut states, 1, 4);
        idle_all(&mut states, &idle_g2_first);
        for rho in states.iter_mut() {
            gates::cnot(rho, 3, 4);
        }
        depol_g2_c1.apply_batch(&mut states, 3, 4);
        idle_all(&mut states, &idle_g2_second);
        // Swap back.
        for rho in states.iter_mut() {
            gates::swap(rho, 0, 1);
            gates::swap(rho, 2, 3);
        }
        depol_swap0.apply_batch(&mut states, 0, 1);
        depol_swap1.apply_batch(&mut states, 2, 3);
        idle_all(&mut states, &idle_swap);
        // Readout window.
        idle_all(&mut states, &idle_read);

        let mut total = 0.0;
        for (input, rho) in states.iter().enumerate() {
            let parity = ((input & 1) ^ ((input >> 1) & 1)) == 1;
            let p_syndrome = {
                let mut b = rho.clone();
                project_z(&mut b, 4, parity)
            };
            let p_data0 = {
                let mut b = rho.clone();
                project_z(&mut b, 0, input & 1 == 1)
            };
            let p_data1 = {
                let mut b = rho.clone();
                project_z(&mut b, 2, input & 2 == 2)
            };
            total += p_syndrome * p_data0 * p_data1;
        }
        let fidelity = (total / 4.0).clamp(0.0, 1.0);
        // `x + x` equals `2.0 * x` bit for bit, so the uncalibrated duration
        // is unchanged by summing the two serial CX times.
        let duration = 2.0 * swap_phase + (g2_c0.time + g2_c1.time) + t_read;

        // Summary fields describe the first register's slots and the
        // ancilla (the check2 channel above already accounts for per-slot
        // differences).
        UscChannel {
            swap: s0.swap,
            cx: g2_c0,
            gate_1q: g1,
            readout_time: t_read,
            storage_idle,
            compute_idle,
            capacity: self.registers.len() as u32 * s0.capacity,
            registers: self.registers.len() as u32,
            check2: OpChannel::new("z_check_w2", duration, fidelity, 1),
        }
    }
}

/// A USC chained with `USC-EXT` cells for codes beyond 30 qubits (Fig. 8):
/// each extension adds two Registers and a readout ancilla, chained through
/// the ancillas while respecting DR1.
#[derive(Clone, Debug)]
pub struct UscChain {
    layout: DeviceGraph,
    capacity: u32,
    num_ancillas: u32,
}

impl UscChain {
    /// Builds a chain of one USC and `n_ext` extensions.
    ///
    /// # Errors
    ///
    /// Returns design-rule violations.
    pub fn new(
        compute: DeviceSpec,
        storage: DeviceSpec,
        n_ext: usize,
    ) -> Result<Self, Vec<Violation>> {
        let usc = UscCell::new(compute.clone(), storage.clone())?;
        let mut prev_ancilla = usc.ancilla;
        let mut layout = usc.layout;
        let mut capacity = storage.capacity * 3;
        for e in 0..n_ext {
            // USC-EXT: two registers + ancilla.
            let ancilla = layout.add_device(format!("ext{e}/ancilla"), compute.clone(), true);
            for i in 0..2 {
                let s = layout.add_device(format!("ext{e}/s{i}"), storage.clone(), false);
                let c = layout.add_device(format!("ext{e}/c{i}"), compute.clone(), false);
                layout.connect(s, c);
                layout.connect(c, ancilla);
            }
            layout.connect(prev_ancilla, ancilla);
            capacity += storage.capacity * 2;
            prev_ancilla = ancilla;
        }
        validate(&layout, 1 + n_ext)?;
        Ok(UscChain {
            layout,
            capacity,
            num_ancillas: 1 + n_ext as u32,
        })
    }

    /// The merged layout.
    pub fn layout(&self) -> &DeviceGraph {
        &self.layout
    }

    /// Total storage capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of stabilizer ancillas in the chain.
    pub fn num_ancillas(&self) -> u32 {
        self.num_ancillas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};

    fn usc() -> UscCell {
        UscCell::new(fixed_frequency_qubit(), on_chip_multimode_resonator()).unwrap()
    }

    #[test]
    fn usc_layout_counts() {
        let c = usc();
        assert_eq!(c.layout().num_devices(), 7);
        assert_eq!(c.layout().degree(c.ancilla()), 3);
        assert_eq!(c.registers().len(), 3);
    }

    #[test]
    fn check_duration_scales_with_weight() {
        let ch = usc().characterize();
        let d2 = ch.check_duration(2);
        let d4 = ch.check_duration(4);
        let d8 = ch.check_duration(8);
        assert!(d2 < d4 && d4 < d8);
        // Weight 2 fits in one swap group: 2 swaps + 2 CX + readout.
        assert!((d2 - (2.0 * 100e-9 + 2.0 * 100e-9 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn check2_fidelity_band() {
        let ch = usc().characterize();
        // Four noisy swaps at 1e-2 dominate: F ≈ (0.99)^4-ish ≈ 0.95–0.99.
        assert!(
            ch.check2.fidelity > 0.9 && ch.check2.fidelity < 0.999,
            "check fidelity {}",
            ch.check2.fidelity
        );
    }

    #[test]
    fn usc_capacity_is_thirty() {
        let ch = usc().characterize();
        assert_eq!(ch.capacity, 30);
    }

    #[test]
    fn longer_storage_coherence_improves_check() {
        let short = UscCell::new(
            fixed_frequency_qubit(),
            on_chip_multimode_resonator().with_coherence(0.1e-3, 0.1e-3),
        )
        .unwrap()
        .characterize();
        let long = UscCell::new(
            fixed_frequency_qubit(),
            on_chip_multimode_resonator().with_coherence(50e-3, 50e-3),
        )
        .unwrap()
        .characterize();
        assert!(long.check2.fidelity > short.check2.fidelity);
    }

    #[test]
    fn chain_respects_design_rules() {
        for n_ext in 0..3 {
            let chain = UscChain::new(
                fixed_frequency_qubit(),
                on_chip_multimode_resonator(),
                n_ext,
            )
            .unwrap();
            assert_eq!(chain.capacity(), 30 + 20 * n_ext as u32);
            assert_eq!(chain.num_ancillas(), 1 + n_ext as u32);
        }
    }

    #[test]
    fn four_registers_rejected() {
        let r = UscCell::with_registers(fixed_frequency_qubit(), on_chip_multimode_resonator(), 3);
        assert!(r.is_ok());
        // 4 registers is a programming error (DR1), enforced by assert.
        let caught = std::panic::catch_unwind(|| {
            let _ =
                UscCell::with_registers(fixed_frequency_qubit(), on_chip_multimode_resonator(), 4);
        });
        assert!(caught.is_err());
    }
}
