//! The `SeqOp` standard cell (paper Table 2, row 3; §4.3 CAT generation).
//!
//! Two Register subcells whose compute devices are coupled to each other and
//! to a third, readout-equipped compute device. Optimized for many
//! sequential two-qubit operations between stored qubits, with parity
//! checks available on the side.

use hetarch_qsim::channels::{IdleParams, Kraus1, Kraus2};
use hetarch_qsim::complex::C64;
use hetarch_qsim::fidelity::fidelity_with_pure;
use hetarch_qsim::gates;
use hetarch_qsim::measure::project_z;
use hetarch_qsim::state::DensityMatrix;
use serde::{Deserialize, Serialize};

use hetarch_devices::device::{DeviceRole, DeviceSpec};
use hetarch_devices::rules::{validate, Violation};
use hetarch_devices::topology::{DeviceGraph, DeviceId};

use crate::channel::OpChannel;

/// The abstracted SeqOp channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeqOpChannel {
    /// A stored-qubit CNOT: load both operands, entangle, store back.
    pub seq_cnot: OpChannel,
    /// An ancilla parity check on the two in-compute qubits.
    pub parity: OpChannel,
    /// Storage idle parameters (per mode).
    pub storage_idle: IdleParams,
    /// Compute idle parameters.
    pub compute_idle: IdleParams,
    /// Storage modes per register.
    pub modes: u32,
}

/// The SeqOp standard cell.
///
/// # Examples
///
/// ```
/// use hetarch_cells::seqop::SeqOpCell;
/// use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};
///
/// let cell = SeqOpCell::new(fixed_frequency_qubit(), on_chip_multimode_resonator())?;
/// let ch = cell.characterize();
/// assert!(ch.seq_cnot.fidelity > 0.9);
/// # Ok::<(), Vec<hetarch_devices::rules::Violation>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SeqOpCell {
    pub(crate) layout: DeviceGraph,
    ids: SeqOpIds,
}

/// Device ids of the SeqOp layout.
#[derive(Clone, Copy, Debug)]
pub struct SeqOpIds {
    /// First register's storage.
    pub s1: DeviceId,
    /// First register's compute.
    pub c1: DeviceId,
    /// Second register's storage.
    pub s2: DeviceId,
    /// Second register's compute.
    pub c2: DeviceId,
    /// Readout-equipped parity-check compute.
    pub cp: DeviceId,
}

impl SeqOpCell {
    /// Builds and design-rule-checks the cell: both registers use copies of
    /// `compute`/`storage`, and a third compute device carries the readout.
    ///
    /// # Errors
    ///
    /// Returns design-rule violations.
    pub fn new(compute: DeviceSpec, storage: DeviceSpec) -> Result<Self, Vec<Violation>> {
        assert_eq!(compute.role, DeviceRole::Compute);
        assert_eq!(storage.role, DeviceRole::Storage);
        let mut layout = DeviceGraph::new();
        let s1 = layout.add_device("seqop/s1", storage.clone(), false);
        let c1 = layout.add_device("seqop/c1", compute.clone(), false);
        let s2 = layout.add_device("seqop/s2", storage, false);
        let c2 = layout.add_device("seqop/c2", compute.clone(), false);
        let cp = layout.add_device("seqop/cp", compute, true);
        layout.connect(s1, c1);
        layout.connect(s2, c2);
        layout.connect(c1, c2);
        layout.connect(c1, cp);
        layout.connect(c2, cp);
        validate(&layout, 1)?;
        Ok(SeqOpCell {
            layout,
            ids: SeqOpIds { s1, c1, s2, c2, cp },
        })
    }

    /// The symbolic layout.
    pub fn layout(&self) -> &DeviceGraph {
        &self.layout
    }

    /// Device ids.
    pub fn ids(&self) -> SeqOpIds {
        self.ids
    }

    /// Characterizes the cell by density-matrix simulation.
    ///
    /// The stored-qubit CNOT is simulated on four qubits (two storage modes
    /// and the two register computes): load both operands, apply the CNOT,
    /// store back, with gate depolarizing and idle decay at every step. The
    /// fidelity averages nine product probes against the ideal CNOT output.
    pub fn characterize(&self) -> SeqOpChannel {
        // Per-slot specs: a calibration snapshot may have overridden each
        // layout slot individually, so every parameter is read from the node
        // it belongs to rather than from one shared compute/storage spec.
        let s1 = &self.layout.node(self.ids.s1).spec;
        let c1 = &self.layout.node(self.ids.c1).spec;
        let s2 = &self.layout.node(self.ids.s2).spec;
        let c2 = &self.layout.node(self.ids.c2).spec;
        let cp = &self.layout.node(self.ids.cp).spec;
        let g2_c1 = c1.gate_2q.expect("compute devices define 2q gates");
        let g2_c2 = c2.gate_2q.expect("compute devices define 2q gates");
        let t_read = cp.readout_time.expect("compute has readout");
        let storage_idle = IdleParams::new(s1.t1, s1.t2).expect("physical coherence");
        let compute_idle = IdleParams::new(c1.t1, c1.t2).expect("physical coherence");
        let idle_s2 = IdleParams::new(s2.t1, s2.t2).expect("physical coherence");
        let idle_c2 = IdleParams::new(c2.t1, c2.t2).expect("physical coherence");
        let idle_cp = IdleParams::new(cp.t1, cp.t2).expect("physical coherence");

        let depol_swap1 = Kraus2::depolarizing(s1.swap.error).expect("validated");
        let depol_swap2 = Kraus2::depolarizing(s2.swap.error).expect("validated");
        let depol_g2_c1 = Kraus2::depolarizing(g2_c1.error).expect("validated");
        let depol_g2_c2 = Kraus2::depolarizing(g2_c2.error).expect("validated");

        // Both registers' swaps run in parallel, so the load/store phase
        // lasts as long as the slower of the two (equal when uncalibrated).
        let swap_phase = s1.swap.time.max(s2.swap.time);

        // Idle channels are built once per (slot, phase duration) and reused
        // across probes, so each compiles its superoperator kernel exactly
        // once. Application order (storage slots 0, 3 then compute slots
        // 1, 2) matches the pre-calibration code path bit for bit.
        let slot_idles: [(usize, &IdleParams); 4] = [
            (0, &storage_idle),
            (3, &idle_s2),
            (1, &compute_idle),
            (2, &idle_c2),
        ];
        let channels_for = |t: f64| -> Vec<(usize, Kraus1)> {
            slot_idles
                .iter()
                .map(|&(q, p)| (q, p.channel(t).expect("valid")))
                .collect()
        };
        let idle_swap = channels_for(swap_phase);
        let idle_g2 = channels_for(g2_c1.time);

        // Qubits: 0 = s1 mode, 1 = c1, 2 = c2, 3 = s2 mode. All nine product
        // probes run the same circuit, so they are materialized up front and
        // every gate/channel step sweeps the whole batch — channel steps as
        // one batched apply each.
        let idle_all = |states: &mut [DensityMatrix], chs: &[(usize, Kraus1)]| {
            for (q, ch) in chs {
                ch.apply_batch(states, *q);
            }
        };
        let probes = [0usize, 1, 2]; // 0 -> |0>, 1 -> |1>, 2 -> |+>
        let inputs: Vec<(usize, usize)> = probes
            .iter()
            .flat_map(|&a| probes.iter().map(move |&b| (a, b)))
            .collect();
        let mut states: Vec<DensityMatrix> = inputs
            .iter()
            .map(|&(a, b)| {
                let mut rho = DensityMatrix::zero_state(4);
                prepare(&mut rho, 0, a);
                prepare(&mut rho, 3, b);
                rho
            })
            .collect();
        // Load both operands (parallel swaps).
        for rho in states.iter_mut() {
            gates::swap(rho, 0, 1);
            gates::swap(rho, 3, 2);
        }
        depol_swap1.apply_batch(&mut states, 0, 1);
        depol_swap2.apply_batch(&mut states, 3, 2);
        idle_all(&mut states, &idle_swap);
        // Entangle (c1 drives the CNOT, so its gate quality applies).
        for rho in states.iter_mut() {
            gates::cnot(rho, 1, 2);
        }
        depol_g2_c1.apply_batch(&mut states, 1, 2);
        idle_all(&mut states, &idle_g2);
        // Store back.
        for rho in states.iter_mut() {
            gates::swap(rho, 0, 1);
            gates::swap(rho, 3, 2);
        }
        depol_swap1.apply_batch(&mut states, 0, 1);
        depol_swap2.apply_batch(&mut states, 3, 2);
        idle_all(&mut states, &idle_swap);

        let mut total = 0.0;
        for (&(a, b), rho) in inputs.iter().zip(&states) {
            let out = rho.partial_trace(&[0, 3]);
            total += fidelity_with_pure(&out, &ideal_cnot_output(a, b));
        }
        let cnot_fid = (total / inputs.len() as f64).clamp(0.0, 1.0);
        let cnot_time = 2.0 * swap_phase + g2_c1.time;

        // Parity check on the two in-compute qubits via the cp ancilla:
        // CX(c1 -> cp), CX(c2 -> cp), measure cp. Characterized over the
        // four classical inputs on three qubits (0 = c1, 1 = c2, 2 = cp),
        // batched the same way.
        // The parity window spans both serial CXs plus readout; `x + x`
        // equals `2.0 * x` bit for bit, so the uncalibrated duration is
        // unchanged. Each compute slot decoheres with its own parameters.
        let parity_window = g2_c1.time + g2_c2.time + t_read;
        let idle_par_c1 = compute_idle.channel(parity_window).expect("valid");
        let idle_par_c2 = idle_c2.channel(parity_window).expect("valid");
        let idle_par_cp = idle_cp.channel(parity_window).expect("valid");
        let mut pstates: Vec<DensityMatrix> = (0..4usize)
            .map(|input| {
                let mut rho = DensityMatrix::zero_state(3);
                if input & 1 == 1 {
                    gates::x(&mut rho, 0);
                }
                if input & 2 == 2 {
                    gates::x(&mut rho, 1);
                }
                rho
            })
            .collect();
        for rho in pstates.iter_mut() {
            gates::cnot(rho, 0, 2);
        }
        depol_g2_c1.apply_batch(&mut pstates, 0, 2);
        for rho in pstates.iter_mut() {
            gates::cnot(rho, 1, 2);
        }
        depol_g2_c2.apply_batch(&mut pstates, 1, 2);
        idle_par_c1.apply_batch(&mut pstates, 0);
        idle_par_c2.apply_batch(&mut pstates, 1);
        idle_par_cp.apply_batch(&mut pstates, 2);
        let mut ptotal = 0.0;
        for (input, rho) in pstates.iter().enumerate() {
            let parity = ((input & 1) ^ ((input >> 1) & 1)) == 1;
            let mut branch = rho.clone();
            ptotal += project_z(&mut branch, 2, parity);
        }
        let parity_fid = (ptotal / 4.0).clamp(0.0, 1.0);

        // Summary fields describe the first register's slots (the channels
        // above already account for per-slot differences).
        SeqOpChannel {
            seq_cnot: OpChannel::new("seq_cnot", cnot_time, cnot_fid, 1),
            parity: OpChannel::new("parity_check", parity_window, parity_fid, 1),
            storage_idle,
            compute_idle,
            modes: s1.capacity,
        }
    }
}

fn prepare(rho: &mut DensityMatrix, q: usize, which: usize) {
    match which {
        0 => {}
        1 => gates::x(rho, q),
        _ => gates::h(rho, q),
    }
}

/// Ideal output state vector of `CNOT(a ⊗ b)` on qubits (0, 1) of a 2-qubit
/// system (control = qubit 0).
fn ideal_cnot_output(a: usize, b: usize) -> Vec<C64> {
    let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
    let amp = |which: usize| -> Vec<C64> {
        match which {
            0 => vec![C64::ONE, C64::ZERO],
            1 => vec![C64::ZERO, C64::ONE],
            _ => vec![s, s],
        }
    };
    let va = amp(a);
    let vb = amp(b);
    // psi[b*2 + a] before CNOT; then CNOT with control a (bit 0), target b
    // (bit 1): |a b> -> |a, b^a>.
    let mut psi = vec![C64::ZERO; 4];
    for (ia, &xa) in va.iter().enumerate() {
        for (ib, &xb) in vb.iter().enumerate() {
            let out_b = ib ^ ia;
            psi[out_b * 2 + ia] += xa * xb;
        }
    }
    psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};

    fn cell() -> SeqOpCell {
        SeqOpCell::new(fixed_frequency_qubit(), on_chip_multimode_resonator()).unwrap()
    }

    #[test]
    fn layout_is_rule_compliant_triangle() {
        let c = cell();
        let g = c.layout();
        assert_eq!(g.num_devices(), 5);
        assert_eq!(g.edges().len(), 5);
        assert_eq!(g.degree(c.ids().c1), 3);
        assert_eq!(g.degree(c.ids().cp), 2);
    }

    #[test]
    fn cnot_fidelity_in_expected_band() {
        let ch = cell().characterize();
        // Two noisy swaps (1e-2 each) + CNOT (1e-3): fidelity ~ 0.96–0.99.
        assert!(
            ch.seq_cnot.fidelity > 0.93 && ch.seq_cnot.fidelity < 0.999,
            "seq CNOT fidelity {}",
            ch.seq_cnot.fidelity
        );
        assert!((ch.seq_cnot.duration - (2.0 * 100e-9 + 100e-9)).abs() < 1e-15);
    }

    #[test]
    fn parity_check_close_to_parcheck_quality() {
        let ch = cell().characterize();
        assert!(
            ch.parity.fidelity > 0.97,
            "parity fidelity {}",
            ch.parity.fidelity
        );
    }

    #[test]
    fn ideal_cnot_output_sanity() {
        // a=1, b=0 -> |11>.
        let psi = ideal_cnot_output(1, 0);
        assert!(psi[3].approx_eq(C64::ONE, 1e-12));
        // a=+, b=0 -> Bell state.
        let psi = ideal_cnot_output(2, 0);
        assert!(psi[0].approx_eq(C64::real(std::f64::consts::FRAC_1_SQRT_2), 1e-12));
        assert!(psi[3].approx_eq(C64::real(std::f64::consts::FRAC_1_SQRT_2), 1e-12));
    }
}
