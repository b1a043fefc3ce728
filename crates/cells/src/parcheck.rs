//! The `ParCheck` standard cell (paper Table 2, row 2).
//!
//! Two compute devices coupled together; one carries a readout resonator.
//! Optimized for parity checks: move two qubits in, apply one- and two-qubit
//! gates, measure one qubit.

use hetarch_qsim::bell::DistillNoise;
use hetarch_qsim::channels::{IdleParams, Kraus1, Kraus2};
use hetarch_qsim::measure::project_z;
use hetarch_qsim::state::DensityMatrix;
use serde::{Deserialize, Serialize};

use hetarch_devices::device::{DeviceRole, DeviceSpec, GateSpec};
use hetarch_devices::rules::{validate, Violation};
use hetarch_devices::topology::{DeviceGraph, DeviceId};

use crate::channel::OpChannel;

/// The abstracted ParCheck channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParCheckChannel {
    /// Full parity-check operation (two-qubit gate + readout), with the
    /// fidelity of correct parity assignment on classical-basis probes.
    pub parity: OpChannel,
    /// Single-qubit gate properties.
    pub gate_1q: GateSpec,
    /// Two-qubit gate properties.
    pub gate_2q: GateSpec,
    /// Readout duration.
    pub readout_time: f64,
    /// Idle parameters of the non-measured compute device.
    pub idle_a: IdleParams,
    /// Idle parameters of the measured compute device.
    pub idle_b: IdleParams,
}

impl ParCheckChannel {
    /// Noise settings for a DEJMPS round executed on this cell.
    pub fn distill_noise(&self) -> DistillNoise {
        DistillNoise {
            p2q: self.gate_2q.error,
            p1q: self.gate_1q.error,
            // Residual parity-assignment error beyond the gate errors: the
            // decoherence of the measured qubit during readout.
            meas_flip: 1.0 - self.parity.fidelity.min(1.0),
        }
    }
}

/// The ParCheck standard cell.
///
/// # Examples
///
/// ```
/// use hetarch_cells::parcheck::ParCheckCell;
/// use hetarch_devices::catalog::fixed_frequency_qubit;
///
/// let cell = ParCheckCell::new(fixed_frequency_qubit(), fixed_frequency_qubit())?;
/// let ch = cell.characterize();
/// assert!(ch.parity.fidelity > 0.97);
/// # Ok::<(), Vec<hetarch_devices::rules::Violation>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ParCheckCell {
    pub(crate) layout: DeviceGraph,
    id_a: DeviceId,
    id_b: DeviceId,
}

impl ParCheckCell {
    /// Builds and design-rule-checks the cell. Device `b` receives the
    /// readout resonator (DR4: exactly one readout).
    ///
    /// # Errors
    ///
    /// Returns design-rule violations.
    pub fn new(qubit_a: DeviceSpec, qubit_b: DeviceSpec) -> Result<Self, Vec<Violation>> {
        assert_eq!(
            qubit_a.role,
            DeviceRole::Compute,
            "ParCheck uses compute devices"
        );
        assert_eq!(
            qubit_b.role,
            DeviceRole::Compute,
            "ParCheck uses compute devices"
        );
        let mut layout = DeviceGraph::new();
        let id_a = layout.add_device("parcheck/a", qubit_a, false);
        let id_b = layout.add_device("parcheck/b", qubit_b, true);
        layout.connect(id_a, id_b);
        validate(&layout, 1)?;
        Ok(ParCheckCell { layout, id_a, id_b })
    }

    /// The symbolic layout.
    pub fn layout(&self) -> &DeviceGraph {
        &self.layout
    }

    /// Id of the non-readout device.
    pub fn id_a(&self) -> DeviceId {
        self.id_a
    }

    /// Id of the readout-equipped device.
    pub fn id_b(&self) -> DeviceId {
        self.id_b
    }

    /// Characterizes the parity-check operation by density-matrix
    /// simulation over two probe families, reporting the worst:
    ///
    /// * **Classical probes** — for each two-qubit classical basis state,
    ///   run `CX(a → b)`, let both qubits decohere for the gate + readout
    ///   window, then project b; score the probability of the correct parity
    ///   outcome with qubit `a` preserved. Sensitive to amplitude damping
    ///   (`T1`) but blind to pure dephasing.
    /// * **Coherence probe** — prepare `|+⟩|0⟩`, run the same circuit, and
    ///   score the fidelity with the ideal Bell state `|Φ+⟩`. DEJMPS acts on
    ///   entangled pairs, so the dephasing (`T2`) this probe sees degrades
    ///   real parity checks just as much as population errors do.
    pub fn characterize(&self) -> ParCheckChannel {
        let qubit_a = &self.layout.node(self.id_a).spec;
        let qubit_b = &self.layout.node(self.id_b).spec;
        let g1 = qubit_a.gate_1q.expect("compute devices define 1q gates");
        let g2 = qubit_a.gate_2q.expect("compute devices define 2q gates");
        let t_read = qubit_b
            .readout_time
            .expect("readout-equipped device defines readout time");
        let idle_a =
            IdleParams::new(qubit_a.t1, qubit_a.t2).expect("catalog coherence is physical");
        let idle_b =
            IdleParams::new(qubit_b.t1, qubit_b.t2).expect("catalog coherence is physical");

        let depol2 = Kraus2::depolarizing(g2.error).expect("validated gate error");
        // Both probe families decohere for the same gate + readout window;
        // build the channels once so each compiles its kernel once.
        let idle_a_ch = idle_a
            .channel(g2.time + t_read)
            .expect("non-negative duration");
        let idle_b_ch = idle_b
            .channel(g2.time + t_read)
            .expect("non-negative duration");
        // CX from a (qubit 0) onto b (qubit 1), then decoherence during the
        // gate and the readout window; all five probes run this circuit.
        let run = |mut rho: DensityMatrix| {
            hetarch_qsim::gates::cnot(&mut rho, 0, 1);
            depol2.apply(&mut rho, 0, 1);
            idle_a_ch.apply(&mut rho, 0);
            idle_b_ch.apply(&mut rho, 1);
            rho
        };

        let mut total = 0.0;
        for input in 0..4usize {
            let mut rho = DensityMatrix::zero_state(2);
            if input & 1 == 1 {
                hetarch_qsim::gates::x(&mut rho, 0);
            }
            if input & 2 == 2 {
                hetarch_qsim::gates::x(&mut rho, 1);
            }
            let mut rho = run(rho);
            let parity = (input & 1) ^ ((input >> 1) & 1) == 1;
            let p_correct = {
                let mut branch = rho.clone();
                project_z(&mut branch, 1, parity)
            };
            // Preservation of qubit a: probability its Z value survived.
            let keep_a = project_z(&mut rho, 0, input & 1 == 1);
            total += p_correct * keep_a;
        }
        let classical_fidelity = total / 4.0;

        // Coherence probe: |+⟩|0⟩ → CX → ideal |Φ+⟩; dephasing during the
        // gate + readout window shows up here and nowhere in the classical
        // probes.
        let bell_fidelity = {
            use hetarch_qsim::complex::C64;
            let inv = std::f64::consts::FRAC_1_SQRT_2;
            let phi_plus = [C64::new(inv, 0.0), C64::ZERO, C64::ZERO, C64::new(inv, 0.0)];
            let mut rho = DensityMatrix::zero_state(2);
            hetarch_qsim::gates::h(&mut rho, 0);
            hetarch_qsim::fidelity::fidelity_with_pure(&run(rho), &phi_plus)
        };

        // Report the worst probe family: the cell abstraction must hold for
        // whatever input a module feeds it, so a T2-limited device (where the
        // Bell probe is worst) may not hide behind its classical-basis score.
        let fidelity = classical_fidelity.min(bell_fidelity).clamp(0.0, 1.0);
        // Ensure the channel abstraction is internally consistent even for
        // pathological inputs.
        let _ = Kraus1::depolarizing(g1.error).expect("validated gate error");
        ParCheckChannel {
            parity: OpChannel::new("parity_check", g2.time + t_read, fidelity, 1),
            gate_1q: g1,
            gate_2q: g2,
            readout_time: t_read,
            idle_a,
            idle_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::catalog::{fixed_frequency_qubit, flux_tunable_qubit};

    fn cell() -> ParCheckCell {
        ParCheckCell::new(fixed_frequency_qubit(), fixed_frequency_qubit()).unwrap()
    }

    #[test]
    fn layout_has_one_readout() {
        let c = cell();
        let equipped: Vec<_> = c
            .layout()
            .iter()
            .filter(|(_, n)| n.readout_equipped)
            .collect();
        assert_eq!(equipped.len(), 1);
    }

    #[test]
    fn parity_fidelity_reflects_gate_error() {
        let ch = cell().characterize();
        // 1% two-qubit error dominates; fidelity ≈ 0.985–0.999.
        assert!(
            ch.parity.fidelity > 0.97 && ch.parity.fidelity < 1.0,
            "parity fidelity {}",
            ch.parity.fidelity
        );
        assert!((ch.parity.duration - (100e-9 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn distill_noise_is_consistent() {
        let ch = cell().characterize();
        let n = ch.distill_noise();
        assert_eq!(n.p2q, 1e-3);
        assert_eq!(n.p1q, 1e-3);
        assert!(n.meas_flip > 0.0 && n.meas_flip < 0.05);
    }

    #[test]
    fn heterogeneous_pairing_is_allowed() {
        // A fluxonium readout qubit next to a transmon: the design rules
        // admit heterogeneous compute pairs.
        let c = ParCheckCell::new(fixed_frequency_qubit(), flux_tunable_qubit()).unwrap();
        let ch = c.characterize();
        assert!(ch.parity.fidelity > 0.9);
    }

    #[test]
    fn lower_coherence_hurts_parity_fidelity() {
        let good = cell().characterize();
        let worse = ParCheckCell::new(
            fixed_frequency_qubit().with_coherence(10e-6, 10e-6),
            fixed_frequency_qubit().with_coherence(10e-6, 10e-6),
        )
        .unwrap()
        .characterize();
        assert!(worse.parity.fidelity < good.parity.fidelity);
    }
}
