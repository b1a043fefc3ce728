//! The `Register` standard cell (paper Table 2, row 1).
//!
//! A high-capacity storage device coupled to a single compute device that
//! manages input/output. Characterized by the load/save (SWAP) time and
//! fidelity, plus the storage idle decay `T_S`.

use hetarch_qsim::channels::{IdleParams, Kraus2};
use hetarch_qsim::matrix::Mat;
use hetarch_qsim::state::DensityMatrix;
use serde::{Deserialize, Serialize};

use hetarch_devices::device::{DeviceRole, DeviceSpec};
use hetarch_devices::rules::{validate, Violation};
use hetarch_devices::topology::{DeviceGraph, DeviceId};

use crate::channel::OpChannel;
use crate::probe::average_transfer_fidelity;

/// The abstracted Register channel consumed by module-level models.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegisterChannel {
    /// Moving one qubit between compute and a storage mode.
    pub load: OpChannel,
    /// Idle parameters of a stored qubit (per mode).
    pub storage_idle: IdleParams,
    /// Idle parameters of the compute qubit.
    pub compute_idle: IdleParams,
    /// Number of storage modes.
    pub modes: u32,
}

/// The Register standard cell: one storage device + one compute device.
///
/// # Examples
///
/// ```
/// use hetarch_cells::register::RegisterCell;
/// use hetarch_devices::catalog::{fixed_frequency_qubit, multimode_resonator_3d};
///
/// let cell = RegisterCell::new(fixed_frequency_qubit(), multimode_resonator_3d())?;
/// let ch = cell.characterize();
/// assert!(ch.load.fidelity > 0.95);
/// assert_eq!(ch.modes, 10);
/// # Ok::<(), Vec<hetarch_devices::rules::Violation>>(())
/// ```
#[derive(Clone, Debug)]
pub struct RegisterCell {
    pub(crate) layout: DeviceGraph,
    compute_id: DeviceId,
    storage_id: DeviceId,
}

impl RegisterCell {
    /// Builds and design-rule-checks the cell.
    ///
    /// # Errors
    ///
    /// Returns design-rule violations, including role mismatches (the cell
    /// requires one compute and one storage device; neither carries readout
    /// per DR4).
    pub fn new(compute: DeviceSpec, storage: DeviceSpec) -> Result<Self, Vec<Violation>> {
        assert_eq!(
            compute.role,
            DeviceRole::Compute,
            "first device must be a compute device"
        );
        assert_eq!(
            storage.role,
            DeviceRole::Storage,
            "second device must be a storage device"
        );
        let mut layout = DeviceGraph::new();
        let compute_id = layout.add_device("register/compute", compute, false);
        let storage_id = layout.add_device("register/storage", storage, false);
        layout.connect(compute_id, storage_id);
        validate(&layout, 0)?;
        Ok(RegisterCell {
            layout,
            compute_id,
            storage_id,
        })
    }

    /// The symbolic layout.
    pub fn layout(&self) -> &DeviceGraph {
        &self.layout
    }

    /// Compute device id within the layout.
    pub fn compute_id(&self) -> DeviceId {
        self.compute_id
    }

    /// Storage device id within the layout.
    pub fn storage_id(&self) -> DeviceId {
        self.storage_id
    }

    /// Characterizes the cell by exact density-matrix simulation of the
    /// load operation: a SWAP between the compute qubit and a storage mode
    /// with the storage device's SWAP error, plus idle decay on both ends
    /// for the SWAP duration. The reported fidelity averages the six Pauli
    /// eigenstates.
    pub fn characterize(&self) -> RegisterChannel {
        let compute = &self.layout.node(self.compute_id).spec;
        let storage = &self.layout.node(self.storage_id).spec;
        let swap = storage.swap;
        let compute_idle =
            IdleParams::new(compute.t1, compute.t2).expect("catalog compute coherence is physical");
        let storage_idle =
            IdleParams::new(storage.t1, storage.t2).expect("catalog storage coherence is physical");

        // Channels are hoisted out of the probe closure so each compiles its
        // superoperator kernel once across the six Pauli-eigenstate probes;
        // each channel step is one batched apply over the whole probe set.
        let depol_swap =
            Kraus2::depolarizing(swap.error).expect("gate error validated by DeviceSpec");
        let compute_idle_ch = compute_idle
            .channel(swap.time)
            .expect("non-negative duration");
        let storage_idle_ch = storage_idle
            .channel(swap.time)
            .expect("non-negative duration");
        let fidelity = average_transfer_fidelity(|states: &mut [DensityMatrix]| {
            // Qubit 0 = compute (input), qubit 1 = storage mode.
            for rho in states.iter_mut() {
                rho.apply_2q(0, 1, &Mat::swap());
            }
            depol_swap.apply_batch(states, 0, 1);
            compute_idle_ch.apply_batch(states, 0);
            storage_idle_ch.apply_batch(states, 1);
        });

        RegisterChannel {
            load: OpChannel::new("load", swap.time, fidelity, 1),
            storage_idle,
            compute_idle,
            modes: storage.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::catalog::{
        fixed_frequency_qubit, memory_3d, multimode_resonator_3d, on_chip_multimode_resonator,
    };

    #[test]
    fn register_cell_is_rule_compliant() {
        let cell = RegisterCell::new(fixed_frequency_qubit(), multimode_resonator_3d()).unwrap();
        assert_eq!(cell.layout().num_devices(), 2);
    }

    #[test]
    fn load_fidelity_tracks_swap_error() {
        let cell = RegisterCell::new(fixed_frequency_qubit(), multimode_resonator_3d()).unwrap();
        let ch = cell.characterize();
        // Swap error 1e-2: average fidelity should be near 1 - 1e-2 * 4/5
        // (depolarizing average-fidelity relation), minus tiny idle loss.
        assert!(
            ch.load.fidelity > 0.985 && ch.load.fidelity < 0.999,
            "load fidelity {}",
            ch.load.fidelity
        );
        assert_eq!(ch.load.duration, 400e-9);
        assert_eq!(ch.modes, 10);
    }

    #[test]
    fn faster_swap_loses_less_idle_fidelity() {
        // Same storage coherence, swap error and compute device; only the
        // swap duration differs — the slower swap must lose more fidelity
        // to idle decay.
        let mut slow_spec = on_chip_multimode_resonator();
        slow_spec.swap = hetarch_devices::device::GateSpec::new(10e-6, 1e-2);
        let slow = RegisterCell::new(fixed_frequency_qubit(), slow_spec)
            .unwrap()
            .characterize();
        let fast = RegisterCell::new(fixed_frequency_qubit(), on_chip_multimode_resonator())
            .unwrap()
            .characterize();
        assert!(
            fast.load.fidelity > slow.load.fidelity,
            "fast {} vs slow {}",
            fast.load.fidelity,
            slow.load.fidelity
        );
        assert!(fast.load.duration < slow.load.duration);
        // The 3D memory's long coherence compensates its slow swap.
        let mem = RegisterCell::new(fixed_frequency_qubit(), memory_3d())
            .unwrap()
            .characterize();
        assert!(mem.load.fidelity > 0.98);
    }

    #[test]
    fn storage_idle_reflects_device() {
        let cell = RegisterCell::new(fixed_frequency_qubit(), memory_3d()).unwrap();
        let ch = cell.characterize();
        assert_eq!(ch.storage_idle.t1, 25e-3);
        assert_eq!(ch.compute_idle.t1, 300e-6);
    }

    #[test]
    #[should_panic(expected = "must be a storage device")]
    fn wrong_role_is_rejected() {
        let _ = RegisterCell::new(fixed_frequency_qubit(), fixed_frequency_qubit());
    }
}
