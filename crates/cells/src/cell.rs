//! The [`Cell`] abstraction: one interface over all four standard cells.
//!
//! Every standard cell in Table 2 has the same shape: it is built from two
//! device specs, design-rule-checked into a symbolic layout, and
//! characterized into an abstract channel by exact density-matrix
//! simulation. The trait makes that shape explicit so the
//! [`CellLibrary`](crate::library::CellLibrary) can memoize *any* cell
//! through one generic code path instead of four copy-pasted ones, and so
//! the module layer can ask structural questions (layout, readout budget)
//! without knowing which cell it holds.

use std::fmt;

use serde::{de::DeserializeOwned, Deserialize, Serialize};

use hetarch_devices::calib::CalibSnapshot;
use hetarch_devices::device::DeviceSpec;
use hetarch_devices::rules::Violation;
use hetarch_devices::topology::DeviceGraph;

use crate::parcheck::{ParCheckCell, ParCheckChannel};
use crate::register::{RegisterCell, RegisterChannel};
use crate::seqop::{SeqOpCell, SeqOpChannel};
use crate::usc::{UscCell, UscChannel};

/// Discriminant naming each standard-cell type (the Table 2 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Storage Register: one compute qubit fronting a multimode store.
    Register,
    /// Parity-check cell: two compute qubits, one readout-equipped.
    ParCheck,
    /// Sequential-operation cell: two Registers sharing a readout qubit.
    SeqOp,
    /// Universal stabilizer cell: three Registers around a readout ancilla.
    Usc,
}

impl CellKind {
    /// Every kind, in tag order.
    pub const ALL: [CellKind; 4] = [
        CellKind::Register,
        CellKind::ParCheck,
        CellKind::SeqOp,
        CellKind::Usc,
    ];

    /// Human-readable name (Table 2 spelling).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Register => "Register",
            CellKind::ParCheck => "ParCheck",
            CellKind::SeqOp => "SeqOp",
            CellKind::Usc => "USC",
        }
    }

    /// Stable one-byte tag used in cache keys and the persisted format.
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`CellKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<CellKind> {
        CellKind::ALL.get(tag as usize).copied()
    }

    /// Index into per-kind counter arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A quantum standard cell: a design-rule-checked two-device layout that
/// can be abstracted into a channel by exact density-matrix simulation.
pub trait Cell: Sized {
    /// The abstracted channel produced by [`Cell::characterize`].
    type Channel: Clone + Send + Sync + Serialize + DeserializeOwned + 'static;

    /// Which Table 2 cell this is.
    const KIND: CellKind;

    /// Builds and design-rule-checks the cell from its two device specs
    /// (the meaning of `a`/`b` — compute/storage or compute/compute — is
    /// fixed per cell kind).
    ///
    /// # Errors
    ///
    /// Returns the design-rule violations of the resulting layout.
    fn build(a: DeviceSpec, b: DeviceSpec) -> Result<Self, Vec<Violation>>;

    /// Applies a fleet calibration snapshot to the built cell: each layout
    /// slot takes the overrides of the snapshot entry matching its node
    /// label (e.g. `"usc/ancilla"`), and [`Cell::characterize`] reads every
    /// parameter from the layout. This is [`DeviceGraph::calibrate`] on the
    /// cell's layout, so it never changes the shape the design rules were
    /// checked against, and an empty snapshot leaves the cell unchanged.
    fn calibrate(&mut self, calib: &CalibSnapshot);

    /// The symbolic device layout.
    fn layout(&self) -> &DeviceGraph;

    /// Number of readout-equipped devices the cell carries (its DR4
    /// readout budget, which rolls up into module control-line counts).
    fn required_readouts(&self) -> usize {
        self.layout()
            .iter()
            .filter(|(_, n)| n.readout_equipped)
            .count()
    }

    /// Characterizes the cell by density-matrix simulation. This is the
    /// expensive step the [`CellLibrary`](crate::library::CellLibrary)
    /// memoizes.
    fn characterize(&self) -> Self::Channel;
}

impl Cell for RegisterCell {
    type Channel = RegisterChannel;
    const KIND: CellKind = CellKind::Register;

    fn build(a: DeviceSpec, b: DeviceSpec) -> Result<Self, Vec<Violation>> {
        RegisterCell::new(a, b)
    }

    fn calibrate(&mut self, calib: &CalibSnapshot) {
        self.layout.calibrate(calib);
    }

    fn layout(&self) -> &DeviceGraph {
        RegisterCell::layout(self)
    }

    fn characterize(&self) -> RegisterChannel {
        RegisterCell::characterize(self)
    }
}

impl Cell for ParCheckCell {
    type Channel = ParCheckChannel;
    const KIND: CellKind = CellKind::ParCheck;

    fn build(a: DeviceSpec, b: DeviceSpec) -> Result<Self, Vec<Violation>> {
        ParCheckCell::new(a, b)
    }

    fn calibrate(&mut self, calib: &CalibSnapshot) {
        self.layout.calibrate(calib);
    }

    fn layout(&self) -> &DeviceGraph {
        ParCheckCell::layout(self)
    }

    fn characterize(&self) -> ParCheckChannel {
        ParCheckCell::characterize(self)
    }
}

impl Cell for SeqOpCell {
    type Channel = SeqOpChannel;
    const KIND: CellKind = CellKind::SeqOp;

    fn build(a: DeviceSpec, b: DeviceSpec) -> Result<Self, Vec<Violation>> {
        SeqOpCell::new(a, b)
    }

    fn calibrate(&mut self, calib: &CalibSnapshot) {
        self.layout.calibrate(calib);
    }

    fn layout(&self) -> &DeviceGraph {
        SeqOpCell::layout(self)
    }

    fn characterize(&self) -> SeqOpChannel {
        SeqOpCell::characterize(self)
    }
}

impl Cell for UscCell {
    type Channel = UscChannel;
    const KIND: CellKind = CellKind::Usc;

    fn build(a: DeviceSpec, b: DeviceSpec) -> Result<Self, Vec<Violation>> {
        UscCell::new(a, b)
    }

    fn calibrate(&mut self, calib: &CalibSnapshot) {
        self.layout.calibrate(calib);
    }

    fn layout(&self) -> &DeviceGraph {
        UscCell::layout(self)
    }

    fn characterize(&self) -> UscChannel {
        UscCell::characterize(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::catalog::{fixed_frequency_qubit, on_chip_multimode_resonator};

    #[test]
    fn kind_tags_round_trip() {
        for kind in CellKind::ALL {
            assert_eq!(CellKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(CellKind::from_tag(4), None);
    }

    #[test]
    fn readout_budgets_match_table2() {
        let c = fixed_frequency_qubit();
        let s = on_chip_multimode_resonator();
        assert_eq!(
            RegisterCell::build(c.clone(), s.clone())
                .unwrap()
                .required_readouts(),
            0
        );
        assert_eq!(
            ParCheckCell::build(c.clone(), c.clone())
                .unwrap()
                .required_readouts(),
            1
        );
        assert_eq!(
            SeqOpCell::build(c.clone(), s.clone())
                .unwrap()
                .required_readouts(),
            1
        );
        assert_eq!(UscCell::build(c, s).unwrap().required_readouts(), 1);
    }

    #[test]
    fn trait_characterization_matches_inherent() {
        let cell =
            RegisterCell::build(fixed_frequency_qubit(), on_chip_multimode_resonator()).unwrap();
        let via_trait = Cell::characterize(&cell);
        let via_inherent = RegisterCell::characterize(&cell);
        assert_eq!(via_trait, via_inherent);
    }
}
