//! Device graphs: the symbolic physical layout of a standard cell or module.
//!
//! A [`DeviceGraph`] holds device instances and their couplings. It is the
//! object the design rules (paper §3.2) are checked against, and the base
//! layer cells build on.

use serde::{Deserialize, Serialize};

use crate::calib::CalibSnapshot;
use crate::device::{DeviceRole, DeviceSpec};

/// Handle to a device instance within a [`DeviceGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

/// One placed device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceNode {
    /// Instance label (unique within a graph by convention, not enforced).
    pub label: String,
    /// The device specification.
    pub spec: DeviceSpec,
    /// Whether this instance is equipped with a readout resonator. Only
    /// meaningful for compute devices; adding readout costs coherence and
    /// I/O, so design rule DR4 minimizes it.
    pub readout_equipped: bool,
}

/// A symbolic physical layout: devices and couplings.
///
/// # Examples
///
/// ```
/// use hetarch_devices::catalog::{fixed_frequency_qubit, multimode_resonator_3d};
/// use hetarch_devices::topology::DeviceGraph;
///
/// let mut g = DeviceGraph::new();
/// let c = g.add_device("c0", fixed_frequency_qubit(), true);
/// let s = g.add_device("s0", multimode_resonator_3d(), false);
/// g.connect(c, s);
/// assert_eq!(g.degree(c), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceGraph {
    nodes: Vec<DeviceNode>,
    edges: Vec<(DeviceId, DeviceId)>,
}

impl DeviceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DeviceGraph::default()
    }

    /// Adds a device instance, returning its handle.
    pub fn add_device(
        &mut self,
        label: impl Into<String>,
        spec: DeviceSpec,
        readout_equipped: bool,
    ) -> DeviceId {
        self.nodes.push(DeviceNode {
            label: label.into(),
            spec,
            readout_equipped,
        });
        DeviceId(self.nodes.len() as u32 - 1)
    }

    /// Couples two devices.
    ///
    /// # Panics
    ///
    /// Panics on self-coupling, unknown ids, or duplicate edges.
    pub fn connect(&mut self, a: DeviceId, b: DeviceId) {
        assert_ne!(a, b, "cannot couple a device to itself");
        assert!(
            (a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len(),
            "unknown device id"
        );
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        assert!(
            !self.edges.contains(&(a, b)),
            "devices {} and {} are already coupled",
            self.node(a).label,
            self.node(b).label
        );
        self.edges.push((a, b));
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.nodes.len()
    }

    /// Device node by id.
    pub fn node(&self, id: DeviceId) -> &DeviceNode {
        &self.nodes[id.0 as usize]
    }

    /// All device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.nodes.len() as u32).map(DeviceId)
    }

    /// All nodes with ids.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &DeviceNode)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (DeviceId(i as u32), n))
    }

    /// Coupling list.
    pub fn edges(&self) -> &[(DeviceId, DeviceId)] {
        &self.edges
    }

    /// Degree (number of couplings) of a device.
    pub fn degree(&self, id: DeviceId) -> usize {
        self.edges
            .iter()
            .filter(|(a, b)| *a == id || *b == id)
            .count()
    }

    /// Neighbors of a device.
    pub fn neighbors(&self, id: DeviceId) -> Vec<DeviceId> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == id {
                    Some(b)
                } else if b == id {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Ids of all compute devices.
    pub fn compute_devices(&self) -> Vec<DeviceId> {
        self.iter()
            .filter(|(_, n)| n.spec.role == DeviceRole::Compute)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all storage devices.
    pub fn storage_devices(&self) -> Vec<DeviceId> {
        self.iter()
            .filter(|(_, n)| n.spec.role == DeviceRole::Storage)
            .map(|(id, _)| id)
            .collect()
    }

    /// Total qubit capacity (sum of device capacities).
    pub fn total_capacity(&self) -> u32 {
        self.nodes.iter().map(|n| n.spec.capacity).sum()
    }

    /// Calibrates the layout in place: every node whose label carries
    /// overrides in `calib` gets its spec rewritten by
    /// [`CalibParams::apply_to`](crate::calib::CalibParams::apply_to);
    /// every other node is left untouched.
    ///
    /// Calibration never changes the layout's shape. Overrides write only
    /// coherence times, gate errors, the swap error and the readout
    /// duration, while the design rules read only roles, degrees,
    /// `max_connectivity` and `readout_equipped`; labels, couplings and
    /// capacities are kept as well. So a layout that passed
    /// [`validate`](crate::rules::validate) before calibration passes it
    /// after, with the same outcome, under any snapshot.
    pub fn calibrate(&mut self, calib: &CalibSnapshot) {
        for node in &mut self.nodes {
            if let Some(params) = calib.overrides_for(&node.label) {
                node.spec = params.apply_to(&node.spec);
            }
        }
    }

    /// Merges `other` into `self`, returning the id offset applied to
    /// `other`'s devices (its `DeviceId(k)` becomes `DeviceId(k + offset)`).
    pub fn merge(&mut self, other: &DeviceGraph) -> u32 {
        let offset = self.nodes.len() as u32;
        self.nodes.extend(other.nodes.iter().cloned());
        for &(a, b) in &other.edges {
            self.edges
                .push((DeviceId(a.0 + offset), DeviceId(b.0 + offset)));
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{fixed_frequency_qubit, multimode_resonator_3d};

    fn register_like() -> (DeviceGraph, DeviceId, DeviceId) {
        let mut g = DeviceGraph::new();
        let c = g.add_device("c", fixed_frequency_qubit(), false);
        let s = g.add_device("s", multimode_resonator_3d(), false);
        g.connect(c, s);
        (g, c, s)
    }

    #[test]
    fn build_and_query() {
        let (g, c, s) = register_like();
        assert_eq!(g.num_devices(), 2);
        assert_eq!(g.degree(c), 1);
        assert_eq!(g.neighbors(s), vec![c]);
        assert_eq!(g.compute_devices(), vec![c]);
        assert_eq!(g.storage_devices(), vec![s]);
        assert_eq!(g.total_capacity(), 11);
    }

    #[test]
    #[should_panic(expected = "already coupled")]
    fn duplicate_edge_panics() {
        let (mut g, c, s) = register_like();
        g.connect(s, c);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_loop_panics() {
        let (mut g, c, _) = register_like();
        g.connect(c, c);
    }

    #[test]
    fn merge_offsets_ids() {
        let (mut g, _, _) = register_like();
        let (h, _, _) = register_like();
        let off = g.merge(&h);
        assert_eq!(off, 2);
        assert_eq!(g.num_devices(), 4);
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.degree(DeviceId(2)), 1);
    }

    #[test]
    fn calibrate_rewrites_only_labelled_specs() {
        use crate::calib::CalibParams;
        let (mut g, c, s) = register_like();
        let before = g.clone();
        let mut calib = CalibSnapshot::default();
        calib.qubits.insert(
            "s".to_string(),
            CalibParams {
                swap_error: Some(0.05),
                ..CalibParams::default()
            },
        );
        calib
            .qubits
            .insert("elsewhere".to_string(), CalibParams::default());
        g.calibrate(&calib);
        assert_eq!(g.node(c), before.node(c));
        assert_eq!(g.node(s).spec.swap.error, 0.05);
        assert_eq!(g.node(s).spec, calib.apply("s", &before.node(s).spec));
        assert_eq!(g.edges(), before.edges());
        g.calibrate(&CalibSnapshot::default());
        assert_eq!(g.node(s).spec.swap.error, 0.05);
    }
}
