//! The hierarchical design tree (paper §2, Figs. 1, 2, 5, 8, 11).
//!
//! HetArch's framework connects high-level subroutines to physical layouts
//! through three coincident hierarchies — modules execute subroutines, cells
//! execute operations, devices hold qubits — with flexible nesting (modules
//! may contain sub-modules; cells, sub-cells). A [`DesignNode`] captures one
//! level of that tree: leaves carry symbolic device layouts, inner nodes
//! group children, and every node exposes the characterized operations it
//! offers upward. Control overhead and physical footprint are *inherited
//! from the layers below* — exactly the roll-up `footprint()` computes.

use serde::{Deserialize, Serialize};

use hetarch_cells::{
    Cell, CellLibrary, OpChannel, ParCheckCell, RegisterCell, SeqOpCell, UscCell, UscChain,
};
use hetarch_devices::calib::CalibSnapshot;
use hetarch_devices::footprint::{layout_cost, LayoutCost};
use hetarch_devices::rules::{validate, Violation};
use hetarch_devices::topology::DeviceGraph;
use hetarch_devices::DeviceSpec;

/// The level a node sits at (a guide to how it is characterized, per §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Executes subroutines; characterized by execution time, logical error
    /// rate and concurrency.
    Module,
    /// Executes operations; characterized by detailed (density-matrix)
    /// simulation.
    Cell,
    /// Holds qubits; the atomic layer.
    Device,
}

/// One node of the design hierarchy.
#[derive(Clone, Debug)]
pub struct DesignNode {
    name: String,
    level: Level,
    children: Vec<DesignNode>,
    layout: Option<(DeviceGraph, usize)>, // (devices, required readouts)
    ops: Vec<OpChannel>,
}

impl DesignNode {
    /// Creates an inner node.
    pub fn new(name: impl Into<String>, level: Level) -> Self {
        DesignNode {
            name: name.into(),
            level,
            children: Vec::new(),
            layout: None,
            ops: Vec::new(),
        }
    }

    /// Creates a leaf cell carrying a symbolic layout (with the number of
    /// readout-equipped devices its operations require, for DR4).
    pub fn leaf_cell(
        name: impl Into<String>,
        layout: DeviceGraph,
        required_readouts: usize,
    ) -> Self {
        DesignNode {
            name: name.into(),
            level: Level::Cell,
            children: Vec::new(),
            layout: Some((layout, required_readouts)),
            ops: Vec::new(),
        }
    }

    /// Adds a child (builder style).
    pub fn with_child(mut self, child: DesignNode) -> Self {
        self.children.push(child);
        self
    }

    /// Registers a characterized operation this node offers upward.
    pub fn with_op(mut self, op: OpChannel) -> Self {
        self.ops.push(op);
        self
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Children.
    pub fn children(&self) -> &[DesignNode] {
        &self.children
    }

    /// Operations offered by this node.
    pub fn ops(&self) -> &[OpChannel] {
        &self.ops
    }

    /// Finds a descendant by `/`-separated path (e.g. `"distill/parcheck"`).
    pub fn find(&self, path: &str) -> Option<&DesignNode> {
        let mut node = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            node = node.children.iter().find(|c| c.name == part)?;
        }
        Some(node)
    }

    /// Rolls up the physical cost (area, volume, control I/O, capacity) of
    /// the whole subtree — the §2 "module inherits a control overhead and
    /// physical footprint from the layers below".
    pub fn footprint(&self) -> LayoutCost {
        let mut total = self
            .layout
            .as_ref()
            .map(|(g, _)| layout_cost(g))
            .unwrap_or_default();
        for child in &self.children {
            let c = child.footprint();
            total.area_mm2 += c.area_mm2;
            total.volume_mm3 += c.volume_mm3;
            total.control.charge_lines += c.control.charge_lines;
            total.control.flux_lines += c.control.flux_lines;
            total.control.readout_lines += c.control.readout_lines;
            total.three_d_devices += c.three_d_devices;
            total.capacity += c.capacity;
        }
        total
    }

    /// Number of physical devices in the subtree.
    pub fn num_devices(&self) -> usize {
        self.layout
            .as_ref()
            .map(|(g, _)| g.num_devices())
            .unwrap_or(0)
            + self
                .children
                .iter()
                .map(DesignNode::num_devices)
                .sum::<usize>()
    }

    /// Validates every layout in the subtree against the design rules.
    ///
    /// # Errors
    ///
    /// Returns all violations, tagged with the offending node's name.
    pub fn validate_tree(&self) -> Result<(), Vec<(String, Violation)>> {
        let mut bad = Vec::new();
        if let Some((g, readouts)) = &self.layout {
            if let Err(vs) = validate(g, *readouts) {
                bad.extend(vs.into_iter().map(|v| (self.name.clone(), v)));
            }
        }
        for child in &self.children {
            if let Err(vs) = child.validate_tree() {
                bad.extend(vs);
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Renders the tree as indented text (the Figs. 1/2/8/11 view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let tag = match self.level {
            Level::Module => "module",
            Level::Cell => "cell",
            Level::Device => "device",
        };
        let _ = write!(out, "{}{} [{}]", "  ".repeat(depth), self.name, tag);
        if !self.ops.is_empty() {
            let ops: Vec<&str> = self.ops.iter().map(|o| o.op.as_str()).collect();
            let _ = write!(out, " ops: {}", ops.join(", "));
        }
        if self.num_devices() > 0 && self.children.is_empty() {
            let _ = write!(out, " ({} devices)", self.num_devices());
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Builds the Fig. 1 entanglement-distillation hierarchy from a device pair:
/// input memory (two Register cells) → distillation (one ParCheck) → output
/// memory (one Register), all characterized through the cell library with
/// the snapshot's per-slot overrides applied to every cell. An empty
/// snapshot builds the uncalibrated tree.
pub fn distillation_design(
    lib: &CellLibrary,
    compute: &DeviceSpec,
    storage: &DeviceSpec,
    calib: &CalibSnapshot,
) -> DesignNode {
    let reg_cell = |name: &str| {
        let mut cell = RegisterCell::build(compute.clone(), storage.clone())
            .expect("register obeys the design rules");
        cell.calibrate(calib);
        let ch = lib.get_with_calib::<RegisterCell>(compute, storage, calib);
        DesignNode::leaf_cell(name, cell.layout().clone(), cell.required_readouts())
            .with_op(ch.load.clone())
    };
    let parcheck = {
        let mut cell = ParCheckCell::build(compute.clone(), compute.clone())
            .expect("parcheck obeys the design rules");
        cell.calibrate(calib);
        let ch = lib.get_with_calib::<ParCheckCell>(compute, compute, calib);
        DesignNode::leaf_cell("parcheck", cell.layout().clone(), cell.required_readouts())
            .with_op(ch.parity.clone())
    };
    DesignNode::new("entanglement-distillation", Level::Module)
        .with_child(
            DesignNode::new("input-memory", Level::Module)
                .with_child(reg_cell("register-0"))
                .with_child(reg_cell("register-1")),
        )
        .with_child(DesignNode::new("distill", Level::Module).with_child(parcheck))
        .with_child(
            DesignNode::new("output-memory", Level::Module).with_child(reg_cell("register-out")),
        )
}

/// Builds the Fig. 8 universal-error-correction hierarchy: a USC (optionally
/// chained with USC-EXTs) under one module node, calibrated like
/// [`distillation_design`].
pub fn uec_design(
    lib: &CellLibrary,
    compute: &DeviceSpec,
    storage: &DeviceSpec,
    n_ext: usize,
    calib: &CalibSnapshot,
) -> DesignNode {
    let mut layout = UscChain::new(compute.clone(), storage.clone(), n_ext)
        .expect("chain obeys the design rules")
        .layout()
        .clone();
    layout.calibrate(calib);
    let ch = lib.get_with_calib::<UscCell>(compute, storage, calib);
    // The chain is a composite (base USC + n_ext extensions, one readout
    // ancilla each), not a single Cell, so its readout budget is counted
    // here rather than through `required_readouts`.
    let usc_leaf = DesignNode::leaf_cell("usc-chain", layout, 1 + n_ext).with_op(ch.check2.clone());
    DesignNode::new("universal-error-correction", Level::Module).with_child(usc_leaf)
}

/// Builds the Fig. 11 code-teleportation hierarchy: distillation + two CAT
/// generators (SeqOp) + two UEC modules.
pub fn ct_design(lib: &CellLibrary, compute: &DeviceSpec, storage: &DeviceSpec) -> DesignNode {
    let nominal = CalibSnapshot::default();
    let cat = |name: &str| {
        let cell = SeqOpCell::build(compute.clone(), storage.clone())
            .expect("seqop obeys the design rules");
        let ch = lib.get::<SeqOpCell>(compute, storage);
        DesignNode::leaf_cell(name, cell.layout().clone(), cell.required_readouts())
            .with_op(ch.seq_cnot.clone())
            .with_op(ch.parity.clone())
    };
    DesignNode::new("code-teleportation", Level::Module)
        .with_child(distillation_design(lib, compute, storage, &nominal))
        .with_child(DesignNode::new("cat-generator-a", Level::Module).with_child(cat("seqop-a")))
        .with_child(DesignNode::new("cat-generator-b", Level::Module).with_child(cat("seqop-b")))
        .with_child(uec_design(lib, compute, storage, 0, &nominal))
        .with_child(uec_design(lib, compute, storage, 0, &nominal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_devices::calib::CalibParams;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};

    fn devices() -> (hetarch_devices::DeviceSpec, hetarch_devices::DeviceSpec) {
        (
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(12.5e-3),
        )
    }

    #[test]
    fn distillation_tree_structure() {
        let lib = CellLibrary::new();
        let (c, s) = devices();
        let tree = distillation_design(&lib, &c, &s, &CalibSnapshot::default());
        assert_eq!(tree.children().len(), 3);
        assert!(tree.find("input-memory/register-0").is_some());
        assert!(tree.find("distill/parcheck").is_some());
        assert!(tree.find("nonexistent").is_none());
        // 3 registers x 2 devices + 1 parcheck x 2 devices.
        assert_eq!(tree.num_devices(), 8);
        tree.validate_tree()
            .expect("rule-compliant by construction");
    }

    #[test]
    fn footprint_rolls_up_from_leaves() {
        let lib = CellLibrary::new();
        let (c, s) = devices();
        let tree = distillation_design(&lib, &c, &s, &CalibSnapshot::default());
        let total = tree.footprint();
        let sub: f64 = tree
            .children()
            .iter()
            .map(|ch| ch.footprint().area_mm2)
            .sum();
        assert!((total.area_mm2 - sub).abs() < 1e-9);
        assert_eq!(total.capacity, 3 * 10 + 3 + 2); // 3 resonators + 5 qubits
                                                    // Exactly one readout line (the ParCheck ancilla, DR4).
        assert_eq!(total.control.readout_lines, 1);
    }

    #[test]
    fn ct_tree_contains_five_submodules() {
        let lib = CellLibrary::new();
        let (c, s) = devices();
        let tree = ct_design(&lib, &c, &s);
        assert_eq!(tree.children().len(), 5);
        tree.validate_tree().expect("rule-compliant");
        // Ops bubble up: the SeqOp leaves expose seq_cnot + parity.
        let cat = tree.find("cat-generator-a/seqop-a").unwrap();
        assert_eq!(cat.ops().len(), 2);
    }

    #[test]
    fn render_shows_all_levels() {
        let lib = CellLibrary::new();
        let (c, s) = devices();
        let text = uec_design(&lib, &c, &s, 1, &CalibSnapshot::default()).render();
        assert!(text.contains("universal-error-correction [module]"));
        assert!(text.contains("usc-chain [cell]"));
        assert!(text.contains("ops: z_check_w2"));
    }

    #[test]
    fn calibration_reaches_every_leaf_and_keeps_the_rules() {
        let lib = CellLibrary::new();
        let (c, s) = devices();
        let mut calib = CalibSnapshot::default();
        for label in ["parcheck/a", "ext0/c1"] {
            calib.qubits.insert(
                label.to_string(),
                CalibParams {
                    gate_2q_error: Some(0.02),
                    ..CalibParams::default()
                },
            );
        }
        let nominal = distillation_design(&lib, &c, &s, &CalibSnapshot::default());
        let fleet = distillation_design(&lib, &c, &s, &calib);
        fleet
            .validate_tree()
            .expect("calibration keeps the layout shape");
        let parity = |tree: &DesignNode| tree.find("distill/parcheck").unwrap().ops()[0].fidelity;
        assert!(parity(&fleet) < parity(&nominal));
        assert_eq!(fleet.footprint(), nominal.footprint());
        let chain = uec_design(&lib, &c, &s, 1, &calib);
        chain
            .validate_tree()
            .expect("calibration keeps the layout shape");
        assert_eq!(chain.num_devices(), 12);
    }

    #[test]
    fn invalid_layout_is_reported_with_node_name() {
        let mut g = DeviceGraph::new();
        let s1 = g.add_device("s1", coherence_limited_storage(1e-3), false);
        let s2 = g.add_device("s2", coherence_limited_storage(1e-3), false);
        g.connect(s1, s2); // storage-storage: violates DR2
        let tree = DesignNode::new("root", Level::Module)
            .with_child(DesignNode::leaf_cell("bad-cell", g, 0));
        let errs = tree.validate_tree().unwrap_err();
        assert!(errs.iter().all(|(name, _)| name == "bad-cell"));
        assert!(!errs.is_empty());
    }
}
