//! The immutable, fully-indexed netlist produced by [`crate::NetlistBuilder`].

use std::sync::OnceLock;

use crate::cap::CapModel;
use crate::intern::Interner;
use crate::{Device, DeviceId, Node, NodeId, NodeRole, Tech};

/// A device together with its id, as yielded by [`Netlist::devices`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceRef<'a> {
    /// The device's identifier.
    pub id: DeviceId,
    /// The device itself.
    pub device: &'a Device,
}

/// The devices incident on one node, split by how they touch it.
///
/// Returned by [`Netlist::node_devices`]; both slices are sorted by id.
#[derive(Debug, Clone, Copy)]
pub struct NodeDevices<'a> {
    /// Devices whose **gate** is this node (the node drives them).
    pub gated: &'a [DeviceId],
    /// Devices whose **channel** (source or drain) touches this node.
    pub channel: &'a [DeviceId],
}

/// An immutable transistor-level netlist with full connectivity indexes.
///
/// Construct one with [`crate::NetlistBuilder`] or by parsing the `.sim`
/// interchange format ([`crate::sim_format::parse`]). Node ids 0 and 1 are
/// always VDD and GND.
///
/// Node names live in a string [`Interner`]; the gate and channel
/// adjacency are compressed-sparse-row (one offsets array plus one flat
/// payload array each), so a whole netlist is a handful of flat
/// allocations regardless of node count.
///
/// # Example
///
/// ```
/// use tv_netlist::{NetlistBuilder, Tech};
///
/// # fn main() -> Result<(), tv_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Tech::nmos4um());
/// let a = b.input("a");
/// let out = b.output("out");
/// b.inverter("inv0", a, out);
/// let nl = b.finish()?;
/// assert_eq!(nl.node_by_name("out"), Some(out));
/// // The input node sees one transistor gate:
/// assert_eq!(nl.node_devices(a).gated.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) tech: Tech,
    pub(crate) nodes: Vec<Node>,
    pub(crate) devices: Vec<Device>,
    /// Node names. Symbols and node ids are 1:1 (the builder's
    /// get-or-create keeps them dense and parallel), so `node_of_symbol`
    /// doubles as the name→node lookup table.
    pub(crate) names: Interner,
    pub(crate) node_of_symbol: Vec<NodeId>,
    /// CSR offsets/payload: devices whose gate is node `n` occupy
    /// `gate_devs[gate_starts[n] as usize..gate_starts[n + 1] as usize]`.
    pub(crate) gate_starts: Vec<u32>,
    pub(crate) gate_devs: Vec<DeviceId>,
    /// CSR offsets/payload: devices whose source or drain is node `n`.
    pub(crate) channel_starts: Vec<u32>,
    pub(crate) channel_devs: Vec<DeviceId>,
    /// Per node: total capacitance (extra + gate + diffusion), pF.
    pub(crate) total_cap: Vec<f64>,
    /// Role indexes, in id order — cached so per-phase analysis can read
    /// them without allocating.
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) clocks: Vec<(NodeId, u8)>,
    /// Device-name index, built on the first [`Netlist::device_by_name`]
    /// call and kept current by the [`crate::Design`] structural edits.
    pub(crate) device_names: OnceLock<DeviceNames>,
}

/// Interned device names: symbol `s` names device `first[s]`, the
/// lowest id carrying that name (a name may repeat).
#[derive(Debug, Clone)]
pub(crate) struct DeviceNames {
    names: Interner,
    first: Vec<DeviceId>,
}

impl DeviceNames {
    fn build(devices: &[Device]) -> Self {
        let mut index = DeviceNames {
            names: Interner::with_capacity(devices.len()),
            first: Vec::with_capacity(devices.len()),
        };
        for (i, d) in devices.iter().enumerate() {
            index.insert(d.name(), DeviceId(i as u32));
        }
        index
    }

    /// Records `id` under `name` unless a lower id already holds it
    /// (ids are inserted in ascending order).
    pub(crate) fn insert(&mut self, name: &str, id: DeviceId) {
        if self.names.intern(name).index() == self.first.len() {
            self.first.push(id);
        }
    }
}

impl Netlist {
    /// The technology this netlist was extracted in.
    #[inline]
    pub fn tech(&self) -> &Tech {
        &self.tech
    }

    /// The VDD rail node (always id 0).
    #[inline]
    pub fn vdd(&self) -> NodeId {
        NodeId(0)
    }

    /// The GND rail node (always id 1).
    #[inline]
    pub fn gnd(&self) -> NodeId {
        NodeId(1)
    }

    /// Number of nodes, including the two rails.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of transistors.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The name of the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    #[inline]
    pub fn node_name(&self, id: NodeId) -> &str {
        self.names.resolve(self.nodes[id.index()].name)
    }

    /// The device with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this netlist.
    #[inline]
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Looks a node up by name.
    #[inline]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).map(|s| self.node_of_symbol[s.index()])
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all devices with their ids.
    pub fn devices(&self) -> impl ExactSizeIterator<Item = DeviceRef<'_>> + '_ {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, device)| DeviceRef {
                id: DeviceId(i as u32),
                device,
            })
    }

    /// The devices incident on `node`, split into gate vs channel contact.
    #[inline]
    pub fn node_devices(&self, node: NodeId) -> NodeDevices<'_> {
        let i = node.index();
        NodeDevices {
            gated: &self.gate_devs[self.gate_starts[i] as usize..self.gate_starts[i + 1] as usize],
            channel: &self.channel_devs
                [self.channel_starts[i] as usize..self.channel_starts[i + 1] as usize],
        }
    }

    /// Total capacitance on `node` (wiring + gate + diffusion), pF.
    ///
    /// Rails report their (physically meaningless) attached capacitance;
    /// analysis code never charges or discharges a rail.
    #[inline]
    pub fn node_cap(&self, node: NodeId) -> f64 {
        self.total_cap[node.index()]
    }

    /// Sum of capacitance over all non-rail nodes, pF — a proxy for chip
    /// size used in reports.
    pub fn total_capacitance(&self) -> f64 {
        self.node_ids()
            .filter(|&n| !self.node(n).role().is_rail())
            .map(|n| self.node_cap(n))
            .sum()
    }

    /// All primary input nodes, in id order.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// All primary output nodes, in id order.
    #[inline]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All clock nodes with their phase index, in id order.
    #[inline]
    pub fn clocks(&self) -> &[(NodeId, u8)] {
        &self.clocks
    }

    /// Looks a device up by name; with repeated names, the lowest id.
    /// The interned name index is built on the first call (one pass over
    /// the devices), so later lookups cost one hash probe.
    pub fn device_by_name(&self, name: &str) -> Option<DeviceId> {
        let index = self
            .device_names
            .get_or_init(|| DeviceNames::build(&self.devices));
        index.names.get(name).map(|s| index.first[s.index()])
    }

    /// Recomputes the per-node total capacitance table. Called by the
    /// builder on `finish`; exposed for callers that mutate capacitance via
    /// a rebuilt netlist.
    pub(crate) fn recompute_caps(&mut self) {
        let model = CapModel::new(&self.tech);
        self.total_cap = model.node_caps(&self.nodes, &self.devices);
    }

    /// Recomputes the total capacitance of just `nodes` (rails included)
    /// after a parametric edit, bit-identical to [`Netlist::recompute_caps`]:
    /// each sum starts from the wiring cap and adds the gate, source and
    /// drain contributions device by device in ascending id order, as
    /// [`CapModel::node_caps`] does.
    pub(crate) fn recompute_node_caps(&mut self, nodes: &[NodeId]) {
        let model = CapModel::new(&self.tech);
        for &n in nodes {
            let at = self.node_devices(n);
            let (mut g, mut c) = (at.gated.iter().peekable(), at.channel.iter().peekable());
            let mut cap = self.nodes[n.index()].extra_cap();
            // Merge the two id-sorted incidence lists; a device touching
            // `n` by gate and channel (or by both channel ends) is met
            // once per list entry, so skip repeats of the last id.
            let mut last: Option<DeviceId> = None;
            while let Some(&id) = match (g.peek(), c.peek()) {
                (Some(&&a), Some(&&b)) if a <= b => g.next(),
                (Some(_), Some(_)) | (None, Some(_)) => c.next(),
                (Some(_), None) => g.next(),
                (None, None) => None,
            } {
                if last == Some(id) {
                    continue;
                }
                last = Some(id);
                let d = &self.devices[id.index()];
                if d.gate() == n {
                    cap += model.gate_contribution(d.width(), d.length());
                }
                if d.source() == n {
                    cap += model.diffusion_contribution(d.width());
                }
                if d.drain() == n {
                    cap += model.diffusion_contribution(d.width());
                }
            }
            self.total_cap[n.index()] = cap;
        }
    }

    /// Rebuilds every derived index — the gate/channel CSR adjacency, the
    /// role vectors, and the capacitance table — from `nodes` and
    /// `devices`. The builder's `finish` and the [`crate::Design`] edit
    /// API both funnel through here so a structurally edited netlist is
    /// indistinguishable from a freshly built one.
    pub(crate) fn rebuild_indexes(&mut self) {
        let n = self.nodes.len();

        // CSR adjacency in two counting passes: per-node degrees first,
        // prefix sums into offsets, then a cursor pass drops each device
        // into its slot. Device order within a node matches the old
        // nested-Vec push order (ascending device id) by construction.
        let mut gate_starts = vec![0u32; n + 1];
        let mut channel_starts = vec![0u32; n + 1];
        for d in &self.devices {
            gate_starts[d.gate().index() + 1] += 1;
            channel_starts[d.source().index() + 1] += 1;
            channel_starts[d.drain().index() + 1] += 1;
        }
        for i in 0..n {
            gate_starts[i + 1] += gate_starts[i];
            channel_starts[i + 1] += channel_starts[i];
        }
        let mut gate_devs = vec![DeviceId(0); gate_starts[n] as usize];
        let mut channel_devs = vec![DeviceId(0); channel_starts[n] as usize];
        let mut gate_cursor = gate_starts.clone();
        let mut channel_cursor = channel_starts.clone();
        for (i, d) in self.devices.iter().enumerate() {
            let id = DeviceId(i as u32);
            let g = &mut gate_cursor[d.gate().index()];
            gate_devs[*g as usize] = id;
            *g += 1;
            let s = &mut channel_cursor[d.source().index()];
            channel_devs[*s as usize] = id;
            *s += 1;
            let t = &mut channel_cursor[d.drain().index()];
            channel_devs[*t as usize] = id;
            *t += 1;
        }
        self.gate_starts = gate_starts;
        self.gate_devs = gate_devs;
        self.channel_starts = channel_starts;
        self.channel_devs = channel_devs;

        self.inputs.clear();
        self.outputs.clear();
        self.clocks.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            match node.role() {
                NodeRole::Input => self.inputs.push(id),
                NodeRole::Output => self.outputs.push(id),
                NodeRole::Clock(p) => self.clocks.push((id, p)),
                _ => {}
            }
        }
        self.recompute_caps();
    }

    /// Reopens the netlist as a builder for engineering-change-order
    /// edits: everything (nodes, roles, devices, explicit capacitance) is
    /// carried over, and new structure can be added before `finish`ing a
    /// new netlist. Node and device ids of existing elements are
    /// preserved.
    pub fn to_builder(&self) -> crate::NetlistBuilder {
        crate::NetlistBuilder::from_parts(
            self.tech.clone(),
            self.nodes.clone(),
            self.devices.clone(),
            self.names.clone(),
            self.node_of_symbol.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetlistBuilder, Tech};

    #[test]
    fn rails_have_fixed_ids() {
        let b = NetlistBuilder::new(Tech::nmos4um());
        let nl = b.finish().expect("empty netlist is valid");
        assert_eq!(nl.vdd().index(), 0);
        assert_eq!(nl.gnd().index(), 1);
        assert_eq!(nl.node_count(), 2);
        assert_eq!(nl.device_count(), 0);
    }

    #[test]
    fn adjacency_distinguishes_gate_from_channel() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("inv0", a, out);
        let nl = b.finish().unwrap();

        // Input `a` gates the pull-down, touches no channel.
        let at_a = nl.node_devices(a);
        assert_eq!(at_a.gated.len(), 1);
        assert!(at_a.channel.is_empty());

        // `out` touches both channels (pull-up and pull-down) and, being
        // load-connected, also the depletion gate.
        let at_out = nl.node_devices(out);
        assert_eq!(at_out.channel.len(), 2);
        assert_eq!(at_out.gated.len(), 1);
    }

    #[test]
    fn name_lookup_round_trips() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let x = b.node("x");
        let nl = b.finish().unwrap();
        assert_eq!(nl.node_by_name("x"), Some(x));
        assert_eq!(nl.node_by_name("y"), None);
        assert_eq!(nl.node_name(x), "x");
    }

    #[test]
    fn inputs_outputs_clocks_filters() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let q = b.output("q");
        let phi1 = b.clock("phi1", 0);
        let nl = b.finish().unwrap();
        assert_eq!(nl.inputs(), vec![a]);
        assert_eq!(nl.outputs(), vec![q]);
        assert_eq!(nl.clocks(), vec![(phi1, 0)]);
    }

    #[test]
    fn total_capacitance_excludes_rails() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("inv0", a, out);
        b.add_cap(out, 0.5).unwrap();
        let nl = b.finish().unwrap();
        let rail_cap = nl.node_cap(nl.vdd()) + nl.node_cap(nl.gnd());
        let sum: f64 = nl.node_ids().map(|n| nl.node_cap(n)).sum();
        assert!((nl.total_capacitance() - (sum - rail_cap)).abs() < 1e-12);
        assert!(nl.node_cap(out) >= 0.5);
    }
}
