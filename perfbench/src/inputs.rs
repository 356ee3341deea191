//! Seeded inputs. The program under test receives only what these
//! functions produce: `.sim` text and session command lines.

use tv_clocks::qualify::qualify_with_flow;
use tv_core::propagate::propagate;
use tv_core::{AnalysisOptions, Analyzer, PhaseCase, TimingGraph, SOURCE_RESISTANCE};
use tv_gen::datapath::{datapath, DatapathConfig};
use tv_gen::mips_mc::t6_mips_mc;
use tv_gen::rng::Rng64;
use tv_netlist::{Netlist, NodeId, NodeRole, Tech};

/// Cores in the T5 design: 105,910 devices, far beyond the CPU caches.
pub const T5_CORES: usize = 7;

/// Share of warm-t5 operations that are an edit plus its `analyze`;
/// the rest are `analyze` calls with no edit since the last one.
const WARM_EDIT_SHARE: f64 = 0.8;

/// Reachable `paths` pairs drawn per seed for the served mix.
const PATH_PAIRS: usize = 6;

/// The T5 multi-core design. The design itself is fixed; the seed only
/// chooses what is done to it.
pub fn t5() -> Netlist {
    t6_mips_mc(Tech::nmos4um(), T5_CORES).netlist
}

/// The netlist `demo mips32` builds inside a session, regenerated here so
/// edit targets and `paths` pairs come from the design's own names.
pub fn mips32() -> Netlist {
    datapath(Tech::nmos4um(), DatapathConfig::mips32()).netlist
}

/// A seeded stream of parametric edits on one design.
#[derive(Debug, Clone)]
pub struct EditGen {
    rng: Rng64,
    devices: Vec<String>,
    nodes: Vec<String>,
}

impl EditGen {
    /// Edits on `netlist`. With `sim_names` set, devices are addressed
    /// as `m<index>`, the names the `.sim` reader gives them; otherwise
    /// by the names the generator gave them.
    pub fn new(seed: u64, netlist: &Netlist, sim_names: bool) -> Self {
        let devices = netlist
            .devices()
            .map(|d| {
                if sim_names {
                    format!("m{}", d.id.index())
                } else {
                    d.device.name().to_string()
                }
            })
            .collect();
        let nodes = netlist
            .node_ids()
            .filter(|&id| matches!(netlist.node(id).role(), NodeRole::Internal))
            .map(|id| netlist.node_name(id).to_string())
            .collect();
        EditGen {
            rng: Rng64::new(seed),
            devices,
            nodes,
        }
    }

    /// The next edit command: three resizes to every `setcap`.
    pub fn next_edit(&mut self) -> String {
        if self.rng.bool(0.75) {
            let dev = &self.devices[self.rng.usize_range(0, self.devices.len())];
            let w = self.rng.usize_inclusive(4, 32) as f64 / 2.0;
            let l = self.rng.usize_inclusive(4, 8) as f64 / 2.0;
            format!("edit resize {dev} {w} {l}")
        } else {
            let node = &self.nodes[self.rng.usize_range(0, self.nodes.len())];
            let pf = self.rng.usize_inclusive(1, 40) as f64 / 200.0;
            format!("edit setcap {node} {pf}")
        }
    }

    /// Draws from the stream's own generator (for the caller's mix).
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.bool(p)
    }

    /// A uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.usize_range(0, n)
    }
}

/// One warm-t5 operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmOp {
    /// An edit command, then `analyze`.
    Edit(String),
    /// `analyze` with no edit since the previous one.
    Requery,
}

/// The seeded warm-t5 operation stream over the parsed T5 netlist.
#[derive(Debug, Clone)]
pub struct WarmStream(EditGen);

impl WarmStream {
    /// The stream for `seed`; edit targets are named as the `.sim`
    /// reader names them.
    pub fn new(seed: u64, netlist: &Netlist) -> Self {
        WarmStream(EditGen::new(seed, netlist, true))
    }

    /// The next operation.
    pub fn next_op(&mut self) -> WarmOp {
        if self.0.chance(WARM_EDIT_SHARE) {
            WarmOp::Edit(self.0.next_edit())
        } else {
            WarmOp::Requery
        }
    }
}

/// `(from, to)` node names between which `paths` finds a route, drawn by
/// seed. `paths` propagates from its one source alone, and most sources
/// of this design feed latch loops that stop such a walk, so candidate
/// pairs come from the same single-source walk from each primary input;
/// a drawn pair is kept only when the query answers it.
pub fn reachable_pairs(seed: u64, netlist: &Netlist) -> Vec<(String, String)> {
    let options = AnalysisOptions::default();
    let flow = tv_flow::analyze(netlist, &options.rules);
    let qual = qualify_with_flow(netlist, &flow);
    let graph = TimingGraph::build(
        netlist,
        &flow,
        &qual,
        PhaseCase::all_active(),
        options.model,
        SOURCE_RESISTANCE,
    );
    let every: Vec<NodeId> = netlist.node_ids().collect();
    let mut candidates = Vec::new();
    for &from in netlist.inputs() {
        let r = propagate(netlist, &graph, &[from], &every, &options.slope);
        for &to in &every {
            if to != from && r.arrivals.worst_edge(to).is_some() {
                candidates.push((from, to));
            }
        }
    }
    let mut rng = Rng64::new(seed ^ 0x5041_5448);
    let analyzer = Analyzer::new(netlist);
    let mut pairs = Vec::new();
    for _ in 0..PATH_PAIRS * 4 {
        if pairs.len() == PATH_PAIRS || candidates.is_empty() {
            break;
        }
        let (from, to) = candidates[rng.usize_range(0, candidates.len())];
        if analyzer.path_query(from, to, &options).is_some() {
            pairs.push((
                netlist.node_name(from).to_string(),
                netlist.node_name(to).to_string(),
            ));
        }
    }
    pairs
}

/// One served client's seeded command stream after its warm-up: ~40%
/// edit + `analyze`, ~20% `analyze` with no edit, the rest `flow`,
/// `revision` and `paths` between reachable pairs.
#[derive(Debug, Clone)]
pub struct ServeScript {
    edits: EditGen,
    pairs: Vec<(String, String)>,
    pending_analyze: bool,
}

impl ServeScript {
    /// The stream for one client.
    pub fn new(seed: u64, netlist: &Netlist, pairs: Vec<(String, String)>) -> Self {
        assert!(!pairs.is_empty(), "the served mix needs a reachable pair");
        ServeScript {
            edits: EditGen::new(seed, netlist, false),
            pairs,
            pending_analyze: false,
        }
    }

    /// The next command line.
    pub fn next_line(&mut self) -> String {
        if std::mem::take(&mut self.pending_analyze) {
            return "analyze".into();
        }
        // A quarter of the draws are edits, each followed by its
        // `analyze`: per draw 1.25 requests, of which 0.5 are edit plus
        // `analyze` (40%) and 0.25 a no-edit `analyze` (20%).
        let r = self.edits.index(100);
        if r < 25 {
            self.pending_analyze = true;
            self.edits.next_edit()
        } else if r < 50 {
            "analyze".into()
        } else if r < 67 {
            "flow".into()
        } else if r < 84 {
            "revision".into()
        } else {
            let (f, t) = &self.pairs[self.edits.index(self.pairs.len())];
            format!("paths {f} {t}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let nl = mips32();
        let ops = |seed| {
            let mut s = WarmStream::new(seed, &nl);
            (0..64).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));

        let pairs = reachable_pairs(3, &nl);
        assert_eq!(pairs, reachable_pairs(3, &nl));
        assert!(!pairs.is_empty());
        let lines = |seed| {
            let mut s = ServeScript::new(seed, &nl, pairs.clone());
            (0..200).map(|_| s.next_line()).collect::<Vec<_>>()
        };
        assert_eq!(lines(11), lines(11));
        assert_ne!(lines(11), lines(12));
    }

    #[test]
    fn edit_targets_are_names_of_the_design() {
        let nl = mips32();
        let mut g = EditGen::new(1, &nl, false);
        for _ in 0..50 {
            let line = g.next_edit();
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[1] {
                "resize" => assert!(nl.device_by_name(words[2]).is_some(), "{line}"),
                _ => assert!(nl.node_by_name(words[2]).is_some(), "{line}"),
            }
        }
    }

    #[test]
    fn served_mix_matches_its_stated_shares() {
        let nl = mips32();
        let mut s = ServeScript::new(5, &nl, reachable_pairs(5, &nl));
        let lines: Vec<String> = (0..10_000).map(|_| s.next_line()).collect();
        let share =
            |p: &str| lines.iter().filter(|l| l.starts_with(p)).count() as f64 / lines.len() as f64;
        // Each edit is followed by its `analyze`: together ~40%; the
        // `analyze` calls beyond those are the ~20% with no edit.
        let edits = share("edit");
        assert!((0.15..0.25).contains(&edits), "edit share {edits}");
        let requery = share("analyze") - edits;
        assert!((0.15..0.25).contains(&requery), "requery share {requery}");
    }
}
