//! Race (min-delay) analysis: the *other* failure mode of level-sensitive
//! two-phase design.
//!
//! Setup analysis asks whether the slowest path settles before a phase
//! closes. Race analysis asks the opposite: while a phase is open, every
//! latch of that phase is **transparent**, so if logic connects one
//! φp latch's output back to another φp latch's input, data can shoot
//! through two latches in a single phase — the classic race-through bug
//! the two-phase discipline exists to prevent (correct designs alternate
//! phases). TV-class verifiers reported exactly this structural hazard.
//!
//! The check runs on the per-phase timing graph: from every storage node
//! of the active phase, can another storage node of the same phase be
//! reached? The earliest possible arrival (minimum-delay propagation) is
//! reported as the race margin.

use std::collections::VecDeque;

use tv_clocks::latch::Latch;
use tv_netlist::{Netlist, NodeId};

use crate::graph::{Arc, TimingGraph};

/// A same-phase race-through hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceHazard {
    /// The latch storage node data races *into*.
    pub capture: NodeId,
    /// Earliest arrival at the capture node from some same-phase latch,
    /// ns after the phase opens. Small values are the dangerous ones.
    pub min_arrival: f64,
}

/// Minimum (earliest) arrival at every node from the given sources,
/// `f64::INFINITY` where unreachable. Uses each arc's smaller finite
/// delay — the best case the race needs.
pub fn min_arrivals(netlist: &Netlist, graph: &TimingGraph, sources: &[NodeId]) -> Vec<f64> {
    min_arrivals_run(netlist.node_count(), graph, sources).0
}

/// The smaller of an arc's two delays, when finite.
#[inline]
fn best_delay(arc: &Arc) -> Option<f64> {
    let d = arc.rise_delay.min(arc.fall_delay);
    d.is_finite().then_some(d)
}

/// [`min_arrivals`], plus whether the worklist drained before its
/// budget. A candidate is accepted only when strictly smaller, so a
/// drained worklist leaves every non-source node at exactly the minimum
/// over its in-arcs of `from + delay`: on a leveled graph that system
/// has one solution, whatever order the relaxations ran in.
fn min_arrivals_run(n: usize, graph: &TimingGraph, sources: &[NodeId]) -> (Vec<f64>, bool) {
    let mut arr = vec![f64::INFINITY; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut queued = vec![false; n];
    for &s in sources {
        arr[s.index()] = 0.0;
        if !queued[s.index()] {
            queued[s.index()] = true;
            queue.push_back(s);
        }
    }
    // Monotone decreasing relaxation; terminates on any graph because
    // values only decrease and are bounded below by 0.
    let budget = 64 * (graph.arcs.len() + n).max(1);
    let mut relaxations = 0usize;
    while let Some(node) = queue.pop_front() {
        queued[node.index()] = false;
        if relaxations > budget {
            return (arr, false);
        }
        let here = arr[node.index()];
        for &ai in graph.out_arcs_of(node) {
            let arc = &graph.arcs[ai as usize];
            let Some(d) = best_delay(arc) else {
                continue;
            };
            let cand = here + d;
            let to = arc.to.index();
            relaxations += 1;
            if cand < arr[to] {
                arr[to] = cand;
                if !queued[to] {
                    queued[to] = true;
                    queue.push_back(arc.to);
                }
            }
        }
    }
    (arr, true)
}

/// One phase's race analysis with the state a later certified step
/// re-derives it from: min arrivals from the phase's storage nodes and
/// each storage node's racing (incoming) minimum.
pub(crate) struct RaceState {
    min_arr: Vec<f64>,
    /// The phase's storage nodes in latch order (sources and victims).
    storages: Vec<NodeId>,
    is_storage: Vec<bool>,
    /// Per node: the minimum over its in-arcs of `from + delay`;
    /// meaningful at storage nodes only.
    incoming: Vec<f64>,
    /// The hazards, most dangerous first.
    pub(crate) hazards: Vec<RaceHazard>,
    /// Whether `min_arr` is the unique fixpoint a level-order pull
    /// reproduces: the graph is leveled and the worklist drained.
    pub(crate) exact: bool,
}

impl RaceState {
    /// The full analysis of `phase` over its graph.
    pub(crate) fn cold(
        netlist: &Netlist,
        graph: &TimingGraph,
        latches: &[Latch],
        phase: u8,
    ) -> RaceState {
        let n = netlist.node_count();
        let storages: Vec<NodeId> = latches
            .iter()
            .filter(|l| l.phase == phase)
            .map(|l| l.storage)
            .collect();
        let (min_arr, drained) = if storages.is_empty() {
            (vec![f64::INFINITY; n], true)
        } else {
            min_arrivals_run(n, graph, &storages)
        };
        let mut is_storage = vec![false; n];
        for &s in &storages {
            is_storage[s.index()] = true;
        }
        let mut state = RaceState {
            min_arr,
            incoming: vec![f64::INFINITY; n],
            is_storage,
            hazards: Vec::new(),
            exact: drained && graph.schedule.residue.is_empty(),
            storages,
        };
        for k in 0..state.storages.len() {
            let s = state.storages[k].index();
            state.incoming[s] = state.incoming_min(graph, s);
        }
        state.collect_hazards();
        state
    }

    /// Re-derives the state after a certified step whose arrival cone
    /// is `cone` (level order, forward-closed, leveled nodes only):
    /// min arrivals are re-pulled over the cone, and racing minima are
    /// recomputed at the storage nodes inside it. Requires
    /// [`RaceState::exact`]; the result equals [`RaceState::cold`] on
    /// the current graph bit for bit.
    pub(crate) fn update(&mut self, graph: &TimingGraph, cone: &[u32]) {
        debug_assert!(self.exact);
        for &v in cone {
            let v = v as usize;
            self.min_arr[v] = if self.is_storage[v] {
                0.0
            } else {
                self.incoming_min(graph, v)
            };
        }
        let mut moved = false;
        for &v in cone {
            let v = v as usize;
            if self.is_storage[v] {
                let m = self.incoming_min(graph, v);
                moved |= m.to_bits() != self.incoming[v].to_bits();
                self.incoming[v] = m;
            }
        }
        if moved {
            self.collect_hazards();
        }
    }

    /// The min-arrival buffer, for tests that check it is updated in
    /// place.
    #[cfg(test)]
    pub(crate) fn min_arrival_buffer(&self) -> &[f64] {
        &self.min_arr
    }

    /// The minimum over `v`'s in-arcs of `from + delay` (`min` is
    /// order-independent, so any in-arc order gives the same bits).
    fn incoming_min(&self, graph: &TimingGraph, v: usize) -> f64 {
        let mut m = f64::INFINITY;
        for &ai in graph.in_arcs_of_index(v) {
            let arc = &graph.arcs[ai as usize];
            if let Some(d) = best_delay(arc) {
                m = m.min(self.min_arr[arc.from.index()] + d);
            }
        }
        m
    }

    fn collect_hazards(&mut self) {
        self.hazards = self
            .storages
            .iter()
            .filter_map(|&s| {
                let m = self.incoming[s.index()];
                m.is_finite().then_some(RaceHazard {
                    capture: s,
                    min_arrival: m,
                })
            })
            .collect();
        self.hazards
            .sort_by(|a, b| a.min_arrival.total_cmp(&b.min_arrival));
    }
}

/// Finds same-phase race-through hazards in one phase's graph: storage
/// nodes of `phase` reachable *through at least one arc* from storage
/// nodes of the same phase. Results are sorted by margin (most dangerous
/// first).
pub fn race_check(
    netlist: &Netlist,
    graph: &TimingGraph,
    latches: &[Latch],
    phase: u8,
) -> Vec<RaceHazard> {
    RaceState::cold(netlist, graph, latches, phase).hazards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PhaseCase, TimingGraph};
    use crate::options::DelayModel;
    use tv_clocks::latch::find_latches;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn setup(nl: &Netlist, phase: u8) -> (TimingGraph, Vec<Latch>) {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let latches = find_latches(nl, &flow, &q);
        let g = TimingGraph::build(
            nl,
            &flow,
            &q,
            PhaseCase::phase(phase),
            DelayModel::Elmore,
            1.0,
        );
        (g, latches)
    }

    #[test]
    fn proper_master_slave_has_no_race() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let d = b.input("d");
        let m = b.node("m");
        b.dynamic_latch("master", phi1, d, m);
        let q = b.node("q");
        b.dynamic_latch("slave", phi2, m, q);
        let nl = b.finish().unwrap();
        for phase in 0..2u8 {
            let (g, latches) = setup(&nl, phase);
            assert!(
                race_check(&nl, &g, &latches, phase).is_empty(),
                "phase {phase} raced"
            );
        }
    }

    #[test]
    fn two_same_phase_latches_in_series_race() {
        // The classic bug: both latches on φ1 — transparent together.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let d = b.input("d");
        let m = b.node("m");
        b.dynamic_latch("first", phi1, d, m);
        let q = b.node("q");
        b.dynamic_latch("second", phi1, m, q);
        let nl = b.finish().unwrap();
        let (g, latches) = setup(&nl, 0);
        let hazards = race_check(&nl, &g, &latches, 0);
        assert_eq!(hazards.len(), 1, "{hazards:?}");
        let second_mem = nl.node_by_name("second_mem").unwrap();
        assert_eq!(hazards[0].capture, second_mem);
        assert!(hazards[0].min_arrival > 0.0);
    }

    #[test]
    fn min_arrivals_are_lower_than_max() {
        use crate::propagate::propagate;
        use tv_rc::SlopeModel;
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let min = min_arrivals(&nl, &g, &[a]);
        let max = propagate(&nl, &g, &[a], &[z], &SlopeModel::calibrated());
        for node in [x, y, z] {
            let lo = min[node.index()];
            let hi = max.arrival(node).unwrap();
            assert!(lo.is_finite());
            assert!(lo <= hi + 1e-12, "min {lo} > max {hi}");
            assert!(lo > 0.0);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let other = b.input("other");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", other, y);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let min = min_arrivals(&nl, &g, &[a]);
        assert!(min[x.index()].is_finite());
        assert!(min[y.index()].is_infinite());
    }

    #[test]
    fn min_arrivals_accept_strictly_smaller_candidates() {
        // x is reached first by a → x (FIFO order) and then by the
        // two-arc path a → y → x, one ulp faster. Strict acceptance
        // must take the faster path even though it improves by less
        // than 1e-15: only then is the result the unique fixpoint a
        // level-order pull reproduces.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let y = b.node("y");
        let x = b.node("x");
        b.inverter("iy", a, y);
        b.nand("gx", &[a, y], x);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let mut g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let slow = 1.0 + f64::EPSILON;
        for arc in &mut g.arcs {
            let d = match (arc.from, arc.to) {
                (f, t) if f == a && t == x => slow,
                (f, t) if f == a && t == y => 0.25,
                (f, t) if f == y && t == x => 0.75,
                _ => continue,
            };
            arc.rise_delay = d;
            arc.fall_delay = d;
        }
        let min = min_arrivals(&nl, &g, &[a]);
        assert_eq!(min[y.index()], 0.25);
        assert_eq!(min[x.index()], 1.0, "the one-ulp-faster path was rejected");
        assert!(min[x.index()] < slow);
    }

    #[test]
    fn warm_update_equals_a_cold_race_check() {
        // Two same-phase latches in series with logic between: a delay
        // change inside the cone moves the racing minimum, and the
        // re-pull over the cone lands exactly where a cold check does.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let d = b.input("d");
        let m = b.node("m");
        b.dynamic_latch("first", phi1, d, m);
        let mut prev = m;
        for i in 0..3 {
            let nx = b.node(format!("g{i}"));
            b.inverter(format!("i{i}"), prev, nx);
            prev = nx;
        }
        let q = b.node("q");
        b.dynamic_latch("second", phi1, prev, q);
        let nl = b.finish().unwrap();
        let (mut g, latches) = setup(&nl, 0);
        let mut state = RaceState::cold(&nl, &g, &latches, 0);
        assert!(state.exact);
        assert_eq!(state.hazards.len(), 1);
        let g1 = nl.node_by_name("g1").unwrap();
        for arc in g.arcs.iter_mut().filter(|a| a.to == g1) {
            arc.rise_delay *= 3.0;
            arc.fall_delay *= 3.0;
        }
        let mut marked = vec![false; nl.node_count()];
        marked[g1.index()] = true;
        g.fanout_closure(&mut marked, vec![g1.index()]);
        let cone: Vec<u32> = g
            .schedule
            .order
            .iter()
            .copied()
            .filter(|&i| marked[i as usize])
            .collect();
        state.update(&g, &cone);
        let cold = race_check(&nl, &g, &latches, 0);
        assert_eq!(state.hazards, cold);
        assert!(cold[0].min_arrival > 0.0);
    }
}
