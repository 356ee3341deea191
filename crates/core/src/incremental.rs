//! Arrival reuse driven by splice certificates.
//!
//! The graph pass hands each arrival pass a [`CaseDelta`]: the graph
//! fingerprint the arcs now reflect and, when the pass reused,
//! revalidated or spliced its graph, the fingerprint they reflected
//! before plus exactly which nodes have an in-arc whose delay/τ words
//! changed in between. The cache keeps one arrival snapshot per case,
//! tagged with the graph fingerprint it was taken under. A certificate
//! naming that fingerprint is served by [`crate::propagate`]'s cone
//! walk, which patches the snapshot's node-order rows in place: only
//! the fanout closure of the listed nodes is re-evaluated, by the same
//! per-node evaluation the full walk uses, and every other row stays as
//! it was — bit-identical to the full walk. A phase case's race state
//! ([`RaceState`]) rides along, re-derived over the same cone.
//!
//! A case with a cyclic residue keeps a snapshot only when the residue
//! screen *diverged* (the combinational view of a latch design): the
//! residue then sits at its seed values and its unresolved list and
//! warning are fixed, so a certified step re-relaxes only the leveled
//! part of the cone — nothing leveled lies downstream of the residue.
//! The verdict can move only when an arc's delay or a cone node's
//! arrival changes finiteness; either falls back to the full walk.
//!
//! Everything else is a plain full walk: a rebuilt graph (no
//! certificate), a snapshot the certificate does not name, a converging
//! residue (the worklist relaxation has no per-node reuse story), an
//! armed deadline, a cone covering more than half the graph, or a
//! slope-model change (slope acts at propagation time, where no graph
//! fingerprint sees it, so it drops every snapshot).

use tv_clocks::latch::Latch;
use tv_netlist::{Diagnostic, FxHashMap, Netlist, NodeId};
use tv_rc::SlopeModel;

use crate::graph::TimingGraph;
use crate::hold::{RaceHazard, RaceState};
use crate::propagate::{
    node_mask, propagate_cone, propagate_full, Arrivals, Completion, Guards, PhaseResult,
};

/// Which propagation engine served one analysis case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseEngine {
    /// The demand-driven cone engine: only the affected fanout cone was
    /// re-relaxed over a cached snapshot.
    Cone,
    /// The full levelized walk — cold, a converging residue, an
    /// oversized cone, a finiteness flip, or a deadline guard armed.
    Full,
}

/// Reuse statistics for one analysis case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStats {
    /// The case: `Some(p)` for phase `p`, `None` for all-active.
    pub case: Option<u8>,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Nodes the certificate left to re-evaluate (the affected cone);
    /// every node when the case was not certified.
    pub recomputed: usize,
    /// Which engine produced the arrivals.
    pub engine: CaseEngine,
}

impl CaseStats {
    /// Nodes whose arrivals were copied from the cache.
    pub fn reused(&self) -> usize {
        self.nodes - self.recomputed
    }
}

/// What the graph pass certifies about a case's arcs.
pub(crate) struct CaseDelta {
    /// Graph-pass input fingerprint the arcs currently reflect.
    pub(crate) graph_fp: u64,
    /// When known: the fingerprint the arcs previously reflected, and
    /// exactly the node indices with an in-arc whose delay/τ words
    /// changed since (empty after a reuse or revalidation). The
    /// certifying pass also guarantees arc structure and the case's
    /// source and endpoint sets are unchanged across that step. `None`
    /// means a full rebuild — nothing is certified.
    pub(crate) since: Option<(u64, Vec<u32>)>,
    /// Whether some changed arc's rise or fall delay flipped between
    /// finite and infinite across the certified step.
    pub(crate) flips: bool,
}

/// The parts of a diverged-residue case's result that no certified step
/// can move while the verdict holds.
struct Residue {
    in_residue: Vec<bool>,
    relaxations: usize,
    unresolved: Vec<NodeId>,
    diagnostics: Vec<Diagnostic>,
}

/// A snapshot of one case's finished arrivals.
struct CaseEntry {
    /// Graph-pass input fingerprint the snapshot was taken under.
    graph_fp: u64,
    arrivals: Arrivals,
    /// `Some` when the case's residue diverged; `None` when the graph
    /// is fully leveled.
    residue: Option<Residue>,
    /// The cone of the certified step that produced `graph_fp`, with
    /// the fingerprint it stepped from; `None` after a full walk.
    step: Option<(u64, Vec<u32>)>,
    /// Phase cases: the race state and the graph fingerprint it
    /// reflects.
    race: Option<(u64, RaceState)>,
}

/// The arrival cache a [`crate::PassManager`] holds across analyses.
#[derive(Default)]
pub(crate) struct IncrementalCache {
    /// Bits of the slope model the snapshots were computed under.
    slope: Option<[u64; 2]>,
    cases: FxHashMap<Option<u8>, CaseEntry>,
    stats: Vec<CaseStats>,
}

impl IncrementalCache {
    /// Reuse statistics of the most recent run, one entry per case in
    /// execution order.
    pub(crate) fn last_stats(&self) -> &[CaseStats] {
        &self.stats
    }

    /// Starts a run: clears per-run stats, and drops every snapshot if
    /// the slope model changed since the previous run.
    pub(crate) fn begin_run(&mut self, slope: &SlopeModel) {
        self.stats.clear();
        let key = [slope.k_slope.to_bits(), slope.k_transition.to_bits()];
        if self.slope != Some(key) {
            self.cases.clear();
            self.slope = Some(key);
        }
    }

    /// Propagates one case — through the cone engine when `delta`
    /// certifies a step from this case's snapshot, by a full walk
    /// otherwise — and refreshes the snapshot with the result.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn propagate_case(
        &mut self,
        netlist: &Netlist,
        graph: &TimingGraph,
        sources: &[NodeId],
        endpoints: &[NodeId],
        slope: &SlopeModel,
        guards: Guards,
        delta: &CaseDelta,
    ) -> PhaseResult {
        let n = netlist.node_count();
        let key = graph.case.active;
        let IncrementalCache { cases, stats, .. } = self;

        // Fault plane: a forced certificate corruption. Dropping the
        // snapshot forces the full walk, whose result is bit-identical
        // by the cache's own contract — corruption degrades cost, never
        // answers.
        if tv_fault::fault_point!(tv_fault::Site::CertLookup) {
            tv_obs::incr(tv_obs::Counter::FaultInjected);
            tv_obs::incr(tv_obs::Counter::FaultDegraded);
            cases.remove(&key);
        }

        // The certified seeds: no edit at all when the snapshot already
        // reflects the current arcs, the splice's changed targets when it
        // reflects the arcs just before the certified step — unless an
        // arc flipped finiteness under a diverged residue's verdict.
        let snapshot = cases.get_mut(&key).filter(|e| e.arrivals.rows.len() == n);
        let certified = match (snapshot, &delta.since) {
            (Some(e), _) if e.graph_fp == delta.graph_fp => Some((e, &[][..])),
            (Some(e), Some((prev_fp, changed)))
                if e.graph_fp == *prev_fp && !(delta.flips && e.residue.is_some()) =>
            {
                Some((e, changed.as_slice()))
            }
            _ => None,
        };

        let mut fallback = None;
        if let Some((entry, seeds)) = certified {
            let hit = entry.graph_fp == delta.graph_fp;
            let in_residue = entry.residue.as_ref().map(|r| r.in_residue.as_slice());
            let cone = leveled_cone(graph, seeds, in_residue);
            // The cone engine wins while the affected cone is a minority
            // of the graph; past half the nodes the full walk is at least
            // as good, and an armed deadline always needs the walk's
            // level-boundary checks.
            if guards.deadline.is_none() && cone.len() * 2 <= n {
                tv_obs::add(tv_obs::Counter::ConeSeeds, seeds.len() as u64);
                // Patches the snapshot in place. A flip under a diverged
                // residue falls through to the full walk below, which
                // overwrites or removes this entry either way.
                let (mut result, flipped) =
                    propagate_cone(graph, sources, endpoints, slope, &cone, &mut entry.arrivals);
                if !(flipped && entry.residue.is_some()) {
                    if let Some(r) = &entry.residue {
                        result.cyclic = true;
                        result.relaxations = r.relaxations;
                        result.completion = Completion::BudgetExhausted;
                        result.unresolved.clone_from(&r.unresolved);
                        result.diagnostics.clone_from(&r.diagnostics);
                    }
                    let recomputed = cone.len();
                    entry.step = Some((entry.graph_fp, cone));
                    entry.graph_fp = delta.graph_fp;
                    tv_obs::incr(if hit {
                        tv_obs::Counter::CacheCaseHits
                    } else {
                        tv_obs::Counter::CacheCaseMisses
                    });
                    tv_obs::add(tv_obs::Counter::CacheNodesReused, (n - recomputed) as u64);
                    tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, recomputed as u64);
                    stats.push(CaseStats {
                        case: key,
                        nodes: n,
                        recomputed,
                        engine: CaseEngine::Cone,
                    });
                    return result;
                }
            }
            fallback = Some((hit, cone.len()));
        }

        let (result, diverged) =
            propagate_full(netlist, graph, sources, endpoints, slope, guards, None);
        let residue = diverged.then(|| Residue {
            in_residue: node_mask(n, graph.schedule.residue.iter().map(|&r| r as usize)),
            relaxations: result.relaxations,
            unresolved: result.unresolved.clone(),
            diagnostics: result.diagnostics.clone(),
        });
        if graph.schedule.residue.is_empty() || residue.is_some() {
            cases.insert(
                key,
                CaseEntry {
                    graph_fp: delta.graph_fp,
                    arrivals: result.arrivals.clone(),
                    residue,
                    step: None,
                    race: None,
                },
            );
        } else {
            cases.remove(&key);
        }
        let recomputed = match fallback {
            Some((hit, recomputed)) => {
                tv_obs::incr(tv_obs::Counter::ConeFallbacks);
                tv_obs::incr(if hit {
                    tv_obs::Counter::CacheCaseHits
                } else {
                    tv_obs::Counter::CacheCaseMisses
                });
                tv_obs::add(tv_obs::Counter::CacheNodesReused, (n - recomputed) as u64);
                recomputed
            }
            None => {
                tv_obs::incr(tv_obs::Counter::CacheCaseMisses);
                n
            }
        };
        tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, recomputed as u64);
        stats.push(CaseStats {
            case: key,
            nodes: n,
            recomputed,
            engine: CaseEngine::Full,
        });
        result
    }

    /// Same-phase race hazards of phase `p`, whose arrivals were just
    /// propagated: re-derived over the arrival step's cone when the
    /// case's race state reflects the graph that step started from,
    /// computed in full (and kept when exact) otherwise.
    pub(crate) fn race_case(
        &mut self,
        netlist: &Netlist,
        graph: &TimingGraph,
        latches: &[Latch],
        p: u8,
    ) -> Vec<RaceHazard> {
        let Some(entry) = self.cases.get_mut(&Some(p)) else {
            return RaceState::cold(netlist, graph, latches, p).hazards;
        };
        if let (Some((race_fp, race)), Some((from_fp, cone))) = (&mut entry.race, &entry.step) {
            if race_fp == from_fp {
                race.update(graph, cone);
                *race_fp = entry.graph_fp;
            }
        }
        match &entry.race {
            Some((race_fp, race)) if *race_fp == entry.graph_fp => race.hazards.clone(),
            _ => {
                let race = RaceState::cold(netlist, graph, latches, p);
                let hazards = race.hazards.clone();
                entry.race = race.exact.then_some((entry.graph_fp, race));
                hazards
            }
        }
    }
}

/// The leveled nodes a certified step re-relaxes, in level order: the
/// fanout closure of `seeds`, stopped at residue nodes (`in_residue`,
/// for a diverged case), which sit at their seed values — and nothing
/// leveled lies downstream of a residue node.
fn leveled_cone(graph: &TimingGraph, seeds: &[u32], in_residue: Option<&[bool]>) -> Vec<u32> {
    // Residue nodes start marked, so the closure never enters them, and
    // the level order lists leveled nodes only.
    let mut marked = in_residue.map_or_else(|| vec![false; graph.node_count()], <[bool]>::to_vec);
    let seeds: Vec<usize> = seeds
        .iter()
        .map(|&s| s as usize)
        .filter(|&s| !marked[s])
        .collect();
    for &s in &seeds {
        marked[s] = true;
    }
    graph.fanout_closure(&mut marked, seeds);
    let order = graph.schedule.order.iter().copied();
    order.filter(|&i| marked[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PhaseCase;
    use crate::options::DelayModel;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    /// An inverter chain off input `a`, with an optional extra wiring
    /// cap on stage `cap_at`, so two builds differ by one physical edit.
    fn chain(n: usize, cap_at: Option<usize>) -> tv_netlist::Netlist {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let mut prev = a;
        for i in 0..n {
            let nx = b.node(format!("s{i}"));
            b.inverter(format!("i{i}"), prev, nx);
            if cap_at == Some(i) {
                b.add_cap(nx, 0.3).unwrap();
            }
            prev = nx;
        }
        b.finish().unwrap()
    }

    fn graph_and_sources(nl: &tv_netlist::Netlist) -> (TimingGraph, Vec<NodeId>, Vec<NodeId>) {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(
            nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let src: Vec<NodeId> = nl.inputs().to_vec();
        let eps: Vec<NodeId> = nl
            .node_ids()
            .filter(|&i| !nl.node(i).role().is_rail())
            .collect();
        (g, src, eps)
    }

    /// An uncertified delta: a full rebuild under fingerprint `fp`.
    fn full(fp: u64) -> CaseDelta {
        CaseDelta {
            graph_fp: fp,
            since: None,
            flips: false,
        }
    }

    /// The exact certificate for the step `before` → `after` (same arc
    /// structure): the targets of arcs whose delay/τ words differ.
    fn certify(prev_fp: u64, fp: u64, before: &TimingGraph, after: &TimingGraph) -> CaseDelta {
        let words = |a: &crate::graph::Arc| {
            [a.rise_delay, a.fall_delay, a.rise_tau, a.fall_tau].map(f64::to_bits)
        };
        let mut changed: Vec<u32> = before
            .arcs
            .iter()
            .zip(&after.arcs)
            .filter(|(x, y)| words(x) != words(y))
            .map(|(_, y)| y.to.index() as u32)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        CaseDelta {
            graph_fp: fp,
            since: Some((prev_fp, changed)),
            flips: false,
        }
    }

    /// Asserts two phase results agree bit-for-bit: arrivals, transition
    /// times, predecessor records, endpoints, and the charged relaxation
    /// count (the figure the golden fingerprint hashes).
    fn assert_bit_identical(nl: &tv_netlist::Netlist, a: &PhaseResult, b: &PhaseResult) {
        for i in nl.node_ids() {
            let (x, y) = (&a.arrivals.rows[i.index()], &b.arrivals.rows[i.index()]);
            assert_eq!(x.bits(), y.bits(), "row diverged at node {i:?}");
        }
        assert_eq!(a.relaxations, b.relaxations, "charged relaxations differ");
        assert_eq!(a.endpoints.len(), b.endpoints.len());
        for (x, y) in a.endpoints.iter().zip(&b.endpoints) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    /// Runs `delta` warm against a cache primed cold on `before`, and
    /// returns the warm result, its stats, and a cold walk of `nl`.
    fn warm_step(
        before: &tv_netlist::Netlist,
        nl: &tv_netlist::Netlist,
        delta: impl FnOnce(&TimingGraph, &TimingGraph) -> CaseDelta,
        guards: Guards,
    ) -> (PhaseResult, CaseStats, PhaseResult) {
        let slope = SlopeModel::calibrated();
        let mut cache = IncrementalCache::default();
        let (g0, src0, eps0) = graph_and_sources(before);
        cache.begin_run(&slope);
        cache.propagate_case(before, &g0, &src0, &eps0, &slope, guards, &full(1));
        let (g, src, eps) = graph_and_sources(nl);
        let delta = delta(&g0, &g);
        cache.begin_run(&slope);
        let warm = cache.propagate_case(nl, &g, &src, &eps, &slope, guards, &delta);
        let cold = crate::propagate::propagate(nl, &g, &src, &eps, &slope);
        (warm, cache.last_stats()[0], cold)
    }

    #[test]
    fn matching_graph_fp_serves_the_snapshot() {
        // The snapshot already reflects the current arcs: a zero-seed
        // cone serves it as-is, bit-identical, relaxations charged.
        let nl = chain(6, None);
        let (warm, stats, cold) = warm_step(&nl, &nl, |_, _| full(1), Guards::default());
        assert_eq!(stats.recomputed, 0);
        assert_eq!(stats.reused(), nl.node_count());
        assert_eq!(stats.engine, CaseEngine::Cone);
        assert_bit_identical(&nl, &cold, &warm);
    }

    #[test]
    fn certified_empty_delta_reuses_everything_and_chains() {
        // A certificate naming the snapshot's fingerprint with nothing
        // changed: the new fingerprint is adopted without recomputing,
        // and a third run certified against it still reuses everything.
        let nl = chain(5, None);
        let (g, src, eps) = graph_and_sources(&nl);
        let slope = SlopeModel::calibrated();
        let mut cache = IncrementalCache::default();
        let guards = Guards::default();
        cache.begin_run(&slope);
        let cold = cache.propagate_case(&nl, &g, &src, &eps, &slope, guards, &full(7));
        for (prev, fp) in [(7, 8), (8, 9)] {
            let step = CaseDelta {
                graph_fp: fp,
                since: Some((prev, Vec::new())),
                flips: false,
            };
            cache.begin_run(&slope);
            let warm = cache.propagate_case(&nl, &g, &src, &eps, &slope, guards, &step);
            assert_eq!(cache.last_stats()[0].recomputed, 0);
            assert_bit_identical(&nl, &cold, &warm);
        }
    }

    #[test]
    fn uncertified_or_stale_delta_is_a_full_walk() {
        // A rebuild (no certificate) and a certificate naming a
        // fingerprint the cache never stored both walk every node.
        let nl = chain(5, None);
        for delta in [
            full(2),
            CaseDelta {
                graph_fp: 9,
                since: Some((8, Vec::new())),
                flips: false,
            },
        ] {
            let (warm, stats, cold) = warm_step(&nl, &nl, |_, _| delta, Guards::default());
            assert_eq!(stats.engine, CaseEngine::Full);
            assert_eq!(stats.recomputed, nl.node_count());
            assert_bit_identical(&nl, &cold, &warm);
        }
    }

    #[test]
    fn slope_change_drops_every_snapshot() {
        let nl = chain(4, None);
        let (g, src, eps) = graph_and_sources(&nl);
        let mut cache = IncrementalCache::default();
        let guards = Guards::default();
        let slope = SlopeModel::calibrated();
        cache.begin_run(&slope);
        cache.propagate_case(&nl, &g, &src, &eps, &slope, guards, &full(1));
        // Same graph fingerprint, different slope handling: every cached
        // arrival is invalid.
        let off = SlopeModel::disabled();
        cache.begin_run(&off);
        cache.propagate_case(&nl, &g, &src, &eps, &off, guards, &full(1));
        assert_eq!(cache.last_stats()[0].recomputed, nl.node_count());
    }

    #[test]
    fn certified_cone_is_bit_identical_to_full_walk() {
        // A cap edit near the tail of a deep chain: the certificate names
        // only the edited stage's targets, the affected cone is a strict
        // minority, and the cone engine must reproduce the full walk bit
        // for bit, preds included.
        let (before, after) = (chain(8, None), chain(8, Some(6)));
        let (warm, stats, cold) = warm_step(
            &before,
            &after,
            |a, b| certify(1, 2, a, b),
            Guards::default(),
        );
        assert_eq!(stats.engine, CaseEngine::Cone, "cone engine should run");
        assert!(stats.recomputed > 0 && stats.recomputed * 2 <= stats.nodes);
        assert_bit_identical(&after, &cold, &warm);
        assert_eq!(warm.relaxations, cold.relaxations, "charge-equivalence");
    }

    #[test]
    fn edit_recomputes_only_downstream_cone() {
        // Two parallel chains off separate inputs; a cap edit on one
        // leaves the other entirely to the snapshot.
        let build = |cap: bool| {
            let mut b = NetlistBuilder::new(Tech::nmos4um());
            for chain in ["a", "c"] {
                let mut prev = b.input(chain);
                for i in 0..4 {
                    let nx = b.node(format!("s{chain}{i}"));
                    b.inverter(format!("i{chain}{i}"), prev, nx);
                    if cap && chain == "c" && i == 1 {
                        b.add_cap(nx, 0.3).unwrap();
                    }
                    prev = nx;
                }
            }
            b.finish().unwrap()
        };
        let (before, after) = (build(false), build(true));
        let (warm, stats, cold) = warm_step(
            &before,
            &after,
            |a, b| certify(1, 2, a, b),
            Guards::default(),
        );
        assert!(stats.recomputed > 0, "the edited cone re-runs");
        assert!(
            stats.recomputed < after.node_count(),
            "the untouched chain is reused ({} of {})",
            stats.recomputed,
            stats.nodes
        );
        assert_bit_identical(&after, &cold, &warm);
    }

    #[test]
    fn oversized_cone_falls_back_to_full_walk() {
        // The same edit at the chain's head: the cone covers a majority
        // of the graph, so the full walk runs — still bit-identical.
        let (before, after) = (chain(6, None), chain(6, Some(0)));
        let (warm, stats, cold) = warm_step(
            &before,
            &after,
            |a, b| certify(1, 2, a, b),
            Guards::default(),
        );
        assert_eq!(
            stats.engine,
            CaseEngine::Full,
            "majority cone must fall back"
        );
        assert_bit_identical(&after, &cold, &warm);
    }

    #[test]
    fn armed_deadline_forces_full_walk() {
        // A deadline needs the full walk's level-boundary checks, so the
        // cone engine must not run even when the snapshot is current.
        let nl = chain(5, None);
        let far_off = Guards {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Guards::default()
        };
        let (warm, stats, cold) = warm_step(&nl, &nl, |_, _| full(1), far_off);
        assert_eq!(stats.engine, CaseEngine::Full);
        assert_eq!(stats.recomputed, 0, "the certificate named no change");
        assert_bit_identical(&nl, &cold, &warm);
    }

    /// A three-inverter ring, kicked by input `kick` when `kicked`,
    /// beside an inverter chain off input `a` with an optional extra
    /// wiring cap on chain stage `cap_at`.
    fn ring_and_chain(kicked: bool, cap_at: Option<usize>) -> tv_netlist::Netlist {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        if kicked {
            b.nand("g0", &[kick, n2], n0);
        } else {
            b.inverter("g0", n2, n0);
        }
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        let mut prev = b.input("a");
        for i in 0..6 {
            let nx = b.node(format!("s{i}"));
            b.inverter(format!("i{i}"), prev, nx);
            if cap_at == Some(i) {
                b.add_cap(nx, 0.3).unwrap();
            }
            prev = nx;
        }
        b.finish().unwrap()
    }

    /// [`assert_bit_identical`] plus the residue bookkeeping a cyclic
    /// case reports.
    fn assert_same_verdict(nl: &tv_netlist::Netlist, a: &PhaseResult, b: &PhaseResult) {
        assert_bit_identical(nl, a, b);
        assert_eq!(a.cyclic, b.cyclic);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.unresolved, b.unresolved);
        let diags = |r: &PhaseResult| {
            r.diagnostics
                .iter()
                .map(|d| (d.code, d.message.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(diags(a), diags(b));
    }

    #[test]
    fn diverged_residue_case_takes_the_leveled_cone() {
        // The kicked ring's residue diverges: its rows sit at seed
        // values, so a cap edit on the chain re-relaxes only the chain's
        // leveled cone, and the result — unresolved list, warning and
        // charged relaxations included — equals the full walk.
        let (before, after) = (ring_and_chain(true, None), ring_and_chain(true, Some(4)));
        let (warm, stats, cold) = warm_step(
            &before,
            &after,
            |a, b| certify(1, 2, a, b),
            Guards::default(),
        );
        assert!(cold.cyclic, "the kicked ring must diverge");
        assert_eq!(stats.engine, CaseEngine::Cone);
        assert!(stats.recomputed > 0 && stats.recomputed <= 2);
        assert_same_verdict(&after, &cold, &warm);
        // A certified no-change step reuses every row.
        let (warm, stats, cold) = warm_step(&after, &after, |_, _| full(1), Guards::default());
        assert_eq!((stats.engine, stats.recomputed), (CaseEngine::Cone, 0));
        assert_same_verdict(&after, &cold, &warm);
    }

    #[test]
    fn converging_residue_case_keeps_no_snapshot() {
        // An undriven ring never levels but no finite arrival reaches
        // it, so its residue converges: even a certified no-change step
        // walks in full, because no snapshot was kept.
        let nl = ring_and_chain(false, None);
        let (warm, stats, cold) = warm_step(&nl, &nl, |_, _| full(1), Guards::default());
        assert!(!cold.cyclic);
        assert_eq!(stats.engine, CaseEngine::Full);
        assert_eq!(stats.recomputed, nl.node_count());
        assert_same_verdict(&nl, &cold, &warm);
    }

    #[test]
    fn finiteness_flip_forces_the_full_walk() {
        let nl = ring_and_chain(true, None);
        let (g, src, eps) = graph_and_sources(&nl);
        let slope = SlopeModel::calibrated();
        let guards = Guards::default();
        let prime = |cache: &mut IncrementalCache, sources: &[NodeId]| {
            cache.begin_run(&slope);
            cache.propagate_case(&nl, &g, sources, &eps, &slope, guards, &full(1));
        };
        // A certificate whose splice flipped an arc's finiteness may
        // move a diverged residue's verdict: full walk.
        let mut cache = IncrementalCache::default();
        prime(&mut cache, &src);
        let flipped = CaseDelta {
            graph_fp: 2,
            since: Some((1, Vec::new())),
            flips: true,
        };
        cache.begin_run(&slope);
        let warm = cache.propagate_case(&nl, &g, &src, &eps, &slope, guards, &flipped);
        assert_eq!(cache.last_stats()[0].engine, CaseEngine::Full);
        assert_eq!(cache.last_stats()[0].recomputed, nl.node_count());
        let cold = crate::propagate::propagate(&nl, &g, &src, &eps, &slope);
        assert_same_verdict(&nl, &cold, &warm);

        // A cone node whose arrival turns finite does too: a snapshot
        // taken without input `a` driving, stepped with it driving and
        // named as changed.
        let mut cache = IncrementalCache::default();
        let a = nl.node_by_name("a").unwrap();
        let without_a: Vec<NodeId> = src.iter().copied().filter(|&s| s != a).collect();
        prime(&mut cache, &without_a);
        let step = CaseDelta {
            graph_fp: 2,
            since: Some((1, vec![a.index() as u32])),
            flips: false,
        };
        cache.begin_run(&slope);
        let warm = cache.propagate_case(&nl, &g, &src, &eps, &slope, guards, &step);
        assert_eq!(cache.last_stats()[0].engine, CaseEngine::Full);
        assert_same_verdict(&nl, &cold, &warm);
    }

    #[test]
    fn leveled_case_ignores_the_flip_bit() {
        // Without a residue there is no verdict to move: the cone runs.
        let nl = chain(6, None);
        let step = CaseDelta {
            graph_fp: 2,
            since: Some((1, Vec::new())),
            flips: true,
        };
        let (warm, stats, cold) = warm_step(&nl, &nl, |_, _| step, Guards::default());
        assert_eq!(stats.engine, CaseEngine::Cone);
        assert_bit_identical(&nl, &cold, &warm);
    }

    #[test]
    fn race_state_follows_certified_steps_in_place() {
        // Two same-phase latches with logic between, so phase 0 has a
        // race hazard. A certified cap edit re-derives the race state in
        // place over the arrival cone; the hazards equal a cold check.
        let build = |cap: bool| {
            let mut b = NetlistBuilder::new(Tech::nmos4um());
            let phi1 = b.clock("phi1", 0);
            let d = b.input("d");
            let m = b.node("m");
            b.dynamic_latch("first", phi1, d, m);
            let mut prev = m;
            for i in 0..4 {
                let nx = b.node(format!("g{i}"));
                b.inverter(format!("i{i}"), prev, nx);
                if cap && i == 2 {
                    b.add_cap(nx, 0.3).unwrap();
                }
                prev = nx;
            }
            let q = b.node("q");
            b.dynamic_latch("second", phi1, prev, q);
            b.finish().unwrap()
        };
        let phase_graph = |nl: &tv_netlist::Netlist| {
            let flow = analyze(nl, &RuleSet::all());
            let q = qualify_with_flow(nl, &flow);
            let latches = tv_clocks::latch::find_latches(nl, &flow, &q);
            let g = TimingGraph::build(nl, &flow, &q, PhaseCase::phase(0), DelayModel::Elmore, 1.0);
            let src = crate::analyzer::phase_sources(nl, &latches, 0);
            let eps = crate::analyzer::phase_endpoints(nl, &latches, 0);
            (g, latches, src, eps)
        };
        let (before, after) = (build(false), build(true));
        let slope = SlopeModel::calibrated();
        let guards = Guards::default();
        let mut cache = IncrementalCache::default();
        let (g0, latches, src, eps) = phase_graph(&before);
        cache.begin_run(&slope);
        cache.propagate_case(&before, &g0, &src, &eps, &slope, guards, &full(1));
        let cold0 = cache.race_case(&before, &g0, &latches, 0);
        assert_eq!(cold0.len(), 1);
        let buffer = |c: &IncrementalCache| {
            c.cases[&Some(0)]
                .race
                .as_ref()
                .unwrap()
                .1
                .min_arrival_buffer()
                .as_ptr()
        };
        let kept = buffer(&cache);

        let (g, latches, src, eps) = phase_graph(&after);
        cache.begin_run(&slope);
        cache.propagate_case(
            &after,
            &g,
            &src,
            &eps,
            &slope,
            guards,
            &certify(1, 2, &g0, &g),
        );
        assert_eq!(cache.last_stats()[0].engine, CaseEngine::Cone);
        let warm = cache.race_case(&after, &g, &latches, 0);
        assert_eq!(
            buffer(&cache),
            kept,
            "the race state was rebuilt, not updated"
        );
        assert_eq!(warm, crate::hold::race_check(&after, &g, &latches, 0));
        assert_ne!(warm, cold0, "the edit moved the racing minimum");
    }
}
