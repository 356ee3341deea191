//! Worst-case arrival-time propagation over the timing graph.
//!
//! # One walk
//!
//! Arrivals live in node order, one `Row` per node: the worst rise and
//! fall arrival, the transition of the waveform achieving each, and
//! each edge's predecessor. One function, `eval_node`, evaluates a
//! leveled node *pull*-style: its row is the maximum over its in-arcs,
//! in ascending arc-id order, read from its predecessors' rows. Every
//! predecessor of a leveled node sits at a strictly lower level of the
//! [`crate::graph::LevelSchedule`], so a walk in level order reads only
//! final rows. Three callers share the evaluation:
//!
//! 1. **The full walk** ([`propagate`]) seeds every row, evaluates each
//!    level in place, and finishes the **residue** — nodes on or
//!    downstream of a combinational cycle, which never level — with a
//!    divergence screen and a budgeted worklist relaxation seeded from
//!    the already-final leveled frontier. Genuine cycles are reported
//!    via [`PhaseResult::cyclic`].
//! 2. **The degraded pass.** Each level runs under `catch_unwind`; a
//!    panic leaves the level to a per-node re-evaluation, each node
//!    isolated on its own. A level reads only earlier levels, so rows
//!    its first attempt already wrote are rewritten with the same bits,
//!    and a node that panics again keeps its seed ("no arrival").
//! 3. **The cone walk** ([`propagate_cone`]): given a cached snapshot and
//!    the forward-closed affected set of a certified edit, it patches
//!    the snapshot in place, re-evaluating only the affected nodes in
//!    level order — bit-identical to the full walk, at a cost
//!    proportional to the edit's fanout cone instead of the chip. A
//!    residue whose divergence screen fired sits at its seed values,
//!    which no edit of the leveled part can move while the verdict
//!    holds, so such a case gets the cone too.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tv_netlist::{codes, Diagnostic, Netlist, NodeId};
use tv_rc::SlopeModel;

use crate::graph::{Arc, ArcKind, PhaseCase, TimingGraph};

/// A signal transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low → high.
    Rise,
    /// High → low.
    Fall,
}

impl Edge {
    /// The opposite direction.
    #[inline]
    pub fn flipped(self) -> Edge {
        match self {
            Edge::Rise => Edge::Fall,
            Edge::Fall => Edge::Rise,
        }
    }
}

/// The predecessor record for path backtracking: which arc set this
/// arrival and which edge of the `from` node triggered it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pred {
    pub arc: u32,
    pub from_edge: Edge,
}

/// One node's propagation state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub rise: f64,
    pub fall: f64,
    /// 10–90% transition time of the waveform achieving the worst rise.
    pub trans_rise: f64,
    /// 10–90% transition time of the waveform achieving the worst fall.
    pub trans_fall: f64,
    pub pred_rise: Option<Pred>,
    pub pred_fall: Option<Pred>,
}

impl Row {
    /// A node's row before any in-arc is read: a source arrives at 0 on
    /// both edges with step transitions, any other node never arrives.
    fn seed(source: bool) -> Row {
        let t0 = if source { 0.0 } else { f64::NEG_INFINITY };
        Row {
            rise: t0,
            fall: t0,
            trans_rise: 0.0,
            trans_fall: 0.0,
            pred_rise: None,
            pred_fall: None,
        }
    }
}

/// Worst-case rise/fall arrival times at every node, measured from the
/// analyzed phase's opening edge, one row per node in node order.
/// `f64::NEG_INFINITY` means the transition never happens in this case.
#[derive(Debug, Clone)]
pub struct Arrivals {
    pub(crate) rows: Vec<Row>,
}

impl Arrivals {
    /// Rise arrival at `node`, ns, if it can rise in this case.
    pub fn rise(&self, node: NodeId) -> Option<f64> {
        finite(self.rows[node.index()].rise)
    }

    /// Fall arrival at `node`, ns, if it can fall in this case.
    pub fn fall(&self, node: NodeId) -> Option<f64> {
        finite(self.rows[node.index()].fall)
    }

    /// Worst (latest) arrival at `node` over both edges, ns.
    pub fn arrival(&self, node: NodeId) -> Option<f64> {
        match (self.rise(node), self.fall(node)) {
            (Some(r), Some(f)) => Some(r.max(f)),
            (Some(r), None) => Some(r),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }

    /// 10–90% transition time of the waveform achieving the worst arrival
    /// of the given edge at `node`, ns.
    pub fn transition(&self, node: NodeId, edge: Edge) -> Option<f64> {
        let row = &self.rows[node.index()];
        match edge {
            Edge::Rise => self.rise(node).map(|_| row.trans_rise),
            Edge::Fall => self.fall(node).map(|_| row.trans_fall),
        }
    }

    /// The edge achieving [`Arrivals::arrival`], when one exists.
    pub fn worst_edge(&self, node: NodeId) -> Option<Edge> {
        match (self.rise(node), self.fall(node)) {
            (Some(r), Some(f)) => Some(if r >= f { Edge::Rise } else { Edge::Fall }),
            (Some(_), None) => Some(Edge::Rise),
            (None, Some(_)) => Some(Edge::Fall),
            (None, None) => None,
        }
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Resource guards bounding one propagation run. The default guards
/// reproduce the historical engine: a residue budget of
/// `64 × (arcs + nodes)` and no deadline.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Guards {
    /// Overrides the residue worklist's relaxation budget. Exhaustion is
    /// reported via [`PhaseResult::completion`], carrying partial results.
    pub relax_budget: Option<usize>,
    /// Wall-clock deadline for the whole walk. Checked at level
    /// boundaries and periodically inside the residue worklist; nodes
    /// not yet computed when it passes are left without arrivals and
    /// listed in [`PhaseResult::unresolved`]. Note a deadline makes the
    /// set of resolved nodes machine-dependent — leave it `None` where
    /// reproducibility matters.
    pub deadline: Option<Instant>,
}

/// How far a propagation run got before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every node was resolved.
    Complete,
    /// The residue relaxation budget ran out: arrivals on the listed
    /// unresolved nodes are lower bounds, not converged values.
    BudgetExhausted,
    /// The wall-clock deadline passed: the listed unresolved nodes were
    /// never computed and report no arrival at all.
    DeadlineExceeded,
}

/// The outcome of propagating one phase case.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// The case analyzed.
    pub case: PhaseCase,
    /// Per-node arrivals.
    pub arrivals: Arrivals,
    /// Endpoint nodes (latches captured this phase, primary outputs) with
    /// their worst arrivals, sorted latest-first.
    pub endpoints: Vec<(NodeId, f64)>,
    /// Whether the residue failed to converge — a genuine (or
    /// unresolvable) combinational cycle: either the divergence screen
    /// found a finite arrival reaching a positive-delay cycle (the
    /// residue is left at its seed values), or the relaxation hit its
    /// iteration cap.
    pub cyclic: bool,
    /// Number of arc relaxations performed (a work measure for T5).
    pub relaxations: usize,
    /// Whether the run finished, ran out of budget, or timed out.
    pub completion: Completion,
    /// Nodes whose values are partial or missing: the residue set when
    /// the budget ran out, uncomputed nodes when the deadline passed,
    /// and any node whose evaluation panicked. Sorted by node id.
    pub unresolved: Vec<NodeId>,
    /// Engine diagnostics: guard exhaustion and degraded (panicked)
    /// levels. Empty — and unallocated — on a clean run.
    pub diagnostics: Vec<Diagnostic>,
}

impl PhaseResult {
    /// Latest endpoint arrival, ns; `None` when nothing arrives (e.g. an
    /// empty case).
    pub fn critical_arrival(&self) -> Option<f64> {
        self.endpoints.first().map(|&(_, t)| t)
    }

    /// Convenience passthrough to [`Arrivals::arrival`].
    pub fn arrival(&self, node: NodeId) -> Option<f64> {
        self.arrivals.arrival(node)
    }

    /// A complete, clean result over `arrivals`, with the arriving
    /// `endpoints` sorted latest-first.
    fn complete(
        case: PhaseCase,
        arrivals: Arrivals,
        endpoints: &[NodeId],
        relaxations: usize,
    ) -> PhaseResult {
        let mut eps: Vec<(NodeId, f64)> = endpoints
            .iter()
            .filter_map(|&e| arrivals.arrival(e).map(|t| (e, t)))
            .collect();
        eps.sort_by(|a, b| b.1.total_cmp(&a.1));
        PhaseResult {
            case,
            arrivals,
            endpoints: eps,
            cyclic: false,
            relaxations,
            completion: Completion::Complete,
            unresolved: Vec::new(),
            diagnostics: Vec::new(),
        }
    }
}

/// An n-bool mask with `true` at the listed nodes.
pub(crate) fn node_mask(n: usize, nodes: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let mut mask = vec![false; n];
    for i in nodes {
        mask[i] = true;
    }
    mask
}

/// Candidate `(rise arrival, rise trigger, fall arrival, fall trigger)`
/// the arc offers its target, padded with the slope penalty of the
/// triggering waveform.
#[inline]
fn candidates(arc: &Arc, from: &Row, slope: &SlopeModel) -> (f64, Edge, f64, Edge) {
    match arc.kind {
        ArcKind::PassControl | ArcKind::Precharge => (
            from.rise + arc.rise_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
            from.rise + arc.fall_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
        ),
        _ if arc.inverting => (
            from.fall + arc.rise_delay + slope.k_slope * from.trans_fall,
            Edge::Fall,
            from.rise + arc.fall_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
        ),
        _ => (
            from.rise + arc.rise_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
            from.fall + arc.fall_delay + slope.k_slope * from.trans_fall,
            Edge::Fall,
        ),
    }
}

/// One relaxation step: offers `target` the candidates arc `ai` carries
/// from `from`, taking each edge whose candidate is finite and later
/// than the current arrival (with its output transition and
/// predecessor). Returns whether either edge improved.
#[inline]
fn relax(target: &mut Row, arc: &Arc, ai: u32, from: &Row, slope: &SlopeModel) -> bool {
    let (cand_rise, rise_src, cand_fall, fall_src) = candidates(arc, from, slope);
    let mut improved = false;
    if cand_rise.is_finite() && cand_rise > target.rise {
        target.rise = cand_rise;
        target.trans_rise = slope.output_transition(arc.rise_tau);
        target.pred_rise = Some(Pred {
            arc: ai,
            from_edge: rise_src,
        });
        improved = true;
    }
    if cand_fall.is_finite() && cand_fall > target.fall {
        target.fall = cand_fall;
        target.trans_fall = slope.output_transition(arc.fall_tau);
        target.pred_fall = Some(Pred {
            arc: ai,
            from_edge: fall_src,
        });
        improved = true;
    }
    improved
}

/// Evaluates leveled node `node` from its predecessors' `rows`: its
/// seed, maxed over its in-arcs in ascending arc-id order. Reads only
/// rows at strictly lower levels, so every caller that walks in level
/// order — the full walk, the degraded pass, the cone walk — gets the
/// same bits from the same finished predecessors. Returns the new row
/// and the number of arcs relaxed.
///
/// Kept out of line: inlined into the full walk's `catch_unwind`
/// closures, the T5 full walk measured about 8% slower.
#[inline(never)]
fn eval_node(
    graph: &TimingGraph,
    slope: &SlopeModel,
    rows: &[Row],
    source: bool,
    node: usize,
) -> (Row, usize) {
    let mut row = Row::seed(source);
    let in_arcs = graph.in_arcs_of_index(node);
    for &ai in in_arcs {
        let arc = &graph.arcs[ai as usize];
        relax(&mut row, arc, ai, &rows[arc.from.index()], slope);
    }
    (row, in_arcs.len())
}

/// The waveform-state transitions an arc can carry, mirroring
/// [`candidates`]: `(from_edge, to_edge)` index pairs (0 = rise,
/// 1 = fall) such that a finite arrival on `from_edge` of `arc.from`
/// yields a finite candidate on `to_edge` of `arc.to`. An infinite
/// delay carries nothing on its edge.
#[inline]
fn arc_transitions(arc: &Arc) -> [Option<(usize, usize)>; 2] {
    const RISE: usize = 0;
    const FALL: usize = 1;
    let (rise_from, fall_from) = match arc.kind {
        ArcKind::PassControl | ArcKind::Precharge => (RISE, RISE),
        _ if arc.inverting => (FALL, RISE),
        _ => (RISE, FALL),
    };
    [
        arc.rise_delay.is_finite().then_some((rise_from, RISE)),
        arc.fall_delay.is_finite().then_some((fall_from, FALL)),
    ]
}

/// Decides whether the budgeted residue relaxation can terminate at all.
///
/// The residue is relaxed by monotone max-propagation, so it diverges
/// exactly when a finite arrival reaches a cycle of the *waveform state
/// graph* (states are `(node, edge)` pairs, transitions follow
/// [`arc_transitions`]): every lap around such a cycle adds its strictly
/// positive delay sum, so no fixpoint exists and the old behaviour was
/// to grind through the entire relaxation budget producing unbounded,
/// physically meaningless arrivals. Conversely, if the finite-reachable
/// state subgraph is acyclic the relaxation below converges and runs
/// exactly as it always has, value for value.
///
/// Three linear passes: mark states finite-reachable from the residue
/// seeds (initial row values plus arcs entering from the finished
/// prefix), then Kahn-peel the subgraph they induce; a leftover state
/// proves a reachable cycle.
fn residue_diverges(
    graph: &TimingGraph,
    rows: &[Row],
    in_residue: &[bool],
    residue: &[u32],
) -> bool {
    let n = in_residue.len();
    let mut finite = vec![false; 2 * n];
    let mut stack: Vec<u32> = Vec::new();
    // Seed: residue nodes' initial row values (sources arrive at 0).
    for &r in residue {
        let ri = r as usize;
        let s = &rows[ri];
        for (bit, v) in [(0, s.rise), (1, s.fall)] {
            if v.is_finite() {
                finite[2 * ri + bit] = true;
                stack.push((2 * ri + bit) as u32);
            }
        }
    }
    // Seed: arcs entering the residue from the finished prefix, whose
    // rows are final.
    for a in &graph.arcs {
        if in_residue[a.to.index()] && !in_residue[a.from.index()] {
            let s = &rows[a.from.index()];
            for (fe, te) in arc_transitions(a).into_iter().flatten() {
                let v = if fe == 0 { s.rise } else { s.fall };
                let st = 2 * a.to.index() + te;
                if v.is_finite() && !finite[st] {
                    finite[st] = true;
                    stack.push(st as u32);
                }
            }
        }
    }
    // Fixpoint: a residue node's out-arcs always target residue nodes
    // (anything a non-leveled node feeds is itself non-leveled).
    while let Some(st) = stack.pop() {
        let (node, bit) = (st as usize / 2, st as usize % 2);
        for &ai in graph.out_arcs_of_index(node) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a).into_iter().flatten() {
                let to_st = 2 * a.to.index() + te;
                if fe == bit && !finite[to_st] {
                    finite[to_st] = true;
                    stack.push(to_st as u32);
                }
            }
        }
    }
    // Kahn cycle check on the finite residue states.
    let mut indeg = vec![0u32; 2 * n];
    let mut total = 0usize;
    for &r in residue {
        let ri = r as usize;
        total += finite[2 * ri] as usize + finite[2 * ri + 1] as usize;
        for &ai in graph.out_arcs_of_index(ri) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a).into_iter().flatten() {
                if finite[2 * ri + fe] && finite[2 * a.to.index() + te] {
                    indeg[2 * a.to.index() + te] += 1;
                }
            }
        }
    }
    let mut peel: Vec<u32> = Vec::new();
    for &r in residue {
        for bit in 0..2 {
            let st = 2 * r as usize + bit;
            if finite[st] && indeg[st] == 0 {
                peel.push(st as u32);
            }
        }
    }
    let mut peeled = 0usize;
    while let Some(st) = peel.pop() {
        peeled += 1;
        let (node, bit) = (st as usize / 2, st as usize % 2);
        for &ai in graph.out_arcs_of_index(node) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a).into_iter().flatten() {
                let to_st = 2 * a.to.index() + te;
                if fe == bit && finite[to_st] {
                    indeg[to_st] -= 1;
                    if indeg[to_st] == 0 {
                        peel.push(to_st as u32);
                    }
                }
            }
        }
    }
    peeled < total
}

/// Propagates worst-case arrivals from `sources` (arrival 0 on both
/// edges, step transitions) through the graph, serially. `endpoints`
/// selects which nodes are reported as capture points.
///
/// Slope handling follows TV: each arc's delay is padded with
/// `k_slope × input_transition`, and the output transition is
/// `k_transition × τ` of the arc's RC constant. Pass
/// [`SlopeModel::disabled`] for pure step-response analysis.
///
/// Cyclic structures (the schedule's residue) are first screened for
/// divergence: if a finite arrival reaches a positive-delay cycle of
/// the waveform state graph the relaxation has no fixpoint, so the
/// residue is flagged via [`PhaseResult::cyclic`] up front and left at
/// its seed values. A converging residue is finished by a worklist
/// relaxation with a budget of `64 × (arcs + nodes)` as a backstop;
/// budget exhaustion also reports [`PhaseResult::cyclic`].
pub fn propagate(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
) -> PhaseResult {
    propagate_full(
        netlist,
        graph,
        sources,
        endpoints,
        slope,
        Guards::default(),
        None,
    )
    .0
}

/// [`propagate`] with a `jobs` argument that is accepted, no effect —
/// the engine is serial.
pub fn propagate_with(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    _jobs: usize,
) -> PhaseResult {
    propagate(netlist, graph, sources, endpoints, slope)
}

/// The cone walk: re-evaluates only the `cone` nodes, given in level
/// order, patching the cached snapshot `arr` in place; the result
/// carries one clone of the patched snapshot.
///
/// Preconditions (the caller — [`crate::incremental::IncrementalCache`]
/// — enforces all three): the cone holds leveled nodes only and is
/// forward-closed over out-arcs among them, every residue row of the
/// snapshot is final (the graph has no residue, or its residue diverged
/// and sits at seed values), and no wall-clock deadline is armed. Under
/// them the result is **bit-identical** to the full walk: a leveled
/// node's predecessors sit at strictly lower levels, so by induction
/// every row a cone node reads is final — freshly re-evaluated if the
/// predecessor is itself in the cone, the snapshot row otherwise — and
/// [`eval_node`] does the rest. The returned flag says whether some cone
/// node's rise or fall arrival changed finiteness, the one change that
/// can move a residue's divergence verdict.
pub(crate) fn propagate_cone(
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    cone: &[u32],
    arr: &mut Arrivals,
) -> (PhaseResult, bool) {
    let _span = tv_obs::span("propagate");
    let rows = &mut arr.rows;
    debug_assert_eq!(rows.len(), graph.node_count());
    let is_source = node_mask(rows.len(), sources.iter().map(|s| s.index()));

    // Certified steps never change arc structure, so the snapshot's
    // predecessor arc ids are the current graph's; cone rows are
    // overwritten below, every other row is already final.
    let mut cone_relax = 0usize;
    let mut flipped = false;
    for &nd in cone {
        let ni = nd as usize;
        let (row, relaxed) = eval_node(graph, slope, rows, is_source[ni], ni);
        let old = &rows[ni];
        flipped |= row.rise.is_finite() != old.rise.is_finite()
            || row.fall.is_finite() != old.fall.is_finite();
        rows[ni] = row;
        cone_relax += relaxed;
    }

    // The work counters record the cone's *actual* work — that shrinkage
    // is the warm path's whole point.
    let cone_nodes = cone.len() as u64;
    tv_obs::add(tv_obs::Counter::PropagateRelaxations, cone_relax as u64);
    tv_obs::add(tv_obs::Counter::PropagateNodes, cone_nodes);
    tv_obs::incr(tv_obs::Counter::PropagateCases);
    tv_obs::add(tv_obs::Counter::ConeNodes, cone_nodes);

    // Charge-equivalent relaxations, not actual: `PhaseResult::relaxations`
    // feeds the frozen report fingerprint, and the full walk charges one
    // relaxation per in-arc whether a node recomputes or is served from
    // the snapshot — one per arc in total on a leveled graph (the caller
    // restores a diverged residue case's own figure). The obs counters
    // above record what the cone really did.
    let result = PhaseResult::complete(graph.case, arr.clone(), endpoints, graph.arcs.len());
    (result, flipped)
}

/// The full walk — levels, then residue — under explicit resource
/// [`Guards`]. Guard exhaustion is not an error: the result carries
/// whatever was computed, with [`PhaseResult::completion`] and
/// [`PhaseResult::unresolved`] describing what is missing. `fault` is
/// called with each node index before evaluation; tests use a panicking
/// hook to exercise level isolation, production callers pass `None`.
///
/// The returned flag says the residue screen diverged on a walk with
/// no panicked node: the residue rows then sit at their seed values, a
/// state the cone walk can serve later certified steps from.
pub(crate) fn propagate_full(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    guards: Guards,
    fault: Option<&dyn Fn(u32)>,
) -> (PhaseResult, bool) {
    let _span = tv_obs::span("propagate");
    let n = netlist.node_count();
    let sched = &graph.schedule;
    debug_assert_eq!(sched.order.len() + sched.residue.len(), n);

    let is_source = node_mask(n, sources.iter().map(|s| s.index()));
    let mut rows: Vec<Row> = is_source.iter().map(|&s| Row::seed(s)).collect();
    // The walk's evaluation of one node: the fault probes, then the
    // shared `eval_node`. Every call runs under `catch_unwind`.
    let eval = |rows: &[Row], t: u32| {
        if let Some(hook) = fault {
            hook(t);
        }
        // Fault plane: a forced panic, caught by the same isolation
        // that contains a genuine one.
        if tv_fault::fault_point!(tv_fault::Site::PropagateWorker) {
            tv_obs::incr(tv_obs::Counter::FaultInjected);
            panic!(
                "{}",
                tv_fault::panic_message(tv_fault::Site::PropagateWorker)
            );
        }
        eval_node(graph, slope, rows, is_source[t as usize], t as usize)
    };

    let mut relaxations = 0usize;
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut panicked: Vec<u32> = Vec::new();
    let mut deadline_hit_at: Option<usize> = None;
    // Fault plane: forced early exhaustion of the deadline clock,
    // expressed deterministically (level 0, never a wall-clock read) so
    // the PARTIAL RESULTS path it exercises is golden-able.
    if tv_fault::fault_point!(tv_fault::Site::ExhaustClock) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        deadline_hit_at = Some(0);
    }
    for l in 0..sched.levels() {
        if deadline_hit_at.is_some() {
            break;
        }
        if let Some(dl) = guards.deadline {
            if Instant::now() >= dl {
                deadline_hit_at = Some(sched.level_starts[l] as usize);
                break;
            }
        }
        let level = sched.level(l);
        // First attempt: the fast path, the whole level in one go, each
        // row written in place. A panic is caught and leaves the level
        // to the degraded pass below.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut relaxed = 0usize;
            for &t in level {
                let (row, r) = eval(&rows, t);
                rows[t as usize] = row;
                relaxed += r;
            }
            relaxed
        }));
        match attempt {
            Ok(relaxed) => relaxations += relaxed,
            Err(_) => {
                // Degraded pass: re-evaluate the whole level with
                // per-node isolation. A level reads only earlier levels,
                // so nodes that evaluate cleanly get bit-identical values
                // to an untroubled run (rows the first attempt wrote are
                // rewritten with the same bits); nodes that panic again
                // deterministically resolve to "no arrival".
                tv_obs::incr(tv_obs::Counter::FaultDegraded);
                diagnostics.push(Diagnostic::warning(
                    codes::ANALYSIS_WORKER_PANIC,
                    format!(
                        "a propagation worker panicked on level {l}; level recomputed serially"
                    ),
                ));
                for &t in level {
                    let row = match catch_unwind(AssertUnwindSafe(|| eval(&rows, t))) {
                        Ok((row, r)) => {
                            relaxations += r;
                            row
                        }
                        Err(_) => {
                            panicked.push(t);
                            Row::seed(is_source[t as usize])
                        }
                    };
                    rows[t as usize] = row;
                }
            }
        }
    }

    // Residue: the budgeted serial worklist, seeded with residue sources
    // and every node feeding a residue node (their rows are final).
    let mut cyclic = false;
    let mut diverged = false;
    let mut residue_deadline_hit = false;
    if !sched.residue.is_empty() && deadline_hit_at.is_none() {
        let in_residue = node_mask(n, sched.residue.iter().map(|&r| r as usize));
        if residue_diverges(graph, &rows, &in_residue, &sched.residue) {
            // A finite arrival reaches a positive-delay cycle: max-
            // relaxation has no fixpoint, every lap raises the cycle's
            // arrivals further. Flag the cycle immediately instead of
            // grinding through the relaxation budget accumulating
            // unbounded arrivals; residue nodes keep their seed values
            // (sources at 0, everything else "no arrival").
            cyclic = true;
            diverged = true;
        } else {
            let mut queue: VecDeque<u32> = VecDeque::new();
            let mut queued = vec![false; n];
            let enqueue = |node: usize, queue: &mut VecDeque<u32>, queued: &mut [bool]| {
                if !queued[node] {
                    queued[node] = true;
                    queue.push_back(node as u32);
                }
            };
            for &r in &sched.residue {
                if is_source[r as usize] {
                    enqueue(r as usize, &mut queue, &mut queued);
                }
            }
            for a in &graph.arcs {
                if in_residue[a.to.index()] {
                    enqueue(a.from.index(), &mut queue, &mut queued);
                }
            }

            let budget = guards
                .relax_budget
                .unwrap_or_else(|| 64 * (graph.arcs.len() + n).max(1));
            let mut residue_relax = 0usize;
            let mut pops = 0u64;
            while let Some(nidx) = queue.pop_front() {
                let ni = nidx as usize;
                queued[ni] = false;
                if residue_relax > budget {
                    cyclic = true;
                    break;
                }
                pops += 1;
                if pops.is_multiple_of(1024) {
                    if let Some(dl) = guards.deadline {
                        if Instant::now() >= dl {
                            residue_deadline_hit = true;
                            break;
                        }
                    }
                }
                let from = rows[ni];
                for &ai in graph.out_arcs_of_index(ni) {
                    let arc = &graph.arcs[ai as usize];
                    let to = arc.to.index();
                    let improved = relax(&mut rows[to], arc, ai, &from, slope);
                    residue_relax += 1;
                    if improved {
                        enqueue(to, &mut queue, &mut queued);
                    }
                }
            }
            relaxations += residue_relax;
            tv_obs::add(tv_obs::Counter::PropagateResiduePops, pops);
        }
    }
    tv_obs::add(tv_obs::Counter::PropagateRelaxations, relaxations as u64);
    tv_obs::add(tv_obs::Counter::PropagateNodes, n as u64);
    tv_obs::incr(tv_obs::Counter::PropagateCases);

    // Guard accounting: name what is missing and why. All of this is on
    // exhaustion/degradation paths only — a clean run allocates nothing.
    let id = |&nd: &u32| NodeId::from_index(nd as usize);
    let mut unresolved: Vec<NodeId> = Vec::new();
    let mut completion = Completion::Complete;
    if let Some(from) = deadline_hit_at {
        completion = Completion::DeadlineExceeded;
        unresolved.extend(sched.order[from..].iter().chain(&sched.residue).map(id));
        diagnostics.push(Diagnostic::warning(
            codes::ANALYSIS_DEADLINE,
            format!(
                "deadline passed before propagation finished; {} node(s) left uncomputed",
                unresolved.len()
            ),
        ));
    } else if residue_deadline_hit || cyclic {
        completion = if cyclic {
            Completion::BudgetExhausted
        } else {
            Completion::DeadlineExceeded
        };
        unresolved.extend(sched.residue.iter().map(id));
        let (code, what) = if cyclic {
            (
                codes::ANALYSIS_BUDGET_EXHAUSTED,
                "relaxation budget exhausted (combinational cycle?)",
            )
        } else {
            (
                codes::ANALYSIS_DEADLINE,
                "deadline passed during cycle relaxation",
            )
        };
        diagnostics.push(Diagnostic::warning(
            code,
            format!(
                "{what}; arrivals on {} residue node(s) are lower bounds",
                sched.residue.len()
            ),
        ));
    }
    for t in &panicked {
        let node = id(t);
        diagnostics.push(Diagnostic::error(
            codes::ANALYSIS_WORKER_PANIC,
            format!(
                "evaluation of node {:?} panicked; node left unresolved",
                netlist.node_name(node)
            ),
        ));
        unresolved.push(node);
    }
    unresolved.sort_unstable();
    unresolved.dedup();

    let result = PhaseResult {
        cyclic,
        completion,
        unresolved,
        diagnostics,
        ..PhaseResult::complete(graph.case, Arrivals { rows }, endpoints, relaxations)
    };
    (result, diverged && panicked.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PhaseCase;
    use crate::options::DelayModel;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn run(nl: &Netlist, case: PhaseCase, sources: &[NodeId], endpoints: &[NodeId]) -> PhaseResult {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(nl, &flow, &q, case, DelayModel::Elmore, 1.0);
        propagate(nl, &g, sources, endpoints, &SlopeModel::calibrated())
    }

    #[test]
    fn chain_arrivals_accumulate() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[z]);
        let ax = r.arrival(x).unwrap();
        let ay = r.arrival(y).unwrap();
        let az = r.arrival(z).unwrap();
        assert!(0.0 < ax && ax < ay && ay < az);
        assert!(!r.cyclic);
        assert_eq!(r.critical_arrival(), Some(az));
    }

    #[test]
    fn rise_fall_alternate_down_an_inverter_chain() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[y]);
        // x's slow edge is its rise (depletion load); y's rise is driven
        // by x's fall, so y's rise is comparatively early, and y's fall
        // waits for x's slow rise.
        let x_rise = r.arrivals.rise(x).unwrap();
        let x_fall = r.arrivals.fall(x).unwrap();
        assert!(x_rise > x_fall);
        let y_fall = r.arrivals.fall(y).unwrap();
        assert!(y_fall > x_rise, "y falls only after x rises");
    }

    #[test]
    fn unreachable_node_has_no_arrival() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let other = b.input("other");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", other, y);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x, y]);
        assert!(r.arrival(x).is_some());
        assert_eq!(r.arrival(y), None);
        assert_eq!(r.endpoints.len(), 1);
    }

    #[test]
    fn ring_oscillator_detected_as_cyclic() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.nand("g0", &[kick, n2], n0);
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[kick], &[n2]);
        assert!(r.cyclic, "three-ring must be flagged cyclic");
    }

    #[test]
    fn latch_breaks_the_loop_under_case_analysis() {
        // A two-phase loop: logic -> φ1 latch -> logic -> φ2 latch -> back.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let l1_out = b.node("l1_out");
        let inv1 = b.node("inv1");
        b.inverter("i1", l1_out, inv1);
        let l2_out = b.node("l2_out");
        b.dynamic_latch("l2", phi2, inv1, l2_out);
        let inv2 = b.node("inv2");
        b.inverter("i2", l2_out, inv2);
        b.dynamic_latch("l1", phi1, inv2, l1_out);
        let nl = b.finish().unwrap();
        let l1_store = nl.node_by_name("l1_mem").unwrap();
        let l2_store = nl.node_by_name("l2_mem").unwrap();

        // Phase 1 (φ2 active): source is the φ1 latch, endpoint φ2 latch.
        let r = run(&nl, PhaseCase::phase(1), &[l1_store, phi2], &[l2_store]);
        assert!(!r.cyclic);
        assert!(r.arrival(l2_store).is_some());

        // Without case analysis the loop is unbroken and flagged.
        let r_naive = run(
            &nl,
            PhaseCase::all_active(),
            &[l1_store, phi1, phi2],
            &[l2_store],
        );
        assert!(r_naive.cyclic);
    }

    #[test]
    fn worst_edge_matches_arrival() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.output("x");
        b.inverter("i", a, x);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x]);
        // The slow edge of an inverter output is the rise.
        assert_eq!(r.arrivals.worst_edge(x), Some(Edge::Rise));
        assert_eq!(r.arrival(x), r.arrivals.rise(x));
    }

    #[test]
    fn edge_flip_is_involutive() {
        assert_eq!(Edge::Rise.flipped(), Edge::Fall);
        assert_eq!(Edge::Fall.flipped().flipped(), Edge::Fall);
    }

    fn ring() -> (Netlist, NodeId, NodeId) {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.nand("g0", &[kick, n2], n0);
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        (b.finish().unwrap(), kick, n2)
    }

    #[test]
    fn clean_run_is_complete_with_no_diagnostics() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.output("x");
        b.inverter("i", a, x);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x]);
        assert_eq!(r.completion, Completion::Complete);
        assert!(r.unresolved.is_empty());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn tiny_relax_budget_returns_partial_results_with_unresolved_nodes() {
        let (nl, kick, n2) = ring();
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
        let guards = Guards {
            relax_budget: Some(1),
            deadline: None,
        };
        let r = propagate_full(
            &nl,
            &g,
            &[kick],
            &[n2],
            &SlopeModel::calibrated(),
            guards,
            None,
        )
        .0;
        assert_eq!(r.completion, Completion::BudgetExhausted);
        assert!(r.cyclic);
        assert!(!r.unresolved.is_empty(), "residue nodes must be listed");
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == tv_netlist::codes::ANALYSIS_BUDGET_EXHAUSTED));
        // The partial result still carries every finished arrival.
        assert!(r.arrival(kick).is_some());
    }

    #[test]
    fn panicked_evaluation_degrades_to_no_arrival_with_diagnostic() {
        // Two independent chains, a -> x -> y and u -> v -> w. x and v
        // share a level with x first, so poisoning x panics the level
        // before any sibling row is written, and poisoning v panics it
        // after x's row was written in place.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.output("y");
        let (u, v, w) = (b.input("u"), b.node("v"), b.output("w"));
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("iu", u, v);
        b.inverter("iv", v, w);
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
        let (xi, vi) = (x.index() as u32, v.index() as u32);
        let level = (0..g.schedule.levels())
            .map(|l| g.schedule.level(l))
            .find(|lv| lv.contains(&vi))
            .unwrap();
        let pos = |t: u32| level.iter().position(|&n| n == t);
        assert!(
            matches!((pos(xi), pos(vi)), (Some(i), Some(j)) if i < j),
            "x must precede v in their shared level"
        );

        let slope = SlopeModel::calibrated();
        let clean = propagate(&nl, &g, &[a, u], &[y, w], &slope);
        for (bad, fanout, other_end) in [(x, y, w), (v, w, y)] {
            let bad_index = bad.index() as u32;
            let hook = move |n: u32| {
                if n == bad_index {
                    panic!("injected fault");
                }
            };
            let r = propagate_full(
                &nl,
                &g,
                &[a, u],
                &[y, w],
                &slope,
                Guards::default(),
                Some(&hook),
            )
            .0;
            // The poisoned node and its fanout have no arrival, every
            // other row matches a clean run, and the event is on record.
            let cone = [bad.index(), fanout.index()];
            assert_rows_identical(&clean.arrivals, &r.arrivals, |i| !cone.contains(&i));
            assert_eq!((r.arrival(bad), r.arrival(fanout)), (None, None));
            assert!(r.arrival(other_end).is_some());
            assert_eq!(r.unresolved, vec![bad]);
            let diags: Vec<_> = r.diagnostics.iter().map(|d| (d.code, d.severity)).collect();
            assert_eq!(
                diags,
                [
                    (
                        tv_netlist::codes::ANALYSIS_WORKER_PANIC,
                        tv_netlist::Severity::Warning
                    ),
                    (
                        tv_netlist::codes::ANALYSIS_WORKER_PANIC,
                        tv_netlist::Severity::Error
                    ),
                ]
            );
        }
    }

    #[test]
    fn degraded_run_is_bit_identical_across_repeats() {
        let (nl, kick, n2) = ring();
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
        let bad = kick.index() as u32;
        let hook = move |n: u32| {
            if n == bad {
                panic!("injected fault");
            }
        };
        let run = || {
            propagate_full(
                &nl,
                &g,
                &[kick],
                &[n2],
                &SlopeModel::calibrated(),
                Guards::default(),
                Some(&hook),
            )
            .0
        };
        let first = run();
        let again = run();
        assert_rows_identical(&first.arrivals, &again.arrivals, |_| true);
        assert_eq!(first.unresolved, again.unresolved);
        assert_eq!(first.diagnostics, again.diagnostics);
        // The poisoned node is a source, so its degraded seed is what a
        // clean evaluation gives it: every row matches a clean run, and
        // only the unresolved list records the panic.
        let clean = propagate(&nl, &g, &[kick], &[n2], &SlopeModel::calibrated());
        assert_rows_identical(&clean.arrivals, &first.arrivals, |_| true);
        assert!(first.unresolved.contains(&kick) && !clean.unresolved.contains(&kick));
    }

    impl Row {
        /// The row's six fields as comparable bits: the four times by
        /// `to_bits`, each pred as `(arc, from_edge)`.
        pub(crate) fn bits(&self) -> ([u64; 4], [Option<(u32, Edge)>; 2]) {
            let pred = |p: Option<Pred>| p.map(|p| (p.arc, p.from_edge));
            (
                [self.rise, self.fall, self.trans_rise, self.trans_fall].map(f64::to_bits),
                [pred(self.pred_rise), pred(self.pred_fall)],
            )
        }
    }

    /// Asserts every row `keep` selects is bit-identical in all six
    /// fields across `a` and `b`.
    fn assert_rows_identical(a: &Arrivals, b: &Arrivals, keep: impl Fn(usize) -> bool) {
        assert_eq!(a.rows.len(), b.rows.len());
        for (i, (x, y)) in a.rows.iter().zip(&b.rows).enumerate() {
            if keep(i) {
                assert_eq!(x.bits(), y.bits(), "row {i} differs");
            }
        }
    }
}
