//! Hierarchical macromodel extraction: analyze each unique stage once,
//! instance it N times.
//!
//! The paper's analyzer treats every channel-connected stage as an
//! independent RC problem — which is exactly what makes hierarchy
//! exploitable. A 67-core datapath contains 67 structurally identical
//! copies of every bit-slice stage; the flat build re-derives the same
//! Elmore trees 67 times. This module groups build roots into
//! **equivalence classes**, analyzes one *master* per class into a
//! pin-indexed arc table (the macromodel), and emits every other member
//! by remapping the table's pin ordinals onto that instance's own nodes.
//!
//! The bit-identity contract (DESIGN.md §16) rests on a two-tier key:
//!
//! * the **grouping key** — [`tv_flow::stage::Stages::structural_hashes`],
//!   an order-independent multiset hash of the stage's device geometry
//!   and boundary-pin roles. Cheap, permutation-invariant, but only a
//!   *candidate* grouping.
//! * the **canonical trace** ([`root_canon`]) — the exact scalar inputs
//!   the arc-emission half of the flat builder consumes, serialized in
//!   emission order with every [`NodeId`] replaced by its
//!   first-encounter ordinal. Two roots share a class only if their
//!   traces match word for word; the trace *is* the collision check.
//!
//! Equal traces imply the flat builder would emit arc lists that are
//! bit-identical up to the pin permutation, because every quantity the
//! emission reads — pull-up/pull-down resistances, per-walk-node caps,
//! pass-device resistances, tree topology, input order and kinds,
//! precharge resistances, domino flags — is either a recorded word or a
//! global (`Tech`, `DelayModel`, source resistance). The ordinal
//! assignment scans the trace in one fixed order, so pin `k` of an
//! instance corresponds to pin `k` of its master by construction.
//!
//! The flat build is the degenerate case of the same builder: every
//! root opaque, built by `build_root` inside the emission loop. Any
//! panic anywhere in extraction degrades to that pass, run with
//! per-root isolation (see [`build_spanned`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, FlowAnalysis, NodeClass};
use tv_netlist::{codes, Diagnostic, Netlist, NodeId};

use crate::fingerprint::mix64;
use crate::graph::{
    degraded_build_note, finish_graph, graph_build_fault_point, pull_down_resistance_with,
    pull_up_resistance, stage_inputs_into, Arc, ArcKind, BuildScratch, GraphBuilder, PhaseCase,
    RootKind, SpannedBuild, StageInputKind,
};
use crate::options::DelayModel;

/// What the extractor learned about one build: the class partition of
/// the root set. Lives in the graph slot so a later parametric edit can
/// **de-share** the touched instances (see [`Extraction::desplit`]).
pub struct Extraction {
    /// Class id per root ordinal.
    class_of: Vec<u32>,
    /// Member count per class (grows as de-sharing mints new classes).
    class_len: Vec<u32>,
    /// Classes at extraction time (before any de-sharing).
    classes: usize,
    /// Roots analyzed from scratch (masters, plus every member of a
    /// class whose table could not be shared).
    analyzed: u64,
    /// Roots emitted by pin-remapping a shared table.
    instanced: u64,
    /// Content fingerprint of the partition (keys + class assignment),
    /// advanced by every de-share.
    fp: u64,
}

impl Extraction {
    /// Number of equivalence classes at extraction time.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Roots analyzed from scratch.
    pub fn analyzed(&self) -> u64 {
        self.analyzed
    }

    /// Roots emitted by instancing a shared macromodel.
    pub fn instanced(&self) -> u64 {
        self.instanced
    }

    /// Content fingerprint of the class partition.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// De-shares the given root ordinals: each member of a class with
    /// more than one member is split into a fresh singleton class, so
    /// its subsequent re-analysis (the splice) never contaminates — and
    /// is never contaminated by — the siblings it used to share with.
    /// Returns how many roots actually split (already-singleton roots
    /// are no-ops) and bumps the `macro.desplit` counter by that much.
    pub(crate) fn desplit(&mut self, affected: &[u32]) -> u64 {
        let mut n = 0u64;
        for &r in affected {
            let Some(&c) = self.class_of.get(r as usize) else {
                continue;
            };
            if self.class_len[c as usize] > 1 {
                self.class_len[c as usize] -= 1;
                let fresh = self.class_len.len() as u32;
                self.class_of[r as usize] = fresh;
                self.class_len.push(1);
                self.fp = mix64(self.fp, 0xde5b_11f0 ^ r as u64);
                n += 1;
            }
        }
        if n > 0 {
            tv_obs::add(tv_obs::Counter::MacroDesplit, n);
        }
        n
    }
}

/// One pin-to-pin timing arc of a macromodel: [`Arc`] with both
/// endpoints replaced by pin ordinals into the owning root's pin table.
struct MacroArc {
    from_pin: u32,
    to_pin: u32,
    rise_delay: f64,
    fall_delay: f64,
    rise_tau: f64,
    fall_tau: f64,
    inverting: bool,
    kind: ArcKind,
}

/// The analysis result for one class: a shareable pin-indexed arc
/// table, or a marker that members must each build flat (an arc endpoint
/// fell outside the recorded pin table — impossible by construction,
/// kept as a verified fallback rather than an assumption).
enum MacroTable {
    Arcs(Vec<MacroArc>),
    Opaque,
}

/// Epoch-stamped NodeId → pin-ordinal map, reused across roots.
struct MacroScratch {
    mark: Vec<u32>,
    ord: Vec<u32>,
    epoch: u32,
}

impl MacroScratch {
    fn new(node_count: usize) -> Self {
        MacroScratch {
            mark: vec![0; node_count],
            ord: vec![0; node_count],
            epoch: 0,
        }
    }

    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The pin ordinal of `n`, assigning the next one on first
    /// encounter (and recording the node in `pins`).
    fn ordinal(&mut self, pins: &mut Vec<NodeId>, n: NodeId) -> u64 {
        let i = n.index();
        if self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.ord[i] = pins.len() as u32;
            pins.push(n);
        }
        self.ord[i] as u64
    }

    /// The ordinal previously assigned to `n`, if any.
    fn lookup(&self, n: NodeId) -> Option<u32> {
        let i = n.index();
        (self.mark[i] == self.epoch).then(|| self.ord[i])
    }
}

const CANON_STAGE: u64 = 1;
const CANON_SOURCE: u64 = 2;
const CANON_PRECHARGE: u64 = 0x70;

fn opt_f64_words(canon: &mut Vec<u64>, v: Option<f64>) {
    match v {
        Some(x) => {
            canon.push(1);
            canon.push(x.to_bits());
        }
        None => {
            canon.push(0);
            canon.push(0);
        }
    }
}

/// Serializes the downstream walk exactly as `tree_delays` and the
/// emission loops consume it: per walk node, its pin ordinal, parent
/// walk index, connecting pass-device resistance and gate ordinal, node
/// cap, and domino (precharged) flag.
fn walk_canon(
    b: &GraphBuilder<'_>,
    scratch: &BuildScratch,
    ms: &mut MacroScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) {
    let nl = b.netlist;
    let tech = nl.tech();
    canon.push(scratch.walk.len() as u64);
    for i in 0..scratch.walk.len() {
        let w = scratch.walk[i];
        canon.push(ms.ordinal(pins, w.node));
        canon.push(w.parent.map_or(u64::MAX, |p| p as u64));
        match w.via {
            Some(did) => {
                let dev = nl.device(did);
                canon.push(dev.resistance(tech).to_bits());
                canon.push(ms.ordinal(pins, dev.gate()));
            }
            None => canon.push(u64::MAX),
        }
        canon.push(nl.node_cap(w.node).to_bits());
        canon.push((b.flow.node_class(w.node) == NodeClass::Precharged) as u64);
    }
}

/// The canonical trace of one build root: every scalar the arc-emission
/// half of the flat builder reads, in a fixed scan order, with NodeIds
/// replaced by first-encounter ordinals (recorded in `pins`). Two roots
/// with equal traces produce bit-identical arcs modulo the pin mapping.
fn root_canon(
    b: &GraphBuilder<'_>,
    root: &(NodeId, RootKind),
    scratch: &mut BuildScratch,
    ms: &mut MacroScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) {
    let nl = b.netlist;
    ms.begin();
    match root.1 {
        RootKind::Stage => {
            canon.push(CANON_STAGE);
            let out = root.0;
            // The drive resistances enter as *results*: the emission
            // only ever consumes the scalars, so canonizing the DFS
            // that produced them would be needless fragility.
            opt_f64_words(canon, pull_up_resistance(nl, b.flow, out));
            opt_f64_words(
                canon,
                pull_down_resistance_with(nl, b.flow, out, &mut scratch.on_path),
            );
            b.walk_downstream(out, scratch);
            walk_canon(b, scratch, ms, canon, pins);
            stage_inputs_into(nl, b.flow, out, scratch);
            canon.push(scratch.inputs.len() as u64);
            for i in 0..scratch.inputs.len() {
                let inp = scratch.inputs[i];
                canon.push(ms.ordinal(pins, inp.node));
                canon.push(match inp.kind {
                    StageInputKind::PullDownGate => 0,
                    StageInputKind::PullUpGate => 1,
                });
            }
            // Precharge devices the emission loop would fire, in channel
            // order, gated by the same case/qualification test.
            for &did in nl.node_devices(out).channel {
                if b.flow.device_role(did) != DeviceRole::Precharge {
                    continue;
                }
                let gate = nl.device(did).gate();
                let on = match (b.case.active, b.qualification[gate.index()]) {
                    (None, _) => true,
                    (Some(p), Qualification::Phase(q)) => p == q,
                    (Some(_), _) => true,
                };
                if !on {
                    continue;
                }
                canon.push(CANON_PRECHARGE);
                canon.push(ms.ordinal(pins, gate));
                canon.push(nl.device(did).resistance(nl.tech()).to_bits());
            }
        }
        RootKind::Source => {
            canon.push(CANON_SOURCE);
            b.walk_downstream(root.0, scratch);
            walk_canon(b, scratch, ms, canon, pins);
        }
    }
}

/// The grouping key of one root: the flow layer's order-independent
/// stage hash, salted with the root kind. Coarser than the canonical
/// trace on purpose — equal keys merely nominate candidates.
fn root_key(stage_hashes: &[u64], flow: &FlowAnalysis, root: &(NodeId, RootKind)) -> u64 {
    let sh = flow
        .stages()
        .stage_of(root.0)
        .map_or(0x517e_ab5e, |sid| stage_hashes[sid.index()]);
    mix64(
        sh,
        match root.1 {
            RootKind::Stage => 1,
            RootKind::Source => 2,
        },
    )
}

/// The hierarchical graph build, and the only one: groups the root set
/// into equivalence classes, analyzes one master per class, instances
/// the rest, and finishes a graph whose arc list is bit-identical to a
/// flat per-root build. Serial, like the rest of the engine.
/// Returns the per-root arc spans (for splicing) and the [`Extraction`]
/// partition (for de-sharing).
///
/// A panic anywhere in extraction degrades to the all-opaque flat pass
/// of the same emission loop with per-root isolation; spans and
/// extraction are then `None`.
pub(crate) fn build_spanned(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    qualification: &[Qualification],
    case: PhaseCase,
    model: DelayModel,
    source_resistance: f64,
) -> (SpannedBuild, Option<Extraction>) {
    build_hooked(
        &GraphBuilder {
            netlist,
            flow,
            qualification,
            case,
            model,
        },
        source_resistance,
        None,
    )
}

/// [`build_spanned`] with a fault-injection hook called on each root
/// before it is signed or built flat (tests poison one root with a
/// panicking hook; production passes `None`).
pub(crate) fn build_hooked(
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    hook: Option<&dyn Fn(NodeId)>,
) -> (SpannedBuild, Option<Extraction>) {
    let roots = builder.roots();
    let node_count = builder.netlist.node_count();
    let extracted = catch_unwind(AssertUnwindSafe(|| {
        extract(builder, &roots, source_resistance, hook)
    }));
    if let Ok((arcs, spans, extraction)) = extracted {
        return (
            SpannedBuild {
                graph: finish_graph(node_count, arcs, builder.case, Vec::new()),
                roots,
                spans: Some(spans),
            },
            Some(extraction),
        );
    }
    // Degraded: every root opaque, each built flat under its own
    // `catch_unwind`. The first panic records the degraded-build note;
    // the panicking root is rebuilt once without the fault point, and a
    // second panic omits its stage with an error. A panic can leave
    // stale scratch flags behind, so each one swaps in a fresh scratch.
    tv_obs::incr(tv_obs::Counter::FaultDegraded);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut scratch = BuildScratch::new(node_count);
    let (arcs, _) = emit(
        &roots,
        |_| None,
        |root: &(NodeId, RootKind), arcs: &mut Vec<Arc>| {
            let before = arcs.len();
            let mut attempt = |fault_point: bool| {
                let built = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(h) = hook {
                        h(root.0);
                    }
                    if fault_point {
                        graph_build_fault_point();
                    }
                    builder.build_root(root, source_resistance, arcs, &mut scratch);
                }));
                if built.is_err() {
                    arcs.truncate(before);
                    scratch = BuildScratch::new(node_count);
                }
                built.is_ok()
            };
            if attempt(true) {
                return;
            }
            if diagnostics.is_empty() {
                diagnostics.push(degraded_build_note());
            }
            if !attempt(false) {
                diagnostics.push(Diagnostic::error(
                    codes::ANALYSIS_WORKER_PANIC,
                    format!(
                        "graph construction panicked for the stage rooted at node {:?}; stage omitted from analysis",
                        builder.netlist.node_name(root.0)
                    ),
                ));
            }
        },
    );
    (
        SpannedBuild {
            graph: finish_graph(node_count, arcs, builder.case, diagnostics),
            roots,
            spans: None,
        },
        None,
    )
}

/// The four serial extraction phases: A signs every root (key,
/// canonical trace, pin table) and B groups it into its class as it is
/// signed, C analyzes one master per class into a pin-indexed table,
/// and D emits every root in order.
fn extract(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    source_resistance: f64,
    hook: Option<&dyn Fn(NodeId)>,
) -> (Vec<Arc>, Vec<u32>, Extraction) {
    let nl = builder.netlist;
    let node_count = nl.node_count();
    let n_roots = roots.len();
    let stage_hashes = builder.flow.stages().structural_hashes(nl);
    let mut scratch = BuildScratch::new(node_count);
    let mut ms = MacroScratch::new(node_count);

    // Phases A and B: each root joins its class in root order, with the
    // canonical-trace comparison against the candidate class's master
    // as the collision check — equal keys with different traces stay
    // separate classes. A root's canon lives only for its own iteration
    // unless it founds a class: the store holds master traces only, so
    // the build never retains the all-roots canon stream (hundreds of
    // MB at a million devices).
    let sign = tv_obs::span("graph.sign");
    let mut class_of = vec![0u32; n_roots];
    let mut masters: Vec<u32> = Vec::new();
    let mut class_len: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::with_capacity(n_roots);
    let mut pins_all: Vec<NodeId> = Vec::new();
    let mut pin_starts: Vec<usize> = Vec::with_capacity(n_roots + 1);
    pin_starts.push(0);
    let mut by_key: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut master_canon: Vec<u64> = Vec::new();
    let mut master_canon_starts: Vec<usize> = vec![0];
    let mut canon_buf: Vec<u64> = Vec::new();
    // Per-root pin buffer: ordinals recorded in the canon are indices
    // into *this root's* pin table, so it must restart at zero for every
    // root (a shared running buffer would leak the root's position into
    // its canon and kill all sharing).
    let mut pin_buf: Vec<NodeId> = Vec::new();
    for (r, root) in roots.iter().enumerate() {
        if let Some(h) = hook {
            h(root.0);
        }
        graph_build_fault_point();
        canon_buf.clear();
        pin_buf.clear();
        root_canon(
            builder,
            root,
            &mut scratch,
            &mut ms,
            &mut canon_buf,
            &mut pin_buf,
        );
        keys.push(root_key(&stage_hashes, builder.flow, root));
        pins_all.extend_from_slice(&pin_buf);
        pin_starts.push(pins_all.len());
        let cands = by_key.entry(keys[r]).or_default();
        let hit = cands.iter().copied().find(|&cid| {
            let c = cid as usize;
            master_canon[master_canon_starts[c]..master_canon_starts[c + 1]] == canon_buf[..]
        });
        match hit {
            Some(cid) => {
                class_of[r] = cid;
                class_len[cid as usize] += 1;
            }
            None => {
                let cid = masters.len() as u32;
                masters.push(r as u32);
                class_len.push(1);
                class_of[r] = cid;
                cands.push(cid);
                master_canon.extend_from_slice(&canon_buf);
                master_canon_starts.push(master_canon.len());
            }
        }
    }
    drop(by_key);
    drop(master_canon);
    drop(sign);

    // Phase C: analyze one master per class into a pin-indexed table.
    let masters_span = tv_obs::span("graph.masters");
    let mut arcs: Vec<Arc> = Vec::new();
    let tables: Vec<MacroTable> = masters
        .iter()
        .map(|&m| {
            let m = m as usize;
            arcs.clear();
            builder.build_root(&roots[m], source_resistance, &mut arcs, &mut scratch);
            ms.begin();
            for (i, &p) in pins_all[pin_starts[m]..pin_starts[m + 1]]
                .iter()
                .enumerate()
            {
                ms.mark[p.index()] = ms.epoch;
                ms.ord[p.index()] = i as u32;
            }
            arcs.iter()
                .map(|a| {
                    Some(MacroArc {
                        from_pin: ms.lookup(a.from)?,
                        to_pin: ms.lookup(a.to)?,
                        rise_delay: a.rise_delay,
                        fall_delay: a.fall_delay,
                        rise_tau: a.rise_tau,
                        fall_tau: a.fall_tau,
                        inverting: a.inverting,
                        kind: a.kind,
                    })
                })
                .collect::<Option<Vec<MacroArc>>>()
                .map_or(MacroTable::Opaque, MacroTable::Arcs)
        })
        .collect();
    drop(arcs);
    drop(masters_span);

    // Phase D: shared classes by pin remap, opaque ones by flat build.
    let emit_span = tv_obs::span("graph.emit");
    let (arcs, spans) = emit(
        roots,
        |r| match &tables[class_of[r] as usize] {
            MacroTable::Arcs(t) => {
                Some((t.as_slice(), &pins_all[pin_starts[r]..pin_starts[r + 1]]))
            }
            MacroTable::Opaque => None,
        },
        |root: &(NodeId, RootKind), arcs: &mut Vec<Arc>| {
            builder.build_root(root, source_resistance, arcs, &mut scratch)
        },
    );
    drop(emit_span);

    // Work accounting: a class whose table shared counts one analysis
    // and `len - 1` instancings; an opaque class analyzed every member.
    let mut analyzed: u64 = 0;
    let mut instanced: u64 = 0;
    for (table, &len) in tables.iter().zip(&class_len) {
        match table {
            MacroTable::Arcs(_) => {
                analyzed += 1;
                instanced += (len - 1) as u64;
            }
            MacroTable::Opaque => analyzed += len as u64,
        }
    }
    let n_classes = masters.len();
    tv_obs::add(tv_obs::Counter::MacroClasses, n_classes as u64);
    tv_obs::add(tv_obs::Counter::MacroAnalyzed, analyzed);
    tv_obs::add(tv_obs::Counter::MacroInstanced, instanced);

    let mut fp = 0x9c0d_e1a2_57a9_0e5d_u64;
    for r in 0..n_roots {
        fp = mix64(fp, keys[r]);
        fp = mix64(fp, class_of[r] as u64);
    }

    (
        arcs,
        spans,
        Extraction {
            class_of,
            class_len,
            classes: n_classes,
            analyzed,
            instanced,
            fp,
        },
    )
}

/// Emits every root in root order and returns the arcs with their
/// per-root prefix spans. A root `table_of` maps to a shared table is
/// instanced by remapping the table's pin ordinals onto its own pin
/// table; every other root — all of them in the degraded all-opaque
/// pass — goes through `build_flat`.
fn emit<'t>(
    roots: &[(NodeId, RootKind)],
    table_of: impl Fn(usize) -> Option<(&'t [MacroArc], &'t [NodeId])>,
    mut build_flat: impl FnMut(&(NodeId, RootKind), &mut Vec<Arc>),
) -> (Vec<Arc>, Vec<u32>) {
    // Reserve the exact instanced-arc total upfront (opaque roots still
    // grow, but they are the rare case): at a million devices the build
    // emits tens of millions of arcs, and growth doubling would copy
    // them repeatedly.
    let est: usize = (0..roots.len())
        .filter_map(|r| table_of(r).map(|(t, _)| t.len()))
        .sum();
    let mut arcs: Vec<Arc> = Vec::with_capacity(est);
    let mut spans: Vec<u32> = Vec::with_capacity(roots.len() + 1);
    spans.push(0);
    for (r, root) in roots.iter().enumerate() {
        match table_of(r) {
            Some((table, pins)) => arcs.extend(table.iter().map(|ma| Arc {
                from: pins[ma.from_pin as usize],
                to: pins[ma.to_pin as usize],
                rise_delay: ma.rise_delay,
                fall_delay: ma.fall_delay,
                rise_tau: ma.rise_tau,
                fall_tau: ma.fall_tau,
                inverting: ma.inverting,
                kind: ma.kind,
            })),
            None => build_flat(root, &mut arcs),
        }
        spans.push(arcs.len() as u32);
    }
    (arcs, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AnalysisOptions;
    use crate::pipeline::PassManager;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{Design, Tech};

    /// The flat reference: `build_root` over every root, in root order.
    fn flat_graph(
        nl: &Netlist,
        flow: &FlowAnalysis,
        qual: &[Qualification],
        case: PhaseCase,
    ) -> crate::graph::TimingGraph {
        let builder = GraphBuilder {
            netlist: nl,
            flow,
            qualification: qual,
            case,
            model: DelayModel::Elmore,
        };
        let mut arcs = Vec::new();
        let mut scratch = BuildScratch::new(nl.node_count());
        for root in &builder.roots() {
            builder.build_root(root, 1.0, &mut arcs, &mut scratch);
        }
        finish_graph(nl.node_count(), arcs, case, Vec::new())
    }

    /// Requires the hierarchical build to match the flat reference bit
    /// for bit in every case, and the pass pipeline to extract the same
    /// partition at `--jobs` 1, 2 and 8. Returns each case's extraction.
    fn assert_hier_matches_flat(nl: &Netlist, cases: &[PhaseCase]) -> Vec<Extraction> {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let summary = |ex: &Extraction| {
            (
                ex.fingerprint(),
                ex.classes(),
                ex.analyzed(),
                ex.instanced(),
            )
        };
        let mut out = Vec::new();
        for &case in cases {
            let flat = flat_graph(nl, &flow, &qual, case);
            let (sb, ex) = build_spanned(nl, &flow, &qual, case, DelayModel::Elmore, 1.0);
            let ex = ex.expect("clean build must extract");
            assert_eq!(sb.graph.arc_count(), flat.arc_count());
            for (h, f) in sb.graph.arcs.iter().zip(flat.arcs.iter()) {
                assert_eq!(h.from, f.from);
                assert_eq!(h.to, f.to);
                assert_eq!(h.kind, f.kind);
                assert_eq!(h.inverting, f.inverting);
                assert_eq!(h.rise_delay.to_bits(), f.rise_delay.to_bits());
                assert_eq!(h.fall_delay.to_bits(), f.fall_delay.to_bits());
                assert_eq!(h.rise_tau.to_bits(), f.rise_tau.to_bits());
                assert_eq!(h.fall_tau.to_bits(), f.fall_tau.to_bits());
            }
            assert_eq!(
                *sb.spans.as_ref().unwrap().last().unwrap() as usize,
                sb.graph.arc_count()
            );
            out.push(ex);
        }
        let design = Design::new(nl.clone());
        for jobs in [1usize, 2, 8] {
            let mut pm = PassManager::new();
            let options = AnalysisOptions {
                jobs,
                ..AnalysisOptions::default()
            };
            pm.analyze(&design, &options);
            for (case, ex) in cases.iter().zip(&out) {
                let px = pm
                    .extraction(case.active)
                    .expect("the pipeline extracts every case");
                assert_eq!(summary(px), summary(ex), "jobs {jobs} case {case:?}");
            }
        }
        out
    }

    #[test]
    fn replicated_datapath_shares_and_stays_bit_identical() {
        let mc = tv_gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 3);
        let cases = [
            PhaseCase::all_active(),
            PhaseCase::phase(0),
            PhaseCase::phase(1),
        ];
        for ex in assert_hier_matches_flat(&mc.netlist, &cases) {
            assert!(
                ex.instanced() >= 2 * ex.analyzed(),
                "3 identical cores must dedup heavily: analyzed {} instanced {}",
                ex.analyzed(),
                ex.instanced()
            );
        }
    }

    #[test]
    fn irregular_random_logic_stays_bit_identical() {
        let c = tv_gen::random::random_logic(
            Tech::nmos4um(),
            1200,
            0x9aa7,
            tv_gen::random::RandomMix::default(),
        );
        assert_hier_matches_flat(&c.netlist, &[PhaseCase::all_active()]);
    }

    #[test]
    fn manchester_carry_chain_stays_bit_identical() {
        let c = tv_gen::manchester::manchester_circuit(Tech::nmos4um(), 16, 4);
        assert_hier_matches_flat(&c.netlist, &[PhaseCase::all_active(), PhaseCase::phase(0)]);
    }

    #[test]
    fn desplit_mints_singleton_classes_once() {
        let mc = tv_gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 2);
        let flow = analyze(&mc.netlist, &RuleSet::all());
        let qual = qualify_with_flow(&mc.netlist, &flow);
        let (_, ex) = build_spanned(
            &mc.netlist,
            &flow,
            &qual,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let mut ex = ex.unwrap();
        let fp0 = ex.fingerprint();
        // Find a root in a shared class.
        let shared = (0..ex.class_of.len() as u32)
            .find(|&r| ex.class_len[ex.class_of[r as usize] as usize] > 1)
            .expect("two identical cores must share something");
        assert_eq!(ex.desplit(&[shared]), 1);
        assert_ne!(ex.fingerprint(), fp0);
        // Now a singleton: a second de-share of the same root is a no-op.
        assert_eq!(ex.desplit(&[shared]), 0);
    }
}
