//! The pass pipeline: demand-driven analysis over a revisioned design.
//!
//! Each analysis stage — flow resolution, clock qualification, latch
//! finding, per-case timing-graph construction, arrival propagation,
//! electrical checks — is a named **pass** with a declared input
//! fingerprint and a content-based output fingerprint. A
//! [`PassManager`] holds the last result of every pass; an `analyze`
//! call recomputes a pass only when its input fingerprint changed, and
//! because downstream passes key off the upstream pass's *output*
//! fingerprint, an upstream rerun that reproduces the same content
//! revalidates the whole chain below it without recompute (the
//! salsa-style early-exit).
//!
//! Input fingerprints are built from the [`Design`]'s revision stamp,
//! which splits edits into independent counters — topology, geometry,
//! capacitance, technology — matching what each pass actually reads:
//!
//! | pass | reads |
//! |---|---|
//! | `flow` | topology, rules |
//! | `qualify` | flow, topology |
//! | `latches` | flow, qualify, topology |
//! | `graph(case)` | topology, geometry, caps, tech, delay model, flow, qualify |
//! | `arrivals(case)` | graph(case), slope model |
//! | `checks` | topology, geometry, caps, tech, flow, qualify |
//!
//! So a capacitance edit cannot re-run flow (flow's inputs don't
//! include the cap counter), and a W/L resize cannot re-find latches.
//!
//! The graph passes splice rather than rebuild: a parametric edit
//! resynthesizes only the roots whose **extent** (the nodes whose
//! caps/geometry their arcs read, indexed on the first such edit)
//! it touches, and overwrites their arc **spans** in place. The splice
//! certifies which nodes' in-arc delays changed, and the arrival cache
//! re-propagates just their fanout cone — and re-derives each phase's
//! race hazards over that same cone. The checks pass re-checks only the
//! sites a parametric edit's dirty nodes can move, and the flow report,
//! census and flow diagnostics are cached with the flow slot, so a warm
//! `analyze` costs in proportion to the edit. The one-shot
//! [`crate::Analyzer`] is this pipeline run once. Every reuse path is
//! bit-identical to a cold run; `tests/integration_layout.rs` and
//! `tests/integration_session.rs` enforce it.

use std::time::Instant;

use tv_clocks::latch::{find_latches, Latch};
use tv_clocks::qualify::{qualify_with_flow, Qualification};
use tv_clocks::ClockConstraints;
use tv_flow::{Census, FlowAnalysis, FlowReport};
use tv_netlist::{Design, DesignStamp, Diagnostic, DirtySince, Netlist, Revision};

use crate::analyzer::{
    endpoints_or_all, external_sources, phase_endpoints, phase_sources, PhaseAnalysis,
    TimingReport, SOURCE_RESISTANCE,
};
use crate::checks::CheckList;
use crate::error::TvError;
use crate::fingerprint::{flow_fingerprint, hash_words, mix64};
use crate::graph::{splice_roots, BuildScratch, GraphBuilder, PhaseCase, RootKind, TimingGraph};
use crate::incremental::{CaseDelta, CaseEngine, IncrementalCache};
use crate::macromodel::{build_spanned, Extraction};
use crate::options::AnalysisOptions;
use crate::paths::critical_paths;
use crate::propagate::Guards;

/// Names a pass instance. Graph and arrival passes are per case:
/// `None` is the all-active (combinational) view, `Some(p)` phase `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassId {
    /// Signal-flow direction resolution.
    Flow,
    /// Clock qualification of every node.
    Qualify,
    /// Latch finding.
    Latches,
    /// Hierarchical macromodel extraction for one case: grouping the
    /// build roots into structural equivalence classes ahead of graph
    /// construction (see `crate::macromodel`).
    Extract(Option<u8>),
    /// Timing-graph construction for one case.
    Graph(Option<u8>),
    /// Arrival propagation for one case.
    Arrivals(Option<u8>),
    /// Electrical rule checks.
    Checks,
}

impl PassId {
    /// Stable dotted name, e.g. `graph.phi1` (used by the session
    /// protocol's pass trace).
    pub fn name(&self) -> &'static str {
        match self {
            PassId::Flow => "flow",
            PassId::Qualify => "qualify",
            PassId::Latches => "latches",
            PassId::Extract(None) => "extract.comb",
            PassId::Extract(Some(0)) => "extract.phi1",
            PassId::Extract(Some(_)) => "extract.phi2",
            PassId::Graph(None) => "graph.comb",
            PassId::Graph(Some(0)) => "graph.phi1",
            PassId::Graph(Some(_)) => "graph.phi2",
            PassId::Arrivals(None) => "arrivals.comb",
            PassId::Arrivals(Some(0)) => "arrivals.phi1",
            PassId::Arrivals(Some(_)) => "arrivals.phi2",
            PassId::Checks => "checks",
        }
    }
}

/// Static description of one pass kind for docs and tooling.
pub struct PassInfo {
    /// Pass family name (case-instantiated passes drop the suffix).
    pub name: &'static str,
    /// The declared inputs, as stamp-counter / upstream-pass names.
    pub inputs: &'static [&'static str],
}

/// The declared pass graph: which inputs each pass reads. This table is
/// documentation-grade truth — the fingerprint construction in this
/// module is the executable version.
pub const PASS_TABLE: &[PassInfo] = &[
    PassInfo {
        name: "flow",
        inputs: &["topology", "rules"],
    },
    PassInfo {
        name: "qualify",
        inputs: &["flow", "topology"],
    },
    PassInfo {
        name: "latches",
        inputs: &["flow", "qualify", "topology"],
    },
    PassInfo {
        name: "extract",
        inputs: &[
            "flow", "qualify", "topology", "geometry", "caps", "tech", "model",
        ],
    },
    PassInfo {
        name: "graph",
        inputs: &[
            "extract", "flow", "qualify", "topology", "geometry", "caps", "tech", "model",
        ],
    },
    PassInfo {
        name: "arrivals",
        inputs: &["graph", "slope"],
    },
    PassInfo {
        name: "checks",
        inputs: &["flow", "qualify", "topology", "geometry", "caps", "tech"],
    },
];

/// How one pass was satisfied during an `analyze` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// Input fingerprint matched: the cached result was used untouched.
    Reused,
    /// The pass ran from scratch.
    Computed,
    /// Graph pass only: the affected roots were rebuilt and their delays
    /// spliced into the existing graph in place.
    Spliced {
        /// Number of roots resynthesized.
        roots: usize,
    },
    /// Graph pass only: the edit dirtied nodes outside every root's
    /// extent, so the cached graph was revalidated without touching an
    /// arc.
    Revalidated,
    /// Arrival and checks passes: only the edit's neighbourhood was
    /// re-derived over the cached result (bit-identical to a full run)
    /// — the affected fanout cone for arrivals, the sites the dirty
    /// nodes can move for checks.
    Cone {
        /// Number of nodes (arrivals) or check sites (checks)
        /// re-derived.
        recomputed: usize,
    },
}

/// One entry of [`PassManager::last_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassEvent {
    /// Which pass.
    pub pass: PassId,
    /// How it was satisfied.
    pub outcome: PassOutcome,
}

impl PassEvent {
    /// Whether the pass did any real work (everything except `Reused`).
    pub fn reran(&self) -> bool {
        self.outcome != PassOutcome::Reused
    }
}

/// A cached pass result with its input and output fingerprints.
struct Slot<T> {
    input_fp: u64,
    output_fp: u64,
    value: T,
}

/// The flow analysis with the report's projections of it, which read
/// only the flow result and the netlist's topology.
struct FlowValue {
    analysis: FlowAnalysis,
    report: FlowReport,
    census: Census,
    diagnostics: Vec<Diagnostic>,
}

/// The cached electrical checks.
struct ChecksSlot {
    input_fp: u64,
    /// Like `input_fp` but excluding the geometry and capacitance
    /// counters: matching shape under a mismatching input means only
    /// resistances and caps moved — the precondition for a site update.
    shape_fp: u64,
    /// Design revision the list reflects.
    built_revision: Revision,
    list: CheckList,
}

/// A cached timing graph for one case.
struct GraphSlot {
    input_fp: u64,
    /// Like `input_fp` but excluding the geometry and capacitance
    /// counters: matching shape under a mismatching input means only
    /// delay *values* moved — the precondition for splicing.
    shape_fp: u64,
    /// Design revision the arcs currently reflect; `dirty_since` from
    /// here yields exactly the edits the graph has not absorbed.
    built_revision: Revision,
    graph: TimingGraph,
    roots: Vec<(tv_netlist::NodeId, RootKind)>,
    /// Prefix offsets: root `k` owns arcs `spans[k]..spans[k + 1]`.
    /// `None` when a stage build panicked — such a slot always
    /// rebuilds in full.
    spans: Option<Vec<u32>>,
    /// The extent index `(starts, roots)` from
    /// [`GraphBuilder::extents`], built on the first splice attempt:
    /// the roots reading node `i` are `roots[starts[i]..starts[i + 1]]`.
    extents: Option<(Vec<u32>, Vec<u32>)>,
    /// The macromodel class partition from the build, used to de-share
    /// instanced stages a parametric edit touches. `None` when the
    /// build degraded to flat isolation.
    extraction: Option<Extraction>,
}

/// Demand-driven pass manager over a [`Design`].
///
/// Hold one per long-lived design (the `tv session` REPL holds one per
/// loaded design) and call [`PassManager::analyze`] after each batch of
/// edits; only the passes whose declared inputs changed re-run, and the
/// graph passes splice rather than rebuild when the edit was
/// parametric. Reports are bit-identical to a fresh
/// [`crate::Analyzer::run`] on the same netlist.
#[derive(Default)]
pub struct PassManager {
    flow: Option<Slot<FlowValue>>,
    qual: Option<Slot<Vec<Qualification>>>,
    latches: Option<Slot<Vec<Latch>>>,
    /// Graph slots: `[comb, phase 0, phase 1]`.
    graphs: [Option<GraphSlot>; 3],
    checks: Option<ChecksSlot>,
    /// Arrival snapshots, reused under the graph passes' certificates.
    cache: IncrementalCache,
    trace: Vec<PassEvent>,
}

impl PassManager {
    /// An empty manager: the first `analyze` computes every pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs (or revalidates) the full pipeline against the design's
    /// current state. Panics on size-limit errors like
    /// [`crate::Analyzer::run`]; use [`PassManager::try_analyze`] to
    /// enforce limits (and to receive a violated pipeline invariant as
    /// [`TvError::Internal`] instead of a panic).
    pub fn analyze(&mut self, design: &Design, options: &AnalysisOptions) -> TimingReport {
        self.analyze_inner(
            design.netlist(),
            design.stamp(),
            Some(design),
            options,
            false,
        )
        .expect("unguarded analyze: limits are off and pipeline invariants hold")
    }

    /// [`PassManager::analyze`] with [`AnalysisOptions::max_nodes`] and
    /// [`AnalysisOptions::max_arcs`] enforced (refusing with
    /// [`TvError::TooLarge`]).
    pub fn try_analyze(
        &mut self,
        design: &Design,
        options: &AnalysisOptions,
    ) -> Result<TimingReport, TvError> {
        self.analyze_inner(
            design.netlist(),
            design.stamp(),
            Some(design),
            options,
            true,
        )
    }

    /// The pass trace of the most recent `analyze`, in execution order.
    pub fn last_trace(&self) -> &[PassEvent] {
        &self.trace
    }

    /// The current fingerprint of a pass: output (content) fingerprints
    /// for the interned analyses (flow, qualify, latches), input
    /// fingerprints for the graph and check passes, `None` for a pass
    /// that has not run or for arrivals (reused under the graph pass's
    /// certificate, with no fingerprint of their own).
    pub fn pass_fingerprint(&self, pass: PassId) -> Option<u64> {
        match pass {
            PassId::Flow => self.flow.as_ref().map(|s| s.output_fp),
            PassId::Qualify => self.qual.as_ref().map(|s| s.output_fp),
            PassId::Latches => self.latches.as_ref().map(|s| s.output_fp),
            PassId::Extract(c) => self.graphs[case_slot(c)]
                .as_ref()
                .and_then(|s| s.extraction.as_ref())
                .map(|e| e.fingerprint()),
            PassId::Graph(c) => self.graphs[case_slot(c)].as_ref().map(|s| s.input_fp),
            PassId::Arrivals(_) => None,
            PassId::Checks => self.checks.as_ref().map(|s| s.input_fp),
        }
    }

    /// The macromodel extraction for a case's cached graph, if the most
    /// recent build extracted one (`None` after a degraded build).
    pub fn extraction(&self, case: Option<u8>) -> Option<&Extraction> {
        self.graphs[case_slot(case)]
            .as_ref()
            .and_then(|s| s.extraction.as_ref())
    }

    /// Arrival-reuse statistics of the most recent `analyze`, one entry
    /// per propagated case.
    pub fn cache_stats(&self) -> &[crate::incremental::CaseStats] {
        self.cache.last_stats()
    }

    /// The pipeline body shared by the session path and the one-shot
    /// `Analyzer` facade. `stamp` is the design's counter snapshot (a
    /// [`DesignStamp::unique`] snapshot on the one-shot path, so nothing
    /// ever falsely matches); `design` enables dirty-set queries for
    /// splicing.
    pub(crate) fn analyze_inner(
        &mut self,
        nl: &Netlist,
        stamp: DesignStamp,
        design: Option<&Design>,
        options: &AnalysisOptions,
        enforce_limits: bool,
    ) -> Result<TimingReport, TvError> {
        let _span = tv_obs::span("analyze");
        self.trace.clear();
        // Fault plane: pipeline entry is a trust boundary — a forced
        // internal error here must surface as a typed `TvError`, which
        // the session supervisor retries once against a reset pipeline.
        if tv_fault::fault_point!(tv_fault::Site::PassEntry) {
            tv_obs::incr(tv_obs::Counter::FaultInjected);
            return Err(internal("injected fault at pass_entry (tv_fault)"));
        }
        if enforce_limits {
            if let Some(limit) = options.max_nodes {
                let count = nl.node_count();
                if count > limit {
                    return Err(TvError::TooLarge {
                        what: "nodes",
                        count,
                        limit,
                    });
                }
            }
        }
        let guards = Guards {
            relax_budget: options.relax_budget,
            deadline: options.deadline.map(|d| Instant::now() + d),
        };
        self.cache.begin_run(&options.slope);

        // --- flow ---
        let flow_in = hash_words(&[stamp.design, stamp.topo, rules_fp(options)]);
        let flow_reran = match &self.flow {
            Some(s) if s.input_fp == flow_in => false,
            _ => {
                let _s = tv_obs::span("pass.flow");
                let analysis = tv_flow::analyze(nl, &options.rules);
                let output_fp = flow_fingerprint(nl, &analysis);
                let _v = tv_obs::span("pass.views");
                self.flow = Some(Slot {
                    input_fp: flow_in,
                    output_fp,
                    value: FlowValue {
                        report: analysis.report(nl),
                        census: analysis.census(),
                        diagnostics: analysis.diagnostics(nl),
                        analysis,
                    },
                });
                true
            }
        };
        push(&mut self.trace, PassId::Flow, flow_reran);
        let flow_slot = self
            .flow
            .as_ref()
            .ok_or(internal("flow pass left no result"))?;
        let flow_fp = flow_slot.output_fp;
        let flow = &flow_slot.value.analysis;

        // --- qualify ---
        let qual_in = hash_words(&[stamp.design, stamp.topo, flow_fp]);
        let qual_reran = match &self.qual {
            Some(s) if s.input_fp == qual_in => false,
            _ => {
                let _s = tv_obs::span("pass.qualify");
                let value = qualify_with_flow(nl, flow);
                let output_fp = qual_content_fp(&value);
                self.qual = Some(Slot {
                    input_fp: qual_in,
                    output_fp,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Qualify, qual_reran);
        let qual_slot = self
            .qual
            .as_ref()
            .ok_or(internal("qualify pass left no result"))?;
        let qual_fp = qual_slot.output_fp;
        let qual = qual_slot.value.as_slice();

        // --- latches ---
        let latch_in = hash_words(&[stamp.design, stamp.topo, flow_fp, qual_fp]);
        let latch_reran = match &self.latches {
            Some(s) if s.input_fp == latch_in => false,
            _ => {
                let _s = tv_obs::span("pass.latches");
                let value = find_latches(nl, flow, qual);
                let output_fp = latch_content_fp(&value);
                self.latches = Some(Slot {
                    input_fp: latch_in,
                    output_fp,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Latches, latch_reran);
        let latches = self
            .latches
            .as_ref()
            .ok_or(internal("latch pass left no result"))?
            .value
            .as_slice();

        let mut diagnostics = {
            let _s = tv_obs::span("pass.views");
            flow_slot.value.diagnostics.clone()
        };

        // --- combinational case ---
        let comb_delta = graph_pass(
            &mut self.graphs[0],
            &mut self.trace,
            nl,
            flow,
            qual,
            PhaseCase::all_active(),
            stamp,
            design,
            options,
            flow_fp,
            qual_fp,
        );
        let comb_slot = self.graphs[0]
            .as_ref()
            .ok_or(internal("graph pass left no combinational slot"))?;
        if enforce_limits {
            if let Some(limit) = options.max_arcs {
                let count = comb_slot.graph.arc_count();
                if count > limit {
                    return Err(TvError::TooLarge {
                        what: "arcs",
                        count,
                        limit,
                    });
                }
            }
        }
        diagnostics.extend(comb_slot.graph.diagnostics.iter().cloned());
        let comb_sources = external_sources(nl);
        let comb_endpoints = endpoints_or_all(nl, nl.outputs());
        let combinational = {
            let _s = tv_obs::span("pass.arrivals");
            self.cache.propagate_case(
                nl,
                &comb_slot.graph,
                &comb_sources,
                &comb_endpoints,
                &options.slope,
                guards,
                &comb_delta,
            )
        };
        self.trace.push(PassEvent {
            pass: PassId::Arrivals(None),
            outcome: arrivals_outcome(&self.cache),
        });
        diagnostics.extend(combinational.diagnostics.iter().cloned());
        let combinational_paths = {
            let _s = tv_obs::span("pass.paths");
            critical_paths(&comb_slot.graph, &combinational, options.top_k)
        };

        // --- per-phase cases ---
        let mut phases = Vec::new();
        if options.case_analysis && !nl.clocks().is_empty() {
            for p in 0..2u8 {
                let delta = graph_pass(
                    &mut self.graphs[1 + p as usize],
                    &mut self.trace,
                    nl,
                    flow,
                    qual,
                    PhaseCase::phase(p),
                    stamp,
                    design,
                    options,
                    flow_fp,
                    qual_fp,
                );
                let slot = self.graphs[1 + p as usize]
                    .as_ref()
                    .ok_or(internal("graph pass left no phase slot"))?;
                diagnostics.extend(slot.graph.diagnostics.iter().cloned());
                let sources = phase_sources(nl, latches, p);
                let endpoints = phase_endpoints(nl, latches, p);
                let result = {
                    let _s = tv_obs::span("pass.arrivals");
                    self.cache.propagate_case(
                        nl,
                        &slot.graph,
                        &sources,
                        &endpoints,
                        &options.slope,
                        guards,
                        &delta,
                    )
                };
                self.trace.push(PassEvent {
                    pass: PassId::Arrivals(Some(p)),
                    outcome: arrivals_outcome(&self.cache),
                });
                diagnostics.extend(result.diagnostics.iter().cloned());
                let paths = {
                    let _s = tv_obs::span("pass.paths");
                    critical_paths(&slot.graph, &result, options.top_k)
                };
                let slack = result
                    .critical_arrival()
                    .map(|a| options.clock.width(p) - a);
                let races = {
                    let _s = tv_obs::span("pass.race");
                    self.cache.race_case(nl, &slot.graph, latches, p)
                };
                phases.push(PhaseAnalysis {
                    phase: p,
                    arcs: slot.graph.arc_count(),
                    result,
                    paths,
                    slack,
                    races,
                });
            }
        }

        let min_cycle = if phases.len() == 2 {
            let a0 = phases[0].result.critical_arrival().unwrap_or(0.0);
            let a1 = phases[1].result.critical_arrival().unwrap_or(0.0);
            Some(ClockConstraints::new(options.clock).min_cycle(a0, a1))
        } else {
            None
        };

        // --- checks ---
        let checks_in = hash_words(&[
            stamp.design,
            stamp.topo,
            stamp.geom,
            stamp.cap,
            stamp.tech,
            flow_fp,
            qual_fp,
        ]);
        let checks_shape = hash_words(&[stamp.design, stamp.topo, stamp.tech, flow_fp, qual_fp]);
        let checks_outcome = checks_pass(
            &mut self.checks,
            nl,
            flow,
            qual,
            design,
            checks_in,
            checks_shape,
        );
        self.trace.push(PassEvent {
            pass: PassId::Checks,
            outcome: checks_outcome,
        });
        let list = &self
            .checks
            .as_ref()
            .ok_or(internal("checks pass left no result"))?
            .list;
        let _views = tv_obs::span("pass.views");
        diagnostics.extend(list.diagnostics.iter().cloned());
        let checks = list.issues.clone();

        // Pass outcomes into the observability counters (the trace is
        // the single source; `add` is a no-op when the plane is off).
        let (mut computed, mut reused, mut spliced, mut revalidated, mut roots) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for e in &self.trace {
            match e.outcome {
                // A cone pass did real (if little) work: it counts as
                // computed in the pass-level telemetry; the cone.*
                // counters carry the finer story.
                PassOutcome::Computed | PassOutcome::Cone { .. } => computed += 1,
                PassOutcome::Reused => reused += 1,
                PassOutcome::Spliced { roots: r } => {
                    spliced += 1;
                    // The extract pass reports de-shared instances in
                    // its `roots` field; only graph splices count here.
                    if !matches!(e.pass, PassId::Extract(_)) {
                        roots += r as u64;
                    }
                }
                PassOutcome::Revalidated => revalidated += 1,
            }
        }
        tv_obs::add(tv_obs::Counter::PassComputed, computed);
        tv_obs::add(tv_obs::Counter::PassReused, reused);
        tv_obs::add(tv_obs::Counter::PassSpliced, spliced);
        tv_obs::add(tv_obs::Counter::PassRevalidated, revalidated);
        tv_obs::add(tv_obs::Counter::GraphRootsSpliced, roots);

        let flow_value = &flow_slot.value;
        Ok(TimingReport {
            flow_report: flow_value.report.clone(),
            census: flow_value.census.clone(),
            combinational,
            combinational_paths,
            phases,
            latches: latches.to_vec(),
            checks,
            min_cycle,
            diagnostics,
        })
    }
}

/// The graph pass for one case: reuse on a clean input fingerprint,
/// splice on a parametric-only delta (matching shape, recorded spans,
/// clean diagnostics, node-granular dirty set), full rebuild otherwise.
///
/// Returns the [`CaseDelta`] certificate for the arrival cache: the
/// graph fingerprint the arcs now reflect, and — when the pass reused,
/// revalidated, or spliced — exactly which node indices have an in-arc
/// whose delay/τ words differ from the previous fingerprint's. The
/// certificate's "sources and endpoints unchanged" clause holds because
/// every non-rebuild outcome pins topology, flow, and qualification
/// (via `shape_fp`), which determine the latch set and hence every
/// case's source/endpoint lists.
#[allow(clippy::too_many_arguments)]
fn graph_pass(
    slot_opt: &mut Option<GraphSlot>,
    trace: &mut Vec<PassEvent>,
    nl: &Netlist,
    flow: &FlowAnalysis,
    qual: &[Qualification],
    case: PhaseCase,
    stamp: DesignStamp,
    design: Option<&Design>,
    options: &AnalysisOptions,
    flow_fp: u64,
    qual_fp: u64,
) -> CaseDelta {
    let _span = tv_obs::span("pass.graph");
    let pass = PassId::Graph(case.active);
    let extract_pass = PassId::Extract(case.active);
    let case_tag = case.active.map_or(0, |p| 1 + p as u64);
    let model_tag = options.model as u64;
    let input_fp = hash_words(&[
        stamp.design,
        stamp.topo,
        stamp.geom,
        stamp.cap,
        stamp.tech,
        model_tag,
        case_tag,
        flow_fp,
        qual_fp,
    ]);
    if let Some(s) = slot_opt.as_ref() {
        if s.input_fp == input_fp {
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Reused,
            });
            trace.push(PassEvent {
                pass,
                outcome: PassOutcome::Reused,
            });
            return CaseDelta {
                graph_fp: input_fp,
                since: Some((input_fp, Vec::new())),
                flips: false,
            };
        }
    }
    let shape_fp = hash_words(&[
        stamp.design,
        stamp.topo,
        stamp.tech,
        model_tag,
        case_tag,
        flow_fp,
        qual_fp,
    ]);

    // Splice attempt. Sound because (a) parametric edits cannot change
    // walk topology, stage membership, or the root set — those depend
    // only on topology, flow, and qualification, all pinned by
    // `shape_fp`; and (b) every edit dirties all terminals of the
    // touched device (or the node whose cap changed), and every device
    // or cap a root's delays read has a node in that root's extent — so
    // `dirty ∩ extent` covers every stale root. `splice_roots` still
    // verifies arc shape per root and falls back on any surprise.
    'splice: {
        let Some(d) = design else { break 'splice };
        let Some(s) = slot_opt.as_mut() else {
            break 'splice;
        };
        if s.shape_fp != shape_fp || !s.graph.diagnostics.is_empty() {
            break 'splice;
        }
        let GraphSlot {
            input_fp: slot_in,
            built_revision,
            graph,
            roots,
            spans,
            extents,
            extraction,
            ..
        } = s;
        let Some(spans) = spans.as_ref() else {
            break 'splice;
        };
        let DirtySince::Nodes(dirty) = d.dirty_since(*built_revision) else {
            break 'splice;
        };
        let builder = GraphBuilder {
            netlist: nl,
            flow,
            qualification: qual,
            case,
            model: options.model,
        };
        let mut scratch = BuildScratch::new(nl.node_count());
        // Extents read only topology, flow, qualification, and case —
        // all pinned by `shape_fp` — so the index built on the first
        // attempt serves every later one, and a one-shot run never
        // pays for it.
        let extents_span = tv_obs::span("graph.extents");
        let (extent_starts, extent_roots) =
            extents.get_or_insert_with(|| builder.extents(roots, &mut scratch));
        let mut affected: Vec<u32> = Vec::new();
        for n in &dirty {
            let i = n.index();
            affected.extend_from_slice(
                &extent_roots[extent_starts[i] as usize..extent_starts[i + 1] as usize],
            );
        }
        affected.sort_unstable();
        affected.dedup();
        drop(extents_span);
        let prev_fp = *slot_in;
        let mut changed: Vec<u32> = Vec::new();
        let mut flips = false;
        let outcome = if affected.is_empty() {
            // The edit landed entirely outside this graph's read set
            // (e.g. a cap tweak on a node no stage's tree reaches):
            // revalidate without touching an arc.
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Revalidated,
            });
            PassOutcome::Revalidated
        } else if let Ok(flipped) = splice_roots(
            graph,
            &builder,
            SOURCE_RESISTANCE,
            roots,
            spans,
            &affected,
            &mut scratch,
            &mut changed,
        ) {
            flips = flipped;
            // De-share: every affected root that was instanced from a
            // shared macromodel is split into a singleton class before
            // its re-analysis, so the splice never rewrites siblings.
            let desplit = extraction.as_mut().map_or(0, |e| e.desplit(&affected));
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Spliced {
                    roots: desplit as usize,
                },
            });
            PassOutcome::Spliced {
                roots: affected.len(),
            }
        } else {
            // Shape mismatch mid-splice: the graph is partially
            // overwritten and must be discarded. Fall through to the
            // full rebuild, which replaces the slot wholesale.
            break 'splice;
        };
        *slot_in = input_fp;
        *built_revision = d.revision();
        trace.push(PassEvent { pass, outcome });
        // The splice reports exactly the targets of arcs whose delay/τ
        // words changed: that list is the certificate.
        changed.sort_unstable();
        changed.dedup();
        return CaseDelta {
            graph_fp: input_fp,
            since: Some((prev_fp, changed)),
            flips,
        };
    }

    let (sb, extraction) = build_spanned(nl, flow, qual, case, options.model, SOURCE_RESISTANCE);
    *slot_opt = Some(GraphSlot {
        input_fp,
        shape_fp,
        built_revision: design.map_or(Revision(0), |d| d.revision()),
        graph: sb.graph,
        roots: sb.roots,
        spans: sb.spans,
        extents: None,
        extraction,
    });
    trace.push(PassEvent {
        pass: extract_pass,
        outcome: PassOutcome::Computed,
    });
    trace.push(PassEvent {
        pass,
        outcome: PassOutcome::Computed,
    });
    CaseDelta {
        graph_fp: input_fp,
        since: None,
        flips: false,
    }
}

/// The checks pass: reuse on a clean input fingerprint, a site update
/// when only parametric edits happened since the list was built
/// (matching shape, node-granular dirty set), a full run otherwise.
fn checks_pass(
    slot: &mut Option<ChecksSlot>,
    nl: &Netlist,
    flow: &FlowAnalysis,
    qual: &[Qualification],
    design: Option<&Design>,
    input_fp: u64,
    shape_fp: u64,
) -> PassOutcome {
    if slot.as_ref().is_some_and(|s| s.input_fp == input_fp) {
        return PassOutcome::Reused;
    }
    let _s = tv_obs::span("pass.checks");
    if let (Some(s), Some(d)) = (slot.as_mut(), design) {
        let since = (s.shape_fp == shape_fp).then(|| d.dirty_since(s.built_revision));
        if let Some(DirtySince::Nodes(dirty)) = since {
            let recomputed = s.list.update(nl, flow, &dirty);
            tv_obs::add(tv_obs::Counter::CheckIssues, s.list.issues.len() as u64);
            s.input_fp = input_fp;
            s.built_revision = d.revision();
            return PassOutcome::Cone { recomputed };
        }
    }
    let list = CheckList::cold(nl, flow, qual);
    tv_obs::add(tv_obs::Counter::CheckIssues, list.issues.len() as u64);
    *slot = Some(ChecksSlot {
        input_fp,
        shape_fp,
        built_revision: design.map_or(Revision(0), |d| d.revision()),
        list,
    });
    PassOutcome::Computed
}

fn case_slot(case: Option<u8>) -> usize {
    match case {
        None => 0,
        Some(p) => 1 + (p as usize).min(1),
    }
}

fn push(trace: &mut Vec<PassEvent>, pass: PassId, reran: bool) {
    trace.push(PassEvent {
        pass,
        outcome: if reran {
            PassOutcome::Computed
        } else {
            PassOutcome::Reused
        },
    });
}

/// A violated pipeline invariant, as a typed error: one session command
/// degrades to an error reply instead of the whole `tv session` process
/// dying on an `unwrap`.
fn internal(what: &'static str) -> TvError {
    TvError::Internal { what }
}

/// Arrival passes have no input fingerprint of their own: "reused"
/// here means the certificate left nothing to recompute,
/// and "cone" means the demand-driven engine re-relaxed only the
/// affected cone.
fn arrivals_outcome(cache: &IncrementalCache) -> PassOutcome {
    match cache.last_stats().last() {
        Some(s) if s.recomputed == 0 => PassOutcome::Reused,
        Some(s) if s.engine == CaseEngine::Cone => PassOutcome::Cone {
            recomputed: s.recomputed,
        },
        _ => PassOutcome::Computed,
    }
}

const SEED: u64 = 0xcbf29ce484222325;

fn rules_fp(options: &AnalysisOptions) -> u64 {
    format!("{:?}", options.rules)
        .bytes()
        .fold(SEED, |h, b| mix64(h, b as u64))
}

fn qual_content_fp(qual: &[Qualification]) -> u64 {
    qual.iter().fold(SEED, |h, q| {
        mix64(
            h,
            match q {
                Qualification::Unclocked => 0,
                Qualification::Phase(p) => 1 + *p as u64,
                Qualification::Conflict => u64::MAX,
            },
        )
    })
}

fn latch_content_fp(latches: &[Latch]) -> u64 {
    latches.iter().fold(SEED, |h, l| {
        let h = mix64(h, l.storage.index() as u64);
        let h = mix64(h, l.pass.index() as u64);
        let h = mix64(h, l.phase as u64);
        mix64(h, l.data_from.index() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_gen::{chains, datapath};
    use tv_netlist::Tech;

    fn trace_outcome(pm: &PassManager, pass: PassId) -> Option<PassOutcome> {
        pm.last_trace()
            .iter()
            .find(|e| e.pass == pass)
            .map(|e| e.outcome)
    }

    #[test]
    fn unchanged_reanalysis_reuses_every_pass() {
        let c = chains::inverter_chain(Tech::nmos4um(), 6, 1);
        let design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        let r1 = pm.analyze(&design, &opts);
        assert!(pm.last_trace().iter().all(|e| e.reran()), "cold run");
        let r2 = pm.analyze(&design, &opts);
        for e in pm.last_trace() {
            assert_eq!(e.outcome, PassOutcome::Reused, "{:?}", e.pass);
        }
        let nl = design.netlist();
        assert_eq!(
            crate::fingerprint::report_fingerprint(nl, &r1),
            crate::fingerprint::report_fingerprint(nl, &r2)
        );
    }

    #[test]
    fn cap_edit_skips_flow_and_splices_graph() {
        let c = chains::inverter_chain(Tech::nmos4um(), 8, 1);
        let mut design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let flow_fp = pm.pass_fingerprint(PassId::Flow).unwrap();
        let latch_fp = pm.pass_fingerprint(PassId::Latches).unwrap();
        let mid = design.netlist().node_by_name("s3").unwrap();
        design.set_node_cap(mid, 0.4).unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(trace_outcome(&pm, PassId::Flow), Some(PassOutcome::Reused));
        assert_eq!(
            trace_outcome(&pm, PassId::Qualify),
            Some(PassOutcome::Reused)
        );
        assert_eq!(
            trace_outcome(&pm, PassId::Latches),
            Some(PassOutcome::Reused)
        );
        assert!(
            matches!(
                trace_outcome(&pm, PassId::Graph(None)),
                Some(PassOutcome::Spliced { .. })
            ),
            "cap edit should splice, got {:?}",
            trace_outcome(&pm, PassId::Graph(None))
        );
        assert_eq!(pm.pass_fingerprint(PassId::Flow), Some(flow_fp));
        assert_eq!(pm.pass_fingerprint(PassId::Latches), Some(latch_fp));
        // And the spliced result matches a cold analysis bit for bit.
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    #[test]
    fn resize_edit_splices_without_relatching() {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let mut design = Design::new(dp.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let latch_fp = pm.pass_fingerprint(PassId::Latches).unwrap();
        let dev = design.netlist().devices().next().unwrap().id;
        let (w, l) = {
            let d = design.netlist().device(dev);
            (d.width(), d.length())
        };
        design.resize_device(dev, w * 2.0, l).unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Latches),
            Some(PassOutcome::Reused)
        );
        assert_eq!(pm.pass_fingerprint(PassId::Latches), Some(latch_fp));
        for case in [None, Some(0), Some(1)] {
            assert!(
                matches!(
                    trace_outcome(&pm, PassId::Graph(case)),
                    Some(PassOutcome::Spliced { .. } | PassOutcome::Revalidated)
                ),
                "graph {case:?}: {:?}",
                trace_outcome(&pm, PassId::Graph(case))
            );
        }
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    #[test]
    fn structural_edit_reruns_flow_and_rebuilds() {
        let c = chains::inverter_chain(Tech::nmos4um(), 5, 1);
        let mut design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let (tap, _) = design.add_node("tap", tv_netlist::NodeRole::Internal);
        let s2 = design.netlist().node_by_name("s2").unwrap();
        design
            .add_device(
                "mtap",
                tv_netlist::DeviceKind::Enhancement,
                s2,
                design.netlist().gnd(),
                tap,
                4.0,
                2.0,
            )
            .unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Flow),
            Some(PassOutcome::Computed)
        );
        assert_eq!(
            trace_outcome(&pm, PassId::Graph(None)),
            Some(PassOutcome::Computed)
        );
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    fn cases() -> [PhaseCase; 3] {
        [
            PhaseCase::all_active(),
            PhaseCase::phase(0),
            PhaseCase::phase(1),
        ]
    }

    fn small_datapath() -> Design {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        Design::new(dp.netlist)
    }

    #[test]
    fn splice_certificate_names_exactly_the_changed_arc_targets() {
        // Random parametric edits, each driven through the graph pass of
        // every case against a clone of the graph it splices: the
        // certificate must list exactly the targets of arcs whose delay
        // or τ words changed, bit for bit.
        let mut design = small_datapath();
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let devs: Vec<_> = design.netlist().devices().map(|d| d.id).collect();
        let nodes: Vec<_> = design
            .netlist()
            .node_ids()
            .filter(|&i| !design.netlist().node(i).role().is_rail())
            .collect();
        let mut rng = tv_gen::rng::Rng64::new(0xCE27_5EED);
        let mut certified = 0usize;
        for step in 0..200 {
            if rng.bool(0.5) {
                let dev = devs[rng.usize_range(0, devs.len())];
                let w = rng.f64_range(3.0, 12.0);
                design.resize_device(dev, w, 2.0).unwrap();
            } else {
                let node = nodes[rng.usize_range(0, nodes.len())];
                let pf = rng.f64_range(0.01, 0.1);
                design.set_node_cap(node, pf).unwrap();
            }
            let flow = pm.flow.as_ref().unwrap();
            let qual = pm.qual.as_ref().unwrap();
            for (k, case) in cases().into_iter().enumerate() {
                let old = pm.graphs[k].as_ref().unwrap();
                let (before, prev_fp) = (old.graph.clone(), old.input_fp);
                let delta = graph_pass(
                    &mut pm.graphs[k],
                    &mut Vec::new(),
                    design.netlist(),
                    &flow.value.analysis,
                    &qual.value,
                    case,
                    design.stamp(),
                    Some(&design),
                    &opts,
                    flow.output_fp,
                    qual.output_fp,
                );
                let Some((since_fp, changed)) = delta.since else {
                    continue;
                };
                assert_eq!(since_fp, prev_fp, "step {step} case {k}");
                let words = |a: &crate::graph::Arc| {
                    [a.rise_delay, a.fall_delay, a.rise_tau, a.fall_tau].map(f64::to_bits)
                };
                let after = &pm.graphs[k].as_ref().unwrap().graph;
                let mut expected: Vec<u32> = before
                    .arcs
                    .iter()
                    .zip(&after.arcs)
                    .filter(|(x, y)| words(x) != words(y))
                    .map(|(_, y)| y.to.index() as u32)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(changed, expected, "step {step} case {k}");
                certified += !changed.is_empty() as usize;
            }
        }
        assert!(certified > 0, "no edit changed an arc");
    }

    #[test]
    fn extents_are_built_on_the_first_splice_attempt() {
        let mut design = small_datapath();
        let opts = AnalysisOptions::default();
        // A one-shot run (the `Analyzer` call) and a first session
        // analyze both leave every extent index unbuilt.
        let mut oneshot = PassManager::new();
        oneshot
            .analyze_inner(design.netlist(), DesignStamp::unique(), None, &opts, false)
            .unwrap();
        let mut pm = PassManager::new();
        pm.analyze(&design, &opts);
        for m in [&oneshot, &pm] {
            assert!(m.graphs.iter().flatten().all(|s| s.extents.is_none()));
        }
        // The first parametric edit builds them, equal to an eager build
        // over the same roots.
        let dev = design.netlist().devices().next().unwrap().id;
        design.resize_device(dev, 9.0, 2.0).unwrap();
        pm.analyze(&design, &opts);
        let nl = design.netlist();
        for (k, case) in cases().into_iter().enumerate() {
            let slot = pm.graphs[k].as_ref().unwrap();
            let builder = GraphBuilder {
                netlist: nl,
                flow: &pm.flow.as_ref().unwrap().value.analysis,
                qualification: &pm.qual.as_ref().unwrap().value,
                case,
                model: opts.model,
            };
            let eager = builder.extents(&slot.roots, &mut BuildScratch::new(nl.node_count()));
            assert_eq!(slot.extents.as_ref(), Some(&eager), "case {k}");
        }
    }

    #[test]
    fn option_changes_in_a_held_pipeline_match_cold_runs() {
        // A slope change keeps every graph but must drop the arrival
        // snapshots; a delay-model change rebuilds the graphs. Either
        // way the held pipeline answers exactly as a cold run does.
        let design = small_datapath();
        let mut pm = PassManager::new();
        let nl = design.netlist();
        pm.analyze(&design, &AnalysisOptions::default());
        let slope_off = AnalysisOptions {
            slope: tv_rc::SlopeModel::disabled(),
            ..AnalysisOptions::default()
        };
        let lumped = AnalysisOptions {
            model: crate::options::DelayModel::Lumped,
            ..slope_off.clone()
        };
        for opts in [&slope_off, &lumped, &AnalysisOptions::default()] {
            let warm = pm.analyze(&design, opts);
            let cold = crate::Analyzer::new(nl).run(opts);
            assert_eq!(
                crate::fingerprint::report_fingerprint(nl, &warm),
                crate::fingerprint::report_fingerprint(nl, &cold)
            );
        }
    }

    #[test]
    fn warm_race_hazards_equal_a_fresh_race_check() {
        // Seeded parametric edits through a held pipeline: each phase's
        // race hazards, re-derived over the arrival cone, equal a
        // `race_check` on a freshly built graph of the edited netlist.
        let mut design = small_datapath();
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let devs: Vec<_> = design.netlist().devices().map(|d| d.id).collect();
        let nodes: Vec<_> = design
            .netlist()
            .node_ids()
            .filter(|&i| !design.netlist().node(i).role().is_rail())
            .collect();
        let mut rng = tv_gen::rng::Rng64::new(0x4ACE_5EED);
        for step in 0..100 {
            if rng.bool(0.5) {
                let dev = devs[rng.usize_range(0, devs.len())];
                design
                    .resize_device(dev, rng.f64_range(3.0, 12.0), 2.0)
                    .unwrap();
            } else {
                let node = nodes[rng.usize_range(0, nodes.len())];
                design.set_node_cap(node, rng.f64_range(0.01, 0.1)).unwrap();
            }
            let report = pm.analyze(&design, &opts);
            let nl = design.netlist();
            let flow = tv_flow::analyze(nl, &opts.rules);
            let qual = qualify_with_flow(nl, &flow);
            let latches = find_latches(nl, &flow, &qual);
            for p in 0..2u8 {
                assert!(matches!(
                    trace_outcome(&pm, PassId::Arrivals(Some(p))),
                    Some(PassOutcome::Cone { .. } | PassOutcome::Reused)
                ));
                let graph = TimingGraph::build(
                    nl,
                    &flow,
                    &qual,
                    PhaseCase::phase(p),
                    opts.model,
                    SOURCE_RESISTANCE,
                );
                let fresh = crate::hold::race_check(nl, &graph, &latches, p);
                let warm = &report.phase(p).unwrap().races;
                assert_eq!(warm, &fresh, "step {step} phase {p}");
            }
        }
    }

    #[test]
    fn pass_table_covers_every_pass_name() {
        let names: Vec<&str> = PASS_TABLE.iter().map(|p| p.name).collect();
        for pass in [
            PassId::Flow,
            PassId::Qualify,
            PassId::Latches,
            PassId::Extract(None),
            PassId::Extract(Some(0)),
            PassId::Graph(None),
            PassId::Arrivals(Some(1)),
            PassId::Checks,
        ] {
            let family = pass.name().split('.').next().unwrap();
            assert!(names.contains(&family), "{family} missing from PASS_TABLE");
        }
    }
}
