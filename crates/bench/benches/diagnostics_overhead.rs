//! Overhead of the diagnostics plumbing on *clean* inputs.
//!
//! The hardened parser threads a diagnostics sink through parsing,
//! designed to cost nothing when nothing goes wrong: the sink allocates
//! no storage until the first diagnostic. This bench quantifies that
//! claim by timing the strict (pre-hardening) entry point against the
//! recovering one on identical clean input — the ratio should sit
//! within run-to-run noise of 1.0. It also times a clean propagation,
//! which must allocate no diagnostics.

use tv_bench::harness::bench;
use tv_clocks::qualify::qualify_with_flow;
use tv_core::{propagate, SOURCE_RESISTANCE};
use tv_core::{DelayModel, PhaseCase, TimingGraph};
use tv_flow::{analyze, RuleSet};
use tv_gen::random::{random_logic, RandomMix};
use tv_netlist::{sim_format, Diagnostics, NodeId, Tech};
use tv_rc::SlopeModel;

fn main() {
    let circuit = random_logic(Tech::nmos4um(), 4000, 0xD1A6, RandomMix::default());
    let nl = circuit.netlist;
    let text = sim_format::write(&nl);
    println!(
        "clean corpus: {} devices, {} nodes, {} bytes of .sim",
        nl.device_count(),
        nl.node_count(),
        text.len()
    );

    let strict = bench("parse strict (single-error path)", 30, || {
        sim_format::parse(&text, Tech::nmos4um()).expect("clean input")
    });
    let recovering = bench("parse recovering (diagnostics sink)", 30, || {
        let mut diags = Diagnostics::new();
        let parsed =
            sim_format::parse_recovering(&text, Tech::nmos4um(), &mut diags).expect("clean input");
        assert!(diags.is_empty(), "clean input must stay diagnostic-free");
        parsed
    });
    println!(
        "parse overhead: {:.3}x (recovering / strict medians)",
        recovering.median_ms / strict.median_ms
    );

    let flow = analyze(&nl, &RuleSet::all());
    let qual = qualify_with_flow(&nl, &flow);
    let graph = TimingGraph::build(
        &nl,
        &flow,
        &qual,
        PhaseCase::all_active(),
        DelayModel::Elmore,
        SOURCE_RESISTANCE,
    );
    let sources: Vec<NodeId> = nl
        .node_ids()
        .filter(|&id| {
            matches!(
                nl.node(id).role(),
                tv_netlist::NodeRole::Input | tv_netlist::NodeRole::Clock(_)
            )
        })
        .collect();
    let endpoints: Vec<NodeId> = nl
        .node_ids()
        .filter(|&id| !nl.node(id).role().is_rail())
        .collect();
    let slope = SlopeModel::calibrated();

    bench("propagate (clean input)", 30, || {
        let r = propagate(&nl, &graph, &sources, &endpoints, &slope);
        assert!(
            r.diagnostics.is_empty(),
            "clean run allocates no diagnostics"
        );
        r
    });
}
