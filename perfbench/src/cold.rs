//! cold-t5: one-shot analysis of the 105,910-device T5 design, making
//! the calls `tv analyze` makes: read, parse, `Analyzer::try_run`,
//! `TimingReport::render`; at `--jobs 1` and again at `--jobs 2`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use tv_clocks::latch::find_latches;
use tv_clocks::qualify::qualify_with_flow;
use tv_core::paths::critical_paths;
use tv_core::propagate::propagate_with;
use tv_core::{
    check_electrical, external_sources, phase_endpoints, phase_sources, race_check,
    report_fingerprint, AnalysisOptions, Analyzer, PhaseCase, TimingGraph, TimingReport,
    SOURCE_RESISTANCE,
};
use tv_netlist::{sim_format, Design, Netlist, NodeId};
use tv_obs::Counter;

use crate::layers::Layers;
use crate::oracle::pipeline_fingerprint;
use crate::stats::median;
use crate::{host, inputs, load_sim, ms, Ctx, Outcome, SETUP_REPS};

/// Fewest timed analyses per `--jobs` setting, even on a slow host.
pub const MIN_SAMPLES: usize = 3;

fn options(jobs: usize) -> AnalysisOptions {
    AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    }
}

/// One untraced cold analysis of the `.sim` file at `path`; returns its
/// wall time (ms) and what it produced, for the oracle.
pub fn analyze_once(path: &Path, jobs: usize) -> (f64, Netlist, TimingReport) {
    let options = options(jobs);
    let t0 = Instant::now();
    let nl = load_sim(path, jobs);
    let report = Analyzer::new(&nl)
        .try_run(&options)
        .expect("benchmark designs are within the size limits");
    black_box(report.render(&nl));
    (ms(t0), nl, report)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.file("cold-t5.sim");
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::fs::write(&path, sim_format::write(&inputs::t5())).expect("work dir is writable");
        black_box(analyze_once(&path, 1));
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.setup(&setups);

    // Timed: alternate the two job counts so drift hits both alike.
    let mut j1 = Vec::new();
    let mut j2 = Vec::new();
    let mut fps = Vec::new();
    let mut kept = None;
    let start = Instant::now();
    while start.elapsed() < ctx.phase_budget() || j2.len() < MIN_SAMPLES {
        let jobs = 1 + fps.len() % 2;
        // One analysis alive at a time, as in a `tv analyze` process.
        drop(kept.take());
        let (t, nl, report) = analyze_once(&path, jobs);
        if jobs == 1 { &mut j1 } else { &mut j2 }.push(t);
        fps.push((jobs, report_fingerprint(&nl, &report)));
        kept = Some((nl, report));
    }
    let wall = start.elapsed().as_secs_f64();
    let peak = host::peak_rss_mb();
    let (nl, report) = kept.expect("at least one analysis ran");
    let per_s = fps.len() as f64 / wall;
    out.latency("jobs 1", &j1, "jobs 2", &j2, per_s, peak);
    out.lines.push(format!(
        "{} devices, complete={}, unresolved={}",
        nl.device_count(),
        report.is_complete(),
        report.unresolved_nodes().len()
    ));

    // Oracle: every one-shot fingerprint, at either job count, equals a
    // cold PassManager run over a fresh parse of the same text.
    let reference = pipeline_fingerprint(&Design::new(load_sim(&path, 1)), &options(1));
    let tally = &mut out.tally;
    tally.attempted = (SETUP_REPS + fps.len()) as u64;
    for (jobs, fp) in &fps {
        tally.expect_eq(&format!("cold analyze at jobs {jobs}"), reference, *fp);
    }

    if ctx.trace {
        let mut l = Layers::default();
        let traced = layers(&path, ctx.phase_budget(), &nl, &report, median(&j1), &mut l);
        drop((nl, report));
        l.add("trace.overhead_ms", traced - median(&j1));
        l.fill_from(crate::warm::probe(ctx, &path, &mut out.tally));
        l.fill_from(crate::serve::probe(ctx, &mut out.tally));
        l.finish(&mut out);
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// The cold layers of the design at `path`, probed from another
/// workload: a few untraced analyses, then as many traced ones.
pub fn probe(path: &Path) -> Layers {
    let mut l = Layers::default();
    let mut walls = Vec::new();
    let mut kept = None;
    for _ in 0..MIN_SAMPLES {
        let (t, nl, report) = analyze_once(path, 1);
        walls.push(t);
        kept = Some((nl, report));
    }
    let (nl, report) = kept.expect("probe ran");
    layers(path, Duration::ZERO, &nl, &report, median(&walls), &mut l);
    l
}

/// The cold analysis made layer by layer through each crate's public
/// functions, each call timed, for `budget` (and at least
/// [`MIN_SAMPLES`] passes). `nl` and `report` are a finished untraced
/// analysis of the same design, on which rendering and fingerprinting
/// are timed; `untraced_ms` is that analysis's median wall time.
/// Records `cold.unattributed_ms` and returns the traced pass's median
/// wall time.
fn layers(
    path: &Path,
    budget: Duration,
    nl: &Netlist,
    report: &TimingReport,
    untraced_ms: f64,
    l: &mut Layers,
) -> f64 {
    let opts = options(1);
    tv_obs::counters::set_enabled(true);
    let mut walls = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || walls.len() < MIN_SAMPLES {
        let t_op = Instant::now();
        let before = tv_obs::snapshot();
        let nl = l.time("netlist.parse_ms", || load_sim(path, 1));
        let flow = l.time("flow.analyze_ms", || tv_flow::analyze(&nl, &opts.rules));
        let qual = l.time("clocks.qualify_ms", || qualify_with_flow(&nl, &flow));
        let latches = l.time("clocks.latches_ms", || find_latches(&nl, &flow, &qual));
        let mut cases = vec![(PhaseCase::all_active(), None)];
        if opts.case_analysis && !nl.clocks().is_empty() {
            cases.extend([
                (PhaseCase::phase(0), Some(0u8)),
                (PhaseCase::phase(1), Some(1)),
            ]);
        }
        let build = |case, jobs| {
            TimingGraph::build_par(&nl, &flow, &qual, case, opts.model, SOURCE_RESISTANCE, jobs)
        };
        let (mut t_build, mut t_prop, mut t_paths, mut t_race) = (0.0, 0.0, 0.0, 0.0);
        for &(case, phase) in &cases {
            let (t, graph) = Layers::timed(|| build(case, 1));
            t_build += t;
            let (sources, endpoints) = match phase {
                None => (external_sources(&nl), combinational_endpoints(&nl)),
                Some(p) => (
                    phase_sources(&nl, &latches, p),
                    phase_endpoints(&nl, &latches, p),
                ),
            };
            let (t, result) =
                Layers::timed(|| propagate_with(&nl, &graph, &sources, &endpoints, &opts.slope, 1));
            t_prop += t;
            let (t, _) = Layers::timed(|| critical_paths(&graph, &result, opts.top_k));
            t_paths += t;
            if let Some(p) = phase {
                let (t, _) = Layers::timed(|| race_check(&nl, &graph, &latches, p));
                t_race += t;
            }
        }
        l.add("core.graph.build_ms", t_build);
        l.add("core.propagate_ms", t_prop);
        l.add("core.paths_ms", t_paths);
        l.add("core.race_ms", t_race);
        l.time("core.checks_ms", || check_electrical(&nl, &flow, &qual));
        let work = tv_obs::snapshot().since(&before);
        walls.push(ms(t_op));

        let (t_j2, _) = Layers::timed(|| {
            for &(case, _) in &cases {
                black_box(build(case, 2));
            }
        });
        l.add("core.graph.build_j2_ms", t_j2);
        for c in [
            Counter::FlowSweeps,
            Counter::FlowWorklistPops,
            Counter::GraphArcs,
            Counter::PropagateRelaxations,
        ] {
            l.count(c, work.get(c));
        }
        let analyzed = work.get(Counter::MacroAnalyzed) as f64;
        let instanced = work.get(Counter::MacroInstanced) as f64;
        l.add(
            "core.extract.share",
            instanced / (analyzed + instanced).max(1.0),
        );
    }
    // Rendering and fingerprinting read a finished report.
    for _ in 0..MIN_SAMPLES {
        l.time("core.render_ms", || report.render(nl));
        l.time("core.fingerprint_ms", || report_fingerprint(nl, report));
    }
    let summed: f64 = [
        "netlist.parse_ms",
        "flow.analyze_ms",
        "clocks.qualify_ms",
        "clocks.latches_ms",
        "core.graph.build_ms",
        "core.propagate_ms",
        "core.paths_ms",
        "core.race_ms",
        "core.checks_ms",
        "core.render_ms",
    ]
    .iter()
    .map(|n| l.median(n))
    .sum();
    l.add("cold.unattributed_ms", untraced_ms - summed);
    median(&walls) + l.median("core.render_ms")
}

/// Capture points of the combinational case, as the analyzer picks them:
/// the primary outputs, or every non-rail node when there are none.
fn combinational_endpoints(nl: &Netlist) -> Vec<NodeId> {
    if !nl.outputs().is_empty() {
        return nl.outputs().to_vec();
    }
    nl.node_ids()
        .filter(|&id| !nl.node(id).role().is_rail())
        .collect()
}
