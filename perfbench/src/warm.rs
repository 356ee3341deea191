//! warm-t5: the T5 design loaded once into a `tv_serve` session, then a
//! seeded stream of single parametric edits, each followed by `analyze`,
//! with `analyze` calls that follow no edit interleaved (reads beside
//! writes). Parse does no work here; pipeline reuse, cone propagation
//! and the whole-design passes do.

use std::path::Path;
use std::time::{Duration, Instant};

use tv_clocks::latch::find_latches;
use tv_clocks::qualify::qualify_with_flow;
use tv_core::{
    check_electrical, race_check, report_fingerprint, AnalysisOptions, PassManager, PassOutcome,
    PhaseCase, TimingGraph, SOURCE_RESISTANCE,
};
use tv_netlist::{sim_format, Design, EditReceipt, NetlistError};
use tv_obs::Counter;
use tv_serve::session::{reply_fingerprint, Session};

use crate::inputs::{self, WarmOp, WarmStream};
use crate::layers::Layers;
use crate::oracle::{cold_fingerprint, reply_form, Tally};
use crate::stats::median;
use crate::{host, load_sim, ms, Ctx, Outcome, SETUP_REPS};

/// Fewest timed edits and no-edit `analyze` calls per phase.
const MIN_EDITS: usize = 5;
const MIN_REQUERIES: usize = 3;

/// Edits whose session answer the oracle re-derives by a fresh cold
/// analysis, besides the final state.
const ORACLE_SAMPLES: usize = 3;

/// Times the standalone race and check calls are repeated.
const STANDALONE_REPS: usize = 3;

/// One command through the session; a failed command is counted and
/// yields `None`.
fn eval(s: &mut Session, line: &str, tally: &mut Tally) -> Option<String> {
    tally.attempted += 1;
    match s.eval(line) {
        Some((json, true)) => Some(json),
        other => {
            tally.fail(format!("{line} -> {other:?}"));
            None
        }
    }
}

/// The fingerprint an `analyze` reply carries ("" when it failed).
fn fingerprint(reply: Option<String>) -> String {
    reply
        .as_deref()
        .and_then(reply_fingerprint)
        .unwrap_or_default()
}

/// A session holding the design at `path`, after its first (cold)
/// `analyze`; with that answer's fingerprint.
fn session_for(path: &Path, tally: &mut Tally) -> (Session, String) {
    let mut s = Session::new(AnalysisOptions::default(), tv_netlist::DEFAULT_MAX_ERRORS);
    eval(&mut s, &format!("load {}", path.display()), tally);
    let fp = fingerprint(eval(&mut s, "analyze", tally));
    (s, fp)
}

/// What one untraced phase saw.
struct Drive {
    /// Edit + `analyze` wall times, ms.
    edits: Vec<f64>,
    /// No-edit `analyze` wall times, ms.
    requeries: Vec<f64>,
    /// Every operation with the fingerprint its `analyze` answered.
    history: Vec<(WarmOp, String)>,
    /// Seconds the phase ran.
    wall: f64,
}

/// Runs the stream through the session for `budget` (and at least the
/// minimum sample counts). `last_fp` is the session's latest answer.
fn drive(
    session: &mut Session,
    ops: &mut WarmStream,
    budget: Duration,
    mut last_fp: String,
    tally: &mut Tally,
) -> Drive {
    let mut d = Drive {
        edits: Vec::new(),
        requeries: Vec::new(),
        history: Vec::new(),
        wall: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < budget || d.edits.len() < MIN_EDITS || d.requeries.len() < MIN_REQUERIES
    {
        let op = ops.next_op();
        let t0 = Instant::now();
        let fp = match &op {
            WarmOp::Edit(line) => {
                eval(session, line, tally);
                let fp = fingerprint(eval(session, "analyze", tally));
                d.edits.push(ms(t0));
                fp
            }
            WarmOp::Requery => {
                let fp = fingerprint(eval(session, "analyze", tally));
                d.requeries.push(ms(t0));
                tally.expect_eq("analyze with no edit since the last", &last_fp, &fp);
                fp
            }
        };
        last_fp.clone_from(&fp);
        d.history.push((op, fp));
    }
    d.wall = start.elapsed().as_secs_f64();
    d
}

/// Applies an edit line the generator produced straight to a design,
/// timing the name lookup and the edit call.
fn apply(design: &mut Design, line: &str, l: &mut Layers) -> Result<EditReceipt, NetlistError> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let num = |s: &str| s.parse::<f64>().expect("generated numbers parse");
    match words[..] {
        ["edit", "resize", dev, w, len] => {
            let id = l.time("netlist.device_lookup_us", || {
                design.netlist().device_by_name(dev)
            });
            let id = id.expect("edit targets are names of the design");
            l.time("netlist.edit_us", || {
                design.resize_device(id, num(w), num(len))
            })
        }
        ["edit", "setcap", node, pf] => {
            let id = l.time("netlist.device_lookup_us", || {
                design.netlist().node_by_name(node)
            });
            let id = id.expect("edit targets are names of the design");
            l.time("netlist.edit_us", || design.set_node_cap(id, num(pf)))
        }
        _ => unreachable!("the generator makes only resize and setcap edits: {line}"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.file("warm-t5.sim");
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut held = None;
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first: two T5 sessions never coexist.
        drop(held.take());
        let t0 = Instant::now();
        let nl = inputs::t5();
        stream = Some(WarmStream::new(ctx.seed, &nl));
        std::fs::write(&path, sim_format::write(&nl)).expect("work dir is writable");
        drop(nl);
        held = Some(session_for(&path, &mut out.tally));
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.setup(&setups);
    let (mut session, first_fp) = held.expect("set-up ran");
    let stream = stream.expect("set-up ran");

    let d = drive(
        &mut session,
        &mut stream.clone(),
        ctx.phase_budget(),
        first_fp,
        &mut out.tally,
    );
    let peak = host::peak_rss_mb();
    out.latency(
        "edit + analyze",
        &d.edits,
        "analyze with no edit since the last",
        &d.requeries,
        d.history.len() as f64 / d.wall,
        peak,
    );

    // Oracle, outside the timed region. The final state: the session's
    // last answer against a fresh cold analysis of its own netlist.
    let options = AnalysisOptions::default();
    let design = session.design().expect("the session holds T5");
    let want = cold_fingerprint(design.netlist(), &options);
    let last = d.history.last().expect("ops ran").1.clone();
    out.tally.expect_eq("final state", reply_form(want), last);
    drop(session);
    // Sampled edits: the same edits applied to a freshly parsed design,
    // each sample analyzed cold.
    let edit_at: Vec<usize> = (0..d.history.len())
        .filter(|&i| matches!(d.history[i].0, WarmOp::Edit(_)))
        .collect();
    let samples: Vec<usize> = (0..ORACLE_SAMPLES)
        .map(|k| edit_at[k * (edit_at.len() - 1) / (ORACLE_SAMPLES - 1)])
        .collect();
    let mut design = Design::new(load_sim(&path, 1));
    let mut scratch = Layers::default();
    for (i, (op, fp)) in d
        .history
        .iter()
        .enumerate()
        .take(samples[ORACLE_SAMPLES - 1] + 1)
    {
        if let WarmOp::Edit(line) = op {
            apply(&mut design, line, &mut scratch).expect("generated edits are valid");
            if samples.contains(&i) {
                let want = reply_form(cold_fingerprint(design.netlist(), &options));
                out.tally
                    .expect_eq(&format!("edit {i} ({line})"), want, fp.clone());
            }
        }
    }
    drop(design);

    if ctx.trace {
        let mut l = Layers::default();
        let untraced = median(&d.edits);
        let traced = layers(
            &path,
            stream,
            ctx.phase_budget(),
            &d.history,
            untraced,
            &mut l,
            &mut out.tally,
        );
        l.add("trace.overhead_ms", traced - untraced);
        l.fill_from(crate::cold::probe(&path));
        l.fill_from(crate::serve::probe(ctx, &mut out.tally));
        l.finish(&mut out);
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// The warm layers of the design at `path`, probed from another
/// workload: a few untraced session edits, then as many traced ones.
pub fn probe(ctx: &Ctx, path: &Path, tally: &mut Tally) -> Layers {
    let stream = WarmStream::new(ctx.seed, &load_sim(path, 1));
    let (mut session, fp) = session_for(path, tally);
    let d = drive(&mut session, &mut stream.clone(), Duration::ZERO, fp, tally);
    drop(session);
    let mut l = Layers::default();
    layers(
        path,
        stream,
        Duration::ZERO,
        &d.history,
        median(&d.edits),
        &mut l,
        tally,
    );
    l
}

/// The stream driven through a `Design` and a `PassManager` directly,
/// timing the calls a session's `edit` and `analyze` make, for `budget`
/// (and at least [`MIN_EDITS`] edits). Each answer must equal the one
/// the session gave for the same operation in `history`. Then the
/// whole-design passes a warm `analyze` re-runs are timed standalone at
/// the final state. Records `warm.unattributed_ms` against
/// `untraced_ms`, the session's median edit + `analyze` time, and
/// returns the traced edit's median wall time.
fn layers(
    path: &Path,
    mut ops: WarmStream,
    budget: Duration,
    history: &[(WarmOp, String)],
    untraced_ms: f64,
    l: &mut Layers,
    tally: &mut Tally,
) -> f64 {
    let options = AnalysisOptions::default();
    tv_obs::counters::set_enabled(true);
    let mut design = Design::new(load_sim(path, 1));
    let mut pm = PassManager::new();
    let before = tv_obs::snapshot();
    pm.analyze(&design, &options);
    let cold_relax = tv_obs::snapshot()
        .since(&before)
        .get(Counter::PropagateRelaxations) as f64;

    let mut walls = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || walls.len() < MIN_EDITS {
        let fp = match ops.next_op() {
            WarmOp::Edit(line) => {
                let t_op = Instant::now();
                apply(&mut design, &line, l).expect("generated edits are valid");
                let before = tv_obs::snapshot();
                let report = l.time("core.pipeline.analyze_ms", || pm.analyze(&design, &options));
                let work = tv_obs::snapshot().since(&before);
                let fp = l.time("core.fingerprint_ms", || {
                    report_fingerprint(design.netlist(), &report)
                });
                walls.push(ms(t_op));
                let (mut reused, mut spliced, mut computed) = (0.0, 0.0, 0.0);
                for ev in pm.last_trace() {
                    match ev.outcome {
                        PassOutcome::Reused | PassOutcome::Revalidated => reused += 1.0,
                        PassOutcome::Spliced { .. } => spliced += 1.0,
                        PassOutcome::Computed | PassOutcome::Cone { .. } => computed += 1.0,
                    }
                }
                l.add("pipeline.reused", reused);
                l.add("pipeline.spliced", spliced);
                l.add("pipeline.computed", computed);
                for c in [
                    Counter::FlowSweeps,
                    Counter::FlowWorklistPops,
                    Counter::GraphArcs,
                    Counter::PropagateRelaxations,
                    Counter::ConeFallbacks,
                ] {
                    l.count(c, work.get(c));
                }
                let relax = work.get(Counter::PropagateRelaxations) as f64;
                l.add("cone.relax_ratio", relax / cold_relax.max(1.0));
                fp
            }
            WarmOp::Requery => report_fingerprint(design.netlist(), &pm.analyze(&design, &options)),
        };
        if let Some((_, want)) = history.get(i) {
            tally.expect_eq(&format!("direct-path op {i}"), want.clone(), reply_form(fp));
        }
        i += 1;
    }

    let nl = design.netlist();
    let flow = tv_flow::analyze(nl, &options.rules);
    let qual = qualify_with_flow(nl, &flow);
    let latches = find_latches(nl, &flow, &qual);
    let graphs: Vec<(u8, TimingGraph)> = (0..2u8)
        .map(|p| {
            let case = PhaseCase::phase(p);
            let g =
                TimingGraph::build_par(nl, &flow, &qual, case, options.model, SOURCE_RESISTANCE, 1);
            (p, g)
        })
        .collect();
    for _ in 0..STANDALONE_REPS {
        l.time("core.race_ms", || {
            for (p, g) in &graphs {
                std::hint::black_box(race_check(nl, g, &latches, *p));
            }
        });
        l.time("core.checks_ms", || check_electrical(nl, &flow, &qual));
    }

    let summed = (l.median("netlist.device_lookup_us") + l.median("netlist.edit_us")) / 1e3
        + l.median("core.pipeline.analyze_ms")
        + l.median("core.fingerprint_ms");
    l.add("warm.unattributed_ms", untraced_ms - summed);
    median(&walls)
}
