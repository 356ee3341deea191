//! Demand-driven cone propagation suite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Shape-mismatch safety** — an edit that changes the netlist's
//!    node count (`addnode` + `adddev`) defeats the graph splice, so the
//!    rebuilt graph carries no `since` certificate: the arrival passes
//!    run the full engine (never the cone against a stale snapshot) and
//!    the rebuilt fingerprints match a cold run exactly.
//! 2. **Bit-identity under randomized edits** — for arbitrary edit
//!    sequences, the cone engine's arrivals, predecessor records, and
//!    golden report fingerprints equal the full walk's at `--jobs`
//!    1/2/8, and the cone's relaxation work never exceeds the full
//!    walk's.
//!
//! The counter plane is process-global, so the one test that reads it
//! serializes behind `OBS_LOCK` and every other test in this binary
//! takes the same lock.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use nmos_tv::core::{
    report_fingerprint, AnalysisOptions, Analyzer, CaseEngine, PassId, PassManager, PassOutcome,
};
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::gen::rng::Rng64;
use nmos_tv::netlist::{Design, DeviceId, DeviceKind, NodeId, NodeRole, Tech};
use nmos_tv::obs::Counter;

/// Serializes counter-reading tests against everything else in this
/// binary (the counters are process-global atomics).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn small_design() -> Design {
    let dp = datapath(Tech::nmos4um(), DatapathConfig::small());
    Design::new(dp.netlist)
}

fn editable_nodes(design: &Design) -> Vec<NodeId> {
    design
        .netlist()
        .node_ids()
        .filter(|&i| !design.netlist().node(i).role().is_rail())
        .collect()
}

fn device_ids(design: &Design) -> Vec<DeviceId> {
    design.netlist().devices().map(|d| d.id).collect()
}

fn trace_outcome(pm: &PassManager, pass: PassId) -> Option<PassOutcome> {
    pm.last_trace()
        .iter()
        .find(|e| e.pass == pass)
        .map(|e| e.outcome)
}

#[test]
fn mid_splice_shape_mismatch_rebuilds_and_matches_cold() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    pm.analyze(&design, &opts);

    // Prime the warm path: a parametric resize takes the cone engine.
    let dev = device_ids(&design)[7];
    design.resize_device(dev, 6.0, 2.0).expect("resize");
    pm.analyze(&design, &opts);
    assert!(
        pm.cache_stats()
            .iter()
            .any(|s| s.engine == CaseEngine::Cone),
        "resize edit did not take the cone engine"
    );

    // Now a shape-changing edit: a new node plus a device driving it.
    // The node count changes mid-splice, so the graph pass must rebuild
    // from scratch and hand the cache *no* `since` certificate — the
    // stale snapshot's preds are indexed against the old arc lists.
    let (new_node, _) = design.add_node("cone_probe", NodeRole::Internal);
    let gate = editable_nodes(&design)[5];
    design
        .add_device(
            "cone_probe_dev",
            DeviceKind::Enhancement,
            gate,
            new_node,
            design.netlist().node_by_name("GND").expect("GND rail"),
            4.0,
            2.0,
        )
        .expect("adddev");
    let warm = pm.analyze(&design, &opts);

    // Graph passes rebuilt, and no arrival pass ran the cone.
    for p in [
        PassId::Graph(None),
        PassId::Graph(Some(0)),
        PassId::Graph(Some(1)),
    ] {
        assert_eq!(
            trace_outcome(&pm, p),
            Some(PassOutcome::Computed),
            "{}: shape change must force a rebuild",
            p.name()
        );
    }
    for s in pm.cache_stats() {
        assert_eq!(
            s.engine,
            CaseEngine::Full,
            "stale certificate reached the cone engine after a shape change"
        );
    }

    // The rebuilt graph fingerprints and the report match a cold run.
    let cold = Analyzer::new(design.netlist()).run(&opts);
    assert_eq!(
        report_fingerprint(design.netlist(), &warm),
        report_fingerprint(design.netlist(), &cold),
        "report diverged from cold analysis after the rebuild"
    );
    let mut cold_pm = PassManager::new();
    cold_pm.analyze(&design, &opts);
    for p in [
        PassId::Graph(None),
        PassId::Graph(Some(0)),
        PassId::Graph(Some(1)),
    ] {
        assert_eq!(
            pm.pass_fingerprint(p),
            cold_pm.pass_fingerprint(p),
            "{}: rebuilt graph fingerprint differs from a cold pipeline",
            p.name()
        );
    }

    // And the cache re-primes: the next parametric edit cones again,
    // still bit-identical to cold.
    design.resize_device(dev, 5.0, 2.0).expect("resize");
    let warm2 = pm.analyze(&design, &opts);
    assert!(
        pm.cache_stats()
            .iter()
            .any(|s| s.engine == CaseEngine::Cone),
        "cache did not re-prime after the rebuild"
    );
    let cold2 = Analyzer::new(design.netlist()).run(&opts);
    assert_eq!(
        report_fingerprint(design.netlist(), &warm2),
        report_fingerprint(design.netlist(), &cold2)
    );
}

#[test]
fn random_edits_cone_bit_identical_to_full_walk_across_jobs() {
    let _guard = OBS_LOCK.lock().unwrap();
    nmos_tv::obs::counters::set_enabled(true);

    // Three pipelines over three lockstep copies of the design, one per
    // worker count; every iteration applies the same random edit to all
    // three and checks each warm report against a cold one-shot run.
    const JOBS: [usize; 3] = [1, 2, 8];
    let mut designs: Vec<Design> = (0..JOBS.len()).map(|_| small_design()).collect();
    let mut pms: Vec<PassManager> = (0..JOBS.len()).map(|_| PassManager::new()).collect();
    let opts_for = |jobs: usize| AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    for (k, jobs) in JOBS.iter().enumerate() {
        pms[k].analyze(&designs[k], &opts_for(*jobs));
    }

    let mut rng = Rng64::new(0xC0DE_CAFE);
    let mut cone_runs = 0usize;
    for step in 0..200 {
        // One random edit, replicated across the lockstep designs.
        let devs = device_ids(&designs[0]);
        let nodes = editable_nodes(&designs[0]);
        match rng.usize_range(0, 4) {
            0 => {
                let di = rng.usize_range(0, devs.len());
                let w = rng.f64_range(3.0, 8.0);
                for d in &mut designs {
                    d.resize_device(devs[di], w, 2.0).expect("resize");
                }
            }
            1 => {
                let ni = rng.usize_range(0, nodes.len());
                let pf = rng.f64_range(0.01, 0.08);
                for d in &mut designs {
                    d.set_node_cap(nodes[ni], pf).expect("setcap");
                }
            }
            2 => {
                let di = rng.usize_range(0, devs.len());
                let (g, s, dr) = {
                    let dv = designs[0].netlist().device(devs[di]);
                    (dv.gate(), dv.source(), dv.drain())
                };
                let keep = rng.bool(0.5);
                for d in &mut designs {
                    let (id, _) = d
                        .add_device(
                            &format!("cone_t{step}"),
                            DeviceKind::Enhancement,
                            g,
                            s,
                            dr,
                            4.0,
                            2.0,
                        )
                        .expect("adddev");
                    if !keep {
                        d.remove_device(id);
                    }
                }
            }
            _ => {
                let ni = rng.usize_range(0, nodes.len());
                let pf = rng.f64_range(0.02, 0.05);
                for d in &mut designs {
                    d.set_node_cap(nodes[ni], pf).expect("setcap");
                }
            }
        }

        // Warm analyses at every worker count, plus the jobs-1 cone work
        // measured against a cold full walk of the same netlist.
        let before = nmos_tv::obs::snapshot();
        let warm0 = pms[0].analyze(&designs[0], &opts_for(JOBS[0]));
        let after_warm = nmos_tv::obs::snapshot();
        let fp0 = report_fingerprint(designs[0].netlist(), &warm0);
        cone_runs += pms[0]
            .cache_stats()
            .iter()
            .filter(|s| s.engine == CaseEngine::Cone)
            .count();

        let cold = Analyzer::new(designs[0].netlist()).run(&opts_for(1));
        let after_cold = nmos_tv::obs::snapshot();
        assert_eq!(
            fp0,
            report_fingerprint(designs[0].netlist(), &cold),
            "edit #{step}: warm jobs-1 report diverged from cold analysis"
        );
        let warm_relax = after_warm.since(&before).get(Counter::PropagateRelaxations);
        let cold_relax = after_cold
            .since(&after_warm)
            .get(Counter::PropagateRelaxations);
        assert!(
            warm_relax <= cold_relax,
            "edit #{step}: cone did more relaxation work ({warm_relax}) than the full walk ({cold_relax})"
        );

        for (k, jobs) in JOBS.iter().enumerate().skip(1) {
            let warm = pms[k].analyze(&designs[k], &opts_for(*jobs));
            assert_eq!(
                fp0,
                report_fingerprint(designs[k].netlist(), &warm),
                "edit #{step}: jobs {jobs} diverged from jobs 1"
            );
        }
    }
    assert!(
        cone_runs > 0,
        "200 random edits never exercised the cone engine"
    );
}

/// Seeded resize/setcap edits through a held pipeline at `jobs`: after
/// every edit the report equals a cold one-shot run — fingerprint,
/// electrical checks with their diagnostics, and race hazards — and,
/// every step being a certified splice, the combinational arrivals and
/// the checks are re-derived over the edit's neighbourhood (`cone`) or
/// reused, never recomputed.
fn seeded_edits_match_cold(mut design: Design, jobs: usize, edits: usize, seed: u64) {
    let opts = AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    let mut pm = PassManager::new();
    pm.analyze(&design, &opts);
    let devs = device_ids(&design);
    let nodes = editable_nodes(&design);
    let mut rng = Rng64::new(seed);
    for step in 0..edits {
        if rng.bool(0.5) {
            let dev = devs[rng.usize_range(0, devs.len())];
            let w = rng.f64_range(3.0, 12.0);
            design.resize_device(dev, w, 2.0).expect("resize");
        } else {
            let node = nodes[rng.usize_range(0, nodes.len())];
            let pf = rng.f64_range(0.01, 0.1);
            design.set_node_cap(node, pf).expect("setcap");
        }
        let warm = pm.analyze(&design, &opts);
        let nl = design.netlist();
        let cold = Analyzer::new(nl).run(&opts);
        assert_eq!(
            report_fingerprint(nl, &warm),
            report_fingerprint(nl, &cold),
            "jobs {jobs} edit #{step}: report diverged from a cold run"
        );
        assert_eq!(warm.checks, cold.checks, "edit #{step}: checks");
        let messages = |r: &nmos_tv::core::TimingReport| {
            r.diagnostics
                .iter()
                .map(|d| (d.code, d.message.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(messages(&warm), messages(&cold), "edit #{step}");
        for (w, c) in warm.phases.iter().zip(&cold.phases) {
            assert_eq!(w.races, c.races, "edit #{step}: phase {} races", w.phase);
        }
        for pass in [PassId::Arrivals(None), PassId::Checks] {
            let outcome = trace_outcome(&pm, pass);
            assert!(
                matches!(
                    outcome,
                    Some(PassOutcome::Cone { .. } | PassOutcome::Reused)
                ),
                "jobs {jobs} edit #{step}: {} was {outcome:?}",
                pass.name()
            );
        }
    }
}

#[test]
fn seeded_edits_keep_every_warm_layer_equal_to_cold() {
    let _guard = OBS_LOCK.lock().unwrap();
    for jobs in [1, 2] {
        seeded_edits_match_cold(small_design(), jobs, 60, 0x5EED_0001);
        let mips32 = Design::new(datapath(Tech::nmos4um(), DatapathConfig::mips32()).netlist);
        seeded_edits_match_cold(mips32, jobs, 15, 0x5EED_0002);
    }
}

#[test]
fn cone_smoke_replays_to_golden_and_saves_ninety_percent() {
    // The committed MIPS-class transcript is the acceptance evidence: a
    // warm single-resize re-analysis performs under 10% of the cold
    // run's relaxations, bit-identically at every worker count.
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let golden = std::fs::read_to_string(dir.join("cone_smoke.golden")).expect("read golden");
    for jobs in [1, 2, 8] {
        let out = Command::new(env!("CARGO_BIN_EXE_tv"))
            .arg("batch")
            .arg(dir.join("cone_smoke.txt"))
            .args(["--jobs", &jobs.to_string()])
            .output()
            .expect("run tv batch");
        assert!(
            out.status.success(),
            "batch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            golden,
            String::from_utf8_lossy(&out.stdout),
            "cone smoke replay differs from committed golden at --jobs {jobs}"
        );
    }
    // Re-derive the acceptance figure from the golden itself, so the
    // transcript can't silently rot into a weaker claim.
    let relax: Vec<u64> = golden
        .lines()
        .filter(|l| l.contains("\"cmd\":\"metrics\""))
        .map(|l| {
            let key = "\"propagate.relaxations\":";
            let at = l.find(key).expect("relaxations counter") + key.len();
            l[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("numeric counter")
        })
        .collect();
    assert_eq!(relax.len(), 2, "expected cold and warm metrics marks");
    assert!(
        relax[1] * 10 < relax[0],
        "warm resize did {} relaxations, not under 10% of cold {}",
        relax[1],
        relax[0]
    );
}
