//! End-to-end identity tests for the `.sim` ingest path.
//!
//! The reader's contract (DESIGN.md §15) is bit-identity: `--jobs` is
//! accepted but has no effect, so at any value the parsed netlist, the
//! diagnostic stream (codes, order, `--max-errors` truncation), and the
//! deterministic counter dump are byte-equal — and the pre-scan sizing
//! pass leaves `ingest.reallocs` at zero. These tests drive the `tv`
//! binary the way a user does, on netlists produced by `tv gen`, so the
//! whole generate → parse → analyze loop is exercised across the
//! process boundary.

use std::path::{Path, PathBuf};
use std::process::Command;

use nmos_tv::netlist::{sim_format, Diagnostics, Tech};
use nmos_tv::obs::json::{self, Value};

fn tv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tv"))
}

/// A self-cleaning scratch file under the system temp dir.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str, contents: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tv-ingest-{}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos(),
            tag,
        ));
        std::fs::write(&path, contents).expect("write temp file");
        TempPath(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generates a multi-core design with `tv gen` and returns the `.sim`
/// text. Two cores is ~30k devices and ~1.5 MiB — large enough to cross
/// many `parse_chunk` probes, small enough for a debug-build test.
fn gen_sim(cores: usize) -> String {
    let out = TempPath::new("gen.sim", "");
    let res = tv()
        .args(["gen", "--cores", &cores.to_string(), "--out"])
        .arg(out.path())
        .output()
        .expect("run tv gen");
    assert!(
        res.status.success(),
        "tv gen failed: {}",
        String::from_utf8_lossy(&res.stderr)
    );
    std::fs::read_to_string(out.path()).expect("read generated sim")
}

/// Runs `tv flow <sim> --jobs N [extra args] --metrics <dump>` and
/// returns (exit code, stdout, stderr, metrics dump). `flow` reads the
/// netlist through the same recovering loader as `analyze` but skips
/// propagation, keeping the debug-build sweep fast.
fn flow_run(sim: &Path, jobs: u32, extra: &[&str]) -> (i32, String, String, String) {
    let dump = TempPath::new("metrics.json", "");
    let res = tv()
        .arg("flow")
        .arg(sim)
        .args(["--jobs", &jobs.to_string()])
        .args(extra)
        .arg("--metrics")
        .arg(dump.path())
        .output()
        .expect("run tv flow");
    (
        res.status.code().expect("exit code"),
        String::from_utf8_lossy(&res.stdout).into_owned(),
        String::from_utf8_lossy(&res.stderr).into_owned(),
        std::fs::read_to_string(dump.path()).unwrap_or_default(),
    )
}

/// A named counter from the `"telemetry"` block of a metrics dump.
fn telemetry(dump: &str, name: &str) -> u64 {
    let root = json::parse(dump).expect("metrics dump parses");
    let Some(Value::Obj(t)) = root.get("telemetry") else {
        panic!("no telemetry block in {dump}");
    };
    t.get(name)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("no {name} counter in dump")) as u64
}

#[test]
fn generated_netlist_ingests_identically_across_jobs() {
    let text = gen_sim(2);
    let sim = TempPath::new("mc2.sim", &text);
    let (code, stdout, stderr, dump) = flow_run(sim.path(), 1, &[]);
    assert_eq!(code, 0, "clean netlist must load cleanly: {stderr}");
    for jobs in [2, 8] {
        let (c, o, e, d) = flow_run(sim.path(), jobs, &[]);
        assert_eq!(
            (c, &o, &e),
            (code, &stdout, &stderr),
            "--jobs {jobs} diverged"
        );
        assert_eq!(d, dump, "--jobs {jobs}: metrics dump differs");
    }
    // The pre-scan sized every arena exactly: the whole build did zero
    // growth reallocations.
    assert_eq!(telemetry(&dump, "ingest.reallocs"), 0);
    assert_eq!(telemetry(&dump, "ingest.bytes"), text.len() as u64);
    assert!(telemetry(&dump, "ingest.prescan_syms") > 0);
}

#[test]
fn malformed_netlist_diagnostics_identical_across_jobs() {
    // Scatter every recovering-path diagnostic shape through a large
    // text: short device lines, bad numbers, bad caps,
    // unknown records — then cap the stream so truncation order matters.
    let clean = gen_sim(2);
    let lines: Vec<&str> = clean.lines().collect();
    let mut bad = String::new();
    for (i, l) in lines.iter().enumerate() {
        bad.push_str(l);
        bad.push('\n');
        match i % 5003 {
            0 => bad.push_str("e onlythree fields\n"),
            1001 => bad.push_str("C capnode notanumber\n"),
            2002 => bad.push_str("x what is this record\n"),
            3003 => bad.push_str("e g s d notwidth 2.0\n"),
            _ => {}
        }
    }
    let sim = TempPath::new("bad.sim", &bad);
    for extra in [&[][..], &["--max-errors", "3"][..]] {
        let (code, stdout, stderr, dump) = flow_run(sim.path(), 1, extra);
        assert_eq!(code, 1, "dirty parse must exit 1");
        assert!(stderr.contains("TV"), "diagnostics carry codes: {stderr}");
        for jobs in [2, 8] {
            let (c, o, e, d) = flow_run(sim.path(), jobs, extra);
            assert_eq!(
                (c, &o, &e),
                (code, &stdout, &stderr),
                "--jobs {jobs} {extra:?}: recovering output diverged"
            );
            assert_eq!(d, dump, "--jobs {jobs} {extra:?}: metrics dump differs");
        }
    }
}

#[test]
fn parse_chunk_fault_site_fires_identically_across_jobs() {
    use nmos_tv::fault::{FaultPlan, Site};

    let text = gen_sim(2);
    let sim = TempPath::new("fault.sim", &text);
    // Sweep seeds until three have targeted the parse_chunk site; every
    // seed — whatever site it arms — must behave identically at any
    // jobs count, and the parse_chunk ones must surface the injected
    // failure with its exact serial message.
    let mut parse_chunk_seeds = 0;
    for seed in 0..64u64 {
        let plan = FaultPlan::from_seed(seed);
        let is_parse = plan.site == Site::ParseChunk;
        if !is_parse && seed >= 16 {
            continue; // full sweep for early seeds, then parse_chunk only
        }
        let extra = ["--fault-seed", &seed.to_string()];
        let extra: Vec<&str> = extra.to_vec();
        let (code, stdout, stderr, _) = flow_run(sim.path(), 1, &extra);
        for jobs in [2, 8] {
            let (c, o, e, _) = flow_run(sim.path(), jobs, &extra);
            assert_eq!(
                (c, &o, &e),
                (code, &stdout, &stderr),
                "seed {seed} (site {:?}): fault behavior diverged at --jobs {jobs}",
                plan.site
            );
        }
        if is_parse {
            parse_chunk_seeds += 1;
            assert_eq!(
                code, 1,
                "seed {seed}: injected parse fault must fail the run"
            );
            assert!(
                stderr.contains("injected fault at parse_chunk"),
                "seed {seed}: expected the parse_chunk injection message, got: {stderr}"
            );
            if parse_chunk_seeds >= 3 {
                break;
            }
        }
    }
    assert!(
        parse_chunk_seeds >= 3,
        "seed sweep never reached three parse_chunk plans"
    );
}

#[test]
fn t5_scale_write_round_trips_bit_exactly() {
    // The pre-sized `sim_format::write` must stay canonical at T5
    // scale: write → parse → write reproduces the identical text, and
    // the reparsed netlist preserves the counts.
    use nmos_tv::gen::random::{random_logic, RandomMix};

    let t = Tech::nmos4um();
    let c = random_logic(t.clone(), 102_400, 0xC0FFEE, RandomMix::default());
    let text = sim_format::write(&c.netlist);
    let mut diags = Diagnostics::new();
    let reparsed = sim_format::parse_recovering(&text, t, &mut diags).expect("T5 text parses");
    assert!(diags.is_empty(), "round-trip must be diagnostic-free");
    assert_eq!(reparsed.device_count(), c.netlist.device_count());
    assert_eq!(reparsed.node_count(), c.netlist.node_count());
    assert_eq!(sim_format::write(&reparsed), text, "write is not canonical");
}

#[test]
fn gen_rejects_zero_cores() {
    let res = tv()
        .args(["gen", "--cores", "0"])
        .output()
        .expect("run tv gen");
    assert_eq!(res.status.code(), Some(2), "zero cores is a usage error");
}
