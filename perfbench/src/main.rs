//! The nmos-tv benchmark: seeded inputs, three workloads driven through
//! the workspace crates' public API, an output oracle, and every metric
//! printed by name with its unit. See README.md beside this file.
//!
//! ```text
//! perfbench --workload <cold-t5|warm-t5|serve-mips32|all> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! operation or an oracle mismatch makes the exit code 1.

mod cold;
mod host;
mod inputs;
mod layers;
mod metrics;
mod oracle;
mod serve;
mod stats;
mod warm;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tv_netlist::{sim_format, Diagnostics, Netlist, Tech};

use metrics::{Spec, Values, END_TO_END, PER_LAYER};
use oracle::Tally;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["cold-t5", "warm-t5", "serve-mips32"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Scratch files (the `.sim` text, the server socket) live here, under
/// the directory the benchmark is run from.
const WORK_DIR: &str = ".bench_work";

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// A scratch path unique to this process.
    pub fn file(&self, name: &str) -> PathBuf {
        PathBuf::from(WORK_DIR).join(format!("{}-{name}", std::process::id()))
    }

    /// How long one timed phase runs. A traced run splits `--seconds`
    /// between the untraced phase (for the overhead baseline) and the
    /// traced one.
    pub fn phase_budget(&self) -> Duration {
        let s = Duration::from_secs(self.seconds);
        if self.trace {
            s / 2
        } else {
            s
        }
    }
}

/// What a workload measured and how its answers checked out.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
    /// Human-readable lines: sample counts, percentiles, state notes.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records `setup_s` from the set-up repetitions (seconds).
    pub fn setup(&mut self, secs: &[f64]) {
        self.values.set("setup_s", stats::median(secs));
        self.lines
            .push(format!("setup_s: median of {} set-ups", secs.len()));
    }

    /// Records the latency metrics: `main` is the workload's operation,
    /// `alt` its second operation class (both in ms).
    pub fn latency(
        &mut self,
        main_label: &str,
        main: &[f64],
        alt_label: &str,
        alt: &[f64],
        per_s: f64,
        peak_mb: f64,
    ) {
        let (p, tail) = stats::tail(main, &stats::GATED_TAILS);
        let (top_p, top) = stats::tail(main, &stats::REPORTED_TAILS);
        let v = &mut self.values;
        v.set("latency_p50_ms", stats::median(main));
        v.set("latency_tail_ms", tail);
        v.set("alt_latency_p50_ms", stats::median(alt));
        v.set("throughput_per_s", per_s);
        v.set("peak_rss_mb", peak_mb);
        let range = |xs: &[f64]| {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(0.0, f64::max);
            format!("n={}, min {lo:.3} ms, max {hi:.3} ms", xs.len())
        };
        self.lines.push(format!(
            "latency: {main_label}, {}; latency_tail_ms is p{p}, highest tail p{top_p} \
             {top:.3} ms; alt: {alt_label}, {}",
            range(main),
            range(alt)
        ));
    }
}

/// Reads and parses a `.sim` file as `tv analyze` does.
pub fn load_sim(path: &Path, jobs: usize) -> Netlist {
    let text = std::fs::read_to_string(path).expect("the benchmark wrote this file");
    let mut diags = Diagnostics::with_max_errors(tv_netlist::DEFAULT_MAX_ERRORS);
    let popts = sim_format::ParseOptions {
        jobs,
        ..sim_format::ParseOptions::default()
    };
    let nl = sim_format::parse_recovering_with(&text, Tech::nmos4um(), &mut diags, &popts)
        .expect("recovering parse always yields a netlist");
    assert!(!diags.has_errors(), "generated .sim text parses cleanly");
    nl
}

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    })
}

const USAGE: &str = "usage: perfbench --workload <cold-t5|warm-t5|serve-mips32|all> \
--seed N --seconds S --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.ctx);
    }
    std::fs::create_dir_all(WORK_DIR).expect("cannot create the work directory");
    println!("host: {}", host::stamp());
    let out = match args.workload.as_str() {
        "cold-t5" => cold::run(&args.ctx),
        "warm-t5" => warm::run(&args.ctx),
        _ => serve::run(&args.ctx),
    };
    // Only this run's files were in it; leave the directory if another
    // run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    report(&args.workload, &args.ctx, &out)
}

/// Prints every metric by name with its unit, then the result line.
fn report(workload: &str, ctx: &Ctx, out: &Outcome) -> ExitCode {
    for line in &out.lines {
        println!("{workload}: {line}");
    }
    let print = |specs: &[Spec]| {
        for s in specs {
            println!(
                "{workload}: {:<28} {:>14.4} {}",
                s.name,
                out.values.get(s.name),
                s.unit
            );
        }
    };
    print(END_TO_END);
    if ctx.trace {
        print(PER_LAYER);
    }
    let t = &out.tally;
    println!(
        "{workload}: {:<28} {:>14.4} ratio  ({} failed, {} wrong of {} attempted)",
        "failed_ratio",
        t.failed_ratio(),
        t.failed,
        t.wrong,
        t.attempted
    );
    for note in &t.notes {
        eprintln!("{workload}: FAILED {note}");
    }
    let correct = t.failed == 0 && t.wrong == 0;
    let specs = if ctx.trace { PER_LAYER } else { END_TO_END };
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        correct,
        t.attempted.max(1),
        t.failed + t.wrong,
        out.values.render_json(specs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a process of its own (VmHWM is a
/// lifetime maximum), passing their output through.
fn run_all(ctx: &Ctx) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
