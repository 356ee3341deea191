//! Regenerates every table and figure of `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p tv-bench --bin report [t1|t2|t3|t4|t5|t6|f1|f2|f3|a1|a2|a3|all]`
//!
//! With no argument, prints everything (`all`). Simulation-backed columns
//! (T1, F1, F2, A1) take a few seconds each in release mode.

use tv_bench::*;
use tv_gen::datapath::DatapathConfig;
use tv_netlist::Tech;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let tech = Tech::nmos4um();
    let all = which == "all";
    if all || which == "t1" {
        print_t1(&tech);
    }
    if all || which == "t2" {
        print_t2(&tech);
    }
    if all || which == "t3" {
        print_t3(&tech);
    }
    if all || which == "t4" {
        print_t4(&tech);
    }
    if all || which == "t5" {
        print_t5(&tech);
    }
    if all || which == "f1" {
        print_f1(&tech);
    }
    if all || which == "f2" {
        print_f2(&tech);
    }
    if all || which == "f3" {
        print_f3(&tech);
    }
    if all || which == "a1" {
        print_a1(&tech);
    }
    if all || which == "a2" {
        print_a2(&tech);
    }
    if all || which == "a3" {
        print_a3(&tech);
    }
    if all || which == "t6" {
        print_t6();
    }
}

fn print_t1(tech: &Tech) {
    println!("\n== T1: static delay estimate vs transient simulation ==");
    println!(
        "{:<20} {:>12} {:>12} {:>8}",
        "circuit", "static (ns)", "sim (ns)", "ratio"
    );
    let mut conservative = 0usize;
    let mut measured = 0usize;
    for row in t1_delay_accuracy(tech) {
        match (row.sim_ns, row.ratio()) {
            (Some(sim), Some(ratio)) => {
                measured += 1;
                if ratio >= 1.0 {
                    conservative += 1;
                }
                println!(
                    "{:<20} {:>12.3} {:>12.3} {:>8.2}",
                    row.name, row.static_ns, sim, ratio
                );
            }
            _ => println!(
                "{:<20} {:>12.3} {:>12} {:>8}",
                row.name, row.static_ns, "-", "-"
            ),
        }
    }
    println!("conservative on {conservative}/{measured} measured circuits");
}

fn print_t2(tech: &Tech) {
    println!("\n== T2: signal-flow direction resolution ==");
    println!(
        "{:<14} {:>8} {:>6} {:>9} {:>7}  {:>4} {:>4} {:>5} {:>4}",
        "circuit", "devices", "pass", "coverage", "sweeps", "ext", "rst", "chain", "sink"
    );
    for r in t2_flow_resolution(tech) {
        println!(
            "{:<14} {:>8} {:>6} {:>8.1}% {:>7}  {:>4} {:>4} {:>5} {:>4}",
            r.name,
            r.devices,
            r.pass,
            100.0 * r.coverage,
            r.sweeps,
            r.by_rule[0],
            r.by_rule[1],
            r.by_rule[2],
            r.by_rule[3],
        );
    }
}

fn print_t3(tech: &Tech) {
    println!("\n== T3: critical paths of the MIPS-class 32-bit datapath ==");
    let r = t3_critical_paths(tech, DatapathConfig::mips32(), 10);
    println!(
        "datapath: {} devices, {} nodes; min cycle {:.3} ns",
        r.datapath.netlist.device_count(),
        r.datapath.netlist.node_count(),
        r.min_cycle
    );
    for (phase, critical, paths) in &r.phases {
        println!("phase {} (critical {:.3} ns):", phase + 1, critical);
        for (i, (endpoint, arrival, steps)) in paths.iter().enumerate() {
            println!(
                "  #{:<2} {:>9.3} ns  {:>3} steps  -> {}",
                i + 1,
                arrival,
                steps,
                endpoint
            );
        }
    }
}

fn print_t4(tech: &Tech) {
    println!("\n== T4: two-phase clock case analysis & minimum cycle ==");
    let cycles = [50.0, 100.0, 200.0, 400.0, 800.0];
    let r = t4_clock_analysis(tech, DatapathConfig::mips32(), &cycles);
    println!(
        "critical arrivals: φ1 {:.3} ns, φ2 {:.3} ns; latches (φ1, φ2) = {:?}",
        r.arrivals.0, r.arrivals.1, r.latches
    );
    println!("minimum cycle: {:.3} ns", r.min_cycle);
    println!(
        "naive (no case analysis) mode: {}",
        if r.naive_cyclic {
            "combinational cycle detected — unusable, as expected"
        } else {
            "unexpectedly acyclic"
        }
    );
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "cycle", "slack φ1", "slack φ2", "feasible"
    );
    for row in &r.rows {
        println!(
            "{:>10.1} {:>12.3} {:>12.3} {:>9}",
            row.cycle_ns,
            row.slack1,
            row.slack2,
            if row.feasible { "yes" } else { "NO" }
        );
    }
}

fn print_t5(tech: &Tech) {
    println!("\n== T5: analyzer runtime scaling ==");
    println!(
        "{:>9} {:>9} {:>12} {:>14}",
        "devices", "nodes", "analyze (ms)", "devices/ms"
    );
    let sizes = [100, 400, 1_600, 6_400, 25_600, 102_400];
    for r in t5_scaling(tech, &sizes) {
        println!(
            "{:>9} {:>9} {:>12.2} {:>14.0}",
            r.devices, r.nodes, r.analyze_ms, r.devices_per_ms
        );
    }
    println!("(near-constant devices/ms = near-linear runtime)");
}

fn print_f1(tech: &Tech) {
    println!("\n== F1: delay vs pass-chain length ==");
    println!(
        "{:>4} {:>12} {:>14} {:>12}",
        "n", "raw (ns)", "buffered (ns)", "sim (ns)"
    );
    for p in f1_pass_chain(tech, &[1, 2, 3, 4, 6, 8, 10], 3, true) {
        match p.sim_ns {
            Some(s) => println!(
                "{:>4} {:>12.3} {:>14.3} {:>12.3}",
                p.n, p.raw_ns, p.buffered_ns, s
            ),
            None => println!(
                "{:>4} {:>12.3} {:>14.3} {:>12}",
                p.n, p.raw_ns, p.buffered_ns, "-"
            ),
        }
    }
    println!("(raw grows quadratically; buffered linearly)");
}

fn print_f2(tech: &Tech) {
    println!("\n== F2: inverter rise/fall delay vs load ==");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "load pF", "rise (ns)", "fall (ns)", "sim rise", "sim fall", "r/f"
    );
    for p in f2_rise_fall(tech, &[0.05, 0.1, 0.2, 0.5, 1.0, 2.0], true) {
        println!(
            "{:>9.2} {:>10.3} {:>10.3} {:>10} {:>10} {:>7.2}",
            p.load_pf,
            p.rise_ns,
            p.fall_ns,
            p.sim_rise_ns.map_or("-".into(), |v| format!("{v:.3}")),
            p.sim_fall_ns.map_or("-".into(), |v| format!("{v:.3}")),
            p.rise_ns / p.fall_ns,
        );
    }
    println!("(ratioed logic: rise ≈ 5.5× fall electrically, both linear in load)");
}

fn print_f3(tech: &Tech) {
    println!("\n== F3: endpoint slack distribution (32-bit datapath) ==");
    for h in f3_slack_histogram(tech, DatapathConfig::mips32(), 400.0, 10) {
        println!("phase {} ({} endpoints):", h.phase + 1, h.total);
        let max = h.counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in h.counts.iter().enumerate() {
            let bar = "#".repeat(c * 40 / max);
            println!(
                "  [{:>8.2}, {:>8.2}) ns {:>5}  {}",
                h.edges[i],
                h.edges[i + 1],
                c,
                bar
            );
        }
    }
}

fn print_a1(tech: &Tech) {
    println!("\n== A1: delay-model ablation ==");
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>10}",
        "circuit", "lumped", "elmore", "upper", "sim"
    );
    for r in a1_model_ablation(tech, true) {
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>10.3} {:>10}",
            r.name,
            r.lumped_ns,
            r.elmore_ns,
            r.upper_ns,
            r.sim_ns.map_or("-".into(), |v| format!("{v:.3}")),
        );
    }
    println!("(elmore ≤ upper always; lumped underestimates chain far ends)");
}

fn print_t6() {
    println!("\n== T6: first-order process scaling (4 µm -> 2 µm) ==");
    println!(
        "{:>14} {:>12} {:>12} {:>9}",
        "circuit", "4um (ns)", "2um (ns)", "speedup"
    );
    for r in t6_process_scaling(DatapathConfig::small()) {
        println!(
            "{:>14} {:>12.3} {:>12.3} {:>8.2}x",
            r.name,
            r.nmos4_ns,
            r.nmos2_ns,
            r.speedup()
        );
    }
    println!("(self-loaded logic gains ~2x; wire-loaded structures gain less)");
}

fn print_a3(tech: &Tech) {
    println!("\n== A3: adder architectures (carry arrival, ns) ==");
    println!(
        "{:>6} {:>10} {:>12} {:>14}",
        "width", "ripple", "manchester", "manchester/4"
    );
    for r in a3_adder_architectures(tech, &[4, 8, 16, 32]) {
        println!(
            "{:>6} {:>10.3} {:>12.3} {:>14.3}",
            r.width, r.ripple_ns, r.manchester_ns, r.manchester_buf_ns
        );
    }
    println!("(manchester wins at small widths; unbuffered it loses to its own");
    println!(" quadratic chain as width grows — buffering every 4 bits restores it)");
}

fn print_a2(tech: &Tech) {
    println!("\n== A2: direction-rule ablation ==");
    println!("{:<14} {:>10} {:>12}", "disabled", "coverage", "unresolved");
    for r in a2_rule_ablation(tech) {
        let name = r
            .disabled
            .map_or("(none)".to_string(), |rule| rule.to_string());
        println!(
            "{:<14} {:>9.1}% {:>12}",
            name,
            100.0 * r.coverage,
            r.unresolved
        );
    }
}
