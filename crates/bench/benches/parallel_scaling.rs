//! Parallel scaling of the levelized timing engine on the MIPS-class
//! datapath: the serial graph build plus propagation at 1/2/4/8
//! workers, for all three analysis cases. Every run is asserted
//! bit-identical to the serial walk. The table this prints is recorded
//! in `EXPERIMENTS.md`.

use tv_bench::experiments::{parallel_scaling, ParallelScalingRow};
use tv_gen::datapath::DatapathConfig;
use tv_netlist::Tech;

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = parallel_scaling(&Tech::nmos4um(), DatapathConfig::mips32(), &[1, 2, 4, 8], 7);
    let baseline: ParallelScalingRow = rows[0].clone();
    println!("host threads: {threads}");
    println!(
        "{:>5} {:>12} {:>14} {:>12} {:>9} {:>9}",
        "jobs", "build (ms)", "propagate (ms)", "total (ms)", "wall", "modeled"
    );
    for row in &rows {
        println!(
            "{:>5} {:>12.3} {:>14.3} {:>12.3} {:>8.2}x {:>8.2}x",
            row.jobs,
            row.build_ms,
            row.propagate_ms,
            row.total_ms(),
            row.speedup_over(&baseline),
            row.modeled_speedup,
        );
    }
}
