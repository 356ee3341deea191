//! Per-layer samples for the traced run: the benchmark's own timers
//! around public calls, plus `tv_obs` counter deltas.

use std::collections::BTreeMap;
use std::time::Instant;

use tv_obs::Counter;

use crate::stats::median;
use crate::Outcome;

/// Samples per per-layer metric, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Runs `f` and returns its wall time in ms with its result.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        (t0.elapsed().as_secs_f64() * 1e3, v)
    }

    /// Times `f` as one sample of `name`, in the metric's own unit
    /// (`_us` names in microseconds, the rest in milliseconds).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (t, v) = Self::timed(f);
        self.add(name, if name.ends_with("_us") { t * 1e3 } else { t });
        v
    }

    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Adds one sample of a work counter, under the counter's own name.
    pub fn count(&mut self, c: Counter, n: u64) {
        self.add(c.name(), n as f64);
    }

    /// The median of `name`'s samples so far (0 with none).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |xs| median(xs))
    }

    /// Takes from `probe` every metric this run has no samples of: a
    /// probe of another workload's layers fills in, never mixes with,
    /// what the workload's own operations measured.
    pub fn fill_from(&mut self, probe: Layers) {
        for (name, xs) in probe.0 {
            self.0.entry(name).or_insert(xs);
        }
    }

    /// Records every metric's median into `out`, with a line giving
    /// each one's sample count.
    pub fn finish(self, out: &mut Outcome) {
        let mut counts = Vec::new();
        for (name, xs) in self.0 {
            out.values.set(name, median(&xs));
            counts.push(format!("{name} n={}", xs.len()));
        }
        out.lines
            .push(format!("per-layer samples: {}", counts.join(", ")));
    }
}
