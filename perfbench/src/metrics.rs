//! The metric registry: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

/// A reported metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// each of them; README.md says what each means on each workload.
pub const END_TO_END: &[Spec] = &[
    spec("latency_p50_ms", "ms"),
    spec("latency_tail_ms", "ms"),
    spec("alt_latency_p50_ms", "ms"),
    spec("throughput_per_s", "1/s"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. Times are medians per call of
/// the named public function; counts are `tv_obs` counter deltas per
/// timed operation. Every workload measures each one: layers its own
/// operation does not reach are probed on its design.
pub const PER_LAYER: &[Spec] = &[
    spec("netlist.parse_ms", "ms"),
    spec("netlist.device_lookup_us", "us"),
    spec("netlist.edit_us", "us"),
    spec("flow.analyze_ms", "ms"),
    spec("flow.sweeps", "count"),
    spec("flow.worklist_pops", "count"),
    spec("clocks.qualify_ms", "ms"),
    spec("clocks.latches_ms", "ms"),
    spec("core.graph.build_ms", "ms"),
    spec("core.graph.build_j2_ms", "ms"),
    spec("graph.arcs", "count"),
    spec("core.extract.share", "ratio"),
    spec("core.propagate_ms", "ms"),
    spec("propagate.relaxations", "count"),
    spec("cone.relax_ratio", "ratio"),
    spec("cone.fallbacks", "count"),
    spec("core.paths_ms", "ms"),
    spec("core.race_ms", "ms"),
    spec("core.checks_ms", "ms"),
    spec("core.render_ms", "ms"),
    spec("core.fingerprint_ms", "ms"),
    spec("core.pipeline.analyze_ms", "ms"),
    spec("pipeline.reused", "count"),
    spec("pipeline.spliced", "count"),
    spec("pipeline.computed", "count"),
    spec("serve.session.eval_us", "us"),
    spec("serve.handshake_ms", "ms"),
    spec("serve.transport_us", "us"),
    spec("serve.requests", "count"),
    spec("serve.rejected", "count"),
    spec("serve.retries", "count"),
    spec("proto.encode_us", "us"),
    spec("proto.decode_us", "us"),
    spec("proto.reply_bytes", "bytes"),
    spec("cold.unattributed_ms", "ms"),
    spec("warm.unattributed_ms", "ms"),
    spec("serve.unattributed_us", "us"),
    spec("trace.overhead_ms", "ms"),
];

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name`, which must be a registered metric.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered name: that is a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value (0 if it was never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `"metrics"` object for `specs`: every one, with its unit.
    pub fn render_json(&self, specs: &[Spec]) -> String {
        let body: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    s.name,
                    json_number(self.get(s.name)),
                    s.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON, with all its digits (`{:?}` on `f64` is the
/// shortest exact round trip); non-finite values cannot occur in JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `s` is a valid metric name: starts with a letter or digit,
    /// at most 64 characters of `[A-Za-z0-9_.-]`.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_unique_and_has_a_unit() {
        let all: Vec<Spec> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for s in &all {
            assert!(valid_name(s.name), "bad metric name {:?}", s.name);
            assert!(valid_unit(s.unit), "bad unit {:?} for {}", s.unit, s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("serve p50"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = tv_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            let got: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(&str, &str)> = specs.iter().map(|s| (s.name, s.unit)).collect();
            assert_eq!(got, want, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn json_output_carries_every_spec_with_its_unit() {
        let mut v = Values::default();
        v.set("setup_s", 1.25);
        let json = v.render_json(END_TO_END);
        assert!(json.contains(r#""setup_s": {"value": 1.25, "unit": "s"}"#));
        assert!(json.contains(r#""peak_rss_mb": {"value": 0.0, "unit": "MB"}"#));
        assert!(tv_obs::json::parse(&json).is_ok());
    }
}
