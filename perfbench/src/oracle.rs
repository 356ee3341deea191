//! Output checks. Each compares an answer the timed code gave with one
//! computed by an independent code path, outside the timed region.

use tv_core::{report_fingerprint, AnalysisOptions, Analyzer, PassManager};
use tv_netlist::{Design, Netlist};

/// Operations attempted, and how many of them went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations the workload issued (timed or warm-up).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Answers the oracle rejected.
    pub wrong: u64,
    /// One line per failure, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records a failed or refused operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Compares `got` with the oracle's `want`; a mismatch is a wrong
    /// answer.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, want: T, got: T) {
        if want != got {
            self.wrong(format!("{what}: expected {want:?}, got {got:?}"));
        }
    }

    /// Records an answer the oracle rejected.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.note(what);
    }

    fn note(&mut self, line: String) {
        // Bounded: a systematic fault should not flood the log.
        if self.notes.len() < 20 {
            self.notes.push(line);
        }
    }

    /// (failed + wrong) / attempted.
    pub fn failed_ratio(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }
}

/// The fingerprint a session reply carries for `fp`.
pub fn reply_form(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Fingerprint of a fresh one-shot [`Analyzer`] run: the cold reference.
pub fn cold_fingerprint(netlist: &Netlist, options: &AnalysisOptions) -> u64 {
    let report = Analyzer::new(netlist)
        .try_run(options)
        .expect("benchmark designs are within the size limits");
    report_fingerprint(netlist, &report)
}

/// Fingerprint of a cold [`PassManager`] run over `design`, the path
/// sessions take.
pub fn pipeline_fingerprint(design: &Design, options: &AnalysisOptions) -> u64 {
    let report = PassManager::new().analyze(design, options);
    report_fingerprint(design.netlist(), &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_gen::datapath::{datapath, DatapathConfig};
    use tv_netlist::Tech;

    #[test]
    fn oracle_flags_a_report_of_a_resized_netlist() {
        let options = AnalysisOptions::default();
        let nl = datapath(Tech::nmos4um(), DatapathConfig::small()).netlist;
        let mut edited = Design::new(nl.clone());
        let dev = nl.devices().next().expect("a device").id;
        edited.resize_device(dev, 9.0, 2.0).expect("valid resize");
        let wrong = cold_fingerprint(edited.netlist(), &options);

        let mut tally = Tally::default();
        let want = cold_fingerprint(&nl, &options);
        tally.expect_eq(
            "cold",
            want,
            pipeline_fingerprint(&Design::new(nl.clone()), &options),
        );
        assert_eq!(tally.wrong, 0, "{:?}", tally.notes);
        tally.expect_eq("resized", reply_form(want), reply_form(wrong));
        assert_eq!(tally.wrong, 1);
        assert!(tally.notes[0].contains("resized"));
    }
}
