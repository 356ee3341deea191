//! Electrical rule checks — the non-timing half of a 1983 timing
//! verifier's report.
//!
//! Ratioed nMOS fails silently in ways a modern static CMOS designer never
//! sees: a pull-up sized too strong leaves the low level above threshold;
//! a storage node sharing charge with a big undriven network loses its
//! value; an unorientable pass transistor makes every delay downstream of
//! it untrustworthy. TV printed these alongside the critical paths, and
//! so does this module.

use std::fmt;

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, Direction, FlowAnalysis, NodeClass};
use tv_netlist::{codes, DeviceId, Diagnostic, FxHashSet, Netlist, NodeId};

use crate::graph::{pull_down_resistance_with, pull_up_resistance};

/// One electrical diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckIssue {
    /// A restoring stage whose pull-up/pull-down resistance ratio is below
    /// the technology requirement: its logic-low output sits too high.
    RatioViolation {
        /// The stage output node.
        node: NodeId,
        /// Measured R_pu / R_pd.
        ratio: f64,
        /// Required minimum ratio (4, or 8 when driven through pass logic).
        required: f64,
    },
    /// A dynamic node whose stored charge can redistribute onto a
    /// comparable undriven capacitance when a pass device opens.
    ChargeSharing {
        /// The storage/precharged node at risk.
        node: NodeId,
        /// Its capacitance, pF.
        stored_pf: f64,
        /// The undriven capacitance it may share with, pF.
        shared_pf: f64,
    },
    /// A pass transistor no direction rule could orient: delays through it
    /// are analyzed conservatively and should be reviewed.
    UnresolvedDirection {
        /// The unoriented device.
        device: DeviceId,
    },
    /// A node derived from both clock phases.
    ClockConflict {
        /// The conflicted node.
        node: NodeId,
    },
}

impl CheckIssue {
    /// Renders with netlist names.
    pub fn display(&self, netlist: &Netlist) -> String {
        match self {
            CheckIssue::RatioViolation {
                node,
                ratio,
                required,
            } => format!(
                "ratio violation at {}: R_pu/R_pd = {ratio:.2}, need >= {required}",
                netlist.node_name(*node)
            ),
            CheckIssue::ChargeSharing {
                node,
                stored_pf,
                shared_pf,
            } => format!(
                "charge sharing at {}: {stored_pf:.4} pF stored vs {shared_pf:.4} pF shared",
                netlist.node_name(*node)
            ),
            CheckIssue::UnresolvedDirection { device } => format!(
                "unresolved pass direction: {}",
                netlist.device(*device).name()
            ),
            CheckIssue::ClockConflict { node } => format!(
                "clock qualification conflict at {}",
                netlist.node_name(*node)
            ),
        }
    }

    /// Where a ratio (section 0) or charge-sharing (section 1) issue
    /// sorts in [`check_electrical`]'s order; `None` for the sections
    /// after them.
    fn site_key(&self) -> Option<(u8, NodeId)> {
        match self {
            CheckIssue::RatioViolation { node, .. } => Some((0, *node)),
            CheckIssue::ChargeSharing { node, .. } => Some((1, *node)),
            _ => None,
        }
    }

    /// The stable diagnostic code for this check kind.
    pub fn code(&self) -> &'static str {
        match self {
            CheckIssue::RatioViolation { .. } => codes::CHECK_RATIO,
            CheckIssue::ChargeSharing { .. } => codes::CHECK_CHARGE_SHARING,
            CheckIssue::UnresolvedDirection { .. } => codes::FLOW_UNRESOLVED,
            CheckIssue::ClockConflict { .. } => codes::CHECK_CLOCK_CONFLICT,
        }
    }

    /// Renders this check as a [`Diagnostic`] on the unified stream.
    /// Electrical checks are warnings: the analysis completed, but the
    /// circuit may not work at the reported speed.
    pub fn diagnostic(&self, netlist: &Netlist) -> Diagnostic {
        Diagnostic::warning(self.code(), self.display(netlist))
    }
}

impl fmt::Display for CheckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckIssue::RatioViolation {
                ratio, required, ..
            } => {
                write!(f, "ratio violation ({ratio:.2} < {required})")
            }
            CheckIssue::ChargeSharing { .. } => write!(f, "charge sharing hazard"),
            CheckIssue::UnresolvedDirection { device } => {
                write!(f, "unresolved pass direction ({device})")
            }
            CheckIssue::ClockConflict { node } => write!(f, "clock conflict ({node})"),
        }
    }
}

/// Fraction of a dynamic node's capacitance that undriven pass-adjacent
/// capacitance may reach before we call it a charge-sharing hazard.
pub const CHARGE_SHARE_LIMIT: f64 = 0.5;

/// Runs every electrical check. Deterministic order: ratio checks by node
/// id, then charge sharing, then unresolved directions, then conflicts.
pub fn check_electrical(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    qualification: &[Qualification],
) -> Vec<CheckIssue> {
    let mut issues = Vec::new();
    // One path-flag buffer for every pull-down search; each search
    // leaves it all-false again.
    let mut on_path = vec![false; netlist.node_count()];
    issues.extend(
        netlist
            .node_ids()
            .filter_map(|id| ratio_issue(netlist, flow, id, &mut on_path)),
    );
    issues.extend(
        netlist
            .node_ids()
            .filter_map(|id| charge_issue(netlist, flow, id)),
    );

    // Unresolved pass directions.
    for dref in netlist.devices() {
        if flow.device_role(dref.id) == DeviceRole::Pass
            && flow.direction(dref.id) == Direction::Unresolved
        {
            issues.push(CheckIssue::UnresolvedDirection { device: dref.id });
        }
    }

    // Clock qualification conflicts.
    for id in netlist.node_ids() {
        if qualification[id.index()] == Qualification::Conflict {
            issues.push(CheckIssue::ClockConflict { node: id });
        }
    }

    issues
}

/// The ratio check at a restored node: its pull-up against its worst
/// pull-down path. `on_path` must be all-false and is left so.
fn ratio_issue(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    id: NodeId,
    on_path: &mut [bool],
) -> Option<CheckIssue> {
    if flow.node_class(id) != NodeClass::Restored {
        return None;
    }
    let r_pu = pull_up_resistance(netlist, flow, id)?;
    let r_pd = pull_down_resistance_with(netlist, flow, id, on_path)?;
    let tech = netlist.tech();
    let required = if stage_sees_degraded_input(netlist, flow, id) {
        tech.ratio_through_pass
    } else {
        tech.ratio_restored
    };
    let ratio = r_pu / r_pd;
    (ratio < required * 0.999).then_some(CheckIssue::RatioViolation {
        node: id,
        ratio,
        required,
    })
}

/// The charge-sharing check at a dynamic (storage or precharged) node.
fn charge_issue(netlist: &Netlist, flow: &FlowAnalysis, id: NodeId) -> Option<CheckIssue> {
    if !matches!(
        flow.node_class(id),
        NodeClass::Storage | NodeClass::Precharged
    ) {
        return None;
    }
    let stored = netlist.node_cap(id);
    let mut shared = 0.0;
    for &did in netlist.node_devices(id).channel {
        if flow.device_role(did) != DeviceRole::Pass {
            continue;
        }
        let other = netlist.device(did).other_channel_end(id);
        // Charge only redistributes onto sides nothing restores.
        if matches!(
            flow.node_class(other),
            NodeClass::PassInterior | NodeClass::Storage | NodeClass::GateOnly
        ) {
            shared += netlist.node_cap(other);
        }
    }
    (stored > 0.0 && shared > CHARGE_SHARE_LIMIT * stored).then_some(CheckIssue::ChargeSharing {
        node: id,
        stored_pf: stored,
        shared_pf: shared,
    })
}

/// The electrical check list a held pipeline keeps: every issue in
/// [`check_electrical`] order, each with its rendered [`Diagnostic`],
/// so a parametric edit re-checks only the sites it can move and never
/// formats an unchanged issue again.
pub(crate) struct CheckList {
    pub(crate) issues: Vec<CheckIssue>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl CheckList {
    /// Every check, rendered.
    pub(crate) fn cold(
        netlist: &Netlist,
        flow: &FlowAnalysis,
        qualification: &[Qualification],
    ) -> CheckList {
        let issues = check_electrical(netlist, flow, qualification);
        let diagnostics = issues.iter().map(|c| c.diagnostic(netlist)).collect();
        CheckList {
            issues,
            diagnostics,
        }
    }

    /// Re-checks the sites a parametric edit of the `dirty` nodes can
    /// move, leaving topology, flow and qualification as they were (so
    /// direction and conflict issues stand). Ratio checks read device
    /// resistances: a resized device has a channel end in the pull-up
    /// or pull-down network of every site reading it, and those
    /// networks are the pull-down-connected components of their nodes.
    /// Charge sharing reads node caps: a site's own, and those of its
    /// pass neighbours. Returns the number of sites re-checked; the
    /// list equals [`CheckList::cold`] on the edited netlist.
    pub(crate) fn update(
        &mut self,
        netlist: &Netlist,
        flow: &FlowAnalysis,
        dirty: &[NodeId],
    ) -> usize {
        let rail = |n: NodeId| n == netlist.vdd() || n == netlist.gnd();
        let mut ratio_sites: Vec<NodeId> = Vec::new();
        let mut charge_sites: Vec<NodeId> = Vec::new();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack: Vec<NodeId> = Vec::new();
        for &d in dirty.iter().filter(|&&d| !rail(d)) {
            charge_sites.push(d);
            for &did in netlist.node_devices(d).channel {
                if flow.device_role(did) == DeviceRole::Pass {
                    charge_sites.push(netlist.device(did).other_channel_end(d));
                }
            }
            if seen.insert(d) {
                stack.push(d);
            }
            while let Some(node) = stack.pop() {
                ratio_sites.push(node);
                for &did in netlist.node_devices(node).channel {
                    if flow.device_role(did) != DeviceRole::PullDown {
                        continue;
                    }
                    let other = netlist.device(did).other_channel_end(node);
                    if !rail(other) && seen.insert(other) {
                        stack.push(other);
                    }
                }
            }
        }
        ratio_sites.sort_unstable();
        charge_sites.sort_unstable();
        charge_sites.dedup();
        let rechecked = ratio_sites.len() + charge_sites.len();

        // Fresh verdicts in list order (see `CheckIssue::site_key`),
        // merged over the old entries: a re-checked site's old entry is
        // replaced by its verdict, everything else is moved as it was.
        let mut on_path = vec![false; netlist.node_count()];
        let mut fresh = ratio_sites
            .into_iter()
            .map(|id| ((0, id), ratio_issue(netlist, flow, id, &mut on_path)))
            .chain(
                charge_sites
                    .into_iter()
                    .map(|id| ((1, id), charge_issue(netlist, flow, id))),
            )
            .peekable();
        let old_issues = std::mem::take(&mut self.issues);
        let old_diags = std::mem::take(&mut self.diagnostics);
        let mut old = old_issues.into_iter().zip(old_diags).peekable();
        let mut out: Vec<(CheckIssue, Diagnostic)> = Vec::with_capacity(old.len() + 8);
        loop {
            let old_key = old.peek().and_then(|(c, _)| c.site_key());
            let take_fresh = match (fresh.peek(), old_key) {
                (Some(&(f, _)), Some(o)) => f <= o,
                (Some(_), None) => true,
                (None, _) => break,
            };
            if !take_fresh {
                out.push(old.next().expect("peeked"));
                continue;
            }
            let (key, issue) = fresh.next().expect("peeked");
            if old_key == Some(key) {
                old.next();
            }
            if let Some(issue) = issue {
                let d = issue.diagnostic(netlist);
                out.push((issue, d));
            }
        }
        out.extend(old);
        (self.issues, self.diagnostics) = out.into_iter().unzip();
        rechecked
    }
}

/// Whether any pull-down gate input of the stage under `out` is fed by a
/// pass network (degraded high level VDD − V_T), which doubles the
/// required ratio.
fn stage_sees_degraded_input(netlist: &Netlist, flow: &FlowAnalysis, out: NodeId) -> bool {
    let mut frontier = vec![out];
    let mut seen = std::collections::HashSet::new();
    seen.insert(out);
    while let Some(node) = frontier.pop() {
        for &did in netlist.node_devices(node).channel {
            if flow.device_role(did) != DeviceRole::PullDown {
                continue;
            }
            let dev = netlist.device(did);
            let gate_class = flow.node_class(dev.gate());
            if matches!(
                gate_class,
                NodeClass::Storage | NodeClass::PassInterior | NodeClass::Bus
            ) {
                return true;
            }
            let other = dev.other_channel_end(node);
            if other != netlist.gnd() && other != netlist.vdd() && seen.insert(other) {
                frontier.push(other);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn run_checks(nl: &Netlist) -> Vec<CheckIssue> {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        check_electrical(nl, &flow, &q)
    }

    #[test]
    fn standard_inverter_is_clean() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        assert!(run_checks(&nl).is_empty(), "{:?}", run_checks(&nl));
    }

    #[test]
    fn overstrong_pulldown_is_fine_overweak_is_not() {
        // Pull-up at 2 squares, pull-down deliberately long at 2 squares:
        // electrical ratio ≈ r_dep/r_enh (~1.4) < 4. Violation.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.depletion_load(out, 4.0, 8.0);
        let gnd = b.gnd();
        b.enhancement("pd", a, gnd, out, 4.0, 8.0);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::RatioViolation { ratio, .. } if *ratio < 2.0)));
    }

    #[test]
    fn pass_driven_stage_needs_ratio_eight() {
        // Inverter whose input comes through a pass transistor: the
        // standard 4:1 inverter violates the 8:1 requirement.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(
            issues.iter().any(|i| matches!(
                i,
                CheckIssue::RatioViolation { required, .. } if *required == 8.0
            )),
            "{issues:?}"
        );
    }

    #[test]
    fn charge_sharing_flagged_on_big_shared_cap() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi = b.clock("phi1", 0);
        let sel = b.clock("phi2", 1);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, d, qb);
        // Pass device from the storage node onto a big dead capacitance,
        // opened on the other phase.
        let big = b.node("big");
        b.pass("share", sel, store, big);
        b.add_cap(big, 1.0).unwrap();
        // Give `big` a second pass contact so it is not a single-contact
        // sink and stays an undriven interior node.
        let other = b.node("other");
        b.pass("share2", sel, big, other);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, CheckIssue::ChargeSharing { node, .. } if *node == store)),
            "{issues:?}"
        );
    }

    #[test]
    fn unresolved_direction_reported() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let c = b.input("c");
        let x = b.node("x");
        let y = b.node("y");
        // Channel between two floating internal nodes: nothing orients it.
        b.pass("mystery", c, x, y);
        // Keep x/y multi-contact so the sink rule stays quiet.
        let z = b.node("z");
        b.pass("m2", c, y, z);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::UnresolvedDirection { .. })));
    }

    #[test]
    fn clock_conflict_reported() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let bad = b.node("bad");
        b.nand("g", &[phi1, phi2], bad);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::ClockConflict { .. })));
    }

    #[test]
    fn issue_display_uses_names() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("badnode");
        b.depletion_load(out, 4.0, 8.0);
        let gnd = b.gnd();
        b.enhancement("pd", a, gnd, out, 4.0, 8.0);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        let text = issues[0].display(&nl);
        assert!(text.contains("badnode"));
    }

    /// Eight latch cells, each storage node sharing onto an undriven
    /// pass-network node through a device opened on the other phase,
    /// chained through NAND gates (series pull-downs): both ratio and
    /// charge-sharing sites.
    fn dynamic_cells() -> Netlist {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi = b.clock("phi1", 0);
        let sel = b.clock("phi2", 1);
        let en = b.input("en");
        let mut prev = b.input("d");
        for i in 0..8 {
            let qb = b.node(format!("qb{i}"));
            let store = b.dynamic_latch(format!("l{i}"), phi, prev, qb);
            let big = b.node(format!("big{i}"));
            b.pass(format!("share{i}"), sel, store, big);
            b.add_cap(big, 0.02 * i as f64).unwrap();
            let other = b.node(format!("other{i}"));
            b.pass(format!("share2_{i}"), sel, big, other);
            let out = b.node(format!("o{i}"));
            b.nand(format!("n{i}"), &[qb, en], out);
            prev = out;
        }
        b.finish().unwrap()
    }

    #[test]
    fn spliced_check_list_equals_check_electrical() {
        // 300 seeded resizes and wiring-cap edits: after each, the list
        // updated from the edit's dirty nodes equals a fresh
        // `check_electrical`, diagnostics included — issues appear,
        // clear and change value along the way.
        let mut design = tv_netlist::Design::new(dynamic_cells());
        let flow = analyze(design.netlist(), &RuleSet::all());
        let q = qualify_with_flow(design.netlist(), &flow);
        let mut list = CheckList::cold(design.netlist(), &flow, &q);
        let kinds = |l: &CheckList| {
            let charge = l
                .issues
                .iter()
                .filter(|c| matches!(c, CheckIssue::ChargeSharing { .. }))
                .count();
            (l.issues.len() - charge, charge)
        };
        let (ratio, charge) = kinds(&list);
        assert!(ratio > 0 && charge > 0, "{:?}", list.issues);
        let devs: Vec<_> = design.netlist().devices().map(|d| d.id).collect();
        let nodes: Vec<_> = design.netlist().node_ids().collect();
        let mut rng = tv_gen::rng::Rng64::new(0xC4EC_5EED);
        let mut seen = std::collections::HashSet::new();
        for step in 0..300 {
            let receipt = if rng.bool(0.5) {
                let dev = devs[rng.usize_range(0, devs.len())];
                let w = rng.f64_range(2.0, 40.0);
                let l = rng.f64_range(2.0, 12.0);
                design.resize_device(dev, w, l).unwrap()
            } else {
                let node = nodes[rng.usize_range(0, nodes.len())];
                design.set_node_cap(node, rng.f64_range(0.0, 0.2)).unwrap()
            };
            list.update(design.netlist(), &flow, &receipt.dirty);
            let nl = design.netlist();
            let fresh = check_electrical(nl, &flow, &q);
            assert_eq!(list.issues, fresh, "step {step}");
            let rendered: Vec<_> = fresh.iter().map(|c| c.diagnostic(nl)).collect();
            assert_eq!(list.diagnostics, rendered, "step {step}");
            seen.insert(kinds(&list));
        }
        assert!(seen.len() > 4, "edits never moved the issue mix: {seen:?}");
    }
}
