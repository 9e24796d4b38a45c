//! Rendering of audit artifacts: fixed-width text tables (the CLI's
//! presentation layer) and machine-readable JSON.

use fairem_csvio::Json;

use crate::audit::AuditReport;
use crate::calibrate::CalibratedAudit;
use crate::ensemble::{EnsembleExplorer, ParetoPoint};
use crate::multiworkload::MultiWorkloadReport;

fn fmt(v: f64) -> String {
    if v.is_nan() {
        "  n/a".to_owned()
    } else {
        format!("{v:.3}")
    }
}

/// Render an audit report as an aligned text table (one row per
/// measure × group), mirroring Figure 4's audit pane.
pub fn audit_text(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "audit: {} (match threshold {:.2}, fairness threshold {:.2})\n",
        report.matcher, report.matching_threshold, report.fairness_threshold
    ));
    if report.is_degraded() {
        out.push_str(&format!(
            "DEGRADED COVERAGE: {} matcher(s) failed and are absent from this audit\n",
            report.degraded.len()
        ));
        for f in &report.degraded {
            out.push_str(&format!("  {f}\n"));
        }
    }
    out.push_str(&format!(
        "{:<10} {:<18} {:>8} {:>8} {:>9} {:>8}  {}\n",
        "measure", "group", "value", "overall", "disparity", "support", "verdict"
    ));
    for e in &report.entries {
        let verdict = if e.insufficient() {
            "insufficient"
        } else if e.unfair {
            "UNFAIR"
        } else {
            "fair"
        };
        out.push_str(&format!(
            "{:<10} {:<18} {:>8} {:>8} {:>9} {:>8}  {}\n",
            e.measure.name(),
            e.group,
            fmt(e.group_value),
            fmt(e.overall_value),
            fmt(e.disparity),
            e.support,
            verdict
        ));
    }
    out
}

/// Render an audit report as unicode bar charts per measure — the
/// textual cousin of Figure 4's plot pane. Each bar shows the group's
/// disparity scaled to the axis `[0, max(2·threshold, max disparity)]`;
/// the `|` marks the fairness threshold (the demo's red line).
pub fn audit_bars(report: &AuditReport) -> String {
    const WIDTH: usize = 40;
    let mut out = String::new();
    out.push_str(&format!("unfairness bars: {}\n", report.matcher));
    let axis_max = report
        .entries
        .iter()
        .map(|e| e.disparity)
        .filter(|d| d.is_finite())
        .fold(report.fairness_threshold * 2.0, f64::max);
    let threshold_col = ((report.fairness_threshold / axis_max) * WIDTH as f64).round() as usize;
    // Group rows under each measure, preserving entry order.
    let mut measures: Vec<crate::fairness::FairnessMeasure> = Vec::new();
    for e in &report.entries {
        if !measures.contains(&e.measure) {
            measures.push(e.measure);
        }
    }
    for m in measures {
        out.push_str(&format!("{} ({})\n", m.name(), m.description()));
        for e in report.entries.iter().filter(|e| e.measure == m) {
            let mut bar: Vec<char> = vec![' '; WIDTH + 1];
            if e.disparity.is_finite() {
                let filled = ((e.disparity / axis_max) * WIDTH as f64).round() as usize;
                for slot in bar.iter_mut().take(filled.min(WIDTH)) {
                    *slot = '█';
                }
            }
            if threshold_col <= WIDTH {
                bar[threshold_col] = '|';
            }
            let bar: String = bar.into_iter().collect();
            let tag = if e.insufficient() {
                " (insufficient)"
            } else if e.unfair {
                " UNFAIR"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<18} {} {}{}\n",
                e.group,
                bar,
                if e.disparity.is_finite() {
                    format!("{:.3}", e.disparity)
                } else {
                    "n/a".into()
                },
                tag
            ));
        }
    }
    out
}

/// Serialize an audit report to JSON.
pub fn audit_json(report: &AuditReport) -> Json {
    Json::obj([
        ("matcher", report.matcher.as_str().into()),
        ("matching_threshold", report.matching_threshold.into()),
        ("fairness_threshold", report.fairness_threshold.into()),
        (
            "degraded",
            Json::arr(report.degraded.iter().map(|f| {
                Json::obj([
                    ("matcher", f.matcher.as_str().into()),
                    ("stage", f.stage.to_string().into()),
                    ("reason", f.reason.as_str().into()),
                ])
            })),
        ),
        (
            "entries",
            Json::arr(report.entries.iter().map(|e| {
                Json::obj([
                    ("measure", e.measure.name().into()),
                    ("paradigm", e.paradigm.to_string().into()),
                    ("group", e.group.as_str().into()),
                    ("group_value", e.group_value.into()),
                    ("overall_value", e.overall_value.into()),
                    ("disparity", e.disparity.into()),
                    ("support", e.support.into()),
                    ("unfair", e.unfair.into()),
                ])
            })),
        ),
    ])
}

/// Render a threshold-independent calibrated audit as text: per-group
/// score-distribution distances vs the overall distribution and
/// per-measure fairness areas, raw vs calibrated side by side when a
/// calibration policy ran.
pub fn calibrated_audit_text(report: &CalibratedAudit) -> String {
    let mut out = String::new();
    match &report.calibration {
        Some(label) => out.push_str(&format!(
            "calibrated audit: {} (calibration {}, {} group(s) fitted, {} fallback(s))\n",
            report.matcher, label, report.groups_fitted, report.fallbacks
        )),
        None => out.push_str(&format!(
            "calibrated audit: {} (calibration off — raw scores only)\n",
            report.matcher
        )),
    }
    out.push_str("score-distribution distances vs overall (threshold-independent):\n");
    if report.calibrated.is_some() {
        out.push_str(&format!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
            "group", "support", "ks(raw)", "w1(raw)", "ks(cal)", "w1(cal)"
        ));
    } else {
        out.push_str(&format!(
            "  {:<18} {:>8} {:>9} {:>9}\n",
            "group", "support", "ks", "w1"
        ));
    }
    for (i, e) in report.baseline.entries.iter().enumerate() {
        match report.calibrated.as_ref().and_then(|c| c.entries.get(i)) {
            Some(ce) => out.push_str(&format!(
                "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                e.group,
                e.support,
                fmt(e.ks),
                fmt(e.wasserstein),
                fmt(ce.ks),
                fmt(ce.wasserstein)
            )),
            None => out.push_str(&format!(
                "  {:<18} {:>8} {:>9} {:>9}\n",
                e.group,
                e.support,
                fmt(e.ks),
                fmt(e.wasserstein)
            )),
        }
    }
    out.push_str("fairness areas (max disparity integrated over all thresholds):\n");
    if report.calibrated.is_some() {
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10}\n",
            "measure", "area(raw)", "area(cal)"
        ));
    } else {
        out.push_str(&format!("  {:<10} {:>10}\n", "measure", "area"));
    }
    for (i, a) in report.baseline.areas.iter().enumerate() {
        match report.calibrated.as_ref().and_then(|c| c.areas.get(i)) {
            Some(ca) => out.push_str(&format!(
                "  {:<10} {:>10} {:>10}\n",
                a.measure.name(),
                fmt(a.area),
                fmt(ca.area)
            )),
            None => out.push_str(&format!("  {:<10} {:>10}\n", a.measure.name(), fmt(a.area))),
        }
    }
    match (&report.calibrated, report.ks_improved()) {
        (Some(c), Some(improved)) => out.push_str(&format!(
            "KS disparity: raw {}, calibrated {} ({})\n",
            fmt(report.baseline.max_ks()),
            fmt(c.max_ks()),
            if improved { "improved" } else { "REGRESSED" }
        )),
        _ => out.push_str(&format!(
            "KS disparity: raw {}\n",
            fmt(report.baseline.max_ks())
        )),
    }
    out
}

fn distribution_audit_json(audit: &crate::calibrate::DistributionAudit) -> Json {
    Json::obj([
        ("max_ks", audit.max_ks().into()),
        ("max_wasserstein", audit.max_wasserstein().into()),
        (
            "entries",
            Json::arr(audit.entries.iter().map(|e| {
                Json::obj([
                    ("group", e.group.as_str().into()),
                    ("support", e.support.into()),
                    ("ks", e.ks.into()),
                    ("wasserstein", e.wasserstein.into()),
                ])
            })),
        ),
        (
            "areas",
            Json::arr(audit.areas.iter().map(|a| {
                Json::obj([
                    ("measure", a.measure.name().into()),
                    ("area", a.area.into()),
                ])
            })),
        ),
    ])
}

/// Serialize a threshold-independent calibrated audit to JSON.
pub fn calibrated_audit_json(report: &CalibratedAudit) -> Json {
    Json::obj([
        ("matcher", report.matcher.as_str().into()),
        (
            "calibration",
            match &report.calibration {
                Some(label) => label.as_str().into(),
                None => Json::Null,
            },
        ),
        ("groups_fitted", report.groups_fitted.into()),
        ("fallbacks", report.fallbacks.into()),
        ("baseline", distribution_audit_json(&report.baseline)),
        (
            "calibrated",
            match &report.calibrated {
                Some(c) => distribution_audit_json(c),
                None => Json::Null,
            },
        ),
    ])
}

/// Render a multiple-workload analysis as text.
pub fn multiworkload_text(report: &MultiWorkloadReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "multi-workload analysis: {} over k={} workloads (alpha {:.3})\n",
        report.matcher, report.k, report.alpha
    ));
    out.push_str(&format!(
        "{:<10} {:<18} {:>9} {:>8} {:>9} {:>10}  {}\n",
        "measure", "group", "mean-disp", "std", "z", "p-value", "verdict"
    ));
    for t in &report.tests {
        out.push_str(&format!(
            "{:<10} {:<18} {:>9} {:>8} {:>9} {:>10}  {}\n",
            t.measure.name(),
            t.group,
            fmt(t.disparities.mean),
            fmt(t.disparities.std),
            if t.z.is_finite() {
                format!("{:.2}", t.z)
            } else {
                format!("{}", t.z)
            },
            format!("{:.2e}", t.p_value),
            if t.significant {
                "SIGNIFICANT"
            } else {
                "not significant"
            }
        ));
    }
    out
}

/// Serialize the four explanation families for one (measure, group)
/// query to a single JSON object (Figure 5's screen as machine output).
pub fn explanation_json(
    explainer: &crate::explain::Explainer<'_>,
    measure: crate::fairness::FairnessMeasure,
    group: &str,
    n_examples: usize,
    seed: u64,
) -> Json {
    let me = explainer.measure_based(measure, group);
    let rep = explainer.representation(group);
    let sub = explainer.subgroup(measure, group);
    let ex = explainer.examples(measure, group, n_examples, seed);
    Json::obj([
        ("group", group.into()),
        ("measure", measure.name().into()),
        (
            "measure_based",
            Json::obj([
                (
                    "confusion",
                    Json::obj([
                        ("tp", me.confusion.tp.into()),
                        ("fp", me.confusion.fp.into()),
                        ("fn", me.confusion.fn_.into()),
                        ("tn", me.confusion.tn.into()),
                    ]),
                ),
                (
                    "rates",
                    Json::arr(me.rates.iter().map(|(name, gv, ov)| {
                        Json::obj([
                            ("rate", (*name).into()),
                            ("group", (*gv).into()),
                            ("overall", (*ov).into()),
                        ])
                    })),
                ),
                ("narrative", me.narrative.as_str().into()),
            ]),
        ),
        (
            "representation",
            Json::obj([
                ("share_overall", rep.share_overall.into()),
                ("share_matches", rep.share_matches.into()),
                ("share_nonmatches", rep.share_nonmatches.into()),
                (
                    "train",
                    match rep.train_shares {
                        Some((o, m, n)) => Json::obj([
                            ("share_overall", o.into()),
                            ("share_matches", m.into()),
                            ("share_nonmatches", n.into()),
                        ]),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "subgroups",
            Json::arr(sub.rows.iter().map(|r| {
                Json::obj([
                    ("group", r.group.as_str().into()),
                    ("value", r.value.into()),
                    ("disparity", r.disparity.into()),
                    ("support", r.support.into()),
                ])
            })),
        ),
        (
            "examples",
            Json::arr(ex.examples.iter().map(|e| {
                Json::obj([
                    ("left", e.left.as_str().into()),
                    ("right", e.right.as_str().into()),
                    ("score", e.score.into()),
                    ("predicted", e.predicted.into()),
                    ("truth", e.truth.into()),
                ])
            })),
        ),
    ])
}

/// Render a Pareto frontier as text (Figure 6's trade-off plot, as a
/// table: each row one ensemble strategy).
pub fn pareto_text(explorer: &EnsembleExplorer, frontier: &[ParetoPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fairness/performance Pareto frontier ({} points, measure {})\n",
        frontier.len(),
        explorer.measure()
    ));
    out.push_str(&format!(
        "{:>10} {:>12}  {}\n",
        "unfairness", "performance", "assignment"
    ));
    for p in frontier {
        out.push_str(&format!(
            "{:>10} {:>12}  {}\n",
            fmt(p.unfairness),
            fmt(p.performance),
            explorer.describe(&p.assignment)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditConfig, Auditor};
    use crate::fairness::FairnessMeasure;
    use crate::schema::Table;
    use crate::sensitive::{GroupSpace, GroupVector, SensitiveAttr};
    use crate::workload::{Correspondence, Workload};
    use fairem_csvio::parse_csv_str;

    fn report() -> AuditReport {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        let space = GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")]);
        let items = vec![
            Correspondence {
                a_row: 0,
                b_row: 0,
                score: 0.9,
                truth: true,
                left: GroupVector(1),
                right: GroupVector(1),
            },
            Correspondence {
                a_row: 0,
                b_row: 0,
                score: 0.1,
                truth: true,
                left: GroupVector(2),
                right: GroupVector(2),
            },
        ];
        let w = Workload::new(items, 0.5);
        Auditor::new(AuditConfig {
            measures: vec![FairnessMeasure::TruePositiveRateParity],
            min_support: 1,
            ..AuditConfig::default()
        })
        .audit("DT", &w, &space)
    }

    #[test]
    fn audit_text_contains_rows_and_verdicts() {
        let txt = audit_text(&report());
        assert!(txt.contains("audit: DT"));
        assert!(txt.contains("TPRP"));
        assert!(txt.contains("cn"));
        assert!(txt.contains("UNFAIR") || txt.contains("fair"));
    }

    #[test]
    fn audit_bars_mark_threshold_and_unfair_rows() {
        let txt = audit_bars(&report());
        assert!(txt.contains('|'), "threshold marker missing");
        assert!(txt.contains("TPRP"));
        assert!(txt.contains("cn"));
        // The cn row (disparity 1.0 here) must be flagged and have a bar.
        assert!(txt.contains("UNFAIR"));
        assert!(txt.contains('█'));
    }

    #[test]
    fn audit_json_is_valid_shape() {
        let j = audit_json(&report());
        let s = j.to_string_compact();
        assert!(s.contains("\"matcher\":\"DT\""));
        assert!(s.contains("\"entries\":["));
        assert!(s.contains("\"unfair\""));
    }

    #[test]
    fn explanation_json_has_all_four_families() {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        let space = GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")]);
        let items = vec![
            Correspondence {
                a_row: 0,
                b_row: 0,
                score: 0.1,
                truth: true,
                left: GroupVector(1),
                right: GroupVector(1),
            },
            Correspondence {
                a_row: 1,
                b_row: 1,
                score: 0.9,
                truth: true,
                left: GroupVector(2),
                right: GroupVector(2),
            },
        ];
        let w = Workload::new(items, 0.5);
        let ex = crate::explain::Explainer::new(
            &w,
            &space,
            &t,
            &t,
            None,
            crate::fairness::Disparity::Subtraction,
        );
        let j = explanation_json(&ex, FairnessMeasure::TruePositiveRateParity, "cn", 2, 1);
        let s = j.to_string_compact();
        for key in [
            "measure_based",
            "representation",
            "subgroups",
            "examples",
            "narrative",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.contains("a1")); // the missed cn pair shows up as example
    }

    #[test]
    fn nan_renders_as_na_and_null() {
        let mut r = report();
        r.entries[0].disparity = f64::NAN;
        assert!(audit_text(&r).contains("n/a"));
        assert!(audit_json(&r)
            .to_string_compact()
            .contains("\"disparity\":null"));
    }
}
