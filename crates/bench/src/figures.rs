//! The paper's figures and the suite's experiments, one function each.
//!
//! Each entry of [`FIGURES`] writes the text of `results/<name>.txt`
//! from one shared [`Inputs`]. The FacultyMatch dataset and its trained
//! ten-matcher fleet are built on first use and at most once, so a run
//! of every figure trains the fleet once, and a figure that never reads
//! the fleet never waits for it.

use std::cell::OnceCell;

use fairem_core::audit::{AuditConfig, AuditEntry, AuditReport, Auditor};
use fairem_core::blocking::{
    blocking_recall, per_group_blocking_recall, sorted_neighborhood, token_blocking,
};
use fairem_core::ensemble::ParetoPoint;
use fairem_core::explain::SubgroupRow;
use fairem_core::fairness::FairnessMeasure::{
    PositivePredictiveValueParity as PPVP, TruePositiveRateParity as TPRP,
};
use fairem_core::fairness::{Disparity, Paradigm};
use fairem_core::matcher::{ExternalScores, MatcherKind};
use fairem_core::multiworkload::analyze_bootstrap;
use fairem_core::pipeline::Session;
use fairem_core::repair::RepairOutcome;
use fairem_core::report::{audit_bars, audit_text, multiworkload_text, pareto_text};
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupId, GroupSpace, SensitiveAttr};
use fairem_core::threshold::{auc_parity, default_grid, suggest_threshold, sweep};
use fairem_core::workload::{Correspondence, Workload};
use fairem_csvio::parse_csv_str;
use fairem_datasets::{faculty_match, nofly_compas, FacultyConfig, GeneratedDataset, NoFlyConfig};

use crate::{default_auditor, faculty_session, import, OrFail, FAIRNESS_THRESHOLD};

/// What the figures share, each part built on first use.
#[derive(Default)]
pub struct Inputs {
    faculty: OnceCell<GeneratedDataset>,
    session: OnceCell<Session>,
}

impl Inputs {
    /// The text one figure writes.
    pub fn render(&self, figure: Figure) -> String {
        let mut text = Text::default();
        figure(self, &mut text);
        text.0
    }

    fn faculty(&self) -> &GeneratedDataset {
        self.faculty
            .get_or_init(|| faculty_match(&FacultyConfig::default()))
    }

    fn session(&self) -> &Session {
        self.session.get_or_init(|| faculty_session(self.faculty()))
    }
}

/// A figure or experiment: writes its text from the shared inputs.
pub type Figure = fn(&Inputs, &mut Text);

/// A figure's text, written a line at a time.
#[derive(Default)]
pub struct Text(String);

impl Text {
    fn line(&mut self, line: impl AsRef<str>) {
        self.0.push_str(line.as_ref());
        self.0.push('\n');
    }
}

/// Every figure and experiment, named by its `results/` file stem.
pub const FIGURES: [(&str, Figure); 13] = [
    ("fig1_pipeline", fig1_pipeline),
    ("fig2_import", fig2_import),
    ("fig3_matchers", fig3_matchers),
    ("fig4_audit", fig4_audit),
    ("fig5_explain", fig5_explain),
    ("fig6_pareto", fig6_pareto),
    ("fig7_resolution", fig7_resolution),
    ("exp_blocking_fairness", exp_blocking_fairness),
    ("exp_counting", exp_counting),
    ("exp_multiworkload", exp_multiworkload),
    ("exp_noflycompas", exp_noflycompas),
    ("exp_repair", exp_repair),
    ("exp_threshold", exp_threshold),
];

/// Every group's display name, in id order.
fn group_names(space: &GroupSpace) -> Vec<String> {
    space.ids().map(|g| space.name(g).to_owned()).collect()
}

/// The unfair cell with the largest disparity, with its matcher; the
/// first such cell wins a tie.
fn worst_unfair_cell(reports: &[AuditReport]) -> Option<(&str, &AuditEntry)> {
    reports
        .iter()
        .flat_map(|r| r.unfair().map(move |e| (r.matcher.as_str(), e)))
        .reduce(|worst, cell| {
            if cell.1.disparity > worst.1.disparity {
                cell
            } else {
                worst
            }
        })
}

/// The best-performance frontier point within the fairness threshold
/// (the demo's "accurate but still fair" preference), else the fairest.
fn best_fair_point(frontier: &[ParetoPoint]) -> &ParetoPoint {
    frontier
        .iter()
        .rfind(|p| p.unfairness <= FAIRNESS_THRESHOLD)
        .or(frontier.first())
        .orfail("the Pareto frontier has a point")
}

/// One line per subgroup of a drill-down.
fn subgroup_rows(o: &mut Text, rows: &[SubgroupRow]) {
    for row in rows {
        o.line(format!(
            "  {:<18} value {:>7.3} disparity {:>7.3} support {}",
            row.group, row.value, row.disparity, row.support
        ));
    }
}

/// Figure 1 — the three-layer architecture, exercised end to end:
/// data layer (import + group extraction) → logic layer (training,
/// workload summarization, fairness evaluation) → presentation layer
/// (audit, explanation, ensemble resolution).
fn fig1_pipeline(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 1: FairEM360 three-layer pipeline (FacultyMatch) ===\n");

    // Data layer.
    let dataset = inputs.faculty();
    o.line(format!(
        "[data layer] dataset {}: |A|={} |B|={} matches={}",
        dataset.name,
        dataset.table_a.len(),
        dataset.table_b.len(),
        dataset.matches.len()
    ));

    // Logic layer.
    let session = inputs.session();
    o.line(format!(
        "[logic layer] groups extracted: {:?}",
        group_names(&session.space)
    ));
    o.line(format!(
        "[logic layer] trained {} matchers; test workload of {} correspondences\n",
        session.registry.len(),
        session.test_size()
    ));

    // Presentation layer: audit.
    let reports = session.audit_all(&default_auditor());
    for report in &reports {
        o.line(format!(
            "[presentation] {:>14}: max disparity {:.3}, unfair cells {}",
            report.matcher,
            report.max_disparity(),
            report.unfair().count()
        ));
    }

    // Presentation layer: explanation + resolution for the worst cell.
    let Some((matcher, cell)) = worst_unfair_cell(&reports) else {
        return o.line("\nno unfair cells at this threshold");
    };
    o.line(format!(
        "\nworst audited cell: {matcher} on group {} w.r.t. {} (disparity {:.3})",
        cell.group, cell.measure, cell.disparity
    ));
    let w = session.workload(matcher).orfail("matcher trained");
    let explainer = session.explainer(&w, Disparity::Subtraction);
    o.line(format!(
        "explanation: {}",
        explainer.measure_based(cell.measure, &cell.group).narrative
    ));
    let explorer = session.ensemble(0, cell.measure, Disparity::Subtraction);
    let frontier = explorer.pareto_frontier();
    let best = frontier.first().orfail("the Pareto frontier has a point");
    o.line(format!(
        "resolution: {} (unfairness {:.3}, worst-group performance {:.3})",
        explorer.describe(&best.assignment),
        best.unfairness,
        best.performance
    ))
}

/// Echo one dataset's schema and group structure as the import screen
/// shows them, and return its one-matcher session.
fn import_screen(o: &mut Text, dataset: &GeneratedDataset) -> Session {
    o.line(format!("dataset {}:", dataset.name));
    o.line(format!(
        "  table A: {} records, schema {:?}",
        dataset.table_a.len(),
        dataset.table_a.header
    ));
    o.line(format!(
        "  table B: {} records, schema {:?}",
        dataset.table_b.len(),
        dataset.table_b.header
    ));
    o.line(format!("  ground-truth matches: {}", dataset.matches.len()));
    o.line(format!("  sensitive attributes: {:?}", dataset.sensitive));
    let session = import(dataset)
        .try_run(&[MatcherKind::DtMatcher])
        .orfail("DtMatcher trains");
    let names = group_names(&session.space);
    o.line(format!(
        "  extracted (sub)groups [{}]: {:?}\n",
        names.len(),
        names
    ));
    session
}

/// Figure 2 — the data-import step: both demo datasets are loaded, their
/// schemas and group structure echoed, and both operating modes shown
/// (Matching-and-Evaluation with integrated matchers vs Evaluation-Only
/// with uploaded scores).
fn fig2_import(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 2: data import ===\n");
    let dataset = inputs.faculty();
    let session = import_screen(o, dataset);
    import_screen(o, &nofly_compas(&NoFlyConfig::default()));

    // Evaluation-Only: the user uploads scores instead of training.
    o.line("--- Evaluation-Only mode ---");
    // Simulate an uploaded prediction file: exact-name-equality matcher.
    let name_col_a = dataset.table_a.column_index("name").orfail("name column");
    let name_col_b = dataset.table_b.column_index("name").orfail("name column");
    let mut preds = Vec::new();
    for ra in &dataset.table_a.rows {
        for rb in dataset.table_b.rows.iter() {
            if rb[name_col_b] == ra[name_col_a] {
                preds.push(((ra[0].clone(), rb[0].clone()), 1.0));
            }
        }
    }
    let ext = ExternalScores::new("UploadedExactName", preds);
    o.line(format!("uploaded predictions: {}", ext.len()));
    let w = session.external_workload(&ext);
    let cm = w.overall_confusion();
    o.line(format!(
        "evaluation-only workload: n={}  TP={} FP={} FN={} TN={}  (F1 {:.3})",
        w.len(),
        cm.tp,
        cm.fp,
        cm.fn_,
        cm.tn,
        cm.f1()
    ))
}

/// Figure 3 — the matcher-selection step: the ten integrated matchers
/// with their info cards and test-split matching quality.
fn fig3_matchers(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 3: matcher selection (FacultyMatch test split) ===\n");
    for k in MatcherKind::ALL {
        o.line(format!(
            "{:<14} [{}] {}",
            k.name(),
            if k.is_neural() {
                "neural    "
            } else {
                "non-neural"
            },
            k.description()
        ));
    }
    o.line("\ntraining all matchers ...\n");
    let session = inputs.session();
    o.line(format!(
        "{:<14} {:>8} {:>10} {:>8} {:>10}",
        "matcher", "F1", "precision", "recall", "accuracy"
    ));
    for k in MatcherKind::ALL {
        let p = session.performance(k.name()).orfail("matcher trained");
        o.line(format!(
            "{:<14} {:>8.3} {:>10.3} {:>8.3} {:>10.3}",
            p.matcher, p.f1, p.precision, p.recall, p.accuracy
        ));
    }
}

/// Figure 4 — the audit step: per-group unfairness for every matcher and
/// headline measure, with the fairness-threshold verdicts. The paper's
/// highlighted cell: LinRegMatcher unfair on `cn` (disparity 0.418 >
/// threshold 0.2).
fn fig4_audit(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 4: audit step (FacultyMatch, single fairness, subtraction) ===");
    o.line(format!("fairness threshold: {FAIRNESS_THRESHOLD}\n"));
    for report in inputs.session().audit_all(&default_auditor()) {
        o.line(audit_text(&report));
        let unfair: Vec<String> = report
            .unfair()
            .map(|e| format!("{}:{} ({:.3})", e.measure.name(), e.group, e.disparity))
            .collect();
        if unfair.is_empty() {
            o.line("-> no unfair groups\n");
        } else {
            // The demo renders the audit as bar charts with a red
            // threshold line; show the same view for unfair matchers.
            o.line(audit_bars(&report));
            o.line(format!("-> unfair: {}\n", unfair.join(", ")));
        }
    }
}

/// Figure 5 — unfairness explanations for the worst audited cell (the
/// paper shows the `cn` group w.r.t. TPRP under LinRegMatcher): all four
/// explanation families.
fn fig5_explain(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 5: unfairness explanations ===\n");
    let session = inputs.session();
    let reports = session.audit_all(&default_auditor());
    let Some((matcher, cell)) = worst_unfair_cell(&reports) else {
        return o.line("no unfair cell found at this threshold — nothing to explain");
    };
    let (measure, group) = (cell.measure, cell.group.as_str());
    o.line(format!(
        "explaining: {matcher} unfair on {group} w.r.t. {measure} (disparity {:.3})\n",
        cell.disparity
    ));

    let workload = session.workload(matcher).orfail("matcher trained");
    let explainer = session.explainer(&workload, Disparity::Subtraction);

    o.line("--- measure-based explanation ---");
    let me = explainer.measure_based(measure, group);
    o.line(format!(
        "confusion (both-sides counting): TP={} FP={} FN={} TN={}",
        me.confusion.tp, me.confusion.fp, me.confusion.fn_, me.confusion.tn
    ));
    for (name, gv, ov) in &me.rates {
        o.line(format!("  {name:<9} group {gv:>7.3}   overall {ov:>7.3}"));
    }
    o.line(format!("  -> {}\n", me.narrative));

    o.line("--- group-representation explanation ---");
    let rep = explainer.representation(group);
    o.line(format!(
        "  test workload share: {:.3} overall, {:.3} among matches, {:.3} among non-matches",
        rep.share_overall, rep.share_matches, rep.share_nonmatches
    ));
    if let Some((ov, m, n)) = rep.train_shares {
        o.line(format!(
            "  train split share:  {ov:.3} overall, {m:.3} among matches, {n:.3} among non-matches"
        ));
    }
    o.line("");

    o.line("--- subgroup-based explanation ---");
    let sub = explainer.subgroup(measure, group);
    if sub.rows.is_empty() {
        o.line(format!(
            "  (single sensitive attribute: {group} has no subgroups)"
        ));
    } else {
        subgroup_rows(o, &sub.rows);
    }
    o.line("");

    o.line("--- example-based explanation (problematic pairs) ---");
    let ex = explainer.examples(measure, group, 5, 2024);
    for (i, e) in ex.examples.iter().enumerate() {
        o.line(format!(
            "  #{i} score {:.3} predicted={} truth={}\n     A: {}\n     B: {}",
            e.score, e.predicted, e.truth, e.left, e.right
        ));
    }
}

/// Figure 6 — the fairness/performance trade-off: the `mᵏ` ensemble
/// assignment space scored under PPV (the measure the demo's user
/// optimizes), with the Pareto frontier. The paper's highlighted point:
/// MCAN for the `cn` group at PPV 0.926 with unfairness 0.056.
fn fig6_pareto(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 6: ensemble fairness/performance Pareto frontier ===");
    o.line("measure: PPVP (performance axis = worst-group PPV; x axis = unfairness)\n");
    let explorer = inputs.session().ensemble(0, PPVP, Disparity::Subtraction);
    let m = explorer.matchers().len();
    let k = explorer.groups().len();
    o.line(format!(
        "assignment space: {m}^{k} = {} strategies",
        (m as u64).pow(k as u32)
    ));

    let frontier = explorer.pareto_frontier();
    o.line(pareto_text(&explorer, &frontier));

    // Per-group PPV of each matcher (what the user hovers in the demo).
    o.line("per-group PPV by matcher:");
    let header: String = explorer
        .groups()
        .iter()
        .map(|g| format!(" {g:>8}"))
        .collect();
    o.line(format!("{:<14}{header}", "matcher"));
    for (mi, name) in explorer.matchers().iter().enumerate() {
        let row: String = (0..k)
            .map(|gi| format!(" {:>8.3}", explorer.value(mi, gi)))
            .collect();
        o.line(format!("{name:<14}{row}"));
    }

    // The paper's highlighted selection: the matcher chosen for cn on
    // the least-unfair frontier point.
    let best = frontier.first().orfail("the Pareto frontier has a point");
    if let Some(cn_pos) = explorer.groups().iter().position(|g| g == "cn") {
        let chosen = &explorer.matchers()[best.assignment[cn_pos]];
        o.line(format!(
            "\nselected strategy assigns {} to cn: PPV {:.3}, strategy unfairness {:.3}",
            chosen,
            explorer.value(best.assignment[cn_pos], cn_pos),
            best.unfairness
        ));
    }
}

/// Figure 7 — the post-resolution audit: re-audit under the ensemble
/// strategy selected from the Pareto frontier, showing the previously
/// unfair group now within the fairness threshold.
fn fig7_resolution(inputs: &Inputs, o: &mut Text) {
    o.line("=== Figure 7: audit after ensemble-based resolution ===\n");
    let session = inputs.session();

    // Before: per-matcher audit of TPRP on cn (the unfair cell from Fig. 4).
    o.line("before resolution (single matchers, TPRP on cn):");
    for report in session.audit_all(&default_auditor()) {
        if let Some(e) = report.entry(TPRP, "cn") {
            o.line(format!(
                "  {:<14} value {:>6.3} disparity {:>6.3} {}",
                report.matcher,
                e.group_value,
                e.disparity,
                if e.unfair { "UNFAIR" } else { "fair" }
            ));
        }
    }

    // Resolve under TPRP and re-audit the combined strategy.
    let explorer = session.ensemble(0, TPRP, Disparity::Subtraction);
    let frontier = explorer.pareto_frontier();
    let chosen = best_fair_point(&frontier);
    o.line(format!(
        "\nchosen strategy: {}",
        explorer.describe(&chosen.assignment)
    ));
    o.line(format!(
        "strategy unfairness {:.3} (threshold {FAIRNESS_THRESHOLD}), worst-group TPR {:.3}\n",
        chosen.unfairness, chosen.performance
    ));

    o.line("after resolution (per-group TPR under the assignment):");
    let point = explorer.evaluate(&chosen.assignment);
    for (gi, g) in explorer.groups().iter().enumerate() {
        let v = explorer.value(chosen.assignment[gi], gi);
        o.line(format!(
            "  {:<6} ← {:<14} TPR {:>6.3}",
            g,
            explorer.matchers()[chosen.assignment[gi]],
            v
        ));
    }
    o.line(format!(
        "\nresolution verdict: unfairness {:.3} ≤ {FAIRNESS_THRESHOLD} → {}",
        point.unfairness,
        if point.unfairness <= FAIRNESS_THRESHOLD {
            "RESOLVED"
        } else {
            "NOT RESOLVED"
        }
    ))
}

/// Extension experiment (paper ref \[16\] motif): unfairness upstream of
/// the matcher — blocking can silently drop one group's true matches
/// before any matcher runs. Reports per-group blocking recall for token
/// blocking and sorted-neighborhood on FacultyMatch.
fn exp_blocking_fairness(inputs: &Inputs, o: &mut Text) {
    o.line("=== Extension: per-group blocking recall (FacultyMatch) ===\n");
    let d = inputs.faculty();
    let a = Table::from_csv(d.table_a.clone()).orfail("valid table");
    let b = Table::from_csv(d.table_b.clone()).orfail("valid table");
    let space = GroupSpace::extract(&[&a, &b], vec![SensitiveAttr::categorical("country")]);
    let enc_a = space.encode_table(&a);
    let enc_b = space.encode_table(&b);
    let truth: Vec<(usize, usize)> = d
        .matches
        .iter()
        .map(|(ia, ib)| (a.row_of(ia).orfail("id"), b.row_of(ib).orfail("id")))
        .collect();

    let schemes: [(&str, Vec<(usize, usize)>); 3] = [
        ("token(name)", token_blocking(&a, &b, &["name"], 200)),
        (
            "token(name,university)",
            token_blocking(&a, &b, &["name", "university"], 200),
        ),
        ("snm(name,w=10)", sorted_neighborhood(&a, &b, "name", 10)),
    ];
    for (name, candidates) in &schemes {
        o.line(format!(
            "{name}: {} candidates, overall recall {:.3}",
            candidates.len(),
            blocking_recall(candidates, &truth)
        ));
        for (group, recall, support) in
            per_group_blocking_recall(candidates, &truth, &enc_a, &enc_b, &space)
        {
            o.line(format!(
                "  {group:<6} recall {recall:.3}  ({support} true pairs)"
            ));
        }
        o.line("");
    }
    o.line(
        "note: the suite's `prepare` force-includes ground-truth pairs, so matcher\n\
         training is insulated from blocking loss — but a production pipeline\n\
         without labeled truth would silently lose the low-recall group's matches.",
    )
}

/// Ablation (DESIGN.md §4): the paper's *both-sides* counting rule — a
/// correspondence counts toward the groups of both entities — versus
/// naive once-per-correspondence counting. Quantifies how much the
/// convention moves the audited group rates and disparities.
fn exp_counting(inputs: &Inputs, o: &mut Text) {
    o.line("=== Ablation: both-sides vs once-per-correspondence group counting ===\n");
    let session = inputs.session();
    let measure = TPRP;
    for matcher in ["LinRegMatcher", "RFMatcher"] {
        let w = session.workload(matcher).orfail("matcher trained");
        let overall = measure.value(&w.overall_confusion());
        o.line(format!("{matcher} (overall TPR {overall:.3}):"));
        o.line(format!(
            "  {:<6} {:>12} {:>12} {:>12} {:>12}",
            "group", "TPR(both)", "TPR(once)", "disp(both)", "disp(once)"
        ));
        for g in session.space.ids() {
            let both = measure.value(&w.group_confusion(g));
            let once = measure.value(&w.group_confusion_once(g));
            let d_both = Disparity::Subtraction.compute(overall, both, true);
            let d_once = Disparity::Subtraction.compute(overall, once, true);
            let flip = (d_both > FAIRNESS_THRESHOLD) != (d_once > FAIRNESS_THRESHOLD);
            o.line(format!(
                "  {:<6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}{}",
                session.space.name(g),
                both,
                once,
                d_both,
                d_once,
                if flip { "  <- verdict flips" } else { "" }
            ));
        }
        o.line("");
    }
    o.line(
        "finding: on FacultyMatch the two rules agree exactly — candidate pairs\n\
         are group-homogeneous, so both-sides counting scales every cell of a\n\
         group's confusion matrix by 2 and the *rates* are invariant.\n",
    );

    // The rules diverge when a group's pairs mix homogeneous and
    // cross-group correspondences: both-sides counting up-weights the
    // homogeneous ones. Synthetic demonstration:
    let csv = parse_csv_str("id,g\na1,cn\na2,us\n").orfail("literal csv");
    let t = Table::from_csv(csv).orfail("valid");
    let space = GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")]);
    let (cn, us) = (space.encode(&t, 0), space.encode(&t, 1));
    let pair = |b_row, score, right| Correspondence {
        a_row: 0,
        b_row,
        score,
        truth: true,
        left: cn,
        right,
    };
    // cn-cn true matches all missed (the group's own matches fail), and
    // cn-us true matches all found.
    let w = Workload::new(
        [[pair(0, 0.1, cn); 10], [pair(1, 0.9, us); 10]].concat(),
        0.5,
    );
    let g_cn = space.by_name("cn").orfail("cn");
    let both = w.group_confusion(g_cn).tpr();
    let once = w.group_confusion_once(g_cn).tpr();
    o.line("mixed-pair demonstration (10 missed cn-cn + 10 found cn-us matches):");
    o.line(format!(
        "  cn TPR under both-sides: {both:.3}   under once: {once:.3}"
    ));
    o.line(
        "  both-sides counting weights the group's own (failing) matches double,\n\
         reporting the harsher — and for the affected group, the more faithful — rate.",
    )
}

/// §2.3 "Multiple-workload Analysis" — k bootstrap workloads + z-test
/// hypothesis testing: is the unfairness observed in Figure 4 repeatable
/// or chance? Also reports the subtraction-vs-division ablation.
fn exp_multiworkload(inputs: &Inputs, o: &mut Text) {
    const K: usize = 30;
    const ALPHA: f64 = 0.05;
    o.line(format!(
        "=== Multiple-workload analysis (k={K} bootstrap workloads, alpha={ALPHA}) ===\n"
    ));
    let session = inputs.session();
    let space = &session.space;
    let auditor = default_auditor();

    for matcher in ["LinRegMatcher", "MCAN"] {
        let base = session.workload(matcher).orfail("matcher trained");
        let report = analyze_bootstrap(matcher, &base, space, &auditor, K, ALPHA, 2024);
        o.line(multiworkload_text(&report));
        let sig: Vec<String> = report
            .significant()
            .map(|t| format!("{}:{}", t.measure.name(), t.group))
            .collect();
        o.line(format!(
            "-> significant unfairness: {}\n",
            if sig.is_empty() {
                "none".to_owned()
            } else {
                sig.join(", ")
            }
        ));
    }

    // Ablation: subtraction vs division disparity on the same populations.
    o.line("--- ablation: subtraction vs division disparity (LinRegMatcher, TPRP) ---");
    let base = session.workload("LinRegMatcher").orfail("matcher trained");
    for disparity in [Disparity::Subtraction, Disparity::Division] {
        let auditor = Auditor::new(AuditConfig {
            measures: vec![TPRP],
            disparity,
            min_support: 20,
            ..AuditConfig::default()
        });
        let report = analyze_bootstrap("LinRegMatcher", &base, space, &auditor, K, ALPHA, 7);
        for t in &report.tests {
            o.line(format!(
                "  {:<11} {:<6} mean disparity {:.3} ± {:.3}  p={:.2e}  {}",
                disparity.name(),
                t.group,
                t.disparities.mean,
                t.disparities.std,
                t.p_value,
                if t.significant { "SIGNIFICANT" } else { "ns" }
            ));
        }
    }
}

/// §3 (second demo dataset) — NoFlyCompas: intersectional race×sex
/// subgroups, single *and* pairwise fairness paradigms, division-based
/// disparity, and a subgroup drill-down.
fn exp_noflycompas(_: &Inputs, o: &mut Text) {
    o.line("=== NoFlyCompas: intersectional & pairwise audits ===\n");
    let session = import(&nofly_compas(&NoFlyConfig::default()))
        .try_run(&[
            MatcherKind::LinRegMatcher,
            MatcherKind::RfMatcher,
            MatcherKind::HierMatcher,
        ])
        .orfail("nofly fleet trains");
    o.line(format!(
        "groups ({}): {:?}\n",
        session.space.len(),
        group_names(&session.space)
    ));

    // Single fairness over all (sub)groups, division disparity.
    let single = Auditor::new(AuditConfig {
        measures: vec![TPRP, PPVP],
        disparity: Disparity::Division,
        fairness_threshold: FAIRNESS_THRESHOLD,
        min_support: 15,
        ..AuditConfig::default()
    });
    for matcher in session.matcher_names() {
        let w = session.workload(matcher).orfail("matcher trained");
        let report = single.audit(matcher, &w, &session.space);
        let unfair: Vec<String> = report
            .unfair()
            .map(|e| format!("{}:{} ({:.3})", e.measure.name(), e.group, e.disparity))
            .collect();
        o.line(format!(
            "single fairness, {matcher}: max disparity {:.3}; unfair: {}",
            report.max_disparity(),
            if unfair.is_empty() {
                "none".to_owned()
            } else {
                unfair.join(", ")
            }
        ));
    }

    // Pairwise fairness over race pairs for the most disparate matcher.
    o.line("\npairwise fairness (race × race), LinRegMatcher:");
    let pairwise = Auditor::new(AuditConfig {
        paradigm: Paradigm::Pairwise,
        measures: vec![TPRP],
        disparity: Disparity::Division,
        fairness_threshold: FAIRNESS_THRESHOLD,
        min_support: 10,
        pairwise_attr: 0,
        ..AuditConfig::default()
    });
    let linreg = session.workload("LinRegMatcher").orfail("matcher trained");
    let report = pairwise.audit("LinRegMatcher", &linreg, &session.space);
    o.line(audit_text(&report));

    // Subgroup drill-down on the worst *level-1* group (those have
    // intersectional children in the lattice).
    let level1: Vec<String> = (0..session.space.attrs().len())
        .flat_map(|ai| session.space.level1_of_attr(ai))
        .map(|g| session.space.name(g).to_owned())
        .collect();
    let worst = single
        .audit("LinRegMatcher", &linreg, &session.space)
        .entries
        .into_iter()
        .filter(|e| e.disparity.is_finite() && level1.contains(&e.group))
        .max_by(|a, b| a.disparity.total_cmp(&b.disparity));
    if let Some(e) = worst {
        o.line(format!(
            "subgroup drill-down for {} w.r.t. {}:",
            e.group, e.measure
        ));
        let explainer = session.explainer(&linreg, Disparity::Division);
        subgroup_rows(o, &explainer.subgroup(e.measure, &e.group).rows);
    }

    // Step 4 on the second dataset: resolve the race-level unfairness
    // with the ensemble.
    o.line("\nensemble resolution over race (TPRP):");
    let explorer = session.ensemble(0, TPRP, Disparity::Subtraction);
    let frontier = explorer.pareto_frontier();
    let chosen = best_fair_point(&frontier);
    o.line(format!(
        "  chosen: {}",
        explorer.describe(&chosen.assignment)
    ));
    o.line(format!(
        "  unfairness {:.3} (threshold {FAIRNESS_THRESHOLD}), worst-race TPR {:.3} -> {}",
        chosen.unfairness,
        chosen.performance,
        if chosen.unfairness <= FAIRNESS_THRESHOLD {
            "RESOLVED"
        } else {
            "NOT RESOLVED"
        }
    ))
}

/// Extension experiment (paper refs \[12\]/\[16\]): data-repair resolution —
/// retrain the unfair matcher with the disadvantaged group's training
/// matches oversampled, and compare the audited disparity.
fn exp_repair(inputs: &Inputs, o: &mut Text) {
    o.line("=== Extension: data-repair resolution (oversampling cn training matches) ===\n");
    let session = inputs.session();
    let auditor = default_auditor();
    let cn = session.space.by_name("cn").orfail("cn group exists");

    let before_report = session
        .audit("LinRegMatcher", &auditor)
        .orfail("matcher trained");
    let before = before_report.entry(TPRP, "cn").orfail("cn entry").disparity;
    o.line(format!(
        "LinRegMatcher cn TPRP disparity before repair: {before:.3}\n"
    ));

    o.line("factor  cn-TPR-disparity  overall-F1  verdict");
    for factor in [1usize, 2, 3, 5, 8] {
        let repaired =
            session.retrain_with_oversampling(MatcherKind::LinRegMatcher, cn, factor, true);
        let report = auditor.audit("LinRegMatcher+repair", &repaired, &session.space);
        let entry = report.entry(TPRP, "cn").orfail("cn entry");
        let f1 = repaired.overall_confusion().f1();
        let outcome = RepairOutcome {
            matcher: "LinRegMatcher".into(),
            group: "cn".into(),
            factor,
            disparity_before: before,
            disparity_after: entry.disparity,
        };
        o.line(format!(
            "{factor:>6} {:>17.3} {:>11.3}  {}",
            entry.disparity,
            f1,
            if factor == 1 {
                "baseline".to_owned()
            } else if outcome.improved() {
                format!("improved ({:+.3})", entry.disparity - before)
            } else {
                "no improvement".to_owned()
            }
        ));
    }
}

/// Extension experiment (paper refs \[10\]/\[12\]): threshold-sensitivity of
/// fairness, AUC-based (threshold-independent) fairness, and per-group
/// score calibration as an alternative resolution.
fn exp_threshold(inputs: &Inputs, o: &mut Text) {
    o.line("=== Extension: threshold sensitivity & calibration (LinRegMatcher) ===\n");
    let session = inputs.session();
    let groups: Vec<GroupId> = session.space.level1_of_attr(0);
    let workload = session.workload("LinRegMatcher").orfail("matcher trained");

    // 1. Threshold sweep of TPRP.
    let grid: Vec<f64> = (1..20).map(|i| i as f64 * 0.05).collect();
    let sw = sweep(&workload, &session.space, &groups, TPRP, &grid);
    let disp = sw.max_disparity(Disparity::Subtraction);
    o.line("threshold  overall-TPR  cn-TPR  max-disparity  verdict");
    let cn_curve = &sw
        .per_group
        .iter()
        .find(|(n, _)| n == "cn")
        .orfail("cn exists")
        .1;
    for (i, &t) in sw.thresholds.iter().enumerate() {
        o.line(format!(
            "{t:>9.2} {:>12.3} {:>7.3} {:>14.3}  {}",
            sw.overall[i],
            cn_curve[i],
            disp[i],
            if disp[i] <= FAIRNESS_THRESHOLD {
                "fair"
            } else {
                "UNFAIR"
            }
        ));
    }

    // 2. Constrained threshold suggestion.
    match suggest_threshold(
        &workload,
        &session.space,
        &groups,
        TPRP,
        Disparity::Subtraction,
        FAIRNESS_THRESHOLD,
        &default_grid(),
    ) {
        Some(t) => o.line(format!(
            "\nsuggested fair threshold (max F1 s.t. disparity ≤ 0.2): {t:.2}"
        )),
        None => o.line("\nno fair threshold exists on the grid"),
    }

    // 3. AUC parity: is the unfairness threshold-induced or intrinsic?
    o.line("\nAUC-based (threshold-independent) fairness:");
    for e in auc_parity(&workload, &session.space, &groups, Disparity::Subtraction) {
        o.line(format!(
            "  {:<6} AUC {:.3}  disparity {:.3}",
            e.group, e.auc, e.disparity
        ));
    }

    // 4. Per-group Platt calibration as a resolution.
    o.line("\nper-group calibration resolution (TPRP at threshold 0.5):");
    let calibrated = session
        .calibrated_workload("LinRegMatcher", &groups)
        .orfail("matcher trained");
    for &g in &groups {
        let before = workload.group_confusion(g).tpr();
        let after = calibrated.group_confusion(g).tpr();
        o.line(format!(
            "  {:<6} TPR {:.3} → {:.3}",
            session.space.name(g),
            before,
            after
        ));
    }
    let cn = session.space.by_name("cn").orfail("cn group exists");
    let before_cn = workload.group_confusion(cn).tpr();
    let after_cn = calibrated.group_confusion(cn).tpr();
    o.line(format!(
        "\ncn recall change from calibration alone: {:+.3}",
        after_cn - before_cn
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_free_figures_reproduce_their_results_files() {
        let inputs = Inputs::default();
        for name in ["fig2_import", "exp_blocking_fairness"] {
            let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name).unwrap();
            let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
            let expected = std::fs::read_to_string(&path).unwrap();
            assert_eq!(inputs.render(*figure), expected, "{path}");
        }
        assert!(
            inputs.session.get().is_none(),
            "neither figure trains the fleet"
        );
    }
}
