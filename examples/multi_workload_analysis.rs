//! Multiple-workload hypothesis testing: is an observed unfairness
//! repeatable, or a sampling artifact? (Paper §2.3.)
//!
//! ```sh
//! cargo run --release --example multi_workload_analysis
//! ```

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fairness::FairnessMeasure;
use fairem360::core::matcher::MatcherKind;
use fairem360::core::multiworkload::{analyze_bootstrap, analyze_workloads};
use fairem360::core::report::multiworkload_text;
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem360::prelude::FairEm360;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = faculty_match(&FacultyConfig::default());
    let session = FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .build()?
        .try_run(&[MatcherKind::LinRegMatcher])?;

    let auditor = Auditor::new(AuditConfig {
        measures: vec![FairnessMeasure::TruePositiveRateParity],
        min_support: 20,
        ..AuditConfig::default()
    });

    // Mode A: one test set → k bootstrap workloads.
    let base = session.workload("LinRegMatcher")?;
    let report = analyze_bootstrap(
        "LinRegMatcher",
        &base,
        &session.space,
        &auditor,
        30,
        0.05,
        99,
    );
    println!("{}", multiworkload_text(&report));

    // Mode B: workloads arriving over time (here: three disjoint-ish
    // bootstrap draws standing in for three monthly test sets).
    let monthly = vec![
        base.resample(202401),
        base.resample(202402),
        base.resample(202403),
    ];
    let report = analyze_workloads("LinRegMatcher", &monthly, &session.space, &auditor, 0.05);
    println!("{}", multiworkload_text(&report));

    for t in report.significant() {
        println!(
            "repeatable unfairness: {} on {} (mean disparity {:.3}, p = {:.2e})",
            t.measure, t.group, t.disparities.mean, t.p_value
        );
    }
    Ok(())
}
