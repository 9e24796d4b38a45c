//! Quickstart: audit an entity matcher for group fairness in ~30 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::report::audit_text;
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem360::prelude::FairEm360;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load a Magellan-shaped dataset (two tables + ground truth).
    let data = faculty_match(&FacultyConfig::small());

    // 2. Import it, declaring which column carries the sensitive groups.
    let suite = FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .build()?;

    // 3. Train a couple of the integrated matchers.
    let session = suite.try_run(&[MatcherKind::DtMatcher, MatcherKind::LinRegMatcher])?;

    // 4. Audit them — five headline measures, 20% fairness threshold.
    let auditor = Auditor::new(AuditConfig {
        min_support: 10,
        ..AuditConfig::default()
    });
    for report in session.audit_all(&auditor) {
        println!("{}", audit_text(&report));
    }
    Ok(())
}
