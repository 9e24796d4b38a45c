//! Screening-list matching with intersectional fairness: NoFlyCompas —
//! race × sex subgroups, pairwise fairness, and subgroup drill-down.
//!
//! ```sh
//! cargo run --release --example noflycompas_screening
//! ```

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fairness::{Disparity, FairnessMeasure, Paradigm};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::datasets::{nofly_compas, NoFlyConfig};
use fairem360::prelude::FairEm360;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = nofly_compas(&NoFlyConfig::default());
    let suite = FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive([
            SensitiveAttr::categorical("race"),
            SensitiveAttr::categorical("sex"),
        ])
        .build()?;
    let session = suite.try_run(&[MatcherKind::LinRegMatcher, MatcherKind::RfMatcher])?;

    println!(
        "extracted {} (sub)groups, including intersections:",
        session.space.len()
    );
    for g in session.space.ids() {
        print!("  {}", session.space.name(g));
    }
    println!("\n");

    // Single-fairness audit over all subgroups.
    let auditor = Auditor::new(AuditConfig {
        measures: vec![FairnessMeasure::TruePositiveRateParity],
        disparity: Disparity::Division,
        min_support: 15,
        ..AuditConfig::default()
    });
    for matcher in session.matcher_names() {
        let report = session.audit(matcher, &auditor)?;
        println!("{matcher}:");
        for e in &report.entries {
            if e.disparity.is_finite() && e.disparity > 0.05 {
                println!(
                    "  {:<18} TPR {:.3} vs overall {:.3} → disparity {:.3} {}",
                    e.group,
                    e.group_value,
                    e.overall_value,
                    e.disparity,
                    if e.unfair { "UNFAIR" } else { "" }
                );
            }
        }
    }

    // Pairwise audit over race pairs.
    let pairwise = Auditor::new(AuditConfig {
        paradigm: Paradigm::Pairwise,
        measures: vec![FairnessMeasure::TruePositiveRateParity],
        min_support: 10,
        ..AuditConfig::default()
    });
    let report = session.audit("LinRegMatcher", &pairwise)?;
    println!("\npairwise (race×race) TPRP for LinRegMatcher:");
    for e in &report.entries {
        if !e.insufficient() {
            println!(
                "  {:<22} {:.3} (disparity {:.3})",
                e.group, e.group_value, e.disparity
            );
        }
    }

    // Drill into the most disparate subgroup via the lattice.
    let single = session.audit("LinRegMatcher", &auditor)?;
    if let Some(worst) = single
        .entries
        .iter()
        .filter(|e| e.disparity.is_finite())
        .max_by(|a, b| a.disparity.total_cmp(&b.disparity))
    {
        let w = session.workload("LinRegMatcher")?;
        let explainer = session.explainer(&w, Disparity::Division);
        println!("\nsubgroup drill-down for {}:", worst.group);
        for row in explainer.subgroup(worst.measure, &worst.group).rows {
            println!(
                "  {:<18} TPR {:.3}, disparity {:.3} (support {})",
                row.group, row.value, row.disparity, row.support
            );
        }
    }
    Ok(())
}
