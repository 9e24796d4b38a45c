//! # fairem-stats
//!
//! Statistics substrate for FairEM360's multiple-workload analysis: the
//! suite audits a matcher over `k` bootstrap workloads and asks whether
//! the observed disparity population is *significantly* unfair, using a
//! one-sample z-test (paper §2.3, "Multiple-workload Analysis").
//!
//! Provides descriptive summaries, the normal and chi-squared
//! distributions (via in-repo `erf` / incomplete-gamma implementations),
//! the one-sample z-test, the chi-squared test of independence behind the
//! representation explanations, and the KS and Wasserstein distances
//! behind calibration.

pub mod desc;
pub mod dist;
pub mod distance;
pub mod hypothesis;

pub use desc::{mean, median, quantile, sample_std, sample_var, Summary};
pub use dist::{chi_squared_cdf, erf, normal_cdf};
pub use distance::{
    ks_distance, ks_distance_sorted, trapezoid, wasserstein_1, wasserstein_1_sorted,
};
pub use hypothesis::{chi_squared_independence, one_sample_z_test, Tail, TestResult};
