//! # fairem-stats
//!
//! Statistics substrate for FairEM360's multiple-workload analysis: the
//! suite audits a matcher over `k` bootstrap workloads and asks whether
//! the observed disparity population is *significantly* unfair, using
//! z-/t-tests (paper §2.3, "Multiple-workload Analysis").
//!
//! Provides descriptive summaries, the normal and Student-t distributions
//! (via in-repo `erf` / incomplete-beta implementations), one- and
//! two-sample hypothesis tests, and bootstrap resampling with percentile
//! confidence intervals.

pub mod bootstrap;
pub mod desc;
pub mod dist;
pub mod distance;
pub mod hypothesis;

pub use bootstrap::{bootstrap_indices, bootstrap_statistic, BootstrapCi};
pub use desc::{mean, median, quantile, sample_std, sample_var, Summary};
pub use dist::{chi_squared_cdf, erf, normal_cdf, normal_inv_cdf, normal_pdf, student_t_cdf};
pub use distance::{
    ks_distance, ks_distance_sorted, trapezoid, wasserstein_1, wasserstein_1_sorted,
};
pub use hypothesis::{
    chi_squared_independence, one_sample_t_test, one_sample_z_test, two_sample_z_test,
    welch_t_test, Tail, TestResult,
};
