//! Preprocessing (paper §2.1): candidate pairing, labeling, and
//! train/validation/test splitting.

use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::SeedableRng;

use crate::blocking::{Blocker, TokenBlocking};
use crate::error::{SuiteError, SuiteResult};
use crate::exec::Exec;
use crate::quarantine::{QuarantineReport, RowIssue};
use crate::schema::Table;

/// Configuration for [`prepare`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrepConfig {
    /// Columns used for token blocking.
    pub blocking_columns: Vec<String>,
    /// Block-size guard passed to the blocker.
    pub max_block: usize,
    /// Cap on negatives per positive (class-imbalance control);
    /// `f64::INFINITY` keeps every blocked negative.
    pub negative_ratio: f64,
    /// Fraction of pairs used for training.
    pub train_frac: f64,
    /// Fraction of pairs used for validation.
    pub valid_frac: f64,
    /// RNG seed for subsampling and splitting.
    pub seed: u64,
}

impl Default for PrepConfig {
    fn default() -> PrepConfig {
        // Defaults match the configuration every figure is audited
        // under (`import` in crates/bench/src/lib.rs, EXPERIMENTS.md):
        // a 6:1 negative ratio preserves EM's characteristic class
        // imbalance, which is what makes the uncalibrated matchers
        // threshold-sensitive.
        PrepConfig {
            blocking_columns: vec!["name".into()],
            max_block: 200,
            negative_ratio: 6.0,
            train_frac: 0.55,
            valid_frac: 0.05,
            seed: 17,
        }
    }
}

/// The labeled, split pair set feeding the matchers.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// All labeled candidate pairs `(a_row, b_row)`.
    pub pairs: Vec<(usize, usize)>,
    /// Labels aligned with `pairs` (1.0 = match).
    pub labels: Vec<f64>,
    /// Indices into `pairs` for the training split.
    pub train_idx: Vec<usize>,
    /// Indices into `pairs` for the validation split.
    pub valid_idx: Vec<usize>,
    /// Indices into `pairs` for the test split.
    pub test_idx: Vec<usize>,
}

impl PreparedData {
    /// Pairs and labels of one split.
    pub fn split(&self, idx: &[usize]) -> (Vec<(usize, usize)>, Vec<f64>) {
        let pairs = idx.iter().map(|&i| self.pairs[i]).collect();
        let labels = idx.iter().map(|&i| self.labels[i]).collect();
        (pairs, labels)
    }
}

/// Generate candidates via blocking, label them against the ground
/// truth, subsample negatives, and split train/valid/test.
///
/// All ground-truth matches are force-included as candidates (standard
/// benchmark practice — blocking recall losses are measured separately
/// by [`crate::blocking::blocking_recall`]).
///
/// # Panics
/// If fractions are invalid or id lookups fail. Fallible callers should
/// use [`prepare_with`], which quarantines dangling matches instead.
pub fn prepare(
    a: &Table,
    b: &Table,
    matches: &[(String, String)],
    config: &PrepConfig,
) -> PreparedData {
    assert!(
        config.train_frac > 0.0 && config.valid_frac >= 0.0,
        "bad split fractions"
    );
    assert!(
        config.train_frac + config.valid_frac < 1.0,
        "no test fraction left"
    );
    for (ia, ib) in matches {
        assert!(a.row_of(ia).is_some(), "unknown A id {ia:?}");
        assert!(b.row_of(ib).is_some(), "unknown B id {ib:?}");
    }
    let blocker = default_blocker(config);
    prepare_inner(
        a,
        b,
        matches,
        config,
        &blocker,
        &Exec::sequential(),
        &mut QuarantineReport::default(),
    )
}

/// The blocker [`prepare`] runs, and the suite passes to
/// [`prepare_with`] when none is chosen explicitly: token blocking over
/// the configured columns.
pub fn default_blocker(config: &PrepConfig) -> TokenBlocking {
    TokenBlocking {
        columns: config.blocking_columns.clone(),
        max_block: config.max_block,
    }
}

/// Fallible variant of [`prepare`] with an explicit blocking scheme and
/// execution context: invalid split fractions become a
/// [`SuiteError::Config`], and ground-truth matches referencing ids
/// absent from either table are quarantined (with the offending side and
/// id) instead of panicking. Candidates come from
/// `blocker.candidates(a, b, exec)`; everything downstream (labeling,
/// negative subsampling, splitting) is the same as in [`prepare`].
pub fn prepare_with(
    a: &Table,
    b: &Table,
    matches: &[(String, String)],
    config: &PrepConfig,
    blocker: &dyn Blocker,
    exec: &Exec,
) -> SuiteResult<(PreparedData, QuarantineReport)> {
    if !(config.train_frac > 0.0 && config.valid_frac >= 0.0) {
        return Err(SuiteError::Config {
            detail: format!(
                "bad split fractions: train={} valid={}",
                config.train_frac, config.valid_frac
            ),
        });
    }
    if config.train_frac + config.valid_frac >= 1.0 {
        return Err(SuiteError::Config {
            detail: format!(
                "no test fraction left: train={} + valid={} >= 1",
                config.train_frac, config.valid_frac
            ),
        });
    }
    let mut quarantine = QuarantineReport::default();
    let prep = prepare_inner(a, b, matches, config, blocker, exec, &mut quarantine);
    Ok((prep, quarantine))
}

#[allow(clippy::too_many_arguments)]
fn prepare_inner(
    a: &Table,
    b: &Table,
    matches: &[(String, String)],
    config: &PrepConfig,
    blocker: &dyn Blocker,
    exec: &Exec,
    quarantine: &mut QuarantineReport,
) -> PreparedData {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut positives: Vec<(usize, usize)> = Vec::with_capacity(matches.len());
    for (i, (ia, ib)) in matches.iter().enumerate() {
        let ra = a.row_of(ia);
        let rb = b.row_of(ib);
        match (ra, rb) {
            (Some(ra), Some(rb)) => positives.push((ra, rb)),
            (None, _) => quarantine.push(
                "matches",
                i + 1,
                RowIssue::UnknownMatchId {
                    side: 'A',
                    id: ia.clone(),
                },
            ),
            (_, None) => quarantine.push(
                "matches",
                i + 1,
                RowIssue::UnknownMatchId {
                    side: 'B',
                    id: ib.clone(),
                },
            ),
        }
    }

    positives.sort_unstable();
    positives.dedup();

    // The truth is sorted by (A row, B row), so A row `ra`'s truth pairs
    // are the run `positives[run[ra]..run[ra + 1]]`, sorted by B row:
    // labeling a candidate binary-searches its own run, whatever the
    // candidate order.
    let mut run = vec![0; a.len() + 1];
    for &(ra, _) in &positives {
        run[ra + 1] += 1;
    }
    for ra in 0..a.len() {
        run[ra + 1] += run[ra];
    }
    let is_truth = |&(ra, rb): &(usize, usize)| {
        positives[run[ra]..run[ra + 1]]
            .binary_search_by_key(&rb, |p| p.1)
            .is_ok()
    };

    let candidates = blocker.candidates(a, b, exec);
    let mut negatives: Vec<(usize, usize)> =
        candidates.into_iter().filter(|p| !is_truth(p)).collect();

    // Subsample negatives to the configured ratio.
    let cap = (positives.len() as f64 * config.negative_ratio).ceil();
    if (negatives.len() as f64) > cap && cap.is_finite() {
        negatives.shuffle(&mut rng);
        negatives.truncate(cap as usize);
        negatives.sort_unstable();
    }

    let mut pairs = Vec::with_capacity(positives.len() + negatives.len());
    let mut labels = Vec::with_capacity(positives.len() + negatives.len());
    pairs.extend(&positives);
    labels.extend(std::iter::repeat_n(1.0, positives.len()));
    pairs.extend(&negatives);
    labels.extend(std::iter::repeat_n(0.0, negatives.len()));

    // Stratified-ish split: shuffle positions, then cut.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.shuffle(&mut rng);
    let n = order.len();
    let n_train = (n as f64 * config.train_frac).round() as usize;
    let n_valid = (n as f64 * config.valid_frac).round() as usize;
    let train_idx = order[..n_train].to_vec();
    let valid_idx = order[n_train..n_train + n_valid].to_vec();
    let test_idx = order[n_train + n_valid..].to_vec();

    PreparedData {
        pairs,
        labels,
        train_idx,
        valid_idx,
        test_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;

    fn fixture() -> (Table, Table, Vec<(String, String)>) {
        let a = Table::from_csv(
            parse_csv_str("id,name\na0,li wei\na1,john smith\na2,hans muller\na3,maria garcia\n")
                .unwrap(),
        )
        .unwrap();
        let b = Table::from_csv(
            parse_csv_str("id,name\nb0,wei li\nb1,jon smith\nb2,hans mueller\nb3,ana garcia\n")
                .unwrap(),
        )
        .unwrap();
        let matches = vec![
            ("a0".to_owned(), "b0".to_owned()),
            ("a1".to_owned(), "b1".to_owned()),
        ];
        (a, b, matches)
    }

    #[test]
    fn truth_pairs_always_included() {
        let (a, b, m) = fixture();
        let prep = prepare(&a, &b, &m, &PrepConfig::default());
        assert!(prep.pairs.contains(&(0, 0)));
        assert!(prep.pairs.contains(&(1, 1)));
        assert_eq!(prep.labels.iter().filter(|&&l| l == 1.0).count(), 2);
    }

    #[test]
    fn splits_partition_all_pairs() {
        let (a, b, m) = fixture();
        let prep = prepare(&a, &b, &m, &PrepConfig::default());
        let total = prep.train_idx.len() + prep.valid_idx.len() + prep.test_idx.len();
        assert_eq!(total, prep.pairs.len());
        let mut seen: Vec<usize> = prep
            .train_idx
            .iter()
            .chain(&prep.valid_idx)
            .chain(&prep.test_idx)
            .copied()
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), prep.pairs.len());
    }

    #[test]
    fn negative_cap_is_respected() {
        let (a, b, m) = fixture();
        let prep = prepare(
            &a,
            &b,
            &m,
            &PrepConfig {
                negative_ratio: 0.5,
                ..PrepConfig::default()
            },
        );
        let negs = prep.labels.iter().filter(|&&l| l == 0.0).count();
        assert!(negs <= 1, "{negs}");
    }

    #[test]
    fn split_accessor_aligns() {
        let (a, b, m) = fixture();
        let prep = prepare(&a, &b, &m, &PrepConfig::default());
        let (pairs, labels) = prep.split(&prep.train_idx);
        assert_eq!(pairs.len(), labels.len());
        assert_eq!(pairs.len(), prep.train_idx.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b, m) = fixture();
        let p1 = prepare(&a, &b, &m, &PrepConfig::default());
        let p2 = prepare(&a, &b, &m, &PrepConfig::default());
        assert_eq!(p1.pairs, p2.pairs);
        assert_eq!(p1.train_idx, p2.train_idx);
    }

    #[test]
    fn prepare_with_swaps_the_blocking_scheme() {
        use crate::blocking::SortedNeighborhood;
        let (a, b, m) = fixture();
        let config = PrepConfig::default();
        // A different scheme flows through: sorted-neighborhood with a
        // wide window yields a candidate set token blocking cannot (the
        // drifted "hans muller"/"hans mueller" pair shares "hans").
        let sn = SortedNeighborhood {
            key_column: "name".into(),
            window: 4,
        };
        let (via_sn, q) = prepare_with(&a, &b, &m, &config, &sn, &Exec::sequential()).unwrap();
        assert!(q.is_empty());
        assert!(via_sn.pairs.contains(&(0, 0)), "truth is force-included");
        assert_eq!(via_sn.labels.iter().filter(|&&l| l == 1.0).count(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown A id")]
    fn unknown_match_id_panics() {
        let (a, b, _) = fixture();
        let _ = prepare(
            &a,
            &b,
            &[("zz".into(), "b0".into())],
            &PrepConfig::default(),
        );
    }

    #[test]
    fn checked_quarantines_dangling_matches() {
        let (a, b, mut m) = fixture();
        m.push(("zz".into(), "b0".into()));
        m.push(("a2".into(), "nope".into()));
        let config = PrepConfig::default();
        let (prep, q) = prepare_with(
            &a,
            &b,
            &m,
            &config,
            &default_blocker(&config),
            &Exec::sequential(),
        )
        .unwrap();
        assert_eq!(
            prep.labels.iter().filter(|&&l| l == 1.0).count(),
            2,
            "valid matches survive"
        );
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.rows[0].issue,
            RowIssue::UnknownMatchId {
                side: 'A',
                id: "zz".into()
            }
        );
        assert_eq!(
            q.rows[1].issue,
            RowIssue::UnknownMatchId {
                side: 'B',
                id: "nope".into()
            }
        );
    }

    #[test]
    fn checked_rejects_bad_fractions_as_config_error() {
        let (a, b, m) = fixture();
        let config = PrepConfig {
            train_frac: 0.9,
            valid_frac: 0.2,
            ..PrepConfig::default()
        };
        let e = prepare_with(
            &a,
            &b,
            &m,
            &config,
            &default_blocker(&config),
            &Exec::sequential(),
        )
        .unwrap_err();
        assert!(matches!(e, SuiteError::Config { .. }), "{e}");
    }

    #[test]
    fn checked_matches_panicking_path_on_clean_input() {
        let (a, b, m) = fixture();
        let config = PrepConfig::default();
        let p1 = prepare(&a, &b, &m, &config);
        let (p2, q) = prepare_with(
            &a,
            &b,
            &m,
            &config,
            &default_blocker(&config),
            &Exec::sequential(),
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(p1.pairs, p2.pairs);
        assert_eq!(p1.train_idx, p2.train_idx);
    }

    /// The labeling this module used before the per-A-row runs: a
    /// `BTreeSet` of truth pairs probed once per candidate. Kept as the
    /// oracle for `prepare_inner`; the rest of the body is unchanged.
    fn reference_prepare(
        a: &Table,
        b: &Table,
        matches: &[(String, String)],
        config: &PrepConfig,
        blocker: &dyn Blocker,
    ) -> (PreparedData, QuarantineReport) {
        use std::collections::BTreeSet;
        let mut quarantine = QuarantineReport::default();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut truth: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, (ia, ib)) in matches.iter().enumerate() {
            match (a.row_of(ia), b.row_of(ib)) {
                (Some(ra), Some(rb)) => {
                    truth.insert((ra, rb));
                }
                (None, _) => quarantine.push(
                    "matches",
                    i + 1,
                    RowIssue::UnknownMatchId {
                        side: 'A',
                        id: ia.clone(),
                    },
                ),
                (_, None) => quarantine.push(
                    "matches",
                    i + 1,
                    RowIssue::UnknownMatchId {
                        side: 'B',
                        id: ib.clone(),
                    },
                ),
            }
        }
        let candidates = blocker.candidates(a, b, &Exec::sequential());
        let positives: Vec<(usize, usize)> = truth.iter().copied().collect();
        let mut negatives: Vec<(usize, usize)> = candidates
            .into_iter()
            .filter(|p| !truth.contains(p))
            .collect();
        let cap = (positives.len() as f64 * config.negative_ratio).ceil();
        if (negatives.len() as f64) > cap && cap.is_finite() {
            negatives.shuffle(&mut rng);
            negatives.truncate(cap as usize);
            negatives.sort_unstable();
        }
        let mut pairs = Vec::with_capacity(positives.len() + negatives.len());
        let mut labels = Vec::with_capacity(positives.len() + negatives.len());
        pairs.extend(&positives);
        labels.extend(std::iter::repeat_n(1.0, positives.len()));
        pairs.extend(&negatives);
        labels.extend(std::iter::repeat_n(0.0, negatives.len()));
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(&mut rng);
        let n = order.len();
        let n_train = (n as f64 * config.train_frac).round() as usize;
        let n_valid = (n as f64 * config.valid_frac).round() as usize;
        let prep = PreparedData {
            pairs,
            labels,
            train_idx: order[..n_train].to_vec(),
            valid_idx: order[n_train..n_train + n_valid].to_vec(),
            test_idx: order[n_train + n_valid..].to_vec(),
        };
        (prep, quarantine)
    }

    #[test]
    fn labeling_matches_the_btreeset_oracle() {
        use crate::blocking::SortedNeighborhood;
        use fairem_rng::check::{cases, Gen};

        const WORDS: [&str; 8] = ["li", "wei", "smith", "john", "hans", "muller", "ana", "x"];
        fn table(g: &mut Gen, prefix: char, rows: usize) -> Table {
            let mut csv = String::from("id,name\n");
            for r in 0..rows {
                let name: Vec<&str> = g.vec_len(1, 3, |g| *g.pick(&WORDS));
                csv.push_str(&format!("{prefix}{r},{}\n", name.join(" ")));
            }
            Table::from_csv(parse_csv_str(&csv).unwrap()).unwrap()
        }

        cases(300, 0x1abe1, |g| {
            let (n_a, n_b) = (g.usize_in(1, 12), g.usize_in(1, 12));
            let (a, b) = (table(g, 'a', n_a), table(g, 'b', n_b));
            // Each A row holds zero, one or several truth B rows
            // (repeats included), plus dangling ids on either side.
            let mut matches = Vec::new();
            for ra in 0..n_a {
                for _ in 0..*g.pick(&[0, 0, 1, 1, 2, 4]) {
                    matches.push((format!("a{ra}"), format!("b{}", g.usize_in(0, n_b))));
                }
            }
            for k in 0..g.usize_in(0, 3) {
                matches.push((format!("zz{k}"), format!("b{}", g.usize_in(0, n_b))));
                matches.push((format!("a{}", g.usize_in(0, n_a)), format!("nope{k}")));
            }
            for i in (1..matches.len()).rev() {
                matches.swap(i, g.usize_in(0, i + 1));
            }
            let (train_frac, valid_frac) = *g.pick(&[(0.55, 0.05), (0.5, 0.0), (0.2, 0.3)]);
            let config = PrepConfig {
                negative_ratio: *g.pick(&[0.5, 1.0, 6.0, f64::INFINITY]),
                train_frac,
                valid_frac,
                seed: g.u64(),
                ..PrepConfig::default()
            };
            let blocker: Box<dyn Blocker> = if g.bool(0.5) {
                Box::new(TokenBlocking {
                    columns: vec!["name".into()],
                    max_block: *g.pick(&[1, 3, 200]),
                })
            } else {
                Box::new(SortedNeighborhood {
                    key_column: "name".into(),
                    window: g.usize_in(2, 7),
                })
            };
            let (got, got_q) = prepare_with(
                &a,
                &b,
                &matches,
                &config,
                blocker.as_ref(),
                &Exec::sequential(),
            )
            .unwrap();
            let (want, want_q) = reference_prepare(&a, &b, &matches, &config, blocker.as_ref());
            assert_eq!(got.pairs, want.pairs);
            assert_eq!(got.labels, want.labels);
            assert_eq!(got.train_idx, want.train_idx);
            assert_eq!(got.valid_idx, want.valid_idx);
            assert_eq!(got.test_idx, want.test_idx);
            assert_eq!(got_q, want_q);
        });
    }

    #[test]
    #[should_panic(expected = "no test fraction")]
    fn split_fractions_validated() {
        let (a, b, m) = fixture();
        let _ = prepare(
            &a,
            &b,
            &m,
            &PrepConfig {
                train_frac: 0.9,
                valid_frac: 0.2,
                ..PrepConfig::default()
            },
        );
    }
}
