//! The NoFlyCompas generator — the paper's second demo dataset.
//!
//! A watchlist (table A) is matched against arrest records (table B);
//! the sensitive attributes are `race` and `sex`, giving intersectional
//! subgroups (white-male, black-female, ...) for subgroup-based
//! explanations and pairwise-fairness audits.

use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::{Rng, SeedableRng};

use fairem_csvio::CsvTable;

use crate::common::GeneratedDataset;
use crate::names::sample_name;
use crate::perturb;

/// Race tags carried by NoFlyCompas records.
pub const RACES: [&str; 4] = ["white", "black", "hispanic", "asian"];
/// Sex tags carried by NoFlyCompas records.
pub const SEXES: [&str; 2] = ["male", "female"];

/// Configuration for [`nofly_compas`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoFlyConfig {
    /// Entities per (race, sex) subgroup in table A.
    pub per_subgroup: usize,
    /// Fraction of A entities with a true duplicate in B.
    pub match_rate: f64,
    /// B-only distractor entities per subgroup, as a fraction of
    /// `per_subgroup`.
    pub distractor_rate: f64,
    /// Probability of a name typo in duplicates.
    pub typo_prob: f64,
    /// Probability that an `asian` duplicate's name drifts to an
    /// alternative romanization (see
    /// [`crate::names::romanization_variant`]).
    pub drift_prob: f64,
    /// Probability of a day/month transposition in a duplicate's DOB.
    pub dob_swap_prob: f64,
    /// Probability a watchlist (table A) record has no DOB at all —
    /// watchlist metadata is routinely partial, which forces matching
    /// back onto names.
    pub dob_missing_prob: f64,
    /// Extra representation multiplier for the `white` race (the COMPAS
    /// data skew); 1.0 disables the skew.
    pub majority_boost: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoFlyConfig {
    fn default() -> NoFlyConfig {
        NoFlyConfig {
            per_subgroup: 90,
            match_rate: 0.5,
            distractor_rate: 0.5,
            typo_prob: 0.3,
            drift_prob: 0.6,
            dob_swap_prob: 0.2,
            dob_missing_prob: 0.4,
            majority_boost: 1.6,
            seed: 123,
        }
    }
}

impl NoFlyConfig {
    /// A small configuration for fast tests.
    pub fn small() -> NoFlyConfig {
        NoFlyConfig {
            per_subgroup: 25,
            ..NoFlyConfig::default()
        }
    }
}

const COUNTIES: [&str; 8] = [
    "cook", "broward", "maricopa", "harris", "king", "fulton", "clark", "wayne",
];

fn random_dob(rng: &mut StdRng) -> (u32, u32, u32) {
    (
        rng.gen_range(1950..2003),
        rng.gen_range(1..13),
        rng.gen_range(1..29),
    )
}

fn dob_text(d: (u32, u32, u32)) -> String {
    format!("{:04}-{:02}-{:02}", d.0, d.1, d.2)
}

/// Generate the NoFlyCompas benchmark. The result is validated before
/// being returned.
pub fn nofly_compas(config: &NoFlyConfig) -> GeneratedDataset {
    assert!(
        config.per_subgroup > 0,
        "need at least one entity per subgroup"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let header_a: Vec<String> = ["id", "name", "dob", "country", "race", "sex"]
        .map(String::from)
        .to_vec();
    let header_b: Vec<String> = ["id", "name", "dob", "county", "race", "sex"]
        .map(String::from)
        .to_vec();

    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut matches = Vec::new();
    let mut next_b = 0usize;

    for race in RACES {
        let boost = if race == "white" {
            config.majority_boost
        } else {
            1.0
        };
        let n = (config.per_subgroup as f64 * boost).round() as usize;
        for sex in SEXES {
            for _ in 0..n {
                let name = sample_name(race, &mut rng);
                let text = if name.family_first_variant && rng.gen_bool(0.5) {
                    name.family_order()
                } else {
                    name.western_order()
                };
                let dob = random_dob(&mut rng);
                let a_dob = if rng.gen_bool(config.dob_missing_prob) {
                    String::new()
                } else {
                    dob_text(dob)
                };
                let aid = format!("a{}", rows_a.len());
                rows_a.push(vec![
                    aid.clone(),
                    text.clone(),
                    a_dob,
                    "us".to_owned(),
                    race.to_owned(),
                    sex.to_owned(),
                ]);
                if rng.gen_bool(config.match_rate) {
                    let mut nm = text.clone();
                    if name.family_first_variant && rng.gen_bool(0.5) {
                        nm = perturb::flip_tokens(&nm);
                    }
                    if name.family_first_variant && rng.gen_bool(config.drift_prob) {
                        nm = perturb::romanize(&nm);
                    }
                    nm = perturb::maybe(&nm, config.typo_prob, &mut rng, perturb::typo);
                    let dob_b = if rng.gen_bool(config.dob_swap_prob) && dob.2 <= 12 {
                        (dob.0, dob.2, dob.1)
                    } else {
                        dob
                    };
                    let bid = format!("b{next_b}");
                    next_b += 1;
                    rows_b.push(vec![
                        bid.clone(),
                        nm,
                        dob_text(dob_b),
                        (*COUNTIES.pick(&mut rng)).to_owned(),
                        race.to_owned(),
                        sex.to_owned(),
                    ]);
                    matches.push((aid, bid));
                }
            }
        }
        // Distractors for this race.
        let d = (config.per_subgroup as f64 * config.distractor_rate).round() as usize;
        for _ in 0..d {
            let name = sample_name(race, &mut rng);
            let sex = *SEXES.pick(&mut rng);
            let bid = format!("b{next_b}");
            next_b += 1;
            rows_b.push(vec![
                bid,
                name.western_order(),
                dob_text(random_dob(&mut rng)),
                (*COUNTIES.pick(&mut rng)).to_owned(),
                race.to_owned(),
                sex.to_owned(),
            ]);
        }
    }

    let dataset = GeneratedDataset {
        name: "NoFlyCompas".into(),
        table_a: CsvTable {
            header: header_a,
            rows: rows_a,
        },
        table_b: CsvTable {
            header: header_b,
            rows: rows_b,
        },
        matches,
        sensitive: vec!["race".into(), "sex".into()],
    };
    dataset.validate();
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generates_consistent_dataset() {
        let d = nofly_compas(&NoFlyConfig::small());
        d.validate();
        assert_eq!(d.sensitive, vec!["race".to_owned(), "sex".to_owned()]);
        assert!(!d.matches.is_empty());
    }

    #[test]
    fn majority_boost_skews_representation() {
        let d = nofly_compas(&NoFlyConfig::small());
        let race_idx = d.table_a.column_index("race").unwrap();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for r in &d.table_a.rows {
            *counts.entry(&r[race_idx]).or_default() += 1;
        }
        assert!(counts["white"] > counts["black"], "{counts:?}");
        let no_boost = nofly_compas(&NoFlyConfig {
            majority_boost: 1.0,
            ..NoFlyConfig::small()
        });
        let mut counts2: HashMap<String, usize> = HashMap::new();
        let ri = no_boost.table_a.column_index("race").unwrap();
        for r in &no_boost.table_a.rows {
            *counts2.entry(r[ri].clone()).or_default() += 1;
        }
        assert_eq!(counts2["white"], counts2["black"]);
    }

    #[test]
    fn intersectional_subgroups_all_present() {
        let d = nofly_compas(&NoFlyConfig::small());
        let ri = d.table_a.column_index("race").unwrap();
        let si = d.table_a.column_index("sex").unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &d.table_a.rows {
            seen.insert((r[ri].clone(), r[si].clone()));
        }
        assert_eq!(seen.len(), RACES.len() * SEXES.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = nofly_compas(&NoFlyConfig::small());
        let b = nofly_compas(&NoFlyConfig::small());
        assert_eq!(a.table_b.rows, b.table_b.rows);
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn dob_format_is_iso_or_missing() {
        let d = nofly_compas(&NoFlyConfig::small());
        let di = d.table_a.column_index("dob").unwrap();
        let mut missing = 0;
        for r in &d.table_a.rows {
            if r[di].is_empty() {
                missing += 1;
                continue;
            }
            let parts: Vec<&str> = r[di].split('-').collect();
            assert_eq!(parts.len(), 3);
            assert_eq!(parts[0].len(), 4);
        }
        // Watchlist DOBs are partially missing by design.
        assert!(missing > 0);
        assert!(missing < d.table_a.len());
        // Arrest records always carry a DOB.
        let bi = d.table_b.column_index("dob").unwrap();
        assert!(d.table_b.rows.iter().all(|r| !r[bi].is_empty()));
    }
}
