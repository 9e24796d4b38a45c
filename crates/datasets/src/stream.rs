//! Streaming scale generator: seeded rows produced **per index**, so a
//! 10⁵–10⁷-row table can be written straight to disk (or fed to the
//! out-of-core audit path) without ever materializing it.
//!
//! Every row is a pure function of `(seed, side, index)` — iterating
//! twice, iterating a sub-range, or materializing the whole table all
//! yield byte-identical rows. Entities are laid out in fixed-width
//! *blocks* (a shared `blk<k>` token in the name) so token blocking over
//! the `name` column produces `≈ rows × block_width` candidate pairs:
//! the candidate volume is a knob, independent of row count.
//!
//! The sensitive attribute is the two-valued `tier` (`budget` /
//! `premium`), assigned deterministically per entity; budget-tier
//! duplicates carry extra title noise, reproducing the
//! group-correlated difficulty the audit narrative depends on.

use fairem_csvio::CsvTable;
use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

use crate::common::GeneratedDataset;

/// Configuration for [`ScaleDataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Rows per table.
    pub rows: usize,
    /// Entities per blocking token: token blocking yields
    /// `≈ rows × block_width` candidate pairs.
    pub block_width: usize,
    /// Fraction of A rows with a true duplicate at the same index in B.
    pub match_rate: f64,
    /// Fraction of entities in the noisy `budget` tier.
    pub budget_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            rows: 12_800,
            block_width: 8,
            match_rate: 0.3,
            budget_share: 0.5,
            seed: 23,
        }
    }
}

impl ScaleConfig {
    /// A configuration sized so token blocking produces roughly `pairs`
    /// candidates (`rows = pairs / block_width`, width 8 below 10⁶
    /// pairs, 25 at or above).
    pub fn with_pairs(pairs: u64) -> ScaleConfig {
        let block_width = if pairs >= 1_000_000 { 25 } else { 8 };
        ScaleConfig {
            rows: usize::try_from(pairs / block_width as u64)
                .unwrap_or(usize::MAX)
                .max(block_width),
            block_width,
            ..ScaleConfig::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> ScaleConfig {
        ScaleConfig {
            rows: 48,
            block_width: 4,
            ..ScaleConfig::default()
        }
    }
}

const CATEGORIES: [&str; 8] = [
    "sensor", "module", "bracket", "adapter", "gasket", "valve", "rotor", "spindle",
];
const QUALIFIERS: [&str; 8] = [
    "alpha", "delta", "omega", "prime", "ultra", "nano", "mega", "zeta",
];
const NOISE: [&str; 6] = ["oem", "bulk", "refurb", "clearance", "genuine", "new"];

/// The streaming generator: rows on demand, nothing resident.
#[derive(Debug, Clone)]
pub struct ScaleDataset {
    config: ScaleConfig,
}

impl ScaleDataset {
    /// Bind a configuration.
    pub fn new(config: ScaleConfig) -> ScaleDataset {
        ScaleDataset { config }
    }

    /// The bound configuration.
    pub fn config(&self) -> &ScaleConfig {
        &self.config
    }

    /// Column header shared by both tables.
    pub fn header(&self) -> Vec<String> {
        ["id", "name", "detail", "tier"].map(String::from).to_vec()
    }

    /// Sensitive column names (just `tier`).
    pub fn sensitive(&self) -> Vec<String> {
        vec!["tier".to_owned()]
    }

    /// Expected candidate-pair volume under token blocking on `name`.
    pub fn candidate_estimate(&self) -> u64 {
        (self.config.rows as u64) * (self.config.block_width as u64)
    }

    /// Whether A-row `i` has a true duplicate at B-row `i`.
    fn is_match(&self, i: usize) -> bool {
        self.entity_rng(i, 2).gen_bool(self.config.match_rate)
    }

    /// A fresh per-(entity, stream) RNG: the statelessness that makes
    /// row access O(1) at any index.
    fn entity_rng(&self, i: usize, stream: u64) -> StdRng {
        // splitmix-style index mixing so adjacent indices decorrelate.
        let mut z = self
            .config
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    fn tier(&self, i: usize) -> &'static str {
        if self.entity_rng(i, 0).gen_bool(self.config.budget_share) {
            "budget"
        } else {
            "premium"
        }
    }

    fn base_name(&self, i: usize) -> String {
        let mut rng = self.entity_rng(i, 1);
        let block = i / self.config.block_width.max(1);
        format!(
            "blk{block} {} {} v{}",
            CATEGORIES[rng.gen_range(0..CATEGORIES.len())],
            QUALIFIERS[rng.gen_range(0..QUALIFIERS.len())],
            rng.gen_range(1..10usize)
        )
    }

    fn detail(&self, i: usize) -> String {
        let mut rng = self.entity_rng(i, 3);
        format!(
            "lot {} bin {}",
            rng.gen_range(100..1000usize),
            rng.gen_range(10..100usize)
        )
    }

    /// Row `i` of table A.
    pub fn row_a(&self, i: usize) -> Vec<String> {
        vec![
            format!("a{i}"),
            self.base_name(i),
            self.detail(i),
            self.tier(i).to_owned(),
        ]
    }

    /// Row `i` of table B: a perturbed duplicate of A's entity when the
    /// match coin lands, an independent same-block entity otherwise.
    pub fn row_b(&self, i: usize) -> Vec<String> {
        let mut rng = self.entity_rng(i, 4);
        let (name, detail) = if self.is_match(i) {
            let mut name = self.base_name(i);
            // Budget-tier duplicates are noisier (reseller listings).
            let noise = if self.tier(i) == "budget" { 2 } else { 1 };
            for _ in 0..noise {
                if rng.gen_bool(0.6) {
                    name.push(' ');
                    name.push_str(NOISE[rng.gen_range(0..NOISE.len())]);
                }
            }
            (name, self.detail(i))
        } else {
            // A distinct entity in the same block: a blocked negative.
            let block = i / self.config.block_width.max(1);
            let name = format!(
                "blk{block} {} {} v{}",
                CATEGORIES[rng.gen_range(0..CATEGORIES.len())],
                QUALIFIERS[rng.gen_range(0..QUALIFIERS.len())],
                rng.gen_range(1..10usize)
            );
            let detail = format!(
                "lot {} bin {}",
                rng.gen_range(100..1000usize),
                rng.gen_range(10..100usize)
            );
            (name, detail)
        };
        vec![format!("b{i}"), name, detail, self.tier(i).to_owned()]
    }

    /// Stream table A's rows in index order.
    pub fn rows_a(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        (0..self.config.rows).map(|i| self.row_a(i))
    }

    /// Stream table B's rows in index order.
    pub fn rows_b(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        (0..self.config.rows).map(|i| self.row_b(i))
    }

    /// Stream the ground-truth `(id_a, id_b)` match pairs.
    pub fn matches(&self) -> impl Iterator<Item = (String, String)> + '_ {
        (0..self.config.rows)
            .filter(|&i| self.is_match(i))
            .map(|i| (format!("a{i}"), format!("b{i}")))
    }

    /// Materialize the whole dataset in memory — for tests and small
    /// configurations only; the point of this generator is that large
    /// runs never call this.
    pub fn materialize(&self) -> GeneratedDataset {
        let table = |rows: Vec<Vec<String>>| CsvTable {
            header: self.header(),
            rows,
        };
        GeneratedDataset {
            name: "ScaleMatch".to_owned(),
            table_a: table(self.rows_a().collect()),
            table_b: table(self.rows_b().collect()),
            matches: self.matches().collect(),
            sensitive: self.sensitive(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_pure_functions_of_the_index() {
        let d = ScaleDataset::new(ScaleConfig::tiny());
        let first: Vec<_> = d.rows_a().collect();
        let second: Vec<_> = d.rows_a().collect();
        assert_eq!(first, second, "re-iteration must be byte-identical");
        assert_eq!(d.row_a(17), first[17], "random access equals streaming");
        assert_eq!(d.row_b(5), d.rows_b().nth(5).unwrap());
    }

    #[test]
    fn materialized_dataset_validates_and_matches_the_stream() {
        let d = ScaleDataset::new(ScaleConfig::tiny());
        let g = d.materialize();
        g.validate();
        assert_eq!(g.table_a.rows.len(), d.config().rows);
        assert_eq!(g.matches.len(), d.matches().count());
        assert!(!g.matches.is_empty(), "tiny config must produce matches");
    }

    #[test]
    fn blocks_are_fixed_width_and_shared_across_tables() {
        let d = ScaleDataset::new(ScaleConfig::tiny());
        let w = d.config().block_width;
        for i in 0..d.config().rows {
            let expect = format!("blk{}", i / w);
            let a = d.row_a(i);
            let b = d.row_b(i);
            assert!(a[1].starts_with(&expect), "A row {i}: {:?}", a[1]);
            assert!(b[1].starts_with(&expect), "B row {i}: {:?}", b[1]);
        }
    }

    #[test]
    fn with_pairs_hits_the_requested_candidate_volume() {
        for pairs in [100_000u64, 1_000_000] {
            let c = ScaleConfig::with_pairs(pairs);
            let d = ScaleDataset::new(c);
            let est = d.candidate_estimate();
            assert!(
                est >= pairs * 9 / 10 && est <= pairs * 11 / 10,
                "estimate {est} should be within 10% of {pairs}"
            );
        }
    }

    #[test]
    fn seeds_change_content_but_not_shape() {
        let a = ScaleDataset::new(ScaleConfig {
            seed: 1,
            ..ScaleConfig::tiny()
        });
        let b = ScaleDataset::new(ScaleConfig {
            seed: 2,
            ..ScaleConfig::tiny()
        });
        assert_ne!(
            a.rows_a().collect::<Vec<_>>(),
            b.rows_a().collect::<Vec<_>>()
        );
        assert_eq!(a.header(), b.header());
    }

    #[test]
    fn both_tiers_appear() {
        let d = ScaleDataset::new(ScaleConfig::tiny());
        let tiers: std::collections::HashSet<String> = d.rows_a().map(|r| r[3].clone()).collect();
        assert_eq!(tiers.len(), 2, "budget and premium must both occur");
    }
}
