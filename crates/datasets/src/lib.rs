//! # fairem-datasets
//!
//! Synthetic dataset generators standing in for the demo datasets the
//! paper uses (FacultyMatch, NoFlyCompas) and for the Magellan/WDC-style
//! benchmark formats the suite ingests.
//!
//! The paper's datasets are private social data; these generators
//! reproduce the three properties the demo narrative depends on
//! (see `DESIGN.md` §1):
//!
//! 1. **Group-correlated name collisions** — e.g. the `cn` group draws
//!    from a small romanized surname/given-name pool, so distinct people
//!    frequently share near-identical names (driving false positives),
//!    and true duplicates often differ by token order or romanization
//!    (driving false negatives).
//! 2. **Representation skew** — group sizes and match rates are knobs.
//! 3. **Intersectional subgroups** — NoFlyCompas carries race × sex.
//!
//! Every generator is deterministic given its seed and emits two
//! [`fairem_csvio::CsvTable`]s plus a ground-truth match set, i.e. exactly
//! the Magellan benchmark shape (`tableA.csv`, `tableB.csv`,
//! `matches.csv`).

pub mod citations;
pub mod common;
pub mod faculty;
pub mod names;
pub mod noflycompas;
pub mod perturb;
pub mod products;
pub mod stream;

pub use citations::{citations, CitationsConfig};
pub use common::GeneratedDataset;
pub use faculty::{faculty_match, FacultyConfig};
pub use noflycompas::{nofly_compas, NoFlyConfig};
pub use products::{wdc_products, ProductsConfig};
pub use stream::{ScaleConfig, ScaleDataset};

/// The generators [`generate`] builds by name.
pub const GENERATORS: [&str; 4] = ["faculty", "noflycompas", "products", "citations"];

/// Build the generator named `name` (one of [`GENERATORS`]) at its
/// default configuration under `seed`; seed 0 keeps the generator's
/// default seed. `None` for any other name.
pub fn generate(name: &str, seed: u64) -> Option<GeneratedDataset> {
    let seeded = |default: u64| if seed == 0 { default } else { seed };
    Some(match name {
        "faculty" => {
            let cfg = FacultyConfig::default();
            faculty_match(&FacultyConfig {
                seed: seeded(cfg.seed),
                ..cfg
            })
        }
        "noflycompas" => {
            let cfg = NoFlyConfig::default();
            nofly_compas(&NoFlyConfig {
                seed: seeded(cfg.seed),
                ..cfg
            })
        }
        "products" => {
            let cfg = ProductsConfig::default();
            wdc_products(&ProductsConfig {
                seed: seeded(cfg.seed),
                ..cfg
            })
        }
        "citations" => {
            let cfg = CitationsConfig::default();
            citations(&CitationsConfig {
                seed: seeded(cfg.seed),
                ..cfg
            })
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_knows_exactly_the_listed_names_and_seed_zero_is_the_default() {
        for name in GENERATORS {
            assert!(generate(name, 1).is_some(), "{name}");
        }
        assert!(generate("scale", 0).is_none());
        assert!(generate("Faculty", 0).is_none());
        let default = faculty_match(&FacultyConfig::default());
        let zero = generate("faculty", 0).map(|d| d.table_a);
        assert_eq!(zero, Some(default.table_a));
    }
}
