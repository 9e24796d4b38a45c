//! Scalar-vs-columnar equivalence suite: the per-pair string-path
//! features and the columnar batch kernels must agree **bit for bit** on
//! real generated datasets, for every parallelism policy. These tests
//! are the refactor's safety net — any drift between the scalar
//! reference path and the interned hot path fails here first.

use fairem_core::blocking::{
    sorted_neighborhood, token_blocking, Blocker, SortedNeighborhood, TokenBlocking,
};
use fairem_core::features::FeatureGenerator;
use fairem_core::schema::Table;
use fairem_core::{Exec, PairBatch, ParOutcome, Parallelism, WorkerPool};
use fairem_datasets::{
    citations, wdc_products, CitationsConfig, GeneratedDataset, ProductsConfig, ScaleConfig,
    ScaleDataset,
};
use fairem_ml::Matrix;
use fairem_neural::HashVocab;

/// The parallelism policies the results must be invariant under. Odd
/// worker counts put chunk boundaries at odd places inside a feature's
/// run of pairs.
const POLICIES: [Parallelism; 5] = [
    Parallelism::Off,
    Parallelism::Fixed(1),
    Parallelism::Fixed(3),
    Parallelism::Fixed(4),
    Parallelism::Fixed(7),
];

/// Batch lengths from empty up: short batches give chunks of a single
/// cell and put chunk boundaries inside one feature's run.
const SHORT_BATCHES: [usize; 4] = [0, 1, 2, 13];

/// Products, Citations, and the scale generator, whose repeated
/// part-name tokens keep hitting the Monge-Elkan memo across runs.
fn datasets() -> Vec<GeneratedDataset> {
    vec![
        wdc_products(&ProductsConfig::small()),
        citations(&CitationsConfig::small()),
        ScaleDataset::new(ScaleConfig::tiny()).materialize(),
    ]
}

/// The text column the blocking checks key on.
fn key_column(d: &GeneratedDataset) -> &'static str {
    if d.table_a.header.iter().any(|c| c == "title") {
        "title"
    } else {
        "name"
    }
}

fn tables(d: &GeneratedDataset) -> (Table, Table) {
    let a = Table::from_csv(d.table_a.clone()).unwrap();
    let b = Table::from_csv(d.table_b.clone()).unwrap();
    (a, b)
}

fn generator(d: &GeneratedDataset, a: &Table, b: &Table) -> FeatureGenerator {
    let exclude: Vec<&str> = d.sensitive.iter().map(String::as_str).collect();
    FeatureGenerator::build(a, b, &exclude)
}

/// A deterministic pair sample spanning both tables, including repeated
/// rows and self-ish pairs, so every kernel sees reused cache entries.
fn sample_pairs(a: &Table, b: &Table, n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i % a.len(), (i * 7) % b.len())).collect()
}

/// The scalar oracle: one `FeatureGenerator::features` call per pair.
fn scalar_matrix(gen: &FeatureGenerator, a: &Table, b: &Table, pairs: &[(usize, usize)]) -> Matrix {
    let mut m = Matrix::zeros(pairs.len(), gen.n_features());
    for (i, &(ra, rb)) in pairs.iter().enumerate() {
        m.row_mut(i).copy_from_slice(&gen.features(a, ra, b, rb));
    }
    m
}

fn complete(outcome: ParOutcome<Matrix>) -> Matrix {
    match outcome {
        ParOutcome::Complete(m) => m,
        ParOutcome::Interrupted { interrupt, .. } => {
            unreachable!("inert exec must not interrupt: {interrupt}")
        }
    }
}

fn assert_bitwise_eq(old: &Matrix, new: &Matrix, ctx: &str) {
    assert_eq!(old.rows(), new.rows(), "{ctx}: row count");
    for r in 0..old.rows() {
        let (or, nr) = (old.row(r), new.row(r));
        assert_eq!(or.len(), nr.len(), "{ctx}: width of row {r}");
        for (c, (x, y)) in or.iter().zip(nr.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: row {r} col {c}: old {x:?} vs new {y:?}"
            );
        }
    }
}

#[test]
fn feature_matrices_are_bit_for_bit_identical_across_paths_and_policies() {
    for d in datasets() {
        let (a, b) = tables(&d);
        let gen = generator(&d, &a, &b);
        for len in SHORT_BATCHES.into_iter().chain([300]) {
            let pairs = sample_pairs(&a, &b, len);

            // The per-pair string path is the reference.
            let reference = scalar_matrix(&gen, &a, &b, &pairs);
            for policy in POLICIES {
                let exec = Exec::with_pool(WorkerPool::with_parallelism(policy));
                let new = complete(gen.matrix(&PairBatch::new(&pairs), &exec));
                assert_eq!(new.cols(), gen.n_features(), "{}: width", d.name);
                assert_bitwise_eq(
                    &reference,
                    &new,
                    &format!("{} columnar/{policy:?}/{len} pairs", d.name),
                );
            }
        }
    }
}

#[test]
fn blocked_candidate_matrices_agree_end_to_end() {
    // Same check over the *actual* blocked candidate sets, so the
    // equivalence covers the row distribution the pipeline really sees.
    for d in datasets() {
        let (a, b) = tables(&d);
        let gen = generator(&d, &a, &b);
        let pairs = token_blocking(&a, &b, &[key_column(&d)], 50);
        assert!(
            !pairs.is_empty(),
            "{}: blocking produced no candidates",
            d.name
        );

        let reference = scalar_matrix(&gen, &a, &b, &pairs);
        let new = complete(gen.matrix(&PairBatch::new(&pairs), &Exec::default()));
        assert_bitwise_eq(&reference, &new, &format!("{} blocked", d.name));
    }
}

#[test]
fn candidate_sets_are_identical_across_blockers_and_policies() {
    for d in datasets() {
        let (a, b) = tables(&d);
        let key = key_column(&d);
        for max_block in [2, 10, 50] {
            let reference = token_blocking(&a, &b, &[key], max_block);
            let blocker = TokenBlocking {
                columns: vec![key.to_owned()],
                max_block,
            };
            for policy in POLICIES {
                let exec = Exec::with_pool(WorkerPool::with_parallelism(policy));
                assert_eq!(
                    reference,
                    blocker.candidates(&a, &b, &exec),
                    "{} token/{policy:?}/max_block {max_block}",
                    d.name
                );
            }
        }

        let reference = sorted_neighborhood(&a, &b, key, 8);
        let blocker = SortedNeighborhood {
            key_column: key.to_owned(),
            window: 8,
        };
        for policy in POLICIES {
            let exec = Exec::with_pool(WorkerPool::with_parallelism(policy));
            assert_eq!(
                reference,
                blocker.candidates(&a, &b, &exec),
                "{} sorted/{policy:?}",
                d.name
            );
        }
    }
}

#[test]
fn interned_tokenization_matches_the_per_pair_path() {
    for d in datasets() {
        let (a, b) = tables(&d);
        let gen = generator(&d, &a, &b);
        let pairs = sample_pairs(&a, &b, 120);
        let vocab = HashVocab::new(256);

        let batch = gen.tokenize_all(&PairBatch::new(&pairs), &vocab);
        assert_eq!(batch.len(), pairs.len());
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            let single = gen.tokenize(&a, ra, &b, rb, &vocab);
            assert_eq!(batch[i], single, "{}: pair {i} ({ra}, {rb})", d.name);
        }
    }
}

#[test]
fn scalar_features_match_the_batch_row_by_row() {
    // One more angle: the public per-pair `features` accessor against
    // the batch matrix, pinning the scalar reference path itself.
    for d in datasets() {
        let (a, b) = tables(&d);
        let gen = generator(&d, &a, &b);
        let pairs = sample_pairs(&a, &b, 60);
        let m = complete(gen.matrix(&PairBatch::new(&pairs), &Exec::default()));
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            let f = gen.features(&a, ra, &b, rb);
            let row = m.row(i);
            assert_eq!(f.len(), row.len());
            for (c, (x, y)) in f.iter().zip(row.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: pair {i} col {c}: scalar {x:?} vs batch {y:?}",
                    d.name
                );
            }
        }
    }
}
