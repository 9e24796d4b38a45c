//! Magellan-style similarity feature generation for record pairs.
//!
//! Columns present in both tables (matched by name, excluding `id` and
//! the sensitive columns — group membership must never leak into the
//! matcher input) become feature groups: numeric columns contribute
//! difference-based similarities, text columns a battery of string
//! measures plus a corpus-weighted TF-IDF cosine.
//!
//! # Columnar execution
//!
//! [`FeatureGenerator::build`] normalizes and tokenizes every cell of
//! every aligned column exactly once, interning tokens to dense `u32`
//! ids ([`TokenInterner`]) and storing each column as a
//! struct-of-arrays [`PreparedColumn`] (normalized chars, word-token
//! ids, q-gram sets, TF-IDF weight vectors). The batch entry point
//! [`FeatureGenerator::matrix`] then runs integer-slice kernels over a
//! [`PairBatch`] — no per-pair normalization, tokenization, or hashing.
//!
//! The batch is evaluated **feature-major**: the work item is one
//! (feature, pair) cell, numbered `k · n + i` for feature `k` of pair
//! `i`, so a pool chunk runs one measure over a long run of
//! consecutive pairs and writes a contiguous stretch of a
//! column-major buffer. One serial transpose turns that buffer into
//! the row-major [`Matrix`] the matchers read. Running a measure over
//! thousands of pairs before switching to the next one is what makes
//! this faster than computing each pair's whole feature vector in
//! turn (DESIGN.md §6a); the values are the same bits either way.
//! A chunk gets its cell range whole and walks it one feature at a
//! time: it finds its first `(k, i)` once and matches each feature's
//! measure once per run, not once per cell.
//!
//! The batch kernels are bit-for-bit identical to the scalar per-pair
//! path ([`FeatureGenerator::features`]) for every measure (the
//! equivalence suite pins this). That comparison checks the caching —
//! prepared cells, interned ids, the Jaro-Winkler memo — and the
//! layout; the kernels themselves are pinned to textbook references
//! by `fairem-text`'s `tests/kernel_oracle.rs`: the dynamic-program
//! and flag-scan edit measures, and naive set and TF-IDF measures.

use std::collections::HashMap;
use std::sync::Arc;

use fairem_ml::Matrix;
use fairem_neural::{HashVocab, TokenPair};
use fairem_par::{ChunkPanic, MemPressure, ParOutcome};
use fairem_text::{
    for_each_word, measure_cells, rel_diff_sim, tfidf_cosine_cells, PreparedColumn, SimScratch,
    StringMeasure, TfIdfCorpus, TokenInterner,
};

use crate::exec::{Exec, PairBatch};
use crate::schema::Table;

/// The string measures applied to each text column, in feature order:
/// every measure `fairem-text` defines.
pub const TEXT_MEASURES: [StringMeasure; 6] = StringMeasure::ALL;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    Numeric,
    Text,
}

#[derive(Debug, Clone)]
struct AlignedColumn {
    name: String,
    a_col: usize,
    b_col: usize,
    kind: ColKind,
    /// Index into the kind-matching prepared-column store.
    slot: usize,
}

/// One column of the feature matrix: the measure and the prepared
/// column slot it reads.
#[derive(Debug, Clone, Copy)]
enum Feature {
    RelDiff(usize),
    Exact(usize),
    Text(StringMeasure, usize),
    TfIdf(usize),
}

/// A numeric column prepared once at build time: parsed values, interned
/// whole-cell ids (for the exact-match feature), and interned raw word
/// tokens (for the neural tokenizer).
#[derive(Debug, Default, Clone)]
struct NumericColumn {
    value: Vec<f64>,
    cell: Vec<u32>,
    empty: Vec<bool>,
    words: Vec<u32>,
    words_off: Vec<u32>,
}

impl NumericColumn {
    fn prepare<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> NumericColumn {
        let mut col = NumericColumn {
            words_off: vec![0],
            ..NumericColumn::default()
        };
        let mut tok = String::new();
        for cell in cells {
            col.value.push(parse_num(cell));
            col.cell.push(interner.intern(cell));
            col.empty.push(cell.is_empty());
            for_each_word(cell, &mut tok, |w| col.words.push(interner.intern(w)));
            col.words_off.push(col.words.len() as u32);
        }
        col
    }

    fn words(&self, row: usize) -> &[u32] {
        &self.words[self.words_off[row] as usize..self.words_off[row + 1] as usize]
    }
}

/// The columnar build product: one shared interner plus, per aligned
/// column, the prepared struct-of-arrays for both tables. Immutable
/// after `build`, so the parallel pair loop reads it without locks.
#[derive(Debug)]
struct Interned {
    interner: TokenInterner,
    text: Vec<(PreparedColumn, PreparedColumn)>,
    numeric: Vec<(NumericColumn, NumericColumn)>,
}

/// A fitted feature generator bound to one pair of tables.
#[derive(Debug, Clone)]
pub struct FeatureGenerator {
    columns: Vec<AlignedColumn>,
    /// The matrix columns in feature order.
    features: Vec<Feature>,
    tfidf: TfIdfCorpus,
    interned: Arc<Interned>,
}

/// Why a batch feature build failed: a contained worker panic, or the
/// execution context's memory budget refusing the build's declared
/// footprint before any row was computed.
#[derive(Debug)]
pub enum MatrixError {
    /// A panic escaped feature evaluation on a worker.
    Panic(ChunkPanic),
    /// The declared build footprint did not fit the memory budget.
    Mem(MemPressure),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::Panic(p) => write!(f, "{p}"),
            MatrixError::Mem(m) => write!(f, "{m}"),
        }
    }
}

impl From<ChunkPanic> for MatrixError {
    fn from(p: ChunkPanic) -> MatrixError {
        MatrixError::Panic(p)
    }
}

impl FeatureGenerator {
    /// Align the attribute columns of two tables (excluding `id` and
    /// `exclude`, typically the sensitive columns), tokenize and intern
    /// every cell once, and fit the TF-IDF corpus over every text value
    /// in both tables.
    ///
    /// # Panics
    /// If no columns align.
    pub fn build(a: &Table, b: &Table, exclude: &[&str]) -> FeatureGenerator {
        let mut columns = Vec::new();
        let mut interner = TokenInterner::new();
        let mut text: Vec<(PreparedColumn, PreparedColumn)> = Vec::new();
        let mut numeric: Vec<(NumericColumn, NumericColumn)> = Vec::new();
        for (a_col, name) in a.columns().iter().enumerate() {
            if name == "id" || exclude.contains(&name.as_str()) {
                continue;
            }
            let Some(b_col) = b.column_index(name) else {
                continue;
            };
            let kind = if all_numeric(a, a_col) && all_numeric(b, b_col) {
                ColKind::Numeric
            } else {
                ColKind::Text
            };
            let slot = match kind {
                ColKind::Text => {
                    let pa = PreparedColumn::prepare(
                        (0..a.len()).map(|r| a.value(r, a_col)),
                        &mut interner,
                    );
                    let pb = PreparedColumn::prepare(
                        (0..b.len()).map(|r| b.value(r, b_col)),
                        &mut interner,
                    );
                    text.push((pa, pb));
                    text.len() - 1
                }
                ColKind::Numeric => {
                    let na = NumericColumn::prepare(
                        (0..a.len()).map(|r| a.value(r, a_col)),
                        &mut interner,
                    );
                    let nb = NumericColumn::prepare(
                        (0..b.len()).map(|r| b.value(r, b_col)),
                        &mut interner,
                    );
                    numeric.push((na, nb));
                    numeric.len() - 1
                }
            };
            columns.push(AlignedColumn {
                name: name.clone(),
                a_col,
                b_col,
                kind,
                slot,
            });
        }
        assert!(
            !columns.is_empty(),
            "no alignable feature columns between tables"
        );
        // Document frequencies over the raw word tokens of every text
        // cell (a's rows then b's rows per column — df is a pure count,
        // so the accumulation order is immaterial to the result).
        let mut df: Vec<u32> = Vec::new();
        let mut n_docs = 0usize;
        for (pa, pb) in &text {
            n_docs += pa.accumulate_doc_freq(&mut df);
            n_docs += pb.accumulate_doc_freq(&mut df);
        }
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        for (pa, pb) in &mut text {
            pa.finish_tfidf(&df, n_docs, &rank);
            pb.finish_tfidf(&df, n_docs, &rank);
        }
        // Materialize the value-identical scalar corpus for the string
        // per-pair path: the incremental builder would have produced
        // exactly these (token, df) entries for exactly these documents.
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for (id, &count) in df.iter().enumerate() {
            if count > 0 {
                doc_freq.insert(interner.resolve(id as u32).to_owned(), count as usize);
            }
        }
        let features = columns
            .iter()
            .flat_map(|c| match c.kind {
                ColKind::Numeric => vec![Feature::RelDiff(c.slot), Feature::Exact(c.slot)],
                ColKind::Text => TEXT_MEASURES
                    .iter()
                    .map(|&m| Feature::Text(m, c.slot))
                    .chain([Feature::TfIdf(c.slot)])
                    .collect(),
            })
            .collect();
        FeatureGenerator {
            columns,
            features,
            tfidf: TfIdfCorpus::from_parts(doc_freq, n_docs),
            interned: Arc::new(Interned {
                interner,
                text,
                numeric,
            }),
        }
    }

    /// Number of features per pair.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Stable feature names (`column.measure`).
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.n_features());
        for c in &self.columns {
            match c.kind {
                ColKind::Numeric => {
                    out.push(format!("{}.rel_diff", c.name));
                    out.push(format!("{}.exact", c.name));
                }
                ColKind::Text => {
                    for m in TEXT_MEASURES {
                        out.push(format!("{}.{}", c.name, m.name()));
                    }
                    out.push(format!("{}.tfidf", c.name));
                }
            }
        }
        out
    }

    /// Feature vector for one record pair — the scalar per-pair path,
    /// evaluating measures on the raw cell strings. The batch kernels
    /// behind [`FeatureGenerator::matrix`] are bit-for-bit identical to
    /// this for every feature; both call the same edit kernels.
    pub fn features(&self, a: &Table, a_row: usize, b: &Table, b_row: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_features());
        for c in &self.columns {
            let va = a.value(a_row, c.a_col);
            let vb = b.value(b_row, c.b_col);
            match c.kind {
                ColKind::Numeric => {
                    let (na, nb) = (parse_num(va), parse_num(vb));
                    out.push(rel_diff_sim(na, nb));
                    out.push(if va == vb && !va.is_empty() { 1.0 } else { 0.0 });
                }
                ColKind::Text => {
                    for m in TEXT_MEASURES {
                        out.push(m.eval(va, vb));
                    }
                    out.push(self.tfidf.cosine(va, vb));
                }
            }
        }
        out
    }

    /// One run of the batch kernel: `feature` of each pair in `pairs`,
    /// pushed to `out` in order, the values
    /// [`FeatureGenerator::features`] puts in that column. The run's
    /// first value is cell `t0`, and `probe` sees each cell's number
    /// before the cell is computed. The feature is matched once for the
    /// whole run, and `scratch` is reused across it.
    fn run_feature(
        &self,
        feature: Feature,
        pairs: &[(usize, usize)],
        t0: usize,
        probe: &impl Fn(usize),
        scratch: &mut SimScratch,
        out: &mut Vec<f64>,
    ) {
        let it = &*self.interned;
        match feature {
            Feature::RelDiff(slot) => {
                let (na, nb) = &it.numeric[slot];
                fill(out, pairs, t0, probe, |ra, rb| {
                    rel_diff_sim(na.value[ra], nb.value[rb])
                })
            }
            Feature::Exact(slot) => {
                let (na, nb) = &it.numeric[slot];
                fill(out, pairs, t0, probe, |ra, rb| {
                    let exact = na.cell[ra] == nb.cell[rb] && !na.empty[ra];
                    if exact {
                        1.0
                    } else {
                        0.0
                    }
                })
            }
            Feature::Text(m, slot) => {
                let (pa, pb) = &it.text[slot];
                fill(out, pairs, t0, probe, |ra, rb| {
                    measure_cells(m, pa, ra, pb, rb, &it.interner, scratch)
                })
            }
            Feature::TfIdf(slot) => {
                let (pa, pb) = &it.text[slot];
                fill(out, pairs, t0, probe, |ra, rb| {
                    tfidf_cosine_cells(pa, ra, pb, rb)
                })
            }
        }
    }

    /// Feature matrix for a batch of pairs, run under `exec`.
    ///
    /// The pool chunks the batch's (feature, pair) cells in
    /// feature-major order. Each chunk gets its cell range and a fresh
    /// scratch, and walks the range one feature at a time: feature `k`
    /// owns cells `k·n..(k + 1)·n`, so the chunk is a run of consecutive
    /// pairs for each feature it touches, and each run matches its
    /// measure once. The column-major result is transposed into the
    /// row-major matrix. The result is bit-for-bit identical for any
    /// worker count, and bit-for-bit the scalar
    /// [`FeatureGenerator::features`] per row.
    ///
    /// Cancellation/budget expiry surfaces as
    /// [`ParOutcome::Interrupted`]. A pair's row is complete only once
    /// its last feature ran, so a cut before the last feature's run
    /// began leaves no complete row. The contract:
    /// - `done` is a row prefix, bit for bit the first rows of the
    ///   complete matrix, and may be empty;
    /// - `total` is the pair count;
    /// - `completed` counts whole pairs' worth of finished cells, and
    ///   `done.rows() <= completed <= total`.
    ///
    /// # Panics
    /// Re-raises a panic that escaped feature evaluation on a worker
    /// (mirroring `WorkerPool::par_map`); use
    /// [`FeatureGenerator::try_matrix`] to handle it as a value.
    pub fn matrix(&self, batch: &PairBatch, exec: &Exec) -> ParOutcome<Matrix> {
        match self.try_matrix(batch, exec) {
            Ok(outcome) => outcome,
            // fairem: allow(panic) — documented # Panics contract: re-raises a contained worker panic (or budget refusal) for callers that did not opt into handling it.
            Err(p) => panic!("feature batch failed: {p}"),
        }
    }

    /// Resident bytes of the feature matrix for `n_pairs` pairs: one
    /// `f64` per feature per pair. This is the deterministic cost model
    /// the memory budget accounts against — declared sizes, never
    /// allocator or OS measurements.
    pub fn matrix_cost(&self, n_pairs: usize) -> u64 {
        (n_pairs as u64) * (self.n_features() as u64) * 8
    }

    /// [`FeatureGenerator::matrix`] with failures returned as values:
    /// contained worker panics as [`MatrixError::Panic`] (its range
    /// numbers cells `k · n + i`, not pairs), and memory budget
    /// refusals as [`MatrixError::Mem`].
    ///
    /// The build declares a transient footprint of twice the matrix
    /// cost (the column-major buffer plus the transposed matrix)
    /// against `exec.mem` before computing anything; the hold is
    /// released when the call returns, so callers that keep the result
    /// resident take their own one-matrix hold.
    pub fn try_matrix(
        &self,
        batch: &PairBatch,
        exec: &Exec,
    ) -> Result<ParOutcome<Matrix>, MatrixError> {
        self.try_matrix_probed(batch, exec, |_| ())
    }

    /// [`FeatureGenerator::try_matrix`], calling `probe(t)` before cell
    /// `t` is evaluated: the seam a test uses to cut the region at a
    /// chosen cell. `try_matrix` passes a no-op, which the per-feature
    /// runs inline away.
    fn try_matrix_probed(
        &self,
        batch: &PairBatch,
        exec: &Exec,
        probe: impl Fn(usize) + Sync,
    ) -> Result<ParOutcome<Matrix>, MatrixError> {
        let _build_hold = exec
            .mem
            .try_hold(2 * self.matrix_cost(batch.len()))
            .map_err(MatrixError::Mem)?;
        exec.recorder.add("features.pairs", batch.len() as u64);
        let d = self.n_features();
        let pairs = batch.pairs;
        let n = pairs.len();
        let outcome = exec
            .pool
            .try_par_chunks_within(d * n, &exec.cancel, |cells, out| {
                let mut scratch = SimScratch::new();
                // Feature `k` owns cells `k·n..(k + 1)·n`: the chunk is a
                // run of each feature it touches, the first one starting
                // at pair `i`, every later one at pair 0.
                let (mut k, mut i) = (cells.start / n, cells.start % n);
                let mut t = cells.start;
                while t < cells.end {
                    let end = n.min(i + (cells.end - t));
                    self.run_feature(
                        self.features[k],
                        &pairs[i..end],
                        t,
                        &probe,
                        &mut scratch,
                        out,
                    );
                    t += end - i;
                    (k, i) = (k + 1, 0);
                }
            })?;
        Ok(match outcome {
            ParOutcome::Complete(cols) => ParOutcome::Complete(transpose(&cols, n, d, n)),
            ParOutcome::Interrupted {
                done,
                completed,
                interrupt,
                ..
            } => ParOutcome::Interrupted {
                // Row `i` is whole once cell `(d - 1) · n + i`, its last
                // feature, is inside the finished prefix.
                done: transpose(&done, n, d, done.len().saturating_sub((d - 1) * n)),
                completed: completed / d,
                total: n,
                interrupt,
            },
        })
    }

    /// Tokenize one pair for the neural matchers over the same aligned
    /// columns (one attribute per column) — the scalar reference for
    /// [`FeatureGenerator::tokenize_all`].
    pub fn tokenize(
        &self,
        a: &Table,
        a_row: usize,
        b: &Table,
        b_row: usize,
        vocab: &HashVocab,
    ) -> TokenPair {
        let left = self
            .columns
            .iter()
            .map(|c| vocab.encode_words(a.value(a_row, c.a_col)))
            .collect();
        let right = self
            .columns
            .iter()
            .map(|c| vocab.encode_words(b.value(b_row, c.b_col)))
            .collect();
        TokenPair { left, right }
    }

    /// Tokenize a batch of pairs from the interned build product: the
    /// vocabulary code of every distinct token is computed once, then
    /// each cell maps its cached token ids through that table — no
    /// re-tokenization of text the interner already processed. Output
    /// is exactly [`FeatureGenerator::tokenize`] per pair.
    pub fn tokenize_all(&self, batch: &PairBatch, vocab: &HashVocab) -> Vec<TokenPair> {
        let it = &*self.interned;
        let codes: Vec<u32> = (0..it.interner.len() as u32)
            .map(|id| vocab.id(it.interner.resolve(id)))
            .collect();
        let cell_words = |c: &AlignedColumn, side: usize, row: usize| match (c.kind, side) {
            (ColKind::Text, 0) => it.text[c.slot].0.raw_words(row),
            (ColKind::Text, _) => it.text[c.slot].1.raw_words(row),
            (ColKind::Numeric, 0) => it.numeric[c.slot].0.words(row),
            (ColKind::Numeric, _) => it.numeric[c.slot].1.words(row),
        };
        batch
            .pairs
            .iter()
            .map(|&(ra, rb)| TokenPair {
                left: self
                    .columns
                    .iter()
                    .map(|c| vocab.encode_interned(cell_words(c, 0, ra), &codes))
                    .collect(),
                right: self
                    .columns
                    .iter()
                    .map(|c| vocab.encode_interned(cell_words(c, 1, rb), &codes))
                    .collect(),
            })
            .collect()
    }
}

fn all_numeric(t: &Table, col: usize) -> bool {
    if t.is_empty() {
        return false;
    }
    (0..t.len()).all(|r| {
        let v = t.value(r, col);
        v.is_empty() || v.parse::<f64>().is_ok()
    })
}

fn parse_num(v: &str) -> f64 {
    v.parse().unwrap_or(f64::NAN)
}

/// Push `cell(ra, rb)` for each pair to `out`, calling `probe(t)` first
/// with the pair's cell number `t`, counted from `t0`.
fn fill(
    out: &mut Vec<f64>,
    pairs: &[(usize, usize)],
    t0: usize,
    probe: &impl Fn(usize),
    mut cell: impl FnMut(usize, usize) -> f64,
) {
    out.extend((t0..).zip(pairs).map(|(t, &(ra, rb))| {
        probe(t);
        cell(ra, rb)
    }));
}

/// The first `rows` rows of the row-major `n × d` matrix whose cells
/// `cols` holds column-major (feature `k` of pair `i` at `k · n + i`).
fn transpose(cols: &[f64], n: usize, d: usize, rows: usize) -> Matrix {
    let mut data = Vec::with_capacity(rows * d);
    for i in 0..rows {
        data.extend((0..d).map(|k| cols[k * n + i]));
    }
    Matrix::from_flat(rows, d, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;
    use fairem_par::{Budget, CancelToken, WorkerPool};

    fn tables() -> (Table, Table) {
        let a = Table::from_csv(
            parse_csv_str("id,name,price,country\na0,li wei,10.0,cn\na1,john smith,22.5,us\n")
                .unwrap(),
        )
        .unwrap();
        let b = Table::from_csv(
            parse_csv_str("id,name,price,country\nb0,wei li,10.0,cn\nb1,jon smyth,44.0,us\n")
                .unwrap(),
        )
        .unwrap();
        (a, b)
    }

    fn all_pairs(a: &Table, b: &Table) -> Vec<(usize, usize)> {
        (0..a.len())
            .flat_map(|ra| (0..b.len()).map(move |rb| (ra, rb)))
            .collect()
    }

    fn complete(outcome: ParOutcome<Matrix>) -> Matrix {
        match outcome {
            ParOutcome::Complete(m) => m,
            ParOutcome::Interrupted { interrupt, .. } => {
                unreachable!("unexpected interrupt: {interrupt}")
            }
        }
    }

    #[test]
    fn aligns_columns_and_excludes_sensitive() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let names = g.names();
        assert!(names.iter().all(|n| !n.starts_with("country")));
        assert!(names.iter().all(|n| !n.starts_with("id")));
        assert!(names.contains(&"name.jw".to_owned()));
        assert!(names.contains(&"price.rel_diff".to_owned()));
        assert_eq!(names.len(), g.n_features());
        // name: 7 features, price: 2 features.
        assert_eq!(g.n_features(), 9);
    }

    #[test]
    fn features_reflect_similarity() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let same_person = g.features(&a, 0, &b, 0); // li wei vs wei li, same price
        let diff_person = g.features(&a, 0, &b, 1);
        // Token-order-insensitive measures should be 1.0 for the flip.
        let names = g.names();
        let jac = names.iter().position(|n| n == "name.jac_w").unwrap();
        assert_eq!(same_person[jac], 1.0);
        assert!(same_person[jac] > diff_person[jac]);
        let rel = names.iter().position(|n| n == "price.rel_diff").unwrap();
        assert_eq!(same_person[rel], 1.0);
        for v in &same_person {
            assert!((0.0..=1.0).contains(v), "{v}");
        }
    }

    #[test]
    fn matrix_stacks_pairs() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let pairs = [(0, 0), (1, 1), (0, 1)];
        let m = complete(g.matrix(&PairBatch::new(&pairs), &Exec::default()));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), g.n_features());
        assert_eq!(m.row(0), g.features(&a, 0, &b, 0).as_slice());
    }

    #[test]
    fn batch_kernels_match_scalar_features_bit_for_bit() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let pairs = all_pairs(&a, &b);
        let m = complete(g.matrix(&PairBatch::new(&pairs), &Exec::default()));
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            let scalar = g.features(&a, ra, &b, rb);
            let batch = m.row(i);
            assert!(
                scalar
                    .iter()
                    .zip(batch)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "pair ({ra},{rb}): scalar {scalar:?} vs batch {batch:?}"
            );
        }
    }

    #[test]
    fn parallel_matrix_is_bitwise_identical_to_sequential() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let pairs = all_pairs(&a, &b);
        let batch = PairBatch::new(&pairs);
        let seq = complete(g.matrix(&batch, &Exec::default()));
        for workers in [1, 4] {
            let exec = Exec::with_pool(WorkerPool::new(workers));
            let par = complete(g.matrix(&batch, &exec));
            assert_eq!(par.rows(), seq.rows());
            for i in 0..seq.rows() {
                let (s, p) = (seq.row(i), par.row(i));
                assert!(
                    s.iter().zip(p).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "row {i} differs with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn budget_expiry_interrupts_the_batch() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let pairs = all_pairs(&a, &b);
        // A zero-step budget trips at the first inter-chunk checkpoint.
        let exec = Exec::sequential().cancel(CancelToken::with_budget(Budget::steps(0)));
        match g.matrix(&PairBatch::new(&pairs), &exec) {
            ParOutcome::Interrupted { done, total, .. } => {
                assert_eq!(total, pairs.len());
                assert!(done.rows() < pairs.len());
            }
            ParOutcome::Complete(_) => panic!("zero budget must interrupt"),
        }
    }

    #[test]
    fn mid_region_cancel_leaves_a_row_prefix_of_the_complete_matrix() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let pairs: Vec<(usize, usize)> = (0..100).flat_map(|_| all_pairs(&a, &b)).collect();
        let batch = PairBatch::new(&pairs);
        let full = complete(g.matrix(&batch, &Exec::default()));
        let (n, d) = (pairs.len(), g.n_features());
        // Cuts inside the first feature's run, inside a middle one, just
        // before the last one and inside it.
        for cut in [0, n / 2, 4 * n + 7, (d - 1) * n - 1, (d - 1) * n + 50] {
            for workers in [1, 4] {
                let exec = Exec::with_pool(WorkerPool::new(workers));
                let outcome = g
                    .try_matrix_probed(&batch, &exec, |t| {
                        if t == cut {
                            exec.cancel.cancel();
                        }
                    })
                    .expect("no panics injected");
                let ctx = format!("cut at cell {cut}, {workers} worker(s)");
                let (done, completed) = match outcome {
                    ParOutcome::Interrupted {
                        done,
                        completed,
                        total,
                        ..
                    } => {
                        assert_eq!(total, n, "{ctx}");
                        (done, completed)
                    }
                    // Every chunk had been pulled when the cut came.
                    ParOutcome::Complete(m) => (m, n),
                };
                assert!(done.rows() <= completed && completed <= n, "{ctx}");
                assert_eq!(done.cols(), d, "{ctx}");
                for i in 0..done.rows() {
                    let (x, y) = (done.row(i), full.row(i));
                    assert!(
                        x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
                        "{ctx}: row {i} differs from the complete matrix"
                    );
                }
                if workers == 1 {
                    // One worker finishes the cut chunk and stops: the
                    // prefix ends at that chunk's end, and only the
                    // part of it past the last feature's start is rows.
                    let chunk = exec.pool.chunk_for(d * n);
                    let end = ((cut / chunk + 1) * chunk).min(d * n);
                    assert_eq!(completed, end / d, "{ctx}");
                    assert_eq!(done.rows(), end.saturating_sub((d - 1) * n), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn tokenize_covers_aligned_columns() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let vocab = HashVocab::new(128);
        let tp = g.tokenize(&a, 0, &b, 0, &vocab);
        assert_eq!(tp.n_attrs(), 2); // name + price
        assert_eq!(tp.left[0].len(), 2); // li, wei
    }

    #[test]
    fn interned_tokenize_all_matches_per_pair_tokenize() {
        let (a, b) = tables();
        let g = FeatureGenerator::build(&a, &b, &["country"]);
        let vocab = HashVocab::new(128);
        let pairs = all_pairs(&a, &b);
        let batch = g.tokenize_all(&PairBatch::new(&pairs), &vocab);
        assert_eq!(batch.len(), pairs.len());
        for (tp, &(ra, rb)) in batch.iter().zip(&pairs) {
            let scalar = g.tokenize(&a, ra, &b, rb, &vocab);
            assert_eq!(tp.left, scalar.left, "pair ({ra},{rb}) left");
            assert_eq!(tp.right, scalar.right, "pair ({ra},{rb}) right");
        }
    }

    #[test]
    fn empty_cells_tokenize_to_the_empty_marker() {
        let a = Table::from_csv(parse_csv_str("id,name\na0,\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,name\nb0,smith\n").unwrap()).unwrap();
        let g = FeatureGenerator::build(&a, &b, &[]);
        let vocab = HashVocab::new(64);
        let tps = g.tokenize_all(&PairBatch::new(&[(0, 0)]), &vocab);
        assert_eq!(tps[0].left[0], vec![0], "empty cell gets the marker");
        assert_eq!(tps[0].right[0], vec![vocab.id("smith")]);
    }

    #[test]
    fn empty_numeric_values_yield_zero_similarity() {
        let a = Table::from_csv(parse_csv_str("id,v\na0,\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,v\nb0,3.5\n").unwrap()).unwrap();
        let g = FeatureGenerator::build(&a, &b, &[]);
        let f = g.features(&a, 0, &b, 0);
        assert_eq!(f[0], 0.0); // NaN rel-diff → 0 via rel_diff_sim
        assert_eq!(f[1], 0.0); // not exact
        let m = complete(g.matrix(&PairBatch::new(&[(0, 0)]), &Exec::default()));
        assert_eq!(m.row(0)[0].to_bits(), f[0].to_bits());
        assert_eq!(m.row(0)[1].to_bits(), f[1].to_bits());
    }

    #[test]
    #[should_panic(expected = "no alignable")]
    fn disjoint_schemas_panic() {
        let a = Table::from_csv(parse_csv_str("id,x\na0,1\n").unwrap()).unwrap();
        let b = Table::from_csv(parse_csv_str("id,y\nb0,2\n").unwrap()).unwrap();
        let _ = FeatureGenerator::build(&a, &b, &[]);
    }
}
