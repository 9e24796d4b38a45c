//! Columnar cell preparation: normalize and tokenize every cell of a
//! text column **once**, then evaluate similarity measures over cached
//! `u32` token-id slices.
//!
//! A [`PreparedColumn`] is a struct-of-arrays over the cells of one
//! aligned column side: flattened normalized chars, word-token ids in
//! occurrence order, id-sorted `(id, count)` multisets, padded-3-gram
//! id sets, raw-string word ids (the TF-IDF / neural tokenization
//! source), and — after corpus statistics are known — per-cell TF-IDF
//! `(rank, weight)` vectors with cached norms.
//!
//! Every kernel here reproduces the corresponding scalar measure **bit
//! for bit**: edit kernels are the very functions the scalar path
//! calls (see `edit.rs`), so the scalar path is no independent check
//! of them — `tests/kernel_oracle.rs` pins both to the textbook DP and
//! flag-scan references. Set kernels compute the same integer
//! cardinalities and exact-integer float sums the `HashMap`-based
//! scalar code computes (order-independent because every addend and
//! partial sum is an exactly-representable integer), and the TF-IDF
//! kernel merges in interner *rank* order, which is order-isomorphic
//! to the scalar path's token-string sort.

use crate::edit::{
    jaro_winkler_chars_with, normalized_levenshtein_chars_with, SimScratch,
};
use crate::intern::TokenInterner;
use crate::normalize::normalize;
use crate::tokenize::{qgrams, word_tokens};
use crate::StringMeasure;

/// One text column side, fully tokenized and interned.
#[derive(Debug, Default, Clone)]
pub struct PreparedColumn {
    // normalize(cell) as flattened chars.
    norm_chars: Vec<char>,
    norm_off: Vec<u32>,
    // word_tokens(normalize(cell)) ids, occurrence order (Monge-Elkan
    // iterates tokens in order; duplicates included).
    words: Vec<u32>,
    words_off: Vec<u32>,
    // Distinct word ids of the cell sorted by id, with multiplicities
    // (Jaccard needs cardinalities, cosine needs counts).
    wc_ids: Vec<u32>,
    wc_counts: Vec<u32>,
    wc_off: Vec<u32>,
    // Distinct padded-3-gram ids sorted by id.
    qset: Vec<u32>,
    qset_off: Vec<u32>,
    // word_tokens(cell) ids — tokens of the *raw* string, occurrence
    // order. TF-IDF and the neural vocab tokenize raw values, and raw
    // tokenization can genuinely differ from normalized tokenization
    // (lowercasing can emit combining marks that re-segment words).
    raw_words: Vec<u32>,
    raw_off: Vec<u32>,
    // Distinct raw-word ids sorted by id, with counts (document
    // frequency source and TF vector source).
    rawc_ids: Vec<u32>,
    rawc_counts: Vec<u32>,
    rawc_off: Vec<u32>,
    // TF-IDF vector per cell: (string-rank, count * idf) sorted by
    // rank, plus the cached vector norm. Filled by `finish_tfidf`.
    tf_ranks: Vec<u32>,
    tf_weights: Vec<f64>,
    tf_off: Vec<u32>,
    tf_norms: Vec<f64>,
}

impl PreparedColumn {
    /// Tokenize and intern every cell of one column side. TF-IDF
    /// vectors are *not* ready yet — call
    /// [`PreparedColumn::finish_tfidf`] once corpus document
    /// frequencies are accumulated across all prepared columns.
    pub fn prepare<'a>(
        cells: impl Iterator<Item = &'a str>,
        interner: &mut TokenInterner,
    ) -> PreparedColumn {
        let mut col = PreparedColumn {
            norm_off: vec![0],
            words_off: vec![0],
            wc_off: vec![0],
            qset_off: vec![0],
            raw_off: vec![0],
            rawc_off: vec![0],
            tf_off: vec![0],
            ..PreparedColumn::default()
        };
        let mut ids: Vec<u32> = Vec::new();
        for cell in cells {
            let norm = normalize(cell);
            col.norm_chars.extend(norm.chars());
            col.norm_off.push(col.norm_chars.len() as u32);

            let cell_words_start = col.words.len();
            for tok in word_tokens(&norm) {
                col.words.push(interner.intern(&tok));
            }
            col.words_off.push(col.words.len() as u32);

            ids.clear();
            ids.extend_from_slice(&col.words[cell_words_start..]);
            ids.sort_unstable();
            push_run_lengths(&ids, &mut col.wc_ids, &mut col.wc_counts);
            col.wc_off.push(col.wc_ids.len() as u32);

            ids.clear();
            for gram in qgrams(&norm, 3) {
                ids.push(interner.intern(&gram));
            }
            ids.sort_unstable();
            ids.dedup();
            col.qset.extend_from_slice(&ids);
            col.qset_off.push(col.qset.len() as u32);

            let cell_raw_start = col.raw_words.len();
            for tok in word_tokens(cell) {
                col.raw_words.push(interner.intern(&tok));
            }
            col.raw_off.push(col.raw_words.len() as u32);

            ids.clear();
            ids.extend_from_slice(&col.raw_words[cell_raw_start..]);
            ids.sort_unstable();
            push_run_lengths(&ids, &mut col.rawc_ids, &mut col.rawc_counts);
            col.rawc_off.push(col.rawc_ids.len() as u32);
        }
        col
    }

    /// Number of cells in this column side.
    pub fn len(&self) -> usize {
        self.norm_off.len() - 1
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `normalize(cell)` as a char slice.
    pub fn norm_chars(&self, cell: usize) -> &[char] {
        slice_of(&self.norm_chars, &self.norm_off, cell)
    }

    /// Word-token ids of the normalized cell, occurrence order.
    pub fn words(&self, cell: usize) -> &[u32] {
        slice_of(&self.words, &self.words_off, cell)
    }

    /// Distinct word ids (sorted) and their counts for the cell.
    pub fn word_counts(&self, cell: usize) -> (&[u32], &[u32]) {
        let lo = self.wc_off[cell] as usize;
        let hi = self.wc_off[cell + 1] as usize;
        (&self.wc_ids[lo..hi], &self.wc_counts[lo..hi])
    }

    /// Distinct padded-3-gram ids of the normalized cell, sorted.
    pub fn qgram_set(&self, cell: usize) -> &[u32] {
        slice_of(&self.qset, &self.qset_off, cell)
    }

    /// Word-token ids of the **raw** cell string, occurrence order.
    pub fn raw_words(&self, cell: usize) -> &[u32] {
        slice_of(&self.raw_words, &self.raw_off, cell)
    }

    /// Distinct raw-word ids (sorted) and their counts for the cell.
    pub fn raw_counts(&self, cell: usize) -> (&[u32], &[u32]) {
        let lo = self.rawc_off[cell] as usize;
        let hi = self.rawc_off[cell + 1] as usize;
        (&self.rawc_ids[lo..hi], &self.rawc_counts[lo..hi])
    }

    /// Increment `df[id]` once per cell containing token `id` (over raw
    /// words — the TF-IDF document unit), growing `df` as needed.
    /// Returns the number of documents (cells) accumulated.
    pub fn accumulate_doc_freq(&self, df: &mut Vec<u32>) -> usize {
        for cell in 0..self.len() {
            let (ids, _) = self.raw_counts(cell);
            for &id in ids {
                if df.len() <= id as usize {
                    df.resize(id as usize + 1, 0);
                }
                df[id as usize] += 1;
            }
        }
        self.len()
    }

    /// Compute the per-cell TF-IDF vectors and norms from corpus
    /// statistics: `df[id]` document frequencies, the total document
    /// count, and the interner's [`TokenInterner::string_ranks`].
    ///
    /// Weight math is exactly the scalar path's: `count * idf` with
    /// `idf = ln((1 + n_docs) / (1 + df)) + 1`, and the norm is the
    /// sum of squared weights accumulated in rank (= token-string)
    /// order before the square root.
    pub fn finish_tfidf(&mut self, df: &[u32], n_docs: usize, rank: &[u32]) {
        self.tf_ranks.clear();
        self.tf_weights.clear();
        self.tf_norms.clear();
        self.tf_off.clear();
        self.tf_off.push(0);
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for cell in 0..self.len() {
            let (ids, counts) = self.raw_counts(cell);
            entries.clear();
            for (&id, &count) in ids.iter().zip(counts) {
                let d = df.get(id as usize).copied().unwrap_or(0);
                let idf = ((1.0 + n_docs as f64) / (1.0 + d as f64)).ln() + 1.0;
                entries.push((rank[id as usize], count as f64 * idf));
            }
            entries.sort_unstable_by_key(|&(r, _)| r);
            let norm = entries
                .iter()
                .map(|&(_, w)| w * w)
                .sum::<f64>()
                .sqrt();
            for &(r, w) in &entries {
                self.tf_ranks.push(r);
                self.tf_weights.push(w);
            }
            self.tf_off.push(self.tf_ranks.len() as u32);
            self.tf_norms.push(norm);
        }
    }

    /// The cell's TF-IDF vector: ranks (ascending) and weights.
    /// Empty until [`PreparedColumn::finish_tfidf`] ran.
    pub fn tfidf(&self, cell: usize) -> (&[u32], &[f64]) {
        let lo = self.tf_off[cell] as usize;
        let hi = self.tf_off[cell + 1] as usize;
        (&self.tf_ranks[lo..hi], &self.tf_weights[lo..hi])
    }

    /// The cached TF-IDF vector norm of the cell.
    pub fn tfidf_norm(&self, cell: usize) -> f64 {
        self.tf_norms[cell]
    }
}

fn slice_of<'a, T>(data: &'a [T], off: &[u32], cell: usize) -> &'a [T] {
    &data[off[cell] as usize..off[cell + 1] as usize]
}

/// Run-length encode a sorted id slice into parallel (id, count) vecs.
fn push_run_lengths(sorted: &[u32], ids: &mut Vec<u32>, counts: &mut Vec<u32>) {
    let mut i = 0;
    while i < sorted.len() {
        let id = sorted[i];
        let mut n = 1u32;
        while i + (n as usize) < sorted.len() && sorted[i + n as usize] == id {
            n += 1;
        }
        ids.push(id);
        counts.push(n);
        i += n as usize;
    }
}

/// Intersection cardinality of two sorted-unique id slices.
fn sorted_intersect_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard over sorted-unique id sets, with the scalar empty-set
/// conventions (both empty → 1.0).
fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersect_size(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine over (id, count) multiset vectors. `a_empty`/`b_empty` are
/// the *occurrence-list* empties (matching the scalar token-slice
/// checks). Exact-integer sums make the result order-independent, so
/// the merge order here reproduces the HashMap-order scalar sums bit
/// for bit.
fn cosine_counts(
    a: (&[u32], &[u32]),
    b: (&[u32], &[u32]),
    a_empty: bool,
    b_empty: bool,
) -> f64 {
    if a_empty && b_empty {
        return 1.0;
    }
    if a_empty || b_empty {
        return 0.0;
    }
    let (aid, an) = a;
    let (bid, bn) = b;
    // std's `Iterator::sum::<f64>()` folds from -0.0; the scalar path
    // sums the dot product that way, so a no-overlap pair yields -0.0
    // (which clamp keeps). Start from the same identity to stay
    // bit-for-bit.
    let mut dot = -0.0_f64;
    let (mut i, mut j) = (0, 0);
    while i < aid.len() && j < bid.len() {
        match aid[i].cmp(&bid[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += (an[i] as u64 * bn[j] as u64) as f64;
                i += 1;
                j += 1;
            }
        }
    }
    let na = an
        .iter()
        .map(|&v| (v as u64 * v as u64) as f64)
        .sum::<f64>()
        .sqrt();
    let nb = bn
        .iter()
        .map(|&v| (v as u64 * v as u64) as f64)
        .sum::<f64>()
        .sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Slots of the Monge-Elkan Jaro-Winkler memo: 2^16 slots of 16 bytes,
/// 1 MiB per scratch, allocated on first use.
const MEMO_SLOTS: usize = 1 << 16;

/// A direct-mapped Jaro-Winkler cache keyed by the ordered token-id
/// pair `(x << 32) | y`.
///
/// Each key has exactly one slot; a colliding key overwrites it, which
/// only costs a recomputation later, since every cached value is a
/// pure function of its key. An empty slot holds key 0, the pair
/// `(0, 0)`, which is never looked up: equal ids short-circuit to 1.0
/// before the memo is consulted.
#[derive(Debug, Default, Clone)]
pub(crate) struct JwMemo {
    slots: Vec<(u64, f64)>,
}

impl JwMemo {
    /// The cached value of `key`, or `compute()` stored under it.
    /// `key` must not be 0 (the empty-slot sentinel).
    fn get_or(&mut self, key: u64, compute: impl FnOnce() -> f64) -> f64 {
        if self.slots.is_empty() {
            self.slots = vec![(0, 0.0); MEMO_SLOTS];
        }
        // Fibonacci hashing: the top bits of key * 2^64/phi.
        let at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros()))
            as usize;
        let slot = &mut self.slots[at];
        if slot.0 != key {
            *slot = (key, compute());
        }
        slot.1
    }
}

/// Monge-Elkan (Jaro-Winkler inner) over occurrence-order token ids,
/// resolving each token's chars through the interner cache. Token
/// iteration order and the `fold(0.0, max)` inner reduction replicate
/// the scalar `monge_elkan(..., jaro_winkler)` exactly.
///
/// Word tokens repeat heavily across cells, so the inner Jaro-Winkler
/// is memoized in the scratch by id pair ([`JwMemo`]). Two
/// bitwise-invisible shortcuts: equal ids score exactly 1.0 (identical
/// inputs compute to exactly 1.0), and a row stops scanning once it
/// hits 1.0 (no later candidate can raise a max already at the
/// kernel's upper bound).
fn monge_elkan_ids(
    a: &[u32],
    b: &[u32],
    interner: &TokenInterner,
    scratch: &mut SimScratch,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // The memo and the edit buffers live in the same scratch; split
    // them so the closure can borrow both mutably.
    let mut memo = std::mem::take(&mut scratch.jw_memo);
    let mut one_way = |xs: &[u32], ys: &[u32]| -> f64 {
        // -0.0 is std's f64 sum identity (see cosine_counts).
        let mut total = -0.0_f64;
        for &x in xs {
            let cx = interner.chars_of(x);
            let mut best = 0.0_f64;
            for &y in ys {
                let sim = if x == y {
                    1.0
                } else {
                    memo.get_or((u64::from(x) << 32) | u64::from(y), || {
                        jaro_winkler_chars_with(cx, interner.chars_of(y), scratch)
                    })
                };
                best = best.max(sim);
                if best >= 1.0 {
                    break;
                }
            }
            total += best;
        }
        total / xs.len() as f64
    };
    let sim = one_way(a, b).max(one_way(b, a)).clamp(0.0, 1.0);
    scratch.jw_memo = memo;
    sim
}

/// TF-IDF cosine between two prepared cells, using the cached
/// rank-sorted weight vectors and norms. Bit-for-bit the scalar
/// `TfIdfCorpus::cosine` on the same raw strings.
pub fn tfidf_cosine_cells(ca: &PreparedColumn, i: usize, cb: &PreparedColumn, j: usize) -> f64 {
    let a_empty = ca.raw_words(i).is_empty();
    let b_empty = cb.raw_words(j).is_empty();
    if a_empty && b_empty {
        return 1.0;
    }
    if a_empty || b_empty {
        return 0.0;
    }
    let (ra, wa) = ca.tfidf(i);
    let (rb, wb) = cb.tfidf(j);
    let mut dot = 0.0_f64;
    let (mut x, mut y) = (0, 0);
    while x < ra.len() && y < rb.len() {
        match ra[x].cmp(&rb[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                dot += wa[x] * wb[y];
                x += 1;
                y += 1;
            }
        }
    }
    let na = ca.tfidf_norm(i);
    let nb = cb.tfidf_norm(j);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Evaluate `measure` between two prepared cells. Bit-for-bit the
/// scalar `measure.eval(raw_a, raw_b)` on the original cell strings.
///
/// The feature battery's hot measures run on cached slices; the
/// remaining measures (not used by the batch feature path) take a cold
/// fallback that materializes the normalized strings — correct, just
/// not cached.
pub fn measure_cells(
    measure: StringMeasure,
    ca: &PreparedColumn,
    i: usize,
    cb: &PreparedColumn,
    j: usize,
    interner: &TokenInterner,
    scratch: &mut SimScratch,
) -> f64 {
    match measure {
        StringMeasure::Levenshtein => {
            normalized_levenshtein_chars_with(ca.norm_chars(i), cb.norm_chars(j), scratch)
        }
        StringMeasure::JaroWinkler => {
            jaro_winkler_chars_with(ca.norm_chars(i), cb.norm_chars(j), scratch)
        }
        StringMeasure::JaccardWords => {
            // Occurrence-list emptiness coincides with distinct-set
            // emptiness, so the scalar empty conventions carry over.
            jaccard_sorted(ca.word_counts(i).0, cb.word_counts(j).0)
        }
        StringMeasure::JaccardQgrams => jaccard_sorted(ca.qgram_set(i), cb.qgram_set(j)),
        StringMeasure::CosineWords => cosine_counts(
            ca.word_counts(i),
            cb.word_counts(j),
            ca.words(i).is_empty(),
            cb.words(j).is_empty(),
        ),
        StringMeasure::MongeElkan => monge_elkan_ids(ca.words(i), cb.words(j), interner, scratch),
        other => {
            // Cold path: not part of the batch feature battery.
            let sa: String = ca.norm_chars(i).iter().collect();
            let sb: String = cb.norm_chars(j).iter().collect();
            other.eval_normalized(&sa, &sb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::TfIdfCorpusBuilder;

    /// Cell fixtures that exercise the nasty corners: empty cells,
    /// whitespace-only, duplicates, punctuation, unicode case folding
    /// that changes segmentation (İ lowercases to i + combining dot,
    /// which is *not* alphanumeric and re-splits word tokens), and
    /// multi-char case expansion (ẞ → ß is 1:1 but İ is 1:2).
    fn cells_a() -> Vec<&'static str> {
        vec![
            "John  Smith",
            "",
            "   ",
            "İstanbul Üniversitesi",
            "a a b",
            "O'Brien-Smith, J.",
            "data base systems",
            "MÜLLER",
            "x",
        ]
    }

    fn cells_b() -> Vec<&'static str> {
        vec![
            "Jon Smyth",
            "",
            "istanbul universitesi",
            "İstanbul Üniversitesi",
            "a b b",
            "obrien smith j",
            "database systems",
            "muller",
            "",
        ]
    }

    struct Fixture {
        interner: TokenInterner,
        col_a: PreparedColumn,
        col_b: PreparedColumn,
        corpus: crate::tfidf::TfIdfCorpus,
    }

    fn fixture() -> Fixture {
        let mut interner = TokenInterner::new();
        let mut col_a = PreparedColumn::prepare(cells_a().into_iter(), &mut interner);
        let mut col_b = PreparedColumn::prepare(cells_b().into_iter(), &mut interner);
        let mut df = Vec::new();
        let mut n_docs = 0;
        n_docs += col_a.accumulate_doc_freq(&mut df);
        n_docs += col_b.accumulate_doc_freq(&mut df);
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        col_a.finish_tfidf(&df, n_docs, &rank);
        col_b.finish_tfidf(&df, n_docs, &rank);
        let mut builder = TfIdfCorpusBuilder::new();
        for c in cells_a().iter().chain(cells_b().iter()) {
            builder.add_document(c);
        }
        Fixture {
            interner,
            col_a,
            col_b,
            corpus: builder.build(),
        }
    }

    #[test]
    fn every_measure_matches_scalar_bit_for_bit() {
        let f = fixture();
        let a = cells_a();
        let b = cells_b();
        let mut scratch = SimScratch::new();
        for m in StringMeasure::ALL {
            for (i, ra) in a.iter().enumerate() {
                for (j, rb) in b.iter().enumerate() {
                    let scalar = m.eval(ra, rb);
                    let batch =
                        measure_cells(m, &f.col_a, i, &f.col_b, j, &f.interner, &mut scratch);
                    assert_eq!(
                        batch.to_bits(),
                        scalar.to_bits(),
                        "{m} on {ra:?} vs {rb:?}: batch={batch} scalar={scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn tfidf_cosine_matches_scalar_bit_for_bit() {
        let f = fixture();
        let a = cells_a();
        let b = cells_b();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                let scalar = f.corpus.cosine(ra, rb);
                let batch = tfidf_cosine_cells(&f.col_a, i, &f.col_b, j);
                assert_eq!(
                    batch.to_bits(),
                    scalar.to_bits(),
                    "tfidf on {ra:?} vs {rb:?}: batch={batch} scalar={scalar}"
                );
            }
        }
    }

    #[test]
    fn unicode_case_folding_splits_raw_and_norm_tokens_differently() {
        // "İx" raw-tokenizes to one token ("i\u{307}x": the combining
        // mark arrives *inside* an alphanumeric run), but its
        // normalized form "i\u{307}x" re-tokenizes as ["i", "x"]
        // because U+0307 is not alphanumeric. The prepared column must
        // keep both views.
        let mut interner = TokenInterner::new();
        let col = PreparedColumn::prepare(["İx"].into_iter(), &mut interner);
        let raw: Vec<&str> = col
            .raw_words(0)
            .iter()
            .map(|&id| interner.resolve(id))
            .collect();
        let norm: Vec<&str> = col
            .words(0)
            .iter()
            .map(|&id| interner.resolve(id))
            .collect();
        assert_eq!(raw, vec!["i\u{307}x"]);
        assert_eq!(norm, vec!["i", "x"]);
        assert_eq!(raw, word_tokens("İx"));
        assert_eq!(norm, word_tokens(&normalize("İx")));
    }

    #[test]
    fn empty_and_blank_cells_prepare_cleanly() {
        let mut interner = TokenInterner::new();
        let mut col = PreparedColumn::prepare(["", "  \t ", "x"].into_iter(), &mut interner);
        assert_eq!(col.len(), 3);
        for cell in [0, 1] {
            assert!(col.norm_chars(cell).is_empty());
            assert!(col.words(cell).is_empty());
            assert!(col.qgram_set(cell).is_empty());
            assert!(col.raw_words(cell).is_empty());
        }
        assert_eq!(col.norm_chars(2), ['x']);
        let mut df = Vec::new();
        let n = col.accumulate_doc_freq(&mut df);
        df.resize(interner.len(), 0);
        col.finish_tfidf(&df, n, &interner.string_ranks());
        assert!(col.tfidf(0).0.is_empty());
        assert_eq!(col.tfidf_norm(0), 0.0);
        assert!(col.tfidf_norm(2) > 0.0);
    }

    #[test]
    fn qgram_sets_match_scalar_qgrams() {
        let mut interner = TokenInterner::new();
        let inputs = ["ab", "", "a", "hello world"];
        let col = PreparedColumn::prepare(inputs.into_iter(), &mut interner);
        for (cell, s) in inputs.iter().enumerate() {
            let mut expected = qgrams(&normalize(s), 3);
            expected.sort_unstable();
            expected.dedup();
            let mut got: Vec<String> = col
                .qgram_set(cell)
                .iter()
                .map(|&id| interner.resolve(id).to_owned())
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "cell {cell}: {s:?}");
        }
    }

    #[test]
    fn doc_freq_matches_corpus_builder() {
        let f = fixture();
        let mut df = Vec::new();
        let mut n = 0;
        n += f.col_a.accumulate_doc_freq(&mut df);
        n += f.col_b.accumulate_doc_freq(&mut df);
        assert_eq!(n, f.corpus.n_docs());
        df.resize(f.interner.len(), 0);
        // Spot-check idf equality through a shared token.
        for tok in ["smith", "systems", "a", "istanbul"] {
            let id = f.interner.get(tok).expect("token must be interned");
            let idf_cols =
                ((1.0 + n as f64) / (1.0 + df[id as usize] as f64)).ln() + 1.0;
            assert_eq!(idf_cols.to_bits(), f.corpus.idf(tok).to_bits(), "{tok}");
        }
    }
}
