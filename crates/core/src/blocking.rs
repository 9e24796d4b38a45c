//! Candidate-pair generation (blocking).
//!
//! Comparing every A×B pair is quadratic; blocking restricts candidates
//! to pairs that share evidence. Two standard schemes are provided:
//! token blocking (share any word token in the blocking columns) and
//! sorted-neighborhood (windowed scan over a sort key). Both are also
//! available behind the [`Blocker`] trait, so the suite pipeline (and
//! anything else) can select a scheme at configuration time
//! (`SuiteBuilder::blocker`).
//!
//! Token blocking runs as an interned batch kernel: every token is
//! mapped to a dense `u32` id once (`TokenInterner`), per-row dedup
//! uses a stamp array instead of a per-row hash set, and emission fans
//! out over the [`Exec`] pool row-major, in chunks of A rows. Each A
//! row collects the B rows of its eligible tokens once (a stamp array
//! over B rows) and sorts that short list, so the rows concatenate
//! into a list that is sorted and duplicate-free by construction: no
//! token's cross-product is materialized and no global sort runs. The
//! test module's `naive_token_blocking`, the string-keyed
//! cross-product-then-sort formulation, is the reference the kernel
//! must reproduce exactly.

use std::collections::HashSet;

use fairem_text::{word_tokens, TokenInterner};

use crate::exec::Exec;
use crate::schema::Table;

/// Candidate pairs as `(a_row, b_row)` indices.
pub type CandidatePairs = Vec<(usize, usize)>;

/// A candidate-generation scheme, selectable at configuration time.
///
/// Implementations must be deterministic pure functions of the two
/// tables: the returned pair list is sorted and duplicate-free, and
/// identical for every `exec` (the pool only changes wall-clock time).
pub trait Blocker: std::fmt::Debug + Send + Sync {
    /// A short stable name for reports and spans.
    fn name(&self) -> &'static str;

    /// Generate the candidate pairs for `a` × `b` under `exec`.
    fn candidates(&self, a: &Table, b: &Table, exec: &Exec) -> CandidatePairs;
}

/// [`Blocker`] wrapper over [`token_blocking`].
#[derive(Debug, Clone)]
pub struct TokenBlocking {
    /// Columns whose word tokens link records.
    pub columns: Vec<String>,
    /// Stop-token guard: blocks larger than this are skipped.
    pub max_block: usize,
}

impl Blocker for TokenBlocking {
    fn name(&self) -> &'static str {
        "token"
    }

    fn candidates(&self, a: &Table, b: &Table, exec: &Exec) -> CandidatePairs {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        token_blocking_exec(a, b, &cols, self.max_block, exec)
    }
}

/// [`Blocker`] wrapper over [`sorted_neighborhood`].
#[derive(Debug, Clone)]
pub struct SortedNeighborhood {
    /// The sort-key column (must exist in both tables).
    pub key_column: String,
    /// Sliding-window size over the merged sorted records.
    pub window: usize,
}

impl Blocker for SortedNeighborhood {
    fn name(&self) -> &'static str {
        "sorted"
    }

    fn candidates(&self, a: &Table, b: &Table, _exec: &Exec) -> CandidatePairs {
        // Sort-bound: the merged key sort dominates, so there is no
        // profitable fan-out stage; the pool is deliberately unused.
        sorted_neighborhood(a, b, &self.key_column, self.window)
    }
}

/// Token blocking: a pair is a candidate when the two records share at
/// least one word token across the given columns (column names must
/// exist in the respective table). Blocks larger than `max_block` are
/// skipped as non-discriminative (stop-token guard).
pub fn token_blocking(a: &Table, b: &Table, columns: &[&str], max_block: usize) -> CandidatePairs {
    token_blocking_exec(a, b, columns, max_block, &Exec::sequential())
}

/// One side's token index over interned ids.
struct SideIndex {
    /// `rows_of[id]`: the rows containing token `id` (increasing,
    /// duplicate-free).
    rows_of: Vec<Vec<u32>>,
    /// Row `r`'s distinct token ids, first occurrence first, are
    /// `tokens[row_off[r]..row_off[r + 1]]`.
    tokens: Vec<u32>,
    row_off: Vec<usize>,
}

impl SideIndex {
    fn build(t: &Table, columns: &[&str], interner: &mut TokenInterner) -> SideIndex {
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                t.column_index(c)
                    // fairem: allow(panic) — documented contract: blocking columns come from validated config
                    .unwrap_or_else(|| panic!("blocking column {c:?} missing"))
            })
            .collect();
        let mut index = SideIndex {
            rows_of: vec![Vec::new(); interner.len()],
            tokens: Vec::new(),
            row_off: vec![0],
        };
        // Per-row token dedup via a stamp array over token ids (`row + 1`
        // marks "seen in this row"; 0 is never a stamp).
        let mut stamp: Vec<u32> = vec![0; interner.len()];
        for row in 0..t.len() {
            for &c in &cols {
                for tok in word_tokens(t.value(row, c)) {
                    let id = interner.intern(&tok);
                    let at = id as usize;
                    if index.rows_of.len() <= at {
                        index.rows_of.resize(at + 1, Vec::new());
                        stamp.resize(at + 1, 0);
                    }
                    if stamp[at] != row as u32 + 1 {
                        stamp[at] = row as u32 + 1;
                        index.rows_of[at].push(row as u32);
                        index.tokens.push(id);
                    }
                }
            }
            index.row_off.push(index.tokens.len());
        }
        index
    }

    fn tokens_of(&self, row: usize) -> &[u32] {
        &self.tokens[self.row_off[row]..self.row_off[row + 1]]
    }
}

/// The interned token-blocking kernel behind [`token_blocking`] and
/// [`TokenBlocking`]: index both sides over one interner, mark the
/// token ids passing the stop-token guard, then emit row-major over the
/// pool. Each A row unions the B rows of its eligible tokens through
/// its chunk's stamp array over B rows and sorts that short list, so
/// the rows concatenate, in row order, into the sorted duplicate-free
/// candidate list — identical for every worker count, with no
/// cross-product ever materialized.
fn token_blocking_exec(
    a: &Table,
    b: &Table,
    columns: &[&str],
    max_block: usize,
    exec: &Exec,
) -> CandidatePairs {
    assert!(!columns.is_empty(), "blocking needs at least one column");
    let mut interner = TokenInterner::new();
    let ia = SideIndex::build(a, columns, &mut interner);
    let ib = SideIndex::build(b, columns, &mut interner);
    // Saturating: a guard of 2^32 or more admits every block rather
    // than wrapping to a tiny bound.
    let max_pairs = max_block.saturating_mul(max_block);
    let eligible: Vec<bool> = ia
        .rows_of
        .iter()
        .enumerate()
        .map(|(id, rows_a)| {
            ib.rows_of.get(id).is_some_and(|rows_b| {
                !rows_a.is_empty()
                    && !rows_b.is_empty()
                    && rows_a.len().saturating_mul(rows_b.len()) <= max_pairs
            })
        })
        .collect();
    exec.recorder.add(
        "blocking.tokens",
        eligible.iter().filter(|&&e| e).count() as u64,
    );
    // Chunks of A rows, about four per worker. Each chunk owns a stamp
    // per B row (`a_row + 1` marks "already linked to this A row"; 0 is
    // never a stamp).
    let rows_per_chunk = a.len().div_ceil(4 * exec.pool.workers()).max(1);
    let chunks = exec.pool.par_map(a.len().div_ceil(rows_per_chunk), |k| {
        let mut stamp = vec![0u32; b.len()];
        let mut linked: Vec<u32> = Vec::new();
        let rows = k * rows_per_chunk..((k + 1) * rows_per_chunk).min(a.len());
        rows.map(|ra| {
            linked.clear();
            for &id in ia.tokens_of(ra) {
                if !eligible[id as usize] {
                    continue;
                }
                for &rb in &ib.rows_of[id as usize] {
                    if stamp[rb as usize] != ra as u32 + 1 {
                        stamp[rb as usize] = ra as u32 + 1;
                        linked.push(rb);
                    }
                }
            }
            linked.sort_unstable();
            linked.to_vec()
        })
        .collect::<Vec<Vec<u32>>>()
    });
    let per_row: Vec<Vec<u32>> = chunks.into_iter().flatten().collect();
    let mut out = Vec::with_capacity(per_row.iter().map(Vec::len).sum());
    for (ra, linked) in per_row.iter().enumerate() {
        out.extend(linked.iter().map(|&rb| (ra, rb as usize)));
    }
    out
}

/// Sorted-neighborhood blocking: both tables are sorted by a key column,
/// merged, and every A-B pair within a sliding window of size `window`
/// becomes a candidate.
pub fn sorted_neighborhood(
    a: &Table,
    b: &Table,
    key_column: &str,
    window: usize,
) -> CandidatePairs {
    assert!(window >= 2, "window must be at least 2");
    let ka = a
        .column_index(key_column)
        // fairem: allow(panic) — documented contract: key column comes from validated config
        .unwrap_or_else(|| panic!("key column {key_column:?} missing in A"));
    let kb = b
        .column_index(key_column)
        // fairem: allow(panic) — documented contract: key column comes from validated config
        .unwrap_or_else(|| panic!("key column {key_column:?} missing in B"));
    // Merge records of both sides tagged with origin.
    let mut merged: Vec<(String, bool, usize)> = Vec::with_capacity(a.len() + b.len());
    for row in 0..a.len() {
        merged.push((a.value(row, ka).to_lowercase(), false, row));
    }
    for row in 0..b.len() {
        merged.push((b.value(row, kb).to_lowercase(), true, row));
    }
    merged.sort();
    let mut out: CandidatePairs = Vec::new();
    for i in 0..merged.len() {
        let end = (i + window).min(merged.len());
        for j in (i + 1)..end {
            match (&merged[i], &merged[j]) {
                ((_, false, ra), (_, true, rb)) => {
                    out.push((*ra, *rb));
                }
                ((_, true, rb), (_, false, ra)) => {
                    out.push((*ra, *rb));
                }
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Recall of a blocking result against the ground-truth matches
/// (fraction of true pairs that survived blocking).
pub fn blocking_recall(candidates: &CandidatePairs, truth: &[(usize, usize)]) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let set: HashSet<&(usize, usize)> = candidates.iter().collect();
    let hit = truth.iter().filter(|p| set.contains(p)).count();
    hit as f64 / truth.len() as f64
}

/// Per-group blocking recall: blocking itself can be unfair — e.g. a
/// token blocker loses romanization-drifted duplicates, so a group's
/// true matches never even reach the matcher. Returns `(group name,
/// recall, truth-pair support)` per group, where a truth pair belongs to
/// a group when either entity does (the single-fairness rule).
pub fn per_group_blocking_recall(
    candidates: &CandidatePairs,
    truth: &[(usize, usize)],
    enc_a: &[crate::sensitive::GroupVector],
    enc_b: &[crate::sensitive::GroupVector],
    space: &crate::sensitive::GroupSpace,
) -> Vec<(String, f64, usize)> {
    let set: HashSet<&(usize, usize)> = candidates.iter().collect();
    space
        .ids()
        .map(|g| {
            let legit: Vec<&(usize, usize)> = truth
                .iter()
                .filter(|&&(ra, rb)| enc_a[ra].contains(g) || enc_b[rb].contains(g))
                .collect();
            let recall = if legit.is_empty() {
                f64::NAN
            } else {
                legit.iter().filter(|p| set.contains(**p)).count() as f64 / legit.len() as f64
            };
            (space.name(g).to_owned(), recall, legit.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;
    use fairem_par::WorkerPool;
    use fairem_rng::check::{cases, Gen};

    /// The pre-interning string-keyed formulation, kept as the
    /// reference the kernel must reproduce exactly.
    fn naive_token_blocking(
        a: &Table,
        b: &Table,
        columns: &[&str],
        max_block: usize,
    ) -> CandidatePairs {
        use std::collections::BTreeMap;
        let index_side = |t: &Table| -> BTreeMap<String, Vec<usize>> {
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| t.column_index(c).expect("blocking column"))
                .collect();
            let mut idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for row in 0..t.len() {
                let mut seen: HashSet<String> = HashSet::new();
                for &c in &cols {
                    for tok in word_tokens(t.value(row, c)) {
                        if seen.insert(tok.clone()) {
                            idx.entry(tok).or_default().push(row);
                        }
                    }
                }
            }
            idx
        };
        let ia = index_side(a);
        let ib = index_side(b);
        let mut out: CandidatePairs = Vec::new();
        for (tok, rows_a) in &ia {
            let Some(rows_b) = ib.get(tok) else { continue };
            if rows_a.len().saturating_mul(rows_b.len()) > max_block.saturating_mul(max_block) {
                continue;
            }
            for &ra in rows_a {
                for &rb in rows_b {
                    out.push((ra, rb));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn tables() -> (Table, Table) {
        let a = Table::from_csv(
            parse_csv_str("id,name\na0,li wei\na1,john smith\na2,hans muller\n").unwrap(),
        )
        .unwrap();
        let b = Table::from_csv(
            parse_csv_str("id,name\nb0,wei li\nb1,jon smith\nb2,maria garcia\n").unwrap(),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn token_blocking_links_shared_tokens() {
        let (a, b) = tables();
        let pairs = token_blocking(&a, &b, &["name"], 100);
        assert!(pairs.contains(&(0, 0))); // shares li & wei
        assert!(pairs.contains(&(1, 1))); // shares smith
        assert!(!pairs.contains(&(2, 2))); // muller vs garcia: nothing shared
    }

    #[test]
    fn stop_tokens_are_skipped() {
        // Every record shares "dept", which would cross-product everything.
        let a =
            Table::from_csv(parse_csv_str("id,name\na0,dept x\na1,dept y\na2,dept z\n").unwrap())
                .unwrap();
        let b =
            Table::from_csv(parse_csv_str("id,name\nb0,dept x\nb1,dept q\nb2,dept r\n").unwrap())
                .unwrap();
        let pairs = token_blocking(&a, &b, &["name"], 2);
        // "dept" block is 3×3 > 2×2 → skipped; only "x" links (0,0).
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn sorted_neighborhood_links_nearby_keys() {
        let (a, b) = tables();
        let pairs = sorted_neighborhood(&a, &b, "name", 3);
        assert!(pairs.contains(&(1, 1)), "{pairs:?}"); // john/jon adjacent
                                                       // All candidate pairs are valid indexes.
        for (ra, rb) in &pairs {
            assert!(*ra < a.len() && *rb < b.len());
        }
    }

    #[test]
    fn recall_measures_truth_coverage() {
        let cands = vec![(0, 0), (1, 1)];
        assert_eq!(blocking_recall(&cands, &[(0, 0), (2, 2)]), 0.5);
        assert_eq!(blocking_recall(&cands, &[(0, 0)]), 1.0);
        assert!(blocking_recall(&cands, &[]).is_nan());
    }

    /// A CSV table of `rows` rows over `cols` text columns. Cells draw
    /// from a small vocabulary, so tokens repeat within and across
    /// rows; some cells are empty and "dept" is a stop token shared by
    /// most rows.
    fn random_table(g: &mut Gen, prefix: &str, rows: usize, cols: usize) -> Table {
        const WORDS: [&str; 8] = ["li", "wei", "john", "smith", "data", "base", "x", "dept"];
        let header: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        let mut csv = format!("id,{}\n", header.join(","));
        for r in 0..rows {
            csv.push_str(&format!("{prefix}{r}"));
            for _ in 0..cols {
                let mut words: Vec<&str> = g.vec(4, |g| *g.pick(&WORDS[..7]));
                if g.bool(0.7) {
                    words.push("dept");
                }
                if g.bool(0.15) {
                    words.clear();
                }
                csv.push(',');
                csv.push_str(&words.join(" "));
            }
            csv.push('\n');
        }
        Table::from_csv(parse_csv_str(&csv).unwrap()).unwrap()
    }

    #[test]
    fn interned_kernel_matches_the_naive_reference() {
        // The stop-token guard squares `max_block`: from 2^32 up the
        // square overflows, and must saturate (every block kept) rather
        // than wrap (nearly every block dropped).
        let (a, b) = (
            Table::from_csv(parse_csv_str("id,name\na0,li wei\na1,li\n").unwrap()).unwrap(),
            Table::from_csv(parse_csv_str("id,name\nb0,li\nb1,wei li\n").unwrap()).unwrap(),
        );
        for max_block in [200, 1 << 32, usize::MAX] {
            assert_eq!(
                token_blocking(&a, &b, &["name"], max_block),
                vec![(0, 0), (0, 1), (1, 0), (1, 1)],
                "max_block={max_block}"
            );
        }
        let pools: Vec<Exec> = [1, 2, 4]
            .into_iter()
            .map(|w| Exec::with_pool(WorkerPool::new(w)))
            .collect();
        cases(48, 0xb10c, |g| {
            let cols = g.usize_in(1, 4);
            let (na, nb) = (g.usize_in(0, 12), g.usize_in(0, 12));
            let a = random_table(g, "a", na, cols);
            let b = random_table(g, "b", nb, cols);
            let columns: Vec<String> = (0..g.usize_in(1, cols + 1))
                .map(|c| format!("c{c}"))
                .collect();
            let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
            for max_block in [1, 2, 3, 200, 1 << 32, usize::MAX] {
                let want = naive_token_blocking(&a, &b, &col_refs, max_block);
                let blocker = TokenBlocking {
                    columns: columns.clone(),
                    max_block,
                };
                for exec in &pools {
                    assert_eq!(
                        blocker.candidates(&a, &b, exec),
                        want,
                        "columns={columns:?} max_block={max_block} workers={}",
                        exec.pool.workers()
                    );
                }
            }
        });
    }

    #[test]
    fn parallel_emission_is_identical_to_sequential() {
        let (a, b) = tables();
        let blocker = TokenBlocking {
            columns: vec!["name".into()],
            max_block: 100,
        };
        let seq = blocker.candidates(&a, &b, &Exec::sequential());
        for workers in [2, 4] {
            let par = blocker.candidates(&a, &b, &Exec::with_pool(WorkerPool::new(workers)));
            assert_eq!(seq, par, "workers={workers}");
        }
        assert_eq!(seq, token_blocking(&a, &b, &["name"], 100));
    }

    #[test]
    fn blocker_trait_selects_schemes() {
        let (a, b) = tables();
        let tb = TokenBlocking {
            columns: vec!["name".into()],
            max_block: 100,
        };
        let sn = SortedNeighborhood {
            key_column: "name".into(),
            window: 3,
        };
        assert_eq!(tb.name(), "token");
        assert_eq!(sn.name(), "sorted");
        let exec = Exec::default();
        assert_eq!(
            tb.candidates(&a, &b, &exec),
            token_blocking(&a, &b, &["name"], 100)
        );
        assert_eq!(
            sn.candidates(&a, &b, &exec),
            sorted_neighborhood(&a, &b, "name", 3)
        );
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn unknown_blocking_column_panics() {
        let (a, b) = tables();
        let _ = token_blocking(&a, &b, &["nope"], 10);
    }

    #[test]
    fn per_group_recall_exposes_blocker_bias() {
        use crate::sensitive::{GroupSpace, SensitiveAttr};
        // Group x's duplicate shares no token (drifted); group y's does.
        let a =
            Table::from_csv(parse_csv_str("id,name,g\na0,wang wei,x\na1,john smith,y\n").unwrap())
                .unwrap();
        let b =
            Table::from_csv(parse_csv_str("id,name,g\nb0,wong way,x\nb1,jon smith,y\n").unwrap())
                .unwrap();
        let space = GroupSpace::extract(&[&a, &b], vec![SensitiveAttr::categorical("g")]);
        let enc_a = space.encode_table(&a);
        let enc_b = space.encode_table(&b);
        let candidates = token_blocking(&a, &b, &["name"], 100);
        let truth = vec![(0, 0), (1, 1)];
        let rows = per_group_blocking_recall(&candidates, &truth, &enc_a, &enc_b, &space);
        let recall_of = |name: &str| rows.iter().find(|(n, _, _)| n == name).unwrap().1;
        assert_eq!(recall_of("x"), 0.0, "drifted pair is lost by the blocker");
        assert_eq!(recall_of("y"), 1.0);
        // Overall recall masks the group gap.
        assert_eq!(blocking_recall(&candidates, &truth), 0.5);
    }
}
