//! Token interning: map every distinct token string to a dense `u32` id.
//!
//! The columnar feature path tokenizes each cell **once** at build time
//! and stores token *ids* instead of strings; every downstream kernel
//! (set similarity, TF-IDF cosine, blocking) then works on integer
//! slices. Ids stay below 2^31: `prepared.rs` gives a 3-gram of three
//! ASCII chars a packed code from 2^31 up instead of interning it, so
//! the interner holds words, whole numeric cells and only the 3-grams
//! with a non-ASCII char.
//!
//! The interner is append-only and single-threaded by design: it is
//! populated during `FeatureGenerator::build` (or at the start of a
//! blocking pass) and read immutably afterwards, so the parallel pair
//! loop never touches the lookup map.
//!
//! Lookups hash with `TokenHasher`, a multiply-rotate hash defined
//! below, rather than std's randomly keyed SipHash: tokens are short
//! and every cell of an audited column is looked up token by token, so
//! the hash is a large part of an interning step. A fixed hash is
//! acceptable for two reasons. The keys come from the tables the run
//! audits (the server opens only generated datasets), so keys crafted
//! to collide can only slow down their own author's run. And the map
//! only answers point lookups: it is never iterated, and ids are
//! assigned in first-encounter order, a pure function of the input
//! tables, so no hash value or hash order reaches any id or output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The bound on interned ids: every id [`TokenInterner::intern`]
/// assigns is below 2^31, so the ids from 2^31 up are free for codes
/// that are not interned (`prepared.rs` packs ASCII 3-grams there).
pub(crate) const ID_LIMIT: u32 = 1 << 31;

/// An append-only string-to-`u32` interner with a per-token char cache.
#[derive(Debug, Clone)]
pub struct TokenInterner {
    lookup: HashMap<Box<str>, u32, BuildHasherDefault<TokenHasher>>,
    // Every interned string, concatenated in id order: token `id` is
    // `text[text_off[id]..text_off[id + 1]]`.
    text: String,
    text_off: Vec<u32>,
    // Flattened `chars()` of every interned string, so kernels that
    // need char slices (Monge-Elkan's inner Jaro-Winkler) split each
    // token exactly once.
    chars: Vec<char>,
    chars_off: Vec<u32>,
}

impl Default for TokenInterner {
    fn default() -> TokenInterner {
        TokenInterner::new()
    }
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> TokenInterner {
        TokenInterner {
            lookup: HashMap::default(),
            text: String::new(),
            text_off: vec![0],
            chars: Vec::new(),
            chars_off: vec![0],
        }
    }

    /// Intern `tok`, returning its id (existing or freshly assigned).
    ///
    /// # Panics
    /// If `tok` is new and the interner already holds 2^31 tokens: ids
    /// from 2^31 up are reserved for the packed 3-gram codes of
    /// `prepared.rs`, which are never interned.
    pub fn intern(&mut self, tok: &str) -> u32 {
        self.intern_below(tok, ID_LIMIT)
    }

    /// [`TokenInterner::intern`] with the ids bounded by `limit`: a new
    /// token panics once the interner holds `limit` tokens. The tests
    /// reach the bound with a small `limit`.
    fn intern_below(&mut self, tok: &str, limit: u32) -> u32 {
        if let Some(&id) = self.lookup.get(tok) {
            return id;
        }
        assert!(
            self.len() < limit as usize,
            "token interner full: ids from 2^31 up are packed 3-grams"
        );
        let id = self.len() as u32;
        self.text.push_str(tok);
        self.text_off.push(self.text.len() as u32);
        self.chars.extend(tok.chars());
        self.chars_off.push(self.chars.len() as u32);
        self.lookup.insert(tok.into(), id);
        id
    }

    /// The id of an already-interned token, if any.
    pub fn get(&self, tok: &str) -> Option<u32> {
        self.lookup.get(tok).copied()
    }

    /// The string an id was assigned to. Ids come from this interner's
    /// [`TokenInterner::intern`], so the index is always in range for
    /// well-formed callers; out-of-range ids are a caller bug and index
    /// out of bounds like any slice access.
    pub fn resolve(&self, id: u32) -> &str {
        let lo = self.text_off[id as usize] as usize;
        let hi = self.text_off[id as usize + 1] as usize;
        &self.text[lo..hi]
    }

    /// The cached `chars()` of an interned token.
    pub fn chars_of(&self, id: u32) -> &[char] {
        let lo = self.chars_off[id as usize] as usize;
        let hi = self.chars_off[id as usize + 1] as usize;
        &self.chars[lo..hi]
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.text_off.len() - 1
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For every id, its position in the lexicographic order of all
    /// interned strings: `rank[id] = |{ other : string(other) < string(id) }|`.
    ///
    /// Comparing ranks is exactly comparing token strings (the mapping
    /// is order-isomorphic and all strings are distinct), which lets
    /// the TF-IDF kernel merge-join integer ranks while reproducing the
    /// scalar path's string-sorted accumulation order bit for bit.
    pub fn string_ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| self.resolve(x).cmp(self.resolve(y)));
        let mut rank = vec![0u32; order.len()];
        for (pos, &id) in order.iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        rank
    }
}

/// The multiply-rotate hash behind [`TokenInterner`]'s lookups.
///
/// Each 8-byte word of input is folded in as `h = (h.rotl(5) ^ word) * K`,
/// then one word holding the last `len % 8` bytes, read without a
/// variable-length copy, with the input length in its top byte. A
/// product's high bits depend on every input bit but its low bits only
/// on low ones, so [`Hasher::finish`] rotates the well-mixed high half
/// down to where the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
struct TokenHasher(u64);

/// `2^64 / φ`, the odd multiplier of Fibonacci hashing.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl TokenHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// The bytes of a slice of at most 7 bytes, packed into one word: two
/// overlapping 4-byte reads from 4 bytes up, the first, middle and last
/// byte below that.
#[inline]
fn tail_word(b: &[u8]) -> u64 {
    let n = b.len();
    if n >= 4 {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]);
        u64::from(lo) | u64::from(hi) << 32
    } else if n > 0 {
        u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16
    } else {
        0
    }
}

impl Hasher for TokenHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes([
                w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7],
            ]));
        }
        self.fold(tail_word(words.remainder()) ^ (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.fold(u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut it = TokenInterner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        let a2 = it.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.resolve(b), "beta");
        assert_eq!(it.get("alpha"), Some(a));
        assert_eq!(it.get("gamma"), None);
    }

    #[test]
    fn char_cache_matches_chars() {
        let mut it = TokenInterner::new();
        for tok in ["", "a", "müller", "i\u{307}", "漢字"] {
            let id = it.intern(tok);
            assert_eq!(it.chars_of(id), tok.chars().collect::<Vec<_>>(), "{tok:?}");
        }
    }

    #[test]
    fn ranks_mirror_string_order() {
        let mut it = TokenInterner::new();
        let ids: Vec<u32> = ["pear", "apple", "fig", "banana"]
            .iter()
            .map(|t| it.intern(t))
            .collect();
        let rank = it.string_ranks();
        // apple < banana < fig < pear
        assert_eq!(rank[ids[0] as usize], 3);
        assert_eq!(rank[ids[1] as usize], 0);
        assert_eq!(rank[ids[2] as usize], 2);
        assert_eq!(rank[ids[3] as usize], 1);
        // Comparing ranks == comparing strings, pairwise.
        for &x in &ids {
            for &y in &ids {
                assert_eq!(
                    rank[x as usize].cmp(&rank[y as usize]),
                    it.resolve(x).cmp(it.resolve(y))
                );
            }
        }
    }

    #[test]
    fn empty_interner() {
        for it in [TokenInterner::new(), TokenInterner::default()] {
            assert!(it.is_empty());
            assert!(it.string_ranks().is_empty());
        }
        let mut it = TokenInterner::default();
        let id = it.intern("x");
        assert_eq!((it.resolve(id), it.chars_of(id)), ("x", &['x'][..]));
    }

    #[test]
    fn ids_follow_first_encounter_order() {
        let mut it = TokenInterner::new();
        let toks = [
            "b",
            "",
            "a",
            "b",
            "abcdefgh",
            "abcdefghi",
            "a",
            "\0",
            "\0\0",
        ];
        let ids: Vec<u32> = toks.iter().map(|t| it.intern(t)).collect();
        assert_eq!(ids, [0, 1, 2, 0, 3, 4, 2, 5, 6]);
        for (t, &id) in toks.iter().zip(&ids) {
            assert_eq!(it.resolve(id), *t);
            assert_eq!(it.get(t), Some(id));
        }
    }

    #[test]
    #[should_panic(expected = "token interner full")]
    fn a_full_interner_returns_known_ids_and_refuses_a_new_token() {
        let mut it = TokenInterner::new();
        assert_eq!(it.intern_below("a", 2), 0);
        assert_eq!(it.intern_below("b", 2), 1);
        // Known tokens still resolve once the interner is full.
        assert_eq!(it.intern_below("a", 2), 0);
        assert_eq!(it.intern_below("b", 2), 1);
        it.intern_below("c", 2);
    }

    #[test]
    fn hash_tails_of_different_lengths_differ() {
        let hash = |bytes: &[u8]| {
            let mut h = TokenHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefgh\0"));
    }
}
