//! Edit-distance similarity measures: Levenshtein, Jaro and Jaro-Winkler.
//!
//! The similarities return values in `[0.0, 1.0]`; the raw distance
//! (`levenshtein`) returns an edit count.

/// Reusable working buffers for the char-slice edit kernels.
///
/// The batch feature path evaluates millions of (feature, pair) cells;
/// allocating bit-vector state and match masks per call dominates. A
/// `SimScratch` owns those buffers, and the batch path gives each
/// worker-pool chunk a fresh one. A chunk is a stretch of the
/// feature-major cell order, so its scratch serves one measure over a
/// run of consecutive pairs (more than one measure only where the chunk
/// crosses a feature boundary). Every kernel re-initializes each entry
/// of the scratch it reads before reading it, so outputs never depend
/// on what a previous call left behind — that invariant is what lets
/// chunked parallel execution stay bit-for-bit identical to sequential
/// (DESIGN.md, "Columnar execution model").
///
/// The one deliberately persistent part is `jw_memo`, the Monge-Elkan
/// kernel's direct-mapped Jaro-Winkler cache keyed by unordered
/// interned token-id pairs, allocated on the first Monge-Elkan call.
/// Cached values are pure functions of the id pair within one interner
/// (and of the unordered pair, because Jaro-Winkler is bit-symmetric),
/// so a hit or an overwrite still cannot change any output — but ids
/// from *different* interners would collide, so a scratch must never
/// outlive the interner it was used with (the batch path drops each
/// scratch with its chunk, well inside that scope). Levenshtein needs
/// its carry vector only for patterns longer than 64 chars; a shorter
/// pattern runs in registers.
#[derive(Debug, Default, Clone)]
pub struct SimScratch {
    peq: CharMasks,
    carry: Vec<u8>,
    used: Vec<u64>,
    matched: Vec<u64>,
    pub(crate) jw_memo: crate::prepared::JwMemo,
}

impl SimScratch {
    /// Fresh scratch with empty buffers (they grow on first use).
    pub fn new() -> SimScratch {
        SimScratch::default()
    }
}

/// Per-char position masks of one string, in strips of 64 positions:
/// bit `k` of strip `w`'s mask for char `c` is set when
/// `s[64 * w + k] == c`.
///
/// A strip is a table of `rows` masks. Rows `0..128` are the ASCII
/// chars, row 128 is all-zero for chars absent from `s`, and row
/// `129 + k` is the `k`-th distinct non-ASCII char of `s`.
#[derive(Debug, Default, Clone)]
struct CharMasks {
    rows: usize,
    masks: Vec<u64>,
    wide: Vec<char>,
}

const ABSENT: usize = 128;

impl CharMasks {
    /// Index the positions of `s` (non-empty), rewriting every row
    /// first, so lookups read only bits this call set.
    fn build(&mut self, s: &[char]) {
        self.wide.clear();
        for &c in s {
            if !c.is_ascii() && !self.wide.contains(&c) {
                self.wide.push(c);
            }
        }
        self.rows = ABSENT + 1 + self.wide.len();
        self.masks.clear();
        self.masks.resize(self.rows * s.len().div_ceil(64), 0);
        for (k, &c) in s.iter().enumerate() {
            let at = (k / 64) * self.rows + self.row(c);
            self.masks[at] |= 1 << (k % 64);
        }
    }

    /// The row of `c` within every strip.
    fn row(&self, c: char) -> usize {
        if c.is_ascii() {
            c as usize
        } else {
            self.wide
                .iter()
                .position(|&w| w == c)
                .map_or(ABSENT, |k| ABSENT + 1 + k)
        }
    }

    /// The strips in position order.
    fn strips(&self) -> std::slice::ChunksExact<'_, u64> {
        self.masks.chunks_exact(self.rows)
    }
}

/// The horizontal DP delta crossing a strip boundary in one text
/// column, as stored in `SimScratch::carry`: bit 0 set for +1, bit 1
/// set for -1, neither for 0.
const PLUS: u8 = 1;

/// Mask of the `k` lowest bits.
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        !0
    } else {
        (1 << k) - 1
    }
}

/// Positions of the set bits of a word, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let k = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(k)
    }
}

/// Levenshtein distance between two strings, computed over Unicode scalar
/// values with the bit-parallel kernel the batch path runs.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars_with(&a, &b, &mut SimScratch::new())
}

/// Levenshtein distance over pre-split char slices, reusing `scratch`
/// for the bit vectors. [`levenshtein`] and
/// [`normalized_levenshtein_chars_with`] (the batch path) delegate
/// here, so both paths are the same code.
///
/// Myers' bit-vector recurrence in Hyyrö's formulation (Myers 1999;
/// Hyyrö 2003). The shorter string is the pattern; its DP rows are cut
/// into strips of 64. Each strip sweeps the text with its vertical
/// delta vectors held in two words. In each column it takes the
/// horizontal delta entering its top row from the strip above (row 0
/// grows by one per column) and passes on the one leaving its bottom
/// row. The bottom-right DP cell is the pattern length plus the
/// horizontal deltas along the pattern's last row: the exact integer
/// the textbook DP computes, for every length.
///
/// A trimmed pattern of at most 64 chars is one strip, whose top row
/// always takes +1: [`myers_one_word`] runs it in registers.
fn levenshtein_chars_with(a: &[char], b: &[char], scratch: &mut SimScratch) -> usize {
    // Trim the common prefix and suffix: an optimal edit script never
    // touches them, so the distance of the trimmed middles *is* the
    // distance (the standard Levenshtein trimming lemma).
    let p = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[p..], &b[p..]);
    let s = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - s], &b[..b.len() - s]);
    // The shorter string is the pattern: fewer strips.
    let (text, pattern) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if pattern.is_empty() {
        return text.len();
    }
    let SimScratch { peq, carry, .. } = scratch;
    peq.build(pattern);
    if pattern.len() <= 64 {
        return myers_one_word(peq, text, pattern.len());
    }
    carry.clear();
    carry.resize(text.len(), PLUS);
    let strips = pattern.len().div_ceil(64);
    for (w, strip) in peq.strips().enumerate() {
        // The strip's bottom row: bit 63, or the pattern's last row.
        let bottom = if w + 1 == strips {
            (pattern.len() - 1) % 64
        } else {
            63
        };
        let (mut vp, mut vn) = (!0u64, 0u64);
        for (&c, h) in text.iter().zip(carry.iter_mut()) {
            let (hp_in, hn_in) = (u64::from(*h & 1), u64::from(*h >> 1));
            let x = strip[peq.row(c)] | hn_in;
            let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
            let hp = vn | !(d0 | vp);
            let hn = vp & d0;
            *h = (((hp >> bottom) & 1) | (((hn >> bottom) & 1) << 1)) as u8;
            let hp = (hp << 1) | hp_in;
            let hn = (hn << 1) | hn_in;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
        }
    }
    let plus: usize = carry.iter().map(|&h| usize::from(h & 1)).sum();
    let minus: usize = carry.iter().map(|&h| usize::from(h >> 1)).sum();
    pattern.len() + plus - minus
}

/// The strip loop of [`levenshtein_chars_with`] for a pattern of `m`
/// chars, `1 <= m <= 64`, indexed in `peq`: one strip, entered with
/// `hp_in = 1` and `hn_in = 0` in every column. Instead of keeping the
/// bottom row's deltas for a final sum, it adds each one to the score
/// as it leaves. `hp` and `hn` never share a bit, so after column `j`
/// the score is the DP cell `D[m][j] >= 0` and never underflows.
fn myers_one_word(peq: &CharMasks, text: &[char], m: usize) -> usize {
    let strip = &peq.masks[..peq.rows];
    let bottom = m - 1;
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut score = m;
    for &c in text {
        let x = strip[peq.row(c)];
        let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
        let hp = vn | !(d0 | vp);
        let hn = vp & d0;
        score += ((hp >> bottom) & 1) as usize;
        score -= ((hn >> bottom) & 1) as usize;
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
    }
    score
}

/// Normalized Levenshtein similarity over char slices: `1 - dist / max_len`,
/// `1.0` when both are empty. Bit-for-bit the [`normalized_levenshtein`]
/// result for the strings the slices were split from.
pub fn normalized_levenshtein_chars_with(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars_with(a, b, scratch) as f64 / max as f64
}

/// Levenshtein similarity: `1 - dist / max_len`; `1.0` when both empty.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let max = la.max(lb);
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity.
///
/// Returns `1.0` if both strings are empty and `0.0` if exactly one is.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars_with(&a, &b, &mut SimScratch::new())
}

/// Jaro similarity over pre-split char slices, reusing `scratch` for the
/// position masks and the match bookkeeping. [`jaro`] delegates here.
///
/// Each char of `a`, in order, matches the lowest unused position of
/// `b` holding the same char inside its window: the lowest set bit of
/// `mask_b[c] & !used & window`. That is exactly the textbook greedy
/// left-to-right scan, so the match count `m` and the transpositions
/// `t` are the same integers. The scan runs one 64-position strip of
/// `b` at a time: a char takes a position in strip `w` only if it took
/// none in a lower strip, and strip `w`'s used bits change only by its
/// own takes, so strip-by-strip gives each char the same position as
/// char-by-char, with each strip's used word kept in a register.
fn jaro_chars_with(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    if a == b {
        // The full computation on identical inputs yields exactly 1.0
        // (m = |a|, t = 0 → (1.0 + 1.0 + 1.0) / 3.0), so this shortcut
        // is bitwise-invisible. It also covers the both-empty case.
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let SimScratch {
        peq, used, matched, ..
    } = scratch;
    peq.build(b);
    used.clear();
    // Bit i: a[i] has taken a position.
    matched.clear();
    matched.resize(a.len().div_ceil(64), 0);
    for (w, strip) in peq.strips().enumerate() {
        // a[i] may match b[j] for |i - j| <= window: the chars whose
        // window meets positions base..base + 64 are first..=last.
        let base = 64 * w;
        let first = base.saturating_sub(window);
        let last = (base + 63 + window).min(a.len() - 1);
        if first > last {
            break;
        }
        // The window of a[i] within the strip is `hi & !lo`: positions
        // below i + window + 1 and not below i - window.
        let mut hi = low_bits(first + window + 1 - base);
        let mut lo = 0u64;
        let mut used_w = 0u64;
        let chunks = matched.iter_mut().enumerate();
        for (c, word) in chunks.take(last / 64 + 1).skip(first / 64) {
            let earlier = *word;
            let mut now = earlier;
            for i in (64 * c).max(first)..=(64 * c + 63).min(last) {
                let bit = i % 64;
                let open = ((earlier >> bit) & 1).wrapping_sub(1);
                let cand = strip[peq.row(a[i])] & !used_w & hi & !lo & open;
                let pick = cand & cand.wrapping_neg();
                used_w |= pick;
                now |= u64::from(pick != 0) << bit;
                hi = (hi << 1) | 1;
                lo = (lo << 1) | u64::from(i + 1 > base + window);
            }
            *word = now;
        }
        used.push(used_w);
    }
    // Transpositions: a's matched chars in order against b's chars at
    // the used positions in order.
    let mut taken = used
        .iter()
        .enumerate()
        .flat_map(|(w, &bits)| SetBits(bits).map(move |k| 64 * w + k));
    let (mut matches, mut half_transpositions) = (0usize, 0usize);
    for (c, &bits) in matched.iter().enumerate() {
        for k in SetBits(bits) {
            let j = taken.next();
            half_transpositions += usize::from(j.map(|j| b[j]) != Some(a[64 * c + k]));
            matches += 1;
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let transpositions = half_transpositions / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and a
/// prefix length capped at 4, applied only when Jaro exceeds 0.7.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars_with(&a, &b, &mut SimScratch::new())
}

/// Jaro-Winkler over pre-split char slices. [`jaro_winkler`] delegates here.
pub fn jaro_winkler_chars_with(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    let j = jaro_chars_with(a, b, scratch);
    if j <= 0.7 {
        return j;
    }
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("ab", "ba"), 2);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("müller", "muller"), 1);
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        let s = jaro("martha", "marhta");
        assert!((s - 0.944_444).abs() < 1e-5, "{s}");
        let s = jaro("dixon", "dicksonx");
        assert!((s - 0.766_667).abs() < 1e-5, "{s}");
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        let s = jaro_winkler("martha", "marhta");
        assert!((s - 0.961_111).abs() < 1e-5, "{s}");
        let s = jaro_winkler("dwayne", "duane");
        assert!((s - 0.84).abs() < 1e-2, "{s}");
    }

    #[test]
    fn jaro_winkler_no_boost_below_cutoff() {
        // Jaro <= 0.7 keeps the raw value even with a common prefix.
        let a = "aXXXXXXX";
        let b = "aYYYYYYY";
        assert!((jaro_winkler(a, b) - jaro(a, b)).abs() < 1e-12);
    }

    #[test]
    fn reused_scratch_is_bitwise_invisible() {
        // A dirty scratch (arbitrary garbage left by prior calls) must
        // produce the exact bits a fresh scratch produces.
        let pairs = [
            ("martha", "marhta"),
            ("dixon", "dicksonx"),
            ("", "abc"),
            ("", ""),
            ("kitten", "sitting"),
            ("müller", "muller"),
        ];
        let mut dirty = SimScratch::new();
        // Pollute it.
        let _ = levenshtein_chars_with(
            &"zzzzzzzzzz".chars().collect::<Vec<_>>(),
            &"qqq".chars().collect::<Vec<_>>(),
            &mut dirty,
        );
        let _ = jaro_chars_with(
            &"abcdef".chars().collect::<Vec<_>>(),
            &"fedcba".chars().collect::<Vec<_>>(),
            &mut dirty,
        );
        for (a, b) in pairs {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            assert_eq!(
                levenshtein_chars_with(&ca, &cb, &mut dirty),
                levenshtein(a, b),
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                jaro_winkler_chars_with(&ca, &cb, &mut dirty).to_bits(),
                jaro_winkler(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                normalized_levenshtein_chars_with(&ca, &cb, &mut dirty).to_bits(),
                normalized_levenshtein(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }
}
