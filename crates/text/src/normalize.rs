//! Lightweight string normalization applied before similarity computation.

use crate::tokenize::push_lowercase;

/// Lowercase, trim, and collapse internal whitespace runs to single spaces.
///
/// Non-alphanumeric punctuation is preserved (edit-distance measures care
/// about it); tokenizers strip it separately. [`normalize_into`] writes
/// the same text into a buffer the caller reuses.
///
/// ```
/// assert_eq!(fairem_text::normalize("  Li   WEI "), "li wei");
/// ```
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] `s` into `out`, replacing its contents.
pub fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    // A whitespace run becomes one space, written only once a
    // non-whitespace char follows it: leading and trailing runs vanish.
    let mut pending_space = false;
    for ch in s.chars() {
        if ch.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            push_lowercase(out, ch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{normalize, normalize_into};

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("a\t\nb   c"), "a b c");
    }

    #[test]
    fn lowercases_unicode() {
        assert_eq!(normalize("MÜLLER"), "müller");
    }

    #[test]
    fn empty_and_blank() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   \t "), "");
    }

    #[test]
    fn keeps_punctuation() {
        assert_eq!(normalize("O'Brien, J."), "o'brien, j.");
    }

    #[test]
    fn into_replaces_the_buffer() {
        let mut out = String::from("stale ");
        normalize_into(" A\tB ", &mut out);
        assert_eq!(out, "a b");
        normalize_into("  ", &mut out);
        assert_eq!(out, "");
    }
}
