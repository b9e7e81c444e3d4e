//! String similarity measures.
//!
//! These are the primitives the matchers compose: the paper's
//! Similarity-Flooding re-implementation uses Levenshtein for initial
//! similarities, the Jaccard-Levenshtein baseline thresholds on normalised
//! Levenshtein, COMA's name matcher averages trigram/edit/synonym evidence,
//! and Cupid's linguistic matching compares token sets.
//!
//! # Kernel layout
//!
//! The edit-distance family sits in the `similarity` trace category of
//! several matchers (COMA name evidence, Jaccard-Levenshtein's O(sample²)
//! inner loop), so the common case — ASCII column names and values — takes
//! allocation-free fast paths over `&[u8]`:
//!
//! * [`levenshtein`] routes ASCII pairs whose shorter side fits in 64
//!   characters (the overwhelmingly common column-name case) through a
//!   bit-parallel Myers automaton — one word of bitwise ops per text
//!   character instead of a row of the dynamic program — and longer ASCII
//!   pairs through a two-row byte DP over reusable thread-local buffers.
//! * [`jaccard_tokens`] sort-merges the (small) token slices via a
//!   thread-local index buffer instead of building two `HashSet`s per call.
//!
//! Non-ASCII input falls back to the retained scalar reference
//! [`levenshtein_scalar`], which preserves the original char-by-char
//! behaviour; the fast paths are exact re-implementations, asserted
//! equivalent by the proptest suite in `tests/prop.rs` and speed-guarded by
//! `bench/kernels`. [`jaro`] / [`jaro_winkler`] have one char-level
//! implementation for all input, over the same thread-local scratch; a
//! separate byte-level ASCII path measured no faster (DESIGN.md §15).

use std::cell::RefCell;

use valentine_table::fxhash::hash_str;
use valentine_table::FxHashSet;

/// Reusable per-thread buffers for the allocation-free kernels. One
/// borrow per public call; no similarity function calls another while the
/// borrow is live, so the `RefCell` can never be re-entered.
#[derive(Default)]
struct Scratch {
    /// Two-row Levenshtein DP rows.
    prev: Vec<usize>,
    curr: Vec<usize>,
    /// Myers pattern-bitmask table (256 entries, all-zero between calls).
    peq: Vec<u64>,
    /// Jaro inputs as chars, matched-in-`b` flags, and `a`'s matched chars.
    chars_a: Vec<char>,
    chars_b: Vec<char>,
    b_used: Vec<bool>,
    matches_a: Vec<char>,
    /// Sorted distinct token hashes for [`jaccard_tokens`].
    idx_a: Vec<u64>,
    idx_b: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Levenshtein (edit) distance between two strings, in unicode scalar
/// values. ASCII pairs take the bit-parallel/byte-DP fast path; anything
/// else uses the classic two-row dynamic program, O(|a|·|b|) time.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    if a.is_ascii() && b.is_ascii() {
        levenshtein_ascii(a.as_bytes(), b.as_bytes())
    } else {
        levenshtein_scalar(a, b)
    }
}

/// Retained scalar reference for [`levenshtein`]: the original char-vector
/// two-row dynamic program. Kept as the equivalence and floor-speedup
/// baseline; also the live fallback for non-ASCII input.
pub fn levenshtein_scalar(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    if a_chars.is_empty() {
        return b_chars.len();
    }
    if b_chars.is_empty() {
        return a_chars.len();
    }
    // Keep the shorter string in the inner dimension.
    let (short, long) = if a_chars.len() <= b_chars.len() {
        (&a_chars, &b_chars)
    } else {
        (&b_chars, &a_chars)
    };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// ASCII dispatch: Myers when the pattern fits one machine word, two-row
/// byte DP over thread-local rows otherwise.
fn levenshtein_ascii(a: &[u8], b: &[u8]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if pattern.len() <= 64 {
            myers64(pattern, text, &mut s.peq)
        } else {
            two_row_bytes(pattern, text, &mut s.prev, &mut s.curr)
        }
    })
}

/// Myers' bit-parallel edit distance (Hyyrö's formulation): the DP column
/// is a pair of 64-bit delta vectors updated with ~15 word ops per text
/// byte. Exact for `pattern.len() ∈ 1..=64`. `peq` must be all-zero on
/// entry and is restored to all-zero before returning.
fn myers64(pattern: &[u8], text: &[u8], peq: &mut Vec<u64>) -> usize {
    debug_assert!((1..=64).contains(&pattern.len()));
    if peq.is_empty() {
        peq.resize(256, 0);
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let m = pattern.len();
    let high = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for &c in text {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        }
        if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    // Restore the all-zero invariant by clearing only this pattern's rows.
    for &c in pattern {
        peq[c as usize] = 0;
    }
    score
}

/// Two-row byte DP with caller-provided (thread-local) rows — the >64-char
/// ASCII path. Same recurrence as the scalar reference, minus the per-call
/// `Vec<char>` materialisation and row allocations.
fn two_row_bytes(short: &[u8], long: &[u8], prev: &mut Vec<usize>, curr: &mut Vec<usize>) -> usize {
    prev.clear();
    prev.extend(0..=short.len());
    curr.clear();
    curr.resize(short.len() + 1, 0);
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(prev, curr);
    }
    prev[short.len()]
}

/// Levenshtein similarity in `[0, 1]`: `1 − dist / max_len`. Two empty
/// strings are identical (1.0).
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = if a.is_ascii() && b.is_ascii() {
        a.len().max(b.len())
    } else {
        a.chars().count().max(b.chars().count())
    };
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`, over unicode scalar values. The
/// bookkeeping lives in thread-local scratch: on identifier-length tokens,
/// allocating it per call costs about twice the comparison itself.
pub fn jaro(a: &str, b: &str) -> f64 {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.chars_a.clear();
        s.chars_a.extend(a.chars());
        s.chars_b.clear();
        s.chars_b.extend(b.chars());
        let (a, b) = (&s.chars_a, &s.chars_b);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let b_used = &mut s.b_used;
        let matches_a = &mut s.matches_a;
        b_used.clear();
        b_used.resize(b.len(), false);
        matches_a.clear();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches_a.push(ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let matches_b = b
            .iter()
            .zip(b_used.iter())
            .filter(|(_, &u)| u)
            .map(|(c, _)| c);
        let transpositions = matches_a
            .iter()
            .zip(matches_b)
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    })
}

/// Jaro-Winkler similarity: Jaro boosted by common prefix (scaling 0.1,
/// prefix capped at 4), the standard parameterisation.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Character n-gram Dice coefficient: `2·|Ga ∩ Gb| / (|Ga| + |Gb|)` over the
/// multiset-collapsed n-gram sets. COMA's "trigram" matcher is
/// `ngram_dice(a, b, 3)`.
pub fn ngram_dice(a: &str, b: &str, n: usize) -> f64 {
    assert!(n > 0, "n-gram size must be positive");
    let ga = ngrams(a, n);
    let gb = ngrams(b, n);
    if ga.is_empty() && gb.is_empty() {
        return if a == b { 1.0 } else { 0.0 };
    }
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let inter = ga.intersection(&gb).count();
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

fn ngrams(s: &str, n: usize) -> FxHashSet<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < n {
        return FxHashSet::default();
    }
    chars.windows(n).map(|w| w.iter().collect()).collect()
}

/// Jaccard similarity of two token slices (as sets). Token lists here are
/// short (identifier tokens), so instead of materialising two `HashSet`s
/// per call this hashes each token once into thread-local scratch and
/// sort-merges the `u64`s: sort, dedup, then a linear merge counts the
/// intersection — no allocation, and every comparison is one integer op
/// instead of a string walk. Hash equality stands in for token equality,
/// exactly as the MinHash profile layer already assumes for `hash_str`.
pub fn jaccard_tokens<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let ia = &mut s.idx_a;
        let ib = &mut s.idx_b;
        sorted_distinct_hashes(a, ia);
        sorted_distinct_hashes(b, ib);
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < ia.len() && j < ib.len() {
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = ia.len() + ib.len() - inter;
        inter as f64 / union as f64
    })
}

/// Retained scalar reference for [`jaccard_tokens`]: the original
/// two-`HashSet` implementation.
pub fn jaccard_tokens_scalar<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let sa: FxHashSet<&str> = a.iter().map(AsRef::as_ref).collect();
    let sb: FxHashSet<&str> = b.iter().map(AsRef::as_ref).collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// Fills `out` with the sorted, deduplicated 64-bit token hashes of `v` —
/// the token *set* as cheap-to-compare integers, no strings copied. Treats
/// hash equality as token identity, the same standing assumption the
/// MinHash profile layer makes for `hash_str` (a 2⁻⁶⁴ collision folds two
/// tokens into one).
fn sorted_distinct_hashes<S: AsRef<str>>(v: &[S], out: &mut Vec<u64>) {
    out.clear();
    out.extend(v.iter().map(|s| hash_str(s.as_ref())));
    out.sort_unstable();
    out.dedup();
}

/// Monge-Elkan similarity: for each token in `a`, the best
/// [`jaro_winkler`] match in `b`, averaged; symmetrised by taking the mean
/// of both directions.
pub fn monge_elkan<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    fn directed<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        a.iter()
            .map(|ta| {
                b.iter()
                    .map(|tb| jaro_winkler(ta.as_ref(), tb.as_ref()))
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / a.len() as f64
    }
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    (directed(a, b) + directed(b, a)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("country", "country"), 0);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        assert_eq!(levenshtein("postal", "zip"), levenshtein("zip", "postal"));
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn levenshtein_fast_paths_match_scalar() {
        let cases = [
            ("", ""),
            ("a", ""),
            ("", "b"),
            ("kitten", "sitting"),
            ("customer_id", "cust_id"),
            ("x", "a-much-longer-identifier-name"),
            // >64-char pair: exercises the two-row byte DP path
            (
                "this_is_a_very_long_identifier_name_that_exceeds_sixty_four_characters_total",
                "this_is_a_very_long_identifer_nam_that_exceeds_sixty_four_characters_totale",
            ),
            // exactly-64-char pattern boundary
            (
                "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab",
                "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            ),
        ];
        for (a, b) in cases {
            assert_eq!(
                levenshtein(a, b),
                levenshtein_scalar(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let s = normalized_levenshtein("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.9444444444).abs() < 1e-6);
        assert!((jaro("dixon", "dicksonx") - 0.7666666666).abs() < 1e-6);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_prefers_shared_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.9611111111).abs() < 1e-6);
        assert!(jaro_winkler("prefix_a", "prefix_b") > jaro("prefix_a", "prefix_b"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn ngram_dice_behaviour() {
        assert_eq!(ngram_dice("night", "night", 3), 1.0);
        assert!(ngram_dice("night", "nacht", 3) < 0.5);
        assert_eq!(ngram_dice("ab", "ab", 3), 1.0, "both too short but equal");
        assert_eq!(ngram_dice("ab", "cd", 3), 0.0);
        assert_eq!(ngram_dice("ab", "abcdef", 3), 0.0, "one side too short");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ngram_dice_rejects_zero_n() {
        let _ = ngram_dice("a", "b", 0);
    }

    #[test]
    fn jaccard_tokens_behaviour() {
        assert_eq!(jaccard_tokens(&["a", "b"], &["b", "a"]), 1.0);
        assert_eq!(jaccard_tokens(&["a"], &["b"]), 0.0);
        assert_eq!(jaccard_tokens::<&str>(&[], &[]), 1.0);
        let s = jaccard_tokens(&["a", "b", "c"], &["b", "c", "d"]);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_tokens_matches_scalar_with_duplicates() {
        let cases: [(&[&str], &[&str]); 5] = [
            (&["a", "a", "b"], &["b", "b", "a"]),
            (&["x"], &[]),
            (&[], &["y", "y"]),
            (&["customer", "id"], &["id", "customer", "id"]),
            (&["ä", "b"], &["b", "ä"]), // non-ASCII tokens sort fine too
        ];
        for (a, b) in cases {
            assert_eq!(
                jaccard_tokens(a, b),
                jaccard_tokens_scalar(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn monge_elkan_behaviour() {
        assert_eq!(monge_elkan(&["last", "name"], &["name", "last"]), 1.0);
        assert!(monge_elkan(&["last", "name"], &["surname"]) > 0.0);
        assert_eq!(monge_elkan::<&str>(&[], &[]), 1.0);
        assert_eq!(monge_elkan(&["a"], &[] as &[&str]), 0.0);
        // symmetry
        let ab = monge_elkan(&["postal", "code"], &["zip"]);
        let ba = monge_elkan(&["zip"], &["postal", "code"]);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn all_measures_stay_in_unit_interval() {
        let cases = [
            ("", ""),
            ("a", ""),
            ("short", "a much longer string entirely"),
            ("ID", "id"),
            ("ärger", "anger"),
        ];
        for (a, b) in cases {
            for s in [
                normalized_levenshtein(a, b),
                jaro(a, b),
                jaro_winkler(a, b),
                ngram_dice(a, b, 2),
                ngram_dice(a, b, 3),
            ] {
                assert!((0.0..=1.0).contains(&s), "{a:?} vs {b:?} gave {s}");
            }
        }
    }
}
