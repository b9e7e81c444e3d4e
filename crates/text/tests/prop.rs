//! Property-based tests for the linguistic utilities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use valentine_text::{
    abbreviate, drop_vowels, jaro, jaro_winkler, levenshtein, ngram_dice, normalized_levenshtein,
    tokenize_identifier, KeyboardTypoModel,
};

proptest! {
    #[test]
    fn levenshtein_triangle_inequality(
        a in "[a-z]{0,12}",
        b in "[a-z]{0,12}",
        c in "[a-z]{0,12}",
    ) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn levenshtein_identity_and_symmetry(a in ".{0,15}", b in ".{0,15}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn similarity_measures_bounded(a in ".{0,20}", b in ".{0,20}") {
        for s in [
            normalized_levenshtein(&a, &b),
            jaro(&a, &b),
            jaro_winkler(&a, &b),
            ngram_dice(&a, &b, 3),
        ] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{:?} {:?} -> {}", a, b, s);
        }
    }

    #[test]
    fn jaro_symmetry(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        prop_assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn tokenizer_output_is_lowercase_nonempty(name in ".{0,30}") {
        for t in tokenize_identifier(&name) {
            prop_assert!(!t.is_empty());
            prop_assert_eq!(t.clone(), t.to_lowercase());
        }
    }

    #[test]
    fn tokenizer_roundtrip_on_snake_case(
        tokens in proptest::collection::vec("[a-z]{1,8}", 1..5),
    ) {
        let name = tokens.join("_");
        prop_assert_eq!(tokenize_identifier(&name), tokens);
    }

    #[test]
    fn vowel_drop_is_subsequence(name in "[a-z]{0,20}") {
        let dropped = drop_vowels(&name);
        // dropped must be a subsequence of the original
        let mut it = name.chars();
        for ch in dropped.chars() {
            prop_assert!(it.any(|c| c == ch));
        }
    }

    #[test]
    fn abbreviation_never_longer(name in "[a-z_]{0,24}") {
        prop_assert!(abbreviate(&name).chars().count() <= name.chars().count().max(4));
    }

    #[test]
    fn typos_stay_close(word in "[a-z]{2,15}", seed in any::<u64>()) {
        let model = KeyboardTypoModel::new(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = model.corrupt(&word, &mut rng);
        prop_assert!(levenshtein(&word, &out) <= 2);
        let len = out.chars().count() as i64 - word.chars().count() as i64;
        prop_assert!(len.abs() <= 1, "one edit changes length by at most 1");
    }
}

// ── Optimized-kernel ↔ scalar-reference equivalence ─────────────────────
//
// Every fast path in `similarity` (ASCII two-row DP, Myers bit-parallel
// Levenshtein, hashed token Jaccard) must agree with the retained scalar
// reference. Integer kernels agree exactly; token Jaccard agrees
// bit-for-bit because the fast path computes the same counts before any
// float arithmetic happens. Inputs deliberately mix empty strings,
// non-ASCII text (forcing the fallback), and lengths straddling the Myers
// 64-char boundary.

use valentine_text::{jaccard_tokens, jaccard_tokens_scalar, levenshtein_scalar};

proptest! {
    #[test]
    fn levenshtein_matches_scalar_reference(a in ".{0,20}", b in ".{0,20}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_scalar(&a, &b));
    }

    #[test]
    fn levenshtein_matches_scalar_across_myers_boundary(
        a in "[ -~]{0,80}",
        b in "[ -~]{0,80}",
    ) {
        // printable-ASCII inputs up to 80 chars cover needle lengths on
        // both sides of the 64-bit Myers word
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_scalar(&a, &b));
    }

    #[test]
    fn jaccard_tokens_matches_scalar_reference(
        a in proptest::collection::vec("[a-z0-9_]{0,8}", 0..10),
        b in proptest::collection::vec("[a-z0-9_]{0,8}", 0..10),
    ) {
        prop_assert_eq!(jaccard_tokens(&a, &b), jaccard_tokens_scalar(&a, &b));
    }
}
