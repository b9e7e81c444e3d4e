//! Linguistic utilities for schema matching.
//!
//! Every matcher in Valentine leans on string processing somewhere:
//!
//! * [`similarity`] — the classic string similarity measures (Levenshtein,
//!   Jaro-Winkler, n-gram Dice, token Jaccard, Monge-Elkan);
//! * [`tokenize`] — identifier tokenisation (snake_case / camelCase / digit
//!   boundaries) plus abbreviation expansion, as Cupid's linguistic matching
//!   prescribes;
//! * [`noise`] — the paper's schema-noise transformations (table-name
//!   prefixing, abbreviation, vowel dropping) and the keyboard-proximity typo
//!   model used for instance noise;
//! * [`thesaurus`] — a bundled mini-WordNet: curated synonym sets with an
//!   is-a hierarchy covering the vocabulary of every dataset generator in the
//!   workspace. Cupid and COMA use it to bridge renamed columns exactly the
//!   way the original systems used WordNet.

#![warn(missing_docs)]

pub mod noise;
pub mod similarity;
pub mod thesaurus;
pub mod tokenize;

pub use noise::{abbreviate, drop_vowels, prefix_with_table, KeyboardTypoModel};
pub use similarity::{
    jaccard_tokens, jaccard_tokens_scalar, jaro, jaro_winkler, levenshtein, levenshtein_scalar,
    monge_elkan, ngram_dice, normalized_levenshtein,
};
pub use thesaurus::Thesaurus;
pub use tokenize::{expand_abbreviation, tokenize_identifier};
