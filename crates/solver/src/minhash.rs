//! MinHash signatures.
//!
//! SemProp's syntactic stage estimates value-set overlap with MinHash
//! (following Aurum's profile index). A signature is the element-wise
//! minimum of `k` independent hash permutations; the fraction of agreeing
//! components estimates the Jaccard similarity of the underlying sets.
//!
//! # Kernel layout
//!
//! Signature generation is one of the hot kernels named by `trace report`
//! (index ingest hashes every distinct value of every column through `k`
//! permutations). Each item is hashed once, then one plain loop sweeps the
//! `k` permutation slots; the slots are independent, so the compiler
//! vectorizes that loop as it stands. [`MinHasher::signature_many`] reuses
//! one hash buffer across a batch of sets. Signatures and the Jaccard
//! estimate have one implementation each: lane-chunked variants measured no
//! faster than these loops (DESIGN.md §15).

use valentine_table::fxhash::hash_str;

/// The xor-multiply permutation mixer.
const MIX: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A MinHash signature generator with `k` fixed permutations.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

/// A computed signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u64>);

impl MinHasher {
    /// Creates a hasher with `k` permutations derived deterministically from
    /// `seed` via SplitMix64.
    pub fn new(k: usize, seed: u64) -> MinHasher {
        assert!(k > 0, "need at least one permutation");
        let mut state = seed;
        let seeds = (0..k)
            .map(|_| {
                // SplitMix64 step
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        MinHasher { seeds }
    }

    /// Number of permutations.
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Computes the signature of a set of string items. An empty set yields
    /// the all-`u64::MAX` signature.
    pub fn signature<S: AsRef<str>, I: IntoIterator<Item = S>>(&self, items: I) -> Signature {
        let hashes: Vec<u64> = items.into_iter().map(|s| hash_str(s.as_ref())).collect();
        self.signature_of_hashes(&hashes)
    }

    /// Computes one signature per item set, reusing a single hash buffer
    /// across the whole batch. This is the ingest-path entry point: index
    /// builds and streaming profile updates hand every column of a table
    /// through here so the per-set allocation cost amortises away.
    pub fn signature_many<S, I, B>(&self, sets: B) -> Vec<Signature>
    where
        S: AsRef<str>,
        I: IntoIterator<Item = S>,
        B: IntoIterator<Item = I>,
    {
        let mut hashes: Vec<u64> = Vec::new();
        sets.into_iter()
            .map(|set| {
                hashes.clear();
                hashes.extend(set.into_iter().map(|s| hash_str(s.as_ref())));
                self.signature_of_hashes(&hashes)
            })
            .collect()
    }

    /// The signature kernel: the element-wise minimum of every permutation
    /// over pre-hashed items.
    fn signature_of_hashes(&self, hashes: &[u64]) -> Signature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for &h in hashes {
            for (slot, &seed) in sig.iter_mut().zip(&self.seeds) {
                *slot = (*slot).min((h ^ seed).wrapping_mul(MIX));
            }
        }
        Signature(sig)
    }

    /// Estimated Jaccard similarity of two signatures.
    ///
    /// # Panics
    /// In debug builds, panics if the signatures have different lengths or
    /// do not match this hasher's `k` (they came from hashers with a
    /// different configuration). Release builds skip the check — this is a
    /// re-rank hot path — so callers must uphold the same contract; a
    /// mismatched pair silently estimates over the shorter prefix.
    pub fn jaccard(&self, a: &Signature, b: &Signature) -> f64 {
        debug_assert_eq!(a.0.len(), b.0.len(), "signatures must have equal length");
        debug_assert_eq!(
            a.0.len(),
            self.seeds.len(),
            "signature does not match hasher"
        );
        let agree = a.0.iter().zip(&b.0).filter(|(x, y)| x == y).count();
        agree as f64 / self.seeds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_sets_estimate_one() {
        let mh = MinHasher::new(128, 7);
        let a = mh.signature(set(&["x", "y", "z"]));
        let b = mh.signature(set(&["z", "y", "x"]));
        assert_eq!(mh.jaccard(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let mh = MinHasher::new(256, 7);
        let a = mh.signature((0..100).map(|i| format!("a{i}")));
        let b = mh.signature((0..100).map(|i| format!("b{i}")));
        assert!(mh.jaccard(&a, &b) < 0.05);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let mh = MinHasher::new(512, 42);
        // |A ∩ B| = 50, |A ∪ B| = 150 → J = 1/3
        let a = mh.signature((0..100).map(|i| format!("v{i}")));
        let b = mh.signature((50..150).map(|i| format!("v{i}")));
        let est = mh.jaccard(&a, &b);
        assert!((est - 1.0 / 3.0).abs() < 0.08, "estimate {est}");
    }

    #[test]
    fn empty_set_signature() {
        let mh = MinHasher::new(16, 1);
        let empty = mh.signature(Vec::<String>::new());
        assert!(empty.0.iter().all(|&v| v == u64::MAX));
        // two empty sets agree fully (degenerate, acceptable)
        assert_eq!(mh.jaccard(&empty, &empty), 1.0);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = MinHasher::new(64, 9).signature(set(&["p", "q"]));
        let b = MinHasher::new(64, 9).signature(set(&["p", "q"]));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MinHasher::new(64, 1).signature(set(&["p", "q"]));
        let b = MinHasher::new(64, 2).signature(set(&["p", "q"]));
        assert_ne!(a, b);
    }

    #[test]
    fn signature_many_matches_one_at_a_time() {
        let mh = MinHasher::new(96, 5);
        let sets: Vec<Vec<String>> = (0..6)
            .map(|s| (0..20 + s).map(|i| format!("s{s}v{i}")).collect())
            .collect();
        let batched = mh.signature_many(sets.iter().map(|s| s.iter()));
        for (sig, set) in batched.iter().zip(&sets) {
            assert_eq!(sig, &mh.signature(set));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "equal length")]
    fn mismatched_signatures_panic() {
        let m1 = MinHasher::new(8, 1);
        let m2 = MinHasher::new(16, 1);
        let a = m1.signature(set(&["x"]));
        let b = m2.signature(set(&["x"]));
        let _ = m1.jaccard(&a, &b);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_permutations_panic() {
        let _ = MinHasher::new(0, 1);
    }
}
