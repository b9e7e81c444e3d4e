//! Property-based tests for the solver kernels.

use proptest::prelude::*;
use valentine_solver::ilp::Candidate;
use valentine_solver::{
    emd_1d_quantiles, emd_transportation, hungarian_max, max_weight_set_packing, MinHasher,
};

proptest! {
    #[test]
    fn emd_1d_is_a_metric(
        a in proptest::collection::vec(-1e6f64..1e6, 8),
        b in proptest::collection::vec(-1e6f64..1e6, 8),
        c in proptest::collection::vec(-1e6f64..1e6, 8),
    ) {
        let ab = emd_1d_quantiles(&a, &b);
        let ba = emd_1d_quantiles(&b, &a);
        let ac = emd_1d_quantiles(&a, &c);
        let cb = emd_1d_quantiles(&c, &b);
        prop_assert!((ab - ba).abs() < 1e-9, "symmetry");
        prop_assert!(ab >= 0.0, "non-negativity");
        prop_assert!(ab <= ac + cb + 1e-9, "triangle inequality");
        prop_assert!(emd_1d_quantiles(&a, &a) == 0.0, "identity");
    }

    #[test]
    fn transportation_emd_lower_bounded_by_mean_shift(
        a in proptest::collection::vec(0.01f64..1.0, 4),
        b in proptest::collection::vec(0.01f64..1.0, 4),
    ) {
        // Points on a line at positions 0..4; EMD must be ≥ |mean_a - mean_b|.
        let pos = [0.0, 1.0, 2.0, 3.0];
        let dist: Vec<Vec<f64>> = pos
            .iter()
            .map(|&x| pos.iter().map(|&y| f64::abs(x - y)).collect())
            .collect();
        let d = emd_transportation(&a, &b, &dist).unwrap();
        let ma: f64 = pos.iter().zip(&a).map(|(p, w)| p * w).sum::<f64>() / a.iter().sum::<f64>();
        let mb: f64 = pos.iter().zip(&b).map(|(p, w)| p * w).sum::<f64>() / b.iter().sum::<f64>();
        prop_assert!(d + 1e-6 >= (ma - mb).abs(), "EMD {d} < mean shift {}", (ma - mb).abs());
        prop_assert!(d <= 3.0 + 1e-9, "bounded by diameter");
    }

    #[test]
    fn hungarian_beats_or_ties_greedy(
        flat in proptest::collection::vec(0.0f64..1.0, 16),
    ) {
        let scores: Vec<Vec<f64>> = flat.chunks(4).map(<[f64]>::to_vec).collect();
        let a = hungarian_max(&scores).unwrap();
        let opt: f64 = a
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.map(|j| scores[i][j]))
            .sum();
        // greedy baseline
        let mut taken = [false; 4];
        let mut greedy = 0.0;
        for row in &scores {
            let mut best = None;
            for (j, &s) in row.iter().enumerate() {
                if !taken[j] && best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((j, s));
                }
            }
            if let Some((j, s)) = best {
                taken[j] = true;
                greedy += s;
            }
        }
        prop_assert!(opt + 1e-9 >= greedy, "hungarian {opt} < greedy {greedy}");
        // must be a perfect matching on a square matrix
        let mut cols: Vec<usize> = a.iter().filter_map(|x| *x).collect();
        cols.sort_unstable();
        cols.dedup();
        prop_assert_eq!(cols.len(), 4);
    }

    #[test]
    fn set_packing_solution_is_feasible_and_beats_singletons(
        weights in proptest::collection::vec(0.1f64..5.0, 1..12),
        seed in any::<u64>(),
    ) {
        // construct overlapping candidates deterministically from the seed
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cands: Vec<Candidate> = weights
            .iter()
            .map(|&w| {
                let start = (next() % 8) as usize;
                let len = 1 + (next() % 3) as usize;
                Candidate { items: (start..start + len).collect(), weight: w }
            })
            .collect();
        let p = max_weight_set_packing(&cands).unwrap();
        // feasibility: chosen candidates are pairwise disjoint
        let mut items: Vec<usize> = p
            .chosen
            .iter()
            .flat_map(|&c| cands[c].items.clone())
            .collect();
        let n = items.len();
        items.sort_unstable();
        items.dedup();
        prop_assert_eq!(items.len(), n);
        // optimality lower bound: at least the single best candidate
        let best_single = weights.iter().cloned().fold(0.0, f64::max);
        prop_assert!(p.weight + 1e-9 >= best_single);
    }

    #[test]
    fn minhash_estimate_close_to_true_jaccard(
        overlap in 0usize..60,
        extra_a in 1usize..40,
        extra_b in 1usize..40,
    ) {
        let mh = MinHasher::new(512, 1234);
        let a = mh.signature(
            (0..overlap)
                .map(|i| format!("common{i}"))
                .chain((0..extra_a).map(|i| format!("a{i}"))),
        );
        let b = mh.signature(
            (0..overlap)
                .map(|i| format!("common{i}"))
                .chain((0..extra_b).map(|i| format!("b{i}"))),
        );
        let truth = overlap as f64 / (overlap + extra_a + extra_b) as f64;
        let est = mh.jaccard(&a, &b);
        prop_assert!((est - truth).abs() < 0.12, "est {est} vs truth {truth}");
    }
}

// ── Optimized-kernel ↔ scalar-reference equivalence ─────────────────────
//
// The chunked EMD and MinHash kernels must agree with their retained
// scalar references: exactly for the integer MinHash kernels (`min` is
// order-insensitive), within f64-reassociation distance (≤1e-9 relative)
// for the float EMD sums. Lengths deliberately straddle the 8-wide chunk
// boundary, and constant vectors exercise the all-equal degenerate case.

use valentine_solver::{emd_1d_normalized, emd_1d_normalized_scalar, emd_1d_quantiles_scalar};

proptest! {
    #[test]
    fn emd_kernels_match_scalar_reference(
        mut a in proptest::collection::vec(-1e6f64..1e6, 0..33),
        mut b in proptest::collection::vec(-1e6f64..1e6, 0..33),
    ) {
        // trim to a common length: the kernels require equal-length input
        let n = a.len().min(b.len());
        a.truncate(n);
        b.truncate(n);
        let (fast, slow) = (emd_1d_quantiles(&a, &b), emd_1d_quantiles_scalar(&a, &b));
        prop_assert!((fast - slow).abs() <= 1e-9 * slow.abs().max(1.0), "{fast} vs {slow}");
        let (fast, slow) = (emd_1d_normalized(&a, &b), emd_1d_normalized_scalar(&a, &b));
        prop_assert!((fast - slow).abs() <= 1e-9 * slow.abs().max(1.0), "{fast} vs {slow}");
    }

    #[test]
    fn emd_kernels_match_scalar_on_constant_sketches(v in -1e6f64..1e6, n in 0usize..40) {
        let a = vec![v; n];
        prop_assert_eq!(emd_1d_quantiles(&a, &a), emd_1d_quantiles_scalar(&a, &a));
        prop_assert_eq!(emd_1d_normalized(&a, &a), emd_1d_normalized_scalar(&a, &a));
    }

    #[test]
    fn minhash_signature_many_matches_one_at_a_time(
        items in proptest::collection::vec("[a-zA-Z0-9]{0,12}", 0..40),
        other in proptest::collection::vec("[a-zA-Z0-9]{0,12}", 0..40),
        k in 1usize..130,
    ) {
        let mh = MinHasher::new(k, 0xA5);
        let batched = mh.signature_many([items.iter(), other.iter()]);
        prop_assert_eq!(&batched[0], &mh.signature(&items));
        prop_assert_eq!(&batched[1], &mh.signature(&other));
    }
}
