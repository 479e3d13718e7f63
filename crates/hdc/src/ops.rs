//! Free functions over sets of hypervectors: multi-way binding and bundling.

use crate::bipolar::BipolarVector;

/// Tie-breaking policy for [`bundle`] when the number of inputs is even and
/// an element sums to exactly zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Break ties by element-index parity (deterministic, unbiased in
    /// aggregate). This is the default.
    #[default]
    Parity,
    /// Resolve ties toward `+1`.
    Positive,
    /// Resolve ties toward `-1`.
    Negative,
}

/// Binds (element-wise multiplies) all vectors in the slice.
///
/// An empty slice has no well-defined dimension, so at least one vector is
/// required. A single vector binds to itself-identity (returns a clone).
///
/// # Panics
///
/// Panics if `vectors` is empty or dimensions disagree.
///
/// # Example
///
/// ```
/// use hdc::{bind_all, BipolarVector, rng::rng_from_seed};
/// let mut rng = rng_from_seed(0);
/// let xs: Vec<_> = (0..3).map(|_| BipolarVector::random(256, &mut rng)).collect();
/// let product = bind_all(&xs);
/// // Unbinding two of the three factors recovers the third.
/// assert_eq!(product.bind(&xs[0]).bind(&xs[1]), xs[2]);
/// ```
pub fn bind_all(vectors: &[BipolarVector]) -> BipolarVector {
    assert!(!vectors.is_empty(), "bind_all needs at least one vector");
    let mut acc = vectors[0].clone();
    for v in &vectors[1..] {
        acc = acc.bind(v);
    }
    acc
}

/// Bundles (majority-superposes) all vectors in the slice: each output
/// element is the sign of the element-wise sum, with ties resolved per
/// `tie_break`.
///
/// # Panics
///
/// Panics if `vectors` is empty or dimensions disagree.
pub fn bundle(vectors: &[BipolarVector], tie_break: TieBreak) -> BipolarVector {
    assert!(!vectors.is_empty(), "bundle needs at least one vector");
    let dim = vectors[0].dim();
    let mut sums = vec![0i32; dim];
    for v in vectors {
        assert_eq!(v.dim(), dim, "bundle dimension mismatch");
        for (i, s) in sums.iter_mut().enumerate() {
            *s += v.sign(i) as i32;
        }
    }
    let mut out = BipolarVector::neg_ones(dim);
    for (i, &s) in sums.iter().enumerate() {
        let positive = match s.cmp(&0) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => match tie_break {
                TieBreak::Parity => i % 2 == 0,
                TieBreak::Positive => true,
                TieBreak::Negative => false,
            },
        };
        if positive {
            out.set(i, 1);
        }
    }
    out
}

/// Computes the pre-sign projection sums `Σ_j w_j · x_j` per element.
///
/// This is the analog quantity on the bit lines of the projection crossbar
/// before re-binarization; [`weighted_bundle`] is its signed counterpart.
/// Allocates the output; [`weighted_sums_into`] is the scratch-reusing
/// variant the resonator hot path calls.
///
/// # Panics
///
/// Panics if lengths disagree or `vectors` is empty.
pub fn weighted_sums(vectors: &[BipolarVector], weights: &[f64]) -> Vec<f64> {
    assert!(
        !vectors.is_empty(),
        "weighted_sums needs at least one vector"
    );
    let mut sums = vec![0.0f64; vectors[0].dim()];
    weighted_sums_into(vectors, weights, &mut sums);
    sums
}

/// Allocation-free [`weighted_sums`]: writes the `D` pre-sign projection
/// sums into `out`.
///
/// Zero-weight vectors are skipped; active vectors contribute `+w` on set
/// bits only and the signed sum is recovered as `2·acc − Σ w` per element
/// (the same kernel shape as
/// [`crate::packed::PackedCodebook::weighted_sums_into`]).
///
/// # Panics
///
/// Panics if lengths disagree, `vectors` is empty, or `out.len()` is not
/// the common dimension.
pub fn weighted_sums_into(vectors: &[BipolarVector], weights: &[f64], out: &mut [f64]) {
    assert!(
        !vectors.is_empty(),
        "weighted_sums needs at least one vector"
    );
    assert_eq!(
        vectors.len(),
        weights.len(),
        "weighted_sums: {} vectors vs {} weights",
        vectors.len(),
        weights.len()
    );
    let dim = vectors[0].dim();
    assert_eq!(out.len(), dim, "weighted_sums output length mismatch");
    out.fill(0.0);
    let mut total = 0.0f64;
    for (v, &w) in vectors.iter().zip(weights) {
        assert_eq!(v.dim(), dim, "weighted_sums dimension mismatch");
        total += w;
        if w == 0.0 {
            continue;
        }
        crate::packed::accumulate_set_bits(v.words(), w, out);
    }
    for o in out.iter_mut() {
        *o = 2.0 * *o - total;
    }
}

/// Bundles with per-vector integer weights (e.g. similarity scores), taking
/// the sign of `Σ_j w_j · x_j` per element.
///
/// This is exactly the *projection* step `sign(X·a)` of the resonator
/// network when `w` holds the (possibly noisy, quantized) similarities,
/// and shares the bit-sliced integer sign kernel of
/// [`crate::packed::PackedCodebook::try_project_signs_into`] (the `f64`
/// sums where that kernel is not proven exact).
///
/// # Panics
///
/// Panics if lengths disagree or `vectors` is empty.
pub fn weighted_bundle(vectors: &[BipolarVector], weights: &[f64]) -> BipolarVector {
    assert!(
        !vectors.is_empty(),
        "weighted_sums needs at least one vector"
    );
    assert_eq!(
        vectors.len(),
        weights.len(),
        "weighted_sums: {} vectors vs {} weights",
        vectors.len(),
        weights.len()
    );
    let dim = vectors[0].dim();
    assert!(
        vectors.iter().all(|v| v.dim() == dim),
        "weighted_sums dimension mismatch"
    );
    let mut out = BipolarVector::ones(dim);
    if !crate::packed::project_signs_exact(|j| vectors[j].words(), weights, &mut out) {
        out.assign_signs_of_reals(&weighted_sums(vectors, weights));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn bind_all_single_is_identity() {
        let mut rng = rng_from_seed(10);
        let a = BipolarVector::random(128, &mut rng);
        assert_eq!(bind_all(std::slice::from_ref(&a)), a);
    }

    #[test]
    fn bind_all_matches_pairwise() {
        let mut rng = rng_from_seed(11);
        let xs: Vec<_> = (0..4)
            .map(|_| BipolarVector::random(128, &mut rng))
            .collect();
        let expect = xs[0].bind(&xs[1]).bind(&xs[2]).bind(&xs[3]);
        assert_eq!(bind_all(&xs), expect);
    }

    #[test]
    fn bundle_majority_of_three() {
        let a = BipolarVector::from_signs(&[1, 1, -1, -1]);
        let b = BipolarVector::from_signs(&[1, -1, 1, -1]);
        let c = BipolarVector::from_signs(&[1, -1, -1, 1]);
        let m = bundle(&[a, b, c], TieBreak::Parity);
        assert_eq!(m.to_signs(), vec![1, -1, -1, -1]);
    }

    #[test]
    fn bundle_tie_breaks() {
        let a = BipolarVector::from_signs(&[1, -1]);
        let b = BipolarVector::from_signs(&[-1, 1]);
        let pos = bundle(&[a.clone(), b.clone()], TieBreak::Positive);
        let neg = bundle(&[a.clone(), b.clone()], TieBreak::Negative);
        let par = bundle(&[a, b], TieBreak::Parity);
        assert_eq!(pos.to_signs(), vec![1, 1]);
        assert_eq!(neg.to_signs(), vec![-1, -1]);
        assert_eq!(par.to_signs(), vec![1, -1]);
    }

    #[test]
    fn bundle_preserves_similarity_to_members() {
        let mut rng = rng_from_seed(12);
        let xs: Vec<_> = (0..5)
            .map(|_| BipolarVector::random(2048, &mut rng))
            .collect();
        let m = bundle(&xs, TieBreak::Parity);
        let outsider = BipolarVector::random(2048, &mut rng);
        for x in &xs {
            assert!(m.cosine(x) > 0.2, "member similarity too low");
        }
        assert!(m.cosine(&outsider).abs() < 0.1);
    }

    #[test]
    fn weighted_bundle_dominant_weight_wins() {
        let mut rng = rng_from_seed(13);
        let xs: Vec<_> = (0..3)
            .map(|_| BipolarVector::random(512, &mut rng))
            .collect();
        let w = [10.0, 0.1, 0.1];
        let out = weighted_bundle(&xs, &w);
        assert!(out.cosine(&xs[0]) > 0.9);
    }

    #[test]
    fn weighted_bundle_zero_weights_skip() {
        let mut rng = rng_from_seed(14);
        let xs: Vec<_> = (0..2)
            .map(|_| BipolarVector::random(256, &mut rng))
            .collect();
        let out = weighted_bundle(&xs, &[0.0, 1.0]);
        assert_eq!(out, xs[1]);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn bundle_empty_panics() {
        let _ = bundle(&[], TieBreak::Parity);
    }
}
