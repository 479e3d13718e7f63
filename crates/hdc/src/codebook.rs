//! Codebooks of random item vectors and the similarity/projection/cleanup
//! operations the resonator network iterates over.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bipolar::BipolarVector;
use crate::ops::{bundle, TieBreak};
use crate::packed::PackedCodebook;

/// Result of a cleanup (nearest-codevector) query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CleanupHit {
    /// Index of the best-matching codevector.
    pub index: usize,
    /// Raw dot product with the best match, in `[-D, D]`.
    pub dot: i64,
    /// Normalized similarity `dot / D`.
    pub cosine: f64,
}

/// An `M × D` codebook: `M` random bipolar item vectors of dimension `D`.
///
/// One codebook represents one perceptual attribute (shape, color, …); the
/// columns of the paper's matrices `X, C, V, H` are its rows here.
///
/// # Example
///
/// ```
/// use hdc::{Codebook, rng::rng_from_seed};
/// let mut rng = rng_from_seed(42);
/// let cb = Codebook::random(16, 1024, &mut rng);
/// let hit = cb.cleanup(cb.vector(5));
/// assert_eq!(hit.index, 5);
/// assert_eq!(hit.dot, 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codebook {
    dim: usize,
    vectors: Vec<BipolarVector>,
    /// Contiguous packed mirror of `vectors`; all MVM-shaped queries
    /// (similarities, projection, cleanup) route through it. Derived
    /// state: when real serde is re-enabled (the vendored derives are
    /// no-ops today), this field must be skipped on the wire and rebuilt
    /// from `vectors` during deserialization so the mirrors can never
    /// disagree.
    packed: PackedCodebook,
}

impl Codebook {
    /// Generates a codebook of `m` random item vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `dim == 0`.
    pub fn random<R: Rng + ?Sized>(m: usize, dim: usize, rng: &mut R) -> Self {
        assert!(m > 0, "codebook size must be positive");
        let vectors: Vec<BipolarVector> = (0..m).map(|_| BipolarVector::random(dim, rng)).collect();
        let packed = PackedCodebook::from_vectors(&vectors);
        Self {
            dim,
            vectors,
            packed,
        }
    }

    /// Builds a codebook from existing vectors.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions disagree.
    pub fn from_vectors(vectors: Vec<BipolarVector>) -> Self {
        assert!(!vectors.is_empty(), "codebook must be non-empty");
        let dim = vectors[0].dim();
        assert!(
            vectors.iter().all(|v| v.dim() == dim),
            "codebook vectors must share one dimension"
        );
        let packed = PackedCodebook::from_vectors(&vectors);
        Self {
            dim,
            vectors,
            packed,
        }
    }

    /// Borrows the contiguous packed mirror of this codebook (the matrix
    /// kernels behind [`Codebook::similarities`] and
    /// [`Codebook::project`]).
    pub fn packed(&self) -> &PackedCodebook {
        &self.packed
    }

    /// Drops the packed mirror's lane-major half, keeping row-major signs
    /// only — the codebook registry's cold-tier (hot→cold demotion) step.
    /// All operations stay available and value-identical (see
    /// [`PackedCodebook::drop_lane_mirror`]).
    pub fn drop_lane_mirror(&mut self) {
        self.packed.drop_lane_mirror();
    }

    /// Rebuilds the packed mirror's lane-major half from the row-major
    /// signs (no-op when present) — the registry's cold→hot promotion
    /// step. See [`PackedCodebook::materialize_lane_mirror`].
    pub fn materialize_lane_mirror(&mut self) {
        self.packed.materialize_lane_mirror();
    }

    /// True when the packed lane-major mirror is materialized.
    pub fn has_lane_mirror(&self) -> bool {
        self.packed.has_lane_mirror()
    }

    /// Heap bytes resident in the packed mirrors (row-major words plus
    /// the lane-major mirror when materialized). The per-vector
    /// [`Codebook::vectors`] storage is not counted — it is shared
    /// algebra state, not tiered kernel state.
    pub fn packed_bytes(&self) -> usize {
        self.packed.row_bytes() + self.packed.lane_mirror_bytes()
    }

    /// Number of item vectors `M`.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Always false: codebooks are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Hypervector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the `i`-th item vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn vector(&self, i: usize) -> &BipolarVector {
        &self.vectors[i]
    }

    /// Borrows all item vectors.
    pub fn vectors(&self) -> &[BipolarVector] {
        &self.vectors
    }

    /// Iterates over the item vectors.
    pub fn iter(&self) -> std::slice::Iter<'_, BipolarVector> {
        self.vectors.iter()
    }

    /// Similarity step of the resonator: `a = Xᵀ q`, the vector of dot
    /// products between the query and every codevector. `a[j] ∈ [-D, D]`.
    /// Routed through the packed matrix kernel; use
    /// [`Codebook::similarities_into`] to reuse an output buffer.
    pub fn similarities(&self, query: &BipolarVector) -> Vec<i64> {
        let mut out = vec![0i64; self.vectors.len()];
        self.packed.similarities_i64_into(query, &mut out);
        out
    }

    /// Allocation-free similarity MVM as `f64` (values are exact integers):
    /// writes the `M` dot products into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()` or the query dimension differs.
    pub fn similarities_into(&self, query: &BipolarVector, out: &mut [f64]) {
        self.packed.similarities_into(query, out);
    }

    /// Projection step of the resonator: `sign(X a)` — superposes the
    /// codevectors weighted by (possibly noisy / quantized) similarities and
    /// re-binarizes. Routed through the packed sign kernel
    /// ([`PackedCodebook::project_signs_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn project(&self, weights: &[f64]) -> BipolarVector {
        let mut out = BipolarVector::ones(self.dim);
        self.packed
            .project_signs_into(weights, &mut vec![0.0f64; self.dim], &mut out);
        out
    }

    /// Unweighted superposition of all codevectors; the standard resonator
    /// initial estimate (every candidate in superposition).
    pub fn superposition(&self) -> BipolarVector {
        bundle(&self.vectors, TieBreak::Parity)
    }

    /// Nearest codevector to `query` by dot product.
    pub fn cleanup(&self, query: &BipolarVector) -> CleanupHit {
        let (index, dot) = (0..self.vectors.len())
            .map(|i| (i, self.packed.dot_row(i, query)))
            .max_by_key(|&(_, d)| d)
            .expect("codebook is non-empty");
        CleanupHit {
            index,
            dot,
            cosine: dot as f64 / self.dim as f64,
        }
    }

    /// Nearest codevector by **absolute** dot product.
    ///
    /// Factorization has a global sign symmetry: negating an even number of
    /// factor estimates leaves the composed product unchanged, so a
    /// resonator may converge onto `−x_i` for some factors. The item
    /// *index* is still unambiguous — it is the codevector with the largest
    /// `|dot|` — which is how the engines decode estimates. The returned
    /// `dot`/`cosine` keep their sign.
    pub fn cleanup_abs(&self, query: &BipolarVector) -> CleanupHit {
        let (index, dot) = (0..self.vectors.len())
            .map(|i| (i, self.packed.dot_row(i, query)))
            .max_by_key(|&(_, d)| d.abs())
            .expect("codebook is non-empty");
        CleanupHit {
            index,
            dot,
            cosine: dot as f64 / self.dim as f64,
        }
    }

    /// Largest absolute pairwise cosine between distinct codevectors: a
    /// measure of quasi-orthogonality (≈ `O(1/sqrt(D))` for random books).
    pub fn max_cross_coherence(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.vectors.len() {
            for j in (i + 1)..self.vectors.len() {
                max = max.max(self.vectors[i].cosine(&self.vectors[j]).abs());
            }
        }
        max
    }
}

impl<'a> IntoIterator for &'a Codebook {
    type Item = &'a BipolarVector;
    type IntoIter = std::slice::Iter<'a, BipolarVector>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn cleanup_finds_exact_member() {
        let mut rng = rng_from_seed(20);
        let cb = Codebook::random(32, 512, &mut rng);
        for i in [0usize, 7, 31] {
            let hit = cb.cleanup(cb.vector(i));
            assert_eq!(hit.index, i);
            assert_eq!(hit.dot, 512);
            assert!((hit.cosine - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cleanup_tolerates_noise() {
        let mut rng = rng_from_seed(21);
        let cb = Codebook::random(64, 2048, &mut rng);
        let noisy = cb.vector(9).with_flip_noise(0.2, &mut rng);
        assert_eq!(cb.cleanup(&noisy).index, 9);
    }

    #[test]
    fn similarities_match_individual_dots() {
        let mut rng = rng_from_seed(22);
        let cb = Codebook::random(8, 256, &mut rng);
        let q = BipolarVector::random(256, &mut rng);
        let sims = cb.similarities(&q);
        for (j, s) in sims.iter().enumerate() {
            assert_eq!(*s, cb.vector(j).dot(&q));
        }
    }

    #[test]
    fn project_one_hot_recovers_codevector() {
        let mut rng = rng_from_seed(23);
        let cb = Codebook::random(16, 512, &mut rng);
        let mut w = vec![0.0; 16];
        w[4] = 1.0;
        assert_eq!(cb.project(&w), *cb.vector(4));
    }

    #[test]
    fn superposition_is_similar_to_all_members() {
        let mut rng = rng_from_seed(24);
        let cb = Codebook::random(4, 4096, &mut rng);
        let sup = cb.superposition();
        for v in &cb {
            assert!(sup.cosine(v) > 0.2);
        }
    }

    #[test]
    fn coherence_is_small_for_random_books() {
        let mut rng = rng_from_seed(25);
        let cb = Codebook::random(16, 4096, &mut rng);
        assert!(cb.max_cross_coherence() < 8.0 / (4096f64).sqrt());
    }

    #[test]
    fn from_vectors_roundtrip() {
        let mut rng = rng_from_seed(26);
        let vs: Vec<_> = (0..3)
            .map(|_| BipolarVector::random(128, &mut rng))
            .collect();
        let cb = Codebook::from_vectors(vs.clone());
        assert_eq!(cb.len(), 3);
        assert_eq!(cb.dim(), 128);
        assert_eq!(cb.vectors(), vs.as_slice());
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn from_vectors_rejects_mixed_dims() {
        let _ = Codebook::from_vectors(vec![BipolarVector::ones(64), BipolarVector::ones(65)]);
    }
}
