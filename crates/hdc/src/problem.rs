//! Factorization problem instances: compose a product vector from one item
//! per codebook; the factorizer must recover the item indices.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bipolar::BipolarVector;
use crate::codebook::Codebook;
use crate::ops::bind_all;

/// Shape of a factorization problem: `F` attributes, each with an `M`-sized
/// codebook of `D`-dimensional item vectors. The paper's Table II calls the
/// codebook size "D"; we use `codebook_size` (`M`) and keep `dim` for the
/// hypervector dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Number of factors (attributes) `F`.
    pub factors: usize,
    /// Codebook size `M` (items per attribute).
    pub codebook_size: usize,
    /// Hypervector dimension `D`.
    pub dim: usize,
}

impl ProblemSpec {
    /// Creates a spec, validating all parameters are positive.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(factors: usize, codebook_size: usize, dim: usize) -> Self {
        assert!(factors > 0, "need at least one factor");
        assert!(codebook_size > 0, "codebook size must be positive");
        assert!(dim > 0, "dimension must be positive");
        Self {
            factors,
            codebook_size,
            dim,
        }
    }

    /// Size of the combinatorial search space, `M^F`, saturating at
    /// `u128::MAX`.
    pub fn search_space(&self) -> u128 {
        (0..self.factors).fold(1u128, |acc, _| {
            acc.saturating_mul(self.codebook_size as u128)
        })
    }
}

/// A concrete factorization problem: codebooks, ground-truth indices, and
/// the composed product vector `s = x₁ ⊙ x₂ ⊙ … ⊙ x_F`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorizationProblem {
    spec: ProblemSpec,
    codebooks: Vec<Codebook>,
    true_indices: Vec<usize>,
    product: BipolarVector,
}

impl FactorizationProblem {
    /// Generates a random problem: random codebooks, random ground truth.
    pub fn random<R: Rng + ?Sized>(spec: ProblemSpec, rng: &mut R) -> Self {
        let codebooks: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, rng))
            .collect();
        let true_indices: Vec<usize> = (0..spec.factors)
            .map(|_| rng.gen_range(0..spec.codebook_size))
            .collect();
        Self::compose(spec, codebooks, true_indices)
    }

    /// Generates a random problem over *shared* codebooks (the codebooks are
    /// fixed hardware contents in H3DFact; only the query changes). The
    /// problem owns a copy of every codebook; callers that keep only the
    /// query and its truth use [`FactorizationProblem::draw_query`], which
    /// draws the identical problem without the copies.
    pub fn with_codebooks<R: Rng + ?Sized>(codebooks: &[Codebook], rng: &mut R) -> Self {
        let (product, true_indices) = Self::draw_query(codebooks, rng);
        Self {
            spec: ProblemSpec::new(codebooks.len(), codebooks[0].len(), codebooks[0].dim()),
            codebooks: codebooks.to_vec(),
            true_indices,
            product,
        }
    }

    /// Draws one problem over shared codebooks and returns only its
    /// product vector and ground-truth indices: the same `rng` draws, the
    /// same bits and the same truth as [`FactorizationProblem::with_codebooks`],
    /// with no codebook copied.
    ///
    /// # Panics
    ///
    /// Panics if `codebooks` is empty or their shapes disagree.
    pub fn draw_query<R: Rng + ?Sized>(
        codebooks: &[Codebook],
        rng: &mut R,
    ) -> (BipolarVector, Vec<usize>) {
        assert!(!codebooks.is_empty(), "need at least one codebook");
        let dim = codebooks[0].dim();
        let m = codebooks[0].len();
        assert!(
            codebooks.iter().all(|c| c.dim() == dim && c.len() == m),
            "codebooks must share shape"
        );
        let true_indices: Vec<usize> = codebooks.iter().map(|_| rng.gen_range(0..m)).collect();
        let mut product = codebooks[0].vector(true_indices[0]).clone();
        for (cb, &i) in codebooks.iter().zip(&true_indices).skip(1) {
            product.bind_assign(cb.vector(i));
        }
        (product, true_indices)
    }

    /// Builds a problem from explicit parts, composing the product vector.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or an index is out of range.
    pub fn compose(spec: ProblemSpec, codebooks: Vec<Codebook>, true_indices: Vec<usize>) -> Self {
        assert_eq!(codebooks.len(), spec.factors, "codebook count != factors");
        assert_eq!(true_indices.len(), spec.factors, "index count != factors");
        for (cb, &idx) in codebooks.iter().zip(&true_indices) {
            assert_eq!(cb.dim(), spec.dim, "codebook dim mismatch");
            assert_eq!(cb.len(), spec.codebook_size, "codebook size mismatch");
            assert!(idx < cb.len(), "true index out of range");
        }
        let selected: Vec<BipolarVector> = codebooks
            .iter()
            .zip(&true_indices)
            .map(|(cb, &i)| cb.vector(i).clone())
            .collect();
        let product = bind_all(&selected);
        Self {
            spec,
            codebooks,
            true_indices,
            product,
        }
    }

    /// Problem shape.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// The attribute codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// Ground-truth item index per factor.
    pub fn true_indices(&self) -> &[usize] {
        &self.true_indices
    }

    /// The composed product (object) vector `s`.
    pub fn product(&self) -> &BipolarVector {
        &self.product
    }

    /// The product vector passed through a binary symmetric channel with
    /// flip probability `p` — models the approximate product produced by a
    /// neural perception frontend.
    pub fn noisy_product<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> BipolarVector {
        self.product.with_flip_noise(p, rng)
    }

    /// Checks a candidate solution for exact recovery of every factor.
    pub fn is_solved_by(&self, indices: &[usize]) -> bool {
        indices == self.true_indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn spec_search_space() {
        assert_eq!(ProblemSpec::new(3, 16, 128).search_space(), 16u128.pow(3));
        assert_eq!(ProblemSpec::new(4, 512, 128).search_space(), 512u128.pow(4));
    }

    #[test]
    fn product_unbinds_to_truth() {
        let mut rng = rng_from_seed(30);
        let p = FactorizationProblem::random(ProblemSpec::new(3, 8, 512), &mut rng);
        // Unbind factors 1 and 2 from the product: must equal factor 0's vector.
        let partial = p
            .product()
            .bind(p.codebooks()[1].vector(p.true_indices()[1]))
            .bind(p.codebooks()[2].vector(p.true_indices()[2]));
        assert_eq!(&partial, p.codebooks()[0].vector(p.true_indices()[0]));
        assert!(p.is_solved_by(p.true_indices()));
    }

    #[test]
    fn with_codebooks_shares_books() {
        let mut rng = rng_from_seed(31);
        let books: Vec<Codebook> = (0..3).map(|_| Codebook::random(8, 256, &mut rng)).collect();
        let p1 = FactorizationProblem::with_codebooks(&books, &mut rng);
        let p2 = FactorizationProblem::with_codebooks(&books, &mut rng);
        assert_eq!(p1.codebooks(), p2.codebooks());
    }

    #[test]
    fn draw_query_matches_with_codebooks() {
        let mut rng = rng_from_seed(34);
        let books: Vec<Codebook> = (0..3).map(|_| Codebook::random(8, 100, &mut rng)).collect();
        for seed in 0..16 {
            let p = FactorizationProblem::with_codebooks(&books, &mut rng_from_seed(seed));
            let (query, truth) = FactorizationProblem::draw_query(&books, &mut rng_from_seed(seed));
            assert_eq!(&query, p.product());
            assert_eq!(truth, p.true_indices());
            let selected: Vec<BipolarVector> = books
                .iter()
                .zip(&truth)
                .map(|(cb, &i)| cb.vector(i).clone())
                .collect();
            assert_eq!(query, bind_all(&selected));
        }
    }

    #[test]
    fn noisy_product_degrades_similarity() {
        let mut rng = rng_from_seed(32);
        let p = FactorizationProblem::random(ProblemSpec::new(2, 4, 4096), &mut rng);
        let noisy = p.noisy_product(0.25, &mut rng);
        let cos = p.product().cosine(&noisy);
        // E[cos] = 1 - 2p = 0.5.
        assert!((cos - 0.5).abs() < 0.1, "cos {cos}");
    }

    #[test]
    #[should_panic(expected = "true index out of range")]
    fn compose_rejects_bad_index() {
        let mut rng = rng_from_seed(33);
        let books = vec![Codebook::random(4, 64, &mut rng)];
        let _ = FactorizationProblem::compose(ProblemSpec::new(1, 4, 64), books, vec![9]);
    }
}
