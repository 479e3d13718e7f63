//! Dense bipolar hypervectors, bit-packed 64 elements per word.
//!
//! A [`BipolarVector`] stores `D` elements of `{-1, +1}`; a set bit encodes
//! `+1` and a cleared bit encodes `-1`. All operations keep the padding bits
//! of the last word cleared so that popcount-based arithmetic stays exact.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DimensionMismatch;

/// Number of elements packed into one storage word.
const WORD_BITS: usize = 64;

/// A dense bipolar hypervector `x ∈ {-1,+1}^D`.
///
/// The vector is immutable in spirit: operations return new vectors. Mutating
/// accessors ([`BipolarVector::set`], [`BipolarVector::flip`]) exist for
/// noise-injection code paths in the hardware models.
///
/// # Example
///
/// ```
/// use hdc::BipolarVector;
///
/// let a = BipolarVector::from_signs(&[1, -1, 1, 1]);
/// let b = BipolarVector::from_signs(&[1, 1, -1, 1]);
/// let bound = a.bind(&b);
/// assert_eq!(bound.to_signs(), vec![1, -1, -1, 1]);
/// // Binding is its own inverse: a ⊙ b ⊙ b = a.
/// assert_eq!(bound.bind(&b), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BipolarVector {
    dim: usize,
    words: Vec<u64>,
}

impl BipolarVector {
    /// Creates the all `+1` vector (the binding identity) of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let mut v = Self {
            dim,
            words: vec![u64::MAX; dim.div_ceil(WORD_BITS)],
        };
        v.mask_tail();
        v
    }

    /// Creates the all `-1` vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn neg_ones(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        Self {
            dim,
            words: vec![0u64; dim.div_ceil(WORD_BITS)],
        }
    }

    /// Samples a uniformly random bipolar vector.
    ///
    /// Random *item vectors* drawn this way are quasi-orthogonal in high
    /// dimension: `E[a·b] = 0`, `std(a·b) = sqrt(D)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let mut words: Vec<u64> = (0..dim.div_ceil(WORD_BITS)).map(|_| rng.gen()).collect();
        let tail = dim % WORD_BITS;
        if tail != 0 {
            *words.last_mut().expect("at least one word") &= (1u64 << tail) - 1;
        }
        Self { dim, words }
    }

    /// Builds a vector from explicit signs. Any positive value maps to `+1`,
    /// any non-positive value to `-1`.
    ///
    /// # Panics
    ///
    /// Panics if `signs` is empty.
    #[inline]
    pub fn from_signs(signs: &[i8]) -> Self {
        assert!(!signs.is_empty(), "sign slice must be non-empty");
        let mut words = Vec::with_capacity(signs.len().div_ceil(WORD_BITS));
        for chunk in signs.chunks(WORD_BITS) {
            let mut word = 0u64;
            for (b, &s) in chunk.iter().enumerate() {
                word |= ((s > 0) as u64) << b;
            }
            words.push(word);
        }
        Self {
            dim: signs.len(),
            words,
        }
    }

    /// Builds a vector by taking the sign of each real value; zeros map to
    /// alternating signs by index parity so that thresholding stays unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[inline]
    pub fn from_reals_sign(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "value slice must be non-empty");
        let mut v = Self {
            dim: values.len(),
            words: vec![0u64; values.len().div_ceil(WORD_BITS)],
        };
        v.assign_signs_of_reals(values);
        v
    }

    /// In-place [`BipolarVector::from_reals_sign`]: overwrites every element
    /// with the sign of the corresponding real value (zeros break ties by
    /// index parity). Word-walk: builds each storage word in a register and
    /// stores it once.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim`.
    #[inline]
    pub fn assign_signs_of_reals(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.dim,
            "sign assignment length {} != dim {}",
            values.len(),
            self.dim
        );
        for (wi, chunk) in values.chunks(WORD_BITS).enumerate() {
            let base = wi * WORD_BITS;
            let mut word = 0u64;
            for (b, &x) in chunk.iter().enumerate() {
                let positive = x > 0.0 || (x == 0.0 && (base + b).is_multiple_of(2));
                word |= (positive as u64) << b;
            }
            self.words[wi] = word;
        }
    }

    /// Overwrites `self` with the contents of `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[inline]
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in copy_from: {} vs {}",
            self.dim, other.dim
        );
        self.words.copy_from_slice(&other.words);
    }

    /// In-place [`BipolarVector::bind`]: `self ← self ⊙ other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[inline]
    pub fn bind_assign(&mut self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in bind_assign: {} vs {}",
            self.dim, other.dim
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a = !(*a ^ b);
        }
        self.mask_tail();
    }

    /// Overwrites `self` (of dimension `d`) with bits
    /// `[start, start + d)` of `src` — the row-slice extraction used when a
    /// logical crossbar folds a long vector over physical subarrays. The
    /// word-aligned case (`start % 64 == 0`) is a straight word copy.
    ///
    /// # Panics
    ///
    /// Panics if `start + dim` exceeds `src.dim`.
    pub fn copy_bit_range_from(&mut self, src: &Self, start: usize) {
        assert!(
            start + self.dim <= src.dim,
            "bit range [{start}, {}) out of source dim {}",
            start + self.dim,
            src.dim
        );
        if start.is_multiple_of(WORD_BITS) {
            let w0 = start / WORD_BITS;
            let n = self.words.len();
            self.words.copy_from_slice(&src.words[w0..w0 + n]);
            self.mask_tail();
            return;
        }
        for i in 0..self.dim {
            self.set(i, src.sign(start + i));
        }
    }

    /// The dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the packed words (tail bits beyond `dim` are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutably borrows the packed words. Writers must leave the tail bits
    /// beyond `dim` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Returns the element at `index` as `+1` or `-1`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn sign(&self, index: usize) -> i8 {
        assert!(index < self.dim, "index {index} out of range {}", self.dim);
        if self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Sets the element at `index` to `+1` (`sign > 0`) or `-1`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn set(&mut self, index: usize, sign: i8) {
        assert!(index < self.dim, "index {index} out of range {}", self.dim);
        let bit = 1u64 << (index % WORD_BITS);
        if sign > 0 {
            self.words[index / WORD_BITS] |= bit;
        } else {
            self.words[index / WORD_BITS] &= !bit;
        }
    }

    /// Flips the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn flip(&mut self, index: usize) {
        assert!(index < self.dim, "index {index} out of range {}", self.dim);
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
    }

    /// Unpacks to a `Vec` of `+1`/`-1` signs. Word-walk: loads each storage
    /// word once and shifts bits out of a register.
    #[inline]
    pub fn to_signs(&self) -> Vec<i8> {
        let mut out = Vec::with_capacity(self.dim);
        for (wi, &word) in self.words.iter().enumerate() {
            let limit = WORD_BITS.min(self.dim - wi * WORD_BITS);
            for b in 0..limit {
                out.push(if word >> b & 1 == 1 { 1 } else { -1 });
            }
        }
        out
    }

    /// Element-wise multiplication (VSA *binding*, and also *unbinding*
    /// because every bipolar vector is its own multiplicative inverse).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; use [`BipolarVector::try_bind`] for a
    /// fallible variant.
    pub fn bind(&self, other: &Self) -> Self {
        self.try_bind(other).expect("dimension mismatch in bind")
    }

    /// Fallible [`BipolarVector::bind`].
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when the operand dimensions differ.
    pub fn try_bind(&self, other: &Self) -> Result<Self, DimensionMismatch> {
        if self.dim != other.dim {
            return Err(DimensionMismatch::new(self.dim, other.dim));
        }
        // Bipolar multiply = XNOR on the bit encoding.
        let mut words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| !(a ^ b))
            .collect();
        let tail = self.dim % WORD_BITS;
        if tail != 0 {
            *words.last_mut().expect("at least one word") &= (1u64 << tail) - 1;
        }
        Ok(Self {
            dim: self.dim,
            words,
        })
    }

    /// Dot product `Σ_i a_i · b_i ∈ [-D, D]`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Self) -> i64 {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in dot: {} vs {}",
            self.dim, other.dim
        );
        let disagree: u32 = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        self.dim as i64 - 2 * disagree as i64
    }

    /// Cosine similarity `a·b / D ∈ [-1, 1]` (all bipolar vectors have norm
    /// `sqrt(D)`).
    pub fn cosine(&self, other: &Self) -> f64 {
        self.dot(other) as f64 / self.dim as f64
    }

    /// Hamming distance (number of disagreeing elements).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch in hamming: {} vs {}",
            self.dim, other.dim
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Element-wise negation.
    pub fn negated(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        let tail = self.dim % WORD_BITS;
        if tail != 0 {
            *words.last_mut().expect("at least one word") &= (1u64 << tail) - 1;
        }
        Self {
            dim: self.dim,
            words,
        }
    }

    /// Cyclic permutation `ρ^k`: element `i` of the result is element
    /// `(i + k) mod D` of `self`. `k = 0` is the identity.
    pub fn permuted(&self, k: usize) -> Self {
        let k = k % self.dim;
        if k == 0 {
            return self.clone();
        }
        let mut out = Self::neg_ones(self.dim);
        for i in 0..self.dim {
            if self.sign((i + k) % self.dim) > 0 {
                out.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        out
    }

    /// Inverse of [`BipolarVector::permuted`]: `x.permuted(k).inverse_permuted(k) == x`.
    pub fn inverse_permuted(&self, k: usize) -> Self {
        let k = k % self.dim;
        self.permuted(self.dim - k)
    }

    /// Flips each element independently with probability `p`, modeling a
    /// binary symmetric noise channel (used by the perception frontend and
    /// fault-injection tests).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_flip_noise<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability must be in [0,1]"
        );
        let mut out = self.clone();
        if p == 0.0 {
            return out;
        }
        for i in 0..self.dim {
            if rng.gen::<f64>() < p {
                out.flip(i);
            }
        }
        out
    }

    /// Number of `+1` elements.
    pub fn count_positive(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn mask_tail(&mut self) {
        let tail = self.dim % WORD_BITS;
        if tail != 0 {
            *self.words.last_mut().expect("at least one word") &= (1u64 << tail) - 1;
        }
    }
}

impl fmt::Debug for BipolarVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: String = (0..self.dim.min(16))
            .map(|i| if self.sign(i) > 0 { '+' } else { '-' })
            .collect();
        write!(
            f,
            "BipolarVector(dim={}, [{preview}{}])",
            self.dim,
            if self.dim > 16 { "…" } else { "" }
        )
    }
}

impl fmt::Display for BipolarVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn ones_and_neg_ones_have_expected_signs() {
        let p = BipolarVector::ones(70);
        let n = BipolarVector::neg_ones(70);
        assert!((0..70).all(|i| p.sign(i) == 1));
        assert!((0..70).all(|i| n.sign(i) == -1));
        assert_eq!(p.dot(&p), 70);
        assert_eq!(p.dot(&n), -70);
    }

    #[test]
    fn from_signs_roundtrip() {
        let signs = vec![1i8, -1, -1, 1, 1, -1, 1];
        let v = BipolarVector::from_signs(&signs);
        assert_eq!(v.to_signs(), signs);
    }

    #[test]
    fn bind_is_xnor_and_self_inverse() {
        let mut rng = rng_from_seed(1);
        let a = BipolarVector::random(513, &mut rng);
        let b = BipolarVector::random(513, &mut rng);
        let c = a.bind(&b);
        for i in 0..513 {
            assert_eq!(c.sign(i), a.sign(i) * b.sign(i));
        }
        assert_eq!(c.bind(&b), a);
        assert_eq!(c.bind(&a), b);
    }

    #[test]
    fn bind_identity_is_all_ones() {
        let mut rng = rng_from_seed(2);
        let a = BipolarVector::random(100, &mut rng);
        let id = BipolarVector::ones(100);
        assert_eq!(a.bind(&id), a);
    }

    #[test]
    fn try_bind_rejects_dimension_mismatch() {
        let a = BipolarVector::ones(64);
        let b = BipolarVector::ones(65);
        assert!(a.try_bind(&b).is_err());
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = rng_from_seed(3);
        let a = BipolarVector::random(200, &mut rng);
        let b = BipolarVector::random(200, &mut rng);
        let naive: i64 = (0..200).map(|i| a.sign(i) as i64 * b.sign(i) as i64).sum();
        assert_eq!(a.dot(&b), naive);
        assert_eq!(a.dot(&a), 200);
    }

    #[test]
    fn random_vectors_are_quasi_orthogonal() {
        let mut rng = rng_from_seed(4);
        let d = 4096;
        let a = BipolarVector::random(d, &mut rng);
        let b = BipolarVector::random(d, &mut rng);
        // |cos| should be well below 6/sqrt(D) ≈ 0.094 with overwhelming
        // probability.
        assert!(a.cosine(&b).abs() < 6.0 / (d as f64).sqrt());
    }

    #[test]
    fn permutation_roundtrip_and_shift() {
        let mut rng = rng_from_seed(5);
        let a = BipolarVector::random(130, &mut rng);
        let p = a.permuted(7);
        for i in 0..130 {
            assert_eq!(p.sign(i), a.sign((i + 7) % 130));
        }
        assert_eq!(p.inverse_permuted(7), a);
        assert_eq!(a.permuted(0), a);
        assert_eq!(a.permuted(130), a);
    }

    #[test]
    fn negation_flips_every_sign() {
        let mut rng = rng_from_seed(6);
        let a = BipolarVector::random(99, &mut rng);
        let n = a.negated();
        assert_eq!(a.dot(&n), -99);
        assert_eq!(n.negated(), a);
    }

    #[test]
    fn flip_noise_zero_and_one() {
        let mut rng = rng_from_seed(7);
        let a = BipolarVector::random(256, &mut rng);
        assert_eq!(a.with_flip_noise(0.0, &mut rng), a);
        assert_eq!(a.with_flip_noise(1.0, &mut rng), a.negated());
    }

    #[test]
    fn flip_noise_rate_is_approximate() {
        let mut rng = rng_from_seed(8);
        let a = BipolarVector::random(8192, &mut rng);
        let noisy = a.with_flip_noise(0.1, &mut rng);
        let flips = a.hamming(&noisy) as f64 / 8192.0;
        assert!((flips - 0.1).abs() < 0.02, "flip rate {flips}");
    }

    #[test]
    fn from_reals_sign_thresholds() {
        let v = BipolarVector::from_reals_sign(&[0.5, -0.5, 0.0, 0.0]);
        assert_eq!(v.sign(0), 1);
        assert_eq!(v.sign(1), -1);
        // Ties broken by parity: index 2 positive, index 3 negative.
        assert_eq!(v.sign(2), 1);
        assert_eq!(v.sign(3), -1);
    }

    #[test]
    fn tail_bits_stay_clear() {
        let mut rng = rng_from_seed(9);
        // Dim deliberately not a multiple of 64.
        let a = BipolarVector::random(100, &mut rng);
        let b = BipolarVector::random(100, &mut rng);
        for v in [a.bind(&b), a.negated(), a.permuted(13)] {
            let tail_mask = !((1u64 << (100 % 64)) - 1);
            assert_eq!(v.words().last().unwrap() & tail_mask, 0);
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = BipolarVector::ones(0);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let mut rng = rng_from_seed(40);
        let a = BipolarVector::random(197, &mut rng);
        let b = BipolarVector::random(197, &mut rng);
        let mut scratch = BipolarVector::neg_ones(197);
        scratch.copy_from(&a);
        assert_eq!(scratch, a);
        scratch.bind_assign(&b);
        assert_eq!(scratch, a.bind(&b));
        let tail_mask = !((1u64 << (197 % 64)) - 1);
        assert_eq!(scratch.words().last().unwrap() & tail_mask, 0);
    }

    #[test]
    fn assign_signs_of_reals_matches_constructor() {
        let mut rng = rng_from_seed(41);
        let values: Vec<f64> = (0..300)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    rng.gen::<f64>() - 0.5
                }
            })
            .collect();
        let fresh = BipolarVector::from_reals_sign(&values);
        let mut reused = BipolarVector::random(300, &mut rng);
        reused.assign_signs_of_reals(&values);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn copy_bit_range_aligned_and_unaligned() {
        let mut rng = rng_from_seed(42);
        let src = BipolarVector::random(512, &mut rng);
        let mut aligned = BipolarVector::neg_ones(128);
        aligned.copy_bit_range_from(&src, 256);
        for i in 0..128 {
            assert_eq!(aligned.sign(i), src.sign(256 + i));
        }
        let mut unaligned = BipolarVector::neg_ones(100);
        unaligned.copy_bit_range_from(&src, 37);
        for i in 0..100 {
            assert_eq!(unaligned.sign(i), src.sign(37 + i));
        }
    }
}
