//! The noisy similarity readout: the sequence every software kernel
//! applies to its raw similarities — survival gain, Gaussian read noise,
//! rectification, activation — as one kernel, built once per run or batch.
//!
//! # The skip path
//!
//! Under the paper-default readout (rectified, noise-referenced quantized
//! activation, σ > 0) almost every similarity lands on the same code
//! whatever its noise draw is. A Box–Muller draw has magnitude at most
//! `σ·sqrt(−2 ln u1)`, so its first uniform `u1` alone decides whether it
//! *can* carry a similarity across a code boundary. [`NoisyReadout`]
//! tabulates, for every pre-gain similarity `s ∈ [−D, D]`:
//!
//! - the smallest `u1` above which no draw can change the code of `s`,
//!   with a margin covering every f64 rounding of the reference
//!   arithmetic;
//! - the activated value of `s`.
//!
//! A draw whose `u1` clears the threshold writes the table value without
//! evaluating `ln`, `sqrt` or `cos`; any other draw runs the reference
//! arithmetic on the same two uniforms. Every draw still takes `u1` and
//! then `u2` from the RNG ([`hdc::stats::box_muller_uniforms`]), so the
//! stream position, and with it every later draw, is unchanged. The
//! output is bit-identical to [`NoisyReadout::apply_reference`].
//!
//! The table is built from `s · survival` exactly as the reference
//! computes it, so fault-attenuated arrays stay on the skip path. It is
//! empty, and every element takes the reference path, wherever the skip
//! cannot be proven: an identity or threshold activation, σ = 0, or a
//! quantized activation without rectification (its code 0 keeps the sign
//! of the noisy value, `−0.0` or `+0.0`). A similarity that is not an
//! exact integer in `[−D, D]` takes the reference path on its own.

use rand::Rng;

use crate::activation::Activation;
use hdc::stats::{box_muller, box_muller_uniforms, normal};

/// Relative slack on every distance and radius in the skip table. The
/// reference arithmetic (`ln`, `sqrt`, `cos`, the products, the sum and
/// the quantizer's division) rounds within a few ulps, about `1e-15`
/// relative; this is six orders of magnitude above that.
const MARGIN: f64 = 1e-9;

/// Absolute slack on the `−ln u1` bound: `exp` rounds its result
/// relative to itself, which is an absolute error of about `2.2e-16` in
/// the logarithm.
const LN_SLACK: f64 = 1e-15;

/// Above this `−ln u1` bound every draw clears: `e^−40 < 2^−53`, the
/// smallest `u1` the uniform draw can produce.
const ALWAYS_CLEARS: f64 = 40.0;

/// One skip-table entry.
#[derive(Debug, Clone, Copy)]
struct Settled {
    /// A draw with `u1 > min_u1` cannot change the code (`+∞`: no draw
    /// provably keeps it).
    min_u1: f64,
    /// The activated value of the noise-free, rectified similarity.
    value: f64,
}

/// The post-MVM similarity readout of the software kernels: deterministic
/// survival gain, additive Gaussian noise, optional rectification, then
/// the activation. See the [module docs](self) for the skip path.
#[derive(Debug, Clone)]
pub struct NoisyReadout {
    /// Rows behind each similarity; similarities are integers in
    /// `[−dim, dim]`.
    dim: usize,
    /// Gaussian sigma added to each similarity element, in dot-product
    /// units.
    noise_sigma: f64,
    /// Clip negative similarities to zero before the activation.
    rectify: bool,
    activation: Activation,
    /// Deterministic multiplicative gain on every similarity; `1.0` is
    /// skipped exactly.
    survival: f64,
    /// Skip table indexed by `s + D`; empty when no skip can be proven.
    settled: Vec<Settled>,
}

impl NoisyReadout {
    /// Builds the readout of `dim`-row similarities.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma` is negative or NaN, `survival` is outside
    /// `(0, 1]`, or the activation is malformed
    /// ([`Activation::validate`]).
    pub fn new(
        dim: usize,
        noise_sigma: f64,
        rectify: bool,
        activation: Activation,
        survival: f64,
    ) -> Self {
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        assert!(
            survival > 0.0 && survival <= 1.0,
            "survival must be in (0, 1]"
        );
        activation.validate();
        let mut readout = Self {
            dim,
            noise_sigma,
            rectify,
            activation,
            survival,
            settled: Vec::new(),
        };
        if let (Some(step), Some(max_code)) = (activation.step(), activation.max_code()) {
            if rectify && noise_sigma > 0.0 {
                let d = dim as i64;
                readout.settled = (-d..=d)
                    .map(|s| readout.settle(s as f64, step, max_code))
                    .collect();
            }
        }
        readout
    }

    /// The same readout with a different survival gain (the table is
    /// rebuilt only if the gain changes).
    ///
    /// # Panics
    ///
    /// Panics unless `survival` is in `(0, 1]`.
    pub fn with_survival(self, survival: f64) -> Self {
        if survival == self.survival {
            return self;
        }
        Self::new(
            self.dim,
            self.noise_sigma,
            self.rectify,
            self.activation,
            survival,
        )
    }

    /// Applies the readout in place to raw similarities, drawing one
    /// Gaussian per element from `rng` (none when σ = 0).
    /// Bit-identical to [`Self::apply_reference`], RNG position included.
    pub fn apply<R: Rng + ?Sized>(&self, sims: &mut [f64], rng: &mut R) {
        if self.settled.is_empty() {
            return self.apply_reference(sims, rng);
        }
        let dim = self.dim as i64;
        for w in sims.iter_mut() {
            let (u1, u2) = box_muller_uniforms(rng);
            let s = *w as i64;
            if s as f64 == *w {
                // `s + D` wraps to an index past the table when s < −D.
                if let Some(e) = self.settled.get(s.wrapping_add(dim) as usize) {
                    if u1 > e.min_u1 {
                        *w = e.value;
                        continue;
                    }
                }
            }
            *w = self.read_one(*w, u1, u2);
        }
    }

    /// The reference readout: gain, noise, rectification and activation
    /// as separate passes over the slice. [`Self::apply`] must match it
    /// bit for bit.
    pub fn apply_reference<R: Rng + ?Sized>(&self, sims: &mut [f64], rng: &mut R) {
        if self.survival != 1.0 {
            for w in sims.iter_mut() {
                *w *= self.survival;
            }
        }
        if self.noise_sigma > 0.0 {
            for w in sims.iter_mut() {
                *w += normal(0.0, self.noise_sigma, rng);
            }
        }
        if self.rectify {
            for w in sims.iter_mut() {
                if *w < 0.0 {
                    *w = 0.0;
                }
            }
        }
        self.activation.apply(sims);
    }

    /// The reference arithmetic for one element whose draw is `(u1, u2)`
    /// (only called when σ > 0).
    fn read_one(&self, s: f64, u1: f64, u2: f64) -> f64 {
        // `0.0 + σ·z` is `normal(0.0, σ, ..)` exactly (it maps −0.0 to
        // +0.0).
        let w = self.gain(s) + (0.0 + self.noise_sigma * box_muller(u1, u2));
        self.activation.apply_one(self.rectified(w))
    }

    fn gain(&self, s: f64) -> f64 {
        if self.survival != 1.0 {
            s * self.survival
        } else {
            s
        }
    }

    fn rectified(&self, w: f64) -> f64 {
        if self.rectify && w < 0.0 {
            0.0
        } else {
            w
        }
    }

    /// The skip-table entry of pre-gain similarity `s` under a rectified
    /// quantizer of the given step and largest code.
    fn settle(&self, s: f64, step: f64, max_code: f64) -> Settled {
        let a = self.gain(s);
        let value = self.activation.apply_one(self.rectified(a));
        // Rectified, so the code is in 0..=max_code. Code 0 extends down
        // to −∞ (negatives rectify to 0); the top code extends up to +∞.
        let code = (self.rectified(a) / step).round().clamp(0.0, max_code);
        let lower = if code == 0.0 {
            f64::NEG_INFINITY
        } else {
            (code - 0.5) * step
        };
        let upper = if code == max_code {
            f64::INFINITY
        } else {
            (code + 0.5) * step
        };
        // Every magnitude in the reference arithmetic (a, the noise, the
        // noisy value, the boundaries) is below 2·scale.
        let scale = a.abs() + (max_code + 1.0) * step;
        let reach = (a - lower).min(upper - a) - MARGIN * scale;
        let min_u1 = if reach > 0.0 {
            let r = reach / self.noise_sigma;
            let ln_bound = 0.5 * r * r * (1.0 - MARGIN) - LN_SLACK;
            if ln_bound > ALWAYS_CLEARS {
                0.0
            } else {
                (-ln_bound).exp()
            }
        } else {
            f64::INFINITY
        };
        Settled { min_u1, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_readout_skips_far_from_boundaries() {
        // D = 256, σ = 0.139·16, LSB = 48: similarity 0 sits 24 units from
        // the first boundary, ~10.8σ, so every draw clears.
        let r = NoisyReadout::new(
            256,
            0.139 * 16.0,
            true,
            Activation::noise_referenced(4, 256, 3.0),
            1.0,
        );
        assert_eq!(r.settled.len(), 513);
        assert_eq!(r.settled[256].min_u1, 0.0);
        assert_eq!(r.settled[256].value, 0.0);
        // Similarity 24 sits exactly on the boundary: never provable.
        assert_eq!(r.settled[256 + 24].min_u1, f64::INFINITY);
    }

    #[test]
    fn unprovable_readouts_keep_no_table() {
        let q = Activation::noise_referenced(4, 256, 3.0);
        for (sigma, rectify, act) in [
            (2.0, true, Activation::Identity),
            (2.0, true, Activation::Threshold { theta: 5.0 }),
            (0.0, true, q),
            (2.0, false, q),
        ] {
            assert!(NoisyReadout::new(256, sigma, rectify, act, 1.0)
                .settled
                .is_empty());
        }
    }

    #[test]
    fn with_survival_rebuilds_the_table() {
        let q = Activation::noise_referenced(4, 64, 3.0);
        let r = NoisyReadout::new(64, 1.0, true, q, 1.0).with_survival(0.9);
        let fresh = NoisyReadout::new(64, 1.0, true, q, 0.9);
        let bits = |r: &NoisyReadout| -> Vec<(u64, u64)> {
            r.settled
                .iter()
                .map(|e| (e.min_u1.to_bits(), e.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(&r), bits(&fresh));
    }

    #[test]
    #[should_panic(expected = "needs 2..=32 bits, got 1")]
    fn malformed_activation_is_rejected() {
        NoisyReadout::new(
            64,
            1.0,
            true,
            Activation::Quantized {
                bits: 1,
                full_scale: 24.0,
            },
            1.0,
        );
    }
}
