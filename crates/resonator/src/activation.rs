//! Similarity activation functions `g(·)`.
//!
//! The activation sits between the similarity MVM and the projection MVM.
//! The baseline resonator uses the identity (all similarity mass projects
//! back). H3DFact's hardware realizes `g` with a low-precision ADC whose
//! full-scale is tuned relative to the random-similarity noise floor
//! (`VTGT` adjustment, paper Sec. V-D): similarities below about half an
//! LSB collapse to zero, sparsifying the search, while device noise decides
//! the fate of borderline candidates — the stochastic exploration that
//! breaks limit cycles.

use serde::{Deserialize, Serialize};

/// Activation applied to the raw (possibly noisy) similarity vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Pass similarities through unchanged (baseline resonator).
    #[default]
    Identity,
    /// Mid-tread uniform quantizer with `bits` resolution saturating at
    /// `±full_scale` — the algorithm-level model of the SAR ADC readout.
    Quantized {
        /// Resolution in bits (sign included); the paper uses 4.
        bits: u8,
        /// Saturation magnitude in dot-product units.
        full_scale: f64,
    },
    /// Hard threshold: values with `|a| < theta` become zero, others pass
    /// unchanged (the in-memory-factorizer style nonlinearity of [15]).
    Threshold {
        /// Zeroing threshold in dot-product units.
        theta: f64,
    },
}

impl Activation {
    /// The paper's 4-bit ADC activation with the full scale referenced to
    /// the random-similarity noise floor `sqrt(D)`: one LSB spans
    /// `lsb_sigmas · sqrt(dim)` dot-product units.
    ///
    /// With the default `lsb_sigmas = 3`, random cross-talk (σ = √D) rarely
    /// crosses the first code boundary on its own, but device noise pushes
    /// borderline candidates over — sparse stochastic exploration.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is in `2..=32` and `lsb_sigmas` is positive.
    pub fn noise_referenced(bits: u8, dim: usize, lsb_sigmas: f64) -> Self {
        assert!(
            (2..=32).contains(&bits),
            "quantized activation needs 2..=32 bits, got {bits}"
        );
        assert!(lsb_sigmas > 0.0, "lsb_sigmas must be positive");
        let max_code = max_code(bits);
        Activation::Quantized {
            bits,
            full_scale: lsb_sigmas * (dim as f64).sqrt() * max_code,
        }
    }

    /// Checks that the activation is well formed, as every kernel does
    /// when it is built.
    ///
    /// # Panics
    ///
    /// Panics on a quantized activation with `bits` outside `2..=32` or
    /// a `full_scale` that is not finite and positive. One bit leaves no
    /// non-zero code, so the step is infinite and every weight would
    /// become `0 · ∞ = NaN`; more than 32 bits overflow the code range.
    pub fn validate(&self) {
        if let Activation::Quantized { bits, full_scale } = *self {
            assert!(
                (2..=32).contains(&bits),
                "quantized activation needs 2..=32 bits, got {bits}"
            );
            assert!(
                full_scale.is_finite() && full_scale > 0.0,
                "quantized activation needs a finite positive full scale, got {full_scale}"
            );
        }
    }

    /// Applies the activation element-wise in place.
    pub fn apply(&self, values: &mut [f64]) {
        for v in values.iter_mut() {
            *v = self.apply_one(*v);
        }
    }

    /// Applies the activation to one value.
    #[inline]
    pub(crate) fn apply_one(&self, v: f64) -> f64 {
        match *self {
            Activation::Identity => v,
            Activation::Quantized { bits, full_scale } => {
                let max_code = max_code(bits);
                let step = full_scale / max_code;
                (v / step).round().clamp(-max_code, max_code) * step
            }
            Activation::Threshold { theta } => {
                if v.abs() < theta {
                    0.0
                } else {
                    v
                }
            }
        }
    }

    /// True when the activation can output an all-zero vector for non-zero
    /// input (i.e. the loop must handle the degenerate case).
    pub fn can_zero(&self) -> bool {
        !matches!(self, Activation::Identity)
    }

    /// The quantization step (LSB) if this is a quantized activation.
    pub fn step(&self) -> Option<f64> {
        match *self {
            Activation::Quantized { bits, full_scale } => Some(full_scale / max_code(bits)),
            _ => None,
        }
    }

    /// The largest code magnitude if this is a quantized activation.
    pub fn max_code(&self) -> Option<f64> {
        match *self {
            Activation::Quantized { bits, .. } => Some(max_code(bits)),
            _ => None,
        }
    }
}

/// Largest code magnitude of a `bits`-bit mid-tread quantizer (sign
/// included).
fn max_code(bits: u8) -> f64 {
    ((1u32 << (bits - 1)) - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let mut v = vec![1.5, -3.0, 0.0];
        Activation::Identity.apply(&mut v);
        assert_eq!(v, vec![1.5, -3.0, 0.0]);
        assert!(!Activation::Identity.can_zero());
    }

    #[test]
    fn quantizer_zeroes_small_values() {
        let a = Activation::Quantized {
            bits: 4,
            full_scale: 70.0,
        };
        let step = a.step().unwrap();
        assert!((step - 10.0).abs() < 1e-12);
        let mut v = vec![4.9, -4.9, 5.1, 70.0, 1e9, -1e9];
        a.apply(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 10.0);
        assert_eq!(v[3], 70.0);
        assert_eq!(v[4], 70.0, "saturates high");
        assert_eq!(v[5], -70.0, "saturates low");
    }

    #[test]
    fn threshold_zeroes_below_theta() {
        let a = Activation::Threshold { theta: 5.0 };
        let mut v = vec![4.0, -4.0, 6.0, -6.0];
        a.apply(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 6.0, -6.0]);
    }

    #[test]
    fn noise_referenced_scaling() {
        let a = Activation::noise_referenced(4, 1024, 3.0);
        // LSB = 3 · sqrt(1024) = 96.
        assert!((a.step().unwrap() - 96.0).abs() < 1e-9);
        if let Activation::Quantized { full_scale, .. } = a {
            assert!((full_scale - 96.0 * 7.0).abs() < 1e-9);
        } else {
            panic!("expected quantized activation");
        }
    }

    #[test]
    fn apply_one_matches_apply() {
        let acts = [
            Activation::Identity,
            Activation::noise_referenced(4, 256, 3.0),
            Activation::Threshold { theta: 5.0 },
        ];
        let xs = [-300.0, -24.0, -4.9, -0.0, 0.0, 4.9, 24.0, 24.000001, 300.0];
        for a in acts {
            let mut v = xs.to_vec();
            a.apply(&mut v);
            for (x, y) in xs.iter().zip(&v) {
                assert_eq!(a.apply_one(*x).to_bits(), y.to_bits(), "{a:?} at {x}");
            }
        }
    }

    #[test]
    fn well_formed_activations_validate() {
        Activation::Identity.validate();
        Activation::Threshold { theta: 5.0 }.validate();
        for bits in [2, 4, 8, 32] {
            Activation::noise_referenced(bits, 256, 3.0).validate();
        }
    }

    #[test]
    #[should_panic(expected = "needs 2..=32 bits, got 1")]
    fn one_bit_quantizer_is_rejected() {
        // One bit has no non-zero code: step = full_scale / 0 = ∞ and
        // `apply` would write 0 · ∞ = NaN weights.
        Activation::Quantized {
            bits: 1,
            full_scale: 48.0,
        }
        .validate();
    }

    #[test]
    fn out_of_range_bit_widths_are_rejected() {
        // Zero bits and more than 32 overflow the code-range shift.
        for bits in [0, 33] {
            let a = Activation::Quantized {
                bits,
                full_scale: 48.0,
            };
            let caught = std::panic::catch_unwind(|| a.validate());
            assert!(caught.is_err(), "{bits} bits were accepted");
        }
        let caught = std::panic::catch_unwind(|| Activation::noise_referenced(40, 256, 3.0));
        assert!(caught.is_err(), "noise_referenced accepted 40 bits");
    }

    #[test]
    fn degenerate_full_scales_are_rejected() {
        for full_scale in [0.0, -48.0, f64::INFINITY, f64::NAN] {
            let a = Activation::Quantized {
                bits: 4,
                full_scale,
            };
            let caught = std::panic::catch_unwind(|| a.validate());
            assert!(caught.is_err(), "full scale {full_scale} was accepted");
        }
    }

    #[test]
    fn more_bits_means_finer_step() {
        let a4 = Activation::noise_referenced(4, 1024, 3.0);
        // Same full scale, higher resolution.
        let fs = match a4 {
            Activation::Quantized { full_scale, .. } => full_scale,
            _ => unreachable!(),
        };
        let a8 = Activation::Quantized {
            bits: 8,
            full_scale: fs,
        };
        assert!(a8.step().unwrap() < a4.step().unwrap());
    }
}
