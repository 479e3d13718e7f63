//! IR-drop along bit lines: the spatial non-ideality of large crossbars.
//!
//! Cell currents accumulate along the bit line's wire resistance, so rows
//! far from the sense amplifier contribute less than near rows — an
//! *input-dependent, systematic* error unlike the stochastic device noise
//! in `noise.rs`. The paper's array design counters it with the
//! `I_CELL·R_BL/SL` drop mitigation of the underlying 40 nm macro
//! (Spetalnick et al., VLSI'23 — reference [22]); this module provides the
//! first-order model and the mitigation so that ablations can quantify
//! what the macro technique buys the factorizer.
//!
//! In this model the mitigation is perfect: the compensation divides the
//! drop profile by itself, so every mitigated row gain is exactly 1.0 and a
//! mitigated array reads the ideal dot product. The residue the macro
//! leaves in silicon is not modelled.

use serde::{Deserialize, Serialize};

use hdc::BipolarVector;

/// First-order bit-line IR-drop model.
///
/// Row `r` (0 = closest to the sense amp) sees its contribution scaled by
/// `1 / (1 + α·(R−1−r)/R)` where `α = R_wire·G_cell·R` aggregates the wire
/// resistance per segment against the cell conductance: the farthest row
/// loses the most signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrDropModel {
    /// Aggregate drop severity `α` (0 = ideal wires). A 256-row array in a
    /// 40 nm metal stack with ~1 Ω/segment and 50 µS cells gives α ≈ 0.1–0.3.
    pub alpha: f64,
    /// True when the macro's drop-mitigation (reference-column
    /// compensation) is enabled: the systematic attenuation profile is
    /// divided out. The residue term is written against the ratio of the
    /// profile to itself, so it is zero and the gains are exactly unity.
    pub mitigated: bool,
}

impl IrDropModel {
    /// Ideal wires (no drop).
    pub fn ideal() -> Self {
        Self {
            alpha: 0.0,
            mitigated: false,
        }
    }

    /// The 40 nm macro's regime, uncompensated.
    pub fn macro_40nm_raw() -> Self {
        Self {
            alpha: 0.25,
            mitigated: false,
        }
    }

    /// The 40 nm macro's regime with its drop-mitigation enabled ([22]).
    pub fn macro_40nm_mitigated() -> Self {
        Self {
            alpha: 0.25,
            mitigated: true,
        }
    }

    /// Attenuation factor of row `r` in an array of `rows`.
    ///
    /// Mitigated models return exactly 1.0 for every row: the residue term
    /// `0.05 · (raw / nominal − 1)` compares the profile with itself.
    pub fn row_gain(&self, r: usize, rows: usize) -> f64 {
        assert!(r < rows, "row out of range");
        if self.alpha == 0.0 {
            return 1.0;
        }
        let distance = (rows - 1 - r) as f64 / rows as f64;
        let raw = 1.0 / (1.0 + self.alpha * distance);
        if self.mitigated {
            // Reference-column compensation divides out the nominal
            // profile. The 5 % residue is meant to stand for the mismatch
            // between the reference and data columns' activity patterns,
            // but `raw` and `nominal` are the same expression, so it is
            // zero and the gain is exactly 1.0.
            let nominal = 1.0 / (1.0 + self.alpha * distance);
            1.0 + 0.05 * (raw / nominal - 1.0)
        } else {
            raw
        }
    }

    /// Dot product of a stored ±1 column with a bipolar query under the
    /// drop profile (the quantity replacing the ideal popcount dot).
    pub fn attenuated_dot(&self, column: &BipolarVector, query: &BipolarVector) -> f64 {
        assert_eq!(column.dim(), query.dim(), "dimension mismatch");
        self.attenuated_dot_words(column.words(), query.words(), column.dim())
    }

    /// Word-level [`IrDropModel::attenuated_dot`]: the column is given as
    /// its packed sign words (set bit = `+1`), so crossbars can feed their
    /// packed storage directly without materializing `BipolarVector`s.
    ///
    /// # Panics
    ///
    /// Panics if either word slice is shorter than `rows` bits.
    pub fn attenuated_dot_words(&self, column: &[u64], query: &[u64], rows: usize) -> f64 {
        (0..rows)
            .map(|r| {
                let (wi, b) = (r / 64, r % 64);
                // Sign product is +1 exactly when the bits agree.
                let sign = 1.0 - 2.0 * ((column[wi] ^ query[wi]) >> b & 1) as f64;
                self.row_gain(r, rows) * sign
            })
            .sum()
    }

    /// Worst-case relative error of the attenuated dot vs the ideal dot
    /// over an all-agreeing input (the calibration figure of merit).
    pub fn worst_case_error(&self, rows: usize) -> f64 {
        let ideal = rows as f64;
        let atten: f64 = (0..rows).map(|r| self.row_gain(r, rows)).sum();
        (ideal - atten).abs() / ideal
    }
}

impl Default for IrDropModel {
    fn default() -> Self {
        Self::macro_40nm_mitigated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;

    #[test]
    fn ideal_has_unity_gain() {
        let m = IrDropModel::ideal();
        for r in [0usize, 100, 255] {
            assert_eq!(m.row_gain(r, 256), 1.0);
        }
        assert_eq!(m.worst_case_error(256), 0.0);
    }

    #[test]
    fn far_rows_attenuate_more() {
        let m = IrDropModel::macro_40nm_raw();
        // Row 255 is nearest the sense amp; row 0 is farthest.
        assert!(m.row_gain(0, 256) < m.row_gain(255, 256));
        assert!(m.row_gain(0, 256) > 0.7, "drop should be first-order");
    }

    #[test]
    fn mitigation_recovers_most_signal() {
        let raw = IrDropModel::macro_40nm_raw();
        let fixed = IrDropModel::macro_40nm_mitigated();
        let e_raw = raw.worst_case_error(256);
        let e_fixed = fixed.worst_case_error(256);
        assert!(e_raw > 0.05, "raw error {e_raw}");
        // The model's compensation is perfect, not a 5 % residue: the
        // mitigated profile is exactly unity, so its error is zero.
        assert!(e_fixed < e_raw / 5.0, "mitigated error {e_fixed}");
    }

    #[test]
    fn attenuated_dot_bounded_by_ideal() {
        let m = IrDropModel::macro_40nm_raw();
        let mut rng = rng_from_seed(610);
        let a = BipolarVector::random(256, &mut rng);
        let d = m.attenuated_dot(&a, &a);
        assert!(d < 256.0 && d > 0.8 * 256.0, "self-dot {d}");
    }

    #[test]
    fn attenuation_preserves_match_ordering() {
        // The factorizer only needs the *argmax* to survive; under
        // first-order drop the matching column still wins clearly.
        let m = IrDropModel::macro_40nm_raw();
        let mut rng = rng_from_seed(611);
        let target = BipolarVector::random(256, &mut rng);
        let others: Vec<BipolarVector> = (0..16)
            .map(|_| BipolarVector::random(256, &mut rng))
            .collect();
        let match_score = m.attenuated_dot(&target, &target);
        for o in &others {
            assert!(m.attenuated_dot(o, &target) < match_score / 2.0);
        }
    }
}
