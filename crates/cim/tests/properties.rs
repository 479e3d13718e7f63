//! Property-based tests for the device and circuit models.

use cim::adc::{AdcConfig, SarAdc};
use cim::crossbar::{AccessStats, Crossbar, Fidelity, TiledCrossbar};
use cim::dac::BitSerialDac;
use cim::irdrop::IrDropModel;
use cim::noise::NoiseSpec;
use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adc_is_monotone(bits in 2u8..=8, fs in 1.0f64..1000.0, seed in 0u64..100) {
        let adc = SarAdc::ideal(AdcConfig { bits, full_scale: fs, offset_sigma: 0.0, gain_sigma: 0.0 });
        let mut rng = rng_from_seed(seed);
        let mut xs: Vec<f64> = (0..32).map(|_| (rng.gen::<f64>() - 0.5) * 3.0 * fs).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let codes: Vec<i32> = xs.iter().map(|&x| adc.convert_code(x)).collect();
        for w in codes.windows(2) {
            prop_assert!(w[0] <= w[1], "ADC must be monotone");
        }
    }

    #[test]
    fn adc_is_odd_symmetric(bits in 2u8..=8, fs in 1.0f64..1000.0, x in -2000.0f64..2000.0) {
        let adc = SarAdc::ideal(AdcConfig { bits, full_scale: fs, offset_sigma: 0.0, gain_sigma: 0.0 });
        prop_assert_eq!(adc.convert_code(x), -adc.convert_code(-x));
    }

    #[test]
    fn adc_error_bounded(bits in 2u8..=8, fs in 1.0f64..1000.0, frac in -1.0f64..1.0) {
        let adc = SarAdc::ideal(AdcConfig { bits, full_scale: fs, offset_sigma: 0.0, gain_sigma: 0.0 });
        let x = frac * fs;
        let err = (adc.convert(x) - x).abs();
        prop_assert!(err <= adc.config().step() / 2.0 + 1e-9);
    }

    #[test]
    fn ideal_crossbar_is_linear_in_weights(seed in 0u64..200, m in 2usize..8) {
        // mvm_weighted(w1 + w2) = mvm_weighted(w1) + mvm_weighted(w2) for a
        // noiseless array.
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, 128, &mut rng);
        let mut xbar = Crossbar::program(&book, NoiseSpec::ideal(), Fidelity::Column, seed);
        let w1: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let w2: Vec<f64> = (0..m).map(|i| (m - i) as f64 * 0.5).collect();
        let sum: Vec<f64> = w1.iter().zip(&w2).map(|(a, b)| a + b).collect();
        let y1 = xbar.mvm_weighted(&w1);
        let y2 = xbar.mvm_weighted(&w2);
        let ys = xbar.mvm_weighted(&sum);
        for ((a, b), s) in y1.iter().zip(&y2).zip(&ys) {
            prop_assert!((a + b - s).abs() < 1e-9);
        }
    }

    #[test]
    fn ideal_crossbar_mvm_matches_dots(seed in 0u64..200, m in 2usize..8) {
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, 192, &mut rng);
        let mut xbar = Crossbar::program(&book, NoiseSpec::ideal(), Fidelity::Column, seed);
        let q = BipolarVector::random(192, &mut rng);
        let out = xbar.mvm_bipolar(&q);
        for (j, o) in out.iter().enumerate() {
            prop_assert_eq!(*o, book.vector(j).dot(&q) as f64);
        }
    }

    #[test]
    fn dac_roundtrip(bits in 2u8..=8, code_frac in -1.0f64..1.0) {
        let dac = BitSerialDac::new(bits);
        let code = (code_frac * dac.max_magnitude() as f64) as i32;
        let (sign, planes) = dac.bit_planes(code);
        prop_assert_eq!(dac.reconstruct(sign, &planes), code);
    }

    #[test]
    fn irdrop_gain_bounded_and_ordered(alpha in 0.0f64..1.0, rows in 2usize..512) {
        let m = IrDropModel { alpha, mitigated: false };
        let mut last = 0.0f64;
        for r in 0..rows {
            let g = m.row_gain(r, rows);
            prop_assert!(g > 0.0 && g <= 1.0 + 1e-12);
            prop_assert!(g + 1e-12 >= last, "gain must grow toward the sense amp");
            last = g;
        }
    }

    #[test]
    fn ir_drop_read_matches_reference_bits(
        alpha in 0.0f64..1.0,
        words in 0usize..4,
        tail in 1usize..64,
        m in 1usize..=64,
        tiles in 1usize..4,
        seed in 0u64..1000,
    ) {
        // Rows are never a multiple of 64, so the last word is ragged. Zero
        // sigmas draw no noise; stuck-at and write compression make the
        // survival gain differ from 1.
        let rows = 64 * words + tail;
        let noise = NoiseSpec {
            stuck_at_rate: 0.003,
            write_nonlinearity: 0.1,
            ..NoiseSpec::ideal()
        };
        let survival = (1.0 - noise.stuck_at_rate) * noise.write_gain();
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, rows * tiles, &mut rng);
        let q = BipolarVector::random(rows * tiles, &mut rng);
        for mitigated in [false, true] {
            let model = IrDropModel { alpha, mitigated };
            // Tile `t` holds rows [t·rows, (t+1)·rows) of every column.
            let slice = |v: &BipolarVector, t: usize| {
                let mut s = BipolarVector::neg_ones(rows);
                s.copy_bit_range_from(v, t * rows);
                s
            };
            let tile_ref = |j: usize, t: usize| {
                let (col, qt) = (slice(book.vector(j), t), slice(&q, t));
                model.attenuated_dot_words(col.words(), qt.words(), rows) * survival
            };

            let first = Codebook::from_vectors((0..m).map(|j| slice(book.vector(j), 0)).collect());
            let mut mono = Crossbar::program(&first, noise, Fidelity::Column, seed).with_ir_drop(model);
            let out = mono.mvm_bipolar(&slice(&q, 0));
            for (j, o) in out.iter().enumerate() {
                prop_assert_eq!(o.to_bits(), tile_ref(j, 0).to_bits(), "column {} mitigated {}", j, mitigated);
            }

            let mut tiled = TiledCrossbar::program(&book, rows, noise, Fidelity::Column, seed)
                .with_ir_drop(model);
            let out = tiled.mvm_bipolar(&q);
            for (j, o) in out.iter().enumerate() {
                let expect = (0..tiles).fold(0.0, |acc, t| acc + tile_ref(j, t));
                prop_assert_eq!(o.to_bits(), expect.to_bits(), "tiled column {} mitigated {}", j, mitigated);
            }
        }
    }

    #[test]
    fn sign_read_keeps_reference_signs_and_stream(
        seed in 0u64..1000,
        m in 2usize..=12,
        rows in 16usize..=130,
        tiles in 1usize..=3,
    ) {
        // No noise, chip noise, 8× chip noise (many rows on the full
        // path), and chip noise with heavy stuck-at faults and write
        // compression.
        let specs = [
            NoiseSpec::ideal(),
            NoiseSpec::chip_40nm(),
            NoiseSpec::chip_40nm_scaled(8.0),
            NoiseSpec {
                stuck_at_rate: 0.05,
                write_nonlinearity: 0.2,
                ..NoiseSpec::chip_40nm()
            },
        ];
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, rows * tiles, &mut rng);
        // ADC-like weights: codes in −7..=7 of one 48-unit step. Equal
        // weights on two columns sum to exactly 0.0 on every row where
        // they disagree; all-zero weights draw no noise.
        let mut reads: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..m).map(|_| rng.gen_range(-7i32..=7) as f64 * 48.0).collect())
            .collect();
        let mut pair = vec![0.0; m];
        pair[0] = 144.0;
        pair[1] = 144.0;
        reads.push(pair);
        reads.push(vec![0.0; m]);
        for noise in specs {
            for fidelity in [Fidelity::Column, Fidelity::Cell] {
                let mono = Crossbar::program(&book, noise, fidelity, seed);
                let tiled = TiledCrossbar::program(&book, rows, noise, fidelity, seed);
                for held in [check_sign_read(&mono, &reads), check_sign_read(&tiled, &reads)] {
                    // Noise-free reads draw nothing and match bit for bit;
                    // noisy ones hold some rows at the noiseless sum.
                    prop_assert_eq!(held == 0, noise.sigma_total() == 0.0, "{:?} {:?}", noise, fidelity);
                }
            }
        }
    }

    #[test]
    fn noise_sigma_total_is_quadrature(p in 0.0f64..0.5, r in 0.0f64..0.5, v in 0.0f64..0.5) {
        let n = NoiseSpec { programming_sigma: p, read_sigma: r, pvt_sigma: v, stuck_at_rate: 0.0, write_nonlinearity: 0.0 };
        let expect = (p * p + r * r + v * v).sqrt();
        prop_assert!((n.sigma_total() - expect).abs() < 1e-12);
    }
}

/// A projection array under test: the reference read and the sign read.
trait Projection: Clone {
    fn rows(&self) -> usize;
    fn read(&mut self, weights: &[f64], out: &mut [f64]);
    fn sign_read(&mut self, weights: &[f64], out: &mut [f64]);
    fn stats(&self) -> AccessStats;
}

impl Projection for Crossbar {
    fn rows(&self) -> usize {
        Crossbar::rows(self)
    }
    fn read(&mut self, weights: &[f64], out: &mut [f64]) {
        self.try_mvm_weighted_into(weights, out).unwrap();
    }
    fn sign_read(&mut self, weights: &[f64], out: &mut [f64]) {
        self.try_mvm_weighted_signs_into(weights, out).unwrap();
    }
    fn stats(&self) -> AccessStats {
        Crossbar::stats(self)
    }
}

impl Projection for TiledCrossbar {
    fn rows(&self) -> usize {
        TiledCrossbar::rows(self)
    }
    fn read(&mut self, weights: &[f64], out: &mut [f64]) {
        self.try_mvm_weighted_into(weights, out).unwrap();
    }
    fn sign_read(&mut self, weights: &[f64], out: &mut [f64]) {
        self.try_mvm_weighted_signs_into(weights, out).unwrap();
    }
    fn stats(&self) -> AccessStats {
        TiledCrossbar::stats(self)
    }
}

/// Reads each weight vector through two copies of `array`, the reference
/// read on one and the sign read on the other, and asserts that every
/// output has the reference's sign (`> 0`, `== 0` or `< 0`) and that the
/// next reference read on both copies is bit-identical. Returns how many
/// sign-read rows differ in value from the reference, i.e. were held at
/// their noiseless sum.
fn check_sign_read<P: Projection>(array: &P, reads: &[Vec<f64>]) -> usize {
    let (mut reference, mut signed) = (array.clone(), array.clone());
    let d = array.rows();
    let (mut want, mut got) = (vec![0.0f64; d], vec![0.0f64; d]);
    let mut held = 0;
    for (i, w) in reads.iter().enumerate() {
        reference.read(w, &mut want);
        signed.sign_read(w, &mut got);
        for (r, (x, y)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                x.partial_cmp(&0.0),
                y.partial_cmp(&0.0),
                "read {i} row {r}: reference {x}, sign read {y}"
            );
            held += usize::from(x.to_bits() != y.to_bits());
        }
        let next = &reads[(i + 1) % reads.len()];
        reference.read(next, &mut want);
        signed.read(next, &mut got);
        for (r, (x, y)) in want.iter().zip(&got).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "read after {i}, row {r}");
        }
    }
    assert_eq!(reference.stats(), signed.stats());
    held
}

#[test]
fn noisy_crossbar_preserves_argmax_statistically() {
    // Over many programs/reads, the matching column wins almost always at
    // chip noise levels — the property the factorizer rests on.
    let mut rng = rng_from_seed(990);
    let book = Codebook::random(16, 256, &mut rng);
    let mut xbar = Crossbar::program(&book, NoiseSpec::chip_40nm(), Fidelity::Column, 9);
    let mut wins = 0;
    let trials = 200;
    for t in 0..trials {
        let target = t % 16;
        let out = xbar.mvm_bipolar(book.vector(target));
        let best = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        if best == target {
            wins += 1;
        }
    }
    assert!(wins >= 198, "argmax survived only {wins}/{trials}");
}
