//! Small statistics toolkit shared by the device and algorithm crates.
//!
//! The offline dependency set has no `rand_distr`, so Gaussian and
//! log-normal sampling are implemented here (Box–Muller transform), along
//! with summary-statistics helpers used by the experiment harnesses.

use rand::Rng;

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// Each draw takes exactly two uniforms from `rng`, `u1` and then `u2`
/// ([`box_muller_uniforms`]), and maps them through [`box_muller`]. The
/// similarity readout's skip path (`resonator::readout`) and the
/// crossbar's sign-exact projection read depend on this: they take the
/// same two uniforms and decide from `u1` alone whether the
/// transcendental part can be skipped.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`standard_normal`] draw consumes, in draw order:
/// `u1` from the half-open `(0, 1]` (avoiding `ln(0)`), then `u2` from
/// `[0, 1)`.
#[inline]
pub fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The Box–Muller map of two uniforms to one standard-normal sample. Its
/// magnitude is at most `sqrt(-2 ln u1)`.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Relative slack of [`box_muller_below`]. The bound's own products and
/// the reference arithmetic it vouches for (`ln`, `sqrt`, `cos`, `σ·z`,
/// the caller's `v / σ`) round within a few ulps, about `1e-15` relative;
/// this is six orders of magnitude above that.
const BELOW_MARGIN: f64 = 1e-9;

/// Whether every Box–Muller draw whose first uniform is `u1` is provably
/// smaller than `ratio` in magnitude, with `ratio = v / σ`: true only if
/// `σ·sqrt(−2 ln u1) < |v|`, so that `v + σ·box_muller(u1, u2)` keeps the
/// sign of `v` for every `u2`, f64 rounding included.
///
/// It evaluates no transcendental. On `(0, 1]`, `−ln u ≤ (1 − u)/√u`
/// (with `u = e^−x` this is `x ≤ 2 sinh(x/2)`), so
/// `4(1 − u1)² < t²·u1` with `t = ratio²·(1 − margin)` implies
/// `−2 ln u1 < t`. The bound is tight as `u1 → 1`, where nearly every
/// draw of a small noise lands. It is never true for a zero or NaN
/// `ratio`, or for `u1 = 0`.
#[inline]
pub fn box_muller_below(u1: f64, ratio: f64) -> bool {
    let t = ratio * ratio * (1.0 - BELOW_MARGIN);
    let gap = 1.0 - u1;
    4.0 * gap * gap < t * t * u1
}

/// Draws `N(mean, sigma²)`.
pub fn normal<R: Rng + ?Sized>(mean: f64, sigma: f64, rng: &mut R) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// Draws a log-normal sample whose *underlying* normal has the given mean
/// and sigma (i.e. `exp(N(mu, sigma²))`). Used for RRAM conductance
/// programming variability, which is well described as log-normal
/// (Yu et al., IEEE TED 2012).
pub fn log_normal<R: Rng + ?Sized>(mu: f64, sigma: f64, rng: &mut R) -> f64 {
    normal(mu, sigma, rng).exp()
}

/// Running mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample standard deviation (0 with fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Wilson score interval half-width for a binomial proportion at ~95 %
/// confidence; used when reporting factorization accuracies over trials.
pub fn wilson_half_width(successes: u64, trials: u64) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / (1.0 + z * z / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(40);
        let s: Summary = (0..20_000).map(|_| normal(3.0, 2.0, &mut rng)).collect();
        assert!((s.mean() - 3.0).abs() < 0.06, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.06, "std {}", s.std_dev());
    }

    #[test]
    fn box_muller_below_never_admits_a_reaching_draw() {
        // The largest draw of a `u1` is `sqrt(−2 ln u1)` (at `u2 = 0`); at
        // `u2 = 0.5` it is the same magnitude, negated.
        let reaches = |u1: f64, sigma: f64, v: f64| {
            (-2.0 * u1.ln()).sqrt() * sigma >= v.abs()
                || [0.0, 0.5].iter().any(|&u2| {
                    let noisy = v + (0.0 + sigma * box_muller(u1, u2));
                    noisy == 0.0 || noisy.is_sign_positive() != v.is_sign_positive()
                })
        };
        for (sigma, v) in [
            (1.0f64, 1e-3f64),
            (2.2, -0.9),
            (2.2, 2.2),
            (0.5, -1.7),
            (1.0, 8.0),
            (1e-3, 0.5),
        ] {
            let ratio = v / sigma;
            // The draw reaches |v| exactly at `u_true`. The bound's skip
            // threshold, bisected down to two adjacent floats `below <
            // above`, must sit above it.
            let u_true = (-0.5 * ratio * ratio).exp();
            let (mut below, mut above) = (0.0f64, 1.0f64);
            assert!(box_muller_below(above, ratio), "u1 = 1.0, v {v}");
            for _ in 0..200 {
                if f64::from_bits(below.to_bits() + 1) == above {
                    break;
                }
                let mid = 0.5 * (below + above);
                if box_muller_below(mid, ratio) {
                    above = mid;
                } else {
                    below = mid;
                }
            }
            assert_eq!(f64::from_bits(below.to_bits() + 1), above, "v {v}");
            assert!(!box_muller_below(below, ratio), "v {v}");
            assert!(above > u_true, "threshold {above} not above {u_true}");
            // Scripted `u1` around both thresholds, and a sweep of (0, 1].
            let near = |u: f64| (-200..=200).map(move |k| u * (1.0 + k as f64 * 1e-11));
            let sweep = (1..=1000).map(|k| k as f64 / 1000.0);
            for u1 in near(u_true).chain(near(above)).chain(sweep) {
                if u1 > 0.0 && u1 <= 1.0 && box_muller_below(u1, ratio) {
                    assert!(!reaches(u1, sigma, v), "u1 {u1} sigma {sigma} v {v}");
                }
            }
        }
        // A zero or NaN sum is never provable, nor is `u1 = 0`.
        assert!(!box_muller_below(1.0, 0.0));
        assert!(!box_muller_below(1.0, f64::NAN));
        assert!(!box_muller_below(0.0, 1e300));
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = rng_from_seed(41);
        assert!((0..1000).all(|_| log_normal(0.0, 0.5, &mut rng) > 0.0));
    }

    #[test]
    fn log_normal_median() {
        let mut rng = rng_from_seed(42);
        let mut xs: Vec<f64> = (0..9_999).map(|_| log_normal(1.0, 0.7, &mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of exp(N(mu, s^2)) is exp(mu) = e.
        assert!((median - 1.0f64.exp()).abs() < 0.15, "median {median}");
    }

    #[test]
    fn summary_tracks_min_max_count() {
        let s: Summary = [1.0, 5.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn wilson_shrinks_with_trials() {
        let w10 = wilson_half_width(9, 10);
        let w1000 = wilson_half_width(900, 1000);
        assert!(w1000 < w10);
        assert_eq!(wilson_half_width(0, 0), 0.0);
    }
}
