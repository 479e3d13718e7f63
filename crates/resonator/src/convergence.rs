//! Fixed-point and limit-cycle detection for the resonator state.
//!
//! The deterministic resonator evolves on a finite state space (tuples of
//! bipolar estimates), so any non-converging trajectory must eventually
//! revisit a state and then cycle forever. Detecting the first revisit lets
//! the baseline engine declare failure early (a large speed-up for the
//! Table II sweep) and provides the cycle statistics behind Fig. 2b.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use serde::{Deserialize, Serialize};

use hdc::BipolarVector;

/// A detected state recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleInfo {
    /// Iteration at which the revisited state was first seen.
    pub first_seen: usize,
    /// Iteration at which the revisit was detected.
    pub detected_at: usize,
}

impl CycleInfo {
    /// Cycle period (`detected_at − first_seen`).
    pub fn period(&self) -> usize {
        self.detected_at - self.first_seen
    }
}

/// Hash-based detector over the joint estimate state.
///
/// Collisions are theoretically possible but astronomically unlikely for
/// the experiment sizes here (64-bit hashes, ≤ millions of states); the
/// deterministic engine additionally only *stops* on a detected cycle, it
/// never reports success from one.
#[derive(Debug, Clone, Default)]
pub struct CycleDetector {
    seen: HashMap<u64, usize, BuildHasherDefault<StateKeyHasher>>,
    revisits: usize,
}

/// The detector map's hasher: its keys are already SipHash outputs
/// ([`CycleDetector::state_hash`]), so hashing them again buys nothing —
/// the key passes through as its own hash.
#[derive(Debug, Clone, Copy, Default)]
struct StateKeyHasher(u64);

impl Hasher for StateKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher (`write_u64`); fold any other
        // input in anyway rather than drop it.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl CycleDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hashes the joint state of all factor estimates.
    pub fn state_hash(estimates: &[BipolarVector]) -> u64 {
        let mut h = DefaultHasher::new();
        for e in estimates {
            e.words().hash(&mut h);
        }
        h.finish()
    }

    /// Records the state at iteration `t`; returns cycle info if this state
    /// was seen before.
    pub fn observe(&mut self, estimates: &[BipolarVector], t: usize) -> Option<CycleInfo> {
        let key = Self::state_hash(estimates);
        match self.seen.insert(key, t) {
            Some(first_seen) => {
                self.revisits += 1;
                Some(CycleInfo {
                    first_seen,
                    detected_at: t,
                })
            }
            None => None,
        }
    }

    /// Number of revisits observed so far (a stochastic engine may revisit
    /// and escape; this counts every recurrence).
    pub fn revisits(&self) -> usize {
        self.revisits
    }

    /// Number of distinct states seen.
    pub fn distinct_states(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;

    #[test]
    fn detects_exact_revisit() {
        let mut rng = rng_from_seed(100);
        let a = BipolarVector::random(128, &mut rng);
        let b = BipolarVector::random(128, &mut rng);
        let mut det = CycleDetector::new();
        assert!(det.observe(&[a.clone(), b.clone()], 0).is_none());
        assert!(
            det.observe(&[b.clone(), a.clone()], 1).is_none(),
            "order matters"
        );
        let info = det.observe(&[a.clone(), b.clone()], 5).expect("revisit");
        assert_eq!(info.first_seen, 0);
        assert_eq!(info.detected_at, 5);
        assert_eq!(info.period(), 5);
        assert_eq!(det.revisits(), 1);
        assert_eq!(det.distinct_states(), 2);
    }

    #[test]
    fn distinct_states_do_not_trigger() {
        let mut rng = rng_from_seed(101);
        let mut det = CycleDetector::new();
        for t in 0..50 {
            let v = BipolarVector::random(256, &mut rng);
            assert!(det.observe(&[v], t).is_none());
        }
        assert_eq!(det.distinct_states(), 50);
        assert_eq!(det.revisits(), 0);
    }

    #[test]
    fn hash_is_stable() {
        let mut rng = rng_from_seed(102);
        let v = BipolarVector::random(64, &mut rng);
        let h1 = CycleDetector::state_hash(std::slice::from_ref(&v));
        let h2 = CycleDetector::state_hash(std::slice::from_ref(&v));
        assert_eq!(h1, h2);
    }
}
