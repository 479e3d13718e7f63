//! Resonator-network factorization of holographic product vectors.
//!
//! The resonator network (Frady, Kent, Olshausen & Sommer, *Neural
//! Computation* 2020) decomposes a product hypervector
//! `s = x₁ ⊙ x₂ ⊙ … ⊙ x_F` back into one item per codebook by searching
//! *in superposition*: every factor estimate is iteratively refined by
//! unbinding the other estimates, measuring similarity against its
//! codebook, and projecting back through the codebook:
//!
//! ```text
//! x̂_f(t+1) = sign( X_f · g( X_fᵀ · (s ⊙ ⊙_{j≠f} x̂_j(t)) ) )
//! ```
//!
//! The deterministic iteration falls into **limit cycles** as the problem
//! grows, collapsing accuracy (paper Fig. 1c). H3DFact's contribution is to
//! let the *hardware* supply the cure: memristive read noise plus coarse
//! (4-bit) ADC quantization turn `g` into a sparse stochastic activation
//! that explores a far larger solution space (paper Sec. III-C, Table II).
//!
//! This crate implements the shared iteration ([`engine::ResonatorLoop`])
//! over pluggable [`engine::ResonatorKernels`], a pure-software kernel set
//! ([`software::SoftwareKernels`]) used for the baseline and for
//! algorithm-level studies, cycle detection, and the capacity-sweep
//! machinery behind the paper's Table II.
//!
//! # Example
//!
//! ```
//! use hdc::{FactorizationProblem, ProblemSpec, rng::rng_from_seed};
//! use resonator::{BaselineResonator, StochasticResonator, engine::Factorizer};
//!
//! let spec = ProblemSpec::new(3, 8, 512);
//! let mut rng = rng_from_seed(11);
//! let problem = FactorizationProblem::random(spec, &mut rng);
//!
//! let mut baseline = BaselineResonator::new(100, 1);
//! assert!(baseline.factorize(&problem).solved);
//!
//! let mut stochastic = StochasticResonator::paper_default(spec, 100, 1);
//! assert!(stochastic.factorize(&problem).solved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod batch;
pub mod capacity;
pub mod convergence;
pub mod engine;
pub mod lockstep;
pub mod metrics;
pub mod readout;
pub mod software;
pub mod superposed;

pub use activation::Activation;
pub use batch::{run_batch, BatchItem, BatchOutcome};
pub use capacity::{measure_cell, CapacityCell, SweepConfig};
pub use convergence::{CycleDetector, CycleInfo};
pub use engine::{
    DegeneratePolicy, FactorizationOutcome, Factorizer, LoopConfig, ResonatorKernels, ResonatorLoop,
};
pub use lockstep::{BatchedResonator, LockstepProblem};
pub use readout::NoisyReadout;
pub use software::{BaselineResonator, SoftwareKernels, SoftwareRunSummary, StochasticResonator};
pub use superposed::{explain_away, ExplainAwayConfig, SuperposedOutcome};
