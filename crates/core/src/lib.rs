//! The H3DFact accelerator engine.
//!
//! This crate assembles the full simulated system of the paper: the
//! resonator iteration (`resonator`) executing *through* device-accurate
//! hardware models (`cim`) under the three-tier architecture's scheduling
//! and cost models (`arch3d`). It also provides the iso-capacity baseline
//! engines of Table III (fully-digital SRAM 2D, monolithic hybrid 2D) and
//! the PCM in-memory-factorizer comparator of Sec. V-B.
//!
//! # Example
//!
//! ```
//! use h3dfact_core::accelerator::H3dFact;
//! use h3dfact_core::config::H3dFactConfig;
//! use hdc::{FactorizationProblem, ProblemSpec, rng::rng_from_seed};
//! use resonator::engine::Factorizer;
//!
//! let spec = ProblemSpec::new(3, 8, 512);
//! let problem = FactorizationProblem::random(spec, &mut rng_from_seed(5));
//! let mut engine = H3dFact::new(H3dFactConfig::default_for(spec), 42);
//! let outcome = engine.factorize(&problem);
//! assert!(outcome.solved);
//! let stats = engine.last_run_stats().expect("stats recorded");
//! assert!(stats.energy.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod baselines;
pub mod config;
pub mod pcm;
pub mod stats;

pub use accelerator::{batch_run_stats, H3dFact};
pub use baselines::{DigitalKernels, Hybrid2dEngine, Sram2dEngine};
pub use config::H3dFactConfig;
pub use pcm::{pcm_reference_report, PcmComparison, PcmEngine, PcmLinkModel};
pub use stats::RunStats;
