//! # H3DFact reproduction — facade crate
//!
//! One crate for the whole workspace. The public API centers on two
//! concepts:
//!
//! - [`Backend`](backend::Backend) — the unified, object-safe interface
//!   over all six factorization engines: the device-accurate
//!   [`H3dFact`](h3dfact_core::H3dFact) accelerator, the Table III
//!   baselines ([`Sram2dEngine`](h3dfact_core::Sram2dEngine),
//!   [`Hybrid2dEngine`](h3dfact_core::Hybrid2dEngine)), the two-die PCM
//!   comparator ([`PcmEngine`](h3dfact_core::PcmEngine)), and the software
//!   resonators ([`BaselineResonator`](resonator::BaselineResonator),
//!   [`StochasticResonator`](resonator::StochasticResonator)). Its one
//!   implementation, [`TargetBackend`](target::TargetBackend), executes
//!   any engine's kernels on a [`Target`](target::Target) — bit-identical
//!   to the engine itself on the default functional target.
//! - [`Session`](session::Session) — the top-level entry point owning
//!   problem generation, batched solving with per-problem seeds, and
//!   aggregate accuracy/energy/latency reporting, built fluently and
//!   swappable across backends via
//!   [`BackendKind`](session::BackendKind).
//!
//! On top of these, [`Workload`](workload::Workload) unifies every
//! experiment shape — random factorization, Fig. 7 perception (scenes and
//! RPM puzzles), integer factorization, capacity sweeps, or custom
//! scenarios — behind
//! [`Session::run_workload`](session::Session::run_workload), which runs
//! any of them through the same deterministic parallel executor and
//! reporting path.
//!
//! For serving-shaped work, the
//! [`FactorizationService`](service::FactorizationService) layers
//! multi-tenant streaming on top of sessions: a pool of pre-warmed
//! session shards (codebooks generated once), bounded queues with
//! backpressure, micro-batching with deadline flushes, per-tenant stats,
//! and a deterministic trace/replay contract.
//!
//! The underlying layers stay available for specialized work:
//!
//! - [`hdc`] — holographic hypervector substrate (bipolar vectors,
//!   codebooks).
//! - [`resonator`] — resonator-network factorization, deterministic and
//!   stochastic.
//! - [`cim`] — device/circuit-level compute-in-memory models (RRAM
//!   crossbars, SAR ADCs, noise).
//! - [`arch3d`] — heterogeneous 3D architecture: tiers, TSVs, floorplans,
//!   PPA roll-ups.
//! - [`thermal`] — steady-state 3D thermal solver (HotSpot substitute).
//! - [`perception`] — synthetic holographic perception tasks (RAVEN-like).
//! - [`core`](h3dfact_core) — the H3DFact accelerator engine tying the
//!   above together.
//!
//! # Quickstart
//!
//! ```
//! use h3dfact::prelude::*;
//!
//! // A small factorization problem shape: 3 attributes, 8 items each,
//! // D = 256 — and a session driving the simulated H3DFact accelerator.
//! let spec = ProblemSpec::new(3, 8, 256);
//! let mut session = Session::builder()
//!     .spec(spec)
//!     .backend(BackendKind::H3dFact)
//!     .seed(7)
//!     .max_iters(2_000)
//!     .build();
//!
//! // Generate and solve a small batch; the report aggregates accuracy,
//! // energy, and modeled latency.
//! let report = session.run(2);
//! assert_eq!(report.problems, 2);
//! assert!(report.accuracy() > 0.0);
//! assert!(report.total_energy_j.unwrap() > 0.0);
//!
//! // The same spec on the software stochastic model — only the backend
//! // kind changes.
//! let mut sw = Session::builder()
//!     .spec(spec)
//!     .backend(BackendKind::Stochastic)
//!     .seed(7)
//!     .max_iters(2_000)
//!     .build();
//! assert!(sw.run(2).accuracy() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arch3d;
pub use cim;
pub use h3dfact_core;
pub use hdc;
pub use perception;
pub use resonator;
pub use thermal;

pub mod backend;
pub mod chaos;
pub mod client;
pub(crate) mod executor;
pub mod registry;
pub mod server;
pub mod service;
pub mod session;
pub mod target;
pub mod wire;
pub mod workload;

/// Commonly used items across the workspace, re-exported for convenience.
pub mod prelude {
    pub use crate::backend::{
        Backend, Capabilities, LockstepQuery, LockstepSolve, RunReport, RunTotals,
    };
    pub use crate::chaos::{ChaosConfig, ChaosProxy, ChaosStats};
    pub use crate::client::{ClientConfig, ClientError, ClientStats, ResilientClient, RetryPolicy};
    pub use crate::registry::{CodebookHandle, CodebookRegistry, RegistryStats};
    pub use crate::server::{ServeClient, ServerConfig, ServerHandle, TenantQuota};
    pub use crate::service::{
        Admission, ExpiredRequest, FactorizationService, FactorizeRequest, FactorizeResponse,
        FlushReason, PreparedBatch, RequestId, RequestStream, ServiceBuilder, ServiceSnapshot,
        ServiceStats, ShardSnapshot, SolvedBatch, SubmitError, TenantStats, TraceEntry,
    };
    pub use crate::session::{
        BackendKind, Session, SessionBuildError, SessionBuilder, SessionReport,
    };
    pub use crate::target::{
        ApproxTiledTarget, CostReport, DmaQueueTarget, FunctionalTarget, QueueStats, Target,
        TargetBackend, TargetKind,
    };
    pub use crate::wire::{
        Frame, ShedReason, WireError, WireRegistryStats, WireResponse, WireStats, PROTOCOL_VERSION,
    };
    pub use crate::workload::{
        CapacitySweep, FrontierPoint, IntegerFactorization, Perception, RandomFactorization,
        RobustnessSweep, SeverityPoint, Workload, WorkloadReport, WorkloadScore,
    };
    pub use arch3d::design::{DesignReport, DesignVariant};
    pub use cim::adc::AdcConfig;
    pub use cim::crossbar::Crossbar;
    pub use cim::noise::NoiseSpec;
    pub use h3dfact_core::accelerator::H3dFact;
    pub use h3dfact_core::config::H3dFactConfig;
    pub use h3dfact_core::{Hybrid2dEngine, PcmEngine, Sram2dEngine};
    pub use hdc::rng::rng_from_seed;
    pub use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
    pub use perception::pipeline::PerceptionPipeline;
    pub use resonator::engine::{FactorizationOutcome, Factorizer};
    pub use resonator::{BaselineResonator, StochasticResonator};
}
