//! The target abstraction: *what the resonator computes* (the three
//! kernels of the factorization loop) separated from *what hardware it
//! runs on* (which substrate executes them and what each step costs).
//!
//! A [`Target`] owns the MVM/cleanup primitives of one resonator run plus
//! per-step cost accounting, and optionally a lockstep stepper that runs
//! a whole batch at once; [`TargetBackend`] drives the shared
//! [`ResonatorLoop`] through any target and is the one implementation of
//! the standard [`Backend`] interface, so sessions, workloads, and the
//! serving layer all execute through a target. Three implementations
//! ship:
//!
//! - [`FunctionalTarget`] (the default) — the bit-exact packed-kernel
//!   path of the six engines in `h3dfact_core` and `resonator`: same
//!   kernels, same seed streams, same cost recipes, so every golden
//!   reproduces bit-for-bit and the engines stay the reference the
//!   target is tested against.
//! - [`ApproxTiledTarget`] — approximate hardware co-simulation: tiled
//!   crossbars with IR drop, rectifying ADC readout, and a lumped-RC
//!   thermal model stepped once per resonator iteration; the
//!   [`CostReport`] carries the per-iteration die-temperature trajectory.
//! - [`DmaQueueTarget`] — an offload stub: every kernel call is
//!   serialized into a bounded byte command queue, decoded and executed
//!   by a software device model, and the reply travels back the same way
//!   — bit-identical outcomes with queue-occupancy accounting, the
//!   skeleton a real DMA-attached accelerator would fill in.
//!
//! The trace/replay contract of the service layer doubles as the
//! cross-target equivalence harness: a trace captured on one target
//! replays bit-for-bit on any functionally equivalent target.
//!
//! Targets receive their codebooks per call (`&[Codebook]` slices) and
//! never own them, so they compose transparently with the codebook
//! registry ([`crate::registry`]): the caller resolves its
//! [`CodebookHandle`](crate::registry::CodebookHandle) once per pass and
//! every target sees the same registry-shared allocation, hot or cold —
//! kernels are value-identical in either tier state, so target semantics
//! are unchanged.

use arch3d::design::{DesignVariant, BASE_FREQUENCY_MHZ, NATIVE_PATH_LOAD_F};
use arch3d::neurosim::ComponentLibrary;
use arch3d::schedule::{IterationSchedule, ScheduleConfig};
use arch3d::tsv::TsvSpec;
use cim::adc::{AdcConfig, SarAdc};
use cim::counter::BipolarCounter;
use cim::crossbar::TiledCrossbar;
use cim::energy::{EnergyComponent, EnergyLedger};
use cim::noise::NoiseSpec;
use cim::power::PowerMode;
use cim::tech::TechNode;
use cim::xnor::XnorUnit;
use h3dfact_core::accelerator::AnalogKernels;
use h3dfact_core::{batch_run_stats, H3dFactConfig, PcmEngine, RunStats};
use hdc::rng::{derive_seed, rng_from_seed};
use hdc::{BipolarVector, Codebook, ProblemSpec};
use rand::rngs::StdRng;
use resonator::batch::{BatchItem, BatchOutcome};
use resonator::engine::{
    FactorizationOutcome, Factorizer, LoopConfig, ResonatorKernels, ResonatorLoop,
};
use resonator::{Activation, BatchedResonator, LockstepProblem, NoisyReadout, StochasticResonator};
use std::fmt;
use thermal::{LumpedStack, Stack};

use crate::backend::{Backend, Capabilities, LockstepQuery, LockstepSolve, RunReport};
use crate::executor::LOCKSTEP_CHUNK;
use crate::session::{BackendKind, SessionBuildError};

/// Loop-seed namespace of the analog (crossbar) engines.
const ANALOG_LOOP_NS: u64 = 0xACC;
/// Loop-seed namespace of the PCM comparator engine.
const PCM_LOOP_NS: u64 = 0x9C31;
/// Loop-seed namespace of the stochastic software engine.
const STOCHASTIC_LOOP_NS: u64 = 0xD15C;

/// Which hardware target executes the resonator kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// The bit-exact packed-kernel path of the engines (the default).
    Functional,
    /// Tiled crossbars + IR drop + per-iteration lumped-RC thermal
    /// coupling, with a temperature trajectory in the cost report.
    ApproxTiled,
    /// Kernel offload through a bounded DMA command queue (software
    /// executor; bit-identical to functional).
    DmaQueue,
}

impl TargetKind {
    /// The target's stable name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Functional => "functional",
            TargetKind::ApproxTiled => "approx-tiled",
            TargetKind::DmaQueue => "dma-queue",
        }
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Command-queue occupancy statistics of a [`DmaQueueTarget`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Kernel commands serialized through the queue.
    pub commands: u64,
    /// Total bytes transferred (commands + replies).
    pub bytes: u64,
    /// Peak queue occupancy observed, bytes.
    pub max_depth: usize,
    /// Configured queue capacity, bytes.
    pub capacity: usize,
}

/// Per-run cost report of a [`Target`]: the uniform currency every target
/// settles in, superset of the engine-level run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Name of the target that produced the report.
    pub target: &'static str,
    /// Resonator iterations executed.
    pub iterations: usize,
    /// Degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Total clock cycles, when the target has a latency model.
    pub cycles: Option<u64>,
    /// Wall latency at the design clock, seconds.
    pub latency_s: Option<f64>,
    /// Energy by component, when the target has an energy model.
    pub energy: Option<EnergyLedger>,
    /// RRAM tier activation switches (scheduled 3D targets only).
    pub tier_switches: Option<u64>,
    /// ADC conversions performed (analog targets only).
    pub adc_conversions: Option<u64>,
    /// Peak SRAM buffer occupancy, bits (buffered targets only).
    pub buffer_peak_bits: Option<u64>,
    /// Mean die temperature after each iteration, °C (thermal targets
    /// only; empty otherwise).
    pub mean_die_temp_c: Vec<f64>,
    /// Hottest node in the stack at run end, °C (thermal targets only).
    pub peak_temp_c: Option<f64>,
    /// DMA command-queue statistics ([`DmaQueueTarget`] only).
    pub queue: Option<QueueStats>,
}

/// An execution substrate for one resonator run: owns the three kernel
/// primitives (unbind, similarity MVM + activation, projection MVM), the
/// per-iteration hardware state hook, and per-run cost settlement.
///
/// Object-safe and `Send`, so a `Box<dyn Target>` travels through the
/// session's worker threads exactly like a `Box<dyn Backend>`. Codebooks
/// are passed by reference into the calls that need them (the
/// device-resident targets program them at [`Target::begin_run`] and
/// ignore the parameter afterwards), which keeps the trait free of
/// self-referential borrows.
pub trait Target: Send {
    /// Stable identifier of the target (used in cost reports).
    fn target_name(&self) -> &'static str;

    /// Prepares per-run state: programs arrays, reseeds stochasticity,
    /// resets ledgers and thermal state. Called once before each run.
    fn begin_run(&mut self, codebooks: &[Codebook], run_seed: u64);

    /// Unbinding `q_f = s ⊙ ⊙_{j≠f} x̂_j`, written into `out`.
    fn unbind(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    );

    /// Similarity MVM + activation: the `M` projection weights for
    /// `factor`, written into `out`.
    fn similarity(
        &mut self,
        codebooks: &[Codebook],
        factor: usize,
        query: &BipolarVector,
        out: &mut [f64],
    );

    /// Projection MVM `X_f · w`, written into `out` as a readout whose
    /// signs are the projection's: the resonator keeps only the signs.
    /// Analog kernels return sign-exact, not value-exact, sums
    /// ([`cim::crossbar::TiledCrossbar::try_mvm_weighted_signs_into`]).
    fn project(&mut self, codebooks: &[Codebook], factor: usize, weights: &[f64], out: &mut [f64]);

    /// Hook called once per resonator iteration, after all factors have
    /// been updated — where hardware state that co-evolves with the loop
    /// (thermal coupling) advances. Default: no-op.
    fn end_iteration(&mut self) {}

    /// Settles the run's cost into a [`CostReport`] and releases per-run
    /// state.
    fn finish_run(&mut self, outcome: &FactorizationOutcome) -> CostReport;

    /// The loop configuration this target's dynamics require.
    fn loop_config(&self) -> LoopConfig;

    /// Derives the loop-level seed from the run seed (each engine family
    /// namespaces differently; the target owns its family's convention).
    fn loop_seed(&self, run_seed: u64) -> u64;

    /// The batched primitive: solves `queries` as one lockstep batch,
    /// item `i` from run seed `run_seeds[i]`, every item advancing one
    /// iteration at a time through matrix–matrix kernels. Outcomes and
    /// cost reports must be bit-identical (up to wall-clock phase times)
    /// to one `begin_run` / loop / `finish_run` per item. Returns `None`
    /// (the default) when the target has no stepper — kernels that carry
    /// per-run device state — and the caller solves item by item.
    fn run_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
        run_seeds: &[u64],
    ) -> Option<Vec<(FactorizationOutcome, CostReport)>> {
        let _ = (codebooks, queries, run_seeds);
        None
    }
}

/// The cost report of a run with no cost model: loop-level facts only.
fn loop_report(target: &'static str, outcome: &FactorizationOutcome) -> CostReport {
    CostReport {
        target,
        iterations: outcome.iterations,
        degenerate_events: outcome.degenerate_events,
        cycles: None,
        latency_s: None,
        energy: None,
        tier_switches: None,
        adc_conversions: None,
        buffer_peak_bits: None,
        mean_die_temp_c: Vec::new(),
        peak_temp_c: None,
        queue: None,
    }
}

/// Adapter implementing [`ResonatorKernels`] over any [`Target`], so the
/// shared [`ResonatorLoop`] drives targets without knowing about them.
struct TargetKernels<'a> {
    target: &'a mut dyn Target,
    codebooks: &'a [Codebook],
}

impl ResonatorKernels for TargetKernels<'_> {
    fn dim(&self) -> usize {
        self.codebooks[0].dim()
    }

    fn factors(&self) -> usize {
        self.codebooks.len()
    }

    fn codebook_size(&self) -> usize {
        self.codebooks[0].len()
    }

    fn unbind_into(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        self.target.unbind(product, others, out);
    }

    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]) {
        self.target.similarity(self.codebooks, factor, query, out);
    }

    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]) {
        self.target.project(self.codebooks, factor, weights, out);
    }

    fn end_iteration(&mut self) {
        self.target.end_iteration();
    }
}

// ---------------------------------------------------------------------------
// FunctionalTarget
// ---------------------------------------------------------------------------

/// Per-run state of the digital (SRAM-CIM) kernel family, mirroring
/// `DigitalKernels` exactly.
struct DigitalState {
    counter: BipolarCounter,
    xnor: XnorUnit,
    ledger: EnergyLedger,
    lib: ComponentLibrary,
}

/// The software kernel family (baseline / stochastic / PCM comparator),
/// mirroring `SoftwareKernels` exactly: same RNG stream, same
/// [`NoisyReadout`].
struct SoftwareFamily {
    loop_config: LoopConfig,
    /// Loop-seed namespace; `None` uses the run seed raw.
    loop_ns: Option<u64>,
    readout: NoisyReadout,
    rng: Option<StdRng>,
    /// PCM cost mirror (`None` for the costless software engines).
    cost: Option<PcmEngine>,
}

impl SoftwareFamily {
    fn loop_seed(&self, run_seed: u64) -> u64 {
        match self.loop_ns {
            Some(ns) => derive_seed(run_seed, ns),
            None => run_seed,
        }
    }

    /// Settles one run's cost on top of its loop-level `base` report: the
    /// PCM per-iteration cost model, or nothing for the costless engines.
    fn cost_report(&self, base: CostReport) -> CostReport {
        let Some(engine) = &self.cost else {
            return base;
        };
        let iters = base.iterations;
        let (cycles_per_iter, per_iter) = engine.iteration_cost();
        let mut energy = EnergyLedger::new();
        for (component, joules) in per_iter.iter() {
            energy.add(component, joules * iters as f64);
        }
        let cycles = cycles_per_iter * iters as u64;
        let spec = engine.spec();
        CostReport {
            cycles: Some(cycles),
            latency_s: Some(cycles as f64 / (BASE_FREQUENCY_MHZ * 1e6)),
            energy: Some(energy),
            tier_switches: Some(0),
            adc_conversions: Some((spec.factors * spec.codebook_size) as u64 * iters as u64),
            buffer_peak_bits: Some(0),
            ..base
        }
    }
}

/// Which kernel family a [`FunctionalTarget`] extracts.
#[allow(clippy::large_enum_variant)] // one instance per backend; size is irrelevant
enum Family {
    /// Crossbar path of `H3dFact` / `Hybrid2dEngine` (`AnalogKernels`).
    Analog {
        cfg: H3dFactConfig,
        variant: DesignVariant,
        kernels: Option<AnalogKernels>,
    },
    /// Digital path of `Sram2dEngine`.
    Digital {
        spec: ProblemSpec,
        max_iters: usize,
        state: DigitalState,
    },
    /// Software path of `BaselineResonator` / `StochasticResonator` /
    /// `PcmEngine`.
    Software(SoftwareFamily),
}

/// The bit-exact functional target: the packed-kernel compute path of the
/// engines behind the [`Target`] interface. For every [`BackendKind`],
/// outcomes, seed streams, and cost reports are bit-for-bit identical to
/// the corresponding engine (pinned by `tests/targets.rs` and the golden
/// suite). The software family (baseline, stochastic, PCM comparator)
/// also runs whole batches in lockstep ([`Target::run_lockstep`]).
pub struct FunctionalTarget {
    family: Family,
}

/// Design clock of an analog variant, MHz (mirrors
/// `H3dFact::frequency_mhz`).
fn analog_frequency_mhz(variant: DesignVariant) -> f64 {
    match variant {
        DesignVariant::H3dThreeTier => {
            BASE_FREQUENCY_MHZ * TsvSpec::paper().frequency_derate(NATIVE_PATH_LOAD_F)
        }
        _ => BASE_FREQUENCY_MHZ,
    }
}

/// The analog engines' configuration under the session's ADC/noise
/// overrides.
fn hw_config(
    spec: ProblemSpec,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
) -> H3dFactConfig {
    let mut cfg = H3dFactConfig::default_for(spec).with_max_iters(max_iters);
    if let Some(bits) = adc_bits {
        cfg = cfg.with_adc_bits(bits);
    }
    if let Some(n) = noise {
        cfg = cfg.with_noise(n);
    }
    cfg
}

impl FunctionalTarget {
    /// Builds the functional target of `kind`, with the engine's own
    /// constructor-level knob handling: ADC and noise overrides map onto
    /// each engine exactly as its crate constructors take them.
    pub fn for_backend(
        kind: BackendKind,
        spec: ProblemSpec,
        max_iters: usize,
        adc_bits: Option<u8>,
        noise: Option<NoiseSpec>,
    ) -> Self {
        let family = match kind {
            BackendKind::H3dFact => Family::Analog {
                cfg: hw_config(spec, max_iters, adc_bits, noise),
                variant: DesignVariant::H3dThreeTier,
                kernels: None,
            },
            BackendKind::Hybrid2d => Family::Analog {
                cfg: hw_config(spec, max_iters, adc_bits, noise),
                variant: DesignVariant::Hybrid2d,
                kernels: None,
            },
            BackendKind::Sram2d => Family::Digital {
                spec,
                max_iters,
                state: DigitalState {
                    counter: BipolarCounter::new(),
                    xnor: XnorUnit::new(),
                    ledger: EnergyLedger::new(),
                    lib: ComponentLibrary::heterogeneous(),
                },
            },
            BackendKind::Pcm => {
                // The engine seed is irrelevant here — only the cost model
                // and derived knobs are read off this instance.
                let mut engine = PcmEngine::paper_default(spec, max_iters, 0);
                if let Some(bits) = adc_bits {
                    engine = engine.with_adc_bits(bits);
                }
                if let Some(n) = noise {
                    // Workspace noise convention: every analog backend
                    // takes the same *relative per-cell* sigma
                    // (`NoiseSpec::sigma_total()` units) and owns the
                    // `sqrt(D)` column scaling. Fault and write
                    // nonidealities map onto the comparator's survival
                    // model.
                    engine = engine
                        .with_cell_sigma(n.sigma_total())
                        .with_faults(n.stuck_at_rate, n.write_gain());
                }
                Family::Software(SoftwareFamily {
                    loop_config: LoopConfig::stochastic(max_iters),
                    loop_ns: Some(PCM_LOOP_NS),
                    readout: NoisyReadout::new(
                        spec.dim,
                        engine.noise_sigma(),
                        true,
                        Activation::noise_referenced(adc_bits.unwrap_or(4), spec.dim, 3.0),
                        engine.survival(),
                    ),
                    rng: None,
                    cost: Some(engine),
                })
            }
            BackendKind::Baseline => Family::Software(SoftwareFamily {
                loop_config: LoopConfig::baseline(max_iters),
                loop_ns: None,
                readout: NoisyReadout::new(spec.dim, 0.0, false, Activation::Identity, 1.0),
                rng: None,
                cost: None,
            }),
            BackendKind::Stochastic => {
                // The algorithm-level model parameterizes the same knobs
                // as the analog hardware, under the same per-cell sigma
                // convention as the PCM arm above.
                let cell_sigma = noise
                    .map(|n| n.sigma_total())
                    .unwrap_or(StochasticResonator::CHIP_CELL_SIGMA);
                let bits = adc_bits.unwrap_or(4);
                Family::Software(SoftwareFamily {
                    loop_config: LoopConfig::stochastic(max_iters),
                    loop_ns: Some(STOCHASTIC_LOOP_NS),
                    readout: NoisyReadout::new(
                        spec.dim,
                        cell_sigma * (spec.dim as f64).sqrt(),
                        true,
                        Activation::noise_referenced(
                            bits,
                            spec.dim,
                            StochasticResonator::DEFAULT_LSB_SIGMAS,
                        ),
                        1.0,
                    ),
                    rng: None,
                    cost: None,
                })
            }
        };
        Self { family }
    }
}

impl Target for FunctionalTarget {
    fn target_name(&self) -> &'static str {
        "functional"
    }

    fn begin_run(&mut self, codebooks: &[Codebook], run_seed: u64) {
        match &mut self.family {
            Family::Analog {
                cfg,
                variant,
                kernels,
            } => {
                *kernels = Some(AnalogKernels::program(cfg, *variant, codebooks, run_seed));
            }
            Family::Digital { state, .. } => {
                state.ledger = EnergyLedger::new();
            }
            Family::Software(sw) => {
                sw.rng = Some(rng_from_seed(run_seed));
            }
        }
    }

    fn unbind(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        match &mut self.family {
            Family::Analog { kernels, .. } => kernels
                .as_mut()
                .expect("begin_run before kernels")
                .unbind_into(product, others, out),
            Family::Digital { state, .. } => {
                state.xnor.unbind_all_into(product, others, out);
                state.ledger.add(
                    EnergyComponent::Unbind,
                    others.len() as f64
                        * product.dim() as f64
                        * state.lib.e_xnor_gate_j(TechNode::N16),
                );
            }
            Family::Software(_) => {
                out.copy_from(product);
                for o in others {
                    out.bind_assign(o);
                }
            }
        }
    }

    fn similarity(
        &mut self,
        codebooks: &[Codebook],
        factor: usize,
        query: &BipolarVector,
        out: &mut [f64],
    ) {
        match &mut self.family {
            Family::Analog { kernels, .. } => kernels
                .as_mut()
                .expect("begin_run before kernels")
                .similarity_weights_into(factor, query, out),
            Family::Digital { state, .. } => {
                state.counter.mvm_into(&codebooks[factor], query, out);
                state.ledger.add(
                    EnergyComponent::SimilarityMvm,
                    (query.dim() * out.len()) as f64
                        * state.lib.e_mac_sram_digital_j(TechNode::N16),
                );
            }
            Family::Software(sw) => {
                codebooks[factor].similarities_into(query, out);
                let rng = sw.rng.as_mut().expect("begin_run before RNG");
                sw.readout.apply(out, rng);
            }
        }
    }

    fn project(&mut self, codebooks: &[Codebook], factor: usize, weights: &[f64], out: &mut [f64]) {
        match &mut self.family {
            Family::Analog { kernels, .. } => kernels
                .as_mut()
                .expect("begin_run before kernels")
                .project_into(factor, weights, out),
            Family::Digital { state, .. } => {
                codebooks[factor].packed().weighted_sums_into(weights, out);
                state.ledger.add(
                    EnergyComponent::ProjectionMvm,
                    (out.len() * weights.len()) as f64
                        * state.lib.e_mac_sram_digital_j(TechNode::N16),
                );
            }
            Family::Software(_) => {
                codebooks[factor].packed().weighted_sums_into(weights, out);
            }
        }
    }

    fn finish_run(&mut self, outcome: &FactorizationOutcome) -> CostReport {
        let iters = outcome.iterations;
        let base = loop_report(self.target_name(), outcome);
        match &mut self.family {
            Family::Analog {
                cfg,
                variant,
                kernels,
            } => {
                let kernels = kernels.take().expect("begin_run before finish_run");
                let schedule =
                    IterationSchedule::compute(&ScheduleConfig::paper(cfg.spec.factors, cfg.batch));
                let cycles = schedule.cycles * iters as u64;
                let mut energy = kernels.ledger().clone();
                energy.add(
                    EnergyComponent::Control,
                    cycles as f64 * variant.library().e_control_cycle_j(variant.digital_node()),
                );
                CostReport {
                    cycles: Some(cycles),
                    latency_s: Some(cycles as f64 / (analog_frequency_mhz(*variant) * 1e6)),
                    energy: Some(energy),
                    tier_switches: Some(kernels.scheduler().switches()),
                    adc_conversions: Some(kernels.adc_conversions()),
                    buffer_peak_bits: Some(kernels.buffer_peak_bits()),
                    ..base
                }
            }
            Family::Digital { spec, state, .. } => {
                let schedule = IterationSchedule::compute(&ScheduleConfig::paper(spec.factors, 1));
                let cycles = schedule.cycles * iters as u64;
                let mut energy = std::mem::replace(&mut state.ledger, EnergyLedger::new());
                energy.add(
                    EnergyComponent::Control,
                    cycles as f64
                        * ComponentLibrary::heterogeneous().e_control_cycle_j(TechNode::N16),
                );
                CostReport {
                    cycles: Some(cycles),
                    latency_s: Some(cycles as f64 / (BASE_FREQUENCY_MHZ * 1e6)),
                    energy: Some(energy),
                    tier_switches: Some(0),
                    adc_conversions: Some(0),
                    buffer_peak_bits: Some(0),
                    ..base
                }
            }
            Family::Software(sw) => {
                sw.rng = None;
                sw.cost_report(base)
            }
        }
    }

    fn loop_config(&self) -> LoopConfig {
        match &self.family {
            Family::Analog { cfg, .. } => cfg.loop_config,
            Family::Digital { max_iters, .. } => LoopConfig::baseline(*max_iters),
            Family::Software(sw) => sw.loop_config,
        }
    }

    fn loop_seed(&self, run_seed: u64) -> u64 {
        match &self.family {
            Family::Analog { .. } => derive_seed(run_seed, ANALOG_LOOP_NS),
            Family::Digital { .. } => run_seed,
            Family::Software(sw) => sw.loop_seed(run_seed),
        }
    }

    fn run_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
        run_seeds: &[u64],
    ) -> Option<Vec<(FactorizationOutcome, CostReport)>> {
        let Family::Software(sw) = &self.family else {
            return None;
        };
        // Per item: the kernel RNG `begin_run` seeds and the loop seed
        // `loop_seed` derives, read through the target's own readout.
        let problems: Vec<LockstepProblem<'_>> = queries
            .iter()
            .zip(run_seeds)
            .map(|(&(query, truth), &run_seed)| LockstepProblem {
                query,
                truth,
                kernel_seed: run_seed,
                loop_seed: sw.loop_seed(run_seed),
            })
            .collect();
        let outcomes = BatchedResonator::new(sw.loop_config, &sw.readout).run(codebooks, &problems);
        Some(
            outcomes
                .into_iter()
                .map(|outcome| {
                    let cost = sw.cost_report(loop_report(self.target_name(), &outcome));
                    (outcome, cost)
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// ApproxTiledTarget
// ---------------------------------------------------------------------------

/// Ambient (and initial) temperature of the thermal model, °C.
const APPROX_AMBIENT_C: f64 = 25.0;
/// Die extent handed to the thermal stack, mm (the paper floorplan).
const APPROX_EXTENT_MM: f64 = 1.0;

/// Approximate hardware co-simulation: per-factor tiled crossbars with IR
/// drop and rectifying SAR-ADC readout, both RRAM tiers held active (no
/// tier scheduler — the approximation), and a lumped-RC thermal network
/// stepped once per resonator iteration from that iteration's dissipated
/// energy. The [`CostReport`] carries the mean-die-temperature trajectory
/// and the peak stack temperature; everything is deterministic per run
/// seed.
pub struct ApproxTiledTarget {
    cfg: H3dFactConfig,
    variant: DesignVariant,
    lib: ComponentLibrary,
    stack: Stack,
    sim_tier: Vec<TiledCrossbar>,
    proj_tier: Vec<TiledCrossbar>,
    adc: SarAdc,
    xnor: XnorUnit,
    /// Run-cumulative energy.
    ledger: EnergyLedger,
    /// Energy of the iteration in flight (drained at `end_iteration`).
    iter_ledger: EnergyLedger,
    thermal: LumpedStack,
    trajectory: Vec<f64>,
    adc_conversions: u64,
    mvm_scratch: Vec<f64>,
    cycles_per_iter: u64,
    /// Modeled wall time of one iteration, seconds (the thermal step).
    dt_iter_s: f64,
}

impl ApproxTiledTarget {
    /// Builds the approximate tiled target for an analog design variant.
    ///
    /// # Panics
    ///
    /// Panics for the SRAM 2D variant (digital kernels have no crossbars).
    pub fn new(cfg: H3dFactConfig, variant: DesignVariant) -> Self {
        assert_ne!(
            variant,
            DesignVariant::Sram2d,
            "the approximate tiled target models the analog crossbar path"
        );
        cfg.validate();
        let schedule =
            IterationSchedule::compute(&ScheduleConfig::paper(cfg.spec.factors, cfg.batch));
        let dt_iter_s = schedule.cycles as f64 / (analog_frequency_mhz(variant) * 1e6);
        let stack = Stack::paper_h3dfact(APPROX_EXTENT_MM);
        let thermal = LumpedStack::new(&stack, APPROX_AMBIENT_C);
        let adc = SarAdc::ideal(AdcConfig {
            bits: cfg.adc_bits,
            full_scale: cfg.adc_full_scale(),
            offset_sigma: 0.0,
            gain_sigma: 0.0,
        });
        Self {
            cfg,
            variant,
            lib: variant.library(),
            stack,
            sim_tier: Vec::new(),
            proj_tier: Vec::new(),
            adc,
            xnor: XnorUnit::new(),
            ledger: EnergyLedger::new(),
            iter_ledger: EnergyLedger::new(),
            thermal,
            trajectory: Vec::new(),
            adc_conversions: 0,
            mvm_scratch: Vec::new(),
            cycles_per_iter: schedule.cycles,
            dt_iter_s,
        }
    }
}

impl Target for ApproxTiledTarget {
    fn target_name(&self) -> &'static str {
        "approx-tiled"
    }

    fn begin_run(&mut self, codebooks: &[Codebook], run_seed: u64) {
        assert_eq!(
            codebooks.len(),
            self.cfg.spec.factors,
            "codebook count != configured factors"
        );
        let program_one = |f: usize, tier: u64| {
            TiledCrossbar::program(
                &codebooks[f],
                self.cfg.subarray_rows,
                self.cfg.noise,
                self.cfg.fidelity,
                derive_seed(run_seed, tier * 1000 + f as u64),
            )
            .with_ir_drop(self.cfg.ir_drop)
        };
        self.sim_tier = (0..codebooks.len()).map(|f| program_one(f, 3)).collect();
        self.proj_tier = (0..codebooks.len()).map(|f| program_one(f, 2)).collect();
        for xb in self.sim_tier.iter_mut().chain(&mut self.proj_tier) {
            xb.set_power_mode(PowerMode::Active);
        }
        self.ledger = EnergyLedger::new();
        self.iter_ledger = EnergyLedger::new();
        // Programming energy lands in the run ledger directly: it happens
        // before the loop, so it does not heat any iteration's step.
        let pulses: u64 = self
            .sim_tier
            .iter()
            .chain(&self.proj_tier)
            .map(|xb| xb.stats().programs)
            .sum();
        self.ledger.add(
            EnergyComponent::RramProgram,
            pulses as f64 * cim::rram::RramDeviceParams::default().program_energy_j,
        );
        self.thermal = LumpedStack::new(&self.stack, APPROX_AMBIENT_C);
        self.trajectory = Vec::new();
        self.adc_conversions = 0;
        self.mvm_scratch = vec![0.0f64; codebooks[0].len()];
    }

    fn unbind(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        self.xnor.unbind_all_into(product, others, out);
        self.iter_ledger.add(
            EnergyComponent::Unbind,
            others.len() as f64
                * product.dim() as f64
                * self.lib.e_xnor_gate_j(self.variant.digital_node()),
        );
    }

    fn similarity(
        &mut self,
        _codebooks: &[Codebook],
        factor: usize,
        query: &BipolarVector,
        out: &mut [f64],
    ) {
        let d = query.dim() as f64;
        let m = out.len() as f64;
        self.sim_tier[factor]
            .try_mvm_bipolar_into(query, &mut self.mvm_scratch)
            .expect("similarity tier is held active");
        self.iter_ledger.add(
            EnergyComponent::SimilarityMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.iter_ledger.add(
            EnergyComponent::Control,
            d * self.lib.e_drive_row_j(self.variant.periphery_node()),
        );
        for (w, &c) in out.iter_mut().zip(&self.mvm_scratch) {
            *w = self.adc.convert(c.max(0.0));
        }
        self.adc_conversions += out.len() as u64;
        self.iter_ledger.add(
            EnergyComponent::Adc,
            m * self
                .lib
                .e_adc_j(self.cfg.adc_bits, self.variant.periphery_node()),
        );
    }

    fn project(
        &mut self,
        _codebooks: &[Codebook],
        factor: usize,
        weights: &[f64],
        out: &mut [f64],
    ) {
        let d = out.len() as f64;
        let m = weights.len() as f64;
        self.proj_tier[factor]
            .try_mvm_weighted_signs_into(weights, out)
            .expect("projection tier is held active");
        self.iter_ledger.add(
            EnergyComponent::ProjectionMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.iter_ledger.add(
            EnergyComponent::Activation,
            d * self.lib.e_sense_j(self.variant.periphery_node()),
        );
    }

    fn end_iteration(&mut self) {
        self.iter_ledger.add(
            EnergyComponent::Control,
            self.cycles_per_iter as f64 * self.lib.e_control_cycle_j(self.variant.digital_node()),
        );
        // Split the iteration's dissipation across the three dies
        // (bottom-up: tier-1 digital, tier-2 projection, tier-3
        // similarity) and advance the RC network by one iteration time.
        let e = &self.iter_ledger;
        let p_digital = (e.get(EnergyComponent::Unbind)
            + e.get(EnergyComponent::Adc)
            + e.get(EnergyComponent::Control))
            / self.dt_iter_s;
        let p_proj = (e.get(EnergyComponent::ProjectionMvm) + e.get(EnergyComponent::Activation))
            / self.dt_iter_s;
        let p_sim = e.get(EnergyComponent::SimilarityMvm) / self.dt_iter_s;
        self.thermal
            .step(&[p_digital, p_proj, p_sim], self.dt_iter_s);
        self.trajectory.push(self.thermal.mean_die_temp_c());
        let drained = std::mem::replace(&mut self.iter_ledger, EnergyLedger::new());
        self.ledger.merge(&drained);
    }

    fn finish_run(&mut self, outcome: &FactorizationOutcome) -> CostReport {
        let cycles = self.cycles_per_iter * outcome.iterations as u64;
        let report = CostReport {
            cycles: Some(cycles),
            latency_s: Some(cycles as f64 / (analog_frequency_mhz(self.variant) * 1e6)),
            energy: Some(self.ledger.clone()),
            adc_conversions: Some(self.adc_conversions),
            mean_die_temp_c: std::mem::take(&mut self.trajectory),
            peak_temp_c: Some(self.thermal.peak_temp_c()),
            ..loop_report(self.target_name(), outcome)
        };
        self.sim_tier.clear();
        self.proj_tier.clear();
        report
    }

    fn loop_config(&self) -> LoopConfig {
        self.cfg.loop_config
    }

    fn loop_seed(&self, run_seed: u64) -> u64 {
        derive_seed(run_seed, ANALOG_LOOP_NS)
    }
}

// ---------------------------------------------------------------------------
// DmaQueueTarget
// ---------------------------------------------------------------------------

/// Default DMA command-queue capacity, bytes.
pub const DMA_QUEUE_CAPACITY: usize = 4096;

const OP_UNBIND: u8 = 1;
const OP_SIMILARITY: u8 = 2;
const OP_PROJECT: u8 = 3;

/// Serialization cursor over a command/reply buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bipolar(buf: &mut Vec<u8>, v: &BipolarVector) {
    put_u32(buf, v.dim() as u32);
    for &w in v.words() {
        put_u64(buf, w);
    }
}

fn get_bipolar(cur: &mut Cursor<'_>) -> BipolarVector {
    let dim = cur.u32() as usize;
    let words: Vec<u64> = (0..dim.div_ceil(64)).map(|_| cur.u64()).collect();
    let signs: Vec<i8> = (0..dim)
        .map(|i| {
            if words[i / 64] >> (i % 64) & 1 == 1 {
                1
            } else {
                -1
            }
        })
        .collect();
    BipolarVector::from_signs(&signs)
}

/// The DMA offload stub: every kernel call is encoded into a byte command,
/// pushed through a bounded queue (the software executor drains a full
/// queue, exactly like a DMA engine consuming descriptors), decoded on the
/// device side, executed on the wrapped inner target, and the reply
/// returns through the same queue. The encoding is lossless (packed bit
/// words, `f64` bit patterns), so outcomes are bit-identical to driving
/// the inner target directly; the [`CostReport`] additionally carries
/// [`QueueStats`].
pub struct DmaQueueTarget {
    inner: Box<dyn Target>,
    capacity: usize,
    depth: usize,
    max_depth: usize,
    commands: u64,
    bytes: u64,
}

impl DmaQueueTarget {
    /// Wraps `inner` behind a command queue of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: Box<dyn Target>, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner,
            capacity,
            depth: 0,
            max_depth: 0,
            commands: 0,
            bytes: 0,
        }
    }

    /// Streams `n` bytes through the bounded queue: occupancy grows until
    /// the executor drains a full queue, and the high-water mark is
    /// recorded.
    fn transfer(&mut self, n: usize) {
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(self.capacity - self.depth);
            self.depth += take;
            remaining -= take;
            self.max_depth = self.max_depth.max(self.depth);
            if self.depth == self.capacity {
                self.depth = 0;
            }
        }
        self.bytes += n as u64;
    }

    /// Submits one command: request bytes in, device executes, reply bytes
    /// back. The queue empties at the command boundary (the executor has
    /// consumed the descriptor).
    fn submit(&mut self, request: &[u8], reply_len: usize) {
        self.commands += 1;
        self.transfer(request.len());
        self.depth = 0;
        self.transfer(reply_len);
        self.depth = 0;
    }
}

impl Target for DmaQueueTarget {
    fn target_name(&self) -> &'static str {
        "dma-queue"
    }

    fn begin_run(&mut self, codebooks: &[Codebook], run_seed: u64) {
        self.inner.begin_run(codebooks, run_seed);
        self.depth = 0;
        self.max_depth = 0;
        self.commands = 0;
        self.bytes = 0;
    }

    fn unbind(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        let mut cmd = vec![OP_UNBIND];
        put_bipolar(&mut cmd, product);
        put_u32(&mut cmd, others.len() as u32);
        for o in others {
            put_bipolar(&mut cmd, o);
        }
        // Device side: reconstruct every operand from bytes alone.
        let mut cur = Cursor::new(&cmd);
        assert_eq!(cur.u8(), OP_UNBIND);
        let dev_product = get_bipolar(&mut cur);
        let n = cur.u32() as usize;
        let dev_others: Vec<BipolarVector> = (0..n).map(|_| get_bipolar(&mut cur)).collect();
        let refs: Vec<&BipolarVector> = dev_others.iter().collect();
        let mut dev_out = BipolarVector::ones(dev_product.dim());
        self.inner.unbind(&dev_product, &refs, &mut dev_out);
        let mut reply = Vec::new();
        put_bipolar(&mut reply, &dev_out);
        self.submit(&cmd, reply.len());
        let mut rcur = Cursor::new(&reply);
        out.copy_from(&get_bipolar(&mut rcur));
    }

    fn similarity(
        &mut self,
        codebooks: &[Codebook],
        factor: usize,
        query: &BipolarVector,
        out: &mut [f64],
    ) {
        let mut cmd = vec![OP_SIMILARITY];
        put_u32(&mut cmd, factor as u32);
        put_bipolar(&mut cmd, query);
        let mut cur = Cursor::new(&cmd);
        assert_eq!(cur.u8(), OP_SIMILARITY);
        let dev_factor = cur.u32() as usize;
        let dev_query = get_bipolar(&mut cur);
        let mut dev_out = vec![0.0f64; out.len()];
        self.inner
            .similarity(codebooks, dev_factor, &dev_query, &mut dev_out);
        let mut reply = Vec::new();
        for &w in &dev_out {
            put_f64(&mut reply, w);
        }
        self.submit(&cmd, reply.len());
        let mut rcur = Cursor::new(&reply);
        for w in out.iter_mut() {
            *w = rcur.f64();
        }
    }

    fn project(&mut self, codebooks: &[Codebook], factor: usize, weights: &[f64], out: &mut [f64]) {
        let mut cmd = vec![OP_PROJECT];
        put_u32(&mut cmd, factor as u32);
        put_u32(&mut cmd, weights.len() as u32);
        for &w in weights {
            put_f64(&mut cmd, w);
        }
        let mut cur = Cursor::new(&cmd);
        assert_eq!(cur.u8(), OP_PROJECT);
        let dev_factor = cur.u32() as usize;
        let n = cur.u32() as usize;
        let dev_weights: Vec<f64> = (0..n).map(|_| cur.f64()).collect();
        let mut dev_out = vec![0.0f64; out.len()];
        self.inner
            .project(codebooks, dev_factor, &dev_weights, &mut dev_out);
        let mut reply = Vec::new();
        for &s in &dev_out {
            put_f64(&mut reply, s);
        }
        self.submit(&cmd, reply.len());
        let mut rcur = Cursor::new(&reply);
        for s in out.iter_mut() {
            *s = rcur.f64();
        }
    }

    fn end_iteration(&mut self) {
        self.inner.end_iteration();
    }

    fn finish_run(&mut self, outcome: &FactorizationOutcome) -> CostReport {
        let mut report = self.inner.finish_run(outcome);
        report.target = self.target_name();
        report.queue = Some(QueueStats {
            commands: self.commands,
            bytes: self.bytes,
            max_depth: self.max_depth,
            capacity: self.capacity,
        });
        report
    }

    fn loop_config(&self) -> LoopConfig {
        self.inner.loop_config()
    }

    fn loop_seed(&self, run_seed: u64) -> u64 {
        self.inner.loop_seed(run_seed)
    }
}

// ---------------------------------------------------------------------------
// TargetBackend
// ---------------------------------------------------------------------------

/// Backend name of `kind` behind the DMA-queue offload.
fn dma_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::H3dFact => "h3dfact-3d+dma",
        BackendKind::Hybrid2d => "hybrid-2d+dma",
        BackendKind::Sram2d => "sram-2d+dma",
        BackendKind::Pcm => "pcm-2die+dma",
        BackendKind::Baseline => "baseline-sw+dma",
        BackendKind::Stochastic => "stochastic-sw+dma",
    }
}

/// The [`Backend`]: any [`BackendKind`] executing its kernels on any
/// [`Target`]. Owns the run-cursor seed discipline (`run_seed =
/// derive(engine seed, cursor)`), drives the shared [`ResonatorLoop`]
/// through the target's kernels (or the target's lockstep stepper, for
/// batches), and settles each run into both the target's [`CostReport`]
/// and the standard [`RunReport`].
pub struct TargetBackend {
    name: &'static str,
    capabilities: Capabilities,
    target: Box<dyn Target>,
    seed: u64,
    runs: u64,
    last_cost: Option<CostReport>,
    /// `(factors, design clock in MHz)` of the SRAM-buffered batch
    /// roll-up (Sec. IV-A), for the one pairing that schedules batches
    /// natively: the 3D accelerator on the functional target.
    batch_rollup: Option<(usize, f64)>,
}

impl TargetBackend {
    /// Builds the backend for a `(kind, target)` pairing with the
    /// session's constructor knobs (ADC/noise overrides).
    ///
    /// # Errors
    ///
    /// [`SessionBuildError::UnsupportedTarget`] when `target_kind` is
    /// [`TargetKind::ApproxTiled`] and `kind` has no analog crossbar.
    pub fn try_new(
        kind: BackendKind,
        target_kind: TargetKind,
        spec: ProblemSpec,
        max_iters: usize,
        seed: u64,
        adc_bits: Option<u8>,
        noise: Option<NoiseSpec>,
    ) -> Result<Self, SessionBuildError> {
        let functional = || {
            Box::new(FunctionalTarget::for_backend(
                kind, spec, max_iters, adc_bits, noise,
            ))
        };
        // Functional targets are bit-identical to the engines and report
        // under the engine's own name.
        let (name, target): (&'static str, Box<dyn Target>) = match target_kind {
            TargetKind::Functional => (kind.name(), functional()),
            TargetKind::DmaQueue => (
                dma_name(kind),
                Box::new(DmaQueueTarget::new(functional(), DMA_QUEUE_CAPACITY)),
            ),
            TargetKind::ApproxTiled => {
                let (name, variant) = match kind {
                    BackendKind::H3dFact => ("h3dfact-3d+approx", DesignVariant::H3dThreeTier),
                    BackendKind::Hybrid2d => ("hybrid-2d+approx", DesignVariant::Hybrid2d),
                    _ => {
                        return Err(SessionBuildError::UnsupportedTarget {
                            kind,
                            target: target_kind,
                        })
                    }
                };
                let cfg = hw_config(spec, max_iters, adc_bits, noise);
                (name, Box::new(ApproxTiledTarget::new(cfg, variant)))
            }
        };
        let batch_rollup = (kind == BackendKind::H3dFact && target_kind == TargetKind::Functional)
            .then(|| {
                (
                    spec.factors,
                    analog_frequency_mhz(DesignVariant::H3dThreeTier),
                )
            });
        // Every target a kind runs on models its costs (the co-simulated
        // target exists only for the analog kinds, which already do).
        let hardware = !matches!(kind, BackendKind::Baseline | BackendKind::Stochastic);
        let capabilities = Capabilities {
            stochastic: !matches!(kind, BackendKind::Sram2d | BackendKind::Baseline),
            energy_model: hardware,
            latency_model: hardware,
            native_batch: batch_rollup.is_some(),
        };
        Ok(Self {
            name,
            capabilities,
            target,
            seed,
            runs: 0,
            last_cost: None,
            batch_rollup,
        })
    }

    /// [`TargetBackend::try_new`] for pairings known to be supported.
    ///
    /// # Panics
    ///
    /// Panics when `target` is [`TargetKind::ApproxTiled`] and `kind` is
    /// not an analog crossbar backend.
    pub fn new(
        kind: BackendKind,
        target_kind: TargetKind,
        spec: ProblemSpec,
        max_iters: usize,
        seed: u64,
        adc_bits: Option<u8>,
        noise: Option<NoiseSpec>,
    ) -> Self {
        Self::try_new(kind, target_kind, spec, max_iters, seed, adc_bits, noise)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The target's cost report of the most recent run.
    pub fn last_cost_report(&self) -> Option<&CostReport> {
        self.last_cost.as_ref()
    }

    /// A cost report in the common run-report format.
    fn run_report(&self, cost: &CostReport) -> RunReport {
        RunReport {
            backend: self.name,
            iterations: cost.iterations,
            degenerate_events: cost.degenerate_events,
            cycles: cost.cycles,
            latency_s: cost.latency_s,
            energy: cost.energy.clone(),
            tier_switches: cost.tier_switches,
            adc_conversions: cost.adc_conversions,
            buffer_peak_bits: cost.buffer_peak_bits,
        }
    }
}

impl Factorizer for TargetBackend {
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let run_seed = derive_seed(self.seed, self.runs);
        self.runs += 1;
        self.target.begin_run(codebooks, run_seed);
        let config = self.target.loop_config();
        let loop_seed = self.target.loop_seed(run_seed);
        let mut kernels = TargetKernels {
            target: self.target.as_mut(),
            codebooks,
        };
        let outcome =
            ResonatorLoop::new(config).run(&mut kernels, codebooks, query, truth, loop_seed);
        self.last_cost = Some(self.target.finish_run(&outcome));
        outcome
    }
}

impl Backend for TargetBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        self.last_cost.as_ref().map(|c| self.run_report(c))
    }

    fn run_cursor(&self) -> u64 {
        self.runs
    }

    fn seek_run(&mut self, cursor: u64) {
        self.runs = cursor;
    }

    fn factorize_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
    ) -> Vec<LockstepSolve> {
        let run_seeds: Vec<u64> = (self.runs..self.runs + queries.len() as u64)
            .map(|cursor| derive_seed(self.seed, cursor))
            .collect();
        let Some(batch) = self.target.run_lockstep(codebooks, queries, &run_seeds) else {
            return queries
                .iter()
                .map(|&(query, truth)| {
                    let outcome = self.factorize_query(codebooks, query, truth);
                    let report = self.last_run_stats().expect("a run just finished");
                    LockstepSolve { outcome, report }
                })
                .collect();
        };
        self.runs += queries.len() as u64;
        let mut solves = Vec::with_capacity(batch.len());
        for (outcome, cost) in batch {
            solves.push(LockstepSolve {
                outcome,
                report: self.run_report(&cost),
            });
            self.last_cost = Some(cost);
        }
        solves
    }

    fn factorize_batch(&mut self, codebooks: &[Codebook], items: &[BatchItem]) -> BatchOutcome {
        assert!(!items.is_empty(), "batch must be non-empty");
        let mut solves = Vec::with_capacity(items.len());
        for chunk in items.chunks(LOCKSTEP_CHUNK) {
            let queries: Vec<LockstepQuery<'_>> = chunk
                .iter()
                .map(|item| (&item.query, item.truth.as_deref()))
                .collect();
            solves.extend(self.factorize_lockstep(codebooks, &queries));
        }
        let reports: Vec<RunReport> = solves.iter().map(|s| s.report.clone()).collect();
        self.fold_batch_reports(&reports);
        BatchOutcome::from_outcomes(solves.into_iter().map(|s| s.outcome).collect())
    }

    fn fold_batch_reports(&mut self, per_item: &[RunReport]) -> bool {
        let Some((factors, frequency_mhz)) = self.batch_rollup else {
            return false;
        };
        let per_item: Vec<RunStats> = per_item
            .iter()
            .map(|r| RunStats {
                iterations: r.iterations,
                cycles: r.cycles.unwrap_or(0),
                latency_s: r.latency_s.unwrap_or(0.0),
                energy: r.energy.clone().unwrap_or_default(),
                tier_switches: r.tier_switches.unwrap_or(0),
                adc_conversions: r.adc_conversions.unwrap_or(0),
                degenerate_events: r.degenerate_events,
                buffer_peak_bits: r.buffer_peak_bits.unwrap_or(0),
            })
            .collect();
        let batch = batch_run_stats(factors, frequency_mhz, &per_item);
        self.last_cost = Some(CostReport {
            target: self.target.target_name(),
            iterations: batch.iterations,
            degenerate_events: batch.degenerate_events,
            cycles: Some(batch.cycles),
            latency_s: Some(batch.latency_s),
            energy: Some(batch.energy),
            tier_switches: Some(batch.tier_switches),
            adc_conversions: Some(batch.adc_conversions),
            buffer_peak_bits: Some(batch.buffer_peak_bits),
            mean_die_temp_c: Vec::new(),
            peak_temp_c: None,
            queue: None,
        });
        true
    }

    fn last_cost_report(&self) -> Option<CostReport> {
        self.last_cost.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;
    use hdc::FactorizationProblem;

    fn problem(seed: u64) -> FactorizationProblem {
        FactorizationProblem::random(ProblemSpec::new(3, 8, 256), &mut rng_from_seed(seed))
    }

    #[test]
    fn functional_target_matches_h3dfact_engine() {
        let p = problem(900);
        let mut engine = h3dfact_core::H3dFact::new(
            H3dFactConfig::default_for(p.spec()).with_max_iters(400),
            42,
        );
        let mut target = TargetBackend::new(
            BackendKind::H3dFact,
            TargetKind::Functional,
            p.spec(),
            400,
            42,
            None,
            None,
        );
        for _ in 0..2 {
            let a = engine.factorize(&p);
            let b = target.factorize(&p);
            assert_eq!(a.solved, b.solved);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.decoded, b.decoded);
        }
        let ea = engine.last_run_stats().unwrap();
        let eb = target.last_cost_report().unwrap();
        assert_eq!(eb.iterations, ea.iterations);
        assert_eq!(eb.degenerate_events, ea.degenerate_events);
        assert_eq!(eb.cycles, Some(ea.cycles));
        assert_eq!(eb.latency_s, Some(ea.latency_s));
        assert_eq!(eb.energy.as_ref(), Some(&ea.energy), "energy ledger");
        assert_eq!(eb.tier_switches, Some(ea.tier_switches));
        assert_eq!(eb.adc_conversions, Some(ea.adc_conversions));
        assert_eq!(eb.buffer_peak_bits, Some(ea.buffer_peak_bits));
    }

    #[test]
    fn dma_queue_is_bit_identical_to_functional() {
        let p = problem(901);
        for kind in [BackendKind::Baseline, BackendKind::Pcm] {
            let mut f =
                TargetBackend::new(kind, TargetKind::Functional, p.spec(), 400, 7, None, None);
            let mut d =
                TargetBackend::new(kind, TargetKind::DmaQueue, p.spec(), 400, 7, None, None);
            let a = f.factorize(&p);
            let b = d.factorize(&p);
            assert_eq!(a.solved, b.solved);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.decoded, b.decoded);
            let q = d.last_cost_report().unwrap().queue.unwrap();
            assert!(q.commands > 0 && q.bytes > 0);
            assert!(q.max_depth <= q.capacity);
        }
    }

    #[test]
    fn approx_tiled_records_thermal_trajectory() {
        let p = problem(902);
        let mut t = TargetBackend::new(
            BackendKind::H3dFact,
            TargetKind::ApproxTiled,
            p.spec(),
            400,
            3,
            None,
            None,
        );
        let out = t.factorize(&p);
        let cost = t.last_cost_report().unwrap();
        assert_eq!(cost.mean_die_temp_c.len(), out.iterations);
        assert!(cost
            .mean_die_temp_c
            .iter()
            .all(|&c| (APPROX_AMBIENT_C..200.0).contains(&c)));
        assert!(cost.peak_temp_c.unwrap() >= APPROX_AMBIENT_C);
        assert!(cost.energy.as_ref().unwrap().total() > 0.0);
    }
}
