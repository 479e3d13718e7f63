//! The timing adaptor of the traced run: drives the public
//! [`ResonatorLoop`] over a public [`FunctionalTarget`] exactly as
//! `TargetBackend::factorize_query` does, timing every `Target` call.
//!
//! Each kernel call is forwarded immediately and in the order the loop
//! makes it — nothing is cached, batched or reordered — so the split
//! measures the real program. Before a split is reported, the caller
//! checks the adaptor's outcomes and cost reports against
//! `TargetBackend` at the same seeds ([`same_outcome`]).

use std::time::{Duration, Instant};

use h3dfact::hdc::rng::derive_seed;
use h3dfact::hdc::{BipolarVector, Codebook, ProblemSpec};
use h3dfact::resonator::engine::{FactorizationOutcome, ResonatorKernels, ResonatorLoop};
use h3dfact::session::BackendKind;
use h3dfact::target::{CostReport, FunctionalTarget, Target};

/// Time and call counts per `Target` entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelSplit {
    pub unbind: Duration,
    pub similarity: Duration,
    pub project: Duration,
    pub end_iteration: Duration,
    pub unbind_calls: u64,
    pub similarity_calls: u64,
    pub project_calls: u64,
    pub end_iteration_calls: u64,
}

impl KernelSplit {
    /// Time inside kernel calls.
    pub fn kernel_time(&self) -> Duration {
        self.unbind + self.similarity + self.project + self.end_iteration
    }

    /// Calls into the target's kernels.
    pub fn calls(&self) -> u64 {
        self.unbind_calls + self.similarity_calls + self.project_calls + self.end_iteration_calls
    }

    /// Adds another split into this one.
    pub fn add(&mut self, o: &KernelSplit) {
        self.unbind += o.unbind;
        self.similarity += o.similarity;
        self.project += o.project;
        self.end_iteration += o.end_iteration;
        self.unbind_calls += o.unbind_calls;
        self.similarity_calls += o.similarity_calls;
        self.project_calls += o.project_calls;
        self.end_iteration_calls += o.end_iteration_calls;
    }
}

/// [`ResonatorKernels`] over a [`Target`], timing each forwarded call.
struct TimedKernels<'a> {
    target: &'a mut FunctionalTarget,
    codebooks: &'a [Codebook],
    split: KernelSplit,
    /// Projection weights kept for the `hdc` kernel timing.
    weight_sample: &'a mut Vec<Vec<f64>>,
}

/// Projection weight vectors kept per solver, and the call stride they
/// are taken at (spread over iterations rather than the first few).
const WEIGHT_SAMPLES: usize = 8;
const WEIGHT_STRIDE: u64 = 61;

impl ResonatorKernels for TimedKernels<'_> {
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
        let t = Instant::now();
        self.target.unbind(product, others, out);
        self.split.unbind += t.elapsed();
        self.split.unbind_calls += 1;
    }

    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]) {
        let t = Instant::now();
        self.target.similarity(self.codebooks, factor, query, out);
        self.split.similarity += t.elapsed();
        self.split.similarity_calls += 1;
    }

    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]) {
        if factor == 0
            && self.split.project_calls.is_multiple_of(WEIGHT_STRIDE)
            && self.weight_sample.len() < WEIGHT_SAMPLES
        {
            self.weight_sample.push(weights.to_vec());
        }
        let t = Instant::now();
        self.target.project(self.codebooks, factor, weights, out);
        self.split.project += t.elapsed();
        self.split.project_calls += 1;
    }

    fn end_iteration(&mut self) {
        let t = Instant::now();
        self.target.end_iteration();
        self.split.end_iteration += t.elapsed();
        self.split.end_iteration_calls += 1;
    }
}

/// One traced solve.
pub struct TracedSolve {
    pub outcome: FactorizationOutcome,
    pub cost: CostReport,
    pub split: KernelSplit,
    /// Wall time of `ResonatorLoop::run` (kernels included).
    pub loop_wall: Duration,
    /// Wall time of `Target::begin_run` + `Target::finish_run`.
    pub run_setup: Duration,
}

/// The adaptor's solver: a functional target plus the engine seed whose
/// run cursors it derives run seeds from (the `TargetBackend` discipline
/// `run_seed = derive_seed(seed, cursor)`).
pub struct TracedSolver {
    target: FunctionalTarget,
    seed: u64,
    /// Projection weights seen by the loop (factor 0, every
    /// `WEIGHT_STRIDE`-th call of a solve, at most `WEIGHT_SAMPLES`).
    pub weight_sample: Vec<Vec<f64>>,
}

impl TracedSolver {
    /// The adaptor equivalent of
    /// `TargetBackend::new(kind, Functional, spec, max_iters, seed, None, None)`.
    pub fn new(kind: BackendKind, spec: ProblemSpec, max_iters: usize, seed: u64) -> Self {
        Self {
            target: FunctionalTarget::for_backend(kind, spec, max_iters, None, None),
            seed,
            weight_sample: Vec::new(),
        }
    }

    /// Solves `query` at run cursor `cursor`.
    pub fn solve(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
        cursor: u64,
    ) -> TracedSolve {
        let run_seed = derive_seed(self.seed, cursor);
        let t0 = Instant::now();
        self.target.begin_run(codebooks, run_seed);
        let config = self.target.loop_config();
        let loop_seed = self.target.loop_seed(run_seed);
        let begun = t0.elapsed();
        let mut kernels = TimedKernels {
            target: &mut self.target,
            codebooks,
            split: KernelSplit::default(),
            weight_sample: &mut self.weight_sample,
        };
        let t1 = Instant::now();
        let outcome =
            ResonatorLoop::new(config).run(&mut kernels, codebooks, query, truth, loop_seed);
        let loop_wall = t1.elapsed();
        let split = kernels.split;
        let t2 = Instant::now();
        let cost = self.target.finish_run(&outcome);
        TracedSolve {
            outcome,
            cost,
            split,
            loop_wall,
            run_setup: begun + t2.elapsed(),
        }
    }
}

/// Outcome equality on everything but the wall-clock phase times.
pub fn same_outcome(a: &FactorizationOutcome, b: &FactorizationOutcome) -> bool {
    a.solved == b.solved
        && a.iterations == b.iterations
        && a.solved_at == b.solved_at
        && a.converged == b.converged
        && a.decoded == b.decoded
        && a.cycle == b.cycle
        && a.revisits == b.revisits
        && a.degenerate_events == b.degenerate_events
}
