//! The top-level entry point: a [`Session`] owns one problem shape, one
//! [`Backend`] — a [`TargetBackend`] executing the chosen engine's kernels
//! on the chosen [`TargetKind`] (functional by default) — problem
//! generation, batched solving with per-problem seeds, and aggregate
//! accuracy/energy/latency reporting.
//!
//! ```
//! use h3dfact::prelude::*;
//!
//! let spec = ProblemSpec::new(3, 8, 256);
//! let mut session = Session::builder()
//!     .spec(spec)
//!     .backend(BackendKind::Stochastic)
//!     .seed(7)
//!     .max_iters(500)
//!     .build();
//! let report = session.run(4);
//! assert_eq!(report.problems, 4);
//! assert!(report.accuracy() > 0.5);
//! ```

use std::fmt;
use std::sync::Arc;

use cim::noise::NoiseSpec;
use hdc::rng::{derive_seed, stream_rng};
use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
use resonator::batch::{BatchItem, BatchOutcome};
use resonator::engine::FactorizationOutcome;
use resonator::metrics::IterationStats;

use crate::backend::{Backend, LockstepSolve, RunReport};
use crate::executor::{self, RequestSolve};
use crate::registry::{CodebookHandle, CodebookRegistry};
use crate::target::{CostReport, TargetBackend, TargetKind};
use crate::workload::{Workload, WorkloadReport};

/// Stream namespaces for the session's seed-derivation tree. Every family
/// of streams a session draws is namespaced through a **nested**
/// [`derive_seed`] (`derive_seed(derive_seed(seed, NS), k)`) rather than a
/// flat offset (`derive_seed(seed, NS + k)`): flat offsets alias once `k`
/// crosses a namespace boundary, which is exactly the failure mode a
/// long-lived serving shard (billions of issued problems) would hit.
mod ns {
    /// Backend constructor seeds.
    pub const BACKEND: u64 = 0xB4C;
    /// Codebook generation.
    pub const CODEBOOKS: u64 = 0xC0DE;
    /// Per-problem seed streams ([`super::Session::generate`]).
    pub const PROBLEMS: u64 = 0xE90C;
    /// Carved-shard seed lineage ([`super::Session::carve_shard`]).
    pub const SHARDS: u64 = 0x5AAD;
}

/// The six engines a [`Session`] can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulated three-tier H3DFact accelerator (device-accurate).
    H3dFact,
    /// The fully digital SRAM-CIM 2D baseline of Table III.
    Sram2d,
    /// The monolithic hybrid (RRAM+SRAM, 40 nm) 2D baseline of Table III.
    Hybrid2d,
    /// The two-die PCM in-memory factorizer comparator of Sec. V-B.
    Pcm,
    /// The deterministic software baseline resonator (Frady et al.).
    Baseline,
    /// The algorithm-level stochastic software model of H3DFact.
    Stochastic,
}

impl BackendKind {
    /// Every backend, in presentation order.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::H3dFact,
        BackendKind::Sram2d,
        BackendKind::Hybrid2d,
        BackendKind::Pcm,
        BackendKind::Baseline,
        BackendKind::Stochastic,
    ];

    /// The backend's stable name (matches `Backend::name`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::H3dFact => "h3dfact-3d",
            BackendKind::Sram2d => "sram-2d",
            BackendKind::Hybrid2d => "hybrid-2d",
            BackendKind::Pcm => "pcm-2die",
            BackendKind::Baseline => "baseline-sw",
            BackendKind::Stochastic => "stochastic-sw",
        }
    }

    /// Instantiates this kind on the functional target — bit-identical to
    /// the engine of the same kind and seed in `h3dfact_core` /
    /// `resonator`.
    pub fn instantiate(
        self,
        spec: ProblemSpec,
        max_iters: usize,
        seed: u64,
        adc_bits: Option<u8>,
        noise: Option<NoiseSpec>,
    ) -> Box<dyn Backend> {
        Box::new(TargetBackend::new(
            self,
            TargetKind::Functional,
            spec,
            max_iters,
            seed,
            adc_bits,
            noise,
        ))
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why [`SessionBuilder::try_build`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionBuildError {
    /// No problem shape was supplied.
    MissingSpec,
    /// The iteration budget was zero.
    ZeroIterationBudget,
    /// The backend kind cannot execute on the requested target (the
    /// approximate tiled target models the analog crossbar path only).
    UnsupportedTarget {
        /// The requested backend kind.
        kind: BackendKind,
        /// The requested target.
        target: TargetKind,
    },
}

impl fmt::Display for SessionBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionBuildError::MissingSpec => {
                write!(f, "Session::builder() needs .spec(ProblemSpec::new(..))")
            }
            SessionBuildError::ZeroIterationBudget => {
                write!(f, "max_iters must be at least 1")
            }
            SessionBuildError::UnsupportedTarget { kind, target } => {
                write!(
                    f,
                    "the {target} target models the analog crossbar path; {kind} has none"
                )
            }
        }
    }
}

impl std::error::Error for SessionBuildError {}

/// Fluent construction of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    spec: Option<ProblemSpec>,
    backend: BackendKind,
    seed: u64,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
    threads: usize,
    target: TargetKind,
    registry: Option<Arc<CodebookRegistry>>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self {
            spec: None,
            backend: BackendKind::H3dFact,
            seed: 0,
            max_iters: 2_000,
            adc_bits: None,
            noise: None,
            threads: 1,
            target: TargetKind::Functional,
            registry: None,
        }
    }
}

impl SessionBuilder {
    /// The problem shape the session is provisioned for (required).
    pub fn spec(mut self, spec: ProblemSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Which engine to drive (default: [`BackendKind::H3dFact`]).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Master seed for codebooks, problems, and engine stochasticity
    /// (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iteration budget per problem (default: 2000, the paper's budget).
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// ADC resolution override for the analog hardware backends (Fig. 6a
    /// studies). Ignored by software backends.
    pub fn adc_bits(mut self, bits: u8) -> Self {
        self.adc_bits = Some(bits);
        self
    }

    /// Device-noise override for the analog hardware backends. Ignored by
    /// software backends.
    pub fn noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Worker threads for batch solving (default: 1, fully sequential).
    /// `0` means "all available cores". With `n > 1`, [`Session::run`] and
    /// [`Session::run_batched`] solve batch items on a deterministic
    /// worker pool whose [`SessionReport`]s are **bit-identical** to the
    /// sequential run at the same seed: each item is solved at the run
    /// cursor it would have had sequentially, and order-sensitive
    /// aggregation (energy sums) happens in item order afterwards.
    ///
    /// Pick `n` up to the physical core count for throughput sweeps;
    /// oversubscribing buys nothing because items are CPU-bound. Single
    /// `solve`/`solve_query` calls are unaffected.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Execution target for the backend's kernels (default:
    /// [`TargetKind::Functional`], bit-identical at every seed — same
    /// outcomes, same reports — to the engine of the same kind in
    /// `h3dfact_core` / `resonator`). Every target surfaces per-run
    /// [`CostReport`](crate::target::CostReport)s through
    /// [`Session::last_cost_report`]; the other targets trade fidelity for
    /// richer hardware co-simulation or offload modeling.
    pub fn target(mut self, target: TargetKind) -> Self {
        self.target = target;
        self
    }

    /// Codebook registry to intern this session's codebooks in (default:
    /// the process-wide [`CodebookRegistry::global`]). Sessions with
    /// content-identical codebooks — e.g. many tenants at one seed —
    /// resolve to **one** shared allocation through the registry, and the
    /// registry's hot/cold hierarchy decides lazily whether the packed
    /// lane-major mirrors are materialized (only for codebooks whose
    /// bit-GEMM streams). Results are bit-identical in every tier state;
    /// pass a private registry in tests/benches that measure footprint.
    pub fn registry(mut self, registry: Arc<CodebookRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the session.
    pub fn try_build(self) -> Result<Session, SessionBuildError> {
        let spec = self.spec.ok_or(SessionBuildError::MissingSpec)?;
        if self.max_iters == 0 {
            return Err(SessionBuildError::ZeroIterationBudget);
        }
        let backend = Box::new(TargetBackend::try_new(
            self.backend,
            self.target,
            spec,
            self.max_iters,
            derive_seed(self.seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        )?);
        let registry = self.registry.unwrap_or_else(CodebookRegistry::global);
        let mut rng = stream_rng(self.seed, ns::CODEBOOKS);
        let generated: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let codebook_handle = CodebookRegistry::intern(&registry, generated);
        let codebooks = codebook_handle.resolve();
        Ok(Session {
            spec,
            kind: self.backend,
            seed: self.seed,
            max_iters: self.max_iters,
            adc_bits: self.adc_bits,
            noise: self.noise,
            threads: self.threads,
            target: self.target,
            codebook_handle,
            codebooks,
            backend,
            problem_cursor: 0,
            shards_carved: 0,
            last_report: None,
        })
    }

    /// Builds the session.
    ///
    /// # Panics
    ///
    /// Panics when required parameters are missing; use
    /// [`SessionBuilder::try_build`] to handle that as a `Result`.
    pub fn build(self) -> Session {
        match self.try_build() {
            Ok(session) => session,
            Err(e) => panic!("invalid session: {e}"),
        }
    }
}

/// Aggregate result of a [`Session`] solve pass.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Name of the backend that ran.
    pub backend: &'static str,
    /// Problems attempted.
    pub problems: usize,
    /// Problems solved within budget.
    pub solved: usize,
    /// Iterations across all problems (the pass's work measure).
    pub total_iterations: usize,
    /// Iteration statistics over the solved problems.
    pub iterations: IterationStats,
    /// Total energy, joules — `None` for backends without an energy model.
    pub total_energy_j: Option<f64>,
    /// Total modeled latency, seconds — `None` without a latency model.
    pub total_latency_s: Option<f64>,
    /// Per-problem outcomes, in generation order.
    pub outcomes: Vec<FactorizationOutcome>,
}

impl SessionReport {
    /// Fraction of problems solved.
    pub fn accuracy(&self) -> f64 {
        if self.problems == 0 {
            0.0
        } else {
            self.solved as f64 / self.problems as f64
        }
    }

    /// Mean energy per problem, joules.
    pub fn energy_per_problem_j(&self) -> Option<f64> {
        self.total_energy_j
            .filter(|_| self.problems > 0)
            .map(|e| e / self.problems as f64)
    }

    /// Mean modeled latency per problem, seconds.
    pub fn latency_per_problem_s(&self) -> Option<f64> {
        self.total_latency_s
            .filter(|_| self.problems > 0)
            .map(|l| l / self.problems as f64)
    }

    /// Mean iterations among solved problems.
    pub fn mean_iterations_solved(&self) -> Option<f64> {
        (self.iterations.count() > 0).then(|| self.iterations.mean())
    }
}

/// A configured solving session: one problem shape, one backend, owned
/// codebooks, deterministic per-problem seed streams, and aggregate
/// reporting.
///
/// Construct with [`Session::builder`]. See the module docs for a
/// round-trip example.
pub struct Session {
    spec: ProblemSpec,
    kind: BackendKind,
    seed: u64,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
    /// Worker threads for batch solving (`0` = all cores, `1` = sequential).
    threads: usize,
    /// Execution target of the backend's kernels.
    target: TargetKind,
    /// The registry entry this session's codebooks are interned under.
    /// Content-identical sessions (same seed/spec, or any other route to
    /// the same sign words) share one entry — and one allocation —
    /// process-wide.
    codebook_handle: CodebookHandle,
    /// The shared codebooks, as last resolved from the registry: carved
    /// shards and request streams hold the same allocation (`Arc`), so a
    /// pool of N shards stores the codebooks once, not N times. Solve
    /// passes refresh this once per pass ([`Session::refresh_codebooks`])
    /// and run entirely against one `Arc` — the executor's lockstep
    /// chunking groups by slice identity.
    codebooks: Arc<[Codebook]>,
    backend: Box<dyn Backend>,
    /// Next problem-stream cursor: problem `k` of this session draws the
    /// seed stream `(seed, PROBLEMS, k)` regardless of how generation
    /// calls are chunked, so an already-issued problem seed is never
    /// re-derived — the property serving shards rely on when they seed
    /// request streams mid-cursor.
    problem_cursor: u64,
    /// Shards carved from this session so far (each gets its own seed
    /// lineage, so carved shards draw disjoint problem streams).
    shards_carved: u64,
    /// Report of the most recent solve through this session (parallel
    /// passes produce it from the final item's worker, so sequential and
    /// parallel sessions observe the same report stream).
    last_report: Option<RunReport>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The problem shape.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Which backend kind is driving.
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The iteration budget per problem.
    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    /// The session's shared codebooks (derived from the master seed).
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// The shared codebook allocation itself, for layers (the service's
    /// request streams) that need an owning handle without copying.
    pub(crate) fn codebooks_shared(&self) -> Arc<[Codebook]> {
        Arc::clone(&self.codebooks)
    }

    /// The registry handle this session's codebooks are interned under.
    /// Resolving it touches the registry's LRU and returns the current
    /// hot-tier `Arc` (value-identical in any tier state).
    pub fn codebook_handle(&self) -> &CodebookHandle {
        &self.codebook_handle
    }

    /// Re-resolves the codebooks through the registry — one LRU touch,
    /// promoting the entry hot if it was demoted — and caches the result
    /// for the coming pass. Called once per solve pass so the whole pass
    /// runs against a single `Arc`.
    pub(crate) fn refresh_codebooks(&mut self) {
        self.codebooks = self.codebook_handle.resolve();
    }

    /// Direct access to the backend for specialized flows (explain-away,
    /// capacity sweeps, custom codebooks).
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        &mut *self.backend
    }

    /// Configured worker threads (`0` = all cores, `1` = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Statistics of the most recent solve through this session, in the
    /// common format.
    pub fn last_run_stats(&self) -> Option<RunReport> {
        self.last_report.clone()
    }

    /// The execution target the backend's kernels run on.
    pub fn target_kind(&self) -> TargetKind {
        self.target
    }

    /// The target-level cost report of the most recent solve through the
    /// session's own backend (`None` before the first one; parallel
    /// passes solve on worker backends, so their per-item cost reports
    /// do not land here).
    pub fn last_cost_report(&self) -> Option<CostReport> {
        self.backend.last_cost_report()
    }

    /// Generates `n` problems over the session codebooks, each from its
    /// own deterministic seed stream, and advances the problem cursor past
    /// them. `n == 0` yields an empty workload.
    ///
    /// Problem `k` of a session's lifetime is a pure function of
    /// `(session seed, k)` — **not** of how the stream was chunked into
    /// `generate` calls: `generate(2)` followed by `generate(3)` yields
    /// exactly the five problems of one `generate(5)`. This is what lets a
    /// serving shard pick its request stream up mid-cursor without ever
    /// re-deriving an already-issued problem seed.
    pub fn generate(&mut self, n: usize) -> Vec<BatchItem> {
        let items = self.generate_at(self.problem_cursor, n);
        self.problem_cursor += n as u64;
        items
    }

    /// Generates the `n` problems at cursors `[cursor, cursor + n)` of
    /// this session's problem stream without moving the session's own
    /// cursor — the random-access view of the stream [`Session::generate`]
    /// walks.
    pub fn generate_at(&self, cursor: u64, n: usize) -> Vec<BatchItem> {
        let master = derive_seed(self.seed, ns::PROBLEMS);
        (0..n)
            .map(|i| {
                let mut rng = stream_rng(master, cursor + i as u64);
                let (query, truth) = FactorizationProblem::draw_query(&self.codebooks, &mut rng);
                BatchItem {
                    query,
                    truth: Some(truth),
                }
            })
            .collect()
    }

    /// The next problem-stream cursor [`Session::generate`] will issue.
    pub fn problem_cursor(&self) -> u64 {
        self.problem_cursor
    }

    /// Repositions the problem stream: the next [`Session::generate`]
    /// call starts at problem `cursor`. Seeking backwards replays the
    /// exact problems already issued at those cursors.
    pub fn seek_problems(&mut self, cursor: u64) {
        self.problem_cursor = cursor;
    }

    /// Carves a warmed shard off this session: a new [`Session`] with the
    /// same shape, knobs, and **shared codebooks** (the same `Arc`
    /// allocation, not a copy) but its own seed lineage — the shard's backend
    /// stochasticity and problem stream are disjoint from the parent's and
    /// from every other shard's, no matter how far any of their cursors
    /// advance. The service layer builds its pre-warmed shard pool this
    /// way; codebook generation is paid once, on the parent.
    pub fn carve_shard(&mut self) -> Session {
        self.carve_shard_as(self.kind)
    }

    /// [`Session::carve_shard`] with a different backend kind: the shard
    /// shares the parent's codebooks and seed lineage discipline but
    /// drives `kind`. Lets one parent warm a heterogeneous shard pool over
    /// identical codebooks.
    ///
    /// # Panics
    ///
    /// Panics if `kind` cannot execute on this session's target.
    pub fn carve_shard_as(&mut self, kind: BackendKind) -> Session {
        self.carve_shard_on(kind, self.target)
            .unwrap_or_else(|e| panic!("invalid shard: {e}"))
    }

    /// [`Session::carve_shard_as`] on an explicit target. A refused
    /// pairing consumes no shard lineage.
    pub(crate) fn carve_shard_on(
        &mut self,
        kind: BackendKind,
        target: TargetKind,
    ) -> Result<Session, SessionBuildError> {
        let shard_seed = derive_seed(derive_seed(self.seed, ns::SHARDS), self.shards_carved);
        let backend = Box::new(TargetBackend::try_new(
            kind,
            target,
            self.spec,
            self.max_iters,
            derive_seed(shard_seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        )?);
        self.shards_carved += 1;
        Ok(Session {
            spec: self.spec,
            kind,
            seed: shard_seed,
            max_iters: self.max_iters,
            adc_bits: self.adc_bits,
            noise: self.noise,
            threads: self.threads,
            target,
            codebook_handle: self.codebook_handle.clone(),
            codebooks: Arc::clone(&self.codebooks),
            backend,
            problem_cursor: 0,
            shards_carved: 0,
            last_report: None,
        })
    }

    /// Solves one caller-supplied problem (any codebooks of the right
    /// shape), recording stats on the backend.
    pub fn solve(&mut self, problem: &FactorizationProblem) -> FactorizationOutcome {
        let out = self.backend.factorize(problem);
        self.last_report = self.backend.last_run_stats();
        out
    }

    /// Solves an arbitrary (possibly noisy) query over caller-supplied
    /// codebooks.
    pub fn solve_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let out = self.backend.factorize_query(codebooks, query, truth);
        self.last_report = self.backend.last_run_stats();
        out
    }

    /// Worker threads a batch of `n_items` will actually use.
    fn effective_threads(&self, n_items: usize) -> usize {
        executor::resolve_threads(self.threads).min(n_items.max(1))
    }

    /// A thread-safe constructor of backends identical to this session's
    /// (same kind, target and constructor seed), for the parallel
    /// executor's per-worker backends. The service layer uses the same
    /// factories to give its micro-batch pool backends bit-identical to
    /// each shard's warmed one.
    pub(crate) fn backend_factory(&self) -> impl Fn() -> Box<dyn Backend> + Send + Sync + 'static {
        let (kind, target, spec, max_iters, seed, adc_bits, noise) = (
            self.kind,
            self.target,
            self.spec,
            self.max_iters,
            derive_seed(self.seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        );
        move || {
            Box::new(TargetBackend::new(
                kind, target, spec, max_iters, seed, adc_bits, noise,
            )) as Box<dyn Backend>
        }
    }

    /// One pass's requests on this session's backend: item `i` at the
    /// run cursor `run_cursor() + i` it would have had sequentially.
    fn requests<'a>(
        &self,
        items: impl Iterator<Item = (&'a [Codebook], &'a BipolarVector, Option<&'a [usize]>)>,
    ) -> Vec<RequestSolve<'a>> {
        let base = self.backend.run_cursor();
        items
            .enumerate()
            .map(|(i, (codebooks, query, truth))| RequestSolve {
                shard: 0,
                cursor: base + i as u64,
                codebooks,
                query,
                truth,
            })
            .collect()
    }

    /// Solves a pass's [`Session::requests`] — inline on the session's
    /// backend, or on the deterministic worker pool when `threads > 1` —
    /// advances the cursor past them, and records the final item's
    /// report, leaving the session in exactly the state a sequential
    /// per-item pass would have left it in.
    fn solve_pass(&mut self, requests: &[RequestSolve<'_>], threads: usize) -> Vec<LockstepSolve> {
        let solves = if threads > 1 {
            let factory: Box<dyn Fn() -> Box<dyn Backend> + Send + Sync> =
                Box::new(self.backend_factory());
            executor::solve_requests(std::slice::from_ref(&factory), requests, threads)
        } else {
            executor::solve_inline(&mut *self.backend, requests)
        };
        if let (Some(request), Some(solve)) = (requests.last(), solves.last()) {
            self.backend.seek_run(request.cursor + 1);
            self.last_report = Some(solve.report.clone());
        }
        solves
    }

    /// [`Session::solve_pass`] over generated `items` on the session's
    /// codebooks.
    fn solve_items(&mut self, items: &[BatchItem], threads: usize) -> Vec<LockstepSolve> {
        let books = Arc::clone(&self.codebooks);
        let requests = self.requests(
            items
                .iter()
                .map(|item| (&books[..], &item.query, item.truth.as_deref())),
        );
        self.solve_pass(&requests, threads)
    }

    /// The session report of a solved pass, with per-item costs
    /// accumulated in item order — the single definition of cost folding,
    /// shared by every pass, so `threads(N) ≡ threads(1)` bit for bit.
    fn report_from_solves(&self, solves: Vec<LockstepSolve>) -> SessionReport {
        let (mut energy, mut latency) = (None, None);
        let mut outcomes = Vec::with_capacity(solves.len());
        for solve in solves {
            if let Some(e) = solve.report.energy_j() {
                *energy.get_or_insert(0.0) += e;
            }
            if let Some(l) = solve.report.latency_s {
                *latency.get_or_insert(0.0) += l;
            }
            outcomes.push(solve.outcome);
        }
        self.report_from(outcomes, energy, latency)
    }

    /// Generates `n` fresh problems and solves them one by one,
    /// accumulating per-run cost into the report. The workload is
    /// identical to [`Session::run_batched`] at the same epoch.
    ///
    /// With [`SessionBuilder::threads`] above 1, items are solved on the
    /// deterministic worker pool; the report is bit-identical to the
    /// sequential run (energy/latency are accumulated in item order from
    /// the same per-item reports).
    pub fn run(&mut self, n: usize) -> SessionReport {
        self.refresh_codebooks();
        let items = self.generate(n);
        let solves = self.solve_items(&items, self.effective_threads(items.len()));
        self.report_from_solves(solves)
    }

    /// Generates `n` fresh problems and solves them through the backend's
    /// batch path (natively scheduled where supported). Cost totals come
    /// from the backend's post-batch report when it covers the batch
    /// (`native_batch` capability), otherwise they are omitted.
    ///
    /// With [`SessionBuilder::threads`] above 1, items are solved on the
    /// deterministic worker pool and the per-item reports are folded back
    /// into the backend's native batch roll-up
    /// ([`Backend::fold_batch_reports`]), so the report is bit-identical
    /// to the sequential batched run.
    pub fn run_batched(&mut self, n: usize) -> SessionReport {
        self.refresh_codebooks();
        let items = self.generate(n);
        if items.is_empty() {
            return self.report_from(Vec::new(), None, None);
        }
        let threads = self.effective_threads(items.len());
        // Cost totals may only come from a report that covers the WHOLE
        // batch: the sequential native roll-up, or a fold of every
        // per-item report. A backend without a native roll-up must omit
        // cost rather than silently report one item's.
        let (outcomes, batch_report_valid) = if threads > 1 {
            let solves = self.solve_items(&items, threads);
            let reports: Vec<RunReport> = solves.iter().map(|s| s.report.clone()).collect();
            let folded = self.backend.fold_batch_reports(&reports);
            if folded {
                self.last_report = self.backend.last_run_stats();
            }
            (solves.into_iter().map(|s| s.outcome).collect(), folded)
        } else {
            let batch = self.backend.factorize_batch(&self.codebooks, &items);
            self.last_report = self.backend.last_run_stats();
            (batch.outcomes, self.backend.capabilities().native_batch)
        };
        let (mut energy, mut latency) = (None, None);
        if batch_report_valid {
            if let Some(report) = &self.last_report {
                energy = report.energy_j();
                latency = report.latency_s;
            }
        }
        self.report_from(outcomes, energy, latency)
    }

    /// Runs `n` units of `workload` through this session's backend and
    /// worker pool: queries are generated up front (deterministically, per
    /// item), solved exactly like a [`Session::run`] batch — bit-identical
    /// between `threads(1)` and `threads(N)` — and handed back to the
    /// workload for scoring. Returns the workload's score on top of the
    /// standard session statistics.
    ///
    /// # Panics
    ///
    /// Panics if the workload's [`Workload::spec`] differs from the
    /// session's, or the generated set is inconsistent.
    pub fn run_workload(&mut self, workload: &mut dyn Workload, n: usize) -> WorkloadReport {
        assert_eq!(
            workload.spec(),
            self.spec,
            "workload shape must match the session spec"
        );
        let set = workload.generate(n);
        set.validate(self.spec);
        let requests = self.requests(set.items.iter().map(|item| {
            (
                set.groups[item.group].as_slice(),
                &item.query,
                item.truth.as_deref(),
            )
        }));
        let solves = self.solve_pass(&requests, self.effective_threads(set.items.len()));
        let session = self.report_from_solves(solves);
        let score = workload.score(&set, &session.outcomes);
        WorkloadReport {
            workload: workload.name().to_string(),
            units: set.units,
            score: score.score,
            metrics: score.metrics,
            session,
        }
    }

    fn report_from(
        &self,
        outcomes: Vec<FactorizationOutcome>,
        total_energy_j: Option<f64>,
        total_latency_s: Option<f64>,
    ) -> SessionReport {
        // One definition of solved-iteration aggregation, shared with
        // every batch path.
        let batch = BatchOutcome::from_outcomes(outcomes);
        SessionReport {
            backend: self.backend.name(),
            problems: batch.len(),
            solved: batch.iterations.count(),
            total_iterations: batch.total_iterations(),
            iterations: batch.iterations,
            total_energy_j,
            total_latency_s,
            outcomes: batch.outcomes,
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("backend", &self.kind)
            .field("seed", &self.seed)
            .field("max_iters", &self.max_iters)
            .field("problem_cursor", &self.problem_cursor)
            .finish()
    }
}

/// Steal events of the deterministic parallel executor since process
/// start, across every pass (monotone, process-global). A steal happens
/// when a worker's own chunk deque drains and it takes the back half of
/// another worker's — the signature of ragged lockstep retirement being
/// rebalanced. Observability only (the bench harness records it next to
/// the per-thread scaling curve); scheduling never reads it, and steal
/// timing cannot reach outcomes — every chunk re-seeds its engine from
/// its own cursor, so `threads(N) ≡ threads(1)` holds under any
/// interleaving.
pub fn executor_steal_events() -> u64 {
    crate::executor::steal_events()
}
