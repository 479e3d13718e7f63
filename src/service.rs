//! The serving layer: a [`FactorizationService`] is the multi-tenant,
//! always-warm front door to the factorization engines — the software
//! model of the deployment shape H3DFact argues for, where one shared
//! in-memory factorizer streams perceptual queries from many users
//! instead of every caller paying codebook programming per batch.
//!
//! # Architecture
//!
//! ```text
//!  tenants ──► submit / try_submit ──► per-shard bounded queues
//!                   │                        │  (micro-batching:
//!                   │ admission:             │   flush on batch-size,
//!                   │  id + shard            │   deadline, or drain;
//!                   │  assignment            │   expired requests shed)
//!                   ▼                        ▼
//!            batch formation:         deterministic worker pool
//!            run-cursor + trace             │
//!            assignment                     ▼
//!            (replayable)          responses + per-tenant stats
//! ```
//!
//! The service owns a pool of **pre-warmed session shards** — each a
//! [`Session`] carved from one parent ([`Session::carve_shard_as`]), so
//! codebooks are generated once and shared while every shard's engine
//! stochasticity and problem stream stay disjoint. Requests are admitted
//! into bounded per-shard queues ([`FactorizationService::try_submit`]
//! rejects at capacity; [`FactorizationService::submit`] applies
//! backpressure by flushing first) and solved in **micro-batches**: a
//! shard flushes when its queue reaches the configured batch size, when
//! its oldest request exceeds the flush deadline
//! ([`FactorizationService::pump`]), or on
//! [`FactorizationService::drain`].
//!
//! # Determinism and replay
//!
//! Every accepted request is assigned its **shard** at admission
//! (round-robin within the requested backend kind) and its **run
//! cursor** at micro-batch formation, when it is appended to the service
//! trace ([`FactorizationService::trace`]). Because each engine derives
//! the seed of run `k` purely from `(engine seed, k)`, a request's
//! outcome is a pure function of the service configuration and its trace
//! entry — *not* of micro-batch boundaries, flush timing, or
//! worker-thread count. Deferring cursor assignment to formation is what
//! lets a queued request whose deadline expired be shed **without
//! consuming a cursor**: the requests actually solved keep contiguous
//! cursors and the trace records exactly what ran.
//! [`FactorizationService::replay`] re-runs any trace serially to
//! **bit-identical** outcomes, which is what makes the whole serving path
//! testable: live micro-batched multi-threaded output must equal the
//! serial replay, bit for bit.
//!
//! # Example
//!
//! ```
//! use h3dfact::prelude::*;
//!
//! let mut service = FactorizationService::builder()
//!     .spec(ProblemSpec::new(3, 8, 256))
//!     .backends(&[(BackendKind::Stochastic, 2)])
//!     .seed(7)
//!     .max_iters(500)
//!     .batch_size(4)
//!     .build();
//!
//! // A tenant streams requests drawn from the service's codebooks.
//! let mut stream = service.request_stream("tenant-a", BackendKind::Stochastic, 0);
//! for _ in 0..6 {
//!     let req = stream.next_request();
//!     service.submit(req);
//! }
//! let responses = service.drain();
//! assert_eq!(responses.len(), 6);
//!
//! // The same trace replays serially to bit-identical outcomes.
//! // (Responses come back in admission-id order, the trace in flush
//! // order, so align the replay by id before comparing.)
//! let trace = service.trace().to_vec();
//! let mut replayed = service.replay(&trace);
//! replayed.sort_by_key(|r| r.id);
//! for (live, rep) in responses.iter().zip(&replayed) {
//!     assert_eq!(live.outcome.decoded, rep.outcome.decoded);
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cim::noise::NoiseSpec;
use hdc::rng::{derive_seed, stream_rng};
use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
use resonator::engine::FactorizationOutcome;

use crate::backend::{Backend, LockstepSolve, RunReport, RunTotals};
use crate::executor::{self, RequestSolve};
use crate::registry::{CodebookHandle, CodebookRegistry};
use crate::session::{BackendKind, Session};
use crate::target::TargetKind;

/// Stream namespace for [`FactorizationService::request_stream`] problem
/// streams, mixed with the service seed through nested `derive_seed`.
const REQUEST_STREAM_NS: u64 = 0x5EED;

/// Identifier of an accepted request: its admission index. Dense and
/// monotonically increasing in admission order. (Not the index into the
/// service trace — trace entries are appended at micro-batch formation,
/// in flush order, and expired requests never get one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One factorization query submitted by a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizeRequest {
    /// The tenant submitting (stats are rolled up per tenant).
    pub tenant: String,
    /// Which engine family should serve the request.
    pub backend: BackendKind,
    /// The product vector to factorize (over the service codebooks).
    pub query: BipolarVector,
    /// Ground-truth indices, when the tenant knows them (enables solved
    /// accounting in the stats).
    pub truth: Option<Vec<usize>>,
    /// Relative deadline from admission. A request still queued when its
    /// deadline passes is shed at micro-batch formation (surfaced via
    /// [`FactorizationService::take_expired`]) without consuming a run
    /// cursor. `None` means the request waits indefinitely.
    pub deadline: Option<Duration>,
}

/// Why a submission was refused. The request is handed back so the caller
/// can retry, redirect, or drop it.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The admission-order target shard's bounded queue is full.
    AtCapacity {
        /// The refused request, returned intact.
        request: FactorizeRequest,
        /// The shard (global index) whose queue was full.
        shard: usize,
    },
    /// No shard of the requested backend kind exists in the pool.
    UnknownBackend {
        /// The refused request, returned intact.
        request: FactorizeRequest,
    },
}

impl SubmitError {
    /// Recovers the refused request.
    pub fn into_request(self) -> FactorizeRequest {
        match self {
            SubmitError::AtCapacity { request, .. } => request,
            SubmitError::UnknownBackend { request } => request,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::AtCapacity { shard, request } => write!(
                f,
                "shard {shard} ({}) at capacity; request rejected",
                request.backend
            ),
            SubmitError::UnknownBackend { request } => {
                write!(f, "no {} shard in the service pool", request.backend)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`FactorizationService::try_admit`] hands back: the admission id,
/// the target shard, and whether the admission filled a micro-batch the
/// caller should now flush or hand off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The admitted request's id.
    pub id: RequestId,
    /// Global index of the shard it was queued on.
    pub shard: usize,
    /// Whether the shard's queue reached the micro-batch size.
    pub batch_ready: bool,
}

/// One trace record: everything needed to re-solve the request
/// deterministically — the shard, the run cursor assigned at micro-batch
/// formation, and the query itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The request's admission id.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: String,
    /// The backend kind that served it.
    pub backend: BackendKind,
    /// Global index of the shard it was assigned to.
    pub shard: usize,
    /// The run cursor assigned at micro-batch formation (the engine seed
    /// stream).
    pub cursor: u64,
    /// The query.
    pub query: BipolarVector,
    /// Ground truth, when supplied.
    pub truth: Option<Vec<usize>>,
}

/// One completed request: the outcome, the engine's run report, and (in
/// live mode) the measured wall latency from submission to flush.
#[derive(Debug, Clone)]
pub struct FactorizeResponse {
    /// The request's admission id.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: String,
    /// The backend kind that served it.
    pub backend: BackendKind,
    /// Global index of the shard that served it.
    pub shard: usize,
    /// The run cursor it was solved at.
    pub cursor: u64,
    /// The factorization outcome.
    pub outcome: FactorizationOutcome,
    /// The engine's per-run report, when the engine produces one.
    pub report: Option<RunReport>,
    /// Wall-clock seconds from submission to micro-batch completion —
    /// `None` for replayed responses (replay has no queueing).
    pub wall_latency_s: Option<f64>,
}

/// Per-tenant roll-up over every completed request, folded in admission
/// order (so the floating-point cost sums are reproducible run to run).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: String,
    /// Completed requests.
    pub requests: usize,
    /// Requests whose outcome was flagged solved.
    pub solved: usize,
    /// Engine-report totals (iterations, energy, modeled latency).
    pub totals: RunTotals,
}

/// Service-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (admitted to a queue).
    pub accepted: u64,
    /// Requests refused by [`FactorizationService::try_submit`].
    pub rejected: u64,
    /// Requests completed (flushed and solved).
    pub completed: u64,
    /// Micro-batches flushed.
    pub flushes: u64,
    /// Flushes triggered by a full micro-batch.
    pub flushed_by_size: u64,
    /// Flushes triggered by the deadline ([`FactorizationService::pump`]).
    pub flushed_by_deadline: u64,
    /// Flushes triggered by drain or blocking-submit backpressure.
    pub flushed_by_drain: u64,
    /// Largest micro-batch flushed.
    pub largest_batch: u64,
    /// Requests whose deadline expired while queued, shed at micro-batch
    /// formation without consuming a run cursor.
    pub expired: u64,
}

/// Point-in-time view of one shard's queue (see
/// [`FactorizationService::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's backend kind.
    pub kind: BackendKind,
    /// Requests currently queued on the shard (bounded by the service's
    /// `queue_capacity`).
    pub queue_depth: usize,
    /// The shard's next run cursor — equivalently, how many requests
    /// have ever been solved on (or formed into a batch for) it.
    pub next_cursor: u64,
}

/// A point-in-time service snapshot: the counters of [`ServiceStats`]
/// plus per-shard queue depths — the queue-depth/shed-count view a
/// metrics endpoint or load-balancer polls, where
/// [`FactorizationService::tenant_stats`] is the per-tenant billing view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Service-level counters (accepted/rejected/completed/flushes/...).
    pub stats: ServiceStats,
    /// Per-shard queue state, indexed by global shard index.
    pub shards: Vec<ShardSnapshot>,
}

impl ServiceSnapshot {
    /// Requests currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Requests shed (refused by [`FactorizationService::try_submit`])
    /// over the service's lifetime.
    pub fn shed(&self) -> u64 {
        self.stats.rejected
    }
}

/// Why [`ServiceBuilder::try_build`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceBuildError {
    /// No problem shape was supplied.
    MissingSpec,
    /// The shard pool was empty.
    NoShards,
    /// `batch_size` was zero.
    ZeroBatchSize,
    /// `queue_capacity` was zero (no request could ever be admitted).
    ZeroQueueCapacity,
    /// A shard's backend kind cannot execute on the requested target (the
    /// approximate tiled target models the analog crossbar path only).
    UnsupportedTarget {
        /// The shard's backend kind.
        kind: BackendKind,
        /// The requested target.
        target: TargetKind,
    },
}

impl fmt::Display for ServiceBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceBuildError::MissingSpec => {
                write!(f, "service builder needs .spec(ProblemSpec::new(..))")
            }
            ServiceBuildError::NoShards => {
                write!(f, "service needs at least one (BackendKind, count>0) shard")
            }
            ServiceBuildError::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
            ServiceBuildError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be at least 1")
            }
            ServiceBuildError::UnsupportedTarget { kind, target } => {
                write!(f, "{kind} shards cannot run on the {target} target")
            }
        }
    }
}

impl std::error::Error for ServiceBuildError {}

/// Fluent construction of a [`FactorizationService`].
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    spec: Option<ProblemSpec>,
    seed: u64,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
    threads: usize,
    batch_size: usize,
    flush_deadline: Duration,
    queue_capacity: usize,
    shards: Vec<(BackendKind, usize)>,
    target: TargetKind,
    registry: Option<Arc<CodebookRegistry>>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self {
            spec: None,
            seed: 0,
            max_iters: 2_000,
            adc_bits: None,
            noise: None,
            threads: 1,
            batch_size: 8,
            flush_deadline: Duration::from_millis(2),
            queue_capacity: 64,
            shards: vec![(BackendKind::H3dFact, 1)],
            target: TargetKind::Functional,
            registry: None,
        }
    }
}

impl ServiceBuilder {
    /// The problem shape every shard is provisioned for (required).
    pub fn spec(mut self, spec: ProblemSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Master seed for codebooks and every shard's seed lineage
    /// (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iteration budget per request (default: 2000).
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// ADC resolution override for the analog hardware backends.
    pub fn adc_bits(mut self, bits: u8) -> Self {
        self.adc_bits = Some(bits);
        self
    }

    /// Device-noise override for the analog hardware backends.
    pub fn noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Worker threads for micro-batch solving (default 1; `0` = all
    /// cores). Thread count never changes outcomes, only wall time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Micro-batch size: a shard flushes as soon as its queue holds this
    /// many requests (default: 8).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Deadline-based flush: [`FactorizationService::pump`] flushes any
    /// shard whose oldest queued request is at least this old
    /// (default: 2 ms).
    pub fn flush_deadline(mut self, deadline: Duration) -> Self {
        self.flush_deadline = deadline;
        self
    }

    /// Bounded per-shard queue capacity, the backpressure limit of
    /// [`FactorizationService::try_submit`] (default: 64). A capacity
    /// below `batch_size` is valid: size-based auto-flush then never
    /// triggers and the shard batches purely by deadline, drain, or
    /// blocking-submit backpressure.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// The shard pool: for each `(kind, count)` pair, `count` pre-warmed
    /// shards of that backend kind (replaces the default pool).
    pub fn backends(mut self, shards: &[(BackendKind, usize)]) -> Self {
        self.shards = shards.to_vec();
        self
    }

    /// Execution target every shard routes its kernels through (default:
    /// [`TargetKind::Functional`], bit-identical to the engines). A trace
    /// captured on one target replays on any functionally equivalent one
    /// — the cross-target equivalence contract.
    pub fn target(mut self, target: TargetKind) -> Self {
        self.target = target;
        self
    }

    /// Codebook registry the parent session interns its codebooks in
    /// (default: the process-wide
    /// [`CodebookRegistry::global`](crate::registry::CodebookRegistry::global)).
    /// Services at the same seed/spec resolve to one shared allocation
    /// through the registry; pass a private registry in tests/benches
    /// that measure footprint or tier behavior in isolation.
    pub fn registry(mut self, registry: Arc<CodebookRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the service: generates the shared codebooks once, then
    /// carves and warms every shard.
    pub fn try_build(self) -> Result<FactorizationService, ServiceBuildError> {
        let spec = self.spec.ok_or(ServiceBuildError::MissingSpec)?;
        if self.batch_size == 0 {
            return Err(ServiceBuildError::ZeroBatchSize);
        }
        if self.queue_capacity == 0 {
            return Err(ServiceBuildError::ZeroQueueCapacity);
        }
        let counts: usize = self.shards.iter().map(|&(_, n)| n).sum();
        if counts == 0 {
            return Err(ServiceBuildError::NoShards);
        }
        // The parent session pays codebook generation exactly once; every
        // shard is carved from it, on the requested target, with a
        // disjoint seed lineage. The parent's own backend never solves:
        // a cheap software engine keeps warm-up fast, and the functional
        // target supports every kind, so only the shards' (kind, target)
        // pairings can be refused.
        let mut parent = Session::builder()
            .spec(spec)
            .backend(BackendKind::Baseline)
            .seed(self.seed)
            .max_iters(self.max_iters)
            .threads(self.threads);
        if let Some(bits) = self.adc_bits {
            parent = parent.adc_bits(bits);
        }
        if let Some(n) = self.noise {
            parent = parent.noise(n);
        }
        if let Some(r) = self.registry {
            parent = parent.registry(r);
        }
        let mut parent = parent.build();
        let mut shards = Vec::with_capacity(counts);
        let mut by_kind: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for &(kind, count) in &self.shards {
            for _ in 0..count {
                // Carving fails only on an unsupported (kind, target).
                let session = parent.carve_shard_on(kind, self.target).map_err(|_| {
                    ServiceBuildError::UnsupportedTarget {
                        kind,
                        target: self.target,
                    }
                })?;
                by_kind.entry(kind.name()).or_default().push(shards.len());
                shards.push(Shard {
                    kind,
                    session,
                    next_cursor: 0,
                    pending: Vec::new(),
                });
            }
        }
        Ok(FactorizationService {
            spec,
            seed: self.seed,
            threads: self.threads,
            batch_size: self.batch_size,
            flush_deadline: self.flush_deadline,
            queue_capacity: self.queue_capacity,
            parent,
            shards,
            by_kind,
            assigned: BTreeMap::new(),
            next_id: 0,
            trace: Vec::new(),
            completed: BTreeMap::new(),
            expired: Vec::new(),
            ledger: Vec::new(),
            stats: ServiceStats::default(),
        })
    }

    /// Builds the service.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`ServiceBuilder::try_build`] for a `Result`.
    pub fn build(self) -> FactorizationService {
        match self.try_build() {
            Ok(service) => service,
            Err(e) => panic!("invalid service: {e}"),
        }
    }
}

/// A queued, admitted request awaiting its micro-batch. The request
/// payload is owned here until batch formation moves it into the trace.
struct QueuedRequest {
    id: RequestId,
    request: FactorizeRequest,
    submitted: Instant,
    /// Absolute expiry (admission + request deadline), when set.
    expires: Option<Instant>,
}

/// One pre-warmed serving shard: a carved [`Session`] (shared codebooks,
/// disjoint seed lineage) plus its bounded micro-batch queue.
struct Shard {
    kind: BackendKind,
    session: Session,
    /// Next engine run cursor to assign at micro-batch formation.
    next_cursor: u64,
    pending: Vec<QueuedRequest>,
}

impl Shard {
    fn oldest(&self) -> Option<Instant> {
        self.pending.first().map(|q| q.submitted)
    }
}

/// Why a micro-batch was flushed (counted in [`ServiceStats`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The queue reached the configured micro-batch size.
    Size,
    /// The oldest queued request aged past the flush deadline.
    Deadline,
    /// An explicit drain / backpressure flush.
    Drain,
}

/// A queued request whose deadline expired before it was formed into a
/// micro-batch. It consumed no run cursor and has no trace entry; the
/// caller (e.g. the network server) sheds it back to the tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpiredRequest {
    /// The request's admission id.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: String,
}

/// One micro-batch entry, self-contained for off-lock solving.
struct BatchEntry {
    id: RequestId,
    /// Index of this request's [`TraceEntry`].
    trace_idx: usize,
    cursor: u64,
    query: BipolarVector,
    truth: Option<Vec<usize>>,
    submitted: Instant,
}

/// A formed micro-batch, detached from the service so it can be solved
/// **off the admission lock** (on a dedicated solver thread) and
/// completed later via [`FactorizationService::complete_batch`]. Cursors
/// and trace entries were assigned at formation, so the batch is
/// self-contained: solving it needs only an engine for its shard plus
/// the shared codebooks, and its entries' cursors are contiguous by
/// construction.
pub struct PreparedBatch {
    shard: usize,
    entries: Vec<BatchEntry>,
}

/// A solved micro-batch, ready for
/// [`FactorizationService::complete_batch`].
pub struct SolvedBatch {
    batch: PreparedBatch,
    solves: Vec<LockstepSolve>,
}

impl PreparedBatch {
    /// Global index of the shard this batch belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty (never true for batches returned by the
    /// service; formation skips empty queues).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The batch's entries as executor requests (shard `0` of a
    /// one-backend factory table) over `codebooks`.
    fn requests<'a>(&'a self, codebooks: &'a [Codebook]) -> Vec<RequestSolve<'a>> {
        self.entries
            .iter()
            .map(|e| RequestSolve {
                shard: 0,
                cursor: e.cursor,
                codebooks,
                query: &e.query,
                truth: e.truth.as_deref(),
            })
            .collect()
    }

    /// Solves the batch on `engine` (which must be a fresh-or-warmed
    /// backend of this batch's shard) against the shared codebooks, in
    /// lockstep chunks. Entry cursors are contiguous by formation;
    /// outcomes are bit-identical to a serial per-item pass.
    pub fn solve_with(self, engine: &mut dyn Backend, codebooks: &[Codebook]) -> SolvedBatch {
        let solves = executor::solve_inline(engine, &self.requests(codebooks));
        SolvedBatch {
            batch: self,
            solves,
        }
    }
}

/// A multi-tenant factorization service over a pool of pre-warmed session
/// shards. See the [module docs](self) for architecture, the determinism
/// contract, and a round-trip example.
pub struct FactorizationService {
    spec: ProblemSpec,
    seed: u64,
    threads: usize,
    batch_size: usize,
    flush_deadline: Duration,
    queue_capacity: usize,
    /// The codebook owner every shard was carved from.
    parent: Session,
    shards: Vec<Shard>,
    /// Global shard indices per backend kind, fixed at build time (the
    /// round-robin tables of [`FactorizationService::target_shard`]).
    by_kind: BTreeMap<&'static str, Vec<usize>>,
    /// Per-kind admission counters driving round-robin shard assignment.
    assigned: BTreeMap<&'static str, u64>,
    /// Next admission id to issue.
    next_id: u64,
    /// The trace: one entry per request formed into a micro-batch, in
    /// flush order.
    trace: Vec<TraceEntry>,
    /// Completed responses awaiting [`FactorizationService::take_responses`].
    completed: BTreeMap<u64, FactorizeResponse>,
    /// Deadline-expired requests awaiting
    /// [`FactorizationService::take_expired`].
    expired: Vec<ExpiredRequest>,
    /// Immutable per-request completion facts `(solved, report)` indexed
    /// like the trace, kept after responses are taken so
    /// [`FactorizationService::tenant_stats`] can always fold in trace
    /// order. `None` until the request completes.
    ledger: Vec<Option<(bool, RunReport)>>,
    stats: ServiceStats,
}

impl FactorizationService {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The problem shape every shard serves.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// The shared codebooks (generated once, served by every shard).
    pub fn codebooks(&self) -> &[Codebook] {
        self.parent.codebooks()
    }

    /// Number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The backend kind of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_kind(&self, i: usize) -> BackendKind {
        self.shards[i].kind
    }

    /// Requests currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending.len()).sum()
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Requests shed (refused by [`FactorizationService::try_submit`]).
    pub fn shed_count(&self) -> u64 {
        self.stats.rejected
    }

    /// A point-in-time snapshot of the counters and every shard's queue
    /// depth — what a metrics endpoint or load-balancer polls.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            stats: self.stats,
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    kind: s.kind,
                    queue_depth: s.pending.len(),
                    next_cursor: s.next_cursor,
                })
                .collect(),
        }
    }

    /// The master seed the service was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured micro-batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The bounded per-shard queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The deadline [`FactorizationService::pump`] flushes against.
    pub fn flush_deadline(&self) -> Duration {
        self.flush_deadline
    }

    /// The trace so far: one entry per request formed into a micro-batch,
    /// in flush order (ids inside one shard's batch are ascending, but
    /// the global order interleaves shards by flush timing; expired
    /// requests never appear).
    ///
    /// The trace (and the per-request stats ledger behind
    /// [`FactorizationService::tenant_stats`]) grows for the service's
    /// lifetime — it *is* the replay contract, and queued requests are
    /// solved out of it, so it cannot be truncated while requests are in
    /// flight. Memory is one query vector plus a few words per accepted
    /// request; a deployment serving unbounded traffic would checkpoint
    /// and rotate traces at quiesce points (a future scaling PR — the
    /// determinism contract is already cut to allow it: any drained
    /// prefix can be dropped without affecting later outcomes).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// A deterministic, cursor-seeded stream of requests over the
    /// service's codebooks for `tenant` on `kind` — the standard way to
    /// drive the service with fresh problems. Streams with different
    /// `stream` ids are disjoint; the same `(service seed, stream)` pair
    /// always produces the same request sequence.
    pub fn request_stream(&self, tenant: &str, kind: BackendKind, stream: u64) -> RequestStream {
        RequestStream {
            tenant: tenant.to_string(),
            kind,
            codebooks: self.parent.codebooks_shared(),
            master: derive_seed(derive_seed(self.seed, REQUEST_STREAM_NS), stream),
            cursor: 0,
        }
    }

    /// The admission-order round-robin target shard for `kind`, or `None`
    /// when the pool has no shard of that kind.
    fn target_shard(&self, kind: BackendKind) -> Option<usize> {
        let of_kind = self.by_kind.get(kind.name())?;
        let count = *self.assigned.get(kind.name()).unwrap_or(&0);
        Some(of_kind[(count % of_kind.len() as u64) as usize])
    }

    /// Admits a request into its target shard's bounded queue **without
    /// flushing**, rejecting when the queue is full. Returns the
    /// admission facts; when `batch_ready` is set the shard holds a full
    /// micro-batch and the caller decides where it solves — inline via
    /// [`FactorizationService::take_batch`] +
    /// [`FactorizationService::solve_and_complete`], or handed off to a
    /// solver thread so admission never runs a solve. Rejection leaves
    /// every cursor,
    /// queue, and counter exactly as it was (apart from the rejection
    /// counter), so a refused request can be retried later with no trace
    /// of the attempt.
    pub fn try_admit(&mut self, request: FactorizeRequest) -> Result<Admission, SubmitError> {
        let Some(shard_idx) = self.target_shard(request.backend) else {
            self.stats.rejected += 1;
            return Err(SubmitError::UnknownBackend { request });
        };
        // Expired stragglers must not hold queue capacity against a live
        // admission.
        self.sweep_shard_expired(shard_idx, Instant::now());
        if self.shards[shard_idx].pending.len() >= self.queue_capacity {
            self.stats.rejected += 1;
            return Err(SubmitError::AtCapacity {
                request,
                shard: shard_idx,
            });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        *self.assigned.entry(request.backend.name()).or_insert(0) += 1;
        let submitted = Instant::now();
        let expires = request.deadline.map(|d| submitted + d);
        let shard = &mut self.shards[shard_idx];
        shard.pending.push(QueuedRequest {
            id,
            request,
            submitted,
            expires,
        });
        self.stats.accepted += 1;
        Ok(Admission {
            id,
            shard: shard_idx,
            batch_ready: self.shards[shard_idx].pending.len() >= self.batch_size,
        })
    }

    /// Admits a request, rejecting instead of blocking when the target
    /// shard's bounded queue is full, and flushing inline when the
    /// admission fills a micro-batch (the in-process serving loop; the
    /// network server uses [`FactorizationService::try_admit`] and hands
    /// full batches to solver threads instead).
    pub fn try_submit(&mut self, request: FactorizeRequest) -> Result<RequestId, SubmitError> {
        let admission = self.try_admit(request)?;
        if admission.batch_ready {
            self.flush_shard(admission.shard, FlushReason::Size);
        }
        Ok(admission.id)
    }

    /// Admits a request, applying backpressure instead of rejecting: when
    /// the target shard is full, its queue is flushed (the submitting
    /// caller does the work) before the request is admitted.
    ///
    /// # Panics
    ///
    /// Panics if the pool has no shard of the request's backend kind.
    pub fn submit(&mut self, request: FactorizeRequest) -> RequestId {
        match self.try_submit(request) {
            Ok(id) => id,
            Err(SubmitError::AtCapacity { request, shard }) => {
                // Undo the rejection accounting: this path serves the
                // request rather than refusing it.
                self.stats.rejected -= 1;
                self.flush_shard(shard, FlushReason::Drain);
                self.try_submit(request)
                    .expect("flushed shard accepts the retried request")
            }
            Err(e @ SubmitError::UnknownBackend { .. }) => panic!("{e}"),
        }
    }

    /// Deadline sweep: sheds expired requests, then flushes every shard
    /// whose oldest queued request is at least `flush_deadline` old.
    /// Returns the number of requests flushed. Call this from the serving
    /// loop between submissions; it never changes outcomes, only when
    /// they materialize.
    pub fn pump(&mut self) -> usize {
        let now = Instant::now();
        let mut flushed = 0;
        for i in 0..self.shards.len() {
            self.sweep_shard_expired(i, now);
            if let Some(oldest) = self.shards[i].oldest() {
                if now.duration_since(oldest) >= self.flush_deadline {
                    flushed += self.flush_shard(i, FlushReason::Deadline);
                }
            }
        }
        flushed
    }

    /// The handoff variant of [`FactorizationService::pump`]: sheds
    /// expired requests and **forms** (without solving) a micro-batch for
    /// every shard whose oldest queued request is at least
    /// `flush_deadline` old as of `now`. The caller dispatches the
    /// batches to solver threads and completes them with
    /// [`FactorizationService::complete_batch`].
    pub fn take_due(&mut self, now: Instant) -> Vec<PreparedBatch> {
        let mut due = Vec::new();
        for i in 0..self.shards.len() {
            self.sweep_shard_expired(i, now);
            if let Some(oldest) = self.shards[i].oldest() {
                if now.duration_since(oldest) >= self.flush_deadline {
                    due.extend(self.take_batch(i, FlushReason::Deadline));
                }
            }
        }
        due
    }

    /// Forms (without solving) a micro-batch for every non-empty shard
    /// queue — the handoff variant of [`FactorizationService::flush_all`],
    /// used by the network server's shutdown path to push all remaining
    /// work to its solver threads in one critical section.
    pub fn take_all(&mut self) -> Vec<PreparedBatch> {
        (0..self.shards.len())
            .filter_map(|i| self.take_batch(i, FlushReason::Drain))
            .collect()
    }

    /// Flushes every shard's queue without taking the completed
    /// responses (they stay staged for
    /// [`FactorizationService::take_responses`]). Returns the number of
    /// requests flushed. This is the quiesce primitive the network
    /// server's shutdown path uses: it completes all queued work while
    /// leaving responses in place for completion routing.
    pub fn flush_all(&mut self) -> usize {
        (0..self.shards.len())
            .map(|i| self.flush_shard(i, FlushReason::Drain))
            .sum()
    }

    /// Flushes every shard's queue, then returns (and removes) all
    /// completed responses in admission order.
    pub fn drain(&mut self) -> Vec<FactorizeResponse> {
        self.flush_all();
        self.take_responses()
    }

    /// Returns (and removes) all completed responses so far, in admission
    /// order. Completion facts stay in the stats ledger.
    pub fn take_responses(&mut self) -> Vec<FactorizeResponse> {
        std::mem::take(&mut self.completed).into_values().collect()
    }

    /// Returns (and removes) every request shed because its deadline
    /// expired while queued, in expiry-sweep order. Expired requests
    /// consumed no run cursor and have no trace entry.
    pub fn take_expired(&mut self) -> Vec<ExpiredRequest> {
        std::mem::take(&mut self.expired)
    }

    /// Per-tenant roll-ups over every **completed** request, folded in
    /// admission order (deterministic regardless of flush timing), sorted
    /// by tenant name.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut by_tenant: BTreeMap<&str, TenantStats> = BTreeMap::new();
        for (entry, fact) in self.trace.iter().zip(&self.ledger) {
            let Some((solved, report)) = fact else {
                continue;
            };
            let stats = by_tenant
                .entry(entry.tenant.as_str())
                .or_insert_with(|| TenantStats {
                    tenant: entry.tenant.clone(),
                    requests: 0,
                    solved: 0,
                    totals: RunTotals::default(),
                });
            stats.requests += 1;
            stats.solved += usize::from(*solved);
            stats.totals.fold(report);
        }
        by_tenant.into_values().collect()
    }

    /// Sheds shard `i`'s queued requests whose deadline has passed as of
    /// `now`, staging them for [`FactorizationService::take_expired`].
    fn sweep_shard_expired(&mut self, i: usize, now: Instant) {
        // Common case — nothing expired — takes no allocation.
        if !self.shards[i]
            .pending
            .iter()
            .any(|q| q.expires.is_some_and(|e| e <= now))
        {
            return;
        }
        let pending = std::mem::take(&mut self.shards[i].pending);
        let mut kept = Vec::with_capacity(pending.len());
        for q in pending {
            if q.expires.is_some_and(|e| e <= now) {
                self.stats.expired += 1;
                self.expired.push(ExpiredRequest {
                    id: q.id,
                    tenant: q.request.tenant,
                });
            } else {
                kept.push(q);
            }
        }
        self.shards[i].pending = kept;
    }

    /// Forms shard `i`'s queue into a micro-batch: sheds expired
    /// requests, then assigns every remaining queued request its run
    /// cursor and trace entry (in admission order, so a batch's cursors
    /// are contiguous by construction) and detaches the batch for
    /// solving — inline via
    /// [`FactorizationService::solve_and_complete`], or off-lock via
    /// [`PreparedBatch::solve_with`] on a solver thread. Returns `None`
    /// when the queue is empty after the expiry sweep. The flush is
    /// counted here, at formation.
    pub fn take_batch(&mut self, i: usize, reason: FlushReason) -> Option<PreparedBatch> {
        self.sweep_shard_expired(i, Instant::now());
        let queued = std::mem::take(&mut self.shards[i].pending);
        if queued.is_empty() {
            return None;
        }
        self.stats.flushes += 1;
        match reason {
            FlushReason::Size => self.stats.flushed_by_size += 1,
            FlushReason::Deadline => self.stats.flushed_by_deadline += 1,
            FlushReason::Drain => self.stats.flushed_by_drain += 1,
        }
        self.stats.largest_batch = self.stats.largest_batch.max(queued.len() as u64);
        let mut entries = Vec::with_capacity(queued.len());
        for q in queued {
            let shard = &mut self.shards[i];
            let cursor = shard.next_cursor;
            shard.next_cursor += 1;
            let trace_idx = self.trace.len();
            self.trace.push(TraceEntry {
                id: q.id,
                tenant: q.request.tenant,
                backend: q.request.backend,
                shard: i,
                cursor,
                query: q.request.query.clone(),
                truth: q.request.truth.clone(),
            });
            self.ledger.push(None);
            entries.push(BatchEntry {
                id: q.id,
                trace_idx,
                cursor,
                query: q.request.query,
                truth: q.request.truth,
                submitted: q.submitted,
            });
        }
        Some(PreparedBatch { shard: i, entries })
    }

    /// Records a solved micro-batch: stages responses (wall latency
    /// measured from each request's submission to now), fills the stats
    /// ledger, and bumps the completion counter. Returns the batch size.
    /// Batches may complete in any order across shards — ordering never
    /// affects outcomes, only when responses materialize.
    pub fn complete_batch(&mut self, solved: SolvedBatch) -> usize {
        let SolvedBatch { batch, solves } = solved;
        assert_eq!(batch.entries.len(), solves.len(), "one solve per entry");
        let n = batch.entries.len();
        let finished = Instant::now();
        for (e, solve) in batch.entries.into_iter().zip(solves) {
            let entry = &self.trace[e.trace_idx];
            self.ledger[e.trace_idx] = Some((solve.outcome.solved, solve.report.clone()));
            self.completed.insert(
                e.id.0,
                FactorizeResponse {
                    id: e.id,
                    tenant: entry.tenant.clone(),
                    backend: entry.backend,
                    shard: entry.shard,
                    cursor: e.cursor,
                    outcome: solve.outcome,
                    report: Some(solve.report),
                    wall_latency_s: Some(finished.duration_since(e.submitted).as_secs_f64()),
                },
            );
            self.stats.completed += 1;
        }
        n
    }

    /// Solves a formed micro-batch **inline** (on the calling thread) and
    /// records it: multi-thread configurations go through the
    /// deterministic executor pool, single-thread through the shard's own
    /// warmed engine. This is the in-process flush path and the fallback
    /// when no solver thread is attached; outcomes are bit-identical
    /// either way.
    pub fn solve_and_complete(&mut self, batch: PreparedBatch) -> usize {
        let i = batch.shard;
        let threads = executor::resolve_threads(self.threads).min(batch.entries.len());
        // One registry resolve per micro-batch: a single LRU touch, and
        // one `Arc` for the whole batch (the executor chunks by slice
        // identity). Tier state never changes outcomes, only footprint.
        let codebooks = self.parent.codebook_handle().resolve();
        let solved = if threads > 1 {
            let factory = self.shard_engine_factory(i);
            let solves = executor::solve_requests(
                std::slice::from_ref(&factory),
                &batch.requests(&codebooks),
                threads,
            );
            SolvedBatch { batch, solves }
        } else {
            let engine = self.shards[i].session.backend_mut();
            batch.solve_with(engine, &codebooks)
        };
        self.complete_batch(solved)
    }

    /// Flushes shard `i`'s queue as one inline micro-batch. Returns the
    /// number of requests flushed.
    fn flush_shard(&mut self, i: usize, reason: FlushReason) -> usize {
        match self.take_batch(i, reason) {
            Some(batch) => self.solve_and_complete(batch),
            None => 0,
        }
    }

    /// A constructor for shard `i`'s engine — what a dedicated solver
    /// thread uses to build (and keep warm) its own engine per shard,
    /// off the service lock. Factory-built engines share the shard's seed
    /// lineage, so solving a [`PreparedBatch`] on one is bit-identical to
    /// the inline path.
    pub fn shard_engine_factory(
        &self,
        i: usize,
    ) -> Box<dyn Fn() -> Box<dyn Backend> + Send + Sync> {
        Box::new(self.shards[i].session.backend_factory())
    }

    /// The shared codebooks as an owning handle, for solver threads that
    /// outlive any one borrow of the service.
    pub fn codebooks_shared(&self) -> Arc<[Codebook]> {
        self.parent.codebooks_shared()
    }

    /// The registry handle the service's codebooks are interned under.
    /// Solver loops resolve it once per micro-batch: each resolve is one
    /// LRU touch on the registry (promoting the entry hot if it was
    /// demoted) and the whole batch runs against the single returned
    /// `Arc`, so hot-tier hit rate under live traffic is observable in
    /// [`crate::registry::RegistryStats`].
    pub fn codebook_handle(&self) -> &CodebookHandle {
        self.parent.codebook_handle()
    }

    /// Replays a trace **serially** — one fresh engine per shard, every
    /// request solved at its admission cursor in trace order — and
    /// returns responses in that order. By the determinism contract (see
    /// the [module docs](self)), the outcomes and reports are
    /// bit-identical to what the live micro-batched, multi-threaded
    /// service produced for the same admissions; `wall_latency_s` is
    /// `None` (replay has no queueing).
    ///
    /// The live state of `self` (queues, cursors, stats) is untouched: a
    /// replay can run mid-flight, after a drain, or on a fresh service
    /// built with the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if an entry names a shard outside this service's pool.
    pub fn replay(&self, trace: &[TraceEntry]) -> Vec<FactorizeResponse> {
        // One resolve for the whole replay; outcomes are tier-independent,
        // so live (possibly demoted/promoted mid-run) ≡ replay holds.
        let codebooks = self.parent.codebook_handle().resolve();
        let codebooks = &codebooks[..];
        let mut engines: Vec<Option<Box<dyn Backend>>> =
            (0..self.shards.len()).map(|_| None).collect();
        trace
            .iter()
            .map(|entry| {
                assert!(
                    entry.shard < self.shards.len(),
                    "trace entry {} names shard {} outside the pool",
                    entry.id,
                    entry.shard
                );
                let engine = engines[entry.shard]
                    .get_or_insert_with(self.shards[entry.shard].session.backend_factory());
                engine.seek_run(entry.cursor);
                let outcome =
                    engine.factorize_query(codebooks, &entry.query, entry.truth.as_deref());
                FactorizeResponse {
                    id: entry.id,
                    tenant: entry.tenant.clone(),
                    backend: entry.backend,
                    shard: entry.shard,
                    cursor: entry.cursor,
                    report: engine.last_run_stats(),
                    outcome,
                    wall_latency_s: None,
                }
            })
            .collect()
    }
}

impl fmt::Debug for FactorizationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactorizationService")
            .field("spec", &self.spec)
            .field("seed", &self.seed)
            .field("shards", &self.shards.len())
            .field("batch_size", &self.batch_size)
            .field("queue_capacity", &self.queue_capacity)
            .field("accepted", &self.stats.accepted)
            .field("pending", &self.pending())
            .finish()
    }
}

/// A deterministic, cursor-seeded stream of [`FactorizeRequest`]s over a
/// service's codebooks (see
/// [`FactorizationService::request_stream`]). Request `k` of a stream is
/// a pure function of `(service seed, stream id, k)`, so producers can be
/// stopped, resumed, or re-created without repeating or skipping
/// problems.
#[derive(Debug, Clone)]
pub struct RequestStream {
    tenant: String,
    kind: BackendKind,
    codebooks: Arc<[Codebook]>,
    master: u64,
    cursor: u64,
}

impl RequestStream {
    /// The next request of the stream (fresh problem, known truth).
    pub fn next_request(&mut self) -> FactorizeRequest {
        let mut rng = stream_rng(self.master, self.cursor);
        self.cursor += 1;
        let (query, truth) = FactorizationProblem::draw_query(&self.codebooks, &mut rng);
        FactorizeRequest {
            tenant: self.tenant.clone(),
            backend: self.kind,
            query,
            truth: Some(truth),
            deadline: None,
        }
    }

    /// The stream's next cursor.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Repositions the stream (request `k` is cursor-addressable).
    pub fn seek(&mut self, cursor: u64) {
        self.cursor = cursor;
    }
}

impl Iterator for RequestStream {
    type Item = FactorizeRequest;

    fn next(&mut self) -> Option<FactorizeRequest> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service(batch: usize, capacity: usize, threads: usize) -> FactorizationService {
        FactorizationService::builder()
            .spec(ProblemSpec::new(2, 8, 256))
            .backends(&[(BackendKind::Stochastic, 2), (BackendKind::Baseline, 1)])
            .seed(11)
            .max_iters(300)
            .batch_size(batch)
            .queue_capacity(capacity)
            .threads(threads)
            .build()
    }

    #[test]
    fn round_robin_alternates_within_a_kind() {
        let mut svc = small_service(8, 8, 1);
        let mut stream = svc.request_stream("t", BackendKind::Stochastic, 0);
        let a = svc.submit(stream.next_request());
        let b = svc.submit(stream.next_request());
        let c = svc.submit(stream.next_request());
        // Shard assignment surfaces in the responses (the trace is only
        // written at flush).
        let by_id: BTreeMap<u64, usize> =
            svc.drain().into_iter().map(|r| (r.id.0, r.shard)).collect();
        let shards: Vec<usize> = [a, b, c].iter().map(|id| by_id[&id.0]).collect();
        assert_eq!(shards[0], shards[2]);
        assert_ne!(shards[0], shards[1]);
    }

    #[test]
    fn batch_size_triggers_auto_flush() {
        let mut svc = small_service(2, 8, 1);
        let mut stream = svc.request_stream("t", BackendKind::Baseline, 1);
        svc.submit(stream.next_request());
        assert_eq!(svc.pending(), 1);
        svc.submit(stream.next_request());
        // Second submit fills the micro-batch; the shard flushed itself.
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.stats().flushed_by_size, 1);
        assert_eq!(svc.take_responses().len(), 2);
    }

    #[test]
    fn unknown_backend_is_rejected_with_the_request() {
        let mut svc = small_service(4, 8, 1);
        let req = svc.request_stream("t", BackendKind::Pcm, 0).next_request();
        let err = svc.try_submit(req.clone()).unwrap_err();
        assert_eq!(err.into_request(), req);
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn request_streams_are_cursor_addressable() {
        let svc = small_service(4, 8, 1);
        let mut a = svc.request_stream("t", BackendKind::Stochastic, 3);
        let first: Vec<FactorizeRequest> = (0..4).map(|_| a.next_request()).collect();
        let mut b = svc.request_stream("t", BackendKind::Stochastic, 3);
        b.seek(2);
        assert_eq!(b.next_request(), first[2]);
        let mut other = svc.request_stream("t", BackendKind::Stochastic, 4);
        assert_ne!(other.next_request(), first[0]);
    }
}
