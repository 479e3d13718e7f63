//! The network serving front-end: a blocking TCP server that puts the
//! [`FactorizationService`] behind the wire protocol of [`crate::wire`],
//! with admission control and SLO metrics layered on top.
//!
//! # Architecture
//!
//! ```text
//!            accept loop (one thread)
//!                 │ spawn per connection
//!                 ▼
//!   connection reader threads ──► admission control ──► service
//!     (request/response pumps)      │ per-tenant quotas:   │
//!                 ▲                 │  token bucket +      │ micro-
//!                 │ shed / error    │  max in-flight       │ batches
//!                 │ frames          │ queue capacity       ▼
//!                 │                 ▼                 pump thread
//!                 └──────── completion router ◄───── (deadline
//!                     (request id → conn, tag)         flushes)
//! ```
//!
//! The environment is `std`-only (no async runtime), so the server is a
//! classic blocking design: one accept-loop thread, one reader thread per
//! connection pumping request/response frames, one pump thread that
//! sweeps deadline flushes, and — the worker handoff — dedicated
//! **solver threads** fed by a channel of formed micro-batches, so a
//! flush triggered by one connection's admission never solves on that
//! connection's reader thread and admission stays responsive while a
//! batch is mid-solve. All shared state (the service, the completion
//! routes, quota buckets, metrics) lives behind one mutex; batches are
//! *formed* under that lock ([`FactorizationService::take_batch`]) but
//! *solved* off it, and sockets are written only after the lock is
//! released, so neither a slow client nor a slow solve stalls admission
//! for the rest.
//!
//! # Connection hardening
//!
//! Every connection starts with a [`Frame::Hello`] version handshake
//! (wrong versions are refused with a typed error and counted), honors a
//! configurable [`ServerConfig::read_timeout`] so a slow-loris client
//! that sends half a frame and stalls is reaped instead of pinning its
//! reader thread forever, and is refused outright above
//! [`ServerConfig::max_connections`]. The reaped/refused counters
//! surface in the `STATS` frame.
//!
//! # Admission control and backpressure
//!
//! A request passes three gates, in order, each shedding with an explicit
//! [`Frame::Shed`] reason instead of silently queueing without bound:
//!
//! 1. **Token bucket** per tenant ([`TenantQuota::rate`]/
//!    [`TenantQuota::burst`]): offered load above the quota sheds
//!    [`ShedReason::RateLimited`].
//! 2. **In-flight cap** per tenant ([`TenantQuota::max_in_flight`]):
//!    sheds [`ShedReason::InFlightLimit`].
//! 3. **Bounded shard queue** ([`FactorizationService::try_admit`]):
//!    a full queue sheds [`ShedReason::QueueFull`] — the service-layer
//!    capacity rejection surfaced on the wire.
//!
//! A shed request was never admitted: no cursor is consumed, no trace
//! entry is written, and the client may retry. One shed reason is
//! post-admission: a request carrying a deadline that expires while
//! queued is shed as [`ShedReason::DeadlineExceeded`] at micro-batch
//! formation — it consumed no run cursor and has no trace entry, so the
//! replay contract is untouched.
//!
//! # Metrics
//!
//! Every completion's wall latency (admission → micro-batch completion)
//! feeds a bounded reservoir; a [`Frame::StatsRequest`] answers with
//! p50/p95/p99/p99.9, shed counts by reason, the service's own counters
//! and per-shard queue depths ([`FactorizationService::snapshot`]), and
//! per-tenant roll-ups ([`FactorizationService::tenant_stats`]).
//!
//! # Determinism across the wire
//!
//! The service's trace/replay contract survives the socket hop: outcomes
//! are a pure function of configuration and admission order, so the
//! responses a client receives are bit-identical to
//! [`FactorizationService::replay`] of the trace the live server
//! accumulated ([`ServerHandle::shutdown`] hands the service back for
//! exactly that comparison). With concurrent clients the admission
//! *order* is decided by the race to the service lock — but whatever
//! order was admitted, the replay reproduces it bit for bit.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdc::BipolarVector;

use crate::backend::Backend;
use crate::registry::CodebookHandle;
use crate::service::{
    FactorizationService, FactorizeRequest, FactorizeResponse, FlushReason, PreparedBatch,
    SubmitError,
};
use crate::session::BackendKind;
use crate::wire::{
    read_frame, write_frame, Frame, ShedReason, WireError, WireRegistryStats, WireReport,
    WireResponse, WireShardStat, WireStats, WireTenantStat, PROTOCOL_VERSION,
};

/// Per-tenant admission quota. The default is fully open (no rate limit,
/// unbounded in-flight); tighten per tenant via
/// [`ServerConfig::quota`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Maximum requests admitted but not yet completed.
    pub max_in_flight: usize,
    /// Sustained admission rate, requests/second (`None` = unlimited).
    pub rate: Option<f64>,
    /// Token-bucket burst: how many requests may be admitted instantly
    /// from a full bucket. Only meaningful with a `rate`; set it to at
    /// least 1.0 or every request sheds.
    pub burst: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_in_flight: usize::MAX,
            rate: None,
            burst: 1.0,
        }
    }
}

impl TenantQuota {
    /// An open quota (no limits) — the default.
    pub fn open() -> Self {
        Self::default()
    }

    /// A token-bucket rate limit: sustained `rate` requests/second with
    /// `burst` instantly admittable.
    pub fn rate_limited(rate: f64, burst: f64) -> Self {
        Self {
            rate: Some(rate),
            burst,
            ..Self::default()
        }
    }

    /// Caps requests in flight (admitted, not yet completed).
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max;
        self
    }
}

/// Server configuration, fluently built.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    pump_interval: Duration,
    default_quota: TenantQuota,
    quotas: BTreeMap<String, TenantQuota>,
    latency_window: usize,
    read_timeout: Option<Duration>,
    max_connections: usize,
    solver_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            pump_interval: Duration::from_millis(1),
            default_quota: TenantQuota::default(),
            quotas: BTreeMap::new(),
            latency_window: 1 << 16,
            read_timeout: None,
            max_connections: 1024,
            solver_threads: 1,
        }
    }
}

impl ServerConfig {
    /// Bind address (default `127.0.0.1:0` — loopback, ephemeral port;
    /// read the actual port from [`ServerHandle::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// How often the pump thread sweeps deadline flushes (default 1 ms).
    /// Test configurations use a large interval to disable background
    /// flushing entirely.
    pub fn pump_interval(mut self, interval: Duration) -> Self {
        self.pump_interval = interval;
        self
    }

    /// The quota applied to tenants without an explicit entry.
    pub fn default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// An explicit per-tenant quota.
    pub fn quota(mut self, tenant: impl Into<String>, quota: TenantQuota) -> Self {
        self.quotas.insert(tenant.into(), quota);
        self
    }

    /// Size of the wall-latency reservoir percentiles are computed over
    /// (default 65536 samples; older samples are overwritten).
    pub fn latency_window(mut self, window: usize) -> Self {
        self.latency_window = window.max(1);
        self
    }

    /// Per-connection read/idle timeout: a connection that produces no
    /// frame bytes for this long — a slow-loris client stalled mid-frame,
    /// or one idle past the keep-alive budget — is reaped (error frame,
    /// close, `reaped_timeout` counter) instead of pinning its reader
    /// thread. Default `None` (wait forever); production configs and the
    /// traffic generator set one.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Hard cap on concurrently open connections (default 1024).
    /// Connections above the cap are refused with an error frame and
    /// counted as `conn_rejected`.
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Dedicated solver threads fed by the micro-batch handoff channel
    /// (default 1). With at least one, a batch formed by an admission is
    /// solved off the admitting connection's reader thread and admission
    /// stays responsive mid-solve. `0` disables the handoff: batches
    /// solve inline on whichever thread forms them (the pre-handoff
    /// behavior, kept for tests that want synchronous semantics).
    pub fn solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads;
        self
    }

    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Live token-bucket/in-flight state for one tenant.
struct QuotaState {
    tokens: f64,
    last_refill: Instant,
    in_flight: usize,
}

/// Bounded reservoir of recent wall latencies (seconds).
struct LatencyRing {
    samples: Vec<f64>,
    next: usize,
    window: usize,
    observed: u64,
}

impl LatencyRing {
    fn new(window: usize) -> Self {
        Self {
            samples: Vec::with_capacity(window.min(4096)),
            next: 0,
            window,
            observed: 0,
        }
    }

    fn record(&mut self, latency_s: f64) {
        // Clock anomalies (non-monotonic sources, overflowed upstream
        // math) must never poison the reservoir: NaN and negative
        // infinity clamp to zero, positive infinity to the largest
        // finite latency. The sort below uses `total_cmp` as a second
        // line of defense.
        let latency_s = if latency_s.is_finite() {
            latency_s
        } else if latency_s == f64::INFINITY {
            f64::MAX
        } else {
            0.0
        };
        self.observed += 1;
        if self.samples.len() < self.window {
            self.samples.push(latency_s);
        } else {
            self.samples[self.next] = latency_s;
            self.next = (self.next + 1) % self.window;
        }
    }

    /// Nearest-rank percentiles over the reservoir, milliseconds:
    /// `(p50, p95, p99, p99.9)`.
    fn percentiles_ms(&self) -> (f64, f64, f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // Nearest rank in integer per-mille: `rank = ceil(permille·n /
        // 1000)`, computed without floats. The float formulation
        // (`((p/100)·n).ceil()`) returned the max for p99.9 of a
        // 1000-sample reservoir — `99.9/100.0` rounds to slightly above
        // 0.999, so `ceil` produced rank 1000 instead of 999.
        let pick = |permille: usize| {
            let rank = ((permille * n).div_ceil(1000)).max(1);
            sorted[rank - 1] * 1e3
        };
        (pick(500), pick(950), pick(990), pick(999))
    }
}

/// Server-level SLO counters.
struct Metrics {
    latency: LatencyRing,
    accepted: u64,
    completed: u64,
    shed: [u64; 5],
    /// Connections reaped by the read/idle timeout.
    reaped_timeout: u64,
    /// Connections refused for announcing the wrong protocol version.
    version_rejected: u64,
    /// Connections refused at the connection cap.
    conn_rejected: u64,
    /// Slot-accounting anomalies: a completion or shed event for a
    /// request whose routing slot was already released, or an in-flight
    /// decrement that would underflow. Always zero in a correct server;
    /// counted (and debug-asserted) rather than silently saturated so a
    /// double-release bug cannot quietly let a tenant exceed its
    /// in-flight cap.
    accounting_anomalies: u64,
}

/// A connection's write half, locked per frame so any thread can deliver
/// completions to it.
type ConnWriter = Arc<Mutex<TcpStream>>;

/// Frames ready to leave, paired with their target connection. Always
/// built under the state lock, always written after it is released.
type Outbox = Vec<(ConnWriter, Vec<u8>)>;

/// Everything behind the server's single state lock.
struct State {
    service: FactorizationService,
    /// Completion routing: request id → (connection, client tag).
    routes: HashMap<u64, (u64, u64)>,
    /// Live connections' write halves.
    conns: HashMap<u64, ConnWriter>,
    quota: HashMap<String, QuotaState>,
    metrics: Metrics,
}

impl State {
    /// Releases the completion slot request `id` of `tenant` holds:
    /// removes the route (returning it for response delivery) and
    /// decrements the tenant's in-flight count. Exactly one consumer —
    /// completion or deadline shed — wins the route; a second release of
    /// the same id finds no route, decrements **nothing**, and is
    /// counted as an accounting anomaly, so a duplicated event can never
    /// free two slots and let a tenant exceed `max_in_flight`.
    fn release_slot(&mut self, tenant: &str, id: u64) -> Option<(u64, u64)> {
        let Some(route) = self.routes.remove(&id) else {
            self.metrics.accounting_anomalies += 1;
            return None;
        };
        if let Some(q) = self.quota.get_mut(tenant) {
            if q.in_flight == 0 {
                debug_assert!(false, "in-flight underflow for tenant {tenant}");
                self.metrics.accounting_anomalies += 1;
            } else {
                q.in_flight -= 1;
            }
        }
        Some(route)
    }
}

struct Shared {
    state: Mutex<State>,
    stop: AtomicBool,
    config: ServerConfig,
    /// Live reader threads (established or mid-handshake) — the
    /// connection-cap gate and the `open_connections` stat.
    open_conns: AtomicUsize,
    /// Sending half of the micro-batch handoff channel. `None` when the
    /// server runs without solver threads, or once shutdown has closed
    /// the channel — either way [`enqueue_batch`] falls back to solving
    /// inline under the lock.
    job_tx: Mutex<Option<mpsc::Sender<PreparedBatch>>>,
}

impl Shared {
    /// Drains completed responses out of the service into the outbox,
    /// updating latency/in-flight accounting. Call with the state locked.
    fn collect_completed(state: &mut State, outbox: &mut Outbox) {
        for r in state.service.take_responses() {
            state.metrics.completed += 1;
            if let Some(l) = r.wall_latency_s {
                state.metrics.latency.record(l);
            }
            if let Some((conn, tag)) = state.release_slot(&r.tenant, r.id.0) {
                if let Some(writer) = state.conns.get(&conn) {
                    let frame = Frame::Response(wire_response(tag, &r));
                    outbox.push((writer.clone(), frame.encode()));
                }
            }
        }
    }

    /// Sheds deadline-expired requests back to their tenants: in-flight
    /// and shed accounting plus a [`ShedReason::DeadlineExceeded`] frame
    /// per request. Call with the state locked.
    fn collect_expired(state: &mut State, outbox: &mut Outbox) {
        for ex in state.service.take_expired() {
            let idx = ShedReason::ALL
                .iter()
                .position(|&r| r == ShedReason::DeadlineExceeded)
                .expect("reason in ALL");
            state.metrics.shed[idx] += 1;
            if let Some((conn, tag)) = state.release_slot(&ex.tenant, ex.id.0) {
                if let Some(writer) = state.conns.get(&conn) {
                    let frame = Frame::Shed {
                        tag,
                        reason: ShedReason::DeadlineExceeded,
                    };
                    outbox.push((writer.clone(), frame.encode()));
                }
            }
        }
    }

    /// Builds the `STATS` frame body. Call with the state locked.
    fn build_stats(&self, state: &State) -> WireStats {
        let (p50_ms, p95_ms, p99_ms, p999_ms) = state.metrics.latency.percentiles_ms();
        let snapshot = state.service.snapshot();
        let s = snapshot.stats;
        let mut tenants: Vec<WireTenantStat> = state
            .service
            .tenant_stats()
            .into_iter()
            .map(|t| WireTenantStat {
                in_flight: state
                    .quota
                    .get(&t.tenant)
                    .map(|q| q.in_flight as u32)
                    .unwrap_or(0),
                tenant: t.tenant,
                requests: t.requests as u64,
                solved: t.solved as u64,
                iterations: t.totals.iterations as u64,
                energy_j: t.totals.energy_j,
                latency_s: t.totals.latency_s,
            })
            .collect();
        // The service only rolls up tenants with at least one completion;
        // a tenant whose work is all still in flight must show up too.
        for (tenant, q) in &state.quota {
            if q.in_flight > 0 && !tenants.iter().any(|t| &t.tenant == tenant) {
                tenants.push(WireTenantStat {
                    tenant: tenant.clone(),
                    requests: 0,
                    solved: 0,
                    in_flight: q.in_flight as u32,
                    iterations: 0,
                    energy_j: None,
                    latency_s: None,
                });
            }
        }
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let reg = state.service.codebook_handle().registry().stats();
        WireStats {
            latency_samples: state.metrics.latency.observed,
            p50_ms,
            p95_ms,
            p99_ms,
            p999_ms,
            accepted: state.metrics.accepted,
            completed: state.metrics.completed,
            open_connections: self.open_conns.load(Ordering::SeqCst) as u32,
            reaped_timeout: state.metrics.reaped_timeout,
            version_rejected: state.metrics.version_rejected,
            conn_rejected: state.metrics.conn_rejected,
            accounting_anomalies: state.metrics.accounting_anomalies,
            shed: state.metrics.shed,
            service: [
                s.accepted,
                s.rejected,
                s.completed,
                s.flushes,
                s.flushed_by_size,
                s.flushed_by_deadline,
                s.flushed_by_drain,
                s.largest_batch,
                s.expired,
            ],
            shards: snapshot
                .shards
                .iter()
                .map(|sh| WireShardStat {
                    kind: sh.kind,
                    queue_depth: sh.queue_depth as u32,
                    next_cursor: sh.next_cursor,
                })
                .collect(),
            registry: WireRegistryStats {
                interned_sets: reg.interned_sets,
                dedup_hits: reg.dedup_hits,
                resolves: reg.resolves,
                hot_hits: reg.hot_hits,
                promotions: reg.promotions,
                materializations: reg.materializations,
                demotions: reg.demotions,
                hot_bytes: reg.hot_bytes,
                cold_bytes: reg.cold_bytes,
            },
            tenants,
        }
    }
}

/// Flattens a service response for the wire.
fn wire_response(tag: u64, r: &FactorizeResponse) -> WireResponse {
    WireResponse {
        tag,
        id: r.id.0,
        backend: r.backend,
        shard: r.shard as u32,
        cursor: r.cursor,
        solved: r.outcome.solved,
        converged: r.outcome.converged,
        iterations: r.outcome.iterations as u64,
        solved_at: r.outcome.solved_at.map(|v| v as u64),
        decoded: r.outcome.decoded.iter().map(|&i| i as u32).collect(),
        wall_latency_s: r.wall_latency_s,
        report: r.report.as_ref().map(WireReport::from_report),
    }
}

/// Writes every outbox frame to its connection, outside the state lock.
/// Write errors are ignored: a gone peer loses only its own frames.
fn deliver(outbox: Outbox) {
    for (writer, bytes) in outbox {
        if let Ok(mut stream) = writer.lock() {
            let _ = stream.write_all(&bytes);
            let _ = stream.flush();
        }
    }
}

/// Hands a formed micro-batch to the solver threads, or — when the
/// handoff channel is closed or was never opened — solves it inline
/// under the lock (bit-identical either way; only where the work runs
/// differs). Call with the state locked.
fn enqueue_batch(shared: &Shared, state: &mut State, batch: PreparedBatch) {
    let tx = shared.job_tx.lock().expect("job channel").clone();
    match tx {
        Some(tx) => {
            if let Err(returned) = tx.send(batch) {
                state.service.solve_and_complete(returned.0);
            }
        }
        None => {
            state.service.solve_and_complete(batch);
        }
    }
}

/// Whether a wire error is the read/idle timeout firing (surfaced as
/// `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_read_timeout(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Io(io) if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

/// The per-shard engine constructors solver threads build their
/// thread-local engines from ([`FactorizationService::shard_engine_factory`]).
type EngineFactories = Arc<Vec<Box<dyn Fn() -> Box<dyn Backend> + Send + Sync>>>;

/// One solver thread: pull formed micro-batches off the handoff channel,
/// solve them on thread-local engines (lazily built per shard, kept warm
/// across batches), and complete + deliver under the lock. Exits when
/// every sender is gone (shutdown closed the channel).
fn solver_loop(
    shared: Arc<Shared>,
    rx: Arc<Mutex<mpsc::Receiver<PreparedBatch>>>,
    factories: EngineFactories,
    codebooks: CodebookHandle,
) {
    let mut engines: Vec<Option<Box<dyn Backend>>> = (0..factories.len()).map(|_| None).collect();
    loop {
        // Hold the receiver lock only for the handout; solving runs
        // unlocked so multiple solver threads overlap on distinct
        // batches.
        let batch = rx.lock().expect("solver queue").recv();
        let Ok(batch) = batch else { break };
        let shard = batch.shard();
        let engine = engines[shard].get_or_insert_with(|| factories[shard]());
        // One registry resolve per micro-batch: the whole batch solves
        // against one `Arc`, and each resolve is one LRU touch —
        // hot-tier hit rate under live traffic shows up in the
        // registry's stats. Tier state never changes outcomes.
        let books = codebooks.resolve();
        let solved = batch.solve_with(engine.as_mut(), &books);
        let mut outbox = Outbox::new();
        {
            let mut state = shared.state.lock().expect("server state");
            state.service.complete_batch(solved);
            Shared::collect_completed(&mut state, &mut outbox);
        }
        deliver(outbox);
    }
}

/// A running server: the accept loop, connection pumps, and deadline
/// pump thread. Dropping the handle leaks the threads; call
/// [`ServerHandle::shutdown`] to stop them and recover the service.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_join: JoinHandle<()>,
    pump_join: JoinHandle<()>,
    solver_joins: Vec<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Spawns a server over `service` per `config`. The returned handle owns
/// the listener threads; the bound address (ephemeral port resolved) is
/// [`ServerHandle::local_addr`].
pub fn spawn(service: FactorizationService, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let latency_window = config.latency_window;
    let solver_threads = config.solver_threads;
    // Solver threads build their own engines from the shard factories;
    // grab those (and an owning codebook handle) before the service moves
    // behind the lock.
    let factories: EngineFactories = Arc::new(
        (0..service.shard_count())
            .map(|i| service.shard_engine_factory(i))
            .collect(),
    );
    let codebooks = service.codebook_handle().clone();
    let (job_tx, job_rx) = if solver_threads > 0 {
        let (tx, rx) = mpsc::channel::<PreparedBatch>();
        (Some(tx), Some(Arc::new(Mutex::new(rx))))
    } else {
        (None, None)
    };
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            service,
            routes: HashMap::new(),
            conns: HashMap::new(),
            quota: HashMap::new(),
            metrics: Metrics {
                latency: LatencyRing::new(latency_window),
                accepted: 0,
                completed: 0,
                shed: [0; 5],
                reaped_timeout: 0,
                version_rejected: 0,
                conn_rejected: 0,
                accounting_anomalies: 0,
            },
        }),
        stop: AtomicBool::new(false),
        config,
        open_conns: AtomicUsize::new(0),
        job_tx: Mutex::new(job_tx),
    });
    let solver_joins: Vec<JoinHandle<()>> = match job_rx {
        Some(rx) => (0..solver_threads)
            .map(|_| {
                let shared = shared.clone();
                let rx = rx.clone();
                let factories = factories.clone();
                let codebooks = codebooks.clone();
                std::thread::spawn(move || solver_loop(shared, rx, factories, codebooks))
            })
            .collect(),
        None => Vec::new(),
    };
    let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_join = {
        let shared = shared.clone();
        let joins = conn_joins.clone();
        std::thread::spawn(move || {
            let mut next_conn: u64 = 0;
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_id = next_conn;
                next_conn += 1;
                let shared = shared.clone();
                let handle = std::thread::spawn(move || connection_pump(shared, conn_id, stream));
                joins.lock().expect("join registry").push(handle);
            }
        })
    };

    let pump_join = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            // Sleep in short slices so shutdown never waits a full (test
            // configs: very long) pump interval.
            let slice = shared
                .config
                .pump_interval
                .min(Duration::from_millis(1))
                .max(Duration::from_micros(100));
            let mut since_pump = Duration::ZERO;
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(slice);
                since_pump += slice;
                if since_pump < shared.config.pump_interval {
                    continue;
                }
                since_pump = Duration::ZERO;
                let mut outbox = Outbox::new();
                {
                    let mut state = shared.state.lock().expect("server state");
                    // Form due batches under the lock, hand them to the
                    // solver threads (inline fallback), and shed whatever
                    // expired in the sweep.
                    for batch in state.service.take_due(Instant::now()) {
                        enqueue_batch(&shared, &mut state, batch);
                    }
                    Shared::collect_expired(&mut state, &mut outbox);
                    Shared::collect_completed(&mut state, &mut outbox);
                }
                deliver(outbox);
            }
        })
    };

    Ok(ServerHandle {
        shared,
        addr,
        accept_join,
        pump_join,
        solver_joins,
        conn_joins,
    })
}

/// One connection's thread: connection-cap gate, version handshake, then
/// the read loop — decode frames, admit or shed requests, answer stats,
/// reap on read timeout, and report protocol faults with [`Frame::Error`]
/// before dropping only this connection.
fn connection_pump(shared: Arc<Shared>, conn_id: u64, stream: TcpStream) {
    let open = shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
    connection_serve(&shared, conn_id, stream, open);
    shared.open_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Socket options for an accepted connection: `TCP_NODELAY`, so a small
/// response frame leaves at once instead of waiting on Nagle's algorithm
/// for the client's delayed ACK, and the configured read timeout. Each
/// option is applied even if the other fails; the first error is returned.
fn configure_accepted(stream: &TcpStream, read_timeout: Option<Duration>) -> io::Result<()> {
    let nodelay = stream.set_nodelay(true);
    let timeout = read_timeout.map_or(Ok(()), |t| stream.set_read_timeout(Some(t)));
    nodelay.and(timeout)
}

fn connection_serve(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream, open: usize) {
    // Best-effort: a socket that refuses an option keeps the default
    // (buffered, blocking) behavior.
    let _ = configure_accepted(&stream, shared.config.read_timeout);
    let writer: ConnWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    if open > shared.config.max_connections {
        shared
            .state
            .lock()
            .expect("server state")
            .metrics
            .conn_rejected += 1;
        send_error(&writer, "server at connection capacity");
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let mut reader = stream;

    // Version handshake: the first frame must be a Hello carrying this
    // build's protocol version; everything else is refused before any
    // request can decode against the wrong frame layout.
    match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { version })) if version == PROTOCOL_VERSION => {
            let mut w = writer.lock().expect("conn writer");
            if write_frame(
                &mut *w,
                &Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(Some(Frame::Hello { version })) => {
            shared
                .state
                .lock()
                .expect("server state")
                .metrics
                .version_rejected += 1;
            // Answer with the server's version (so a typed client can
            // report the mismatch) and a loud error, then close.
            {
                let mut w = writer.lock().expect("conn writer");
                let _ = write_frame(
                    &mut *w,
                    &Frame::HelloAck {
                        version: PROTOCOL_VERSION,
                    },
                );
            }
            send_error(
                &writer,
                &format!(
                    "protocol version mismatch: client speaks v{version}, \
                     server v{PROTOCOL_VERSION}"
                ),
            );
            let _ = reader.shutdown(Shutdown::Both);
            return;
        }
        Ok(Some(_)) => {
            send_error(&writer, "unexpected frame before the hello handshake");
            let _ = reader.shutdown(Shutdown::Both);
            return;
        }
        Ok(None) => {
            let _ = reader.shutdown(Shutdown::Both);
            return;
        }
        Err(e) if is_read_timeout(&e) => {
            shared
                .state
                .lock()
                .expect("server state")
                .metrics
                .reaped_timeout += 1;
            send_error(&writer, "read timed out; connection reaped");
            let _ = reader.shutdown(Shutdown::Both);
            return;
        }
        Err(e) => {
            send_error(&writer, &format!("protocol error: {e}"));
            let _ = reader.shutdown(Shutdown::Both);
            return;
        }
    }

    // Register for completion routing only once the handshake held.
    shared
        .state
        .lock()
        .expect("server state")
        .conns
        .insert(conn_id, writer.clone());

    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(Frame::Request {
                tag,
                tenant,
                backend,
                query,
                truth,
                deadline_us,
            })) => {
                let request = FactorizeRequest {
                    tenant,
                    backend,
                    query,
                    truth: truth.map(|t| t.iter().map(|&i| i as usize).collect()),
                    deadline: deadline_us.map(Duration::from_micros),
                };
                let outbox = admit(shared, conn_id, tag, request, &writer);
                deliver(outbox);
            }
            Ok(Some(Frame::StatsRequest)) => {
                let stats = {
                    let state = shared.state.lock().expect("server state");
                    shared.build_stats(&state)
                };
                let mut w = writer.lock().expect("conn writer");
                let _ = write_frame(&mut *w, &Frame::StatsResponse(stats));
            }
            Ok(Some(_)) => {
                // Server→client frames (or a second Hello) arriving at
                // the server are a protocol violation.
                send_error(&writer, "unexpected server-to-client frame");
                break;
            }
            Err(e) if is_read_timeout(&e) => {
                shared
                    .state
                    .lock()
                    .expect("server state")
                    .metrics
                    .reaped_timeout += 1;
                send_error(&writer, "read timed out; connection reaped");
                break;
            }
            Err(e) => {
                send_error(&writer, &format!("protocol error: {e}"));
                break;
            }
        }
    }
    let _ = reader.shutdown(Shutdown::Both);
    shared
        .state
        .lock()
        .expect("server state")
        .conns
        .remove(&conn_id);
}

fn send_error(writer: &ConnWriter, message: &str) {
    let mut w = writer.lock().expect("conn writer");
    let _ = write_frame(
        &mut *w,
        &Frame::Error {
            message: message.to_string(),
        },
    );
}

/// The three admission gates (token bucket, in-flight cap, bounded shard
/// queue), then completion routing for whatever the submit flushed.
fn admit(
    shared: &Arc<Shared>,
    conn_id: u64,
    tag: u64,
    request: FactorizeRequest,
    writer: &ConnWriter,
) -> Outbox {
    let mut outbox = Outbox::new();
    let mut state = shared.state.lock().expect("server state");

    let quota = shared.config.quota_for(&request.tenant);
    let now = Instant::now();
    let bucket = state
        .quota
        .entry(request.tenant.clone())
        .or_insert_with(|| QuotaState {
            tokens: quota.burst,
            last_refill: now,
            in_flight: 0,
        });
    if let Some(rate) = quota.rate {
        let dt = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * rate).min(quota.burst);
        bucket.last_refill = now;
        if bucket.tokens < 1.0 {
            return shed(state, tag, ShedReason::RateLimited, writer, outbox);
        }
    }
    if bucket.in_flight >= quota.max_in_flight {
        return shed(state, tag, ShedReason::InFlightLimit, writer, outbox);
    }

    let tenant = request.tenant.clone();
    match state.service.try_admit(request) {
        Ok(admission) => {
            let bucket = state.quota.get_mut(&tenant).expect("bucket exists");
            if quota.rate.is_some() {
                bucket.tokens -= 1.0;
            }
            bucket.in_flight += 1;
            state.routes.insert(admission.id.0, (conn_id, tag));
            state.metrics.accepted += 1;
            if admission.batch_ready {
                if let Some(batch) = state.service.take_batch(admission.shard, FlushReason::Size) {
                    enqueue_batch(shared, &mut state, batch);
                }
            }
        }
        Err(SubmitError::AtCapacity { .. }) => {
            return shed(state, tag, ShedReason::QueueFull, writer, outbox);
        }
        Err(SubmitError::UnknownBackend { .. }) => {
            return shed(state, tag, ShedReason::UnknownBackend, writer, outbox);
        }
    }
    Shared::collect_expired(&mut state, &mut outbox);
    Shared::collect_completed(&mut state, &mut outbox);
    outbox
}

/// Records a shed and queues the shed frame (still under the lock; the
/// caller delivers after release).
fn shed(
    mut state: std::sync::MutexGuard<'_, State>,
    tag: u64,
    reason: ShedReason,
    writer: &ConnWriter,
    mut outbox: Outbox,
) -> Outbox {
    let idx = ShedReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("reason in ALL");
    state.metrics.shed[idx] += 1;
    // The admission attempt may have expired queued deadlines, and a
    // shard flush may have completed requests, even when this one shed.
    Shared::collect_expired(&mut state, &mut outbox);
    Shared::collect_completed(&mut state, &mut outbox);
    drop(state);
    outbox.push((writer.clone(), Frame::Shed { tag, reason }.encode()));
    outbox
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the wire-level stats frame, for callers
    /// holding the handle (tests, harnesses) rather than a socket.
    pub fn stats(&self) -> WireStats {
        let state = self.shared.state.lock().expect("server state");
        self.shared.build_stats(&state)
    }

    /// Stops the server: drains every shard, delivers pending
    /// completions, closes all connections, joins all threads, and
    /// returns the service — trace intact — for replay or inspection.
    pub fn shutdown(self) -> FactorizationService {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_join.join();

        // Hand every still-queued batch to the solver threads and drop
        // the sender so the channel disconnects; the solvers drain what
        // is buffered, complete it, and deliver before exiting. With no
        // solver threads the batches solve inline here.
        {
            let mut state = self.shared.state.lock().expect("server state");
            let batches = state.service.take_all();
            let tx = self.shared.job_tx.lock().expect("job sender").take();
            match tx {
                Some(tx) => {
                    for batch in batches {
                        if let Err(returned) = tx.send(batch) {
                            state.service.solve_and_complete(returned.0);
                        }
                    }
                }
                None => {
                    for batch in batches {
                        state.service.solve_and_complete(batch);
                    }
                }
            }
        }
        for handle in self.solver_joins {
            let _ = handle.join();
        }

        // Final sweep: anything the solvers completed but did not route,
        // plus deadline expiries, delivered before sockets close so
        // well-behaved clients see every accepted request answered.
        let mut outbox = Outbox::new();
        {
            let mut state = self.shared.state.lock().expect("server state");
            state.service.flush_all();
            Shared::collect_expired(&mut state, &mut outbox);
            Shared::collect_completed(&mut state, &mut outbox);
        }
        deliver(outbox);

        // Close every connection; reader threads unblock and exit.
        {
            let state = self.shared.state.lock().expect("server state");
            for writer in state.conns.values() {
                if let Ok(stream) = writer.lock() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        let joins = std::mem::take(&mut *self.conn_joins.lock().expect("join registry"));
        for handle in joins {
            let _ = handle.join();
        }
        let _ = self.pump_join.join();

        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("server threads still hold state"));
        shared.state.into_inner().expect("server state").service
    }
}

// ─── Client ─────────────────────────────────────────────────────────────

/// A blocking client for the serving wire protocol: connect, stream
/// requests with caller-chosen tags, receive completions (possibly out of
/// submission order), and poll the `STATS` endpoint.
///
/// The client reads directly from the socket (no internal buffering
/// beyond frame reassembly), so [`ServeClient::try_clone`] safely splits
/// it into a sender and a receiver half for open-loop traffic.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    pending: VecDeque<Frame>,
}

impl ServeClient {
    /// Connects to a serving front-end and completes the version
    /// handshake. A server speaking a different protocol version yields
    /// a typed [`WireError::VersionMismatch`] instead of decoding
    /// garbage later.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            pending: VecDeque::new(),
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match read_frame(&mut client.stream)? {
            Some(Frame::HelloAck { version }) if version == PROTOCOL_VERSION => Ok(client),
            Some(Frame::HelloAck { version }) => Err(WireError::VersionMismatch {
                got: version,
                expected: PROTOCOL_VERSION,
            }),
            Some(_) => Err(WireError::Malformed("expected hello ack")),
            None => Err(WireError::Truncated),
        }
    }

    /// A second handle on the same connection (shared socket) — one half
    /// sends while the other receives.
    pub fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            pending: VecDeque::new(),
        })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        write_frame(&mut self.stream, frame)
    }

    /// Submits a factorization request under `tag`.
    pub fn send_request(&mut self, tag: u64, request: &FactorizeRequest) -> Result<(), WireError> {
        self.send(&request_frame(tag, request))
    }

    /// Receives the next frame (`None` on clean server close). Frames
    /// buffered by [`ServeClient::stats`] are yielded first.
    pub fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(Some(frame));
        }
        read_frame(&mut self.stream)
    }

    /// Round-trips a `STATS` request. Response/shed frames arriving
    /// before the stats answer are buffered for later
    /// [`ServeClient::recv`] calls.
    pub fn stats(&mut self) -> Result<WireStats, WireError> {
        self.send(&Frame::StatsRequest)?;
        loop {
            match read_frame(&mut self.stream)? {
                Some(Frame::StatsResponse(stats)) => return Ok(stats),
                Some(other) => self.pending.push_back(other),
                None => return Err(WireError::Truncated),
            }
        }
    }

    /// Closes the write half; the server finishes in-flight work and the
    /// read half keeps yielding frames until the server closes.
    pub fn finish_sending(&self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }
}

/// Builds the wire frame for a service request under `tag`.
pub fn request_frame(tag: u64, request: &FactorizeRequest) -> Frame {
    Frame::Request {
        tag,
        tenant: request.tenant.clone(),
        backend: request.backend,
        query: request.query.clone(),
        truth: request
            .truth
            .as_ref()
            .map(|t| t.iter().map(|&i| i as u32).collect()),
        deadline_us: request.deadline.map(|d| d.as_micros() as u64),
    }
}

/// Convenience for tests and examples: a query request with no ground
/// truth over an explicit vector.
pub fn raw_request(tenant: &str, backend: BackendKind, query: BipolarVector) -> FactorizeRequest {
    FactorizeRequest {
        tenant: tenant.to_string(),
        backend,
        query,
        truth: None,
        deadline: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::ProblemSpec;

    fn ring_with(samples: &[f64]) -> LatencyRing {
        let mut ring = LatencyRing::new(1 << 16);
        for &s in samples {
            ring.record(s);
        }
        ring
    }

    #[test]
    fn accepted_sockets_get_nodelay_and_the_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(
            !accepted.nodelay().expect("nodelay"),
            "sockets start buffered"
        );
        configure_accepted(&accepted, None).expect("configure");
        assert!(accepted.nodelay().expect("nodelay"));
        assert_eq!(accepted.read_timeout().expect("timeout"), None);
        let t = Duration::from_millis(250);
        configure_accepted(&accepted, Some(t)).expect("configure");
        // The kernel keeps the timeout in clock ticks and may round it up.
        let got = accepted.read_timeout().expect("timeout");
        assert!(got.is_some_and(|got| got >= t), "read timeout {got:?}");
        drop(client);
    }

    #[test]
    fn percentiles_pin_nearest_rank_for_small_and_large_reservoirs() {
        // Size 0: all zeros, no panic.
        assert_eq!(ring_with(&[]).percentiles_ms(), (0.0, 0.0, 0.0, 0.0));
        // Size 1: every percentile is the single sample.
        assert_eq!(
            ring_with(&[5.0]).percentiles_ms(),
            (5_000.0, 5_000.0, 5_000.0, 5_000.0)
        );
        // Size 2: nearest rank puts p50 on the first sample (rank
        // ceil(0.5·2) = 1) and everything above on the second.
        assert_eq!(
            ring_with(&[2.0, 1.0]).percentiles_ms(),
            (1_000.0, 2_000.0, 2_000.0, 2_000.0)
        );
        // Size 1000, samples 1..=1000 seconds: p99.9 is rank 999 (the
        // 999th order statistic), NOT the maximum — the float
        // formulation returned 1000 here because 99.9/100 rounds above
        // 0.999 and `ceil` overshot the rank.
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(
            ring_with(&samples).percentiles_ms(),
            (500_000.0, 950_000.0, 990_000.0, 999_000.0)
        );
    }

    #[test]
    fn non_finite_latency_samples_clamp_instead_of_poisoning_stats() {
        // A NaN sample panicked the old `partial_cmp(..).expect(..)`
        // sort, poisoning the state mutex behind the STATS path.
        let ring = ring_with(&[0.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY]);
        let (p50, _, _, p999) = ring.percentiles_ms();
        assert!(p50.is_finite());
        assert_eq!(ring.observed, 4);
        // NaN and -inf clamp to zero, +inf to the largest finite value.
        assert_eq!(p50, 0.0);
        assert_eq!(p999, f64::MAX * 1e3);
    }

    #[test]
    fn completion_and_shed_of_one_request_release_one_slot() {
        let service = FactorizationService::builder()
            .spec(ProblemSpec::new(2, 8, 256))
            .backends(&[(BackendKind::Baseline, 1)])
            .seed(3)
            .max_iters(100)
            .build();
        let mut state = State {
            service,
            routes: HashMap::new(),
            conns: HashMap::new(),
            quota: HashMap::new(),
            metrics: Metrics {
                latency: LatencyRing::new(16),
                accepted: 0,
                completed: 0,
                shed: [0; 5],
                reaped_timeout: 0,
                version_rejected: 0,
                conn_rejected: 0,
                accounting_anomalies: 0,
            },
        };
        // One admitted request: route held, one slot in flight.
        state.routes.insert(7, (0, 42));
        state.quota.insert(
            "t".to_string(),
            QuotaState {
                tokens: 1.0,
                last_refill: Instant::now(),
                in_flight: 1,
            },
        );
        // First release (the completion) wins the route and frees the
        // slot.
        assert_eq!(state.release_slot("t", 7), Some((0, 42)));
        assert_eq!(state.quota["t"].in_flight, 0);
        assert_eq!(state.metrics.accounting_anomalies, 0);
        // A duplicated event for the same id (completion + shed racing)
        // finds no route: nothing is decremented — the old saturating
        // arithmetic would have silently absorbed this, letting the
        // tenant exceed its in-flight cap — and the anomaly is counted.
        assert_eq!(state.release_slot("t", 7), None);
        assert_eq!(state.quota["t"].in_flight, 0);
        assert_eq!(state.metrics.accounting_anomalies, 1);
    }
}
