//! The `serve-open` workload: the TCP server over the two-shard
//! stochastic service on one connection — open-loop lognormal arrivals
//! timed from each request's due time, closed-loop saturation and a rate
//! search — plus the service's serving loop driven in-process, and the
//! traced run's stage-by-stage replay.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use h3dfact::hdc::rng::derive_seed;
use h3dfact::prelude::{
    Backend, FactorizationService, FactorizeRequest, Frame, PreparedBatch, ServeClient,
    ServerConfig, ServerHandle, TraceEntry, WireResponse, WireStats,
};
use h3dfact::server;
use h3dfact::session::BackendKind;
use h3dfact_bench::service::{BATCH, MAX_ITERS, SPEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{recomposes, BatchShape, THREADS};
use crate::report::{Report, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, median_s, peak_rss_mb, percentile};

/// The fixed offered rate latency is reported at, requests/s.
const LATENCY_RPS: f64 = 1000.0;
/// Requests of one fixed-rate latency phase.
const LATENCY_REQUESTS: usize = 1000;
/// Requests of the traced run's latency phase (one server, so longer).
const TRACED_LATENCY_REQUESTS: usize = 2000;
/// Requests kept outstanding by the closed-loop saturation phases: half
/// the pool's queue capacity, so nothing is shed.
const WINDOW: usize = 2 * BATCH;
/// Requests per saturation phase.
const SATURATION_REQUESTS: usize = 1500;
/// Lognormal shape of the interarrival gaps.
const SIGMA: f64 = 0.5;
/// The latency limit of the rate search: p99 from due time.
const SLO: Duration = Duration::from_millis(50);
/// [`SLO`] in milliseconds.
const SLO_P99_MS: f64 = 50.0;
/// Requests of the set-up warm-up burst (at the latency rate).
const WARMUP_REQUESTS: usize = 200;
/// Length of one rate-search probe, seconds.
const PROBE_S: f64 = 1.0;
/// Rate-search resolution: stop when `hi / lo` is at most this.
const SEARCH_RATIO: f64 = 1.05;
/// Longest sleep of the in-process replay between deadline sweeps.
const PUMP_SLICE: Duration = Duration::from_micros(250);
/// How long the client waits for outstanding answers after its last
/// send before it gives up on them.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// The serving shape as a batch shape, for the traced probe.
pub const SERVE_SHAPE: BatchShape = BatchShape {
    kind: BackendKind::Stochastic,
    spec: SPEC,
    max_iters: MAX_ITERS,
    round: 64,
    min_rounds: 1,
};

/// The `h3dfact_bench::service` fixture at `seed`: F=3, M=8, D=256,
/// two stochastic shards, micro-batches of 8, 2 ms flush deadline.
fn build_service(seed: u64) -> FactorizationService {
    FactorizationService::builder()
        .spec(SPEC)
        .backends(&[(BackendKind::Stochastic, 2)])
        .seed(seed)
        .max_iters(MAX_ITERS)
        .batch_size(BATCH)
        .queue_capacity(4 * BATCH)
        .threads(THREADS)
        .flush_deadline(Duration::from_millis(2))
        .build()
}

/// Unit-mean lognormal gaps (`mu = −σ²/2`), scaled per phase by
/// `1/rate`, so every probe replays the same burst pattern. Normal
/// deviates via Box–Muller.
fn unit_gaps(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mu = -SIGMA * SIGMA / 2.0;
    (0..n)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (mu + SIGMA * z).exp()
        })
        .collect()
}

/// Due offsets from the phase start for `gaps` at `rate`.
fn due_offsets(gaps: &[f64], rate: f64) -> Vec<Duration> {
    let mut at = 0.0;
    gaps.iter()
        .map(|g| {
            at += g / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// What one open-loop phase observed.
#[derive(Default)]
struct PhaseResult {
    sent: usize,
    completed: usize,
    shed: usize,
    protocol_errors: usize,
    unanswered: usize,
    /// Per completed request, in send order: latency from due time, ms.
    latencies_ms: Vec<f64>,
    /// Per sent request: actual send minus due time, ms.
    send_lag_ms: Vec<f64>,
    /// `(request index in phase, response)`.
    responses: Vec<(usize, WireResponse)>,
    /// `(request index, due, received)` per completed request.
    timeline: Vec<(usize, Instant, Instant)>,
    /// Due offsets of the phase's requests from its start.
    offsets: Vec<Duration>,
}

impl PhaseResult {
    fn failed(&self) -> usize {
        self.shed + self.protocol_errors + self.unanswered
    }

    /// Whether the phase met the latency limit with nothing shed or lost
    /// and no growing backlog (the last fifth's median latency within
    /// twice the first fifth's plus 5 ms).
    fn meets_slo(&self) -> bool {
        if self.failed() > 0 || self.latencies_ms.is_empty() {
            return false;
        }
        let n = self.latencies_ms.len();
        let fifth = (n / 5).max(1);
        let first = median(&self.latencies_ms[..fifth]);
        let last = median(&self.latencies_ms[n - fifth..]);
        percentile(&self.latencies_ms, 990) <= SLO_P99_MS && last <= 2.0 * first + 5.0
    }
}

/// The benchmark's client: one connection, a sender (the calling thread)
/// and one receiver thread per phase.
struct Client {
    conn: ServeClient,
    next_tag: u64,
    /// False once a phase lost answers or hit a protocol fault; the
    /// connection is then closed and no further phase runs.
    usable: bool,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        Self {
            conn: ServeClient::connect(handle.local_addr()).expect("connect to the local server"),
            next_tag: 0,
            usable: true,
        }
    }

    /// Sends `requests` at `offsets` from a start just ahead of now and
    /// collects every answer. With `abort_on_miss`, sending stops at the
    /// first shed or the first latency past four times the limit (a
    /// failing rate-search probe need not run to the end).
    fn phase(
        &mut self,
        requests: &[FactorizeRequest],
        offsets: &[Duration],
        abort_on_miss: bool,
    ) -> PhaseResult {
        let n = requests.len();
        let mut result = PhaseResult::default();
        if !self.usable {
            result.unanswered = n;
            return result;
        }
        let t0 = self.next_tag;
        self.next_tag += n as u64;
        let start = Instant::now() + Duration::from_millis(2);
        let due: Arc<Vec<Instant>> = Arc::new(offsets.iter().map(|&o| start + o).collect());
        let sent = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let abort = Arc::new(AtomicBool::new(false));
        let mut receiver = self.conn.try_clone().expect("clone the client socket");
        let (tx, rx) = mpsc::channel();
        let collector = {
            let (due, sent, done, abort) = (due.clone(), sent.clone(), done.clone(), abort.clone());
            std::thread::spawn(move || {
                let mut r = PhaseResult::default();
                loop {
                    let answered = r.completed + r.shed;
                    if answered == n
                        || (done.load(Ordering::SeqCst) && answered == sent.load(Ordering::SeqCst))
                    {
                        break;
                    }
                    match receiver.recv() {
                        Ok(Some(Frame::Response(resp)))
                            if (t0..t0 + n as u64).contains(&resp.tag) =>
                        {
                            let now = Instant::now();
                            let i = (resp.tag - t0) as usize;
                            if abort_on_miss && now - due[i] > 4 * SLO {
                                abort.store(true, Ordering::SeqCst);
                            }
                            r.timeline.push((i, due[i], now));
                            r.responses.push((i, resp));
                            r.completed += 1;
                        }
                        Ok(Some(Frame::Shed { .. })) => {
                            if abort_on_miss {
                                abort.store(true, Ordering::SeqCst);
                            }
                            r.shed += 1;
                        }
                        // The sentinel answer of an aborted phase.
                        Ok(Some(Frame::StatsResponse(_))) => {}
                        Ok(Some(_)) | Err(_) => {
                            r.protocol_errors += 1;
                            break;
                        }
                        Ok(None) => break,
                    }
                }
                let _ = tx.send(());
                r
            })
        };

        for (i, request) in requests.iter().enumerate() {
            if abort.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            if due[i] > now {
                std::thread::sleep(due[i] - now);
            }
            let at = Instant::now();
            result
                .send_lag_ms
                .push(at.saturating_duration_since(due[i]).as_secs_f64() * 1e3);
            if self.conn.send_request(t0 + i as u64, request).is_err() {
                break;
            }
            sent.fetch_add(1, Ordering::SeqCst);
        }
        result.sent = sent.load(Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        if result.sent < n {
            // Wake the receiver even if every answer already arrived.
            let _ = self.conn.send(&Frame::StatsRequest);
        }
        if rx.recv_timeout(ANSWER_TIMEOUT).is_err() {
            // Answers are missing: close the write half so the server
            // drops the connection and the receiver sees end of stream.
            let _ = self.conn.finish_sending();
            self.usable = false;
        }
        let r = collector.join().expect("receiver thread");
        result.completed = r.completed;
        result.shed = r.shed;
        result.protocol_errors = r.protocol_errors;
        result.unanswered = result.sent - (r.completed + r.shed).min(result.sent);
        if result.protocol_errors > 0 {
            self.usable = false;
        }
        result.timeline = r.timeline;
        result.timeline.sort_by_key(|&(i, _, _)| i);
        result.latencies_ms = result
            .timeline
            .iter()
            .map(|&(_, due, at)| at.saturating_duration_since(due).as_secs_f64() * 1e3)
            .collect();
        result.responses = r.responses;
        result
    }

    /// Closed loop with `WINDOW` requests outstanding: sends the next
    /// request as each answer arrives. Returns the phase result and the
    /// wall time from the first send to the last answer.
    fn window(&mut self, requests: &[FactorizeRequest]) -> (PhaseResult, Duration) {
        let n = requests.len();
        let mut r = PhaseResult::default();
        if !self.usable {
            r.unanswered = n;
            return (r, Duration::ZERO);
        }
        let t0 = self.next_tag;
        self.next_tag += n as u64;
        // A lost answer would block `recv` for good: past the timeout the
        // watchdog closes the write half, the server drops the connection
        // and `recv` sees end of stream.
        let guard = self.conn.try_clone().expect("clone the client socket");
        let (finished, finished_rx) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            let fired = finished_rx.recv_timeout(ANSWER_TIMEOUT).is_err();
            if fired {
                let _ = guard.finish_sending();
            }
            fired
        });
        let start = Instant::now();
        while r.sent < n.min(WINDOW)
            && self
                .conn
                .send_request(t0 + r.sent as u64, &requests[r.sent])
                .is_ok()
        {
            r.sent += 1;
        }
        while r.completed + r.shed < r.sent {
            match self.conn.recv() {
                Ok(Some(Frame::Response(resp))) if (t0..t0 + n as u64).contains(&resp.tag) => {
                    r.responses.push(((resp.tag - t0) as usize, resp));
                    r.completed += 1;
                }
                Ok(Some(Frame::Shed { .. })) => r.shed += 1,
                Ok(Some(Frame::StatsResponse(_))) => continue,
                _ => {
                    r.protocol_errors += 1;
                    self.usable = false;
                    break;
                }
            }
            if r.sent < n
                && self
                    .conn
                    .send_request(t0 + r.sent as u64, &requests[r.sent])
                    .is_ok()
            {
                r.sent += 1;
            }
        }
        let wall = start.elapsed();
        let _ = finished.send(());
        if watchdog.join().expect("watchdog thread") {
            self.usable = false;
        }
        r.unanswered = r.sent - (r.completed + r.shed).min(r.sent);
        (r, wall)
    }

    fn stats(&mut self) -> Option<WireStats> {
        if !self.usable {
            return None;
        }
        self.conn.stats().ok()
    }
}

/// A running server, its client, and the requests sent so far (in send
/// order, indexed like the client's tags).
struct Live {
    handle: ServerHandle,
    client: Client,
    stream: h3dfact::prelude::RequestStream,
    sent: Vec<FactorizeRequest>,
    seed: u64,
}

impl Live {
    /// Service build, server spawn, connection handshake and a warm-up
    /// burst: the serving set-up.
    fn start(seed: u64) -> (Self, PhaseResult) {
        let service = build_service(seed);
        let stream = service.request_stream("bench", BackendKind::Stochastic, seed);
        let handle = server::spawn(service, ServerConfig::default().solver_threads(THREADS))
            .expect("spawn the loopback server");
        let client = Client::connect(&handle);
        let mut live = Self {
            handle,
            client,
            stream,
            sent: Vec::new(),
            seed,
        };
        let warm = live.run(WARMUP_REQUESTS, LATENCY_RPS, 0, false);
        (live, warm)
    }

    /// One open-loop phase of `n` fresh requests at `rate`, arrival
    /// pattern `pattern` (the same pattern at every rate).
    fn run(&mut self, n: usize, rate: f64, pattern: u64, abort_on_miss: bool) -> PhaseResult {
        let requests: Vec<FactorizeRequest> = (0..n).map(|_| self.stream.next_request()).collect();
        let offsets = due_offsets(&unit_gaps(self.seed ^ (pattern << 32), n), rate);
        let mut result = self.client.phase(&requests, &offsets, abort_on_miss);
        result.offsets = offsets;
        self.sent.extend(requests);
        result
    }

    /// One closed-loop saturation phase of `n` fresh requests; returns
    /// the result and its wall time.
    fn saturate(&mut self, n: usize) -> (PhaseResult, Duration) {
        let requests: Vec<FactorizeRequest> = (0..n).map(|_| self.stream.next_request()).collect();
        let result = self.client.window(&requests);
        self.sent.extend(requests);
        result
    }

    /// Closes the connection and stops the server, handing back the
    /// service with its trace.
    fn stop(self) -> (FactorizationService, Vec<FactorizeRequest>) {
        let _ = self.client.conn.finish_sending();
        drop(self.client);
        (self.handle.shutdown(), self.sent)
    }
}

/// Running totals of the serving correctness gates over a run's phases
/// and servers.
#[derive(Default)]
struct Tally {
    sent: usize,
    completed: usize,
    shed: usize,
    protocol_errors: usize,
    unanswered: usize,
    replayed: usize,
    replay_mismatch: usize,
    replay_missing: usize,
    bad_solutions: usize,
    anomalies: u64,
    stats_missing: usize,
}

impl Tally {
    /// Each request answered exactly once by a response or a shed frame,
    /// with no protocol errors.
    fn phase(&mut self, p: &PhaseResult) {
        self.sent += p.sent;
        self.completed += p.completed;
        self.shed += p.shed;
        self.protocol_errors += p.protocol_errors;
        self.unanswered += p.unanswered;
    }

    /// The server's STATS counters.
    fn stats(&mut self, stats: Option<&WireStats>) {
        match stats {
            Some(s) => self.anomalies += s.accounting_anomalies,
            None => self.stats_missing += 1,
        }
    }

    /// Live ≡ replay: every given live response against the serial replay
    /// of its trace entry (each entry replays at its own cursor, so a
    /// subset of the trace replays exactly), plus the solved-recomposition
    /// check against the request sent under the same tag.
    fn replay(
        &mut self,
        service: &FactorizationService,
        sent: &[FactorizeRequest],
        responses: &[(u64, WireResponse)],
    ) {
        let ids: HashSet<u64> = responses.iter().map(|(_, r)| r.id).collect();
        let entries: Vec<TraceEntry> = service
            .trace()
            .iter()
            .filter(|e| ids.contains(&e.id.0))
            .cloned()
            .collect();
        let replay: HashMap<u64, _> = service
            .replay(&entries)
            .into_iter()
            .map(|r| (r.id.0, r))
            .collect();
        let books = service.codebooks();
        for (tag, live) in responses {
            let decoded: Vec<usize> = live.decoded.iter().map(|&i| i as usize).collect();
            match replay.get(&live.id) {
                Some(r) => {
                    if r.outcome.decoded != decoded
                        || r.outcome.iterations as u64 != live.iterations
                        || r.outcome.solved != live.solved
                        || r.cursor != live.cursor
                        || r.shard as u32 != live.shard
                    {
                        self.replay_mismatch += 1;
                    }
                }
                None => self.replay_missing += 1,
            }
            if live.solved && !recomposes(books, &decoded, &sent[*tag as usize].query) {
                self.bad_solutions += 1;
            }
        }
        self.replayed += responses.len();
    }

    fn gates(&self, report: &mut Report) {
        report.gate(
            "requests_all_answered",
            self.completed + self.shed == self.sent
                && self.protocol_errors == 0
                && self.unanswered == 0,
            format!(
                "sent {} completed {} shed {} protocol errors {} unanswered {}",
                self.sent, self.completed, self.shed, self.protocol_errors, self.unanswered
            ),
        );
        report.gate(
            "accounting_anomalies_zero",
            self.anomalies == 0 && self.stats_missing == 0,
            format!(
                "{} anomalies in STATS frames, {} STATS frames missing",
                self.anomalies, self.stats_missing
            ),
        );
        report.gate(
            "live_matches_replay",
            self.replay_mismatch == 0 && self.replay_missing == 0,
            format!(
                "{} live responses: {} differ from FactorizationService::replay, {} absent from the trace",
                self.replayed, self.replay_mismatch, self.replay_missing
            ),
        );
        report.gate(
            "solved_outcomes_recompose",
            self.bad_solutions == 0,
            format!(
                "{} solved responses whose decode does not re-compose to the query",
                self.bad_solutions
            ),
        );
    }
}

/// In-process serving throughput: `n` fresh requests admitted back to
/// back on a fresh service at `seed`, each full micro-batch formed,
/// solved on a shard engine (`PreparedBatch::solve_with`, as the
/// server's solver threads do) and completed on the calling thread.
/// Returns the completions and the wall time, seconds.
fn service_throughput(seed: u64, n: usize) -> (usize, f64) {
    let mut rp = Replayer::new(seed);
    let mut stream = rp
        .svc
        .request_stream("bench", BackendKind::Stochastic, seed);
    let requests: Vec<FactorizeRequest> = (0..n).map(|_| stream.next_request()).collect();
    let t = Instant::now();
    for request in &requests {
        rp.admit(request, None);
    }
    for batch in rp.svc.take_all() {
        rp.solve(batch, Instant::now(), None);
    }
    (rp.decodes.len(), t.elapsed().as_secs_f64())
}

/// Tagged responses of a phase whose first tag is `t0`.
fn tagged(p: &PhaseResult, t0: usize) -> impl Iterator<Item = (u64, WireResponse)> + '_ {
    p.responses
        .iter()
        .map(move |(i, r)| ((t0 + i) as u64, r.clone()))
}

/// Service seeds (codebook sets) per untraced run. A seed's codebooks set
/// the share of problems that exhaust the iteration budget, and with it
/// the serving throughput; each set gets its own server, seeded
/// `derive_seed(seed, k)`, and the run pools them.
const SERVICE_SETS: usize = 6;

/// The untraced run: per codebook set, set-up, one fixed-rate latency
/// phase and one closed-loop saturation phase on a fresh server, then the
/// same set's in-process serving throughput; then the rate search on one
/// more server while time remains.
///
/// `solves_per_s` is the in-process figure: on the 2-vCPU development
/// host, whose steal time reached 0.25, served-over-TCP throughput moved
/// by up to 2× between runs minutes apart (IQR/median 0.51 over ten seeds
/// in one set), past any bound; it is printed as `tcp_saturation_rps`.
pub fn run_untraced(seed: u64, seconds: f64, report: &mut Report) {
    let t_run = Instant::now();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SERVICE_SETS);
    let mut lats = Vec::with_capacity(SERVICE_SETS);
    let mut sat_rates = Vec::with_capacity(SERVICE_SETS);
    let (mut inproc_completed, mut inproc_wall) = (0usize, 0.0f64);
    for k in 0..SERVICE_SETS {
        let t = Instant::now();
        let (mut live, warm) = Live::start(derive_seed(seed, k as u64));
        setups.push(t.elapsed());
        tally.phase(&warm);
        let mut responses: Vec<(u64, WireResponse)> = tagged(&warm, 0).collect();

        let t0 = live.sent.len();
        let lat = live.run(LATENCY_REQUESTS, LATENCY_RPS, 1, false);
        tally.phase(&lat);
        responses.extend(tagged(&lat, t0));

        let t0 = live.sent.len();
        let (sat, wall) = live.saturate(SATURATION_REQUESTS);
        tally.phase(&sat);
        responses.extend(tagged(&sat, t0));
        sat_rates.push(sat.completed as f64 / wall.as_secs_f64().max(1e-9));

        tally.stats(live.client.stats().as_ref());
        let (service, sent) = live.stop();
        tally.replay(&service, &sent, &responses);
        lats.push(lat);

        let (completed, wall) =
            service_throughput(derive_seed(seed, k as u64), SATURATION_REQUESTS);
        inproc_completed += completed;
        inproc_wall += wall;
    }
    let rss_mb = peak_rss_mb();
    let attempted = tally.sent;
    let failed = tally.shed + tally.protocol_errors + tally.unanswered;

    // Rate search on one more server: double from the latency rate until
    // a probe misses the limit, then bisect in log space to the search
    // resolution — as far as the time allows (the bracket is printed with
    // the result). Probes are expected to fail above the knee, so they do
    // not count as operations.
    let (mut live, _) = Live::start(derive_seed(seed, SERVICE_SETS as u64));
    let mut responses = Vec::new();
    let mut probes = 0usize;
    let mut probe = |live: &mut Live, rate: f64, responses: &mut Vec<(u64, WireResponse)>| {
        probes += 1;
        let n = ((rate * PROBE_S) as usize).max(200);
        let t0 = live.sent.len();
        let p = live.run(n, rate, 2, true);
        // Every sixteenth probe response is enough for the replay check.
        responses.extend(tagged(&p, t0).step_by(16));
        std::thread::sleep(Duration::from_millis(20));
        p.meets_slo()
    };
    // `lo` always met the limit (a probe or every latency phase did);
    // `hi` missed it, or is unknown.
    let all_met = lats.iter().all(PhaseResult::meets_slo);
    let (mut lo, mut hi) = if all_met {
        (Some(LATENCY_RPS), None)
    } else {
        (None, Some(LATENCY_RPS))
    };
    while t_run.elapsed().as_secs_f64() < seconds {
        let rate = match (lo, hi) {
            (Some(l), None) => 2.0 * l,
            (None, Some(h)) if h > 100.0 => h / 2.0,
            (Some(l), Some(h)) if h / l > SEARCH_RATIO => (l * h).sqrt(),
            _ => break,
        };
        if probe(&mut live, rate, &mut responses) {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
    }
    tally.stats(live.client.stats().as_ref());
    let (service, sent) = live.stop();
    tally.replay(&service, &sent, &responses);
    tally.gates(report);

    report.attempted = attempted as u64;
    report.failed = failed as u64;
    let latencies: Vec<f64> = lats
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let lags: Vec<f64> = lats
        .iter()
        .flat_map(|p| p.send_lag_ms.iter().copied())
        .collect();
    let solved: usize = lats
        .iter()
        .map(|p| p.responses.iter().filter(|(_, r)| r.solved).count())
        .sum();
    report.metric("setup_s", median_s(&setups), "s");
    report.metric("solves_per_s", inproc_completed as f64 / inproc_wall, "1/s");
    report.metric(
        "accuracy",
        solved as f64 / latencies.len().max(1) as f64,
        "fraction",
    );
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.metric("latency_p50_ms", percentile(&latencies, 500), "ms");
    report.metric("latency_p99_ms", percentile(&latencies, 990), "ms");
    report.metric("client.send_lag_ms_p99", percentile(&lags, 990), "ms");
    // Printed only when measured; the bracket says how far the search got.
    if let Some(lo) = lo {
        report.metric("max_rate_rps", lo, "1/s");
    }
    if let Some(hi) = hi {
        report.metric("max_rate_bracket_hi_rps", hi, "1/s");
    }
    report.metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    let rates: Vec<String> = sat_rates.iter().map(|r| format!("{r:.0}")).collect();
    report.note("service_sets", SERVICE_SETS);
    report.note("latency_samples", latencies.len());
    report.note("latency_offered_rps", LATENCY_RPS);
    report.note("saturation_window", WINDOW);
    report.note("inproc_samples", inproc_completed);
    report.note("saturation_rps_per_set", rates.join(" "));
    report.metric("tcp_saturation_rps", median(&sat_rates), "1/s");
    report.note("probes", probes);
    report.note("probe_seconds", PROBE_S);
    report.note("slo_p99_ms", SLO_P99_MS);
}

/// A response's decode, iteration count and solved flag.
type Decode = (Vec<usize>, usize, bool);

/// One in-process replay's per-stage samples.
#[derive(Default)]
struct StageSamples {
    admit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    complete_us: Vec<f64>,
}

/// A fresh service driven in-process, stage by stage, from the
/// benchmark's side.
struct Replayer {
    svc: FactorizationService,
    engines: Vec<Box<dyn Backend>>,
    books: std::sync::Arc<[h3dfact::hdc::Codebook]>,
    samples: StageSamples,
    /// Admission instant and `service.admit` span per admission id.
    admitted: HashMap<u64, (Instant, usize)>,
    decodes: HashMap<u64, Decode>,
}

impl Replayer {
    fn new(seed: u64) -> Self {
        let svc = build_service(seed);
        let engines = (0..svc.shard_count())
            .map(|i| svc.shard_engine_factory(i)())
            .collect();
        let books = svc.codebooks_shared();
        Self {
            svc,
            engines,
            books,
            samples: StageSamples::default(),
            admitted: HashMap::new(),
            decodes: HashMap::new(),
        }
    }

    /// Admits `request`, solving the shard's batch if it filled.
    fn admit(&mut self, request: &FactorizeRequest, mut spans: Option<&mut Spans>) {
        let t = Instant::now();
        let adm = self
            .svc
            .try_admit(request.clone())
            .expect("in-process admission");
        let t_adm = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            self.samples.admit_us.push((t_adm - t).as_secs_f64() * 1e6);
            let span = spans.record("service.admit", t, t_adm, None, Some(adm.id.0));
            self.admitted.insert(adm.id.0, (t_adm, span));
        }
        if adm.batch_ready {
            let batch = self
                .svc
                .take_batch(adm.shard, h3dfact::prelude::FlushReason::Size)
                .expect("a full queue forms a batch");
            self.solve(batch, Instant::now(), spans);
        }
    }

    /// Solves and completes one formed batch; with `spans`, times it.
    fn solve(&mut self, batch: PreparedBatch, formed: Instant, spans: Option<&mut Spans>) {
        let (shard, len) = (batch.shard(), batch.len());
        let t = Instant::now();
        let solved = batch.solve_with(self.engines[shard].as_mut(), &self.books);
        let t_solved = Instant::now();
        self.svc.complete_batch(solved);
        let t_done = Instant::now();
        let responses = self.svc.take_responses();
        if let Some(spans) = spans {
            self.samples
                .solve_ms
                .push((t_solved - t).as_secs_f64() * 1e3);
            self.samples
                .complete_us
                .push((t_done - t_solved).as_secs_f64() * 1e6);
            let id = spans.record("service.solve_batch", t, t_solved, None, None);
            spans.attr(id, "len", len as f64);
            spans.attr(id, "shard", shard as f64);
            spans.record("service.complete_batch", t_solved, t_done, Some(id), None);
            for r in &responses {
                if let Some(&(at, span)) = self.admitted.get(&r.id.0) {
                    self.samples
                        .queue_wait_ms
                        .push((formed - at).as_secs_f64() * 1e3);
                    spans.record("service.queue", at, formed, Some(span), Some(r.id.0));
                }
            }
        }
        for r in responses {
            let decode = (r.outcome.decoded, r.outcome.iterations, r.outcome.solved);
            self.decodes.insert(r.id.0, decode);
        }
    }

    /// Forms and solves every batch due at now (the server's pump sweep).
    fn pump(&mut self, spans: &mut Spans) {
        let now = Instant::now();
        for batch in self.svc.take_due(now) {
            self.solve(batch, now, Some(&mut *spans));
        }
    }
}

/// Replays the live admission sequence in-process on a fresh service —
/// warm-up untimed, then the latency phase on its arrival schedule —
/// through `try_admit`, `take_batch`/`take_due`, `PreparedBatch::solve_with`
/// and `complete_batch`, timing each stage. Cursors follow admission order
/// per shard, so with nothing shed every admission id gets the live
/// outcome. Returns the stage samples and the decodes by admission id.
fn replay_in_process(
    seed: u64,
    warm: &[FactorizeRequest],
    phase: &[FactorizeRequest],
    offsets: &[Duration],
    spans: &mut Spans,
) -> (StageSamples, HashMap<u64, Decode>) {
    let mut rp = Replayer::new(seed);
    for request in warm {
        rp.admit(request, None);
    }
    for batch in rp.svc.take_all() {
        rp.solve(batch, Instant::now(), None);
    }
    let start = Instant::now() + Duration::from_millis(2);
    for (request, &offset) in phase.iter().zip(offsets) {
        let due = start + offset;
        loop {
            rp.pump(spans);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(PUMP_SLICE));
        }
        rp.admit(request, Some(&mut *spans));
    }
    while rp.svc.pending() > 0 {
        rp.pump(spans);
        std::thread::sleep(PUMP_SLICE);
    }
    (rp.samples, rp.decodes)
}

/// The traced run: live STATS, the in-process stage replay, and the
/// traced probe at the serving shape.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report, spans: &mut Spans) {
    let t_run = Instant::now();
    let mut tally = Tally::default();
    let service_seed = derive_seed(seed, 0);
    let (mut live, warm) = Live::start(service_seed);
    tally.phase(&warm);
    let t0 = live.sent.len();
    let lat = live.run(TRACED_LATENCY_REQUESTS, LATENCY_RPS, 1, false);
    tally.phase(&lat);
    for &(i, due, done) in &lat.timeline {
        spans.record("client.request", due, done, None, Some((t0 + i) as u64));
    }
    let stats = live.client.stats();
    let (service, sent) = live.stop();
    let mut responses: Vec<(u64, WireResponse)> = tagged(&warm, 0).collect();
    responses.extend(tagged(&lat, t0));
    tally.stats(stats.as_ref());
    tally.replay(&service, &sent, &responses);
    tally.gates(report);

    let client_p50 = percentile(&lat.latencies_ms, 500);
    let mut hot_hit_rate = 0.0;
    report.metric(
        "client.send_lag_ms_p99",
        percentile(&lat.send_lag_ms, 990),
        "ms",
    );
    if let Some(s) = &stats {
        // `WireStats::service` is `ServiceStats` flattened in field
        // order: accepted, rejected, completed, flushes, by size, by
        // deadline, by drain, largest batch, expired.
        let (completed, flushes, by_deadline) = (s.service[2], s.service[3], s.service[5]);
        let flushes = flushes.max(1) as f64;
        report.metric("service.batch_mean", completed as f64 / flushes, "count");
        report.metric(
            "service.deadline_flush_frac",
            by_deadline as f64 / flushes,
            "fraction",
        );
        report.metric("server.latency_p50_ms", s.p50_ms, "ms");
        report.metric("server.latency_p99_ms", s.p99_ms, "ms");
        report.metric("wire.overhead_ms_p50", client_p50 - s.p50_ms, "ms");
        let reg = s.registry;
        hot_hit_rate = if reg.resolves == 0 {
            1.0
        } else {
            reg.hot_hits as f64 / reg.resolves as f64
        };
        report.note("server_latency_samples", s.latency_samples);
    }

    // In-process replay of the same admissions on the same schedule.
    let (stages, replayed) =
        replay_in_process(service_seed, &sent[..t0], &sent[t0..], &lat.offsets, spans);
    let mismatch = if lat.shed == 0 && warm.shed == 0 {
        responses
            .iter()
            .filter(|(_, live)| {
                let decoded: Vec<usize> = live.decoded.iter().map(|&i| i as usize).collect();
                replayed.get(&live.id) != Some(&(decoded, live.iterations as usize, live.solved))
            })
            .count()
    } else {
        0
    };
    report.gate(
        "live_matches_in_process_replay",
        mismatch == 0,
        format!("{mismatch} of {} live responses differ from the in-process replay on their admission id", responses.len()),
    );
    report.metric(
        "service.admit_us_p50",
        percentile(&stages.admit_us, 500),
        "us",
    );
    report.metric(
        "service.queue_wait_ms_p50",
        percentile(&stages.queue_wait_ms, 500),
        "ms",
    );
    report.metric(
        "service.queue_wait_ms_p99",
        percentile(&stages.queue_wait_ms, 990),
        "ms",
    );
    report.metric(
        "service.solve_ms_per_batch_p50",
        percentile(&stages.solve_ms, 500),
        "ms",
    );
    report.metric(
        "service.complete_us_p50",
        percentile(&stages.complete_us, 500),
        "us",
    );
    report.note("replay_batches", stages.solve_ms.len());
    report.note("latency_samples", lat.latencies_ms.len());
    report.metric("client.latency_p50_ms", client_p50, "ms");
    report.metric(
        "client.latency_p99_ms",
        percentile(&lat.latencies_ms, 990),
        "ms",
    );

    report.attempted = (warm.sent + lat.sent) as u64;
    report.failed = (warm.failed() + lat.failed()) as u64;

    let left = seconds - t_run.elapsed().as_secs_f64();
    crate::batch::trace_probe(&SERVE_SHAPE, seed, left, report, spans);
    report.metric("registry.hot_hit_rate", hot_hit_rate, "fraction");
}

/// Per-layer metrics of the serving layers for a workload that bypasses
/// them: nothing was admitted, queued, sent or served.
pub fn bypassed(report: &mut Report) {
    let serving = ["service.", "server.", "wire.", "client."];
    for (name, unit) in PER_LAYER {
        if serving.iter().any(|layer| name.starts_with(layer)) {
            report.metric(name, 0.0, unit);
        }
    }
}
