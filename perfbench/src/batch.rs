//! The batch workloads (`capacity-sw`, `table3-hw`): rounds of
//! `Session::run_batched`, plus the traced probe every workload uses for
//! its per-layer split.

use std::time::{Duration, Instant};

use h3dfact::hdc::rng::derive_seed;
use h3dfact::hdc::{BipolarVector, Codebook, PackedBatch, ProblemSpec};
use h3dfact::prelude::{Backend, Factorizer, TargetBackend, TargetKind};
use h3dfact::resonator::batch::BatchItem;
use h3dfact::resonator::engine::FactorizationOutcome;
use h3dfact::session::{executor_steal_events, BackendKind, Session, SessionReport};

use crate::adaptor::{same_outcome, KernelSplit, TracedSolver};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, median_s, peak_rss_mb, percentile, Digest};

/// Solver threads of every session the benchmark builds (pinned; never
/// read from the environment).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Queries per call of the timed `hdc` batch kernels: the executor's
/// lockstep chunk bound, which is also the serving micro-batch size.
const KERNEL_WIDTH: usize = 8;

/// The session's backend-seed namespace (`ns::BACKEND` of the facade's
/// session module). The traced adaptor derives its run seeds from it; the
/// outcome-digest gate fails if the two ever disagree.
const SESSION_BACKEND_NS: u64 = 0xB4C;

/// One batch workload's shape.
pub struct BatchShape {
    pub kind: BackendKind,
    pub spec: ProblemSpec,
    pub max_iters: usize,
    /// Problems per `run_batched` round.
    pub round: usize,
    /// Fewest measured rounds per run; accuracy and modelled cost are
    /// taken over exactly these.
    pub min_rounds: usize,
}

/// Table II's largest default cell on the stochastic software model.
pub const CAPACITY_SW: BatchShape = BatchShape {
    kind: BackendKind::Stochastic,
    spec: ProblemSpec {
        factors: 3,
        codebook_size: 64,
        dim: 256,
    },
    max_iters: 8_000,
    round: 64,
    min_rounds: 16,
};

/// Table III's shape on the simulated three-tier accelerator.
pub const TABLE3_HW: BatchShape = BatchShape {
    kind: BackendKind::H3dFact,
    spec: ProblemSpec {
        factors: 3,
        codebook_size: 48,
        dim: 256,
    },
    max_iters: 6_000,
    round: 64,
    min_rounds: 16,
};

fn build_session(shape: &BatchShape, seed: u64, threads: usize) -> Session {
    Session::builder()
        .spec(shape.spec)
        .backend(shape.kind)
        .seed(seed)
        .max_iters(shape.max_iters)
        .threads(threads)
        .build()
}

/// Solves round `r`: problems and run cursors `[r·round, (r+1)·round)`,
/// so round `r` of a seed is the same work in every run.
fn run_round(session: &mut Session, shape: &BatchShape, r: usize) -> (SessionReport, Duration) {
    let base = (r * shape.round) as u64;
    session.seek_problems(base);
    session.backend_mut().seek_run(base);
    let t = Instant::now();
    let report = session.run_batched(shape.round);
    (report, t.elapsed())
}

/// Digest of the outcome fields every determinism contract pins.
fn outcome_digest<'a>(outcomes: impl IntoIterator<Item = &'a FactorizationOutcome>) -> u64 {
    let mut d = Digest::default();
    for o in outcomes {
        d.push(u64::from(o.solved));
        d.push(o.iterations as u64);
        d.push(o.solved_at.map_or(u64::MAX, |v| v as u64));
        for &i in &o.decoded {
            d.push(i as u64);
        }
        d.push(o.revisits as u64);
        d.push(o.degenerate_events as u64);
    }
    d.value()
}

/// Whether `decoded` re-composes exactly to `query`: the independent
/// check that a "solved" outcome is a factorization of its input.
pub fn recomposes(codebooks: &[Codebook], decoded: &[usize], query: &BipolarVector) -> bool {
    let mut composed = codebooks[0].vector(decoded[0]).clone();
    for (cb, &i) in codebooks.iter().zip(decoded).skip(1) {
        composed.bind_assign(cb.vector(i));
    }
    composed == *query
}

/// Solved outcomes among `outcomes` whose decode does not re-compose to
/// the item's query.
fn bad_solutions(
    codebooks: &[Codebook],
    items: &[BatchItem],
    outcomes: &[FactorizationOutcome],
) -> usize {
    items
        .iter()
        .zip(outcomes)
        .filter(|(item, o)| o.solved && !recomposes(codebooks, &o.decoded, &item.query))
        .count()
}

/// Codebook sets (sessions) per untraced run. A seed's codebooks set
/// how hard all of its problems are, so one set per run would make
/// throughput a property of the codebook draw; rounds rotate over this
/// many sessions, seeded `derive_seed(seed, k)`.
const CODEBOOK_SETS: usize = 16;

/// Builds the run's sessions and generates each one's first measured
/// round: the batch set-up. It solves nothing. Engines are built with
/// their session and solver scratch is allocated per call, so there is no
/// lazy solver state to warm; a warm-up solve would make set-up time a
/// draw from the heavy-tailed iteration distribution (IQR/median 0.63
/// over ten seeds with two warm-up problems per session) instead of a
/// set-up cost.
fn set_up(shape: &BatchShape, seed: u64) -> Vec<Session> {
    (0..CODEBOOK_SETS)
        .map(|k| {
            let s = build_session(shape, derive_seed(seed, k as u64), THREADS);
            std::hint::black_box(s.generate_at(shape.round as u64, shape.round));
            s
        })
        .collect()
}

/// The untraced run: end-to-end metrics and the batch correctness gates.
///
/// Set-up runs three times; the measurement then solves rounds —
/// round `r` on session `r mod CODEBOOK_SETS` at cursor `r / CODEBOOK_SETS
/// + 1` — until the time is up, at least `min_rounds` of them.
pub fn run_untraced(shape: &BatchShape, seed: u64, seconds: f64, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sessions = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut sessions));
        let t = Instant::now();
        sessions = set_up(shape, seed);
        setups.push(t.elapsed());
    }

    let mut walls = Vec::new();
    let mut first_digest = 0;
    let (mut solved, mut scored, mut bad) = (0usize, 0usize, 0usize);
    let (mut energy_j, mut latency_s) = (0.0f64, 0.0f64);
    let start = Instant::now();
    while walls.len() < shape.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let n = walls.len();
        let session = &mut sessions[n % CODEBOOK_SETS];
        let cursor_round = n / CODEBOOK_SETS + 1;
        let (rep, wall) = run_round(session, shape, cursor_round);
        walls.push(wall.as_secs_f64());
        if n == 0 {
            first_digest = outcome_digest(&rep.outcomes);
        }
        if n < shape.min_rounds {
            // Accuracy and modelled cost over a fixed set of problems, so
            // they are a function of the seed alone.
            solved += rep.solved;
            scored += rep.problems;
            energy_j += rep.total_energy_j.unwrap_or(0.0);
            latency_s += rep.total_latency_s.unwrap_or(0.0);
            let items = session.generate_at((cursor_round * shape.round) as u64, shape.round);
            bad += bad_solutions(session.codebooks(), &items, &rep.outcomes);
        }
    }
    let problems = walls.len() * shape.round;
    report.attempted = problems as u64;
    report.failed = 0;

    report.metric("setup_s", median_s(&setups), "s");
    report.metric(
        "solves_per_s",
        problems as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("accuracy", solved as f64 / scored as f64, "fraction");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("round_latency_p50_ms", percentile(&walls, 500) * 1e3, "ms");
    report.metric("round_latency_max_ms", percentile(&walls, 1000) * 1e3, "ms");
    report.metric("failed_frac", 0.0, "fraction");
    if energy_j > 0.0 {
        report.metric(
            "sim_energy_per_solve_uj",
            energy_j / scored as f64 * 1e6,
            "uJ",
        );
        report.metric(
            "sim_latency_per_solve_us",
            latency_s / scored as f64 * 1e6,
            "us",
        );
    }
    report.note("rounds", walls.len());
    report.note("round_problems", shape.round);
    report.note("codebook_sets", CODEBOOK_SETS);
    report.note("accuracy_problems", scored);

    report.gate(
        "solved_outcomes_recompose",
        bad == 0,
        format!("{bad} solved outcomes whose decode does not re-compose to the query"),
    );
    report.gate(
        "accuracy_floor",
        solved * 2 > scored,
        format!("{solved}/{scored} solved (floor: more than half)"),
    );

    // threads(1) pass over the first measured round: the executor's
    // determinism contract.
    let mut single = build_session(shape, derive_seed(seed, 0), 1);
    let (rep1, _) = run_round(&mut single, shape, 1);
    let d1 = outcome_digest(&rep1.outcomes);
    report.gate(
        "threads1_matches_threads2",
        d1 == first_digest,
        format!("round-1 digest threads(1) {d1:x} vs threads({THREADS}) {first_digest:x}"),
    );
}

/// Per-call time of the public batched `PackedCodebook` kernels, ns:
/// median over blocks of calls, each block at least ~1 ms.
fn time_per_call(mut call: impl FnMut()) -> f64 {
    let mut n = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            call();
        }
        if t.elapsed() >= Duration::from_millis(1) || n >= 1 << 20 {
            break;
        }
        n *= 2;
    }
    let blocks: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                call();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&blocks)
}

/// Times the `hdc` batch kernels at `codebook`'s shape and the lockstep
/// width, with `queries` and projection `weights` taken from the workload.
/// Bytes per call are computed (compulsory traffic: codebook rows once,
/// inputs and outputs once), not measured.
fn hdc_kernels(
    codebook: &Codebook,
    queries: &[BipolarVector],
    weights: &[f64],
    report: &mut Report,
) {
    let packed = codebook.packed();
    let (m, d) = (codebook.len(), codebook.dim());
    let b = queries.len();
    let batch = PackedBatch::from_queries(queries);
    let mut sims = vec![0.0f64; b * m];
    let mut sums = vec![0.0f64; b * d];
    let sim_ns = time_per_call(|| {
        packed.similarities_batch_into(std::hint::black_box(&batch), &mut sims);
        std::hint::black_box(&sims);
    });
    let proj_ns = time_per_call(|| {
        packed.weighted_sums_batch_into(std::hint::black_box(weights), &mut sums);
        std::hint::black_box(&sums);
    });
    let row_bytes = (m * d.div_ceil(64) * 8) as f64;
    let query_bytes = (b * d.div_ceil(64) * 8) as f64;
    report.metric("hdc.similarity_batch_ns", sim_ns, "ns");
    report.metric("hdc.project_batch_ns", proj_ns, "ns");
    report.metric(
        "hdc.similarity_bytes_per_call",
        row_bytes + query_bytes + (b * m * 8) as f64,
        "bytes",
    );
    report.metric(
        "hdc.project_bytes_per_call",
        row_bytes + (b * m * 8) as f64 + (b * d * 8) as f64,
        "bytes",
    );
    report.note("hdc_kernel_width", b);
    report.note("hdc_bytes", "computed compulsory traffic, not measured");
    report.note(
        "hdc_weights_active",
        weights.iter().filter(|&&w| w != 0.0).count(),
    );
}

/// The traced probe: the problems of round 0 at `shape`, solved in
/// repeated passes (until `seconds`, at least one) four ways — untraced at
/// `threads(2)` and `threads(1)` through the session, through the timing
/// adaptor, and through `TargetBackend` at the adaptor's seeds — with the
/// per-layer split from the adaptor. Records every `target.*`,
/// `resonator.*`, `hdc.*`, `executor.*`, `session.*`, `sim.*` and
/// `trace.*` metric; returns the codebook registry's hot-tier hit rate
/// over the probe's sessions.
pub fn trace_probe(
    shape: &BatchShape,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    spans: &mut Spans,
) -> f64 {
    let seed = derive_seed(seed, 0);
    let mut s2 = build_session(shape, seed, THREADS);
    let mut s1 = build_session(shape, seed, 1);
    let codebooks = s2.codebook_handle().resolve();
    let items = s2.generate_at(0, shape.round);
    let backend_seed = derive_seed(seed, SESSION_BACKEND_NS);
    let mut solver = TracedSolver::new(shape.kind, shape.spec, shape.max_iters, backend_seed);
    let mut reference = TargetBackend::new(
        shape.kind,
        TargetKind::Functional,
        shape.spec,
        shape.max_iters,
        backend_seed,
        None,
        None,
    );
    let f = shape.spec.factors as u64;

    let mut walls2 = Vec::new();
    let mut walls1 = Vec::new();
    let mut gen = Vec::new();
    let mut steals = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ref_walls = Vec::new();
    let mut kernel = Vec::<KernelSplit>::new();
    let mut loop_self = Vec::new();
    let mut run_setup = Vec::new();
    let (mut mismatch, mut order_violations, mut digest_mismatch) = (0usize, 0usize, 0usize);
    let mut first_pass: Option<(Vec<FactorizationOutcome>, Vec<h3dfact::target::CostReport>)> =
        None;
    let mut energy_uj = 0.0;
    let mut latency_us = 0.0;

    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass_span = spans.open("trace.pass", Instant::now(), None);
        // Untraced, threads(2).
        let steal0 = executor_steal_events();
        let t = Instant::now();
        let (rep2, w2) = run_round(&mut s2, shape, 0);
        spans.record(
            "session.run_batched_t2",
            t,
            Instant::now(),
            Some(pass_span),
            None,
        );
        steals.push((executor_steal_events() - steal0) as f64);
        walls2.push(w2);
        // Problem generation.
        let t = Instant::now();
        std::hint::black_box(s2.generate_at(0, shape.round));
        gen.push(t.elapsed());
        // Untraced, threads(1).
        let t = Instant::now();
        let (rep1, w1) = run_round(&mut s1, shape, 0);
        spans.record(
            "session.run_batched_t1",
            t,
            Instant::now(),
            Some(pass_span),
            None,
        );
        walls1.push(w1);

        // Traced through the adaptor.
        let t_traced = Instant::now();
        let round_span = spans.open("trace.adaptor_round", t_traced, Some(pass_span));
        let mut split = KernelSplit::default();
        let (mut self_time, mut setup_time) = (Duration::ZERO, Duration::ZERO);
        let mut outcomes = Vec::with_capacity(items.len());
        let mut costs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let t0 = Instant::now();
            let solve = solver.solve(&codebooks, &item.query, item.truth.as_deref(), i as u64);
            let t1 = Instant::now();
            let iters = solve.outcome.iterations as u64;
            let s = &solve.split;
            if s.unbind_calls != f * iters
                || s.similarity_calls != f * iters
                || s.end_iteration_calls != iters
                || s.project_calls > f * iters
            {
                order_violations += 1;
            }
            split.add(s);
            self_time += solve.loop_wall.saturating_sub(s.kernel_time());
            setup_time += solve.run_setup;
            let id = spans.record("resonator.solve", t0, t1, Some(round_span), Some(i as u64));
            spans.attr(id, "iterations", iters as f64);
            spans.attr(id, "unbind_ns", s.unbind.as_nanos() as f64);
            spans.attr(id, "similarity_ns", s.similarity.as_nanos() as f64);
            spans.attr(id, "project_ns", s.project.as_nanos() as f64);
            spans.attr(id, "run_setup_ns", solve.run_setup.as_nanos() as f64);
            outcomes.push(solve.outcome);
            costs.push(solve.cost);
        }
        traced_walls.push(t_traced.elapsed());
        spans.close(round_span, Instant::now());
        kernel.push(split);
        loop_self.push(self_time);
        run_setup.push(setup_time);

        // The same problems through TargetBackend, untimed per call.
        let t_ref = Instant::now();
        for (i, item) in items.iter().enumerate() {
            reference.seek_run(i as u64);
            let out = reference.factorize_query(&codebooks, &item.query, item.truth.as_deref());
            let cost = reference.last_cost_report();
            if !same_outcome(&out, &outcomes[i]) || cost != Some(&costs[i]) {
                mismatch += 1;
            }
        }
        ref_walls.push(t_ref.elapsed());
        spans.record(
            "target_backend.round",
            t_ref,
            Instant::now(),
            Some(pass_span),
            None,
        );
        spans.close(pass_span, Instant::now());

        let d2 = outcome_digest(&rep2.outcomes);
        let d1 = outcome_digest(&rep1.outcomes);
        let dt = outcome_digest(&outcomes);
        digest_mismatch += usize::from(d2 != d1 || d2 != dt);
        if pass == 0 {
            report.note("digest_untraced_threads2", format!("{d2:x}"));
            report.note("digest_threads1", format!("{d1:x}"));
            report.note("digest_traced", format!("{dt:x}"));
            energy_uj = rep2.total_energy_j.unwrap_or(0.0) / rep2.problems as f64 * 1e6;
            latency_us = rep2.total_latency_s.unwrap_or(0.0) / rep2.problems as f64 * 1e6;
            let bad = bad_solutions(&codebooks, &items, &rep2.outcomes);
            report.gate(
                "probe_solved_outcomes_recompose",
                bad == 0,
                format!("{bad} solved outcomes whose decode does not re-compose to the query"),
            );
            first_pass = Some((outcomes, costs));
        }
        pass += 1;
    }

    report.gate(
        "adaptor_matches_target_backend",
        mismatch == 0,
        format!("{mismatch} traced solves differing from TargetBackend::factorize_query (outcome or cost report)"),
    );
    report.gate(
        "adaptor_call_order",
        order_violations == 0,
        format!("{order_violations} solves whose Target call counts break the loop's per-iteration order"),
    );
    report.gate(
        "digest_untraced_traced_threads1",
        digest_mismatch == 0,
        format!("{digest_mismatch} passes whose threads(2), threads(1) and traced digests differ"),
    );

    let (outcomes, costs) = first_pass.expect("at least one pass");
    let n = outcomes.len() as f64;
    let med =
        |f: &dyn Fn(&KernelSplit) -> Duration| median_s(&kernel.iter().map(f).collect::<Vec<_>>());
    report.metric("target.unbind_s", med(&|s| s.unbind), "s");
    report.metric("target.similarity_s", med(&|s| s.similarity), "s");
    report.metric("target.project_s", med(&|s| s.project), "s");
    report.metric("target.end_iteration_s", med(&|s| s.end_iteration), "s");
    report.metric("target.run_setup_s", median_s(&run_setup), "s");
    report.metric("target.kernel_calls", kernel[0].calls() as f64, "count");
    report.metric("resonator.loop_self_s", median_s(&loop_self), "s");
    let iterations: usize = outcomes.iter().map(|o| o.iterations).sum();
    let useful: usize = outcomes
        .iter()
        .filter(|o| o.solved)
        .map(|o| o.iterations)
        .sum();
    report.metric("resonator.iterations", iterations as f64, "count");
    report.metric("resonator.iters_per_solve", iterations as f64 / n, "count");
    report.metric(
        "resonator.revisits",
        outcomes.iter().map(|o| o.revisits).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "resonator.degenerate_events",
        outcomes.iter().map(|o| o.degenerate_events).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "resonator.useful_iter_frac",
        useful as f64 / iterations.max(1) as f64,
        "fraction",
    );
    report.metric(
        "executor.speedup_2v1",
        median_s(&walls1) / median_s(&walls2),
        "x",
    );
    report.metric("executor.steal_events", median(&steals), "count");
    report.metric("session.generate_s", median_s(&gen), "s");
    report.metric("session.round_s_p50", median_s(&walls2), "s");
    let sum = |f: &dyn Fn(&h3dfact::target::CostReport) -> Option<u64>| {
        costs.iter().map(|c| f(c).unwrap_or(0)).sum::<u64>() as f64
    };
    report.metric("sim.cycles", sum(&|c| c.cycles), "count");
    report.metric("cim.adc_conversions", sum(&|c| c.adc_conversions), "count");
    report.metric("arch3d.tier_switches", sum(&|c| c.tier_switches), "count");
    report.metric(
        "sim.buffer_peak_bits",
        costs
            .iter()
            .filter_map(|c| c.buffer_peak_bits)
            .max()
            .unwrap_or(0) as f64,
        "bits",
    );
    report.metric("sim.energy_per_solve_uj", energy_uj, "uJ");
    report.metric("sim.latency_per_solve_us", latency_us, "us");
    report.metric(
        "trace.overhead_frac",
        median_s(&traced_walls) / median_s(&ref_walls) - 1.0,
        "fraction",
    );
    report.metric("trace.adaptor_round_s", median_s(&traced_walls), "s");
    report.metric("trace.target_backend_round_s", median_s(&ref_walls), "s");
    report.note("trace_passes", pass);
    report.note("trace_problems", items.len());

    // hdc kernels at this shape and the lockstep width, fed the round's
    // queries and projection weights the loop actually produced.
    let queries: Vec<BipolarVector> = items
        .iter()
        .take(KERNEL_WIDTH)
        .map(|i| i.query.clone())
        .collect();
    let samples = &solver.weight_sample;
    let weights: Vec<f64> = (0..queries.len())
        .flat_map(|b| samples[b % samples.len()].iter().copied())
        .collect();
    hdc_kernels(&codebooks[0], &queries, &weights, report);
    s2.codebook_handle().registry().stats().hot_hit_rate()
}
