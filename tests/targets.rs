//! Cross-target contract tests for the target abstraction:
//!
//! 1. **Engine reproduction** — every backend kind, driven through the
//!    (always target-routed) `Session`, produces outcomes and `RunReport`s
//!    (energy ledgers included) bit-identical to the crate engine of the
//!    same kind built directly (`H3dFact`, `Sram2dEngine`,
//!    `Hybrid2dEngine`, `PcmEngine`, `BaselineResonator`,
//!    `StochasticResonator`), with and without ADC/noise overrides; the
//!    3D accelerator keeps its native SRAM-buffered batch roll-up; and
//!    every golden cell of `tests/goldens.rs` (4 workloads × 3 backends)
//!    reproduces bit-for-bit through the DMA-queue offload too.
//! 2. **Functional ↔ DMA equivalence** — a service trace captured on the
//!    functional target replays bit-for-bit on the DMA-queue target (and
//!    vice versa), across multiple backend kinds: the trace/replay
//!    contract is the cross-target equivalence harness.
//! 3. **Approximate tiled co-simulation** — cost reports (energy, cycles,
//!    per-iteration temperature trajectory) are deterministic per seed
//!    and physically sane, and pairings without an analog crossbar are
//!    refused with an error, not a panic.

use h3dfact::h3dfact_core::RunStats;
use h3dfact::hdc::rng::derive_seed;
use h3dfact::perception::{AttributeSchema, NeuralFrontend};
use h3dfact::prelude::*;
use h3dfact::service::ServiceBuildError;
use h3dfact::workload::Workload;

/// The session's backend-seed namespace: a session at seed `s` builds its
/// backend at `derive_seed(s, SESSION_BACKEND_NS)`.
const SESSION_BACKEND_NS: u64 = 0xB4C;

fn golden_workload(name: &str) -> (Box<dyn Workload>, usize) {
    match name {
        "random" => (
            Box::new(RandomFactorization::new(ProblemSpec::new(3, 8, 256), 201)),
            6,
        ),
        "perception" => (
            Box::new(Perception::attributes(
                AttributeSchema::raven(),
                256,
                NeuralFrontend::paper_quality(5),
                202,
            )),
            4,
        ),
        "integer" => (Box::new(IntegerFactorization::new(30, 256, 203)), 4),
        "capacity" => (
            Box::new(CapacitySweep::new(ProblemSpec::new(3, 8, 256), 204)),
            4,
        ),
        other => panic!("unknown golden workload {other}"),
    }
}

/// Runs one golden cell (same seeds as `tests/goldens.rs`) on `target`.
fn run_cell(name: &str, kind: BackendKind, target: TargetKind) -> WorkloadReport {
    let (mut workload, n) = golden_workload(name);
    let mut session = Session::builder()
        .spec(workload.spec())
        .backend(kind)
        .seed(101)
        .max_iters(600)
        .target(target)
        .build();
    session.run_workload(&mut *workload, n)
}

/// Field-by-field outcome equality, excluding wall-clock phase times.
fn assert_outcomes_identical(a: &FactorizationOutcome, b: &FactorizationOutcome, cell: &str) {
    assert_eq!(a.solved, b.solved, "{cell}: solved");
    assert_eq!(a.iterations, b.iterations, "{cell}: iterations");
    assert_eq!(a.decoded, b.decoded, "{cell}: decoded indices");
    assert_eq!(a.converged, b.converged, "{cell}: converged");
    assert_eq!(
        a.degenerate_events, b.degenerate_events,
        "{cell}: degenerate events"
    );
}

/// `tests/goldens.rs` pins every golden cell on the default functional
/// target; this test pins the DMA-queue offload to the functional target
/// on the same cells, so the goldens transitively hold on both.
#[test]
fn functional_target_reproduces_every_golden_cell() {
    for name in ["random", "perception", "integer", "capacity"] {
        for kind in [
            BackendKind::Baseline,
            BackendKind::Stochastic,
            BackendKind::H3dFact,
        ] {
            let cell = format!("{name} × {kind}");
            let functional = run_cell(name, kind, TargetKind::Functional);
            let dma = run_cell(name, kind, TargetKind::DmaQueue);
            assert_eq!(functional.units, dma.units, "{cell}: units");
            assert_eq!(functional.score, dma.score, "{cell}: score (bitwise)");
            assert_eq!(functional.metrics, dma.metrics, "{cell}: metrics");
            assert_eq!(
                functional.session.solved, dma.session.solved,
                "{cell}: solved"
            );
            assert_eq!(
                functional.session.total_iterations, dma.session.total_iterations,
                "{cell}: total iterations"
            );
            assert_eq!(
                functional.session.total_energy_j, dma.session.total_energy_j,
                "{cell}: energy (bitwise)"
            );
            assert_eq!(
                functional.session.total_latency_s, dma.session.total_latency_s,
                "{cell}: latency (bitwise)"
            );
            for (a, b) in functional
                .session
                .outcomes
                .iter()
                .zip(&dma.session.outcomes)
            {
                assert_outcomes_identical(a, b, &cell);
            }
        }
    }
}

/// The report a hardware engine's [`RunStats`] stands for.
fn hw_report(backend: &'static str, s: &RunStats) -> RunReport {
    RunReport {
        backend,
        iterations: s.iterations,
        degenerate_events: s.degenerate_events,
        cycles: Some(s.cycles),
        latency_s: Some(s.latency_s),
        energy: Some(s.energy.clone()),
        tier_switches: Some(s.tier_switches),
        adc_conversions: Some(s.adc_conversions),
        buffer_peak_bits: Some(s.buffer_peak_bits),
    }
}

/// The report of a software engine run: loop-level facts, no cost model.
fn sw_report(backend: &'static str, iterations: usize, degenerate_events: usize) -> RunReport {
    RunReport {
        backend,
        iterations,
        degenerate_events,
        cycles: None,
        latency_s: None,
        energy: None,
        tier_switches: None,
        adc_conversions: None,
        buffer_peak_bits: None,
    }
}

/// A crate engine driven directly, reporting its last run in the
/// facade's format.
trait DirectEngine: Factorizer {
    fn report(&self) -> RunReport;
}

impl DirectEngine for H3dFact {
    fn report(&self) -> RunReport {
        hw_report("h3dfact-3d", self.last_run_stats().expect("ran"))
    }
}

impl DirectEngine for Sram2dEngine {
    fn report(&self) -> RunReport {
        hw_report("sram-2d", self.last_run_stats().expect("ran"))
    }
}

impl DirectEngine for Hybrid2dEngine {
    fn report(&self) -> RunReport {
        hw_report("hybrid-2d", self.last_run_stats().expect("ran"))
    }
}

impl DirectEngine for PcmEngine {
    fn report(&self) -> RunReport {
        hw_report("pcm-2die", self.last_run_stats().expect("ran"))
    }
}

impl DirectEngine for BaselineResonator {
    fn report(&self) -> RunReport {
        let s = self.last_run_summary().expect("ran");
        sw_report("baseline-sw", s.iterations, s.degenerate_events)
    }
}

impl DirectEngine for StochasticResonator {
    fn report(&self) -> RunReport {
        let s = self.last_run_summary().expect("ran");
        sw_report("stochastic-sw", s.iterations, s.degenerate_events)
    }
}

/// The crate engine of `kind`, built directly from its own constructors
/// with the session's ADC/noise overrides applied the way each engine
/// takes them.
fn direct_engine(
    kind: BackendKind,
    spec: ProblemSpec,
    max_iters: usize,
    seed: u64,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
) -> Box<dyn DirectEngine> {
    let mut cfg = H3dFactConfig::default_for(spec).with_max_iters(max_iters);
    if let Some(bits) = adc_bits {
        cfg = cfg.with_adc_bits(bits);
    }
    if let Some(n) = noise {
        cfg = cfg.with_noise(n);
    }
    match kind {
        BackendKind::H3dFact => Box::new(H3dFact::new(cfg, seed)),
        BackendKind::Sram2d => Box::new(Sram2dEngine::new(spec, max_iters, seed)),
        BackendKind::Hybrid2d => Box::new(Hybrid2dEngine::new(cfg, seed)),
        BackendKind::Pcm => {
            let mut engine = PcmEngine::paper_default(spec, max_iters, seed);
            if let Some(bits) = adc_bits {
                engine = engine.with_adc_bits(bits);
            }
            if let Some(n) = noise {
                engine = engine
                    .with_cell_sigma(n.sigma_total())
                    .with_faults(n.stuck_at_rate, n.write_gain());
            }
            Box::new(engine)
        }
        BackendKind::Baseline => Box::new(BaselineResonator::new(max_iters, seed)),
        BackendKind::Stochastic => Box::new(StochasticResonator::with_cell_noise(
            spec,
            max_iters,
            noise.map_or(StochasticResonator::CHIP_CELL_SIGMA, |n| n.sigma_total()),
            adc_bits.unwrap_or(4),
            seed,
        )),
    }
}

/// Every backend kind, driven through the session (and so through its
/// functional target, in lockstep where the target has a stepper),
/// produces outcomes, cost totals and `RunReport`s (energy ledgers
/// included) bit-identical to the crate engine of the same kind at the
/// session's backend seed — with paper defaults, and with ADC/noise
/// overrides whose stuck-at faults put the PCM comparator's readout gain
/// below 1.
#[test]
fn functional_target_matches_direct_engines_for_all_kinds() {
    let spec = ProblemSpec::new(3, 8, 256);
    let faulty = NoiseSpec {
        stuck_at_rate: 0.2,
        write_nonlinearity: 0.1,
        ..NoiseSpec::chip_40nm()
    };
    for (adc_bits, noise) in [(None, None), (Some(3), Some(faulty))] {
        for kind in BackendKind::ALL {
            let cell = format!("{kind} adc {adc_bits:?} noise {}", noise.is_some());
            let mut builder = Session::builder()
                .spec(spec)
                .backend(kind)
                .seed(77)
                .max_iters(500);
            if let Some(bits) = adc_bits {
                builder = builder.adc_bits(bits);
            }
            if let Some(n) = noise {
                builder = builder.noise(n);
            }
            let mut session = builder.build();
            assert_eq!(session.backend_name(), kind.name(), "{cell}");
            let items = session.generate_at(0, 4);
            let routed = session.run(4);

            let seed = derive_seed(77, SESSION_BACKEND_NS);
            let mut engine = direct_engine(kind, spec, 500, seed, adc_bits, noise);
            let (mut energy, mut latency) = (None, None);
            let mut last = None;
            for (item, got) in items.iter().zip(&routed.outcomes) {
                let want =
                    engine.factorize_query(session.codebooks(), &item.query, item.truth.as_deref());
                assert_outcomes_identical(got, &want, &cell);
                let report = engine.report();
                if let Some(e) = report.energy_j() {
                    *energy.get_or_insert(0.0) += e;
                }
                if let Some(l) = report.latency_s {
                    *latency.get_or_insert(0.0) += l;
                }
                last = Some(report);
            }
            assert_eq!(routed.total_energy_j, energy, "{cell}: energy (bitwise)");
            assert_eq!(routed.total_latency_s, latency, "{cell}: latency (bitwise)");
            assert_eq!(
                session.last_run_stats(),
                last,
                "{cell}: run report (ledger included)"
            );
            let cost = session
                .last_cost_report()
                .unwrap_or_else(|| panic!("{cell}: the target reports cost"));
            assert_eq!(cost.target, "functional");
        }
    }
}

/// The 3D accelerator keeps its SRAM-buffered batch schedule on the
/// target path: `run_batched` — sequential, and folded back from the
/// worker pool — reports exactly what `H3dFact::factorize_batch` reports
/// for the same items at the same run cursors.
#[test]
fn h3dfact_run_batched_keeps_the_native_batch_roll_up() {
    let spec = ProblemSpec::new(3, 8, 256);
    for threads in [1, 2] {
        let mut session = Session::builder()
            .spec(spec)
            .backend(BackendKind::H3dFact)
            .seed(41)
            .max_iters(500)
            .threads(threads)
            .build();
        // A second batch, so the roll-up starts mid-cursor.
        let _ = session.run_batched(3);
        let items = session.generate_at(session.problem_cursor(), 5);
        let routed = session.run_batched(5);

        let cfg = H3dFactConfig::default_for(spec).with_max_iters(500);
        let mut engine = H3dFact::new(cfg, derive_seed(41, SESSION_BACKEND_NS));
        engine.set_run_cursor(3);
        let batch = engine.factorize_batch(session.codebooks(), &items);
        let stats = engine.last_run_stats().expect("batch stats");
        let cell = format!("threads({threads})");
        for (got, want) in routed.outcomes.iter().zip(&batch.outcomes) {
            assert_outcomes_identical(got, want, &cell);
        }
        assert_eq!(
            routed.total_energy_j,
            Some(stats.energy.total()),
            "{cell}: energy"
        );
        assert_eq!(
            routed.total_latency_s,
            Some(stats.latency_s),
            "{cell}: latency"
        );
        assert_eq!(
            session.last_run_stats(),
            Some(hw_report("h3dfact-3d", stats)),
            "{cell}: batch report"
        );
    }
}

/// Builds the two-backend service used by the cross-target equivalence
/// tests, routed through `target`.
fn service_on(target: TargetKind) -> FactorizationService {
    ServiceBuilder::default()
        .spec(ProblemSpec::new(3, 8, 256))
        .seed(909)
        .max_iters(500)
        .backends(&[(BackendKind::H3dFact, 1), (BackendKind::Pcm, 1)])
        .batch_size(4)
        .target(target)
        .build()
}

/// The tentpole equivalence contract: a trace captured live on the
/// functional target replays bit-for-bit on the DMA-queue target, for
/// two different backend kinds in one pool — same decoded factors, same
/// iteration counts, same run cursors.
#[test]
fn functional_and_dma_targets_agree_on_the_same_trace() {
    let mut live = service_on(TargetKind::Functional);
    let mut streams = [
        live.request_stream("tenant-a", BackendKind::H3dFact, 1),
        live.request_stream("tenant-b", BackendKind::Pcm, 2),
    ];
    for _ in 0..3 {
        for stream in &mut streams {
            live.submit(stream.next_request());
        }
    }
    let mut live_responses = live.drain();
    live_responses.sort_by_key(|r| r.id);
    let trace = live.trace().to_vec();
    assert_eq!(trace.len(), 6, "every admitted request is traced");

    let dma = service_on(TargetKind::DmaQueue);
    let mut replayed = dma.replay(&trace);
    replayed.sort_by_key(|r| r.id);
    assert_eq!(replayed.len(), live_responses.len());
    for (live_r, dma_r) in live_responses.iter().zip(&replayed) {
        let cell = format!("request {} on {}", live_r.id, live_r.backend);
        assert_eq!(live_r.id, dma_r.id, "{cell}: id");
        assert_eq!(live_r.cursor, dma_r.cursor, "{cell}: run cursor");
        assert_outcomes_identical(&live_r.outcome, &dma_r.outcome, &cell);
    }

    // And the reverse direction: a trace captured on the DMA target
    // replays identically on the functional service.
    let mut dma_live = service_on(TargetKind::DmaQueue);
    let mut streams = [
        dma_live.request_stream("tenant-a", BackendKind::H3dFact, 1),
        dma_live.request_stream("tenant-b", BackendKind::Pcm, 2),
    ];
    for _ in 0..3 {
        for stream in &mut streams {
            dma_live.submit(stream.next_request());
        }
    }
    let mut dma_responses = dma_live.drain();
    dma_responses.sort_by_key(|r| r.id);
    let functional = service_on(TargetKind::Functional);
    let mut back = functional.replay(dma_live.trace());
    back.sort_by_key(|r| r.id);
    for (a, b) in dma_responses.iter().zip(&back) {
        assert_outcomes_identical(&a.outcome, &b.outcome, &format!("reverse {}", a.id));
    }
}

/// DMA offload is bit-identical to functional at the session layer too,
/// and its cost report carries queue-occupancy statistics.
#[test]
fn dma_queue_sessions_match_functional_and_report_queue_stats() {
    let spec = ProblemSpec::new(3, 8, 256);
    for kind in [BackendKind::Sram2d, BackendKind::Stochastic] {
        let run = |target: TargetKind| {
            let mut s = Session::builder()
                .spec(spec)
                .backend(kind)
                .seed(33)
                .max_iters(500)
                .target(target)
                .build();
            let report = s.run(2);
            (report, s.last_cost_report().expect("target cost report"))
        };
        let (fr, fc) = run(TargetKind::Functional);
        let (dr, dc) = run(TargetKind::DmaQueue);
        assert_eq!(fr.solved, dr.solved, "{kind}: solved");
        assert_eq!(fr.total_iterations, dr.total_iterations, "{kind}: iters");
        assert_eq!(fr.total_energy_j, dr.total_energy_j, "{kind}: energy");
        assert_eq!(fc.queue, None, "{kind}: functional has no queue");
        let q = dc.queue.unwrap_or_else(|| panic!("{kind}: queue stats"));
        assert!(q.commands > 0, "{kind}: commands flowed");
        assert!(q.bytes > q.commands, "{kind}: multi-byte commands");
        assert!(
            q.max_depth > 0 && q.max_depth <= q.capacity,
            "{kind}: occupancy within capacity"
        );
        // Same kernels behind the queue: the cost fields agree.
        assert_eq!(fc.energy, dc.energy, "{kind}: energy ledger through DMA");
        assert_eq!(fc.cycles, dc.cycles, "{kind}: cycles through DMA");
    }
}

/// The approximate tiled target is deterministic per seed: two fresh
/// sessions produce bitwise-identical outcomes and cost reports —
/// temperature trajectory, energy ledger, ADC counts and all.
#[test]
fn approx_tiled_cost_reports_are_deterministic_per_seed() {
    let spec = ProblemSpec::new(3, 8, 256);
    let run = |seed: u64| {
        let mut s = Session::builder()
            .spec(spec)
            .backend(BackendKind::H3dFact)
            .seed(seed)
            .max_iters(500)
            .target(TargetKind::ApproxTiled)
            .build();
        let report = s.run(2);
        (report, s.last_cost_report().expect("cost report"))
    };
    let (ra, ca) = run(5);
    let (rb, cb) = run(5);
    assert_eq!(ra.solved, rb.solved);
    assert_eq!(ra.total_iterations, rb.total_iterations);
    for (a, b) in ra.outcomes.iter().zip(&rb.outcomes) {
        assert_outcomes_identical(a, b, "approx-tiled same-seed");
    }
    assert_eq!(ca, cb, "cost reports must be bitwise identical per seed");
    // A different seed draws different device noise.
    let (_, cc) = run(6);
    assert_ne!(ca, cc, "different seeds must differ somewhere");
}

/// The co-simulated thermal trajectory is physically sane: one sample per
/// iteration, monotone heating from ambient under sustained load, peak at
/// least the die mean, and energy/cycle accounting present.
#[test]
fn approx_tiled_thermal_trajectory_is_sane() {
    let spec = ProblemSpec::new(3, 8, 256);
    let mut s = Session::builder()
        .spec(spec)
        .backend(BackendKind::Hybrid2d)
        .seed(11)
        .max_iters(500)
        .target(TargetKind::ApproxTiled)
        .build();
    let report = s.run(1);
    let cost = s.last_cost_report().expect("cost report");
    assert_eq!(cost.target, "approx-tiled");
    let iters = report.outcomes[0].iterations;
    assert_eq!(cost.iterations, iters);
    assert_eq!(
        cost.mean_die_temp_c.len(),
        iters,
        "one sample per iteration"
    );
    let ambient = 25.0;
    let mut last = ambient;
    for &t in &cost.mean_die_temp_c {
        assert!(t >= last - 1e-9, "sustained load must not cool the dies");
        assert!(t < 200.0, "lumped model must stay stable");
        last = t;
    }
    assert!(last > ambient, "dies heat above ambient under load");
    assert!(cost.peak_temp_c.unwrap() >= last - 1e-9);
    assert!(cost.energy.as_ref().unwrap().total() > 0.0);
    assert!(cost.cycles.unwrap() > 0);
    assert!(cost.latency_s.unwrap() > 0.0);
    assert!(cost.adc_conversions.unwrap() > 0);
    // The session-level RunReport mirrors the cost report.
    let stats = s.last_run_stats().expect("run report");
    assert_eq!(stats.backend, "hybrid-2d+approx");
    assert_eq!(stats.cycles, cost.cycles);
    assert_eq!(stats.energy, cost.energy);
}

/// Targets compose with the session's parallel executor: a multi-threaded
/// target-routed run is bit-identical to the sequential one.
#[test]
fn target_sessions_are_thread_invariant() {
    let spec = ProblemSpec::new(3, 8, 256);
    for target in [TargetKind::Functional, TargetKind::DmaQueue] {
        let run = |threads: usize| {
            Session::builder()
                .spec(spec)
                .backend(BackendKind::Stochastic)
                .seed(21)
                .max_iters(500)
                .threads(threads)
                .target(target)
                .build()
                .run(6)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.solved, par.solved, "{target}: solved");
        assert_eq!(
            seq.total_iterations, par.total_iterations,
            "{target}: iterations"
        );
        assert_eq!(seq.total_energy_j, par.total_energy_j, "{target}: energy");
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_outcomes_identical(a, b, &format!("{target} threads"));
        }
    }
}

/// The approximate tiled target models the analog crossbar path: every
/// other kind is refused at build time with an error, never a panic.
#[test]
fn approx_tiled_target_refuses_kinds_without_a_crossbar() {
    let spec = ProblemSpec::new(3, 8, 256);
    for kind in BackendKind::ALL {
        let built = Session::builder()
            .spec(spec)
            .backend(kind)
            .target(TargetKind::ApproxTiled)
            .try_build();
        match kind {
            BackendKind::H3dFact | BackendKind::Hybrid2d => {
                assert!(built.is_ok(), "{kind} has a crossbar")
            }
            _ => assert_eq!(
                built.unwrap_err(),
                SessionBuildError::UnsupportedTarget {
                    kind,
                    target: TargetKind::ApproxTiled
                }
            ),
        }
    }
}

/// A service whose every shard has a crossbar builds on the approximate
/// tiled target (its codebook-owning parent runs on the functional one)
/// and solves; a pool with a shard that has none is refused.
#[test]
fn approx_tiled_service_builds_for_analog_shards_only() {
    let spec = ProblemSpec::new(3, 8, 256);
    let builder = || {
        FactorizationService::builder()
            .spec(spec)
            .seed(5)
            .max_iters(500)
            .batch_size(2)
            .target(TargetKind::ApproxTiled)
    };
    let mut service = builder()
        .backends(&[(BackendKind::H3dFact, 1)])
        .try_build()
        .expect("an H3dFact-only pool runs on the approximate tiled target");
    let mut stream = service.request_stream("tenant", BackendKind::H3dFact, 0);
    for _ in 0..2 {
        service.submit(stream.next_request());
    }
    let responses = service.drain();
    assert_eq!(responses.len(), 2, "one batch of two solved");
    for r in &responses {
        let report = r.report.as_ref().expect("run report");
        assert_eq!(report.backend, "h3dfact-3d+approx");
        assert_eq!(report.iterations, r.outcome.iterations);
    }

    let refused = builder()
        .backends(&[(BackendKind::H3dFact, 1), (BackendKind::Baseline, 1)])
        .try_build()
        .unwrap_err();
    assert_eq!(
        refused,
        ServiceBuildError::UnsupportedTarget {
            kind: BackendKind::Baseline,
            target: TargetKind::ApproxTiled
        }
    );
}
