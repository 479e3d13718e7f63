//! The unified backend interface: every factorization engine in the
//! workspace — device-accurate hardware simulations and algorithm-level
//! software models alike — is drivable through one object-safe trait.
//!
//! [`Backend`] is a superset of `resonator::engine::Factorizer` (which it
//! keeps as a supertrait so kernel-level code keeps working): on top of
//! `factorize`/`factorize_query` it adds engine identification
//! ([`Backend::name`]), capability discovery ([`Backend::capabilities`]),
//! lockstep and batched solving ([`Backend::factorize_lockstep`],
//! [`Backend::factorize_batch`]) and uniform run reporting
//! ([`Backend::last_run_stats`] returning a common [`RunReport`]).
//!
//! Its one implementation is
//! [`TargetBackend`](crate::target::TargetBackend): any of the six
//! [`BackendKind`](crate::session::BackendKind)s executing its kernels on
//! a [`Target`](crate::target::Target) — the bit-exact functional target
//! by default. Code rarely calls a `Backend` directly: `Session` drives
//! one per configured kind, and the
//! [`Workload`](crate::workload::Workload) layer routes whole experiments
//! through it, batched and threaded.

use cim::energy::EnergyLedger;
use hdc::{BipolarVector, Codebook};
use resonator::batch::{BatchItem, BatchOutcome};
use resonator::engine::{FactorizationOutcome, Factorizer};

/// What a backend models and how it can be driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Relies on stochastic exploration (device noise / sparse activation)
    /// rather than the deterministic baseline dynamics.
    pub stochastic: bool,
    /// Reports per-run energy through [`RunReport::energy`].
    pub energy_model: bool,
    /// Reports per-run cycles/latency through [`RunReport::cycles`] /
    /// [`RunReport::latency_s`].
    pub latency_model: bool,
    /// Has a native batch schedule that amortizes cost across a batch
    /// (otherwise `factorize_batch` is a sequential convenience).
    pub native_batch: bool,
}

/// Uniform statistics of a backend's most recent run (or batch).
///
/// Software engines have no hardware cost model, so the cost fields are
/// `None` for them; the loop-level facts are always present.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: &'static str,
    /// Resonator iterations executed.
    pub iterations: usize,
    /// Degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Total clock cycles, when the backend has a latency model.
    pub cycles: Option<u64>,
    /// Wall latency at the design clock, seconds.
    pub latency_s: Option<f64>,
    /// Energy by component, when the backend has an energy model.
    pub energy: Option<EnergyLedger>,
    /// RRAM tier activation switches (3D designs only).
    pub tier_switches: Option<u64>,
    /// ADC conversions performed (analog designs only).
    pub adc_conversions: Option<u64>,
    /// Peak SRAM buffer occupancy, bits (buffered hardware designs only).
    pub buffer_peak_bits: Option<u64>,
}

impl RunReport {
    /// Total energy in joules, when an energy model exists.
    pub fn energy_j(&self) -> Option<f64> {
        self.energy.as_ref().map(|e| e.total())
    }
}

/// An order-deterministic accumulator over [`RunReport`]s: the single
/// definition of how per-run statistics roll up into multi-run totals,
/// shared by the service layer's per-tenant and per-shard aggregation.
///
/// Cost fields stay `None` until the first report that carries them (so a
/// software backend's totals honestly report "no cost model" rather than
/// zero joules); folding must happen in a deterministic order (admission
/// order, in the service) for the floating-point sums to be reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Reports folded in.
    pub runs: usize,
    /// Total resonator iterations.
    pub iterations: usize,
    /// Total degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Total clock cycles, when any report carried a latency model.
    pub cycles: Option<u64>,
    /// Total modeled latency, seconds.
    pub latency_s: Option<f64>,
    /// Runs whose report carried a latency model (the denominator of
    /// [`RunTotals::latency_per_run_s`] — a tenant may mix hardware and
    /// software shards, and software runs must not dilute the mean).
    pub latency_runs: usize,
    /// Total energy, joules.
    pub energy_j: Option<f64>,
    /// Runs whose report carried an energy model.
    pub energy_runs: usize,
}

impl RunTotals {
    /// Folds one run's report into the totals.
    pub fn fold(&mut self, report: &RunReport) {
        self.runs += 1;
        self.iterations += report.iterations;
        self.degenerate_events += report.degenerate_events;
        if let Some(c) = report.cycles {
            *self.cycles.get_or_insert(0) += c;
        }
        if let Some(l) = report.latency_s {
            *self.latency_s.get_or_insert(0.0) += l;
            self.latency_runs += 1;
        }
        if let Some(e) = report.energy_j() {
            *self.energy_j.get_or_insert(0.0) += e;
            self.energy_runs += 1;
        }
    }

    /// Mean modeled latency per latency-modeled run, seconds.
    pub fn latency_per_run_s(&self) -> Option<f64> {
        self.latency_s
            .filter(|_| self.latency_runs > 0)
            .map(|l| l / self.latency_runs as f64)
    }

    /// Mean energy per energy-modeled run, joules.
    pub fn energy_per_run_j(&self) -> Option<f64> {
        self.energy_j
            .filter(|_| self.energy_runs > 0)
            .map(|e| e / self.energy_runs as f64)
    }
}

/// One reference-borrowed query of a lockstep batch: what
/// [`Backend::factorize_lockstep`] solves per item.
pub type LockstepQuery<'a> = (&'a BipolarVector, Option<&'a [usize]>);

/// One lockstep-solved item: the outcome plus the per-run report the
/// backend would have produced for the same item via `factorize_query` —
/// bit-identical to the sequential call stream, so executors can fold
/// costs from lockstep batches exactly as they fold per-item solves.
#[derive(Debug, Clone)]
pub struct LockstepSolve {
    /// The item's factorization outcome.
    pub outcome: FactorizationOutcome,
    /// The backend's per-run report for the item.
    pub report: RunReport,
}

/// The unified, object-safe interface over every factorization engine.
///
/// Extends [`Factorizer`] (so `factorize` and `factorize_query` are
/// available on every `Box<dyn Backend>`) with identification, capability
/// discovery, batching, deterministic run-cursor control, and uniform
/// reporting. `Send` is required so engines can be dispatched to the
/// session's worker threads.
pub trait Backend: Factorizer + Send {
    /// Stable identifier of the engine (used in reports and logs).
    fn name(&self) -> &'static str;

    /// What this engine models.
    fn capabilities(&self) -> Capabilities;

    /// Statistics of the most recent `factorize*` call, in the common
    /// report format. `None` before the first run.
    fn last_run_stats(&self) -> Option<RunReport>;

    /// How many `factorize*` item solves this engine has issued. Every
    /// engine derives the seed of run `k` purely from `(engine seed, k)`,
    /// which is what makes parallel batch execution bit-identical to
    /// sequential execution.
    fn run_cursor(&self) -> u64;

    /// Repositions the run cursor: the next `factorize*` call draws the
    /// seed stream of run `cursor`. The session's parallel executor gives
    /// each batch item the cursor it would have had sequentially.
    fn seek_run(&mut self, cursor: u64);

    /// Solves `queries` as one lockstep batch: item `i` is solved at run
    /// cursor `run_cursor() + i`, the cursor advances past the batch, and
    /// outcomes and reports are **bit-identical** (up to wall-clock phase
    /// times) to the equivalent sequential `factorize_query` call stream.
    /// Targets with a batched stepper advance every item one iteration at
    /// a time through matrix–matrix kernels; the others are solved item by
    /// item inside the call.
    fn factorize_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
    ) -> Vec<LockstepSolve>;

    /// Factorizes every item against shared codebooks, in lockstep chunks
    /// bounded so batch scratch stays `O(chunk)` however large the item
    /// set is. Backends with a native batch schedule report the whole
    /// batch afterwards ([`Backend::fold_batch_reports`]); the others
    /// report the last item.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes disagree.
    fn factorize_batch(&mut self, codebooks: &[Codebook], items: &[BatchItem]) -> BatchOutcome;

    /// Folds per-item run reports — produced by an executor that solved a
    /// batch item-by-item at the same run cursors — into this backend's
    /// batch-level report, exactly as its native `factorize_batch` would.
    /// Returns `false` when the backend has no native batch roll-up, in
    /// which case the last item's report stands.
    fn fold_batch_reports(&mut self, per_item: &[RunReport]) -> bool;

    /// The target-level [`CostReport`](crate::target::CostReport) of the
    /// most recent run. `None` before the first run.
    fn last_cost_report(&self) -> Option<crate::target::CostReport>;
}
