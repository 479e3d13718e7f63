//! The unified experiment surface: a [`Workload`] turns any scenario —
//! random holographic factorization, perceptual scene understanding, RPM
//! puzzles, integer factorization, capacity sweeps, or anything a user
//! invents — into a deterministic stream of factorization queries that
//! [`Session::run_workload`](crate::session::Session::run_workload) can
//! batch, thread, and report on uniformly.
//!
//! # The contract
//!
//! A workload does exactly two things:
//!
//! 1. **Generate**: [`Workload::generate`] deterministically produces the
//!    epoch's [`WorkloadSet`] — per-item queries with optional ground
//!    truth, addressing one or more codebook *groups* (most workloads
//!    share one group; fresh-codebook studies like capacity sweeps use a
//!    group per trial). Every call advances an internal epoch so repeated
//!    runs see fresh data, and item `i`'s content depends only on
//!    `(workload seed, epoch, i)` — never on the order or thread items
//!    are later solved on.
//! 2. **Score**: [`Workload::score`] maps the per-item
//!    [`FactorizationOutcome`]s (in generation order) back to the
//!    workload's own notion of success — solved fraction, attribute
//!    accuracy, puzzles correct, semiprimes factored — as a
//!    [`WorkloadScore`].
//!
//! The session does the rest: it solves every item through its backend on
//! the deterministic parallel executor, so a `threads(4)` run reports
//! **bit-identically** to `threads(1)`, and wraps the outcome statistics
//! plus the workload's score into a [`WorkloadReport`].
//!
//! # Writing a custom workload
//!
//! ```
//! use h3dfact::prelude::*;
//! use h3dfact::workload::{Workload, WorkloadItem, WorkloadScore, WorkloadSet};
//! use h3dfact::hdc::rng::{derive_seed, stream_rng};
//! use h3dfact::resonator::engine::FactorizationOutcome;
//!
//! /// Clean products of the session shape, one per unit.
//! struct CleanProducts {
//!     spec: ProblemSpec,
//!     seed: u64,
//!     epoch: u64,
//! }
//!
//! impl Workload for CleanProducts {
//!     fn name(&self) -> &str {
//!         "clean-products"
//!     }
//!     fn spec(&self) -> ProblemSpec {
//!         self.spec
//!     }
//!     fn generate(&mut self, n: usize) -> WorkloadSet {
//!         let master = derive_seed(derive_seed(self.seed, 0xC1EA), self.epoch);
//!         self.epoch += 1;
//!         let mut rng = stream_rng(master, 0);
//!         let books: Vec<Codebook> = (0..self.spec.factors)
//!             .map(|_| Codebook::random(self.spec.codebook_size, self.spec.dim, &mut rng))
//!             .collect();
//!         let items = (0..n)
//!             .map(|i| {
//!                 let mut rng = stream_rng(master, 1 + i as u64);
//!                 let (query, truth) = FactorizationProblem::draw_query(&books, &mut rng);
//!                 WorkloadItem {
//!                     group: 0,
//!                     unit: i,
//!                     query,
//!                     truth: Some(truth),
//!                 }
//!             })
//!             .collect();
//!         WorkloadSet {
//!             units: n,
//!             groups: vec![books],
//!             items,
//!         }
//!     }
//!     fn score(&mut self, _set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
//!         WorkloadScore::solved_fraction(outcomes)
//!     }
//! }
//!
//! let spec = ProblemSpec::new(2, 8, 256);
//! let mut session = Session::builder()
//!     .spec(spec)
//!     .backend(BackendKind::Stochastic)
//!     .seed(3)
//!     .max_iters(500)
//!     .build();
//! let mut workload = CleanProducts { spec, seed: 9, epoch: 0 };
//! let report = session.run_workload(&mut workload, 3);
//! assert_eq!(report.units, 3);
//! assert!(report.score > 0.0);
//! ```

use cim::noise::NoiseSpec;
use hdc::rng::{derive_seed, stream_rng};
use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
use perception::{AttributeSchema, NeuralFrontend, RavenPuzzle, RavenSolver};
use resonator::engine::FactorizationOutcome;

use crate::session::SessionReport;

/// Stream namespaces, one per built-in workload, mixed into the workload
/// seed through `derive_seed` so no two workloads (or epochs) can ever
/// draw overlapping streams.
mod ns {
    pub const RANDOM: u64 = 0x3D0A_0001;
    pub const ATTRIBUTES: u64 = 0x3D0A_0002;
    pub const PUZZLES: u64 = 0x3D0A_0003;
    pub const INTEGER: u64 = 0x3D0A_0004;
    pub const CAPACITY: u64 = 0x3D0A_0005;
    pub const ROBUSTNESS: u64 = 0x3D0A_0006;
}

/// One factorization query of a workload epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadItem {
    /// Index into [`WorkloadSet::groups`] of the codebooks this query is
    /// defined over.
    pub group: usize,
    /// The logical unit (scene, puzzle, trial, …) this query belongs to.
    pub unit: usize,
    /// The product vector to factorize.
    pub query: BipolarVector,
    /// Ground-truth indices, when known.
    pub truth: Option<Vec<usize>>,
}

/// One epoch's worth of queries: codebook groups plus the items over them.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSet {
    /// Logical units this set covers (items may outnumber units — an RPM
    /// puzzle is one unit but sixteen panel queries).
    pub units: usize,
    /// The codebook groups items address. Most workloads have exactly one.
    pub groups: Vec<Vec<Codebook>>,
    /// The queries, in generation order (scoring relies on this order).
    pub items: Vec<WorkloadItem>,
}

impl WorkloadSet {
    /// An empty set (zero units, zero items).
    pub fn empty() -> Self {
        Self {
            units: 0,
            groups: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Checks internal consistency and that every group matches `spec`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range group index or a group whose shape
    /// disagrees with `spec`.
    pub fn validate(&self, spec: ProblemSpec) {
        for (g, books) in self.groups.iter().enumerate() {
            assert_eq!(books.len(), spec.factors, "group {g}: factor count");
            for (f, b) in books.iter().enumerate() {
                assert_eq!(b.len(), spec.codebook_size, "group {g} book {f}: size");
                assert_eq!(b.dim(), spec.dim, "group {g} book {f}: dimension");
            }
        }
        for (i, item) in self.items.iter().enumerate() {
            assert!(
                item.group < self.groups.len(),
                "item {i} addresses missing group {}",
                item.group
            );
            assert!(
                item.unit < self.units.max(1),
                "item {i} addresses missing unit {}",
                item.unit
            );
        }
    }
}

/// A workload's own verdict on an epoch: a headline unit-level score in
/// `[0, 1]` plus named auxiliary metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadScore {
    /// The workload's headline success fraction over its units.
    pub score: f64,
    /// Auxiliary named metrics (accuracies, rates, mean iterations, …).
    pub metrics: Vec<(String, f64)>,
}

impl WorkloadScore {
    /// The standard score for one-query-per-unit workloads: the fraction
    /// of outcomes flagged solved.
    pub fn solved_fraction(outcomes: &[FactorizationOutcome]) -> Self {
        let solved = outcomes.iter().filter(|o| o.solved).count();
        let score = if outcomes.is_empty() {
            0.0
        } else {
            solved as f64 / outcomes.len() as f64
        };
        Self {
            score,
            metrics: Vec::new(),
        }
    }
}

/// A deterministic, scoreable experiment over factorization queries.
///
/// See the [module docs](self) for the contract and a worked custom
/// implementation.
pub trait Workload {
    /// Stable workload name (used in reports and benchmark JSON).
    fn name(&self) -> &str;

    /// The problem shape every query has — must match the session's spec.
    fn spec(&self) -> ProblemSpec;

    /// Deterministically generates the next epoch's set of `n` units.
    /// Item content may depend only on the workload's seed, the epoch,
    /// and the item's position — never on solve order.
    fn generate(&mut self, n: usize) -> WorkloadSet;

    /// Scores the outcomes of `set` (in item order) for this workload.
    ///
    /// `set` must be the set of this workload's **most recent**
    /// [`Workload::generate`] call — workloads may keep per-epoch scoring
    /// state (e.g. puzzle answer keys) that only matches the latest set,
    /// and must reject a stale one loudly rather than mis-score it.
    fn score(&mut self, set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore;
}

/// Aggregate result of a [`Session::run_workload`] pass: the workload's
/// own score on top of the standard session statistics — a strict
/// superset of [`SessionReport`].
///
/// [`Session::run_workload`]: crate::session::Session::run_workload
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload that ran.
    pub workload: String,
    /// Logical units evaluated.
    pub units: usize,
    /// The workload's headline unit-level score in `[0, 1]`.
    pub score: f64,
    /// The workload's auxiliary metrics.
    pub metrics: Vec<(String, f64)>,
    /// Query-level statistics in the standard session format (accuracy
    /// over queries, iteration stats, energy/latency totals, outcomes).
    pub session: SessionReport,
}

impl WorkloadReport {
    /// Looks up an auxiliary metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Today's `Session::run` workload as a first-class [`Workload`]: `n`
/// fresh random problems per epoch over shared random codebooks.
#[derive(Debug, Clone)]
pub struct RandomFactorization {
    spec: ProblemSpec,
    seed: u64,
    epoch: u64,
    codebooks: Vec<Codebook>,
}

impl RandomFactorization {
    /// Creates the workload at shape `spec` with its own codebooks drawn
    /// from `seed`.
    pub fn new(spec: ProblemSpec, seed: u64) -> Self {
        let mut rng = stream_rng(derive_seed(seed, ns::RANDOM), 0);
        let codebooks = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        Self {
            spec,
            seed,
            epoch: 0,
            codebooks,
        }
    }
}

impl Workload for RandomFactorization {
    fn name(&self) -> &str {
        "random-factorization"
    }

    fn spec(&self) -> ProblemSpec {
        self.spec
    }

    fn generate(&mut self, n: usize) -> WorkloadSet {
        let master = derive_seed(derive_seed(self.seed, ns::RANDOM), 1 + self.epoch);
        self.epoch += 1;
        let items = (0..n)
            .map(|i| {
                let mut rng = stream_rng(master, i as u64);
                let (query, truth) = FactorizationProblem::draw_query(&self.codebooks, &mut rng);
                WorkloadItem {
                    group: 0,
                    unit: i,
                    query,
                    truth: Some(truth),
                }
            })
            .collect();
        WorkloadSet {
            units: n,
            groups: vec![self.codebooks.clone()],
            items,
        }
    }

    fn score(&mut self, _set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
        WorkloadScore::solved_fraction(outcomes)
    }
}

/// What a [`Perception`] workload evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PerceptionTask {
    /// Attribute estimation over single scenes (the paper's 99.4 % Fig. 7
    /// metric): one query per scene, scored per attribute.
    Attributes,
    /// Full RAVEN-style RPM puzzles: sixteen panel queries per puzzle
    /// (eight context, eight candidates), solved neuro-symbolically.
    Puzzles,
}

/// The Fig. 7 perceptual pipeline as a [`Workload`]: scenes pass through
/// the simulated neural frontend into product-vector queries; outcomes
/// are scored as attribute estimates (and, in puzzle mode, fed to the
/// symbolic RPM solver).
///
/// Unlike the legacy `PerceptionPipeline` (which walks a bare
/// `Factorizer` scene by scene), all embedding happens at generation
/// time from per-scene rng streams, so panel queries parallelize across
/// the session's worker pool with bit-identical reports.
pub struct Perception {
    schema: AttributeSchema,
    codebooks: Vec<Codebook>,
    frontend: NeuralFrontend,
    task: PerceptionTask,
    dim: usize,
    seed: u64,
    epoch: u64,
    /// Correct-answer index per puzzle of the last generated epoch.
    answers: Vec<usize>,
    /// First query of the last generated set — the fingerprint `score()`
    /// uses to reject a stale set (epoch streams never repeat a query).
    last_first_query: Option<BipolarVector>,
}

impl Perception {
    /// Panel queries per RPM puzzle (8 context + 8 candidates).
    const PANELS_PER_PUZZLE: usize = 16;

    fn new(
        schema: AttributeSchema,
        dim: usize,
        frontend: NeuralFrontend,
        seed: u64,
        task: PerceptionTask,
    ) -> Self {
        let mut rng = stream_rng(derive_seed(seed, ns::ATTRIBUTES), 0);
        let codebooks = schema.codebooks(dim, &mut rng);
        Self {
            schema,
            codebooks,
            frontend,
            task,
            dim,
            seed,
            epoch: 0,
            answers: Vec::new(),
            last_first_query: None,
        }
    }

    /// Attribute-estimation workload: one scene per unit.
    pub fn attributes(
        schema: AttributeSchema,
        dim: usize,
        frontend: NeuralFrontend,
        seed: u64,
    ) -> Self {
        Self::new(schema, dim, frontend, seed, PerceptionTask::Attributes)
    }

    /// RPM-puzzle workload: one puzzle (sixteen panel queries) per unit.
    pub fn puzzles(
        schema: AttributeSchema,
        dim: usize,
        frontend: NeuralFrontend,
        seed: u64,
    ) -> Self {
        Self::new(schema, dim, frontend, seed, PerceptionTask::Puzzles)
    }

    /// The attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// The shared attribute codebooks all scenes are composed over.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }
}

impl Workload for Perception {
    fn name(&self) -> &str {
        match self.task {
            PerceptionTask::Attributes => "perception-attributes",
            PerceptionTask::Puzzles => "perception-puzzles",
        }
    }

    fn spec(&self) -> ProblemSpec {
        self.schema.problem_spec(self.dim)
    }

    fn generate(&mut self, n: usize) -> WorkloadSet {
        let namespace = match self.task {
            PerceptionTask::Attributes => ns::ATTRIBUTES,
            PerceptionTask::Puzzles => ns::PUZZLES,
        };
        let master = derive_seed(derive_seed(self.seed, namespace), 1 + self.epoch);
        self.epoch += 1;
        self.answers.clear();
        let mut items = Vec::new();
        for unit in 0..n {
            let mut rng = stream_rng(master, unit as u64);
            match self.task {
                PerceptionTask::Attributes => {
                    let scene = self.schema.sample(&mut rng);
                    let query =
                        self.frontend
                            .embed_with(&scene, &self.schema, &self.codebooks, &mut rng);
                    items.push(WorkloadItem {
                        group: 0,
                        unit,
                        query,
                        truth: Some(scene.attributes),
                    });
                }
                PerceptionTask::Puzzles => {
                    let puzzle = RavenPuzzle::generate(&self.schema, &mut rng);
                    self.answers.push(puzzle.answer);
                    for scene in puzzle.context.iter().chain(puzzle.candidates.iter()) {
                        let query = self.frontend.embed_with(
                            scene,
                            &self.schema,
                            &self.codebooks,
                            &mut rng,
                        );
                        items.push(WorkloadItem {
                            group: 0,
                            unit,
                            // No ground truth: candidate estimates must not
                            // be steered by the answer key.
                            truth: None,
                            query,
                        });
                    }
                }
            }
        }
        self.last_first_query = items.first().map(|i: &WorkloadItem| i.query.clone());
        WorkloadSet {
            units: n,
            groups: vec![self.codebooks.clone()],
            items,
        }
    }

    fn score(&mut self, set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
        assert_eq!(
            set.items.first().map(|i| &i.query),
            self.last_first_query.as_ref(),
            "score() must be given the most recently generated set \
             (per-epoch scoring state only matches the latest epoch)"
        );
        match self.task {
            PerceptionTask::Attributes => {
                let f = self.schema.len();
                let mut attr_correct = 0usize;
                let mut scene_correct = 0usize;
                for (item, out) in set.items.iter().zip(outcomes) {
                    let truth = item.truth.as_deref().expect("scenes carry ground truth");
                    let correct = out
                        .decoded
                        .iter()
                        .zip(truth)
                        .filter(|(a, b)| a == b)
                        .count();
                    attr_correct += correct;
                    if correct == f {
                        scene_correct += 1;
                    }
                }
                let scenes = set.units.max(1) as f64;
                let attribute_accuracy = attr_correct as f64 / (scenes * f as f64);
                let scene_accuracy = scene_correct as f64 / scenes;
                WorkloadScore {
                    score: attribute_accuracy,
                    metrics: vec![
                        ("attribute_accuracy".into(), attribute_accuracy),
                        ("scene_accuracy".into(), scene_accuracy),
                    ],
                }
            }
            PerceptionTask::Puzzles => {
                assert_eq!(
                    self.answers.len(),
                    set.units,
                    "answer key covers {} puzzles, set has {}",
                    self.answers.len(),
                    set.units
                );
                assert_eq!(
                    outcomes.len(),
                    set.units * Self::PANELS_PER_PUZZLE,
                    "puzzle outcomes must cover every panel"
                );
                let solver = RavenSolver;
                let mut correct = 0usize;
                for (unit, answer) in self.answers.iter().enumerate() {
                    let base = unit * Self::PANELS_PER_PUZZLE;
                    let decode = |i: usize| outcomes[base + i].decoded.clone();
                    let context: Vec<Vec<usize>> = (0..8).map(decode).collect();
                    let candidates: Vec<Vec<usize>> = (8..16).map(decode).collect();
                    let pred = solver.predict(&self.schema, &context);
                    if solver.choose(&pred, &candidates) == *answer {
                        correct += 1;
                    }
                }
                let score = correct as f64 / set.units.max(1) as f64;
                WorkloadScore {
                    score,
                    metrics: vec![("puzzle_accuracy".into(), score)],
                }
            }
        }
    }
}

/// Integer factorization as holographic factorization (paper Sec. V-E):
/// semiprimes `n = p·q` over a fixed prime-table codebook pair; the
/// resonator searches the factor table in superposition.
#[derive(Debug, Clone)]
pub struct IntegerFactorization {
    primes: Vec<u64>,
    books: Vec<Codebook>,
    dim: usize,
    seed: u64,
    epoch: u64,
}

impl IntegerFactorization {
    /// Builds the workload over the primes below `limit` at dimension
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if there are no primes below `limit`.
    pub fn new(limit: u64, dim: usize, seed: u64) -> Self {
        let primes: Vec<u64> = (2..limit)
            .filter(|&n| (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0))
            .collect();
        assert!(!primes.is_empty(), "need at least one candidate factor");
        let mut rng = stream_rng(derive_seed(seed, ns::INTEGER), 0);
        // Independent codebooks for the factor and cofactor tables.
        let books = vec![
            Codebook::random(primes.len(), dim, &mut rng),
            Codebook::random(primes.len(), dim, &mut rng),
        ];
        Self {
            primes,
            books,
            dim,
            seed,
            epoch: 0,
        }
    }

    /// The prime table the codebooks index.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }
}

impl Workload for IntegerFactorization {
    fn name(&self) -> &str {
        "integer-factorization"
    }

    fn spec(&self) -> ProblemSpec {
        ProblemSpec::new(2, self.primes.len(), self.dim)
    }

    fn generate(&mut self, n: usize) -> WorkloadSet {
        let master = derive_seed(derive_seed(self.seed, ns::INTEGER), 1 + self.epoch);
        self.epoch += 1;
        let m = self.primes.len();
        let items = (0..n)
            .map(|unit| {
                let mut rng = stream_rng(master, unit as u64);
                let pi = rand::Rng::gen_range(&mut rng, 0..m);
                let qi = rand::Rng::gen_range(&mut rng, 0..m);
                WorkloadItem {
                    group: 0,
                    unit,
                    query: self.books[0].vector(pi).bind(self.books[1].vector(qi)),
                    truth: Some(vec![pi, qi]),
                }
            })
            .collect();
        WorkloadSet {
            units: n,
            groups: vec![self.books.clone()],
            items,
        }
    }

    fn score(&mut self, set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
        // A decode counts when the recovered primes multiply back to n —
        // the arithmetic success criterion, looser than exact index match
        // (duplicate table values would be interchangeable).
        let mut factored = 0usize;
        let mut exact = 0usize;
        for (item, out) in set.items.iter().zip(outcomes) {
            let truth = item.truth.as_deref().expect("semiprimes carry truth");
            let n = self.primes[truth[0]] * self.primes[truth[1]];
            if out.decoded.len() == 2
                && self.primes[out.decoded[0]] * self.primes[out.decoded[1]] == n
            {
                factored += 1;
            }
            if out.decoded == truth {
                exact += 1;
            }
        }
        let units = set.units.max(1) as f64;
        WorkloadScore {
            score: factored as f64 / units,
            metrics: vec![
                ("factored_rate".into(), factored as f64 / units),
                ("exact_index_rate".into(), exact as f64 / units),
            ],
        }
    }
}

/// One cell of the paper's Table II capacity study as a [`Workload`]:
/// every trial draws **fresh random codebooks** and a fresh ground-truth
/// problem (each trial is its own codebook group), measuring operational
/// accuracy at the session's shape and iteration budget.
#[derive(Debug, Clone)]
pub struct CapacitySweep {
    spec: ProblemSpec,
    seed: u64,
    epoch: u64,
}

impl CapacitySweep {
    /// Creates the sweep cell at shape `spec`.
    pub fn new(spec: ProblemSpec, seed: u64) -> Self {
        Self {
            spec,
            seed,
            epoch: 0,
        }
    }
}

impl Workload for CapacitySweep {
    fn name(&self) -> &str {
        "capacity-sweep"
    }

    fn spec(&self) -> ProblemSpec {
        self.spec
    }

    fn generate(&mut self, n: usize) -> WorkloadSet {
        let master = derive_seed(derive_seed(self.seed, ns::CAPACITY), 1 + self.epoch);
        self.epoch += 1;
        let mut groups = Vec::with_capacity(n);
        let items = (0..n)
            .map(|unit| {
                let mut rng = stream_rng(master, unit as u64);
                let books: Vec<Codebook> = (0..self.spec.factors)
                    .map(|_| Codebook::random(self.spec.codebook_size, self.spec.dim, &mut rng))
                    .collect();
                let (query, truth) = FactorizationProblem::draw_query(&books, &mut rng);
                let item = WorkloadItem {
                    group: unit,
                    unit,
                    query,
                    truth: Some(truth),
                };
                groups.push(books);
                item
            })
            .collect();
        WorkloadSet {
            units: n,
            groups,
            items,
        }
    }

    fn score(&mut self, _set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
        let mut score = WorkloadScore::solved_fraction(outcomes);
        let solved: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.solved)
            .map(|o| o.solved_at.unwrap_or(o.iterations))
            .collect();
        if !solved.is_empty() {
            let mean = solved.iter().sum::<usize>() as f64 / solved.len() as f64;
            score.metrics.push(("mean_iterations_solved".into(), mean));
        }
        score
    }
}

/// One cell of a device-fault severity grid: a stuck-at rate and a PCM
/// drift scale, convertible to the [`NoiseSpec`] a session injects into
/// the analog backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityPoint {
    /// Probability that a device is stuck at the high-resistance state.
    pub stuck_at_rate: f64,
    /// Multiplier on the chip-calibrated programming sigma, standing in
    /// for conductance drift (see [`SeverityPoint::pcm_drift_scale`]).
    pub drift_scale: f64,
    /// Fractional conductance-window compression from the nonlinear G–V
    /// write curve (see [`NoiseSpec::write_nonlinearity`]).
    pub write_nonlinearity: f64,
}

impl SeverityPoint {
    /// The drift-induced sigma multiplier after `t` seconds for drift
    /// coefficient `nu`: `1 + nu·ln(1 + t/t0)` with `t0 = 1 s`, the
    /// standard log-time conductance decay of PCM cells (Langenegger et
    /// al.). Feed the result into [`SeverityPoint::drift_scale`].
    pub fn pcm_drift_scale(nu: f64, t_s: f64) -> f64 {
        1.0 + nu * (1.0 + t_s).ln()
    }

    /// The chip-calibrated noise model with this cell's faults applied:
    /// programming sigma scaled by `drift_scale`, stuck-at rate and write
    /// nonlinearity replaced outright.
    pub fn noise(&self) -> NoiseSpec {
        let base = NoiseSpec::chip_40nm();
        NoiseSpec {
            programming_sigma: base.programming_sigma * self.drift_scale,
            stuck_at_rate: self.stuck_at_rate,
            write_nonlinearity: self.write_nonlinearity,
            ..base
        }
    }

    /// This severity cell with a nonlinear write curve compressing the
    /// conductance window by `write_nonlinearity` (in `[0, 1)`).
    pub fn with_write_nonlinearity(mut self, write_nonlinearity: f64) -> Self {
        self.write_nonlinearity = write_nonlinearity;
        self
    }

    /// The full cross product of stuck-at rates and drift scales, in
    /// row-major order (all drift scales for the first rate, then the
    /// next rate), with an ideal linear write curve.
    pub fn grid(stuck_at_rates: &[f64], drift_scales: &[f64]) -> Vec<SeverityPoint> {
        stuck_at_rates
            .iter()
            .flat_map(|&stuck_at_rate| {
                drift_scales.iter().map(move |&drift_scale| SeverityPoint {
                    stuck_at_rate,
                    drift_scale,
                    write_nonlinearity: 0.0,
                })
            })
            .collect()
    }
}

/// One row of a [`RobustnessSweep`] frontier: the severity cell plus the
/// accuracy the backend achieved there.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The fault severity this row measured.
    pub severity: SeverityPoint,
    /// Fraction of problems solved at this severity.
    pub accuracy: f64,
    /// Mean iterations over solved problems (`None` if nothing solved).
    pub mean_iterations_solved: Option<f64>,
}

/// The ROADMAP 4c robustness study as a [`Workload`]: identical problems
/// (same seed, same codebooks) solved under a grid of injected device
/// faults — stuck-at rates and PCM-drift-scaled programming noise — so
/// the accuracy-vs-severity frontier isolates the faults, not codebook
/// luck.
///
/// The workload itself generates the (severity-independent) query
/// stream; [`RobustnessSweep::frontier`] drives one freshly built
/// session per severity cell, all sharing the workload seed.
#[derive(Debug, Clone)]
pub struct RobustnessSweep {
    spec: ProblemSpec,
    seed: u64,
    epoch: u64,
    codebooks: Vec<Codebook>,
}

impl RobustnessSweep {
    /// Creates the sweep at shape `spec`; every severity cell sees the
    /// same codebooks and problem stream drawn from `seed`.
    pub fn new(spec: ProblemSpec, seed: u64) -> Self {
        let mut rng = stream_rng(derive_seed(seed, ns::ROBUSTNESS), 0);
        let codebooks = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        Self {
            spec,
            seed,
            epoch: 0,
            codebooks,
        }
    }

    /// Maps the accuracy-vs-severity frontier for `kind` (one of the
    /// analog backends): one session per severity cell, identical
    /// problems everywhere, `trials` problems per cell.
    pub fn frontier(
        &self,
        kind: crate::session::BackendKind,
        points: &[SeverityPoint],
        trials: usize,
        max_iters: usize,
    ) -> Vec<FrontierPoint> {
        points
            .iter()
            .map(|&severity| {
                // A fresh workload per cell so every cell sees epoch 0:
                // identical queries, only the injected faults differ.
                let mut cell = Self::new(self.spec, self.seed);
                let mut session = crate::session::Session::builder()
                    .spec(self.spec)
                    .backend(kind)
                    .seed(self.seed)
                    .max_iters(max_iters)
                    .noise(severity.noise())
                    .build();
                let report = session.run_workload(&mut cell, trials);
                FrontierPoint {
                    severity,
                    accuracy: report.score,
                    mean_iterations_solved: report.metric("mean_iterations_solved"),
                }
            })
            .collect()
    }
}

impl Workload for RobustnessSweep {
    fn name(&self) -> &str {
        "robustness-sweep"
    }

    fn spec(&self) -> ProblemSpec {
        self.spec
    }

    fn generate(&mut self, n: usize) -> WorkloadSet {
        let master = derive_seed(derive_seed(self.seed, ns::ROBUSTNESS), 1 + self.epoch);
        self.epoch += 1;
        let items = (0..n)
            .map(|i| {
                let mut rng = stream_rng(master, i as u64);
                let (query, truth) = FactorizationProblem::draw_query(&self.codebooks, &mut rng);
                WorkloadItem {
                    group: 0,
                    unit: i,
                    query,
                    truth: Some(truth),
                }
            })
            .collect();
        WorkloadSet {
            units: n,
            groups: vec![self.codebooks.clone()],
            items,
        }
    }

    fn score(&mut self, _set: &WorkloadSet, outcomes: &[FactorizationOutcome]) -> WorkloadScore {
        let mut score = WorkloadScore::solved_fraction(outcomes);
        let solved: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.solved)
            .map(|o| o.solved_at.unwrap_or(o.iterations))
            .collect();
        if !solved.is_empty() {
            let mean = solved.iter().sum::<usize>() as f64 / solved.len() as f64;
            score.metrics.push(("mean_iterations_solved".into(), mean));
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_factorization_generates_fresh_epochs() {
        let spec = ProblemSpec::new(3, 8, 256);
        let mut w = RandomFactorization::new(spec, 7);
        let a = w.generate(4);
        let b = w.generate(4);
        a.validate(spec);
        b.validate(spec);
        assert_eq!(a.items.len(), 4);
        assert!(
            a.items
                .iter()
                .zip(&b.items)
                .any(|(x, y)| x.query != y.query),
            "epochs must differ"
        );
        // Same seed, fresh instance: epoch 0 replays exactly.
        let mut w2 = RandomFactorization::new(spec, 7);
        assert_eq!(w2.generate(4), a);
    }

    #[test]
    fn perception_puzzles_have_sixteen_panels_per_unit() {
        let schema = AttributeSchema::raven();
        let mut w = Perception::puzzles(schema, 256, NeuralFrontend::ideal(1), 11);
        let set = w.generate(3);
        set.validate(w.spec());
        assert_eq!(set.units, 3);
        assert_eq!(set.items.len(), 48);
        assert!(set.items.iter().all(|i| i.truth.is_none()));
        assert_eq!(set.items[17].unit, 1);
    }

    #[test]
    fn perception_score_rejects_a_stale_set() {
        let schema = AttributeSchema::raven();
        let mut w = Perception::attributes(schema, 256, NeuralFrontend::ideal(1), 13);
        let stale = w.generate(2);
        let _fresh = w.generate(2);
        let outcomes: Vec<FactorizationOutcome> = Vec::new();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.score(&stale, &outcomes)));
        assert!(err.is_err(), "scoring a stale set must fail loudly");
    }

    #[test]
    fn capacity_sweep_uses_fresh_books_per_trial() {
        let spec = ProblemSpec::new(2, 8, 256);
        let mut w = CapacitySweep::new(spec, 3);
        let set = w.generate(5);
        set.validate(spec);
        assert_eq!(set.groups.len(), 5);
        assert!(set.groups[0] != set.groups[1], "trials share codebooks");
    }

    #[test]
    fn robustness_grid_and_noise_mapping() {
        let points = SeverityPoint::grid(&[0.0, 0.05], &[1.0, 4.0]);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].stuck_at_rate, 0.0);
        assert_eq!(points[3], {
            SeverityPoint {
                stuck_at_rate: 0.05,
                drift_scale: 4.0,
                write_nonlinearity: 0.0,
            }
        });
        let base = NoiseSpec::chip_40nm();
        let n = points[3].noise();
        assert_eq!(n.stuck_at_rate, 0.05);
        assert!((n.programming_sigma - base.programming_sigma * 4.0).abs() < 1e-12);
        assert_eq!(n.read_sigma, base.read_sigma, "read noise untouched");
        let nl = points[3].with_write_nonlinearity(0.15).noise();
        assert!((nl.write_gain() - 0.85).abs() < 1e-15);
        // Drift scale is 1 at t = 0 and grows with log time.
        assert_eq!(SeverityPoint::pcm_drift_scale(0.05, 0.0), 1.0);
        assert!(
            SeverityPoint::pcm_drift_scale(0.05, 1e4) > SeverityPoint::pcm_drift_scale(0.05, 1.0)
        );
    }

    #[test]
    fn robustness_cells_share_identical_queries() {
        let spec = ProblemSpec::new(2, 8, 256);
        let a = RobustnessSweep::new(spec, 17).generate(4);
        let b = RobustnessSweep::new(spec, 17).generate(4);
        a.validate(spec);
        assert_eq!(a, b, "same seed ⇒ same epoch-0 stream for every cell");
    }

    #[test]
    fn integer_factorization_scores_products_not_indices() {
        let mut w = IntegerFactorization::new(30, 256, 5);
        let set = w.generate(2);
        set.validate(w.spec());
        // Synthetic outcomes: item 0 decodes its exact truth, item 1 a
        // wrong factor pair (different prime product).
        let truth0 = set.items[0].truth.clone().unwrap();
        let t1 = set.items[1].truth.clone().unwrap();
        let wrong1 = vec![(t1[0] + 1) % w.primes().len(), t1[1]];
        let mk = |decoded: Vec<usize>| FactorizationOutcome {
            solved: false,
            iterations: 1,
            solved_at: None,
            converged: true,
            decoded,
            cycle: None,
            revisits: 0,
            degenerate_events: 0,
            correct_at: Vec::new(),
            cosines: Vec::new(),
            times: Default::default(),
        };
        let outcomes = vec![mk(truth0), mk(wrong1)];
        let score = w.score(&set, &outcomes);
        assert_eq!(score.score, 0.5);
        assert_eq!(score.metrics[1], ("exact_index_rate".to_string(), 0.5));
    }
}
