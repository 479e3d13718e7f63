//! The shared resonator iteration, generic over hardware kernels.
//!
//! [`ResonatorLoop`] implements the paper's state-space dynamics once; what
//! varies between the *baseline*, the *software stochastic model*, and the
//! *simulated H3DFact hardware* is only how the three computational kernels
//! (unbind, similarity, projection) are realized — abstracted by
//! [`ResonatorKernels`] and implemented in `software.rs` (this crate) and in
//! `h3dfact-core::accelerator` (crossbars + ADCs).

use std::time::{Duration, Instant};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::convergence::{CycleDetector, CycleInfo};
use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook, FactorizationProblem};

/// The three factorization kernels, realized in software or on simulated
/// hardware.
///
/// # Scratch-buffer contract
///
/// Every kernel writes into caller-provided output storage and must not
/// allocate per call. [`ResonatorLoop::run`] owns all iteration scratch —
/// the unbind target, the `M`-length weight buffer, the `D`-length sum
/// buffer, and the double-buffered estimates — and reuses it across all
/// iterations of a run. Kernel implementations may keep *internal* scratch
/// for intermediate stages (e.g. pre-ADC currents), sized once at
/// construction; they must never retain references to the buffers passed
/// in.
pub trait ResonatorKernels {
    /// Hypervector dimension `D`.
    fn dim(&self) -> usize;
    /// Number of factors `F`.
    fn factors(&self) -> usize;
    /// Codebook size `M`.
    fn codebook_size(&self) -> usize;

    /// Unbinding `q_f = s ⊙ ⊙_{j≠f} x̂_j` (tier-1 XNOR in H3DFact), written
    /// into `out` (dimension `D`).
    fn unbind_into(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    );

    /// Similarity + activation: writes the `M` projection weights
    /// `g(X_fᵀ q + noise)` into `out` (tier-3 RRAM MVM + tier-1 ADC in
    /// H3DFact).
    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]);

    /// Projection `X_f · w` (tier-2 RRAM MVM in H3DFact), written into
    /// `out` (length `D`) as a readout whose signs are the projection's:
    /// the loop keeps only the signs. Analog kernels return sign-exact,
    /// not value-exact, sums (the crossbar's sign-exact read,
    /// `cim::crossbar::Crossbar::try_mvm_weighted_signs_into`).
    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]);

    /// Hook called at the start of every run (reset per-run hardware state;
    /// cumulative counters may persist).
    fn begin_run(&mut self) {}

    /// Hook called once at the end of every iteration, after all factors
    /// have been updated — the place to step hardware state that co-evolves
    /// with the resonator (e.g. thermal coupling in the approximate tiled
    /// target). Default: no-op.
    fn end_iteration(&mut self) {}
}

/// What to do when the activation zeroes every similarity weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegeneratePolicy {
    /// Keep the previous estimate (deterministic engines).
    #[default]
    KeepPrevious,
    /// Re-draw the estimate as one uniformly random codevector — the
    /// minimal stochastic exploration kick.
    RandomCandidate,
    /// Project a random sparse superposition of `k` candidates — the
    /// search-in-superposition exploration of the in-memory factorizer
    /// [15]: when nothing crosses the readout threshold, device noise
    /// effectively activates a few random columns.
    RandomSparse {
        /// Number of randomly activated candidates.
        k: usize,
    },
}

/// Estimate update schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UpdateOrder {
    /// In-place (asynchronous) updates: factor `f` sees the already-updated
    /// estimates of factors `< f`. Converges faster and is the schedule the
    /// resonator literature recommends; H3DFact's tier pipeline also
    /// processes factors one after another.
    #[default]
    Sequential,
    /// Jacobi-style updates from the previous iteration's estimates only.
    Synchronous,
}

/// What to do when a state recurrence (limit cycle) is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CycleAction {
    /// Stop immediately: a deterministic trajectory can never leave the
    /// cycle (large speed-up for failure cases in capacity sweeps).
    Abort,
    /// Keep iterating but count revisits (stochastic engines escape).
    #[default]
    Record,
    /// Disable detection entirely (saves the hashing cost).
    Ignore,
}

/// Configuration of the iteration loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopConfig {
    /// Iteration budget.
    pub max_iters: usize,
    /// Degenerate-activation policy.
    pub degenerate: DegeneratePolicy,
    /// Limit-cycle handling.
    pub cycle_action: CycleAction,
    /// Estimate update schedule.
    pub update_order: UpdateOrder,
    /// Stop when the joint state reaches a fixed point (only meaningful for
    /// deterministic kernels).
    pub stop_on_fixed_point: bool,
    /// Record per-iteration correctness/cosine traces in the outcome.
    pub record_trajectory: bool,
    /// Minimum cosine between the re-composed decoded product and the query
    /// for declaring success when no ground truth is supplied.
    pub accept_threshold: f64,
}

impl LoopConfig {
    /// Deterministic-baseline defaults (early abort on cycles and fixed
    /// points).
    pub fn baseline(max_iters: usize) -> Self {
        Self {
            max_iters,
            degenerate: DegeneratePolicy::KeepPrevious,
            cycle_action: CycleAction::Abort,
            update_order: UpdateOrder::Sequential,
            stop_on_fixed_point: true,
            record_trajectory: false,
            accept_threshold: 0.5,
        }
    }

    /// Stochastic-engine defaults (run the full budget, record revisits).
    pub fn stochastic(max_iters: usize) -> Self {
        Self {
            max_iters,
            degenerate: DegeneratePolicy::RandomSparse { k: 3 },
            cycle_action: CycleAction::Record,
            update_order: UpdateOrder::Sequential,
            stop_on_fixed_point: false,
            record_trajectory: false,
            accept_threshold: 0.5,
        }
    }
}

/// Wall-clock time spent in each kernel of a run (Fig. 1c's profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Unbinding (XNOR) time.
    pub unbind: Duration,
    /// Similarity-MVM (+ activation) time.
    pub similarity: Duration,
    /// Projection-MVM (+ sign) time.
    pub projection: Duration,
    /// Everything else: decode, bookkeeping, cycle detection.
    pub other: Duration,
}

impl PhaseTimes {
    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.unbind + self.similarity + self.projection + self.other
    }

    /// Fraction of total time spent in the two MVM phases.
    pub fn mvm_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        (self.similarity + self.projection).as_secs_f64() / t
    }
}

/// Result of one factorization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorizationOutcome {
    /// Whether the decoded factors were accepted as the solution.
    pub solved: bool,
    /// Iterations actually executed.
    pub iterations: usize,
    /// First iteration (1-based) at which the decode was correct.
    pub solved_at: Option<usize>,
    /// Whether a fixed point was reached.
    pub converged: bool,
    /// Final decoded item index per factor.
    pub decoded: Vec<usize>,
    /// First detected limit cycle, if any.
    pub cycle: Option<CycleInfo>,
    /// Number of state revisits observed.
    pub revisits: usize,
    /// Number of degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Per-iteration decode-correct flags (only with ground truth and
    /// `record_trajectory`).
    pub correct_at: Vec<bool>,
    /// Per-iteration, per-factor cosine of the estimate to the true factor
    /// (only with ground truth and `record_trajectory`).
    pub cosines: Vec<Vec<f64>>,
    /// Kernel wall-time profile of the run.
    pub times: PhaseTimes,
}

/// Kernel-level interface implemented by every factorization engine in
/// the workspace (software baseline, software stochastic, simulated
/// hardware). The facade crate's `Backend` trait extends it with naming,
/// capability discovery, batching, and uniform run reporting.
pub trait Factorizer {
    /// Factorizes a complete problem (codebooks + clean product + truth).
    fn factorize(&mut self, problem: &FactorizationProblem) -> FactorizationOutcome {
        self.factorize_query(
            problem.codebooks(),
            problem.product(),
            Some(problem.true_indices()),
        )
    }

    /// Factorizes an arbitrary (possibly noisy) query over the given
    /// codebooks; `truth` enables exact accuracy accounting when known.
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome;
}

/// The shared synchronous-update iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResonatorLoop {
    config: LoopConfig,
}

impl ResonatorLoop {
    /// Creates a loop with the given configuration.
    pub fn new(config: LoopConfig) -> Self {
        assert!(config.max_iters > 0, "need at least one iteration");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> LoopConfig {
        self.config
    }

    /// Runs the factorization to completion.
    ///
    /// `loop_seed` drives loop-level randomness (degenerate re-draws);
    /// kernel-level stochasticity is owned by the kernels.
    ///
    /// # Panics
    ///
    /// Panics if codebook shapes disagree with the kernels or the query
    /// dimension is wrong.
    pub fn run<K: ResonatorKernels>(
        &self,
        kernels: &mut K,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
        loop_seed: u64,
    ) -> FactorizationOutcome {
        let f = kernels.factors();
        assert_eq!(codebooks.len(), f, "codebook count != kernel factors");
        assert_eq!(query.dim(), kernels.dim(), "query dimension mismatch");
        if let Some(t) = truth {
            assert_eq!(t.len(), f, "truth length != factors");
        }
        let mut rng = rng_from_seed(loop_seed);
        kernels.begin_run();

        // Initial estimates: every candidate in superposition. The loop is
        // double-buffered — `estimates` holds the state entering an
        // iteration, `next` receives the updated factors, and the two swap
        // at the iteration boundary — so no per-iteration clone exists.
        let mut estimates: Vec<BipolarVector> =
            codebooks.iter().map(|cb| cb.superposition()).collect();
        let mut next: Vec<BipolarVector> = estimates.clone();

        // Scratch owned by the loop and reused across every iteration (the
        // kernels write into these; see the trait's scratch contract).
        let d = kernels.dim();
        let m = kernels.codebook_size();
        let mut unbound = BipolarVector::ones(d);
        let mut weights = vec![0.0f64; m];
        let mut sums = vec![0.0f64; d];
        let mut sparse = vec![0.0f64; m];
        let mut composed = BipolarVector::ones(d);
        // Storage for the per-factor list of the other estimates. It holds
        // no references between factors (see `recycle`), so the estimates
        // stay free to update.
        let mut others_store: Vec<&BipolarVector> = Vec::with_capacity(f);

        let mut detector = CycleDetector::new();
        let mut times = PhaseTimes::default();
        let mut outcome = FactorizationOutcome {
            solved: false,
            iterations: 0,
            solved_at: None,
            converged: false,
            decoded: vec![0; f],
            cycle: None,
            revisits: 0,
            degenerate_events: 0,
            correct_at: Vec::new(),
            cosines: Vec::new(),
            times,
        };

        for t in 1..=self.config.max_iters {
            outcome.iterations = t;
            for fi in 0..f {
                let t0 = Instant::now();
                // Sequential order reads the freshest estimates (already
                // written into `next` for factors < fi), synchronous order
                // reads only the previous iteration's state.
                let mut others = recycle(std::mem::take(&mut others_store));
                others.extend((0..f).filter(|&j| j != fi).map(
                    |j| match self.config.update_order {
                        UpdateOrder::Sequential if j < fi => &next[j],
                        UpdateOrder::Sequential | UpdateOrder::Synchronous => &estimates[j],
                    },
                ));
                kernels.unbind_into(query, &others, &mut unbound);
                others_store = recycle(others);
                times.unbind += t0.elapsed();

                let t1 = Instant::now();
                kernels.similarity_weights_into(fi, &unbound, &mut weights);
                times.similarity += t1.elapsed();

                let all_zero = weights.iter().all(|&w| w == 0.0);
                if all_zero {
                    outcome.degenerate_events += 1;
                    match self.config.degenerate {
                        DegeneratePolicy::KeepPrevious => next[fi].copy_from(&estimates[fi]),
                        DegeneratePolicy::RandomCandidate => {
                            let r = rng.gen_range(0..m);
                            next[fi].copy_from(codebooks[fi].vector(r));
                        }
                        DegeneratePolicy::RandomSparse { k } => {
                            sparse.fill(0.0);
                            for _ in 0..k.clamp(1, m) {
                                sparse[rng.gen_range(0..m)] = 1.0;
                            }
                            let t2 = Instant::now();
                            kernels.project_into(fi, &sparse, &mut sums);
                            next[fi].assign_signs_of_reals(&sums);
                            times.projection += t2.elapsed();
                        }
                    }
                    continue;
                }

                let t2 = Instant::now();
                kernels.project_into(fi, &weights, &mut sums);
                next[fi].assign_signs_of_reals(&sums);
                times.projection += t2.elapsed();
            }
            kernels.end_iteration();

            let t3 = Instant::now();
            let fixed_point = next == estimates;
            std::mem::swap(&mut estimates, &mut next);

            // Decode current estimates through a clean cleanup memory,
            // by absolute similarity (sign-flip symmetry; see
            // `Codebook::cleanup_abs`).
            for (fi, cb) in codebooks.iter().enumerate() {
                outcome.decoded[fi] = cb.cleanup_abs(&estimates[fi]).index;
            }
            let correct = match truth {
                Some(tr) => outcome.decoded == tr,
                None => {
                    composed.copy_from(codebooks[0].vector(outcome.decoded[0]));
                    for (cb, &i) in codebooks.iter().zip(&outcome.decoded).skip(1) {
                        composed.bind_assign(cb.vector(i));
                    }
                    composed.cosine(query).abs() >= self.config.accept_threshold
                }
            };
            if self.config.record_trajectory {
                outcome.correct_at.push(correct);
                if let Some(tr) = truth {
                    outcome.cosines.push(
                        (0..f)
                            .map(|fi| estimates[fi].cosine(codebooks[fi].vector(tr[fi])))
                            .collect(),
                    );
                }
            }
            if correct {
                outcome.solved = true;
                outcome.solved_at = Some(t);
                times.other += t3.elapsed();
                break;
            }

            match self.config.cycle_action {
                CycleAction::Ignore => {}
                CycleAction::Abort | CycleAction::Record => {
                    if let Some(info) = detector.observe(&estimates, t) {
                        if outcome.cycle.is_none() {
                            outcome.cycle = Some(info);
                        }
                        if self.config.cycle_action == CycleAction::Abort {
                            times.other += t3.elapsed();
                            break;
                        }
                    }
                }
            }

            if fixed_point && self.config.stop_on_fixed_point {
                outcome.converged = true;
                times.other += t3.elapsed();
                break;
            }
            times.other += t3.elapsed();
        }

        outcome.revisits = detector.revisits();
        if outcome.solved {
            outcome.converged = true;
        }
        outcome.times = times;
        outcome
    }
}

/// Empties `v` and hands its allocation back under a fresh borrow
/// lifetime. The standard library collects a `vec::IntoIter` mapped to a
/// same-layout element in place, reusing the source buffer, so this does
/// not allocate (`tests/alloc_free.rs` pins that).
fn recycle<'b>(mut v: Vec<&BipolarVector>) -> Vec<&'b BipolarVector> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_fractions() {
        let t = PhaseTimes {
            unbind: Duration::from_millis(10),
            similarity: Duration::from_millis(40),
            projection: Duration::from_millis(40),
            other: Duration::from_millis(10),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        assert!((t.mvm_fraction() - 0.8).abs() < 1e-9);
        assert_eq!(PhaseTimes::default().mvm_fraction(), 0.0);
    }

    #[test]
    fn config_presets_differ() {
        let b = LoopConfig::baseline(100);
        let s = LoopConfig::stochastic(100);
        assert_eq!(b.cycle_action, CycleAction::Abort);
        assert_eq!(s.cycle_action, CycleAction::Record);
        assert!(b.stop_on_fixed_point);
        assert!(!s.stop_on_fixed_point);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iters_rejected() {
        let _ = ResonatorLoop::new(LoopConfig::baseline(0));
    }
}
