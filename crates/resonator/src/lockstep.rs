//! The lockstep batched resonator: `B` factorization problems sharing one
//! codebook set advance one iteration together.
//!
//! The per-problem loop ([`crate::engine::ResonatorLoop`]) is
//! matrix–*vector* bound: every iteration streams each codebook through
//! the similarity and projection MVMs for one query, so memory bandwidth,
//! not compute, limits throughput. [`BatchedResonator`] turns both MVMs
//! into matrix–matrix products over the whole batch
//! ([`PackedCodebook::similarities_batch_into`] /
//! [`PackedCodebook::weighted_sums_batch_into`]): each codebook tile is
//! loaded once per `B` queries instead of once per query.
//!
//! # Bit-exactness contract
//!
//! A lockstep batch is **bit-identical, per problem, to running each
//! problem alone** through `ResonatorLoop::run` with
//! [`crate::software::SoftwareKernels`] at the same seeds:
//!
//! - every problem owns its loop RNG (degenerate re-draws) and kernel RNG
//!   (similarity noise), seeded exactly as the sequential path seeds them,
//!   and draws from them in the same order;
//! - both paths read similarities through the same [`NoisyReadout`]. Its
//!   skip path writes a tabulated code without the Box–Muller
//!   transcendentals only when the draw provably cannot change it, and
//!   still takes both uniforms of every draw, so the output and the RNG
//!   position are bit-identical to the reference readout;
//! - the batched similarity MVM is value-identical to the per-query
//!   kernel (exact integers);
//! - projection signs are exact: each problem's signs come from the
//!   bit-sliced integer kernel
//!   ([`hdc::PackedCodebook::try_project_signs_into`]) where its
//!   weights are proven to make every `f64` term and partial sum an
//!   exact integer, and from the batched `f64` projection otherwise,
//!   which keeps the per-query kernel's evaluation order. Either way the
//!   signs equal the sequential loop's `f64` sums' signs bit for bit,
//!   zero tie-break included;
//! - per-problem convergence masks retire finished problems (solved,
//!   cycle abort, fixed point, budget) by dropping them from the packed
//!   batch — the remaining problems' columns are untouched, so their
//!   trajectories cannot be perturbed.
//!
//! Only the wall-clock [`PhaseTimes`] differ: batch phase times are
//! attributed evenly across the problems active when they were measured.
//!
//! All iteration scratch (the packed query batch, the `B × M` weight
//! block, the `B × D` sum block) is owned by the batch and reused across
//! iterations. The stepping loop allocates nothing per iteration beyond
//! what the caller asks it to keep: the cycle detector's visited states
//! and, with `record_trajectory`, the per-iteration trajectory.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use crate::convergence::CycleDetector;
use crate::engine::{
    CycleAction, DegeneratePolicy, FactorizationOutcome, LoopConfig, PhaseTimes, UpdateOrder,
};
use crate::readout::NoisyReadout;
use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook, PackedBatch};

/// One problem of a lockstep batch: the query, optional ground truth, and
/// the two seeds the sequential path would have used for it (the kernel
/// RNG that draws similarity noise and the loop RNG that drives
/// degenerate re-draws).
#[derive(Debug, Clone, Copy)]
pub struct LockstepProblem<'a> {
    /// The product vector to factorize.
    pub query: &'a BipolarVector,
    /// Ground-truth indices, when known.
    pub truth: Option<&'a [usize]>,
    /// Seed of the kernel (similarity-noise) RNG.
    pub kernel_seed: u64,
    /// Seed of the loop (degenerate-policy) RNG.
    pub loop_seed: u64,
}

/// Per-problem lockstep state: everything `ResonatorLoop::run` keeps on
/// its stack for one problem, held per batch slot instead.
struct Slot {
    estimates: Vec<BipolarVector>,
    next: Vec<BipolarVector>,
    unbound: BipolarVector,
    /// Post-activation similarity weights (`M`), this factor step.
    weights: Vec<f64>,
    loop_rng: StdRng,
    noise_rng: StdRng,
    detector: CycleDetector,
    outcome: FactorizationOutcome,
    /// Fixed-point flag of the current iteration (set before decode).
    fixed_point: bool,
}

/// The lockstep batched stepper over software resonator kernels: any
/// [`NoisyReadout`] (survival gain, Gaussian similarity noise,
/// rectification, activation — the parameter space of
/// [`crate::software::SoftwareKernels`]) under any loop configuration.
///
/// See the [module docs](self) for the bit-exactness contract.
#[derive(Debug, Clone, Copy)]
pub struct BatchedResonator<'r> {
    config: LoopConfig,
    readout: &'r NoisyReadout,
}

impl<'r> BatchedResonator<'r> {
    /// Creates a stepper with the given loop configuration, reading every
    /// similarity vector through `readout` — the same readout the
    /// sequential kernels apply, so one stepper covers the deterministic
    /// baseline, the stochastic model and fault-attenuated arrays alike.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_iters == 0`.
    pub fn new(config: LoopConfig, readout: &'r NoisyReadout) -> Self {
        assert!(config.max_iters > 0, "need at least one iteration");
        Self { config, readout }
    }

    /// The loop configuration in use.
    pub fn config(&self) -> LoopConfig {
        self.config
    }

    /// Runs every problem of the batch to completion, advancing all still-
    /// active problems one iteration at a time, and returns per-problem
    /// outcomes in input order — bit-identical (up to wall-clock
    /// [`PhaseTimes`]) to solving each problem alone at the same seeds.
    ///
    /// # Panics
    ///
    /// Panics if `codebooks` is empty or shapes disagree with the queries
    /// or truths.
    pub fn run(
        &self,
        codebooks: &[Codebook],
        problems: &[LockstepProblem<'_>],
    ) -> Vec<FactorizationOutcome> {
        if problems.is_empty() {
            return Vec::new();
        }
        assert!(!codebooks.is_empty(), "need at least one codebook");
        let f = codebooks.len();
        let d = codebooks[0].dim();
        let m = codebooks[0].len();
        assert!(
            codebooks.iter().all(|cb| cb.dim() == d && cb.len() == m),
            "codebooks must share shape"
        );
        for p in problems {
            assert_eq!(p.query.dim(), d, "query dimension mismatch");
            if let Some(t) = p.truth {
                assert_eq!(t.len(), f, "truth length != factors");
            }
        }
        let b = problems.len();
        let readout = self.readout;

        // The initial state is identical for every problem: every
        // candidate in superposition. Computed once, cloned per slot.
        let init: Vec<BipolarVector> = codebooks.iter().map(|cb| cb.superposition()).collect();
        let mut slots: Vec<Slot> = problems
            .iter()
            .map(|p| Slot {
                estimates: init.clone(),
                next: init.clone(),
                unbound: BipolarVector::ones(d),
                weights: vec![0.0f64; m],
                loop_rng: rng_from_seed(p.loop_seed),
                noise_rng: rng_from_seed(p.kernel_seed),
                detector: CycleDetector::new(),
                outcome: FactorizationOutcome {
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
                    times: PhaseTimes::default(),
                },
                fixed_point: false,
            })
            .collect();

        // Batch-owned scratch, reused across all iterations.
        let mut batch = PackedBatch::with_capacity(b, d);
        let mut sims = vec![0.0f64; b * m];
        let mut wbuf = vec![0.0f64; b * m];
        let mut sums = vec![0.0f64; b * d];
        let mut sparse = vec![0.0f64; m];
        let mut sparse_sums = vec![0.0f64; d];
        let mut composed = BipolarVector::ones(d);
        // Slot indices still running (ascending), and the subset of the
        // active list taking the batched f64 projection this factor step.
        let mut active: Vec<usize> = (0..b).collect();
        let mut projecting: Vec<usize> = Vec::with_capacity(b);

        for t in 1..=self.config.max_iters {
            if active.is_empty() {
                break;
            }
            let n_active = active.len() as u32;
            for &s in &active {
                slots[s].outcome.iterations = t;
            }
            for fi in 0..f {
                // Unbind per problem (cheap XNOR walks), then pack the
                // active problems' queries for the batched similarity.
                let t0 = Instant::now();
                batch.clear();
                for &s in &active {
                    let slot = &mut slots[s];
                    let Slot {
                        unbound,
                        estimates,
                        next,
                        ..
                    } = slot;
                    unbound.copy_from(problems[s].query);
                    for jf in (0..f).filter(|&jf| jf != fi) {
                        let other = match self.config.update_order {
                            UpdateOrder::Sequential => {
                                if jf < fi {
                                    &next[jf]
                                } else {
                                    &estimates[jf]
                                }
                            }
                            UpdateOrder::Synchronous => &estimates[jf],
                        };
                        unbound.bind_assign(other);
                    }
                    batch.push(&slot.unbound);
                }
                let unbind_t = t0.elapsed() / n_active;

                let t1 = Instant::now();
                codebooks[fi]
                    .packed()
                    .similarities_batch_into(&batch, &mut sims[..active.len() * m]);
                // Per-problem readout in slot order, with noise from the
                // slot's own kernel RNG: the readout `SoftwareKernels`
                // applies.
                projecting.clear();
                for (k, &s) in active.iter().enumerate() {
                    let slot = &mut slots[s];
                    slot.weights.copy_from_slice(&sims[k * m..(k + 1) * m]);
                    readout.apply(&mut slot.weights, &mut slot.noise_rng);
                    projecting.push(s);
                }
                let similarity_t = t1.elapsed() / n_active;

                let t2 = Instant::now();
                // Degenerate (all-zero activation) problems leave the
                // projection set and resolve via their own loop RNG,
                // exactly as the sequential loop does. The rest take the
                // integer sign kernel where it is proven exact and stay
                // in the set for the batched f64 projection otherwise.
                let packed = codebooks[fi].packed();
                projecting.retain(|&s| {
                    let slot = &mut slots[s];
                    if slot.weights.iter().any(|&w| w != 0.0) {
                        return !packed.try_project_signs_into(&slot.weights, &mut slot.next[fi]);
                    }
                    slot.outcome.degenerate_events += 1;
                    match self.config.degenerate {
                        DegeneratePolicy::KeepPrevious => {
                            let Slot {
                                next, estimates, ..
                            } = slot;
                            next[fi].copy_from(&estimates[fi]);
                        }
                        DegeneratePolicy::RandomCandidate => {
                            let r = slot.loop_rng.gen_range(0..m);
                            slot.next[fi].copy_from(codebooks[fi].vector(r));
                        }
                        DegeneratePolicy::RandomSparse { k } => {
                            sparse.fill(0.0);
                            for _ in 0..k.clamp(1, m) {
                                sparse[slot.loop_rng.gen_range(0..m)] = 1.0;
                            }
                            packed.project_signs_into(
                                &sparse,
                                &mut sparse_sums,
                                &mut slot.next[fi],
                            );
                        }
                    }
                    false
                });
                if !projecting.is_empty() {
                    for (p, &s) in projecting.iter().enumerate() {
                        wbuf[p * m..(p + 1) * m].copy_from_slice(&slots[s].weights);
                    }
                    packed.weighted_sums_batch_into(
                        &wbuf[..projecting.len() * m],
                        &mut sums[..projecting.len() * d],
                    );
                    for (p, &s) in projecting.iter().enumerate() {
                        slots[s].next[fi].assign_signs_of_reals(&sums[p * d..(p + 1) * d]);
                    }
                }
                let projection_t = t2.elapsed() / n_active;

                for &s in &active {
                    let times = &mut slots[s].outcome.times;
                    times.unbind += unbind_t;
                    times.similarity += similarity_t;
                    times.projection += projection_t;
                }
            }

            let t3 = Instant::now();
            for &s in &active {
                let slot = &mut slots[s];
                slot.fixed_point = slot.next == slot.estimates;
                std::mem::swap(&mut slot.estimates, &mut slot.next);
            }
            // Decode through the cleanup memory, batched per factor: the
            // batched similarities are the exact dot products, and the
            // arg-max replicates `Codebook::cleanup_abs` (largest |dot|,
            // last index winning ties).
            for (fi, cb) in codebooks.iter().enumerate() {
                batch.clear();
                for &s in &active {
                    batch.push(&slots[s].estimates[fi]);
                }
                cb.packed()
                    .similarities_batch_into(&batch, &mut sims[..active.len() * m]);
                for (k, &s) in active.iter().enumerate() {
                    let dots = &sims[k * m..(k + 1) * m];
                    let mut best_j = 0usize;
                    let mut best_abs = (dots[0] as i64).abs();
                    for (j, &dot) in dots.iter().enumerate().skip(1) {
                        let a = (dot as i64).abs();
                        if a >= best_abs {
                            best_j = j;
                            best_abs = a;
                        }
                    }
                    slots[s].outcome.decoded[fi] = best_j;
                }
            }
            // Retirement sweep, replicating the sequential loop's order:
            // correctness break, then cycle handling, then fixed point.
            active.retain(|&s| {
                let slot = &mut slots[s];
                let correct = match problems[s].truth {
                    Some(tr) => slot.outcome.decoded == tr,
                    None => {
                        composed.copy_from(codebooks[0].vector(slot.outcome.decoded[0]));
                        for (cb, &i) in codebooks.iter().zip(&slot.outcome.decoded).skip(1) {
                            composed.bind_assign(cb.vector(i));
                        }
                        composed.cosine(problems[s].query).abs() >= self.config.accept_threshold
                    }
                };
                if self.config.record_trajectory {
                    slot.outcome.correct_at.push(correct);
                    if let Some(tr) = problems[s].truth {
                        slot.outcome.cosines.push(
                            (0..f)
                                .map(|fi| slot.estimates[fi].cosine(codebooks[fi].vector(tr[fi])))
                                .collect(),
                        );
                    }
                }
                if correct {
                    slot.outcome.solved = true;
                    slot.outcome.solved_at = Some(t);
                    return false;
                }
                match self.config.cycle_action {
                    CycleAction::Ignore => {}
                    CycleAction::Abort | CycleAction::Record => {
                        if let Some(info) = slot.detector.observe(&slot.estimates, t) {
                            if slot.outcome.cycle.is_none() {
                                slot.outcome.cycle = Some(info);
                            }
                            if self.config.cycle_action == CycleAction::Abort {
                                return false;
                            }
                        }
                    }
                }
                if slot.fixed_point && self.config.stop_on_fixed_point {
                    slot.outcome.converged = true;
                    return false;
                }
                true
            });
            let other_t = t3.elapsed() / n_active;
            for slot in slots.iter_mut().filter(|slot| slot.outcome.iterations == t) {
                slot.outcome.times.other += other_t;
            }
        }

        slots
            .into_iter()
            .map(|slot| {
                let mut outcome = slot.outcome;
                outcome.revisits = slot.detector.revisits();
                if outcome.solved {
                    outcome.converged = true;
                }
                outcome
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::engine::{Factorizer, ResonatorLoop};
    use crate::software::SoftwareKernels;
    use crate::{BaselineResonator, StochasticResonator};
    use hdc::rng::derive_seed;
    use hdc::{FactorizationProblem, ProblemSpec};

    fn problems(
        n: usize,
        spec: ProblemSpec,
        seed: u64,
    ) -> (Vec<Codebook>, Vec<FactorizationProblem>) {
        let mut rng = rng_from_seed(seed);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let probs = (0..n)
            .map(|_| FactorizationProblem::with_codebooks(&books, &mut rng))
            .collect();
        (books, probs)
    }

    /// Strips the wall-clock profile before exact comparison.
    fn functional(outcome: &FactorizationOutcome) -> FactorizationOutcome {
        let mut o = outcome.clone();
        o.times = PhaseTimes::default();
        o
    }

    /// Solves `n` problems at `spec` in one lockstep batch under the
    /// paper-default stochastic readout and checks each against its solo
    /// `ResonatorLoop` run (whose projection is the per-query f64 sum).
    fn assert_lockstep_matches_solo(spec: ProblemSpec, seed: u64) {
        let (books, probs) = problems(6, spec, seed);
        let config = LoopConfig::stochastic(300);
        let sigma = 0.139 * (spec.dim as f64).sqrt();
        let act = Activation::noise_referenced(4, spec.dim, 3.0);

        let items: Vec<LockstepProblem<'_>> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| LockstepProblem {
                query: p.product(),
                truth: Some(p.true_indices()),
                kernel_seed: derive_seed(77, i as u64),
                loop_seed: derive_seed(derive_seed(77, i as u64), 0xD15C),
            })
            .collect();
        let readout = NoisyReadout::new(spec.dim, sigma, true, act, 1.0);
        let batched = BatchedResonator::new(config, &readout).run(&books, &items);

        for (i, p) in probs.iter().enumerate() {
            let run_seed = derive_seed(77, i as u64);
            let mut kernels = SoftwareKernels::new(&books, sigma, true, act, run_seed);
            let solo = ResonatorLoop::new(config).run(
                &mut kernels,
                &books,
                p.product(),
                Some(p.true_indices()),
                derive_seed(run_seed, 0xD15C),
            );
            assert_eq!(
                functional(&batched[i]),
                functional(&solo),
                "D={} problem {i} diverged from its solo run",
                spec.dim
            );
        }
    }

    #[test]
    fn lockstep_matches_sequential_loop_bit_for_bit() {
        assert_lockstep_matches_solo(ProblemSpec::new(3, 8, 256), 900);
    }

    #[test]
    fn lockstep_matches_sequential_loop_off_the_golden_shape() {
        // D = 100: a ragged last word; the step 3·√100 = 30 is an integer,
        // so projections take the integer sign path with tail masking.
        // D = 200: the step 3·√200 is not an integer, so every projection
        // takes the f64 fallback.
        for (dim, exact) in [(100usize, true), (200, false)] {
            let act = Activation::noise_referenced(4, dim, 3.0);
            let step = act.step().expect("quantized");
            assert_eq!(step.fract() == 0.0, exact, "D={dim} step {step}");
            let mut rng = rng_from_seed(dim as u64);
            let book = Codebook::random(8, dim, &mut rng);
            let mut out = BipolarVector::ones(dim);
            let weights = [step, 0.0, -3.0 * step, 0.0, 0.0, 7.0 * step, 0.0, 0.0];
            assert_eq!(
                book.packed().try_project_signs_into(&weights, &mut out),
                exact
            );
            assert_lockstep_matches_solo(ProblemSpec::new(3, 8, dim), 900 + dim as u64);
        }
    }

    #[test]
    fn engine_lockstep_matches_sequential_calls() {
        let spec = ProblemSpec::new(2, 8, 256);
        let (books, probs) = problems(5, spec, 901);
        let makes: [fn() -> Box<dyn LockstepEngine>; 2] = [
            || Box::new(BaselineResonator::new(200, 5)),
            || {
                Box::new(StochasticResonator::paper_default(
                    ProblemSpec::new(2, 8, 256),
                    200,
                    5,
                ))
            },
        ];
        for make in makes {
            let mut seq = make();
            let expected: Vec<FactorizationOutcome> = probs
                .iter()
                .map(|p| seq.solve_one(&books, p.product(), Some(p.true_indices())))
                .collect();
            let mut batched = make();
            let queries: Vec<(&BipolarVector, Option<&[usize]>)> = probs
                .iter()
                .map(|p| (p.product(), Some(p.true_indices())))
                .collect();
            let got = batched.solve_lockstep(&books, &queries);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(functional(g), functional(e));
            }
        }
    }

    /// Object-safe shim so the test drives both engines uniformly.
    trait LockstepEngine {
        fn solve_one(
            &mut self,
            books: &[Codebook],
            q: &BipolarVector,
            t: Option<&[usize]>,
        ) -> FactorizationOutcome;
        fn solve_lockstep(
            &mut self,
            books: &[Codebook],
            queries: &[(&BipolarVector, Option<&[usize]>)],
        ) -> Vec<FactorizationOutcome>;
    }

    impl LockstepEngine for BaselineResonator {
        fn solve_one(
            &mut self,
            books: &[Codebook],
            q: &BipolarVector,
            t: Option<&[usize]>,
        ) -> FactorizationOutcome {
            self.factorize_query(books, q, t)
        }
        fn solve_lockstep(
            &mut self,
            books: &[Codebook],
            queries: &[(&BipolarVector, Option<&[usize]>)],
        ) -> Vec<FactorizationOutcome> {
            self.factorize_lockstep(books, queries)
        }
    }

    impl LockstepEngine for StochasticResonator {
        fn solve_one(
            &mut self,
            books: &[Codebook],
            q: &BipolarVector,
            t: Option<&[usize]>,
        ) -> FactorizationOutcome {
            self.factorize_query(books, q, t)
        }
        fn solve_lockstep(
            &mut self,
            books: &[Codebook],
            queries: &[(&BipolarVector, Option<&[usize]>)],
        ) -> Vec<FactorizationOutcome> {
            self.factorize_lockstep(books, queries)
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (books, _) = problems(1, ProblemSpec::new(2, 4, 128), 903);
        let readout = NoisyReadout::new(128, 0.0, false, Activation::Identity, 1.0);
        let out = BatchedResonator::new(LoopConfig::baseline(10), &readout).run(&books, &[]);
        assert!(out.is_empty());
    }
}
