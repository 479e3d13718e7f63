//! Property-based tests for the resonator loop invariants.

use hdc::rng::{derive_seed, rng_from_seed};
use hdc::{FactorizationProblem, ProblemSpec};
use proptest::prelude::*;
use rand::RngCore;
use resonator::engine::{Factorizer, ResonatorLoop, UpdateOrder};
use resonator::{
    Activation, BaselineResonator, BatchedResonator, LockstepProblem, LoopConfig, NoisyReadout,
    SoftwareKernels, StochasticResonator,
};

fn arb_spec() -> impl Strategy<Value = ProblemSpec> {
    (
        2usize..=4,
        2usize..=10,
        prop_oneof![Just(128usize), Just(256)],
    )
        .prop_map(|(f, m, d)| ProblemSpec::new(f, m, d))
}

/// Replays scripted raw words as an RNG, so a test can place a
/// Box–Muller draw's uniforms exactly where it wants them.
struct Scripted(std::vec::IntoIter<u64>);

impl RngCore for Scripted {
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("script exhausted")
    }
}

/// The raw word whose uniform draw `gen::<f64>()` is `u` (snapped to the
/// draw's `2^-53` grid, clamped into `[0, 1)`).
fn word_for_uniform(u: f64) -> u64 {
    let top = (1u64 << 53) - 1;
    ((u * (1u64 << 53) as f64).round().clamp(0.0, top as f64) as u64) << 11
}

/// Pre-gain similarities `s` within ±3 of every code boundary `±(k + ½)·step`
/// after the survival gain, plus both ends of the range and just past
/// them.
fn boundary_similarities(dim: usize, step: f64, max_code: f64, survival: f64) -> Vec<i64> {
    let d = dim as i64;
    let mut out = vec![-d - 1, -d, d, d + 1];
    for k in 0..max_code as i64 {
        let b = ((k as f64 + 0.5) * step / survival).round() as i64;
        for c in [b, -b] {
            out.extend((c - 3..=c + 3).filter(|s| s.abs() <= d + 1));
        }
    }
    out
}

proptest! {
    // Cheap cases (no resonator runs), so many of them: the skip path's
    // rounding margin only shows on scripted draws at the threshold.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn noisy_readout_matches_reference_bits(
        dim in prop_oneof![Just(64usize), Just(100), Just(256), Just(1024)],
        bits in 2u8..=8,
        lsb in prop_oneof![Just(0.5f64), Just(1.0), Just(2.0), 0.5f64..4.0],
        // σ in LSBs: tiny (every draw skips), the window where draws
        // sit near the boundaries, wide, and one where nothing skips.
        sigma_lsbs in prop_oneof![1e-4f64..1e-1, 0.05f64..1.0, 1.0f64..100.0, Just(1e12)],
        survival in prop_oneof![Just(1.0f64), 0.5f64..1.0],
        seed in 0u64..1000,
    ) {
        let act = Activation::noise_referenced(bits, dim, lsb);
        let (step, max_code) = (act.step().unwrap(), act.max_code().unwrap());
        let sigma = sigma_lsbs * step;
        let readout = NoisyReadout::new(dim, sigma, true, act, survival);
        let sims = boundary_similarities(dim, step, max_code, survival);

        // Random streams: every similarity read several times over, plus
        // values that are not exact integers.
        let mut input: Vec<f64> = sims.iter().map(|&s| s as f64).collect();
        input.extend([0.5, -0.0, 1e300, -1e300, -7.25, f64::NAN]);
        let (mut fast_rng, mut ref_rng) = (rng_from_seed(seed), rng_from_seed(seed));
        for pass in 0..4 {
            let (mut fast, mut reference) = (input.clone(), input.clone());
            readout.apply(&mut fast, &mut fast_rng);
            readout.apply_reference(&mut reference, &mut ref_rng);
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                prop_assert_eq!(f.to_bits(), r.to_bits(), "pass {} input {}", pass, input[i]);
            }
        }
        prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "draws consumed differ");

        // Scripted draws on the skip threshold of each similarity: u1 a
        // few grid steps either side of the u1 at which the largest draw
        // exactly reaches the nearest boundary, with cos(2π·u2) = ±1.
        for &s in &sims {
            let a = if survival != 1.0 { s as f64 * survival } else { s as f64 };
            let nearest = (0..max_code as i64)
                .map(|k| ((k as f64 + 0.5) * step - a).abs())
                .fold(f64::INFINITY, f64::min);
            let t = (-0.5 * (nearest / sigma).powi(2)).exp();
            for j in -2i32..=2 {
                for u2 in [0.0, 0.5] {
                    let u1_word = word_for_uniform(1.0 - t) as i64 + (j as i64) * (1 << 11);
                    let words = vec![u1_word.max(0) as u64, word_for_uniform(u2)];
                    let (mut fast, mut reference) = ([s as f64], [s as f64]);
                    readout.apply(&mut fast, &mut Scripted(words.clone().into_iter()));
                    readout.apply_reference(&mut reference, &mut Scripted(words.into_iter()));
                    prop_assert_eq!(
                        fast[0].to_bits(),
                        reference[0].to_bits(),
                        "s {} u1 step {} u2 {}", s, j, u2
                    );
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outcome_invariants_hold(spec in arb_spec(), seed in 0u64..500) {
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let mut eng = StochasticResonator::paper_default(spec, 300, seed);
        let out = eng.factorize(&p);
        // Iterations within budget.
        prop_assert!(out.iterations >= 1 && out.iterations <= 300);
        // Decoded indices are valid.
        prop_assert!(out.decoded.iter().all(|&i| i < spec.codebook_size));
        prop_assert_eq!(out.decoded.len(), spec.factors);
        // solved ⟺ decoded equals truth (the engine was given the truth).
        prop_assert_eq!(out.solved, out.decoded == p.true_indices());
        // solved_at consistent with solved.
        match out.solved_at {
            Some(t) => {
                prop_assert!(out.solved);
                prop_assert_eq!(t, out.iterations);
            }
            None => prop_assert!(!out.solved),
        }
    }

    #[test]
    fn baseline_is_pure(spec in arb_spec(), seed in 0u64..200) {
        // Two fresh baselines on the same problem produce identical runs
        // (wall-clock phase timings excluded — they are measurements, not
        // state).
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let a = BaselineResonator::new(200, seed).factorize(&p);
        let b = BaselineResonator::new(200, seed).factorize(&p);
        prop_assert_eq!(a.solved, b.solved);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.solved_at, b.solved_at);
        prop_assert_eq!(a.decoded, b.decoded);
        prop_assert_eq!(a.cycle, b.cycle);
        prop_assert_eq!(a.revisits, b.revisits);
        prop_assert_eq!(a.degenerate_events, b.degenerate_events);
    }

    #[test]
    fn trajectory_lengths_match(spec in arb_spec(), seed in 0u64..200) {
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let mut cfg = LoopConfig::stochastic(100);
        cfg.record_trajectory = true;
        let mut eng = StochasticResonator::with_parts(
            cfg,
            StochasticResonator::CHIP_CELL_SIGMA * (spec.dim as f64).sqrt(),
            Activation::noise_referenced(4, spec.dim, 3.0),
            seed,
        );
        let out = eng.factorize(&p);
        prop_assert_eq!(out.correct_at.len(), out.iterations);
        prop_assert_eq!(out.cosines.len(), out.iterations);
        for cs in &out.cosines {
            prop_assert_eq!(cs.len(), spec.factors);
            prop_assert!(cs.iter().all(|c| (-1.0..=1.0).contains(c)));
        }
        // The final trace entry agrees with the outcome.
        if let Some(&last) = out.correct_at.last() {
            prop_assert_eq!(last, out.solved);
        }
    }

    #[test]
    fn update_orders_both_solve_small(seed in 0u64..100) {
        let spec = ProblemSpec::new(2, 4, 256);
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        for order in [UpdateOrder::Sequential, UpdateOrder::Synchronous] {
            let mut cfg = LoopConfig::baseline(200);
            cfg.update_order = order;
            let out = BaselineResonator::with_config(cfg, seed).factorize(&p);
            prop_assert!(out.solved, "{order:?} failed a trivial problem");
        }
    }

    #[test]
    fn noiseless_identity_never_degenerates(seed in 0u64..100) {
        // With the identity activation the weight vector is all-zero only
        // if every similarity is exactly zero — measure-zero for random
        // codebooks of odd dot-parity dimension... use D odd-multiple to
        // be safe and assert no degenerate events occur.
        let spec = ProblemSpec::new(3, 6, 129);
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let out = BaselineResonator::new(100, seed).factorize(&p);
        prop_assert_eq!(out.degenerate_events, 0);
    }

    #[test]
    fn lockstep_batch_is_bit_identical_to_sequential_engine(
        spec in arb_spec(),
        n in 1usize..=6,
        budget in prop_oneof![Just(40usize), Just(300)],
        seed in 0u64..200,
    ) {
        // A lockstep batch must reproduce, per problem, exactly what the
        // sequential engine produces for the same run cursors — including
        // batches where easy problems retire mid-flight (the small budget
        // forces a mix of solved, cycling, and budget-exhausted slots)
        // and for both the deterministic baseline (cycle-abort,
        // fixed-point retirement) and the stochastic engine (noise
        // streams, degenerate re-draws).
        let mut rng = rng_from_seed(seed);
        let books: Vec<_> = (0..spec.factors)
            .map(|_| hdc::Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let problems: Vec<FactorizationProblem> = (0..n)
            .map(|_| FactorizationProblem::with_codebooks(&books, &mut rng))
            .collect();
        let queries: Vec<(&hdc::BipolarVector, Option<&[usize]>)> = problems
            .iter()
            .map(|p| (p.product(), Some(p.true_indices())))
            .collect();

        let strip = |mut o: resonator::FactorizationOutcome| {
            o.times = Default::default();
            o
        };

        // Baseline engine.
        let mut seq = BaselineResonator::new(budget, seed);
        let expected: Vec<_> = problems
            .iter()
            .map(|p| strip(seq.factorize_query(&books, p.product(), Some(p.true_indices()))))
            .collect();
        let mut locked = BaselineResonator::new(budget, seed);
        let got = locked.factorize_lockstep(&books, &queries);
        prop_assert_eq!(seq.run_cursor(), locked.run_cursor());
        for (i, (g, e)) in got.into_iter().zip(&expected).enumerate() {
            prop_assert_eq!(strip(g), e.clone(), "baseline problem {} diverged", i);
        }

        // Stochastic engine (per-problem noise + loop RNG streams).
        let mut seq = StochasticResonator::paper_default(spec, budget, seed);
        let expected: Vec<_> = problems
            .iter()
            .map(|p| strip(seq.factorize_query(&books, p.product(), Some(p.true_indices()))))
            .collect();
        let mut locked = StochasticResonator::paper_default(spec, budget, seed);
        let got = locked.factorize_lockstep(&books, &queries);
        prop_assert_eq!(seq.run_cursor(), locked.run_cursor());
        for (i, (g, e)) in got.into_iter().zip(&expected).enumerate() {
            prop_assert_eq!(strip(g), e.clone(), "stochastic problem {} diverged", i);
        }

        // Fault-attenuated readout (survival < 1, the PCM comparator with
        // stuck-at cells and write-window compression): the stepper reads
        // through the caller's readout, gain included, so it must match
        // the sequential kernels carrying the same survival.
        let survival = (1.0 - 0.2) * 0.9;
        let sigma = StochasticResonator::CHIP_CELL_SIGMA * (spec.dim as f64).sqrt();
        let act = Activation::noise_referenced(4, spec.dim, 3.0);
        let config = LoopConfig::stochastic(budget);
        let run_seed = |i: usize| derive_seed(seed, i as u64);
        let loop_seed = |i: usize| derive_seed(run_seed(i), 0x9C31);
        let expected: Vec<_> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut kernels = SoftwareKernels::new(&books, sigma, true, act, run_seed(i))
                    .with_survival(survival);
                strip(ResonatorLoop::new(config).run(
                    &mut kernels,
                    &books,
                    p.product(),
                    Some(p.true_indices()),
                    loop_seed(i),
                ))
            })
            .collect();
        let items: Vec<LockstepProblem<'_>> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| LockstepProblem {
                query: p.product(),
                truth: Some(p.true_indices()),
                kernel_seed: run_seed(i),
                loop_seed: loop_seed(i),
            })
            .collect();
        let readout = NoisyReadout::new(spec.dim, sigma, true, act, survival);
        let got = BatchedResonator::new(config, &readout).run(&books, &items);
        for (i, (g, e)) in got.into_iter().zip(&expected).enumerate() {
            prop_assert_eq!(strip(g), e.clone(), "faulty-readout problem {} diverged", i);
        }
    }

    #[test]
    fn lockstep_retirement_is_independent_per_slot(seed in 0u64..60) {
        // Mid-batch retirement: pair one trivially easy problem (solves
        // in a few iterations) with hard over-capacity ones that run the
        // whole budget. Retiring the easy slot must not perturb the hard
        // slots' trajectories relative to their solo runs.
        let easy_spec = ProblemSpec::new(2, 3, 256);
        let mut rng = rng_from_seed(seed);
        let books: Vec<_> = (0..easy_spec.factors)
            .map(|_| hdc::Codebook::random(easy_spec.codebook_size, easy_spec.dim, &mut rng))
            .collect();
        let problems: Vec<FactorizationProblem> = (0..4)
            .map(|_| FactorizationProblem::with_codebooks(&books, &mut rng))
            .collect();
        let queries: Vec<(&hdc::BipolarVector, Option<&[usize]>)> = problems
            .iter()
            .map(|p| (p.product(), Some(p.true_indices())))
            .collect();
        let mut seq = StochasticResonator::paper_default(easy_spec, 150, seed);
        let expected: Vec<_> = problems
            .iter()
            .map(|p| seq.factorize_query(&books, p.product(), Some(p.true_indices())))
            .collect();
        let mut locked = StochasticResonator::paper_default(easy_spec, 150, seed);
        let got = locked.factorize_lockstep(&books, &queries);
        // The batch mixes retirement times (easy shapes solve at
        // different iterations under different noise streams).
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.solved, e.solved);
            prop_assert_eq!(g.iterations, e.iterations);
            prop_assert_eq!(g.solved_at, e.solved_at);
            prop_assert_eq!(&g.decoded, &e.decoded);
            prop_assert_eq!(g.revisits, e.revisits);
            prop_assert_eq!(g.degenerate_events, e.degenerate_events);
        }
    }
}
