//! `ResonatorLoop::run` allocates its scratch once per run, never per
//! iteration, and so does the kernels' noisy readout (its skip table is
//! built with the kernels); so does the lockstep `BatchedResonator`, on
//! both its integer sign projection and its batched `f64` fallback. A
//! counting global allocator (this test binary's own) checks that a run
//! capped at 100 iterations allocates no more than one capped at 10.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook};
use resonator::engine::CycleAction;
use resonator::{
    Activation, BatchedResonator, LockstepProblem, LoopConfig, NoisyReadout, ResonatorLoop,
    SoftwareKernels,
};

thread_local! {
    /// Allocations made by this thread while counting is on (`None` = off).
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread local, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.replace(None)).expect("counting was on")
}

/// Allocations of one run over a random (unsolvable) query at each
/// budget, building the kernels with `make_kernels` inside the counted
/// region; asserts every run spends its whole budget.
fn allocs_per_budget<'a>(
    books: &'a [Codebook],
    query: &BipolarVector,
    make_kernels: impl Fn() -> SoftwareKernels<'a>,
    budgets: [usize; 2],
) -> [u64; 2] {
    budgets.map(|max_iters| {
        let config = LoopConfig {
            // Cycle recording keeps a growing set of visited states; this
            // test is about the per-iteration scratch.
            cycle_action: CycleAction::Ignore,
            ..LoopConfig::stochastic(max_iters)
        };
        let engine = ResonatorLoop::new(config);
        let mut outcome = None;
        let allocs = count_allocs(|| {
            let mut kernels = make_kernels();
            outcome = Some(engine.run(&mut kernels, books, query, None, 11));
        });
        let outcome = outcome.expect("run finished");
        assert!(!outcome.solved, "a random query must not solve");
        assert_eq!(
            outcome.iterations, max_iters,
            "the run must use its whole budget"
        );
        allocs
    })
}

fn books_and_random_query(dim: usize) -> (Vec<Codebook>, BipolarVector) {
    let mut rng = rng_from_seed(2024);
    let books: Vec<Codebook> = (0..3)
        .map(|_| Codebook::random(16, dim, &mut rng))
        .collect();
    // A random query is no product of codevectors: no decode re-composes
    // to it, so neither budget converges.
    let query = BipolarVector::random(dim, &mut rng);
    (books, query)
}

#[test]
fn run_allocations_do_not_grow_with_iterations() {
    let (books, query) = books_and_random_query(256);
    let [short, long] = allocs_per_budget(
        &books,
        &query,
        || SoftwareKernels::new(&books, 2.0, false, Activation::Identity, 7),
        [10, 100],
    );
    assert!(short > 0, "the counter must see the run's own scratch");
    assert!(
        long <= short,
        "100 iterations allocated {long} times, 10 iterations {short} times"
    );
}

#[test]
fn paper_default_readout_builds_its_table_once_per_run() {
    // The paper-default stochastic readout: chip-calibrated noise,
    // rectification, 4-bit noise-referenced activation — the
    // configuration whose skip table is non-empty.
    let dim = 256;
    let (books, query) = books_and_random_query(dim);
    let sigma = 0.139 * (dim as f64).sqrt();
    let act = Activation::noise_referenced(4, dim, 3.0);
    let [short, long] = allocs_per_budget(
        &books,
        &query,
        || SoftwareKernels::new(&books, sigma, true, act, 7),
        [10, 100],
    );
    let [bare, _] = allocs_per_budget(
        &books,
        &query,
        || SoftwareKernels::new(&books, sigma, false, Activation::Identity, 7),
        [10, 100],
    );
    assert!(
        short > bare,
        "the skip table must be built inside the counted run ({short} vs {bare} allocations)"
    );
    assert!(
        long <= short,
        "100 iterations allocated {long} times, 10 iterations {short} times"
    );
}

/// Allocations of one lockstep run over four random (unsolvable) queries
/// at each budget; asserts every problem spends the whole budget.
fn lockstep_allocs_per_budget(dim: usize, readout: &NoisyReadout) -> [u64; 2] {
    let (books, _) = books_and_random_query(dim);
    let mut rng = rng_from_seed(2025);
    let queries: Vec<BipolarVector> = (0..4)
        .map(|_| BipolarVector::random(dim, &mut rng))
        .collect();
    let problems: Vec<LockstepProblem<'_>> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| LockstepProblem {
            query,
            truth: None,
            kernel_seed: 7 + i as u64,
            loop_seed: 11 + i as u64,
        })
        .collect();
    [10, 100].map(|max_iters| {
        let config = LoopConfig {
            cycle_action: CycleAction::Ignore,
            ..LoopConfig::stochastic(max_iters)
        };
        let stepper = BatchedResonator::new(config, readout);
        let mut outcomes = Vec::new();
        let allocs = count_allocs(|| outcomes = stepper.run(&books, &problems));
        for outcome in &outcomes {
            assert!(!outcome.solved, "a random query must not solve");
            assert_eq!(
                outcome.iterations, max_iters,
                "the run must use its whole budget"
            );
        }
        allocs
    })
}

#[test]
fn lockstep_allocations_do_not_grow_with_iterations() {
    let dim = 256;
    // Noisy identity weights are never integers: every projection takes
    // the batched f64 fallback.
    let f64_path = NoisyReadout::new(dim, 2.0, false, Activation::Identity, 1.0);
    // The paper-default readout emits `48·c` codes: the integer sign path,
    // plus the sparse re-draws of degenerate steps.
    let sigma = 0.139 * (dim as f64).sqrt();
    let act = Activation::noise_referenced(4, dim, 3.0);
    let sign_path = NoisyReadout::new(dim, sigma, true, act, 1.0);
    for readout in [&f64_path, &sign_path] {
        let [short, long] = lockstep_allocs_per_budget(dim, readout);
        assert!(short > 0, "the counter must see the run's own scratch");
        assert!(
            long <= short,
            "100 iterations allocated {long} times, 10 iterations {short} times"
        );
    }
}
