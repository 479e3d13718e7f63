//! `ResonatorLoop::run` allocates its scratch once per run, never per
//! iteration. A counting global allocator (this test binary's own) checks
//! that a run capped at 100 iterations allocates no more than one capped
//! at 10.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook};
use resonator::engine::CycleAction;
use resonator::{Activation, LoopConfig, ResonatorLoop, SoftwareKernels};

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

#[test]
fn run_allocations_do_not_grow_with_iterations() {
    let mut rng = rng_from_seed(2024);
    let books: Vec<Codebook> = (0..3)
        .map(|_| Codebook::random(16, 256, &mut rng))
        .collect();
    // A random query is no product of codevectors: no decode re-composes
    // to it, so neither budget converges.
    let query = BipolarVector::random(256, &mut rng);
    let allocs_at = |max_iters: usize| {
        let config = LoopConfig {
            // Cycle recording keeps a growing set of visited states; this
            // test is about the per-iteration scratch.
            cycle_action: CycleAction::Ignore,
            ..LoopConfig::stochastic(max_iters)
        };
        let engine = ResonatorLoop::new(config);
        let mut kernels = SoftwareKernels::new(&books, 2.0, false, Activation::Identity, 7);
        let mut outcome = None;
        let allocs =
            count_allocs(|| outcome = Some(engine.run(&mut kernels, &books, &query, None, 11)));
        let outcome = outcome.expect("run finished");
        assert!(!outcome.solved, "a random query must not solve");
        assert_eq!(
            outcome.iterations, max_iters,
            "the run must use its whole budget"
        );
        allocs
    };
    let (short, long) = (allocs_at(10), allocs_at(100));
    assert!(short > 0, "the counter must see the run's own scratch");
    assert!(
        long <= short,
        "100 iterations allocated {long} times, 10 iterations {short} times"
    );
}
