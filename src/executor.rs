//! Deterministic parallel batch execution.
//!
//! Every backend derives the seed of its `k`-th solve purely from
//! `(engine seed, k)` — the run *cursor* exposed through
//! [`Backend::run_cursor`] / [`Backend::seek_run`]. That makes batch items
//! embarrassingly parallel without sacrificing reproducibility: every
//! item is a [`RequestSolve`] carrying its cursor, and a worker pool of
//! independently constructed backends (same constructor seed) claims
//! items dynamically, seeks each backend to the item's cursor, and
//! solves. Per-item outcomes and reports are therefore **bit-identical**
//! to a sequential pass ([`solve_inline`]), and any order-sensitive
//! aggregation (floating-point energy sums) is done afterwards in item
//! order. Session passes and service micro-batches share this one pool.
//!
//! The pool uses [`std::thread::scope`], so worker lifetimes are tied to
//! the call and the shared codebooks are borrowed, not cloned.
//!
//! # Lockstep batching
//!
//! On top of per-item parallelism, every pass groups contiguous runs of
//! same-shape items (one backend, one codebook set, consecutive run
//! cursors) into **lockstep chunks** and hands each chunk to
//! [`Backend::factorize_lockstep`], which advances all problems of the
//! chunk one iteration at a time through the batched matrix–matrix
//! kernels where the target has a stepper, and solves them one by one
//! where it has not (the simulated hardware). Chunking never changes
//! outcomes: lockstep solves are bit-identical to the sequential per-item
//! stream, so the determinism contracts (threads(N) ≡ threads(1), live ≡
//! replay) are preserved by construction.
//!
//! # Work stealing
//!
//! Chunk *scheduling* is work-stealing over per-worker deques
//! ([`StealPool`]): each worker starts with a contiguous span of chunks
//! and, when its own deque drains, steals the back half of the first
//! non-empty victim's deque. Lockstep chunks retire raggedly — a chunk
//! whose problems all converge in a few iterations finishes long before
//! one that runs to the iteration budget — and under the previous fixed
//! claim order a worker that drew only easy chunks went idle while
//! another serialized the hard ones. Stealing rebalances those tails.
//! Scheduling is invisible to results by construction: *which worker*
//! solves a chunk affects nothing, because every chunk seeks its engine
//! to the chunk's own cursor before solving — so `threads(N) ≡
//! threads(1)` holds under any steal interleaving, and
//! [`steal_events`] only feeds observability (bench scaling tables),
//! never control flow.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hdc::{BipolarVector, Codebook};

use crate::backend::{Backend, LockstepQuery, LockstepSolve};

/// Upper bound on a lockstep chunk. Eight problems per batch already
/// amortize each codebook tile across the whole chunk (the per-B bench
/// table in `BENCH_kernels.json` shows diminishing returns past 8–16)
/// while keeping the batch scratch (`B × D` sums, `B` estimate sets)
/// comfortably in cache; work is additionally split so one chunk never
/// serializes a pass that has more workers than chunks.
pub(crate) const LOCKSTEP_CHUNK: usize = 8;

/// Chunk cap for a pass of `n_items` on `workers` threads: the lockstep
/// bound, shrunk so every worker has at least one chunk to claim.
fn chunk_cap(n_items: usize, workers: usize) -> usize {
    LOCKSTEP_CHUNK.min(n_items.div_ceil(workers.max(1))).max(1)
}

/// Steal events since process start, across every pass (monotone,
/// process-global). Observability only — exposed to the bench harness
/// through [`crate::session::executor_steal_events`]; nothing reads it on
/// a decision path.
static STEAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// See [`STEAL_EVENTS`].
pub(crate) fn steal_events() -> u64 {
    STEAL_EVENTS.load(Ordering::Relaxed)
}

/// Work-stealing chunk scheduler: one `Mutex<VecDeque>` of chunk indices
/// per worker, seeded with contiguous spans (so initial claims preserve
/// the cache-friendly front-to-back sweep), drained own-front-first with
/// back-half stealing on empty.
///
/// Chunks leave the pool exactly once (a pop under the owner's lock or a
/// `split_off` under the victim's), so a worker observing every deque
/// empty can safely exit: any chunk it did not see is already in some
/// worker's hands and will be solved there. Which worker runs a chunk is
/// irrelevant to results — every chunk re-seeds its engine from the
/// chunk's own cursor — so steal timing never reaches outcomes.
struct StealPool {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealPool {
    /// Distributes `n_chunks` chunk indices over `workers` deques as
    /// contiguous spans (worker `w` owns `[w·n/W, (w+1)·n/W)`).
    fn new(n_chunks: usize, workers: usize) -> Self {
        let deques = (0..workers.max(1))
            .map(|w| {
                let lo = w * n_chunks / workers.max(1);
                let hi = (w + 1) * n_chunks / workers.max(1);
                Mutex::new((lo..hi).collect::<VecDeque<usize>>())
            })
            .collect();
        Self { deques }
    }

    /// Next chunk for worker `w`: own deque front, else sweep victims
    /// cyclically from `w + 1`, stealing the back half (at least one
    /// chunk) of the first non-empty deque — the remainder of the loot
    /// refills `w`'s own deque. Returns `None` when every deque was
    /// empty at inspection (remaining chunks, if any, are in-flight in
    /// other workers' hands).
    fn next(&self, w: usize) -> Option<usize> {
        if let Some(c) = self.deques[w]
            .lock()
            .expect("steal deque poisoned")
            .pop_front()
        {
            return Some(c);
        }
        let n = self.deques.len();
        for off in 1..n {
            let v = (w + off) % n;
            let mut victim = self.deques[v].lock().expect("steal deque poisoned");
            let vn = victim.len();
            if vn == 0 {
                continue;
            }
            // Back half (ceil), leaving the front — the span the victim
            // is working toward — in place.
            let mut loot = victim.split_off(vn / 2);
            drop(victim);
            STEAL_EVENTS.fetch_add(1, Ordering::Relaxed);
            let first = loot.pop_front().expect("stolen loot is non-empty");
            if !loot.is_empty() {
                self.deques[w]
                    .lock()
                    .expect("steal deque poisoned")
                    .extend(loot);
            }
            return Some(first);
        }
        None
    }
}

/// One item ready to solve: which backend solves it, at which run
/// cursor, against which codebooks. A session pass is a run of items on
/// one backend at consecutive cursors; a service micro-batch pass may
/// span several shards (and therefore several backend constructions).
pub(crate) struct RequestSolve<'a> {
    /// Index into the factory table of the backend that owns this item.
    pub shard: usize,
    /// Run cursor the item is solved at.
    pub cursor: u64,
    /// Codebooks the query is defined over.
    pub codebooks: &'a [Codebook],
    /// The product vector to factorize.
    pub query: &'a BipolarVector,
    /// Ground truth, when the caller knows it.
    pub truth: Option<&'a [usize]>,
}

/// Splits `requests` into lockstep chunks of at most `cap` items: maximal
/// runs on one shard with consecutive cursors over one codebook set
/// (stragglers — shard switches, cursor gaps — start a new chunk).
/// Identity (`ptr::eq`), not content, defines "one set" — which is why
/// every caller resolves its registry handle ONCE per pass and feeds the
/// whole pass a single `Arc` slice: a mid-pass re-resolve could observe a
/// rebuilt hot-tier allocation and split a chunk. (Splitting is only a
/// throughput loss, never a correctness one, but the one-resolve-per-pass
/// rule keeps chunking deterministic.)
fn lockstep_chunks(requests: &[RequestSolve<'_>], cap: usize) -> Vec<Range<usize>> {
    let mut chunks: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    for i in 1..requests.len() {
        let (prev, cur) = (&requests[i - 1], &requests[i]);
        if i - start >= cap
            || cur.shard != prev.shard
            || cur.cursor != prev.cursor + 1
            || !std::ptr::eq(cur.codebooks, prev.codebooks)
        {
            chunks.push(start..i);
            start = i;
        }
    }
    if !requests.is_empty() {
        chunks.push(start..requests.len());
    }
    chunks
}

/// Solves one lockstep chunk on `engine`, starting at the chunk's cursor.
fn solve_chunk(engine: &mut dyn Backend, chunk: &[RequestSolve<'_>]) -> Vec<LockstepSolve> {
    let head = &chunk[0];
    engine.seek_run(head.cursor);
    let queries: Vec<LockstepQuery<'_>> = chunk.iter().map(|r| (r.query, r.truth)).collect();
    engine.factorize_lockstep(head.codebooks, &queries)
}

/// Solves `requests` — all owned by `engine` — on the calling thread, in
/// lockstep chunks, and returns results in item order. Leaves `engine`'s
/// cursor past the last chunk.
pub(crate) fn solve_inline(
    engine: &mut dyn Backend,
    requests: &[RequestSolve<'_>],
) -> Vec<LockstepSolve> {
    lockstep_chunks(requests, LOCKSTEP_CHUNK)
        .into_iter()
        .flat_map(|chunk| solve_chunk(engine, &requests[chunk]))
        .collect()
}

/// Solves `requests` across a scoped worker pool and returns results in
/// item order. `factories[s]` constructs the backend of shard `s`; each
/// worker instantiates a shard's backend lazily on first use and keeps it
/// warm for the rest of the pass. Every request is solved at its own
/// cursor, so results are **bit-identical** to [`solve_inline`] and to a
/// serial per-item replay of the same requests in any order — the
/// property the session's `threads(N) ≡ threads(1)` and the service's
/// trace/replay contracts rest on.
///
/// # Panics
///
/// Panics if `threads == 0`, `requests` is empty, a shard index is out of
/// range, or a worker panics.
pub(crate) fn solve_requests(
    factories: &[Box<dyn Fn() -> Box<dyn Backend> + Send + Sync>],
    requests: &[RequestSolve<'_>],
    threads: usize,
) -> Vec<LockstepSolve> {
    assert!(threads > 0, "worker pool needs at least one thread");
    assert!(!requests.is_empty(), "batch must be non-empty");
    let n_items = requests.len();
    let workers = threads.min(n_items);
    let chunks = lockstep_chunks(requests, chunk_cap(n_items, workers));
    let pool = StealPool::new(chunks.len(), workers);
    // One slot per item: workers write disjoint slots, so per-slot locks
    // never contend beyond their own writer.
    let slots: Vec<Mutex<Option<LockstepSolve>>> = (0..n_items).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let pool = &pool;
            let chunks = &chunks;
            let slots = &slots;
            scope.spawn(move || {
                let mut engines: Vec<Option<Box<dyn Backend>>> =
                    (0..factories.len()).map(|_| None).collect();
                while let Some(c) = pool.next(w) {
                    let chunk = chunks[c].clone();
                    let shard = requests[chunk.start].shard;
                    let engine = engines[shard].get_or_insert_with(|| factories[shard]());
                    let solves = solve_chunk(engine.as_mut(), &requests[chunk.clone()]);
                    for (i, solve) in chunk.zip(solves) {
                        *slots[i].lock().expect("result slot poisoned") = Some(solve);
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every request solved by the pool")
        })
        .collect()
}

/// Resolves a configured thread count: `0` means "all available cores".
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::BackendKind;
    use hdc::rng::rng_from_seed;
    use hdc::ProblemSpec;
    use resonator::batch::{random_batch, BatchItem};
    use resonator::engine::FactorizationOutcome;

    /// Solves `items` at cursors `base..` on a `threads`-worker pool of
    /// stochastic backends built like `BackendKind::instantiate`.
    fn pooled(
        (spec, max_iters, seed): (ProblemSpec, usize, u64),
        books: &[Codebook],
        items: &[BatchItem],
        base: u64,
        threads: usize,
    ) -> Vec<LockstepSolve> {
        let factory: Box<dyn Fn() -> Box<dyn Backend> + Send + Sync> = Box::new(move || {
            BackendKind::Stochastic.instantiate(spec, max_iters, seed, None, None)
        });
        let requests: Vec<RequestSolve<'_>> = items
            .iter()
            .enumerate()
            .map(|(i, item)| RequestSolve {
                shard: 0,
                cursor: base + i as u64,
                codebooks: books,
                query: &item.query,
                truth: item.truth.as_deref(),
            })
            .collect();
        solve_requests(std::slice::from_ref(&factory), &requests, threads)
    }

    /// Strips the wall-clock profile (the only non-deterministic field)
    /// before comparing outcomes bit-for-bit.
    fn functional(outcome: &FactorizationOutcome) -> FactorizationOutcome {
        let mut o = outcome.clone();
        o.times = Default::default();
        o
    }

    #[test]
    fn parallel_items_match_sequential_items() {
        let spec = ProblemSpec::new(3, 8, 256);
        let mut rng = rng_from_seed(500);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (items, _) = random_batch(&books, 6, 501);

        let mut sequential = BackendKind::Stochastic.instantiate(spec, 400, 9, None, None);
        let expected: Vec<FactorizationOutcome> = items
            .iter()
            .map(|i| sequential.factorize_query(&books, &i.query, i.truth.as_deref()))
            .collect();

        let parallel = pooled((spec, 400, 9), &books, &items, 0, 3);
        assert_eq!(parallel.len(), expected.len());
        for (p, e) in parallel.iter().zip(&expected) {
            assert_eq!(
                functional(&p.outcome),
                functional(e),
                "parallel item diverged from sequential"
            );
        }
    }

    #[test]
    fn base_cursor_offsets_the_seed_stream() {
        let spec = ProblemSpec::new(2, 8, 256);
        let mut rng = rng_from_seed(502);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (items, _) = random_batch(&books, 3, 503);
        // Sequential backend that has already issued 5 runs.
        let mut warmed = BackendKind::Stochastic.instantiate(spec, 400, 10, None, None);
        warmed.seek_run(5);
        let expected: Vec<FactorizationOutcome> = items
            .iter()
            .map(|i| warmed.factorize_query(&books, &i.query, i.truth.as_deref()))
            .collect();

        let parallel = pooled((spec, 400, 10), &books, &items, 5, 2);
        for (p, e) in parallel.iter().zip(&expected) {
            assert_eq!(functional(&p.outcome), functional(e));
        }
    }

    #[test]
    fn zero_threads_resolve_to_available_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn steal_pool_claims_every_chunk_exactly_once() {
        // Deterministic single-threaded drive of the scheduler itself:
        // 3 workers, 8 chunks → contiguous spans [0,2), [2,5), [5,8).
        let pool = StealPool::new(8, 3);
        // Own-deque claims are FIFO within the span.
        assert_eq!(pool.next(0), Some(0));
        assert_eq!(pool.next(0), Some(1));
        // Worker 0's deque is now empty: it must steal the back half of
        // the first non-empty victim (worker 1 holds [2, 3, 4] → keeps
        // [2], loot [3, 4]) and run the loot front-first.
        assert_eq!(pool.next(0), Some(3));
        assert_eq!(pool.next(0), Some(4));
        // Victim kept the front of its span.
        assert_eq!(pool.next(1), Some(2));
        // Worker 2 drains its own span untouched.
        assert_eq!(pool.next(2), Some(5));
        assert_eq!(pool.next(2), Some(6));
        assert_eq!(pool.next(2), Some(7));
        // All deques empty: every worker observes exhaustion.
        assert_eq!(pool.next(0), None);
        assert_eq!(pool.next(1), None);
        assert_eq!(pool.next(2), None);
    }

    #[test]
    fn steal_pool_steals_a_single_remaining_chunk() {
        // A one-chunk victim deque must be stolen whole (back "half"
        // rounds up), or tiny tail passes could strand work behind one
        // busy worker.
        let pool = StealPool::new(1, 4);
        assert_eq!(pool.next(3), Some(0), "sole chunk stolen from worker 0");
        for w in 0..4 {
            assert_eq!(pool.next(w), None);
        }
    }

    #[test]
    fn steal_events_counter_is_monotone() {
        let before = steal_events();
        let pool = StealPool::new(2, 2);
        assert_eq!(pool.next(1), Some(1));
        assert_eq!(pool.next(1), Some(0), "second claim steals from worker 0");
        // Other tests run in parallel and also bump the global counter,
        // so assert monotone growth rather than an exact delta.
        assert!(steal_events() > before);
    }

    #[test]
    fn adversarial_early_retirement_is_thread_count_invariant() {
        // The work-stealing determinism contract under the worst chunk
        // mix: items alternate between easy (true product vectors, the
        // resonator converges in a handful of iterations) and hard
        // (random noise queries that run the full iteration budget), so
        // lockstep chunks retire maximally raggedly and threads(4)
        // workers steal the stragglers. Outcomes must stay bit-identical
        // to threads(1) regardless.
        let spec = ProblemSpec::new(3, 8, 256);
        let mut rng = rng_from_seed(520);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (easy, _) = random_batch(&books, 24, 521);
        let items: Vec<BatchItem> = easy
            .into_iter()
            .enumerate()
            .map(|(i, mut item)| {
                if i % 2 == 1 {
                    // Overwrite odd slots with unsolvable noise (and no
                    // truth): these run to the iteration budget.
                    item.query = BipolarVector::random(spec.dim, &mut rng);
                    item.truth = None;
                }
                item
            })
            .collect();
        let sequential = pooled((spec, 300, 11), &books, &items, 0, 1);
        let parallel = pooled((spec, 300, 11), &books, &items, 0, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (i, (p, e)) in parallel.iter().zip(&sequential).enumerate() {
            assert_eq!(
                functional(&p.outcome),
                functional(&e.outcome),
                "item {i} diverged between threads(4) and threads(1)"
            );
        }
    }
}
