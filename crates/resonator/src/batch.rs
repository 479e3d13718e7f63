//! Batch factorization over shared codebooks.
//!
//! H3DFact's SRAM-buffered schedule exists to make batches efficient
//! (Sec. IV-A, batch size 100): the codebooks are programmed once and a
//! stream of queries shares them. This module provides the engine-agnostic
//! batch runner used by throughput studies and the perception pipeline.

use serde::{Deserialize, Serialize};

use crate::engine::{FactorizationOutcome, Factorizer};
use crate::metrics::IterationStats;
use hdc::{BipolarVector, Codebook};

/// One batch element: a query and (optionally) its ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchItem {
    /// The product vector to factorize.
    pub query: BipolarVector,
    /// Ground-truth indices, when known.
    pub truth: Option<Vec<usize>>,
}

/// Aggregate result of a batch run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// Per-item outcomes, in input order.
    pub outcomes: Vec<FactorizationOutcome>,
    /// Iteration statistics over solved items.
    pub iterations: IterationStats,
}

impl BatchOutcome {
    /// Builds the aggregate from per-item outcomes: the one definition of
    /// which iterations count as "solved work" (`solved_at`, falling back
    /// to the executed iterations), shared by every batch path.
    pub fn from_outcomes(outcomes: Vec<FactorizationOutcome>) -> Self {
        let solved_iters: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.solved)
            .map(|o| o.solved_at.unwrap_or(o.iterations))
            .collect();
        Self {
            iterations: IterationStats::new(solved_iters),
            outcomes,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Fraction of items solved.
    pub fn accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.solved).count() as f64 / self.outcomes.len() as f64
    }

    /// Total iterations across all items (the batch's work measure).
    pub fn total_iterations(&self) -> usize {
        self.outcomes.iter().map(|o| o.iterations).sum()
    }
}

/// Runs every item through `engine` against the shared `codebooks`.
///
/// # Panics
///
/// Panics if `items` is empty or shapes disagree (propagated from the
/// engine).
pub fn run_batch<E: Factorizer + ?Sized>(
    engine: &mut E,
    codebooks: &[Codebook],
    items: &[BatchItem],
) -> BatchOutcome {
    assert!(!items.is_empty(), "batch must be non-empty");
    let outcomes: Vec<FactorizationOutcome> = items
        .iter()
        .map(|item| engine.factorize_query(codebooks, &item.query, item.truth.as_deref()))
        .collect();
    BatchOutcome::from_outcomes(outcomes)
}

/// Builds a batch of `n` fresh random problems over shared codebooks
/// (the standard throughput workload).
pub fn random_batch(
    codebooks: &[Codebook],
    n: usize,
    master_seed: u64,
) -> (Vec<BatchItem>, Vec<Vec<usize>>) {
    assert!(n > 0, "batch must be non-empty");
    let mut truths = Vec::with_capacity(n);
    let items = (0..n)
        .map(|i| {
            let mut rng = hdc::rng::stream_rng(master_seed, i as u64);
            let (query, truth) = hdc::FactorizationProblem::draw_query(codebooks, &mut rng);
            truths.push(truth.clone());
            BatchItem {
                query,
                truth: Some(truth),
            }
        })
        .collect();
    (items, truths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::software::StochasticResonator;
    use hdc::rng::rng_from_seed;
    use hdc::ProblemSpec;

    #[test]
    fn batch_solves_and_aggregates() {
        let spec = ProblemSpec::new(3, 8, 512);
        let mut rng = rng_from_seed(800);
        let books: Vec<Codebook> = (0..3).map(|_| Codebook::random(8, 512, &mut rng)).collect();
        let (items, truths) = random_batch(&books, 10, 42);
        assert_eq!(items.len(), 10);
        assert_eq!(truths.len(), 10);
        let mut engine = StochasticResonator::paper_default(spec, 500, 1);
        let out = run_batch(&mut engine, &books, &items);
        assert_eq!(out.len(), 10);
        assert!(out.accuracy() >= 0.9, "batch accuracy {}", out.accuracy());
        assert!(out.total_iterations() > 0);
        assert!(out.iterations.count() >= 9);
    }

    #[test]
    fn batch_items_differ() {
        let mut rng = rng_from_seed(801);
        let books: Vec<Codebook> = (0..2).map(|_| Codebook::random(4, 128, &mut rng)).collect();
        let (items, _) = random_batch(&books, 8, 7);
        let distinct: std::collections::HashSet<_> =
            items.iter().map(|i| i.query.words().to_vec()).collect();
        assert!(distinct.len() > 1, "queries must vary across the batch");
    }

    #[test]
    fn empty_outcome_accuracy_is_zero() {
        let out = BatchOutcome {
            outcomes: vec![],
            iterations: IterationStats::new(vec![]),
        };
        assert_eq!(out.accuracy(), 0.0);
        assert!(out.is_empty());
    }
}
