//! Property-based tests for the VSA algebra invariants.

use hdc::rng::rng_from_seed;
use hdc::{bind_all, bundle, BipolarVector, Codebook, TieBreak};
use proptest::prelude::*;
use rand::Rng;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=4, 60usize..=68, 120usize..=130, Just(256)]
}

fn arb_vector(dim: usize) -> impl Strategy<Value = BipolarVector> {
    proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], dim)
        .prop_map(|signs| BipolarVector::from_signs(&signs))
}

proptest! {
    #[test]
    fn bind_commutes(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_associates(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        let c = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn bind_self_is_identity_vector(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&a), BipolarVector::ones(dim));
    }

    #[test]
    fn unbind_recovers_factor(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let xs: Vec<_> = (0..3).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        let product = bind_all(&xs);
        prop_assert_eq!(product.bind(&xs[1]).bind(&xs[2]), xs[0].clone());
    }

    #[test]
    fn dot_is_symmetric_and_bounded(v in arb_dim().prop_flat_map(|d| (arb_vector(d), arb_vector(d)))) {
        let (a, b) = v;
        prop_assert_eq!(a.dot(&b), b.dot(&a));
        prop_assert!(a.dot(&b).abs() <= a.dim() as i64);
        // Parity: dot ≡ dim (mod 2).
        prop_assert_eq!((a.dot(&b) - a.dim() as i64) % 2, 0);
    }

    #[test]
    fn dot_hamming_relation(v in arb_dim().prop_flat_map(|d| (arb_vector(d), arb_vector(d)))) {
        let (a, b) = v;
        prop_assert_eq!(a.dot(&b), a.dim() as i64 - 2 * a.hamming(&b) as i64);
    }

    #[test]
    fn binding_preserves_dot(dim in arb_dim(), seed in 0u64..1000) {
        // Binding by a common vector is an isometry of the dot product.
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        let k = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&k).dot(&b.bind(&k)), a.dot(&b));
    }

    #[test]
    fn permutation_is_bijective(dim in arb_dim(), k in 0usize..512, seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.permuted(k).inverse_permuted(k), a.clone());
        // Permutation preserves the number of +1 elements.
        prop_assert_eq!(a.permuted(k).count_positive(), a.count_positive());
    }

    #[test]
    fn permutation_distributes_over_bind(dim in arb_dim(), k in 0usize..64, seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).permuted(k), a.permuted(k).bind(&b.permuted(k)));
    }

    #[test]
    fn bundle_of_identical_is_identity(dim in arb_dim(), seed in 0u64..1000, n in 1usize..5) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let copies = vec![a.clone(); n];
        prop_assert_eq!(bundle(&copies, TieBreak::Parity), a);
    }

    #[test]
    fn cleanup_of_member_is_exact(m in 2usize..12, seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, 256, &mut rng);
        for i in 0..m {
            prop_assert_eq!(cb.cleanup(cb.vector(i)).index, i);
        }
    }

    #[test]
    fn signs_roundtrip(v in arb_dim().prop_flat_map(arb_vector)) {
        prop_assert_eq!(BipolarVector::from_signs(&v.to_signs()), v);
    }

    #[test]
    fn reals_sign_roundtrip_through_words(v in arb_dim().prop_flat_map(arb_vector)) {
        // to_signs → reals → from_reals_sign reproduces the vector exactly
        // (all values non-zero, so no parity tie-breaking is involved),
        // covering the word-walk encoder/decoder pair including tails with
        // dim not a multiple of 64.
        let reals: Vec<f64> = v.to_signs().iter().map(|&s| s as f64).collect();
        prop_assert_eq!(BipolarVector::from_reals_sign(&reals), v.clone());
        let mut reused = BipolarVector::ones(v.dim());
        reused.assign_signs_of_reals(&reals);
        prop_assert_eq!(reused, v);
    }

    #[test]
    fn packed_similarity_mvm_equals_naive_dot_loop(
        m in 1usize..24,
        dim in arb_dim(),
        seed in 0u64..500,
    ) {
        // The packed popcount MVM must agree with one-vector-at-a-time
        // dots for every shape, including non-multiple-of-64 dimension
        // tails and row counts that defeat the lane-block fast path.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        let q = BipolarVector::random(dim, &mut rng);
        let naive: Vec<i64> = cb.vectors().iter().map(|v| v.dot(&q)).collect();
        prop_assert_eq!(cb.similarities(&q), naive.clone());
        let mut out = vec![0.0f64; m];
        cb.similarities_into(&q, &mut out);
        for (j, &n) in naive.iter().enumerate() {
            prop_assert_eq!(out[j], n as f64);
            prop_assert_eq!(cb.packed().dot_row(j, &q), n);
        }
    }

    #[test]
    fn packed_projection_matches_sign_loop(
        m in 1usize..12,
        dim in arb_dim(),
        seed in 0u64..500,
    ) {
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        // Integer weights keep both accumulation orders exact in f64.
        let weights: Vec<f64> = (0..m).map(|j| (j % 5) as f64 - 2.0).collect();
        let mut sums = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&weights, &mut sums);
        for (i, &s) in sums.iter().enumerate() {
            let expect: f64 = cb
                .vectors()
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            prop_assert_eq!(s, expect);
        }
    }

    #[test]
    fn packed_projection_regimes_agree_at_edge_dimensions(
        m in 9usize..24,
        dim in arb_dim(),
        seed in 0u64..500,
        dense in prop_oneof![Just(false), Just(true)],
    ) {
        // The projection kernel picks its regime from the active-row
        // count: one active row of m ≥ 9 takes the sparse set-bit walk,
        // all-active takes the branchless dense unpack. Both must equal
        // the naive sign loop at every dimension shape — D < 64, ragged
        // tails, and exact multiples alike — and so must the unpacked
        // `ops::weighted_sums_into` twin.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        let weights: Vec<f64> = if dense {
            (0..m).map(|j| (j % 7) as f64 - 3.0).collect()
        } else {
            let mut w = vec![0.0; m];
            w[m / 2] = 2.0;
            w
        };
        let active = weights.iter().filter(|&&w| w != 0.0).count();
        // Verify the strategy actually exercises the intended regime.
        prop_assert_eq!(8 * active <= m, !dense);
        let mut packed_out = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&weights, &mut packed_out);
        let mut unpacked_out = vec![0.0f64; dim];
        hdc::ops::weighted_sums_into(cb.vectors(), &weights, &mut unpacked_out);
        for i in 0..dim {
            let expect: f64 = cb
                .vectors()
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            prop_assert_eq!(packed_out[i], expect, "packed regime dense={} element {}", dense, i);
            prop_assert_eq!(unpacked_out[i], expect, "unpacked regime dense={} element {}", dense, i);
        }
    }

    #[test]
    fn single_row_packed_codebook_matches_naive(
        dim in arb_dim(),
        seed in 0u64..500,
        w in -4i8..=4,
    ) {
        // M = 1 defeats the lane-block similarity fast path entirely and
        // makes every projection dense (8·active > 1): the degenerate
        // codebook a service shard sees for a one-item attribute.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(1, dim, &mut rng);
        let q = BipolarVector::random(dim, &mut rng);
        let mut sims = vec![0.0f64; 1];
        cb.similarities_into(&q, &mut sims);
        prop_assert_eq!(sims[0], cb.vector(0).dot(&q) as f64);
        let mut sums = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&[w as f64], &mut sums);
        for (i, &s) in sums.iter().enumerate() {
            prop_assert_eq!(s, w as f64 * cb.vector(0).sign(i) as f64);
        }
    }

    #[test]
    fn copy_bit_range_roundtrips_at_ragged_boundaries(
        src_dim in 65usize..200,
        start_word in 0usize..2,
        ragged in 0usize..64,
        seed in 0u64..500,
    ) {
        // Extracting [start, start+d) must reproduce the source bits for
        // word-aligned starts (the fast word-copy path) and ragged starts
        // (the per-bit path) alike, with the destination's padding tail
        // kept masked so algebra on the slice stays exact.
        let mut rng = rng_from_seed(seed);
        let src = BipolarVector::random(src_dim, &mut rng);
        let start = (start_word * 64 + ragged).min(src_dim - 1);
        let d = src_dim - start;
        for slice_dim in [1usize, d / 2, d].into_iter().filter(|&n| n > 0) {
            let mut dst = BipolarVector::ones(slice_dim);
            dst.copy_bit_range_from(&src, start);
            for i in 0..slice_dim {
                prop_assert_eq!(
                    dst.sign(i),
                    src.sign(start + i),
                    "start {} slice_dim {} bit {}",
                    start,
                    slice_dim,
                    i
                );
            }
            // Tail discipline: the extracted slice must behave as a
            // first-class vector (binding with itself yields identity,
            // which fails if padding bits leak).
            prop_assert_eq!(dst.bind(&dst), BipolarVector::ones(slice_dim));
        }
        // The full-range aligned copy is an exact clone.
        let mut whole = BipolarVector::ones(src_dim);
        whole.copy_bit_range_from(&src, 0);
        prop_assert_eq!(whole, src);
    }

    #[test]
    fn batched_similarities_are_bit_identical_to_per_query(
        m in prop_oneof![1usize..=3, 7usize..=9, 15usize..=17, Just(33)],
        dim in prop_oneof![1usize..=4, 60usize..=68, 1000usize..=1030, Just(1024), Just(2048)],
        b in prop_oneof![Just(1usize), 2usize..=5, Just(8), Just(17)],
        seed in 0u64..500,
    ) {
        // The batched bit-GEMM must agree with the per-query packed
        // kernel bit for bit over every ragged shape: D < 64,
        // non-multiple-of-64 tails, partial row strips, B = 1, and
        // B = 17 (a ragged column-tile tail).
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, dim, &mut rng);
        let queries: Vec<BipolarVector> =
            (0..b).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        let batch = hdc::PackedBatch::from_queries(&queries);
        let mut batched = vec![0.0f64; b * m];
        book.packed().similarities_batch_into(&batch, &mut batched);
        let mut single = vec![0.0f64; m];
        for (bi, q) in queries.iter().enumerate() {
            book.packed().similarities_into(q, &mut single);
            for j in 0..m {
                prop_assert_eq!(
                    batched[bi * m + j].to_bits(),
                    single[j].to_bits(),
                    "m {} dim {} query {} row {}",
                    m, dim, bi, j
                );
            }
        }
    }

    #[test]
    fn batched_weighted_sums_are_bit_identical_to_per_query(
        m in prop_oneof![1usize..=3, 8usize..=10, Just(24)],
        dim in prop_oneof![1usize..=4, 62usize..=66, 120usize..=130],
        b in prop_oneof![Just(1usize), 2usize..=4, Just(17)],
        seed in 0u64..500,
    ) {
        // Batched projection must match per-query projection bit for bit
        // with mixed regimes inside one batch: per query, weights are
        // drawn all-zero, sparse (one active row), or dense.
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, dim, &mut rng);
        let mut weights = vec![0.0f64; b * m];
        for (bi, chunk) in weights.chunks_mut(m).enumerate() {
            match bi % 3 {
                0 => {}
                1 => chunk[bi % m] = 1.5 - (bi % 4) as f64,
                _ => {
                    for (j, w) in chunk.iter_mut().enumerate() {
                        *w = (j as f64) - (m as f64) / 2.0;
                    }
                }
            }
        }
        let mut batched = vec![0.0f64; b * dim];
        book.packed().weighted_sums_batch_into(&weights, &mut batched);
        let mut single = vec![0.0f64; dim];
        for bi in 0..b {
            book.packed().weighted_sums_into(&weights[bi * m..(bi + 1) * m], &mut single);
            for i in 0..dim {
                prop_assert_eq!(
                    batched[bi * dim + i].to_bits(),
                    single[i].to_bits(),
                    "m {} dim {} query {} element {}",
                    m, dim, bi, i
                );
            }
        }
    }

    #[test]
    fn every_dispatch_arm_is_bit_identical_to_naive_reference(
        m in prop_oneof![1usize..=3, 7usize..=9, Just(16), Just(33)],
        dim in prop_oneof![1usize..=4, 60usize..=68, 1000usize..=1030, Just(1024), Just(2048)],
        b in prop_oneof![Just(1usize), 2usize..=5, Just(17)],
        seed in 0u64..500,
    ) {
        // The runtime-dispatch contract: every arm this host can execute
        // (forced scalar / AVX2 CSA / AVX-512 vector-popcount) must
        // reproduce the naive i64 dot loop exactly, and match the other
        // arms bit for bit, over ragged shapes — D < 64, non-word tails,
        // partial strips, B = 1 and B = 17. Unsupported arms are skipped
        // (their identity is CI-enforced on hosts that have them).
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, dim, &mut rng);
        let queries: Vec<BipolarVector> =
            (0..b).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        let batch = hdc::PackedBatch::from_queries(&queries);
        let mut weights = vec![0.0f64; b * m];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = ((i % 5) as f64) - 2.0;
        }
        for arm in hdc::SimdArm::ALL {
            if !arm.supported() {
                continue;
            }
            let mut sims = vec![0.0f64; b * m];
            book.packed().similarities_batch_into_forced(&batch, &mut sims, arm);
            for (bi, q) in queries.iter().enumerate() {
                for j in 0..m {
                    let naive: i64 = book
                        .vector(j)
                        .to_signs()
                        .iter()
                        .zip(q.to_signs())
                        .map(|(&x, y)| (x as i64) * (y as i64))
                        .sum();
                    prop_assert_eq!(
                        sims[bi * m + j],
                        naive as f64,
                        "arm {} m {} dim {} query {} row {}",
                        arm, m, dim, bi, j
                    );
                }
            }
            let mut proj = vec![0.0f64; b * dim];
            book.packed().weighted_sums_batch_into_forced(&weights, &mut proj, arm);
            let mut proj_scalar = vec![0.0f64; b * dim];
            book.packed().weighted_sums_batch_into_forced(
                &weights,
                &mut proj_scalar,
                hdc::SimdArm::Scalar,
            );
            for (i, (x, y)) in proj.iter().zip(&proj_scalar).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "arm {} proj m {} dim {} slot {}",
                    arm, m, dim, i
                );
            }
        }
    }
}

/// Dimensions for the sign projection: one word, a ragged tail, the
/// golden shape and a multi-block ragged tail.
const SIGN_DIMS: [usize; 4] = [64, 100, 256, 1000];

/// The f64 reference the sign kernel must equal bit for bit.
fn reference_signs(book: &Codebook, weights: &[f64]) -> BipolarVector {
    let mut sums = vec![0.0f64; book.dim()];
    book.packed().weighted_sums_into(weights, &mut sums);
    let mut out = BipolarVector::ones(book.dim());
    out.assign_signs_of_reals(&sums);
    out
}

/// Checks every sign-projection entry point against the f64 reference and
/// returns whether the integer path ran.
fn check_sign_projection(book: &Codebook, weights: &[f64]) -> bool {
    let expect = reference_signs(book, weights);
    let dim = book.dim();
    if !dim.is_multiple_of(64) {
        let last = *expect.words().last().expect("non-empty");
        assert_eq!(last >> (dim % 64), 0, "reference padding bits");
    }
    let sentinel = BipolarVector::neg_ones(dim);
    let mut exact = sentinel.clone();
    let took = book.packed().try_project_signs_into(weights, &mut exact);
    if took {
        assert_eq!(exact, expect, "integer sign path");
        assert_eq!(exact.words(), expect.words(), "padding bits stay zero");
    } else {
        assert_eq!(exact, sentinel, "a refused weight set leaves out untouched");
    }
    let mut out = BipolarVector::random(dim, &mut rng_from_seed(1));
    let mut sums = vec![0.0f64; dim];
    book.packed()
        .project_signs_into(weights, &mut sums, &mut out);
    assert_eq!(out, expect, "project_signs_into");
    assert_eq!(book.project(weights), expect, "Codebook::project");
    assert_eq!(
        hdc::ops::weighted_bundle(book.vectors(), weights),
        expect,
        "weighted_bundle"
    );
    took
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sign_projection_matches_f64_on_integer_weights(
        m in 1usize..40,
        d in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Random integers with negatives and zeros.
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, SIGN_DIMS[d], &mut rng);
        let weights: Vec<f64> = (0..m)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                _ => rng.gen_range(0..9) as f64 - 4.0,
            })
            .collect();
        prop_assert!(check_sign_projection(&book, &weights), "integer weights must be exact");
    }

    #[test]
    fn sign_projection_matches_f64_on_adc_codes(
        m in 1usize..65,
        d in 0usize..4,
        active in 1usize..17,
        seed in 0u64..1000,
    ) {
        // `48·c`: the 4-bit ADC codes at D = 256 (step 3·√D).
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, SIGN_DIMS[d], &mut rng);
        let mut weights = vec![0.0f64; m];
        for _ in 0..active {
            weights[rng.gen_range(0..m)] = 48.0 * (rng.gen_range(0..15) as f64 - 7.0);
        }
        prop_assert!(check_sign_projection(&book, &weights), "ADC codes must be exact");
    }

    #[test]
    fn sign_projection_resolves_exact_ties_by_index_parity(
        pairs in 1usize..6,
        d in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Equal weights on an even number of rows: every element where
        // the rows split evenly sums to exactly zero. A zero-weight row
        // rides along.
        let mut rng = rng_from_seed(seed);
        let m = 2 * pairs + 1;
        let book = Codebook::random(m, SIGN_DIMS[d], &mut rng);
        let mut weights = vec![30.0f64; m];
        weights[m - 1] = 0.0;
        let mut sums = vec![0.0f64; book.dim()];
        book.packed().weighted_sums_into(&weights, &mut sums);
        prop_assert!(sums.contains(&0.0), "the construction must produce ties");
        prop_assert!(check_sign_projection(&book, &weights), "ties must stay exact");
        // Opposite-sign weights of equal size tie wherever the rows agree.
        let weights = [90.0, -90.0, 0.0];
        let book = Codebook::random(3, SIGN_DIMS[d], &mut rng);
        prop_assert!(check_sign_projection(&book, &weights), "opposed ties must stay exact");
        // All-zero weights: every element ties.
        prop_assert!(check_sign_projection(&book, &[0.0, -0.0, 0.0]));
    }

    #[test]
    fn sign_projection_falls_back_off_the_proof(
        m in 2usize..40,
        d in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, SIGN_DIMS[d], &mut rng);
        // Non-integer weights: the readout's noisy identity activation.
        let noisy: Vec<f64> = (0..m).map(|_| rng.gen_range(-8.0..8.0)).collect();
        prop_assert!(!check_sign_projection(&book, &noisy), "non-integer weights");
        // Integer weights whose plane adds exceed the cap: the `-1` keeps
        // the unit at 1, so every `127` costs seven plane adds.
        let dense = 127.0f64;
        let mut heavy = vec![dense; m];
        heavy[0] = -1.0;
        let rows_needed = hdc::SIGN_PROJECTION_MAX_PLANE_ADDS / 7 + 2;
        let book = if m < rows_needed {
            Codebook::random(rows_needed, SIGN_DIMS[d], &mut rng)
        } else {
            book
        };
        heavy.resize(book.len(), dense);
        prop_assert!(!check_sign_projection(&book, &heavy), "plane adds above the cap");
        // Non-finite weights and weights past 2^53.
        let mut odd = vec![0.0f64; book.len()];
        odd[0] = f64::NAN;
        prop_assert!(!check_sign_projection(&book, &odd), "NaN");
        odd[0] = 2f64.powi(53);
        prop_assert!(!check_sign_projection(&book, &odd), "2^53");
    }
}
