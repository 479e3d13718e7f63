//! Kernel performance harness: measures the packed-codebook MVM, the
//! batched bit-GEMM (per-B speedup table), the projection-regime
//! crossover, the bit-sliced sign projection, the lockstep resonator, the allocation-free iteration
//! round-trip, and the parallel batch executor against their
//! pre-optimization baselines, then writes a `BENCH_kernels.json`
//! summary so the perf trajectory is tracked from PR 2 onward.
//!
//! ```sh
//! cargo run --release -p h3dfact_bench --bin bench_kernels            # full
//! cargo run --release -p h3dfact_bench --bin bench_kernels -- --quick # CI smoke
//! ```
//!
//! The JSON records nanoseconds per operation for each variant, the
//! speedup ratios, and a provenance block (`target-cpu`, architecture,
//! word width, whether the Harley–Seal CSA path was taken) without which
//! cross-host numbers are not comparable. The harness **asserts** — in
//! `--quick` CI smoke runs too — that the batched bit-GEMM is
//! value-identical to the per-query kernels, that the integer sign
//! projection equals the f64 sums' signs, that the lockstep resonator
//! reproduces the sequential engine bit for bit, and that the parallel
//! batch report matches the sequential one.

use std::hint::black_box;
use std::time::Instant;

use h3dfact_bench::kernels;
use hdc::PackedCodebook;
use resonator::engine::Factorizer;

/// Median-of-runs wall time for one repetition of `f`, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up repetition, then three timed passes; report the median.
    f();
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[1]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mvm_reps = if quick { 200 } else { 3_000 };
    let iter_reps = if quick { 50 } else { 1_000 };
    let lockstep_reps = if quick { 2 } else { 10 };
    let batch_problems = if quick { 8 } else { 32 };

    let fx = kernels::fixture();

    // --- Provenance: without these, cross-host numbers are noise. ---
    let harley_seal = fx.book.packed().batch_uses_csa();
    let det = hdc::dispatch::detection();
    let forced = det
        .forced
        .map(|a| format!("\"{a}\""))
        .unwrap_or_else(|| "null".into());
    let provenance = format!(
        "  \"provenance\": {{\n    \"target_cpu\": \"{}\",\n    \"arch\": \"{}\",\n    \
         \"word_bits\": 64,\n    \"csa_block_words\": {},\n    \
         \"harley_seal_taken\": {harley_seal},\n    \
         \"simd_dispatch\": {{\n      \
         \"arm\": \"{}\",\n      \
         \"forced\": {forced},\n      \
         \"forced_unsupported\": {},\n      \
         \"detected\": {{ \"popcnt\": {}, \"avx2\": {}, \"avx512f\": {}, \
         \"avx512vpopcntdq\": {} }}\n    }}\n  }},\n",
        env!("H3DFACT_TARGET_CPU"),
        std::env::consts::ARCH,
        hdc::CSA_BLOCK_WORDS,
        det.arm,
        det.forced_unsupported,
        det.popcnt,
        det.avx2,
        det.avx512f,
        det.avx512vpopcntdq,
    );

    // --- Similarity MVM: per-vector baseline vs packed kernel. ---
    let mut out = vec![0.0f64; kernels::M];
    let pervector_ns = time_ns(mvm_reps, || {
        kernels::similarities_pervector(black_box(&fx), &mut out);
        black_box(out[kernels::M - 1]);
    });
    let packed_ns = time_ns(mvm_reps, || {
        kernels::similarities_packed(black_box(&fx), &mut out);
        black_box(out[kernels::M - 1]);
    });
    let mvm_speedup = pervector_ns / packed_ns;

    // --- Batched bit-GEMM: per-query packed loop vs the matrix–matrix
    //     kernel, per batch size and per dispatch regime (cache-resident
    //     M = 256 / D = 1024 and streaming M = 1024 / D = 8192), with a
    //     hard identity assert
    //     (the per-query path is the ground truth). ---
    let mut batched_identical = true;
    let mut speedup_b8 = 0.0f64;
    let mut regime_tables = String::new();
    for (m, d, label) in [
        (kernels::M, kernels::D, "resident"),
        (kernels::M_STREAMING, kernels::D_STREAMING, "streaming"),
    ] {
        let mut per_b_rows = String::new();
        for b in kernels::BATCH_SIZES {
            let bfx = kernels::batch_fixture(m, d, b);
            let mut per_query = vec![0.0f64; b * m];
            let mut batched = vec![0.0f64; b * m];
            kernels::similarities_perquery_loop(&bfx, &mut per_query);
            kernels::similarities_batched(&bfx, &mut batched);
            batched_identical &= per_query
                .iter()
                .zip(&batched)
                .all(|(p, q)| p.to_bits() == q.to_bits());
            let reps = (mvm_reps * kernels::M * kernels::D / (b * m * d)).max(8);
            let perquery_ns = time_ns(reps, || {
                kernels::similarities_perquery_loop(black_box(&bfx), &mut per_query);
                black_box(per_query[b * m - 1]);
            }) / b as f64;
            let batched_ns = time_ns(reps, || {
                kernels::similarities_batched(black_box(&bfx), &mut batched);
                black_box(batched[b * m - 1]);
            }) / b as f64;
            let speedup = perquery_ns / batched_ns;
            if b == 8 && d == kernels::D_STREAMING {
                speedup_b8 = speedup;
            }
            per_b_rows.push_str(&format!(
                "        {{ \"b\": {b}, \"perquery_ns_per_query\": {perquery_ns:.1}, \
                 \"batched_ns_per_query\": {batched_ns:.1}, \"speedup\": {speedup:.2} }},\n"
            ));
        }
        per_b_rows.pop();
        per_b_rows.pop();
        per_b_rows.push('\n');
        regime_tables.push_str(&format!(
            "    \"{label}_m{m}_d{d}\": {{\n      \"per_b\": [\n{per_b_rows}      ]\n    }},\n"
        ));
    }
    assert!(
        batched_identical,
        "batched similarity bit-GEMM diverged from the per-query kernel"
    );

    // --- Runtime dispatch arms: similarity + projection per supported
    //     arm, each hard-asserted bit-identical to the scalar arm (the
    //     portable ground truth) before it is timed. ---
    let arm_b = 8usize;
    let afx = kernels::batch_fixture(kernels::M, kernels::D, arm_b);
    let packed = afx.book.packed();
    // 15/16 of these weights are non-zero, pinning the dense projection
    // regime the dispatched accumulate exists for.
    let proj_weights: Vec<f64> = (0..arm_b * kernels::M)
        .map(|i| ((i % 16) as f64) - 7.0)
        .collect();
    let mut sims_ref = vec![0.0f64; arm_b * kernels::M];
    let mut proj_ref = vec![0.0f64; arm_b * kernels::D];
    packed.similarities_batch_into_forced(&afx.batch, &mut sims_ref, hdc::SimdArm::Scalar);
    packed.weighted_sums_batch_into_forced(&proj_weights, &mut proj_ref, hdc::SimdArm::Scalar);
    let arm_reps = (mvm_reps / arm_b).max(8);
    let mut arm_rows = String::new();
    let supported: Vec<hdc::SimdArm> = hdc::SimdArm::ALL
        .into_iter()
        .filter(|a| a.supported())
        .collect();
    for (k, &arm) in supported.iter().enumerate() {
        let mut sims = vec![0.0f64; arm_b * kernels::M];
        let mut proj = vec![0.0f64; arm_b * kernels::D];
        packed.similarities_batch_into_forced(&afx.batch, &mut sims, arm);
        packed.weighted_sums_batch_into_forced(&proj_weights, &mut proj, arm);
        let identical = sims
            .iter()
            .zip(&sims_ref)
            .chain(proj.iter().zip(&proj_ref))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "dispatch arm `{arm}` diverged from scalar");
        let sim_ns = time_ns(arm_reps, || {
            packed.similarities_batch_into_forced(black_box(&afx.batch), &mut sims, arm);
            black_box(sims[arm_b * kernels::M - 1]);
        }) / arm_b as f64;
        let proj_ns = time_ns(arm_reps, || {
            packed.weighted_sums_batch_into_forced(black_box(&proj_weights), &mut proj, arm);
            black_box(proj[arm_b * kernels::D - 1]);
        }) / arm_b as f64;
        arm_rows.push_str(&format!(
            "      {{ \"arm\": \"{arm}\", \"active\": {}, \
             \"sim_ns_per_query\": {sim_ns:.1}, \"proj_ns_per_query\": {proj_ns:.1}, \
             \"bit_identical_to_scalar\": {identical} }}{}\n",
            arm == det.arm,
            if k + 1 < supported.len() { "," } else { "" }
        ));
    }

    // --- Projection regime sweep: density vs wall time around the
    //     measured sparse/dense crossover constant. ---
    let mut sweep_rows = String::new();
    let mut sums = vec![0.0f64; kernels::D];
    let sweep_actives = [2usize, 8, 16, 32, 64, 128, 256];
    for (k, &active) in sweep_actives.iter().enumerate() {
        let weights = kernels::weights_with_active(active);
        let ns = time_ns(mvm_reps / 2, || {
            fx.book
                .packed()
                .weighted_sums_into(black_box(&weights), &mut sums);
            black_box(sums[kernels::D - 1]);
        });
        let sparse = PackedCodebook::sparse_projection_regime(active, kernels::M);
        sweep_rows.push_str(&format!(
            "      {{ \"active\": {active}, \"sparse_regime\": {sparse}, \"ns\": {ns:.1} }}{}\n",
            if k + 1 < sweep_actives.len() { "," } else { "" }
        ));
    }

    // --- Sign projection: the bit-sliced integer sign kernel vs the f64
    //     sums + sign readout it replaces, on ADC-code weights at D = 256,
    //     each point hard-asserted bit-identical before it is timed. ---
    let mut sign_rows = String::new();
    let mut sign_sums = vec![0.0f64; kernels::SIGN_D];
    let mut sign_ref = hdc::BipolarVector::ones(kernels::SIGN_D);
    let mut sign_out = hdc::BipolarVector::ones(kernels::SIGN_D);
    let sign_points: Vec<(usize, usize)> = [8usize, 48, 64]
        .into_iter()
        .flat_map(|m| {
            [1usize, 2, 4, 8, 16]
                .into_iter()
                .filter(move |&a| a <= m)
                .map(move |a| (m, a))
        })
        .collect();
    for (k, &(m, active)) in sign_points.iter().enumerate() {
        let (book, weights) = kernels::sign_projection_fixture(m, active);
        let packed = book.packed();
        packed.weighted_sums_into(&weights, &mut sign_sums);
        sign_ref.assign_signs_of_reals(&sign_sums);
        assert!(
            packed.try_project_signs_into(&weights, &mut sign_out),
            "ADC-code weights must take the integer sign path (m={m} active={active})"
        );
        assert_eq!(
            sign_out, sign_ref,
            "integer sign projection diverged from the f64 reference (m={m} active={active})"
        );
        let reps = mvm_reps * 4;
        let f64_ns = time_ns(reps, || {
            packed.weighted_sums_into(black_box(&weights), &mut sign_sums);
            sign_ref.assign_signs_of_reals(&sign_sums);
            black_box(sign_ref.words()[0]);
        });
        let sign_ns = time_ns(reps, || {
            packed.try_project_signs_into(black_box(&weights), &mut sign_out);
            black_box(sign_out.words()[0]);
        });
        sign_rows.push_str(&format!(
            "      {{ \"m\": {m}, \"active\": {active}, \"f64_ns\": {f64_ns:.1}, \
             \"sign_ns\": {sign_ns:.1}, \"speedup\": {:.2} }}{}\n",
            f64_ns / sign_ns,
            if k + 1 < sign_points.len() { "," } else { "" }
        ));
    }

    // --- Lockstep resonator: B sequential engine solves vs one lockstep
    //     batch at the same seeds, with a bit-identity assert. ---
    let (books, items, engine) = kernels::lockstep_fixture(8);
    let queries: Vec<(&hdc::BipolarVector, Option<&[usize]>)> = items
        .iter()
        .map(|i| (&i.query, i.truth.as_deref()))
        .collect();
    let mut seq_engine = engine;
    let mut lock_engine = seq_engine;
    seq_engine.set_run_cursor(0);
    let seq_outcomes: Vec<_> = items
        .iter()
        .map(|i| seq_engine.factorize_query(&books, &i.query, i.truth.as_deref()))
        .collect();
    lock_engine.set_run_cursor(0);
    let lock_outcomes = lock_engine.factorize_lockstep(&books, &queries);
    let lockstep_identical = seq_outcomes.iter().zip(&lock_outcomes).all(|(s, l)| {
        let (mut s, mut l) = (s.clone(), l.clone());
        s.times = Default::default();
        l.times = Default::default();
        s == l
    });
    assert!(
        lockstep_identical,
        "lockstep resonator diverged from the sequential engine"
    );
    let seq_lockstep_s = time_ns(lockstep_reps, || {
        seq_engine.set_run_cursor(0);
        for i in &items {
            black_box(seq_engine.factorize_query(&books, &i.query, i.truth.as_deref()));
        }
    }) / 1e9;
    let lock_lockstep_s = time_ns(lockstep_reps, || {
        lock_engine.set_run_cursor(0);
        black_box(lock_engine.factorize_lockstep(&books, &queries));
    }) / 1e9;
    let lockstep_speedup = seq_lockstep_s / lock_lockstep_s;

    // --- Iteration round-trip (similarity + projection + re-sign):
    //     allocating reference vs scratch-buffer path. ---
    let alloc_ns = time_ns(iter_reps, || {
        black_box(kernels::iteration_allocating(black_box(&fx)));
    });
    let mut scratch = kernels::iteration_scratch();
    let allocfree_ns = time_ns(iter_reps, || {
        kernels::iteration_allocfree(black_box(&fx), &mut scratch);
        black_box(scratch.estimate.words()[0]);
    });
    let iter_speedup = alloc_ns / allocfree_ns;

    // --- Work-stealing batch executor: thread-scaling curve, every
    //     thread count asserted bit-identical to sequential. Wall-clock
    //     speedup is only meaningful on multi-core hosts; the identity
    //     contract holds everywhere. ---
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let steals_before = h3dfact::session::executor_steal_events();
    let mut seq = kernels::batch_session(1, 1_000);
    let t0 = Instant::now();
    let seq_report = seq.run(batch_problems);
    let seq_s = t0.elapsed().as_secs_f64();
    let mut identical = true;
    let mut par_s = seq_s;
    let thread_counts = [2usize, 4, 8];
    let mut scaling_rows = format!(
        "      {{ \"threads\": 1, \"wall_s\": {seq_s:.4}, \"speedup\": 1.00, \
         \"bit_identical_to_sequential\": true }},\n"
    );
    for (k, &threads) in thread_counts.iter().enumerate() {
        let mut par = kernels::batch_session(threads, 1_000);
        let t1 = Instant::now();
        let par_report = par.run(batch_problems);
        let wall_s = t1.elapsed().as_secs_f64();
        if threads == 4 {
            par_s = wall_s;
        }
        let same = seq_report.problems == par_report.problems
            && seq_report.solved == par_report.solved
            && seq_report.total_iterations == par_report.total_iterations
            && seq_report.total_energy_j == par_report.total_energy_j
            && seq_report
                .outcomes
                .iter()
                .zip(&par_report.outcomes)
                .all(|(a, b)| a.decoded == b.decoded && a.iterations == b.iterations);
        identical &= same;
        scaling_rows.push_str(&format!(
            "      {{ \"threads\": {threads}, \"wall_s\": {wall_s:.4}, \
             \"speedup\": {:.2}, \"bit_identical_to_sequential\": {same} }}{}\n",
            seq_s / wall_s,
            if k + 1 < thread_counts.len() { "," } else { "" }
        ));
    }
    let steal_events = h3dfact::session::executor_steal_events() - steals_before;
    let batch_speedup = seq_s / par_s;

    let json = format!(
        "{{\n  \"bench\": \"kernels_packed\",\n  \"quick\": {quick},\n  \
         \"host_available_parallelism\": {cores},\n\
         {provenance}  \
         \"similarity_mvm_m256_d1024\": {{\n    \
         \"pervector_ns\": {pervector_ns:.1},\n    \
         \"packed_ns\": {packed_ns:.1},\n    \
         \"speedup\": {mvm_speedup:.2}\n  }},\n  \
         \"batched_similarity_mvm\": {{\n    \
         \"batched_bit_identical\": {batched_identical},\n    \
         \"speedup_b8_streaming\": {speedup_b8:.2},\n\
         {regime_tables}    \
         \"note\": \"streaming = codebook past the cache-residency threshold, the regime the bit-GEMM exists for\"\n  }},\n  \
         \"dispatch_arms_m256_d1024_b8\": {{\n    \
         \"arms\": [\n{arm_rows}    ],\n    \
         \"note\": \"per runtime-dispatch arm; identity vs the scalar arm is hard-asserted before timing\"\n  }},\n  \
         \"projection_regime_sweep_m256_d1024\": {{\n    \
         \"sparse_dense_crossover\": {crossover},\n    \
         \"points\": [\n{sweep_rows}    ]\n  }},\n  \
         \"sign_projection_d256\": {{\n    \
         \"max_plane_adds\": {max_plane_adds},\n    \
         \"points\": [\n{sign_rows}    ],\n    \
         \"note\": \"48·c ADC-code weights; identity vs weighted_sums_into + assign_signs_of_reals is hard-asserted before timing\"\n  }},\n  \
         \"lockstep_resonator_f3_m8_d256\": {{\n    \
         \"problems\": 8,\n    \
         \"sequential_s\": {seq_lockstep_s:.5},\n    \
         \"lockstep_s\": {lock_lockstep_s:.5},\n    \
         \"speedup\": {lockstep_speedup:.2},\n    \
         \"outcomes_bit_identical\": {lockstep_identical}\n  }},\n  \
         \"iteration_roundtrip_m256_d1024\": {{\n    \
         \"allocating_ns\": {alloc_ns:.1},\n    \
         \"allocfree_ns\": {allocfree_ns:.1},\n    \
         \"speedup\": {iter_speedup:.2}\n  }},\n  \
         \"batch_executor_f3_m8_d256\": {{\n    \
         \"problems\": {batch_problems},\n    \
         \"sequential_s\": {seq_s:.4},\n    \
         \"threads4_s\": {par_s:.4},\n    \
         \"speedup\": {batch_speedup:.2},\n    \
         \"steal_events\": {steal_events},\n    \
         \"multi_core_host\": {multi_core},\n    \
         \"thread_scaling\": [\n{scaling_rows}    ],\n    \
         \"note\": \"speedup figures are meaningful only when multi_core_host; identity holds regardless\",\n    \
         \"reports_bit_identical\": {identical},\n    \
         \"accuracy\": {:.4}\n  }}\n}}\n",
        seq_report.accuracy(),
        crossover = hdc::SPARSE_DENSE_CROSSOVER,
        max_plane_adds = hdc::SIGN_PROJECTION_MAX_PLANE_ADDS,
        multi_core = cores > 1,
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    print!("{json}");
    assert!(identical, "parallel batch report diverged from sequential");
}
