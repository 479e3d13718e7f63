//! Packed codebook matrix kernels: the cache-friendly hot path behind the
//! resonator's two MVMs.
//!
//! A [`crate::Codebook`] stores its item vectors as separate
//! [`BipolarVector`]s — convenient for the algebra, but every similarity
//! MVM then chases `M` separate heap allocations. [`PackedCodebook`] lays
//! all `M` codevectors' `u64` words out **row-major in one contiguous
//! buffer**, so the similarity MVM (`a = Xᵀ q`) streams memory linearly and
//! the projection MVM (`r = X a`) walks set bits of each row exactly once.
//!
//! # Kernel contract
//!
//! All kernels write into caller-provided output slices and allocate
//! nothing. Callers own the scratch:
//!
//! - [`PackedCodebook::similarities_into`] / `similarities_i64_into` —
//!   `out.len() == len()` (`M` dot products).
//! - [`PackedCodebook::weighted_sums_into`] — `out.len() == dim()` (`D`
//!   pre-sign projection sums).
//! - [`PackedCodebook::similarities_batch_into`] /
//!   [`PackedCodebook::weighted_sums_batch_into`] — the matrix–matrix
//!   forms over a [`PackedBatch`] of `B` queries, **value-identical** to
//!   `B` calls of the per-query kernels (exact integers / identical
//!   floating-point evaluation order per query).
//! - [`PackedCodebook::try_project_signs_into`] /
//!   [`PackedCodebook::project_signs_into`] — the projection's signs
//!   straight into a [`BipolarVector`], by bit-sliced integer counters
//!   where that is proven exact (the fallback takes a `D`-long `f64`
//!   scratch).
//!
//! # Blocking
//!
//! The similarity MVM processes rows in lane-major blocks of eight
//! ([`LANE_BLOCK`]): each query word is broadcast against one contiguous
//! load of eight rows' words, and the eight partial counts accumulate in
//! independent SIMD lanes with no horizontal reduction inside the loop.
//! The projection MVM skips zero-weight rows entirely (the common case
//! after the sparsifying ADC activation), iterating only the set bits of
//! active rows when few are active and falling back to a branchless dense
//! unpack otherwise, recovering the signed sum as `2·(Σ_{set} w) − Σ w`
//! per element.
//!
//! The batched similarity MVM is a cache-blocked bit-GEMM: the codebook is
//! tiled into [`LANE_BLOCK`]-row strips, each strip is streamed once and
//! reused across all `B` query columns while it is hot in L1, and the
//! per-(row, query) popcount reduction is supplied by the runtime kernel
//! table of [`crate::dispatch`] — explicit AVX-512 `vpopcntq` tiles or an
//! AVX2 Harley–Seal carry-save tree when the host has them, the portable
//! scalar tile/tree otherwise. Every arm is exact-integer and
//! bit-identical (see the dispatch module docs for the contract), so the
//! selection affects latency only. The `*_forced` kernel variants pin a
//! specific [`SimdArm`] for tests and benches.

use serde::{Deserialize, Serialize};

use crate::bipolar::BipolarVector;
use crate::dispatch::{self, KernelTable, Reduction, SimdArm, STRIP_LANES, TILE_COLS};

pub use crate::dispatch::CSA_BLOCK_WORDS;

/// Number of elements packed into one storage word.
const WORD_BITS: usize = 64;

/// How many codevector rows share one SIMD accumulation block in the
/// lane-major similarity kernel (one dispatch-table strip).
const LANE_BLOCK: usize = STRIP_LANES;

/// Words per projection cache block: the dense batched projection tiles
/// its output in [`PROJ_BLOCK_WORDS`]`·64` elements (16 words → 1024
/// `f64` slots → 8 KiB) so the output block stays L1-resident across the
/// whole row sweep instead of re-streaming a `D`-sized accumulator per
/// row — the projection-side analogue of the similarity bit-GEMM's strip
/// blocking. Per-element accumulation order (ascending `j`) is unchanged
/// by the tiling, so outputs stay bit-identical.
const PROJ_BLOCK_WORDS: usize = 16;

/// Codebook footprint (lane-mirror bytes) above which the batched
/// similarity kernel switches from single-column to
/// [`GEMM_COLS`]-column tiles. Measured on the bench host
/// (`target-cpu=native`, AVX-512): while the codebook is L1/L2-resident
/// (≤ 64 KiB) the per-query walk is compute-bound and the wider tile's
/// extra broadcasts cost ~1.3×, but once per-query re-streaming spills
/// past L2 the four-column tile cuts codebook traffic 4× and measures
/// 1.8–2.2× faster (M = 256–1024, D = 4096–8192, B = 8). 96 KiB sits
/// between the last resident shape (64 KiB, parity) and the first
/// streaming one (128 KiB, 1.8×).
const GEMM_STREAM_BYTES: usize = 96 * 1024;

/// Sparse/dense crossover of the projection kernel, as the maximum
/// active-row fraction (`active · CROSSOVER ≤ M`) still served by the
/// set-bit walk.
///
/// Measured on the 1-core bench host (see `bench_kernels`'s
/// `projection_regime_sweep`, M = 256, D = 1024, `target-cpu=native`):
/// the set-bit walk costs ~`D/2` data-dependent scalar adds per active
/// row, the branchless unpack ~`D` SIMD-friendly multiply-adds per
/// active row but with no branch misses, and the two curves cross
/// between 1/16 and 1/4 active fraction depending on host
/// vectorization. 1/8 sits at the crossing's midpoint and is never more
/// than ~15 % off either side's optimum, so the kernel switches to the
/// dense unpack once more than `M / 8` rows are active. Exposed (with
/// [`PackedCodebook::sparse_projection_regime`]) so the bench harness
/// can sweep densities against the constant rather than hard-coding its
/// own copy.
pub const SPARSE_DENSE_CROSSOVER: usize = 8;

/// Most plane adds (`Σ_j popcount|c_j|`, see
/// [`PackedCodebook::try_project_signs_into`]) the bit-sliced sign
/// projection takes on before it leaves the weight set to the `f64` path.
///
/// Each plane add ripples one row word through up to `bits(C)` counter
/// planes, so the integer path's cost grows with the plane adds while the
/// `f64` path's grows with the active rows. Measured at `D = 256` on a
/// 2-vCPU AVX-512 VM (2.1 GHz, `target-cpu=native`), with the cap lifted,
/// against `weighted_sums_into` + `assign_signs_of_reals`:
///
/// - ADC codes `48·c`, `|c| ≤ 7`: 1.5–4× faster up to ~55 plane adds,
///   1.0–1.1× at 107–213, 0.85–0.9× at ~440;
/// - raw similarity dots (identity activation): 1.1–1.4× at 25–95,
///   0.83–1.0× at 76–160, 0.85× at ~440.
///
/// The curves cross between ~80 and ~150 plane adds; 96 sits in that
/// band. The paper-default sparse readout (`capacity-sw`, M = 64) needs
/// ~10–30, so it always takes the integer path; dense identity-activation
/// baselines fall back. The cap also sizes the kernel's stack lists.
pub const SIGN_PROJECTION_MAX_PLANE_ADDS: usize = 96;

/// `2^53`: every integer of smaller magnitude is exact in `f64`.
const F64_EXACT_INTS: f64 = 9_007_199_254_740_992.0;

/// Counter planes the bit-sliced sign projection may need: the code total
/// `C` is below `2^53`, so every per-element count fits in 53 bits.
const SIGN_PLANES: usize = 53;

/// Output words the bit-sliced sign projection advances together (one
/// 256-bit vector of counter lanes; `D = 256` is one block).
const SIGN_BLOCK_WORDS: usize = 4;

/// The bits of a word at even element indices — the reference sign
/// readout's tie rule ([`BipolarVector::assign_signs_of_reals`]).
const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// All `M` codevectors of one codebook in contiguous word buffers, with
/// allocation-free popcount MVM kernels.
///
/// Up to two mirrors of the same bits are kept:
///
/// - **row-major** (`words[j·W .. (j+1)·W]` is row `j`) — always present;
///   used by [`PackedCodebook::row`], per-row dots, and the projection
///   kernel;
/// - **lane-major** (`lane_words[i·M + j]` is word `i` of row `j`) — used
///   by the similarity MVM so that eight consecutive rows' partial counts
///   accumulate in independent SIMD lanes with a single contiguous load
///   per word position and no horizontal reductions inside the loop.
///
/// The lane-major mirror is **optional**: [`Self::from_vectors`] builds
/// both mirrors, [`Self::from_vectors_row_major`] only the row-major
/// one, and [`Self::drop_lane_mirror`] /
/// [`Self::materialize_lane_mirror`] move between the two states (the
/// codebook registry's cold and hot tiers). Every kernel is
/// **value-identical** in either state — all similarity outputs are
/// exact integers in `[-D, D]` with a unique `f64` representation, so
/// the per-row fallback taken when the mirror is absent produces the
/// same bits as the lane-major walk, just without its locality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCodebook {
    len: usize,
    dim: usize,
    words_per_row: usize,
    words: Vec<u64>,
    lane_words: Vec<u64>,
}

impl PackedCodebook {
    /// Packs `vectors` (all of one dimension) into both contiguous
    /// layouts (row-major + lane-major).
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions disagree.
    pub fn from_vectors(vectors: &[BipolarVector]) -> Self {
        let mut packed = Self::from_vectors_row_major(vectors);
        packed.materialize_lane_mirror();
        packed
    }

    /// Packs `vectors` row-major only, leaving the lane-major mirror
    /// unmaterialized — the cold-tier representation of the codebook
    /// registry. Every kernel stays available and value-identical; the
    /// similarity paths take the per-row walk until
    /// [`Self::materialize_lane_mirror`] builds the mirror.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions disagree.
    pub fn from_vectors_row_major(vectors: &[BipolarVector]) -> Self {
        assert!(!vectors.is_empty(), "packed codebook must be non-empty");
        let dim = vectors[0].dim();
        let words_per_row = dim.div_ceil(WORD_BITS);
        let m = vectors.len();
        let mut words = Vec::with_capacity(m * words_per_row);
        for v in vectors {
            assert_eq!(v.dim(), dim, "packed codebook vectors must share dim");
            words.extend_from_slice(v.words());
        }
        Self {
            len: m,
            dim,
            words_per_row,
            words,
            lane_words: Vec::new(),
        }
    }

    /// Builds the lane-major mirror from the row-major words (no-op when
    /// already present). This is the hot-tier promotion step of the
    /// codebook registry; kernel outputs are bit-identical before and
    /// after.
    pub fn materialize_lane_mirror(&mut self) {
        if !self.lane_words.is_empty() {
            return;
        }
        let m = self.len;
        let mut lane_words = vec![0u64; m * self.words_per_row];
        for j in 0..m {
            for (i, &w) in self.row(j).iter().enumerate() {
                lane_words[i * m + j] = w;
            }
        }
        self.lane_words = lane_words;
    }

    /// Drops the lane-major mirror, keeping only the row-major words —
    /// the hot→cold demotion step of the codebook registry. Kernel
    /// outputs are bit-identical before and after; the similarity paths
    /// fall back to the per-row walk until the mirror is rebuilt.
    pub fn drop_lane_mirror(&mut self) {
        self.lane_words = Vec::new();
    }

    /// True when the lane-major mirror is materialized.
    pub fn has_lane_mirror(&self) -> bool {
        !self.lane_words.is_empty()
    }

    /// Bytes held by the row-major words (always resident).
    pub fn row_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Bytes currently held by the lane-major mirror (0 when absent;
    /// equal to [`Self::row_bytes`] when materialized).
    pub fn lane_mirror_bytes(&self) -> usize {
        self.lane_words.len() * std::mem::size_of::<u64>()
    }

    /// Number of rows (codevectors) `M`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: packed codebooks are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hypervector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per packed row (`ceil(D / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Borrows the packed words of row `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    #[inline]
    pub fn row(&self, j: usize) -> &[u64] {
        &self.words[j * self.words_per_row..(j + 1) * self.words_per_row]
    }

    /// Dot product of row `j` with `query` (exact, via XOR-popcount).
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()` or the query dimension differs.
    #[inline]
    pub fn dot_row(&self, j: usize, query: &BipolarVector) -> i64 {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let k = dispatch::active();
        self.dim as i64 - 2 * (k.disagreement)(self.row(j), query.words()) as i64
    }

    /// Similarity MVM `a = Xᵀ q` into `out` as `f64` (values are exact
    /// integers in `[-D, D]`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()` or the query dimension differs.
    pub fn similarities_into(&self, query: &BipolarVector, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        self.similarities_words_into(query.words(), out, dispatch::active());
    }

    /// [`PackedCodebook::similarities_into`] pinned to one dispatch arm —
    /// the per-arm bit-identity probe used by tests and the bench
    /// harness.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm` (callers filter with
    /// [`SimdArm::supported`]), plus the usual shape panics.
    pub fn similarities_into_forced(&self, query: &BipolarVector, out: &mut [f64], arm: SimdArm) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        self.similarities_words_into(query.words(), out, forced_table(arm));
    }

    /// The per-query similarity kernel over raw packed words — shared by
    /// [`PackedCodebook::similarities_into`] and the batched kernel's
    /// cache-resident regime so the two can never diverge in value or
    /// code path.
    fn similarities_words_into(&self, q: &[u64], out: &mut [f64], k: &KernelTable) {
        let d = self.dim as i64;
        let m = self.len;
        if self.lane_words.is_empty() {
            // Cold (row-major-only) codebooks: the per-row walk over the
            // same packed bits. Every similarity is the same exact
            // integer either way, so this fallback is bit-identical to
            // the lane-major path — it only trades the blocked locality.
            for (j, o) in out.iter_mut().enumerate() {
                *o = (d - 2 * (k.disagreement)(self.row(j), q) as i64) as f64;
            }
            return;
        }
        let mut j = 0;
        // Lane-major blocks: each pass keeps LANE_BLOCK row counters in
        // independent lanes; every word position contributes one
        // contiguous LANE_BLOCK-wide load XOR'd against the broadcast
        // query word — no horizontal reduction until the block finishes.
        while j + LANE_BLOCK <= m {
            let counts = (k.strip8)(&self.lane_words, m, q.len(), j, q);
            for (o, &c) in out[j..j + LANE_BLOCK].iter_mut().zip(&counts) {
                *o = (d - 2 * c as i64) as f64;
            }
            j += LANE_BLOCK;
        }
        while j < m {
            out[j] = (d - 2 * (k.disagreement)(self.row(j), q) as i64) as f64;
            j += 1;
        }
    }

    /// Similarity MVM `a = Xᵀ q` into `out` as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()` or the query dimension differs.
    pub fn similarities_i64_into(&self, query: &BipolarVector, out: &mut [i64]) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let k = dispatch::active();
        let q = query.words();
        let d = self.dim as i64;
        for (j, o) in out.iter_mut().enumerate() {
            *o = d - 2 * (k.disagreement)(self.row(j), q) as i64;
        }
    }

    /// Projection MVM `r = X a` into `out`: `out[i] = Σ_j w_j · x_{j,i}`.
    ///
    /// Zero-weight rows are skipped (free sparsity after the quantizing
    /// activation); active rows contribute `+w` on set bits only and the
    /// signed sum is recovered as `2·acc − Σ w` per element.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()` or `weights.len() != len()`.
    pub fn weighted_sums_into(&self, weights: &[f64], out: &mut [f64]) {
        self.weighted_sums_into_k(weights, out, dispatch::active());
    }

    /// [`PackedCodebook::weighted_sums_into`] pinned to one dispatch arm
    /// (see [`PackedCodebook::similarities_into_forced`]).
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm`, plus the usual shape
    /// panics.
    pub fn weighted_sums_into_forced(&self, weights: &[f64], out: &mut [f64], arm: SimdArm) {
        self.weighted_sums_into_k(weights, out, forced_table(arm));
    }

    fn weighted_sums_into_k(&self, weights: &[f64], out: &mut [f64], k: &KernelTable) {
        assert_eq!(out.len(), self.dim, "projection output length mismatch");
        assert_eq!(weights.len(), self.len, "weight count mismatch");
        out.fill(0.0);
        let active = weights.iter().filter(|&&w| w != 0.0).count();
        let mut total = 0.0f64;
        if Self::sparse_projection_regime(active, self.len) {
            // Sparse regime (typical after the quantizing activation):
            // iterate only the set bits of the few active rows — no
            // dispatched variant exists (or could win): the walk is
            // data-dependent scalar pointer chasing by design.
            for (j, &wj) in weights.iter().enumerate() {
                total += wj;
                if wj == 0.0 {
                    continue;
                }
                accumulate_set_bits(self.row(j), wj, out);
            }
        } else {
            // Dense regime: the dispatched bit-unpack accumulate —
            // masked SIMD adds on the explicit arms, the branchless
            // select on the scalar arm. Every arm accumulates
            // element-wise identically (adding a masked `wj` vs `wj·1`,
            // nothing vs `wj·0`), so the arm choice cannot move outputs.
            for (j, &wj) in weights.iter().enumerate() {
                total += wj;
                if wj == 0.0 {
                    continue;
                }
                (k.dense_accum)(self.row(j), wj, out);
            }
        }
        for o in out.iter_mut() {
            *o = 2.0 * *o - total;
        }
    }

    /// Sign projection `out = sign(X a)` by exact integer arithmetic,
    /// when that is proven to equal the `f64` reference
    /// ([`PackedCodebook::weighted_sums_into`] then
    /// [`BipolarVector::assign_signs_of_reals`]) bit for bit. Returns
    /// `false`, leaving `out` untouched, when it is not.
    ///
    /// The integer path runs when every non-zero weight is an integer
    /// `w_j = c_j·q` of one integer unit `q` (the gcd of the `|w_j|`),
    /// `Σ|w_j| < 2^53`, and the plane-add count `Σ popcount|c_j|` is at
    /// most [`SIGN_PROJECTION_MAX_PLANE_ADDS`]. Every term and partial sum
    /// of the reference is then an exact integer, so its sign is the sign
    /// of the integer sum `q·(2A − C)`, where `C = Σ|c_j|` and `A` counts,
    /// per element, `|c_j|` for every row that agrees with the sign of
    /// `c_j`. `A` is accumulated in vertical (bit-sliced) counters over
    /// `u64` words (row `j`, or `!row` when `c_j < 0`, ripple-added once
    /// per set bit of `|c_j|` at that bit's plane), then compared
    /// bit-sliced against `⌊C/2⌋`. An exact zero (`2A = C`) takes the reference's
    /// even-index rule.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != len()` or `out.dim() != dim()`.
    pub fn try_project_signs_into(&self, weights: &[f64], out: &mut BipolarVector) -> bool {
        assert_eq!(weights.len(), self.len, "weight count mismatch");
        assert_eq!(out.dim(), self.dim, "projection output dimension mismatch");
        project_signs_exact(|j| self.row(j), weights, out)
    }

    /// Sign projection `out = sign(X a)`, bit-identical to
    /// [`PackedCodebook::weighted_sums_into`] then
    /// [`BipolarVector::assign_signs_of_reals`]: the integer path of
    /// [`PackedCodebook::try_project_signs_into`] where it is proven
    /// exact, that `f64` reference through `sums` otherwise (its contents
    /// are unspecified afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != len()`, `out.dim() != dim()`, or —
    /// when the `f64` path runs — `sums.len() != dim()`.
    pub fn project_signs_into(&self, weights: &[f64], sums: &mut [f64], out: &mut BipolarVector) {
        if !self.try_project_signs_into(weights, out) {
            self.weighted_sums_into(weights, sums);
            out.assign_signs_of_reals(sums);
        }
    }

    /// True when `active` non-zero weights over `rows` codebook rows are
    /// served by the sparse set-bit walk rather than the dense branchless
    /// unpack (see [`SPARSE_DENSE_CROSSOVER`] for the measurement behind
    /// the constant). This is the single regime decision shared by
    /// [`PackedCodebook::weighted_sums_into`] and
    /// [`PackedCodebook::weighted_sums_batch_into`], exposed so the bench
    /// harness can sweep densities against it.
    #[inline]
    pub fn sparse_projection_regime(active: usize, rows: usize) -> bool {
        active * SPARSE_DENSE_CROSSOVER <= rows
    }

    /// True when the batched similarity kernel reduces this codebook
    /// through a Harley–Seal CSA tree: the **runtime-selected** dispatch
    /// arm reduces by carry-save tree (scalar arm without native vector
    /// popcount, or the explicit AVX2 arm — see [`crate::dispatch`]) and
    /// the rows span at least one [`CSA_BLOCK_WORDS`] block (`D ≥ 1024`).
    /// On vector-popcount arms, and for shorter rows, the per-word
    /// popcount tile runs instead. Recorded in bench provenance so
    /// cross-host numbers are comparable.
    pub fn batch_uses_csa(&self) -> bool {
        dispatch::active().reduction == Reduction::CsaTree && self.words_per_row >= CSA_BLOCK_WORDS
    }

    /// True when this codebook's lane mirror (materialized or not — the
    /// mirror has exactly the row-major footprint) exceeds the
    /// cache-residency threshold ([`GEMM_STREAM_BYTES`]), putting the
    /// batched similarity kernel in its wide-tile streaming regime. The
    /// codebook registry uses the same predicate to decide which members
    /// are worth a hot-tier lane mirror at all.
    pub fn batch_streams_codebook(&self) -> bool {
        self.words.len() * std::mem::size_of::<u64>() > GEMM_STREAM_BYTES
    }

    /// Batched similarity MVM `A = Xᵀ Q`: the dot products of every
    /// codebook row with every query of `batch`, written query-major into
    /// `out` (`out[b·M + j]` is row `j` against query `b`, an exact
    /// integer in `[-D, D]`) — **value-identical** to `batch.len()` calls
    /// of [`PackedCodebook::similarities_into`].
    ///
    /// This is the cache-blocked bit-GEMM: the lane-major mirror is tiled
    /// into [`LANE_BLOCK`]-row strips, each strip streamed once and
    /// reused across all `B` query columns while hot in L1 (the per-query
    /// path re-streams the whole codebook per query), and each
    /// (strip, query) pair reduces through the runtime-dispatched strip
    /// kernel — vector-popcount tile or Harley–Seal carry-save tree per
    /// the selected arm (see [`crate::dispatch`]). Rows past the last
    /// full strip fall back to the per-row path.
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim() != dim()` or
    /// `out.len() != batch.len() * len()`.
    pub fn similarities_batch_into(&self, batch: &PackedBatch, out: &mut [f64]) {
        self.similarities_batch_into_k(batch, out, dispatch::active());
    }

    /// [`PackedCodebook::similarities_batch_into`] pinned to one dispatch
    /// arm (see [`PackedCodebook::similarities_into_forced`]).
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm`, plus the usual shape
    /// panics.
    pub fn similarities_batch_into_forced(
        &self,
        batch: &PackedBatch,
        out: &mut [f64],
        arm: SimdArm,
    ) {
        self.similarities_batch_into_k(batch, out, forced_table(arm));
    }

    fn similarities_batch_into_k(&self, batch: &PackedBatch, out: &mut [f64], k: &KernelTable) {
        assert_eq!(batch.dim(), self.dim, "batch dimension mismatch");
        let m = self.len;
        let w = self.words_per_row;
        let bn = batch.len();
        assert_eq!(out.len(), bn * m, "batch similarity output length mismatch");
        let d = self.dim as f64;
        // `out` accumulates exact integer disagreement counts as `f64`
        // (all partial sums stay far below 2^53) and is finalized to
        // `D − 2·count` at the end — bit-identical to the per-query
        // kernel's `(d − 2·c) as f64` since every value is an integer
        // with one `f64` representation.
        let use_csa = k.reduction == Reduction::CsaTree && w >= CSA_BLOCK_WORDS;
        if self.lane_words.is_empty() || (!use_csa && !self.batch_streams_codebook()) {
            // Cache-resident regime on vector-popcount arms — or a
            // cold (row-major-only) codebook whose lane mirror the
            // strip kernels would need: the batch is exactly `B`
            // per-query passes — same code path as the per-query entry
            // point, bit-identical by construction.
            for b in 0..bn {
                self.similarities_words_into(batch.query_words(b), &mut out[b * m..(b + 1) * m], k);
            }
            return;
        }
        out.fill(0.0);
        let mut j = 0;
        while j + LANE_BLOCK <= m {
            if use_csa {
                // CSA-tree arms: one Harley–Seal tree per query column
                // (five popcounts per block of 16 words instead of
                // sixteen).
                for b in 0..bn {
                    let counts = (k.strip8)(&self.lane_words, m, w, j, batch.query_words(b));
                    for (l, &c) in counts.iter().enumerate() {
                        out[b * m + j + l] += c as f64;
                    }
                }
            } else {
                // Streaming codebooks on vector-popcount arms: advance
                // TILE_COLS query columns per pass so each strip load —
                // and the whole codebook pass — amortizes across the
                // tile.
                let mut b = 0;
                while b + TILE_COLS <= bn {
                    let qs: [&[u64]; TILE_COLS] = std::array::from_fn(|c| batch.query_words(b + c));
                    let counts = (k.strip8x4)(&self.lane_words, m, w, j, &qs);
                    for (c, col) in counts.iter().enumerate() {
                        for (l, &cnt) in col.iter().enumerate() {
                            out[(b + c) * m + j + l] += cnt as f64;
                        }
                    }
                    b += TILE_COLS;
                }
                while b < bn {
                    let counts = (k.strip8)(&self.lane_words, m, w, j, batch.query_words(b));
                    for (l, &c) in counts.iter().enumerate() {
                        out[b * m + j + l] += c as f64;
                    }
                    b += 1;
                }
            }
            j += LANE_BLOCK;
        }
        // Rows past the last full strip: per-row row-major path.
        while j < m {
            let row = self.row(j);
            for b in 0..bn {
                out[b * m + j] = (k.disagreement)(row, batch.query_words(b)) as f64;
            }
            j += 1;
        }
        for o in out.iter_mut() {
            *o = d - 2.0 * *o;
        }
    }

    /// Batched projection MVM: for each query `b`,
    /// `out[b·D + i] = Σ_j weights[b·M + j] · x_{j,i}` — **bit-identical**
    /// (same per-query regime choice, same per-element accumulation
    /// order) to `B` calls of [`PackedCodebook::weighted_sums_into`].
    ///
    /// `weights` is query-major `B × M`, `out` query-major `B × D`, with
    /// `B` inferred from `weights.len() / len()`. Sparse-regime queries
    /// run the per-query set-bit walk (they touch few rows by
    /// definition); dense-regime queries run the cache-blocked dispatched
    /// bit-GEMM: the output is tiled into [`PROJ_BLOCK_WORDS`]-word
    /// blocks (8 KiB of `f64` per query) and, per block, every active
    /// row's word slice feeds the dispatched dense-accumulate — so the
    /// output block stays L1-resident across the whole `M`-row sweep and
    /// each row contributes one short contiguous load per block instead
    /// of a `D`-wide accumulator walk. Per-element accumulation order
    /// (ascending `j`) is unchanged by the tiling, keeping outputs
    /// bit-identical to the per-query kernel. Like the per-query kernels
    /// it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` is not a positive multiple of `len()` or
    /// `out.len()` is not the matching multiple of `dim()`.
    pub fn weighted_sums_batch_into(&self, weights: &[f64], out: &mut [f64]) {
        self.weighted_sums_batch_into_k(weights, out, dispatch::active());
    }

    /// [`PackedCodebook::weighted_sums_batch_into`] pinned to one
    /// dispatch arm (see [`PackedCodebook::similarities_into_forced`]).
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm`, plus the usual shape
    /// panics.
    pub fn weighted_sums_batch_into_forced(&self, weights: &[f64], out: &mut [f64], arm: SimdArm) {
        self.weighted_sums_batch_into_k(weights, out, forced_table(arm));
    }

    fn weighted_sums_batch_into_k(&self, weights: &[f64], out: &mut [f64], k: &KernelTable) {
        let m = self.len;
        let d = self.dim;
        assert!(
            !weights.is_empty() && weights.len().is_multiple_of(m),
            "batch weight count {} not a positive multiple of rows {m}",
            weights.len()
        );
        let bn = weights.len() / m;
        assert_eq!(out.len(), bn * d, "batch projection output length mismatch");
        out.fill(0.0);
        let w = self.words_per_row;
        // Queries in chunks of 64 so their regime flags fit one word: no
        // per-call allocation, one flag computation per query.
        for c0 in (0..bn).step_by(64) {
            let c1 = (c0 + 64).min(bn);
            let mut dense = 0u64;
            for b in c0..c1 {
                let wb = &weights[b * m..(b + 1) * m];
                let active = wb.iter().filter(|&&w| w != 0.0).count();
                if !Self::sparse_projection_regime(active, m) {
                    dense |= 1 << (b - c0);
                    continue;
                }
                let ob = &mut out[b * d..(b + 1) * d];
                for (j, &wj) in wb.iter().enumerate() {
                    if wj == 0.0 {
                        continue;
                    }
                    accumulate_set_bits(self.row(j), wj, ob);
                }
            }
            if dense == 0 {
                continue;
            }
            // Dim-blocked dispatched bit-GEMM: block outer so each 8 KiB
            // output tile is revisited by every row while L1-hot; `j`
            // stays the innermost *ordering* per element, so each
            // out-element sees the same addition sequence as the
            // per-query kernel.
            let mut w0 = 0;
            while w0 < w {
                let w1 = (w0 + PROJ_BLOCK_WORDS).min(w);
                let e0 = w0 * WORD_BITS;
                let e1 = (w1 * WORD_BITS).min(d);
                for j in 0..m {
                    let row_blk = &self.row(j)[w0..w1];
                    let mut bits = dense;
                    while bits != 0 {
                        let b = c0 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let wj = weights[b * m + j];
                        if wj == 0.0 {
                            continue;
                        }
                        (k.dense_accum)(row_blk, wj, &mut out[b * d + e0..b * d + e1]);
                    }
                }
                w0 = w1;
            }
        }
        for b in 0..bn {
            let total: f64 = weights[b * m..(b + 1) * m].iter().sum();
            for o in out[b * d..(b + 1) * d].iter_mut() {
                *o = 2.0 * *o - total;
            }
        }
    }
}

/// Resolves the kernel table of a caller-pinned arm, panicking with a
/// actionable message when the host cannot run it (the `*_forced`
/// variants' contract; callers filter with [`SimdArm::supported`]).
fn forced_table(arm: SimdArm) -> &'static KernelTable {
    dispatch::table(arm)
        .unwrap_or_else(|| panic!("dispatch arm `{arm}` is not supported on this host"))
}

/// `B` packed queries in one contiguous buffer: the right-hand side of
/// the batched bit-GEMM [`PackedCodebook::similarities_batch_into`].
///
/// Storage is query-major (`qwords[b · W + i]` is word `i` of query
/// `b`): every reduction tile streams one query column's words
/// sequentially while the *codebook* supplies the lane-major strips, so
/// a lane-major batch mirror would have no reader — the batch itself is
/// tiny (`B × W` words) and stays cache-hot in any layout.
///
/// The batch is built once with a capacity and refilled allocation-free
/// ([`PackedBatch::clear`] + [`PackedBatch::push`]) — the lockstep
/// resonator repacks the active problems' queries every iteration, and
/// retiring a problem never moves another problem's words within an
/// iteration.
///
/// No `PartialEq`: a refilled batch may carry stale words past `len`,
/// so derived equality would distinguish logically identical batches.
#[derive(Debug, Clone)]
pub struct PackedBatch {
    capacity: usize,
    len: usize,
    dim: usize,
    words_per_query: usize,
    qwords: Vec<u64>,
}

impl PackedBatch {
    /// An empty batch able to hold `capacity` queries of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `dim == 0`.
    pub fn with_capacity(capacity: usize, dim: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        assert!(dim > 0, "batch dimension must be positive");
        let words_per_query = dim.div_ceil(WORD_BITS);
        Self {
            capacity,
            len: 0,
            dim,
            words_per_query,
            qwords: vec![0u64; capacity * words_per_query],
        }
    }

    /// Packs `queries` into a batch sized exactly to them.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty or dimensions disagree.
    pub fn from_queries(queries: &[BipolarVector]) -> Self {
        assert!(!queries.is_empty(), "packed batch must be non-empty");
        let mut batch = Self::with_capacity(queries.len(), queries[0].dim());
        for q in queries {
            batch.push(q);
        }
        batch
    }

    /// Appends one query's words into the next column.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full or the query dimension differs.
    #[inline]
    pub fn push(&mut self, query: &BipolarVector) {
        assert!(self.len < self.capacity, "packed batch is full");
        assert_eq!(query.dim(), self.dim, "batch query dimension mismatch");
        self.qwords[self.len * self.words_per_query..(self.len + 1) * self.words_per_query]
            .copy_from_slice(query.words());
        self.len += 1;
    }

    /// Empties the batch for refill; capacity and dimension are kept.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Queries currently packed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no query is packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum queries the batch can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Query dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per packed query (`ceil(D / 64)`).
    pub fn words_per_query(&self) -> usize {
        self.words_per_query
    }

    /// Word `i` of query `b` (padding bits beyond `dim` are zero).
    ///
    /// # Panics
    ///
    /// Panics if `i >= words_per_query()` or `b` indexes past the
    /// buffer.
    #[inline]
    pub fn word(&self, i: usize, b: usize) -> u64 {
        assert!(i < self.words_per_query, "word index out of range");
        self.qwords[b * self.words_per_query + i]
    }

    /// The contiguous packed words of query `b` (padding bits beyond
    /// `dim` are zero).
    ///
    /// # Panics
    ///
    /// Panics if `b >= capacity()`.
    #[inline]
    pub fn query_words(&self, b: usize) -> &[u64] {
        &self.qwords[b * self.words_per_query..(b + 1) * self.words_per_query]
    }
}

/// Adds `w` to `out[i]` for every set bit `i` of `words` — the per-row
/// accumulate step of the sparse projection kernel, shared with
/// [`crate::ops::weighted_sums_into`]. Bits in the padding tail of the
/// last word (positions at or beyond `out.len()`) are ignored, so a
/// corrupted tail can never index out of bounds.
#[inline]
pub(crate) fn accumulate_set_bits(words: &[u64], w: f64, out: &mut [f64]) {
    let tail = out.len() % WORD_BITS;
    let last = words.len() - 1;
    for (wi, &word) in words.iter().enumerate() {
        let base = wi * WORD_BITS;
        let mut bits = if tail != 0 && wi == last {
            word & ((1u64 << tail) - 1)
        } else {
            word
        };
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            out[base + b] += w;
            bits &= bits - 1;
        }
    }
}

/// Divides every entry of `values` by `d` in place when `d` divides them
/// all and returns `None`; otherwise returns the first entry `d` does not
/// divide, leaving `values` untouched. Exact division by the inverse of
/// `d`'s odd part modulo 2^64: with `d = o·2^t`, `v` is a multiple of `d`
/// exactly when its low `t` bits are zero and `q = (v >> t)·o⁻¹ mod 2^64`
/// times `o` does not overflow — and `q` is then the quotient.
fn divide_exactly(values: &mut [u64], d: u64) -> Option<u64> {
    let t = d.trailing_zeros();
    let odd = d >> t;
    // `3·o ⊕ 2` is an inverse of `o` to 5 bits; each Newton step doubles
    // the correct bits (5 → 10 → 20 → 40 → 80 ≥ 64).
    let mut inv = odd.wrapping_mul(3) ^ 2;
    for _ in 0..4 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
    }
    let low = (1u64 << t) - 1;
    let quotient = |v: u64| (v >> t).wrapping_mul(inv);
    if let Some(&v) = values
        .iter()
        .find(|&&v| v & low != 0 || odd.checked_mul(quotient(v)).is_none())
    {
        return Some(v);
    }
    for v in values.iter_mut() {
        *v = quotient(*v);
    }
    None
}

/// Binary gcd, with `gcd(0, b) = b`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || a == b {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The integer sign projection over rows supplied by `row` (a packed
/// codebook's, or loose vectors' for [`crate::ops::weighted_bundle`]):
/// writes `sign(Σ_j w_j · row_j)` into `out` and returns `true` when the
/// weights meet the exactness conditions of
/// [`PackedCodebook::try_project_signs_into`]; returns `false`, leaving
/// `out` untouched, otherwise. Callers check that there is one row per
/// weight, each of `out`'s dimension.
pub(crate) fn project_signs_exact<'a>(
    row: impl Fn(usize) -> &'a [u64],
    weights: &[f64],
    out: &mut BipolarVector,
) -> bool {
    const CAP: usize = SIGN_PROJECTION_MAX_PLANE_ADDS;
    // Every non-zero weight costs at least one plane add, so at most CAP
    // of them can pass. Gather their rows and magnitudes, checking that
    // each is an integer below 2^53 (NaN and ±∞ fail the integer test),
    // and so is their sum.
    let mut rows = [0u32; CAP];
    let mut codes = [0u64; CAP];
    let mut n = 0usize;
    let mut sum = 0u64;
    let mut min = u64::MAX;
    for (c, chunk) in weights.chunks(WORD_BITS).enumerate() {
        let mut nonzero = 0u64;
        for (b, &w) in chunk.iter().enumerate() {
            nonzero |= u64::from(w != 0.0) << b;
        }
        while nonzero != 0 {
            let j = c * WORD_BITS + nonzero.trailing_zeros() as usize;
            nonzero &= nonzero - 1;
            let a = weights[j].abs();
            if n == CAP || a.fract() != 0.0 || a >= F64_EXACT_INTS {
                return false;
            }
            let a = a as u64;
            sum += a;
            min = min.min(a);
            rows[n] = j as u32;
            codes[n] = a;
            n += 1;
        }
    }
    if sum >= 1 << 53 {
        return false;
    }
    let (rows, codes) = (&rows[..n], &mut codes[..n]);
    // The unit: the smallest magnitude when it divides every weight (the
    // common case), their gcd otherwise, reached by folding in only the
    // magnitudes the current unit misses. Then `c_j = |w_j| / unit`.
    let mut unit = min;
    while let Some(v) = divide_exactly(codes, unit) {
        // Strictly smaller each time, and 1 divides everything.
        unit = gcd(unit, v);
    }
    let plane_adds: u32 = codes.iter().map(|c| c.count_ones()).sum();
    if plane_adds as usize > CAP {
        return false;
    }
    let total: u64 = codes.iter().sum();

    let dim = out.dim();
    let out = out.words_mut();
    let words = out.len();
    // Counts reach `C = total`, so `bits(C)` planes hold them.
    let planes_used = (u64::BITS - total.leading_zeros()) as usize;
    let half = total / 2;
    // `2A = C` is only possible for even `C`.
    let ties = if total.is_multiple_of(2) {
        EVEN_BITS
    } else {
        0
    };
    let mut planes = [[0u64; SIGN_BLOCK_WORDS]; SIGN_PLANES];
    for w0 in (0..words).step_by(SIGN_BLOCK_WORDS) {
        let k_n = SIGN_BLOCK_WORDS.min(words - w0);
        let planes = &mut planes[..planes_used];
        planes.fill([0; SIGN_BLOCK_WORDS]);
        for (&j, &code) in rows.iter().zip(codes.iter()) {
            let j = j as usize;
            let flip = if weights[j] < 0.0 { u64::MAX } else { 0 };
            let mut x = [0u64; SIGN_BLOCK_WORDS];
            for (xk, &r) in x.iter_mut().zip(&row(j)[w0..w0 + k_n]) {
                *xk = r ^ flip;
            }
            let mut mag = code;
            while mag != 0 {
                let p = mag.trailing_zeros() as usize;
                mag &= mag - 1;
                // Ripple-carry add of `x` at plane `p`.
                let mut carry = x;
                for plane in planes[p..].iter_mut() {
                    for (pk, ck) in plane.iter_mut().zip(carry.iter_mut()) {
                        let t = *pk & *ck;
                        *pk ^= *ck;
                        *ck = t;
                    }
                }
            }
        }
        // Bit-sliced `A > ⌊C/2⌋` and `A == ⌊C/2⌋`, most significant
        // plane first.
        let mut gt = [0u64; SIGN_BLOCK_WORDS];
        let mut eq = [u64::MAX; SIGN_BLOCK_WORDS];
        for (b, plane) in planes.iter().enumerate().rev() {
            let h = 0u64.wrapping_sub((half >> b) & 1);
            for k in 0..SIGN_BLOCK_WORDS {
                gt[k] |= eq[k] & plane[k] & !h;
                eq[k] &= !(plane[k] ^ h);
            }
        }
        for (k, o) in out[w0..w0 + k_n].iter_mut().enumerate() {
            *o = gt[k] | (eq[k] & ties);
        }
    }
    let tail = dim % WORD_BITS;
    if tail != 0 {
        out[words - 1] &= (1u64 << tail) - 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn vectors(m: usize, d: usize, seed: u64) -> Vec<BipolarVector> {
        let mut rng = rng_from_seed(seed);
        (0..m).map(|_| BipolarVector::random(d, &mut rng)).collect()
    }

    #[test]
    fn similarities_match_naive_dots() {
        for (m, d) in [(1, 64), (5, 100), (8, 256), (13, 1000)] {
            let vs = vectors(m, d, 31);
            let packed = PackedCodebook::from_vectors(&vs);
            let q = BipolarVector::random(d, &mut rng_from_seed(32));
            let mut out = vec![0.0; m];
            packed.similarities_into(&q, &mut out);
            let mut out_i = vec![0i64; m];
            packed.similarities_i64_into(&q, &mut out_i);
            for (j, v) in vs.iter().enumerate() {
                assert_eq!(out[j], v.dot(&q) as f64, "m={m} d={d} row {j}");
                assert_eq!(out_i[j], v.dot(&q), "m={m} d={d} row {j}");
                assert_eq!(packed.dot_row(j, &q), v.dot(&q));
            }
        }
    }

    #[test]
    fn weighted_sums_match_reference() {
        let (m, d) = (9, 130);
        let vs = vectors(m, d, 33);
        let packed = PackedCodebook::from_vectors(&vs);
        let weights: Vec<f64> = (0..m).map(|j| (j as f64) - 3.0).collect();
        let mut out = vec![0.0; d];
        packed.weighted_sums_into(&weights, &mut out);
        for (i, &o) in out.iter().enumerate() {
            let expect: f64 = vs
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            assert!((o - expect).abs() < 1e-9, "element {i}");
        }
    }

    #[test]
    fn weighted_sums_skip_zero_rows_exactly() {
        let vs = vectors(3, 256, 34);
        let packed = PackedCodebook::from_vectors(&vs);
        let mut out = vec![0.0; 256];
        packed.weighted_sums_into(&[0.0, 1.0, 0.0], &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, vs[1].sign(i) as f64);
        }
    }

    #[test]
    fn layout_is_contiguous_row_major() {
        let vs = vectors(4, 200, 35);
        let packed = PackedCodebook::from_vectors(&vs);
        assert_eq!(packed.len(), 4);
        assert_eq!(packed.dim(), 200);
        assert_eq!(packed.words_per_row(), 4);
        for (j, v) in vs.iter().enumerate() {
            assert_eq!(packed.row(j), v.words());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = PackedCodebook::from_vectors(&[]);
    }

    #[test]
    fn batched_similarities_match_per_query_bitwise() {
        // Shapes straddling every kernel boundary: D < 64, ragged tails,
        // exactly one CSA block, multi-block, row-tile tails, B = 1.
        // Shapes straddling every dispatch regime: cache-resident,
        // streaming (lane mirror > GEMM_STREAM_BYTES), and CSA-eligible
        // row lengths.
        for (m, d, b) in [
            (1, 48, 1),
            (5, 100, 3),
            (8, 1024, 4),
            (13, 1000, 7),
            (16, 1090, 2),
            (24, 2048, 5),
            (512, 2048, 3),
        ] {
            let vs = vectors(m, d, 60);
            let packed = PackedCodebook::from_vectors(&vs);
            let mut rng = rng_from_seed(61);
            let queries: Vec<BipolarVector> =
                (0..b).map(|_| BipolarVector::random(d, &mut rng)).collect();
            let batch = PackedBatch::from_queries(&queries);
            let mut batched = vec![0.0f64; b * m];
            packed.similarities_batch_into(&batch, &mut batched);
            let mut single = vec![0.0f64; m];
            for (bi, q) in queries.iter().enumerate() {
                packed.similarities_into(q, &mut single);
                for j in 0..m {
                    assert_eq!(
                        batched[bi * m + j].to_bits(),
                        single[j].to_bits(),
                        "m={m} d={d} b={bi}/{b} row {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_major_only_kernels_match_full_mirrors_bitwise() {
        // The cold-tier representation must be kernel-for-kernel
        // value-identical: per-query and batched similarities over the
        // same shapes as the batched-dispatch test (cache-resident,
        // CSA-eligible, and streaming regimes included).
        for (m, d, b) in [(1, 48, 1), (8, 256, 4), (24, 2048, 5), (512, 2048, 3)] {
            let vs = vectors(m, d, 70);
            let full = PackedCodebook::from_vectors(&vs);
            let cold = PackedCodebook::from_vectors_row_major(&vs);
            assert!(full.has_lane_mirror());
            assert!(!cold.has_lane_mirror());
            assert_eq!(cold.lane_mirror_bytes(), 0);
            assert_eq!(full.lane_mirror_bytes(), full.row_bytes());
            let mut rng = rng_from_seed(71);
            let queries: Vec<BipolarVector> =
                (0..b).map(|_| BipolarVector::random(d, &mut rng)).collect();
            let batch = PackedBatch::from_queries(&queries);
            let (mut a, mut c) = (vec![0.0f64; m], vec![0.0f64; m]);
            for q in &queries {
                full.similarities_into(q, &mut a);
                cold.similarities_into(q, &mut c);
                for j in 0..m {
                    assert_eq!(a[j].to_bits(), c[j].to_bits(), "m={m} d={d} row {j}");
                }
            }
            let (mut ba, mut bc) = (vec![0.0f64; b * m], vec![0.0f64; b * m]);
            full.similarities_batch_into(&batch, &mut ba);
            cold.similarities_batch_into(&batch, &mut bc);
            for (i, (x, y)) in ba.iter().zip(&bc).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} d={d} batched slot {i}");
            }
        }
    }

    #[test]
    fn lane_mirror_round_trips_exactly() {
        let vs = vectors(13, 1000, 72);
        let full = PackedCodebook::from_vectors(&vs);
        let mut cycled = full.clone();
        cycled.drop_lane_mirror();
        assert!(!cycled.has_lane_mirror());
        assert_ne!(cycled, full, "mirror presence is part of derived equality");
        cycled.materialize_lane_mirror();
        assert_eq!(cycled, full, "drop + rematerialize must be lossless");
        // Re-materializing a hot codebook is a no-op.
        cycled.materialize_lane_mirror();
        assert_eq!(cycled, full);
    }

    #[test]
    fn streaming_threshold_is_mirror_state_independent() {
        // 512×2048 is decisively past GEMM_STREAM_BYTES; 8×256 decisively
        // under. The predicate must not change with mirror presence (it
        // feeds both the kernel dispatch and the registry's hot-tier
        // policy).
        for (m, d, expect) in [(512usize, 2048usize, true), (8, 256, false)] {
            let vs = vectors(m, d, 73);
            let full = PackedCodebook::from_vectors(&vs);
            let cold = PackedCodebook::from_vectors_row_major(&vs);
            assert_eq!(full.batch_streams_codebook(), expect, "m={m} d={d}");
            assert_eq!(cold.batch_streams_codebook(), expect, "m={m} d={d}");
        }
    }

    #[test]
    fn batched_weighted_sums_match_per_query_bitwise() {
        // Mixed regimes inside one batch: query 0 sparse (one active row),
        // query 1 dense (all rows active), query 2 all-zero weights.
        let (m, d) = (24, 523);
        let vs = vectors(m, d, 62);
        let packed = PackedCodebook::from_vectors(&vs);
        let mut weights = vec![0.0f64; 3 * m];
        weights[5] = 2.5;
        for j in 0..m {
            weights[m + j] = (j as f64) - 7.0;
        }
        let mut batched = vec![0.0f64; 3 * d];
        packed.weighted_sums_batch_into(&weights, &mut batched);
        let mut single = vec![0.0f64; d];
        for b in 0..3 {
            packed.weighted_sums_into(&weights[b * m..(b + 1) * m], &mut single);
            for i in 0..d {
                assert_eq!(
                    batched[b * d + i].to_bits(),
                    single[i].to_bits(),
                    "query {b} element {i}"
                );
            }
        }
    }

    #[test]
    fn packed_batch_refills_without_moving_lanes() {
        let mut rng = rng_from_seed(63);
        let qs: Vec<BipolarVector> = (0..4)
            .map(|_| BipolarVector::random(130, &mut rng))
            .collect();
        let mut batch = PackedBatch::with_capacity(4, 130);
        batch.push(&qs[0]);
        batch.push(&qs[1]);
        assert_eq!(batch.len(), 2);
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&qs[2]);
        batch.push(&qs[3]);
        for (i, &w) in qs[2].words().iter().enumerate() {
            assert_eq!(batch.word(i, 0), w);
        }
        for (i, &w) in qs[3].words().iter().enumerate() {
            assert_eq!(batch.word(i, 1), w);
        }
        assert_eq!(batch.capacity(), 4);
        assert_eq!(batch.words_per_query(), 3);
    }

    #[test]
    fn regime_decision_matches_legacy_threshold() {
        // The measured constant must reproduce the pre-constant behavior
        // (`8 · active <= M`) so existing golden outputs cannot move.
        for m in [1usize, 8, 64, 256] {
            for active in 0..=m {
                assert_eq!(
                    PackedCodebook::sparse_projection_regime(active, m),
                    8 * active <= m,
                    "active={active} m={m}"
                );
            }
        }
    }

    #[test]
    fn exact_division_matches_integer_division() {
        let divisors = [1u64, 2, 3, 7, 30, 48, 96, 1 << 20, (1 << 52) + 1, u64::MAX];
        let values = [0u64, 1, 3, 30, 48, 96, 144, 336, 1 << 40, (1 << 53) - 1];
        for d in divisors {
            for v in values {
                let mut one = [v];
                match divide_exactly(&mut one, d) {
                    None => assert_eq!((v % d, one[0]), (0, v / d), "{v} / {d}"),
                    Some(miss) => assert_eq!((v % d != 0, miss, one[0]), (true, v, v)),
                }
            }
        }
        assert_eq!((gcd(0, 48), gcd(144, 336), gcd(7, 1 << 40)), (48, 48, 1));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn batch_overflow_rejected() {
        let mut batch = PackedBatch::with_capacity(1, 64);
        let q = BipolarVector::ones(64);
        batch.push(&q);
        batch.push(&q);
    }

    #[test]
    fn forced_arms_match_scalar_bitwise_across_kernels() {
        // Every host-supported dispatch arm must reproduce the scalar
        // arm bit-for-bit on all four public kernels, over shapes
        // straddling every regime boundary (D < 64, ragged tails, CSA
        // blocks, streaming, B = 1). The per-strip kernels themselves
        // are pinned against the naive reference in `dispatch::tests`;
        // this covers the full kernel plumbing per arm.
        for (m, d, b) in [
            (1, 48, 1),
            (5, 100, 3),
            (13, 1000, 7),
            (24, 2048, 5),
            (512, 2048, 3),
        ] {
            let vs = vectors(m, d, 80);
            let packed = PackedCodebook::from_vectors(&vs);
            let mut rng = rng_from_seed(81);
            let queries: Vec<BipolarVector> =
                (0..b).map(|_| BipolarVector::random(d, &mut rng)).collect();
            let batch = PackedBatch::from_queries(&queries);
            let mut weights = vec![0.0f64; b * m];
            for (i, w) in weights.iter_mut().enumerate() {
                *w = ((i % 7) as f64) - 3.0;
            }
            let mut sim_ref = vec![0.0f64; b * m];
            packed.similarities_batch_into_forced(&batch, &mut sim_ref, SimdArm::Scalar);
            let mut proj_ref = vec![0.0f64; b * d];
            packed.weighted_sums_batch_into_forced(&weights, &mut proj_ref, SimdArm::Scalar);
            for arm in SimdArm::ALL {
                if !arm.supported() {
                    continue;
                }
                let mut sim = vec![0.0f64; b * m];
                packed.similarities_batch_into_forced(&batch, &mut sim, arm);
                for (i, (x, y)) in sim.iter().zip(&sim_ref).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{arm} sim m={m} d={d} slot {i}");
                }
                let mut single = vec![0.0f64; m];
                for (bi, q) in queries.iter().enumerate() {
                    packed.similarities_into_forced(q, &mut single, arm);
                    for j in 0..m {
                        assert_eq!(
                            single[j].to_bits(),
                            sim_ref[bi * m + j].to_bits(),
                            "{arm} per-query m={m} d={d} b={bi} row {j}"
                        );
                    }
                }
                let mut proj = vec![0.0f64; b * d];
                packed.weighted_sums_batch_into_forced(&weights, &mut proj, arm);
                for (i, (x, y)) in proj.iter().zip(&proj_ref).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{arm} proj m={m} d={d} slot {i}");
                }
                let mut ps = vec![0.0f64; d];
                for bi in 0..b {
                    packed.weighted_sums_into_forced(&weights[bi * m..(bi + 1) * m], &mut ps, arm);
                    for i in 0..d {
                        assert_eq!(
                            ps[i].to_bits(),
                            proj_ref[bi * d + i].to_bits(),
                            "{arm} per-query proj b={bi} elt {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn forcing_an_unsupported_arm_panics() {
        let arm = SimdArm::ALL
            .into_iter()
            .find(|a| !a.supported())
            .unwrap_or_else(|| panic!("all arms supported — simulate: not supported on this host"));
        let vs = vectors(2, 64, 82);
        let packed = PackedCodebook::from_vectors(&vs);
        let q = BipolarVector::random(64, &mut rng_from_seed(83));
        let mut out = vec![0.0; 2];
        packed.similarities_into_forced(&q, &mut out, arm);
    }
}
