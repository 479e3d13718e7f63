//! Analog RRAM crossbar arrays computing bipolar MVMs in-memory.
//!
//! A crossbar stores an `D × M` bipolar matrix whose columns are the item
//! vectors of one codebook. Each matrix element is a *differential pair* of
//! RRAM devices (`+1` → G⁺=LRS, G⁻=HRS; `−1` → the reverse), so a column's
//! bit-line current is proportional to the dot product between the stored
//! column and the word-line drive pattern — one MVM per read, constant time
//! in the problem size (the paper's core CIM argument, Fig. 1c).
//!
//! Two MVM directions are provided, matching the two resonator kernels:
//!
//! - [`Crossbar::mvm_bipolar`] — *similarity*: drive rows with a bipolar
//!   query, read `M` column currents (`a = Xᵀ q`).
//! - [`Crossbar::mvm_weighted`] — *projection*: drive columns with (ADC-
//!   quantized) weights, read `D` row currents (`r = X a`).
//!
//! The projection tier's sense amplifiers pass on only the sign of each
//! row current, so [`Crossbar::try_mvm_weighted_signs_into`] reads just
//! that: a row whose read-noise draw provably cannot flip its sign keeps
//! its noiseless sum and skips the Gaussian's transcendentals, and every
//! output has the sign of the full-noise read at the same RNG position.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::irdrop::IrDropModel;
use crate::noise::NoiseSpec;
use crate::power::{PowerDomain, PowerMode, PowerStateError};
use crate::rram::{RramCell, RramDeviceParams, RramState};
use hdc::rng::rng_from_seed;
use hdc::stats::{box_muller, box_muller_below, box_muller_uniforms, normal};
use hdc::{BipolarVector, Codebook, PackedCodebook};

/// How faithfully device noise is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Fidelity {
    /// Every cell carries its own persistent programming error (and
    /// stuck-at fault); read/PVT noise is aggregated per column. Exact but
    /// O(D·M) per MVM.
    Cell,
    /// All noise sources are aggregated into one Gaussian per output
    /// (variance `σ_total² · active_rows`); ideal dot products come from
    /// popcounts. The fast path for large sweeps — statistically equivalent
    /// to [`Fidelity::Cell`] (see the `column_matches_cell_statistics`
    /// test).
    #[default]
    Column,
}

/// Access counters for energy/latency roll-ups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Number of similarity-direction MVMs executed.
    pub mvms: u64,
    /// Number of projection-direction (weighted) MVMs executed.
    pub weighted_mvms: u64,
    /// Total word-line activations across all MVMs.
    pub row_activations: u64,
    /// Number of device programming pulses issued.
    pub programs: u64,
}

/// An RRAM crossbar programmed with one codebook.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    /// The programmed codebook bits in the packed MVM layouts (the only
    /// copy of the matrix the column-fidelity paths read).
    packed: PackedCodebook,
    noise: NoiseSpec,
    fidelity: Fidelity,
    device: RramDeviceParams,
    /// Cell fidelity only: per-cell differential weight (±1 nominal, with
    /// programming error), row-major `rows × cols`.
    cell_weights: Option<Vec<f32>>,
    ir_drop: IrDropModel,
    /// Per-row bit-line gains of `ir_drop` ([`IrDropModel::row_gain`]),
    /// computed once by [`Crossbar::with_ir_drop`]. `None` when every gain
    /// is exactly 1.0: the similarity read is then the popcount MVM.
    ir_gains: Option<Box<[f64]>>,
    domain: PowerDomain,
    stats: AccessStats,
    rng: StdRng,
}

impl Crossbar {
    /// Programs the codebook into a crossbar (columns = item vectors).
    ///
    /// `seed` drives all stochastic device behavior of this array, making
    /// every experiment reproducible.
    pub fn program(book: &Codebook, noise: NoiseSpec, fidelity: Fidelity, seed: u64) -> Self {
        let rows = book.dim();
        let cols = book.len();
        let device = RramDeviceParams::default();
        let mut rng = rng_from_seed(seed);
        let stats = AccessStats {
            // Two devices per element (differential pair).
            programs: (rows * cols * 2) as u64,
            ..AccessStats::default()
        };
        // The nonlinear G–V programming curve compresses the differential
        // window of every written pair by a deterministic gain.
        let write_gain = noise.write_gain();
        let cell_weights = match fidelity {
            Fidelity::Column => None,
            Fidelity::Cell => {
                let mut w = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for col in book.vectors() {
                        let sign = col.sign(r);
                        let (pos_state, neg_state) = if sign > 0 {
                            (RramState::Lrs, RramState::Hrs)
                        } else {
                            (RramState::Hrs, RramState::Lrs)
                        };
                        let gp = RramCell::program(pos_state, &device, &noise, &mut rng);
                        let gn = RramCell::program(neg_state, &device, &noise, &mut rng);
                        let weight =
                            write_gain * (gp.conductance() - gn.conductance()) / device.window();
                        w.push(weight as f32);
                    }
                }
                Some(w)
            }
        };
        Self {
            rows,
            cols,
            packed: book.packed().clone(),
            noise,
            fidelity,
            device,
            cell_weights,
            ir_drop: IrDropModel::ideal(),
            ir_gains: None,
            domain: PowerDomain::new(50e-6, 5e-6),
            stats,
            rng,
        }
    }

    /// Enables a bit-line IR-drop model on the similarity readout
    /// (the projection direction senses row-wise through matched paths and
    /// is unaffected to first order).
    ///
    /// The per-row gains are tabulated here, once; an array whose gains
    /// are all exactly 1.0 keeps no table.
    pub fn with_ir_drop(mut self, model: IrDropModel) -> Self {
        let rows = self.rows;
        // A non-positive α reads as ideal wires, as it always has.
        let gains: Vec<f64> = if model.alpha > 0.0 {
            (0..rows).map(|r| model.row_gain(r, rows)).collect()
        } else {
            Vec::new()
        };
        self.ir_gains = (!gains.iter().all(|&g| g == 1.0)).then(|| gains.into());
        self.ir_drop = model;
        self
    }

    /// The IR-drop model in effect.
    pub fn ir_drop(&self) -> &IrDropModel {
        &self.ir_drop
    }

    /// Number of word lines (the hypervector dimension `D`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines (the codebook size `M`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The noise model in effect.
    pub fn noise(&self) -> &NoiseSpec {
        &self.noise
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Device parameters of the array.
    pub fn device(&self) -> &RramDeviceParams {
        &self.device
    }

    /// Current power mode of the array's WL level-shifter domain.
    pub fn power_mode(&self) -> PowerMode {
        self.domain.mode()
    }

    /// Switches the array's power mode (tier activation control, Fig. 3).
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        self.domain.set_mode(mode);
    }

    /// Similarity MVM `a = Xᵀ q`: drives the rows with the bipolar query
    /// and returns the `M` noisy column currents in dot-product units.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if the array is not [`PowerMode::Active`]
    /// — a deactivated tier contributes no current.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.rows()`.
    pub fn try_mvm_bipolar(&mut self, query: &BipolarVector) -> Result<Vec<f64>, PowerStateError> {
        let mut out = vec![0.0f64; self.cols];
        self.try_mvm_bipolar_into(query, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Crossbar::try_mvm_bipolar`]: writes the `M` noisy
    /// column currents into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if the array is not active.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.rows()` or `out.len() != self.cols()`.
    pub fn try_mvm_bipolar_into(
        &mut self,
        query: &BipolarVector,
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        self.domain.ensure_active()?;
        assert_eq!(
            query.dim(),
            self.rows,
            "query dimension {} != crossbar rows {}",
            query.dim(),
            self.rows
        );
        assert_eq!(
            out.len(),
            self.cols,
            "output length {} != crossbar cols {}",
            out.len(),
            self.cols
        );
        self.stats.mvms += 1;
        self.stats.row_activations += self.rows as u64;
        match self.fidelity {
            Fidelity::Column => {
                let sigma = self.noise.column_sigma(self.rows);
                let survival = (1.0 - self.noise.stuck_at_rate) * self.noise.write_gain();
                if let Some(gains) = &self.ir_gains {
                    gain_table_dots(&self.packed, gains, query.words(), out);
                    for o in out.iter_mut() {
                        *o *= survival;
                    }
                } else {
                    // Unit gains: the ideal dot products through the packed
                    // popcount MVM. A sum of ±1.0 terms is an exact
                    // integer, so this is bit-identical to the attenuated
                    // dot with every gain 1.0.
                    self.packed.similarities_into(query, out);
                    if survival != 1.0 {
                        for o in out.iter_mut() {
                            *o *= survival;
                        }
                    }
                }
                if sigma > 0.0 {
                    for o in out.iter_mut() {
                        *o += normal(0.0, sigma, &mut self.rng);
                    }
                }
            }
            Fidelity::Cell => {
                let w = self
                    .cell_weights
                    .as_ref()
                    .expect("cell weights exist in cell fidelity");
                let read_sigma = (self.noise.read_sigma.powi(2) + self.noise.pvt_sigma.powi(2))
                    .sqrt()
                    * (self.rows as f64).sqrt();
                for (c, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for r in 0..self.rows {
                        let v = query.sign(r) as f64;
                        acc += v * w[r * self.cols + c] as f64;
                    }
                    *o = if read_sigma > 0.0 {
                        acc + normal(0.0, read_sigma, &mut self.rng)
                    } else {
                        acc
                    };
                }
            }
        }
        Ok(())
    }

    /// Panicking convenience wrapper around [`Crossbar::try_mvm_bipolar`].
    ///
    /// # Panics
    ///
    /// Panics on power-state violations or dimension mismatch.
    pub fn mvm_bipolar(&mut self, query: &BipolarVector) -> Vec<f64> {
        self.try_mvm_bipolar(query)
            .expect("crossbar must be active for MVM")
    }

    /// Projection MVM `r = X a`: drives the columns with real-valued (ADC
    /// output) weights and returns the `D` noisy row sums.
    ///
    /// Output noise per element has σ = `σ_total · ‖a‖₂` (each active column
    /// contributes weight-scaled device error).
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if the array is not active.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.cols()`.
    pub fn try_mvm_weighted(&mut self, weights: &[f64]) -> Result<Vec<f64>, PowerStateError> {
        let mut out = vec![0.0f64; self.rows];
        self.try_mvm_weighted_into(weights, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Crossbar::try_mvm_weighted`]: writes the `D` noisy
    /// row sums into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if the array is not active.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn try_mvm_weighted_into(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        self.weighted_read(weights, out, RowRead::Values)
    }

    /// Sign-exact projection read, the one the sign-output sense path
    /// needs: every element of `out` has the sign (`> 0`, `== 0` or
    /// `< 0`) of the [`Crossbar::try_mvm_weighted_into`] output at the same
    /// RNG position, and the RNG ends where that read leaves it. A row
    /// whose noise draw provably cannot reach its sum
    /// ([`box_muller_below`]) holds the noiseless sum; every other row
    /// holds the reference value.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if the array is not active.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn try_mvm_weighted_signs_into(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        self.weighted_read(weights, out, RowRead::Signs)
    }

    fn weighted_read(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
        read: RowRead,
    ) -> Result<(), PowerStateError> {
        self.domain.ensure_active()?;
        assert_eq!(
            weights.len(),
            self.cols,
            "weight count {} != crossbar cols {}",
            weights.len(),
            self.cols
        );
        assert_eq!(
            out.len(),
            self.rows,
            "output length {} != crossbar rows {}",
            out.len(),
            self.rows
        );
        self.stats.weighted_mvms += 1;
        self.stats.row_activations += self.rows as u64;
        let norm: f64 = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        let sigma = match self.fidelity {
            Fidelity::Column => {
                // Ideal row sums through the packed set-bit kernel, then
                // stuck-at survival; the noise aggregates every source.
                let survival = (1.0 - self.noise.stuck_at_rate) * self.noise.write_gain();
                self.packed.weighted_sums_into(weights, out);
                for o in out.iter_mut() {
                    *o *= survival;
                }
                self.noise.sigma_total() * norm
            }
            Fidelity::Cell => {
                let w = self
                    .cell_weights
                    .as_ref()
                    .expect("cell weights exist in cell fidelity");
                for (r, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for (c, &wj) in weights.iter().enumerate() {
                        if wj != 0.0 {
                            acc += wj * w[r * self.cols + c] as f64;
                        }
                    }
                    *o = acc;
                }
                // Programming error is frozen in the cells; only read and
                // PVT noise are drawn.
                (self.noise.read_sigma.powi(2) + self.noise.pvt_sigma.powi(2)).sqrt() * norm
            }
        };
        add_row_noise(out, sigma, read, &mut self.rng);
        Ok(())
    }

    /// Panicking convenience wrapper around [`Crossbar::try_mvm_weighted`].
    ///
    /// # Panics
    ///
    /// Panics on power-state violations or dimension mismatch.
    pub fn mvm_weighted(&mut self, weights: &[f64]) -> Vec<f64> {
        self.try_mvm_weighted(weights)
            .expect("crossbar must be active for MVM")
    }
}

/// How a projection read delivers its row sums.
#[derive(Clone, Copy)]
enum RowRead {
    /// The reference: every row sum plus its read-noise draw.
    Values,
    /// Sign-exact: see [`Crossbar::try_mvm_weighted_signs_into`].
    Signs,
}

/// Adds one `N(0, σ²)` read-noise draw to every row sum, in row order;
/// none when σ is not positive. A [`RowRead::Signs`] read leaves a row
/// alone when its draw provably cannot reach the sum, but still takes
/// both of the draw's uniforms, so the RNG stream stays in step with the
/// reference. A zero sum is never provable and takes the reference
/// arithmetic.
fn add_row_noise(out: &mut [f64], sigma: f64, read: RowRead, rng: &mut StdRng) {
    if sigma > 0.0 {
        match read {
            RowRead::Values => {
                for o in out.iter_mut() {
                    *o += normal(0.0, sigma, rng);
                }
            }
            RowRead::Signs => {
                for o in out.iter_mut() {
                    let (u1, u2) = box_muller_uniforms(rng);
                    if !box_muller_below(u1, *o / sigma) {
                        // `normal(0.0, σ, ..)` on the same two uniforms.
                        *o += 0.0 + sigma * box_muller(u1, u2);
                    }
                }
            }
        }
    }
}

/// Columns summed side by side by [`gain_table_dots`].
const GAIN_BLOCK: usize = 8;

/// The IR-drop similarity read from a precomputed gain table: column `j`
/// gets `Σ_r gains[r] · sign_r`, with the same terms added in the same row
/// order as [`IrDropModel::attenuated_dot_words`], so every output has the
/// reference's bits. Columns go in blocks of [`GAIN_BLOCK`] so that the
/// block's running sums are independent additions.
fn gain_table_dots(packed: &PackedCodebook, gains: &[f64], query: &[u64], out: &mut [f64]) {
    for (j0, block) in (0..).step_by(GAIN_BLOCK).zip(out.chunks_mut(GAIN_BLOCK)) {
        let n = block.len();
        // The first term of every column is a non-zero gain, so starting
        // from +0.0 matches the reference's `sum()` from any zero.
        let mut acc = [0.0f64; GAIN_BLOCK];
        for (wi, word_gains) in gains.chunks(64).enumerate() {
            let mut disagree = [0u64; GAIN_BLOCK];
            for (c, x) in disagree[..n].iter_mut().enumerate() {
                *x = packed.row(j0 + c)[wi] ^ query[wi];
            }
            for (b, &g) in word_gains.iter().enumerate() {
                // `g · (±1.0)` is `g` with its sign bit set on a
                // disagreeing row.
                let g = g.to_bits();
                for (a, &x) in acc[..n].iter_mut().zip(&disagree[..n]) {
                    *a += f64::from_bits(g ^ ((x >> b & 1) << 63));
                }
            }
        }
        block.copy_from_slice(&acc[..n]);
    }
}

/// A logical crossbar folded over `f` physical subarrays of `d` rows each
/// (H3DFact instantiates `d = 256`, `f = 4` per tier; Sec. IV-A).
///
/// Partial column currents from the subarrays are summed in the analog
/// domain before conversion — which is why the noise statistics match a
/// monolithic array of `f·d` rows, while area/TSV accounting (in `arch3d`)
/// sees `f` small arrays.
#[derive(Debug, Clone)]
pub struct TiledCrossbar {
    tiles: Vec<Crossbar>,
    rows_per_tile: usize,
    total_rows: usize,
    /// Reused per-tile query slice (similarity direction).
    tile_query: BipolarVector,
    /// Reused per-tile partial-current buffer (similarity direction).
    tile_partial: Vec<f64>,
}

impl TiledCrossbar {
    /// Programs a codebook across `f` row-tiles of `rows_per_tile` rows.
    ///
    /// # Panics
    ///
    /// Panics unless `book.dim() == f · rows_per_tile`.
    pub fn program(
        book: &Codebook,
        rows_per_tile: usize,
        noise: NoiseSpec,
        fidelity: Fidelity,
        seed: u64,
    ) -> Self {
        let total_rows = book.dim();
        assert!(rows_per_tile > 0, "rows_per_tile must be positive");
        assert_eq!(
            total_rows % rows_per_tile,
            0,
            "dimension {} not divisible by subarray rows {}",
            total_rows,
            rows_per_tile
        );
        let f = total_rows / rows_per_tile;
        let tiles: Vec<Crossbar> = (0..f)
            .map(|t| {
                // Slice rows [t*d, (t+1)*d) of every codevector.
                let sliced: Vec<BipolarVector> = book
                    .vectors()
                    .iter()
                    .map(|v| {
                        let mut slice = BipolarVector::neg_ones(rows_per_tile);
                        slice.copy_bit_range_from(v, t * rows_per_tile);
                        slice
                    })
                    .collect();
                let sub_book = Codebook::from_vectors(sliced);
                Crossbar::program(&sub_book, noise, fidelity, seed.wrapping_add(t as u64))
            })
            .collect();
        let cols = tiles[0].cols();
        Self {
            tiles,
            rows_per_tile,
            total_rows,
            tile_query: BipolarVector::neg_ones(rows_per_tile),
            tile_partial: vec![0.0f64; cols],
        }
    }

    /// Number of subarrays `f`.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Rows per subarray `d`.
    pub fn rows_per_tile(&self) -> usize {
        self.rows_per_tile
    }

    /// Total logical rows `D = f·d`.
    pub fn rows(&self) -> usize {
        self.total_rows
    }

    /// Columns `M`.
    pub fn cols(&self) -> usize {
        self.tiles[0].cols()
    }

    /// Aggregated access statistics over all tiles.
    pub fn stats(&self) -> AccessStats {
        let mut s = AccessStats::default();
        for t in &self.tiles {
            s.mvms += t.stats().mvms;
            s.weighted_mvms += t.stats().weighted_mvms;
            s.row_activations += t.stats().row_activations;
            s.programs += t.stats().programs;
        }
        s
    }

    /// Sets the power mode of every tile.
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        for t in &mut self.tiles {
            t.set_power_mode(mode);
        }
    }

    /// Enables an IR-drop model on every tile's similarity readout.
    pub fn with_ir_drop(mut self, model: IrDropModel) -> Self {
        self.tiles = self
            .tiles
            .into_iter()
            .map(|t| t.with_ir_drop(model))
            .collect();
        self
    }

    /// Similarity MVM over the folded array: analog partial sums from the
    /// tiles are added before readout.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if any tile is not active.
    pub fn try_mvm_bipolar(&mut self, query: &BipolarVector) -> Result<Vec<f64>, PowerStateError> {
        let mut acc = vec![0.0f64; self.cols()];
        self.try_mvm_bipolar_into(query, &mut acc)?;
        Ok(acc)
    }

    /// Allocation-free [`TiledCrossbar::try_mvm_bipolar`]: accumulates the
    /// tiles' partial column currents into `out` using internal scratch.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if any tile is not active.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn try_mvm_bipolar_into(
        &mut self,
        query: &BipolarVector,
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        assert_eq!(query.dim(), self.total_rows, "query dimension mismatch");
        assert_eq!(out.len(), self.tiles[0].cols(), "output length mismatch");
        out.fill(0.0);
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            self.tile_query
                .copy_bit_range_from(query, t * self.rows_per_tile);
            tile.try_mvm_bipolar_into(&self.tile_query, &mut self.tile_partial)?;
            for (a, &p) in out.iter_mut().zip(&self.tile_partial) {
                *a += p;
            }
        }
        Ok(())
    }

    /// Panicking wrapper around [`TiledCrossbar::try_mvm_bipolar`].
    ///
    /// # Panics
    ///
    /// Panics on power-state violations or dimension mismatch.
    pub fn mvm_bipolar(&mut self, query: &BipolarVector) -> Vec<f64> {
        self.try_mvm_bipolar(query)
            .expect("all tiles must be active for MVM")
    }

    /// Projection MVM over the folded array: each tile produces the row
    /// sums for its slice of the dimension; outputs concatenate to the
    /// full `D`-vector.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if any tile is not active.
    pub fn try_mvm_weighted(&mut self, weights: &[f64]) -> Result<Vec<f64>, PowerStateError> {
        let mut out = vec![0.0f64; self.total_rows];
        self.try_mvm_weighted_into(weights, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`TiledCrossbar::try_mvm_weighted`]: each tile writes
    /// the row sums of its dimension slice directly into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if any tile is not active.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn try_mvm_weighted_into(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        self.weighted_read(weights, out, RowRead::Values)
    }

    /// Sign-exact projection read over the folded array: each tile makes
    /// a [`Crossbar::try_mvm_weighted_signs_into`] read of its dimension
    /// slice, so every output has the sign of the
    /// [`TiledCrossbar::try_mvm_weighted_into`] output at the same RNG
    /// positions.
    ///
    /// # Errors
    ///
    /// Returns [`PowerStateError`] if any tile is not active.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn try_mvm_weighted_signs_into(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
    ) -> Result<(), PowerStateError> {
        self.weighted_read(weights, out, RowRead::Signs)
    }

    fn weighted_read(
        &mut self,
        weights: &[f64],
        out: &mut [f64],
        read: RowRead,
    ) -> Result<(), PowerStateError> {
        assert_eq!(out.len(), self.total_rows, "output length mismatch");
        let slices = out.chunks_mut(self.rows_per_tile);
        for (tile, slice) in self.tiles.iter_mut().zip(slices) {
            tile.weighted_read(weights, slice, read)?;
        }
        Ok(())
    }

    /// Panicking wrapper around [`TiledCrossbar::try_mvm_weighted`].
    ///
    /// # Panics
    ///
    /// Panics on power-state violations or dimension mismatch.
    pub fn mvm_weighted(&mut self, weights: &[f64]) -> Vec<f64> {
        self.try_mvm_weighted(weights)
            .expect("all tiles must be active for MVM")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;
    use hdc::stats::Summary;

    fn book(m: usize, d: usize, seed: u64) -> Codebook {
        Codebook::random(m, d, &mut rng_from_seed(seed))
    }

    #[test]
    fn ideal_column_mvm_is_exact() {
        let b = book(8, 256, 60);
        let mut x = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 1);
        let q = BipolarVector::random(256, &mut rng_from_seed(61));
        let out = x.mvm_bipolar(&q);
        for (j, o) in out.iter().enumerate() {
            assert_eq!(*o, b.vector(j).dot(&q) as f64);
        }
    }

    #[test]
    fn ideal_cell_mvm_is_exact() {
        let b = book(8, 128, 62);
        let mut x = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Cell, 1);
        let q = BipolarVector::random(128, &mut rng_from_seed(63));
        let out = x.mvm_bipolar(&q);
        for (j, o) in out.iter().enumerate() {
            assert!((o - b.vector(j).dot(&q) as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn noisy_mvm_centers_on_ideal() {
        let b = book(4, 256, 64);
        let mut x = Crossbar::program(&b, NoiseSpec::chip_40nm(), Fidelity::Column, 2);
        let q = b.vector(0).clone();
        let s: Summary = (0..2000).map(|_| x.mvm_bipolar(&q)[0]).collect();
        let expect = 256.0 * (1.0 - NoiseSpec::chip_40nm().stuck_at_rate);
        assert!((s.mean() - expect).abs() < 1.0, "mean {}", s.mean());
        let sigma = NoiseSpec::chip_40nm().column_sigma(256);
        assert!((s.std_dev() - sigma).abs() < 0.3, "std {}", s.std_dev());
    }

    #[test]
    fn column_matches_cell_statistics() {
        // The fast column-aggregate path must match the per-cell path in
        // mean and variance of the readout error.
        let b = book(4, 256, 65);
        let noise = NoiseSpec {
            stuck_at_rate: 0.0,
            ..NoiseSpec::chip_40nm()
        };
        let mut col = Crossbar::program(&b, noise, Fidelity::Column, 3);
        let mut cell = Crossbar::program(&b, noise, Fidelity::Cell, 3);
        let q = BipolarVector::random(256, &mut rng_from_seed(66));
        let ideal = b.vector(1).dot(&q) as f64;
        let e_col: Summary = (0..3000).map(|_| col.mvm_bipolar(&q)[1] - ideal).collect();
        let e_cell: Summary = (0..3000).map(|_| cell.mvm_bipolar(&q)[1] - ideal).collect();
        // Cell path has a fixed programming-error offset for a fixed query;
        // across the distribution both are zero-mean with similar spread.
        assert!(e_col.mean().abs() < 0.6, "col mean {}", e_col.mean());
        assert!(
            (e_col.std_dev() - noise.column_sigma(256)).abs() < 0.3,
            "col std {}",
            e_col.std_dev()
        );
        // Cell-path total spread (fresh read noise only, prog error frozen)
        // must be below the column-path aggregate but the same order.
        assert!(e_cell.std_dev() > 0.2 * e_col.std_dev());
        assert!(e_cell.std_dev() < 1.5 * e_col.std_dev());
        // And the frozen programming offset is bounded by a few sigma of the
        // programming-aggregate term.
        assert!(e_cell.mean().abs() < 4.0 * noise.programming_sigma * 16.0);
    }

    #[test]
    fn weighted_mvm_one_hot_reads_column() {
        let b = book(8, 128, 67);
        let mut x = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 4);
        let mut w = vec![0.0; 8];
        w[3] = 2.0;
        let out = x.mvm_weighted(&w);
        for (r, o) in out.iter().enumerate() {
            assert_eq!(*o, 2.0 * b.vector(3).sign(r) as f64);
        }
    }

    #[test]
    fn weighted_mvm_noise_scales_with_weight_norm() {
        let b = book(4, 64, 68);
        let noise = NoiseSpec {
            stuck_at_rate: 0.0,
            ..NoiseSpec::chip_40nm()
        };
        let mut x = Crossbar::program(&b, noise, Fidelity::Column, 5);
        let w_small = vec![1.0, 0.0, 0.0, 0.0];
        let w_big = vec![10.0, 0.0, 0.0, 0.0];
        let e_small: Summary = (0..1500)
            .map(|_| x.mvm_weighted(&w_small)[0] - b.vector(0).sign(0) as f64)
            .collect();
        let e_big: Summary = (0..1500)
            .map(|_| x.mvm_weighted(&w_big)[0] - 10.0 * b.vector(0).sign(0) as f64)
            .collect();
        let ratio = e_big.std_dev() / e_small.std_dev();
        assert!((ratio - 10.0).abs() < 2.0, "ratio {ratio}");
    }

    #[test]
    fn shutdown_blocks_mvm() {
        let b = book(4, 64, 69);
        let mut x = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 6);
        x.set_power_mode(PowerMode::Shutdown);
        let q = BipolarVector::random(64, &mut rng_from_seed(70));
        assert!(x.try_mvm_bipolar(&q).is_err());
        assert!(x.try_mvm_weighted(&[0.0; 4]).is_err());
        x.set_power_mode(PowerMode::Active);
        assert!(x.try_mvm_bipolar(&q).is_ok());
    }

    #[test]
    fn stats_count_accesses() {
        let b = book(4, 64, 71);
        let mut x = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 7);
        let q = BipolarVector::random(64, &mut rng_from_seed(72));
        let _ = x.mvm_bipolar(&q);
        let _ = x.mvm_bipolar(&q);
        let _ = x.mvm_weighted(&[1.0, 0.0, 0.0, 0.0]);
        let s = x.stats();
        assert_eq!(s.mvms, 2);
        assert_eq!(s.weighted_mvms, 1);
        assert_eq!(s.row_activations, 3 * 64);
        assert_eq!(s.programs, (64 * 4 * 2) as u64);
    }

    #[test]
    fn tiled_equals_monolithic_in_ideal_case() {
        let b = book(8, 1024, 73);
        let mut mono = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 8);
        let mut tiled = TiledCrossbar::program(&b, 256, NoiseSpec::ideal(), Fidelity::Column, 8);
        assert_eq!(tiled.tile_count(), 4);
        let q = BipolarVector::random(1024, &mut rng_from_seed(74));
        let a = mono.mvm_bipolar(&q);
        let t = tiled.mvm_bipolar(&q);
        for (x, y) in a.iter().zip(&t) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn tiled_noise_matches_monolithic_sigma() {
        let b = book(2, 1024, 75);
        let noise = NoiseSpec {
            stuck_at_rate: 0.0,
            ..NoiseSpec::chip_40nm()
        };
        let mut tiled = TiledCrossbar::program(&b, 256, noise, Fidelity::Column, 9);
        let q = b.vector(0).clone();
        let s: Summary = (0..2000)
            .map(|_| tiled.mvm_bipolar(&q)[0] - 1024.0)
            .collect();
        // Four tiles of sqrt(256)·σ in quadrature = sqrt(1024)·σ.
        let expect = noise.column_sigma(1024);
        assert!((s.std_dev() - expect).abs() < 0.4, "std {}", s.std_dev());
    }

    #[test]
    fn tiled_weighted_matches_monolithic() {
        let b = book(8, 512, 79);
        let mut mono = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 12);
        let mut tiled = TiledCrossbar::program(&b, 256, NoiseSpec::ideal(), Fidelity::Column, 12);
        let w: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        let a = mono.mvm_weighted(&w);
        let t = tiled.mvm_weighted(&w);
        assert_eq!(t.len(), 512);
        for (x, y) in a.iter().zip(&t) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn tiled_shutdown_blocks() {
        let b = book(2, 512, 76);
        let mut tiled = TiledCrossbar::program(&b, 256, NoiseSpec::ideal(), Fidelity::Column, 10);
        tiled.set_power_mode(PowerMode::Shutdown);
        let q = BipolarVector::random(512, &mut rng_from_seed(77));
        assert!(tiled.try_mvm_bipolar(&q).is_err());
    }

    #[test]
    fn ir_drop_attenuates_but_preserves_argmax() {
        use crate::irdrop::IrDropModel;
        let b = book(16, 256, 80);
        let mut ideal = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 13);
        let mut dropped = Crossbar::program(&b, NoiseSpec::ideal(), Fidelity::Column, 13)
            .with_ir_drop(IrDropModel::macro_40nm_raw());
        let q = b.vector(5).clone();
        let oi = ideal.mvm_bipolar(&q);
        let od = dropped.mvm_bipolar(&q);
        assert!(od[5] < oi[5], "drop must attenuate the match current");
        let best = od
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 5, "argmax must survive first-order drop");
    }

    #[test]
    fn write_nonlinearity_compresses_window_in_both_fidelities() {
        let b = book(8, 256, 81);
        let noise = NoiseSpec {
            write_nonlinearity: 0.25,
            ..NoiseSpec::ideal()
        };
        let q = b.vector(2).clone();
        let mut col = Crossbar::program(&b, noise, Fidelity::Column, 14);
        let oc = col.mvm_bipolar(&q);
        assert!((oc[2] - 0.75 * 256.0).abs() < 1e-9, "column path {}", oc[2]);
        let mut cell = Crossbar::program(&b, noise, Fidelity::Cell, 14);
        let ocell = cell.mvm_bipolar(&q);
        assert!(
            (ocell[2] - 0.75 * 256.0).abs() < 1e-3,
            "cell path {}",
            ocell[2]
        );
        // The projection direction pays the same deterministic gain.
        let mut w = vec![0.0; 8];
        w[2] = 1.0;
        let ow = col.mvm_weighted(&w);
        assert!((ow[0].abs() - 0.75).abs() < 1e-9, "weighted {}", ow[0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn tiled_rejects_bad_split() {
        let b = book(2, 100, 78);
        let _ = TiledCrossbar::program(&b, 256, NoiseSpec::ideal(), Fidelity::Column, 11);
    }
}
