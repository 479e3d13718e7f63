//! The simulated H3DFact engine: resonator iteration through crossbars,
//! ADCs, the XNOR unit, and the three-tier scheduler.
//!
//! [`AnalogKernels`] implements `resonator::ResonatorKernels` on top of the
//! device models: similarity runs on the tier-3 crossbars (noisy analog
//! currents → rectifying sense path → per-column SAR ADC), projection on
//! the tier-2 crossbars (a sign-exact read: only the sense amplifiers'
//! signs leave the tier), unbinding on the tier-1 XNOR bank. The
//! [`arch3d::mapping::TierScheduler`] enforces the single-active-RRAM-tier
//! constraint on *every* kernel call — a scheduling bug becomes a panic,
//! not a silently wrong number — and every operation deposits energy into
//! a component ledger.

use arch3d::design::{DesignVariant, BASE_FREQUENCY_MHZ, NATIVE_PATH_LOAD_F};
use arch3d::mapping::{KernelPhase, TierRole, TierScheduler};
use arch3d::neurosim::ComponentLibrary;
use arch3d::schedule::{IterationSchedule, ScheduleConfig};
use arch3d::tsv::TsvSpec;
use cim::adc::{AdcConfig, SarAdc};
use cim::crossbar::TiledCrossbar;
use cim::energy::{EnergyComponent, EnergyLedger};
use cim::power::PowerMode;
use cim::sram::SramBuffer;
use cim::tech::TechNode;
use cim::xnor::XnorUnit;
use hdc::rng::derive_seed;
use hdc::{BipolarVector, Codebook};
use resonator::engine::{FactorizationOutcome, Factorizer, ResonatorKernels, ResonatorLoop};

use crate::config::H3dFactConfig;
use crate::stats::RunStats;

/// Hardware kernels over programmed crossbars (shared by the H3D and the
/// hybrid-2D engines; they differ in cost nodes and clocking, not in
/// functional behavior).
pub struct AnalogKernels {
    cfg: H3dFactConfig,
    /// Actual programmed shape (may be narrower than `cfg.spec` when a
    /// caller searches reduced codebooks, e.g. the explain-away decoder).
    programmed_dim: usize,
    programmed_cols: usize,
    variant: DesignVariant,
    sim_tier: Vec<TiledCrossbar>,
    proj_tier: Vec<TiledCrossbar>,
    adc: SarAdc,
    xnor: XnorUnit,
    scheduler: TierScheduler,
    buffer: SramBuffer,
    ledger: EnergyLedger,
    lib: ComponentLibrary,
    adc_conversions: u64,
    buffer_peak_bits: u64,
    /// Bits sitting in the buffer from a similarity whose projection was
    /// skipped (degenerate activation under a keep/re-draw policy); they
    /// are discarded on the next similarity.
    pending_bits: u64,
    /// Reused pre-ADC current buffer (`M` entries): one scratch allocation
    /// per programmed kernel set instead of one per factor per iteration.
    mvm_scratch: Vec<f64>,
}

impl AnalogKernels {
    /// Programs the codebooks into both RRAM tiers.
    pub fn program(
        cfg: &H3dFactConfig,
        variant: DesignVariant,
        codebooks: &[Codebook],
        seed: u64,
    ) -> Self {
        cfg.validate();
        assert_eq!(codebooks.len(), cfg.spec.factors, "codebook count");
        let programmed_dim = codebooks[0].dim();
        let programmed_cols = codebooks[0].len();
        let lib = variant.library();
        let mut ledger = EnergyLedger::new();
        let program_one = |f: usize, tier: u64| {
            TiledCrossbar::program(
                &codebooks[f],
                cfg.subarray_rows,
                cfg.noise,
                cfg.fidelity,
                derive_seed(seed, tier * 1000 + f as u64),
            )
            .with_ir_drop(cfg.ir_drop)
        };
        let sim_tier: Vec<_> = (0..cfg.spec.factors).map(|f| program_one(f, 3)).collect();
        let proj_tier: Vec<_> = (0..cfg.spec.factors).map(|f| program_one(f, 2)).collect();
        // Programming energy: every differential pair takes two pulses.
        let pulses: u64 = sim_tier
            .iter()
            .chain(&proj_tier)
            .map(|xb| xb.stats().programs)
            .sum();
        ledger.add(
            EnergyComponent::RramProgram,
            pulses as f64 * sim_tier[0].device_program_energy_j(),
        );
        let adc = SarAdc::ideal(AdcConfig {
            bits: cfg.adc_bits,
            full_scale: cfg.adc_full_scale(),
            offset_sigma: 0.0,
            gain_sigma: 0.0,
        });
        Self {
            cfg: *cfg,
            programmed_dim,
            programmed_cols,
            variant,
            sim_tier,
            proj_tier,
            adc,
            xnor: XnorUnit::new(),
            scheduler: TierScheduler::new(),
            buffer: SramBuffer::new(65_536, variant.digital_node()),
            ledger,
            lib,
            adc_conversions: 0,
            buffer_peak_bits: 0,
            pending_bits: 0,
            mvm_scratch: vec![0.0f64; programmed_cols],
        }
    }

    fn periph(&self) -> TechNode {
        self.variant.periphery_node()
    }

    fn digital(&self) -> TechNode {
        self.variant.digital_node()
    }

    fn tsv_energy(&mut self, switches: u64) {
        if self.variant == DesignVariant::H3dThreeTier && switches > 0 {
            self.ledger.add(
                EnergyComponent::Interconnect,
                switches as f64 * TsvSpec::paper().switch_energy_j(TechNode::N40.vdd()),
            );
        }
    }

    /// Activates the requested RRAM tier, updating crossbar power modes.
    fn switch_to(&mut self, role: TierRole) {
        if self.scheduler.active() == Some(role) {
            return;
        }
        self.scheduler.activate(role);
        let (on, off): (&mut Vec<TiledCrossbar>, &mut Vec<TiledCrossbar>) = match role {
            TierRole::RramSimilarity => (&mut self.sim_tier, &mut self.proj_tier),
            TierRole::RramProjection => (&mut self.proj_tier, &mut self.sim_tier),
            TierRole::Digital => unreachable!("digital tier is always on"),
        };
        for xb in on.iter_mut() {
            xb.set_power_mode(PowerMode::Active);
        }
        for xb in off.iter_mut() {
            xb.set_power_mode(PowerMode::Shutdown);
        }
    }

    /// Accumulated energy ledger (shared with the engine at run end).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The tier scheduler (switch counts).
    pub fn scheduler(&self) -> &TierScheduler {
        &self.scheduler
    }

    /// ADC conversions so far.
    pub fn adc_conversions(&self) -> u64 {
        self.adc_conversions
    }

    /// Peak buffer occupancy so far, bits.
    pub fn buffer_peak_bits(&self) -> u64 {
        self.buffer_peak_bits
    }
}

impl ResonatorKernels for AnalogKernels {
    fn dim(&self) -> usize {
        self.programmed_dim
    }

    fn factors(&self) -> usize {
        self.cfg.spec.factors
    }

    fn codebook_size(&self) -> usize {
        self.programmed_cols
    }

    fn unbind_into(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        self.scheduler
            .run_phase(KernelPhase::Unbind)
            .expect("digital tier is always on");
        self.xnor.unbind_all_into(product, others, out);
        self.ledger.add(
            EnergyComponent::Unbind,
            others.len() as f64 * product.dim() as f64 * self.lib.e_xnor_gate_j(self.digital()),
        );
    }

    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]) {
        let d = self.programmed_dim as f64;
        let m = self.programmed_cols as f64;
        self.switch_to(TierRole::RramSimilarity);
        self.scheduler
            .run_phase(KernelPhase::Similarity)
            .expect("similarity tier active");
        self.sim_tier[factor]
            .try_mvm_bipolar_into(query, &mut self.mvm_scratch)
            .expect("similarity tier active for MVM");
        self.ledger.add(
            EnergyComponent::SimilarityMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.ledger.add(
            EnergyComponent::Control,
            d * self.lib.e_drive_row_j(self.periph()),
        );
        // Word lines in + analog column currents out through the TSVs.
        self.tsv_energy((query.dim() + self.mvm_scratch.len()) as u64);

        // Rectifying sense path (VTGT-referenced, positive currents only)
        // feeding the per-column SAR ADCs.
        self.scheduler
            .run_phase(KernelPhase::AdcConvert)
            .expect("digital tier is always on");
        for (w, &c) in out.iter_mut().zip(&self.mvm_scratch) {
            *w = self.adc.convert(c.max(0.0));
        }
        self.adc_conversions += out.len() as u64;
        self.ledger.add(
            EnergyComponent::Adc,
            m * self.lib.e_adc_j(self.cfg.adc_bits, self.periph()),
        );

        // Quantized similarities wait in the tier-1 SRAM until the
        // projection tier takes over.
        self.scheduler
            .run_phase(KernelPhase::Buffer)
            .expect("digital tier is always on");
        if self.pending_bits > 0 {
            // The previous factor's projection was skipped (degenerate
            // activation); its stale record is discarded.
            self.buffer.pop(self.pending_bits);
            self.pending_bits = 0;
        }
        let bits = self.programmed_cols as u64 * self.cfg.adc_bits as u64;
        self.buffer.push(bits).expect("buffer sized for one factor");
        self.pending_bits = bits;
        self.buffer_peak_bits = self.buffer_peak_bits.max(self.buffer.used_bits());
        self.ledger.add(
            EnergyComponent::SramBuffer,
            bits as f64 * self.buffer.access_energy_per_bit_j(),
        );
    }

    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]) {
        let d = self.programmed_dim as f64;
        let m = self.programmed_cols as f64;
        // Drain the buffered similarities, then flip tiers.
        let bits = self
            .pending_bits
            .min(self.programmed_cols as u64 * self.cfg.adc_bits as u64);
        self.buffer.pop(bits);
        self.pending_bits = 0;
        self.ledger.add(
            EnergyComponent::SramBuffer,
            bits as f64 * self.buffer.access_energy_per_bit_j(),
        );
        self.switch_to(TierRole::RramProjection);
        self.scheduler
            .run_phase(KernelPhase::Projection)
            .expect("projection tier active");
        self.proj_tier[factor]
            .try_mvm_weighted_signs_into(weights, out)
            .expect("projection tier active for MVM");
        self.ledger.add(
            EnergyComponent::ProjectionMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.ledger.add(
            EnergyComponent::Control,
            m * self.lib.e_drive_row_j(self.periph()),
        );
        self.ledger.add(
            EnergyComponent::Activation,
            d * self.lib.e_sense_j(self.periph()),
        );
        // Digital codes in, sign lines out.
        self.tsv_energy(bits + out.len() as u64);
        self.scheduler
            .run_phase(KernelPhase::Writeback)
            .expect("digital tier is always on");
    }
}

/// Aggregates per-item [`RunStats`] (solved at consecutive run cursors)
/// into the batch-level report of the SRAM-buffered batch schedule
/// (Sec. IV-A) on a design clocked at `frequency_mhz`: energy, tier
/// switches, ADC conversions and degenerate events sum over the items,
/// cycles and latency come from the amortized batch pipeline, and the
/// buffer peak covers the batch schedule's staging. This is the single
/// definition of the batch roll-up: [`H3dFact::factorize_batch`] uses it
/// after solving sequentially, and the facade's target backend uses it
/// after solving the same items on its own or across worker engines.
///
/// # Panics
///
/// Panics if `per_item` is empty.
pub fn batch_run_stats(factors: usize, frequency_mhz: f64, per_item: &[RunStats]) -> RunStats {
    assert!(!per_item.is_empty(), "batch must be non-empty");
    let mut energy = EnergyLedger::new();
    let mut tier_switches = 0u64;
    let mut adc_conversions = 0u64;
    let mut degenerate_events = 0usize;
    let mut buffer_peak_bits = 0u64;
    let mut total_iters = 0usize;
    for stats in per_item {
        energy.merge(&stats.energy);
        tier_switches += stats.tier_switches;
        adc_conversions += stats.adc_conversions;
        degenerate_events += stats.degenerate_events;
        buffer_peak_bits = buffer_peak_bits.max(stats.buffer_peak_bits);
        total_iters += stats.iterations;
    }
    // Batch-level cycles/latency from the amortized schedule.
    let schedule = IterationSchedule::compute(&ScheduleConfig::paper(factors, per_item.len()));
    let cycles = schedule.cycles * (total_iters as u64 / per_item.len() as u64).max(1);
    RunStats {
        iterations: total_iters,
        cycles,
        latency_s: cycles as f64 / (frequency_mhz * 1e6),
        energy,
        tier_switches,
        adc_conversions,
        degenerate_events,
        buffer_peak_bits: buffer_peak_bits.max(schedule.buffer_peak_bits),
    }
}

/// The simulated H3DFact accelerator.
pub struct H3dFact {
    cfg: H3dFactConfig,
    variant: DesignVariant,
    seed: u64,
    runs: u64,
    last_stats: Option<RunStats>,
}

impl H3dFact {
    /// Creates the engine (three-tier H3D variant).
    pub fn new(cfg: H3dFactConfig, seed: u64) -> Self {
        cfg.validate();
        Self {
            cfg,
            variant: DesignVariant::H3dThreeTier,
            seed,
            runs: 0,
            last_stats: None,
        }
    }

    /// Creates the engine for a different design variant (used by the
    /// hybrid-2D baseline, which shares the analog datapath).
    pub fn with_variant(cfg: H3dFactConfig, variant: DesignVariant, seed: u64) -> Self {
        assert_ne!(
            variant,
            DesignVariant::Sram2d,
            "the SRAM 2D baseline uses digital kernels (`Sram2dEngine`)"
        );
        cfg.validate();
        Self {
            cfg,
            variant,
            seed,
            runs: 0,
            last_stats: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &H3dFactConfig {
        &self.cfg
    }

    /// Design clock frequency, MHz.
    pub fn frequency_mhz(&self) -> f64 {
        match self.variant {
            DesignVariant::H3dThreeTier => {
                BASE_FREQUENCY_MHZ * TsvSpec::paper().frequency_derate(NATIVE_PATH_LOAD_F)
            }
            _ => BASE_FREQUENCY_MHZ,
        }
    }

    /// Statistics of the most recent run.
    pub fn last_run_stats(&self) -> Option<&RunStats> {
        self.last_stats.as_ref()
    }

    /// How many `factorize*` item solves this engine has issued; per-run
    /// seeds derive from `(engine seed, cursor)`.
    pub fn run_cursor(&self) -> u64 {
        self.runs
    }

    /// Repositions the run cursor so the next `factorize*` call draws the
    /// seed stream of run `cursor` (deterministic parallel executors give
    /// each item the cursor it would have had sequentially).
    pub fn set_run_cursor(&mut self, cursor: u64) {
        self.runs = cursor;
    }

    /// Records the batch-level report of per-item [`RunStats`] (solved at
    /// consecutive run cursors) as this engine's last run — see
    /// [`batch_run_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `per_item` is empty.
    pub fn install_batch_stats(&mut self, per_item: &[RunStats]) {
        self.last_stats = Some(batch_run_stats(
            self.cfg.spec.factors,
            self.frequency_mhz(),
            per_item,
        ));
    }

    /// Factorizes a batch of queries over shared codebooks with the
    /// SRAM-buffered batch schedule (Sec. IV-A): the per-item dynamics
    /// are identical to sequential `factorize_query` calls, cycles and
    /// latency come from the amortized batch-`B` pipeline, and the
    /// recorded stats aggregate the whole batch (energy is the exact sum
    /// of the per-item ledgers).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes disagree.
    pub fn factorize_batch(
        &mut self,
        codebooks: &[Codebook],
        items: &[resonator::batch::BatchItem],
    ) -> resonator::batch::BatchOutcome {
        assert!(!items.is_empty(), "batch must be non-empty");
        let mut per_item: Vec<RunStats> = Vec::with_capacity(items.len());
        let mut outcomes: Vec<FactorizationOutcome> = Vec::with_capacity(items.len());
        for item in items {
            let o = self.factorize_query(codebooks, &item.query, item.truth.as_deref());
            if let Some(stats) = &self.last_stats {
                per_item.push(stats.clone());
            }
            outcomes.push(o);
        }
        self.install_batch_stats(&per_item);
        resonator::batch::BatchOutcome::from_outcomes(outcomes)
    }
}

impl Factorizer for H3dFact {
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let run_seed = derive_seed(self.seed, self.runs);
        self.runs += 1;
        let mut kernels = AnalogKernels::program(&self.cfg, self.variant, codebooks, run_seed);
        let outcome = ResonatorLoop::new(self.cfg.loop_config).run(
            &mut kernels,
            codebooks,
            query,
            truth,
            derive_seed(run_seed, 0xACC),
        );

        // Latency/cycles from the batch schedule; control energy follows.
        let schedule = IterationSchedule::compute(&ScheduleConfig::paper(
            self.cfg.spec.factors,
            self.cfg.batch,
        ));
        let cycles = schedule.cycles * outcome.iterations as u64;
        let mut energy = kernels.ledger().clone();
        energy.add(
            EnergyComponent::Control,
            cycles as f64 * kernels.lib.e_control_cycle_j(self.variant.digital_node()),
        );
        let latency_s = cycles as f64 / (self.frequency_mhz() * 1e6);
        self.last_stats = Some(RunStats {
            iterations: outcome.iterations,
            cycles,
            latency_s,
            energy,
            tier_switches: kernels.scheduler().switches(),
            adc_conversions: kernels.adc_conversions(),
            degenerate_events: outcome.degenerate_events,
            buffer_peak_bits: kernels.buffer_peak_bits(),
        });
        outcome
    }
}

// Small accessor used by programming-energy accounting.
impl TiledCrossbarExt for TiledCrossbar {}

/// Extension giving the tiled crossbar access to its device programming
/// energy (kept here to avoid widening the `cim` API surface).
trait TiledCrossbarExt {
    /// Energy of one programming pulse, joules.
    fn device_program_energy_j(&self) -> f64 {
        cim::rram::RramDeviceParams::default().program_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;
    use hdc::{FactorizationProblem, ProblemSpec};

    fn problem(f: usize, m: usize, d: usize, seed: u64) -> FactorizationProblem {
        FactorizationProblem::random(ProblemSpec::new(f, m, d), &mut rng_from_seed(seed))
    }

    #[test]
    fn h3dfact_solves_small_problem() {
        let p = problem(3, 8, 512, 200);
        let mut eng = H3dFact::new(H3dFactConfig::default_for(p.spec()), 1);
        let out = eng.factorize(&p);
        assert!(out.solved, "H3DFact failed a small problem");
        let stats = eng.last_run_stats().unwrap();
        assert!(stats.energy.total() > 0.0);
        assert!(stats.latency_s > 0.0);
        assert!(stats.adc_conversions > 0);
    }

    #[test]
    fn tier_switches_happen_every_iteration() {
        let p = problem(3, 8, 512, 201);
        let mut eng = H3dFact::new(H3dFactConfig::default_for(p.spec()), 2);
        let out = eng.factorize(&p);
        let stats = eng.last_run_stats().unwrap();
        // Each factor update flips similarity → projection (and back on
        // the next factor): at least 2 switches per iteration.
        assert!(
            stats.tier_switches >= 2 * out.iterations as u64,
            "switches {} vs iterations {}",
            stats.tier_switches,
            out.iterations
        );
    }

    #[test]
    fn energy_ledger_has_all_major_components() {
        let p = problem(3, 8, 512, 202);
        let mut eng = H3dFact::new(H3dFactConfig::default_for(p.spec()), 3);
        let _ = eng.factorize(&p);
        let e = &eng.last_run_stats().unwrap().energy;
        for c in [
            EnergyComponent::SimilarityMvm,
            EnergyComponent::ProjectionMvm,
            EnergyComponent::Adc,
            EnergyComponent::Unbind,
            EnergyComponent::SramBuffer,
            EnergyComponent::Interconnect,
            EnergyComponent::RramProgram,
            EnergyComponent::Control,
        ] {
            assert!(e.get(c) > 0.0, "missing energy component {c}");
        }
    }

    #[test]
    fn hybrid_variant_has_no_tsv_energy_and_full_clock() {
        let p = problem(3, 8, 512, 203);
        let cfg = H3dFactConfig::default_for(p.spec());
        let mut hybrid = H3dFact::with_variant(cfg, DesignVariant::Hybrid2d, 4);
        let _ = hybrid.factorize(&p);
        let stats = hybrid.last_run_stats().unwrap();
        assert_eq!(stats.energy.get(EnergyComponent::Interconnect), 0.0);
        assert_eq!(hybrid.frequency_mhz(), 200.0);
        let h3d = H3dFact::new(cfg, 4);
        assert!(h3d.frequency_mhz() < 190.0);
    }

    #[test]
    fn hardware_matches_software_model_statistically() {
        // The device-accurate engine and the algorithm-level stochastic
        // model should have comparable solve rates on a moderate problem.
        let spec = ProblemSpec::new(3, 16, 512);
        let mut hw_solved = 0i32;
        let mut sw_solved = 0i32;
        for t in 0..10u64 {
            let p = FactorizationProblem::random(spec, &mut rng_from_seed(300 + t));
            let mut hw = H3dFact::new(H3dFactConfig::default_for(spec).with_max_iters(500), t);
            if hw.factorize(&p).solved {
                hw_solved += 1;
            }
            let mut sw = resonator::StochasticResonator::paper_default(spec, 500, t);
            if sw.factorize(&p).solved {
                sw_solved += 1;
            }
        }
        assert!(hw_solved >= 8, "hardware engine solved only {hw_solved}/10");
        assert!((hw_solved - sw_solved).abs() <= 2);
    }

    #[test]
    fn explain_away_works_on_hardware_engine() {
        use resonator::superposed::{explain_away, ExplainAwayConfig};
        let spec = ProblemSpec::new(3, 8, 512);
        let mut rng = rng_from_seed(206);
        let books: Vec<hdc::Codebook> = (0..3)
            .map(|_| hdc::Codebook::random(8, 512, &mut rng))
            .collect();
        let idx_a = vec![1usize, 2, 3];
        let idx_b = vec![4usize, 5, 6];
        let compose = |idx: &[usize]| {
            hdc::bind_all(
                &idx.iter()
                    .zip(&books)
                    .map(|(&i, cb)| cb.vector(i).clone())
                    .collect::<Vec<_>>(),
            )
        };
        let bundle = hdc::bundle(&[compose(&idx_a), compose(&idx_b)], hdc::TieBreak::Parity);
        let mut engine = H3dFact::new(H3dFactConfig::default_for(spec).with_max_iters(800), 11);
        let out = explain_away(&mut engine, &books, &bundle, &ExplainAwayConfig::default());
        assert!(
            out.matches(&[idx_a, idx_b]),
            "hardware explain-away decoded {:?}",
            out.objects
        );
    }

    #[test]
    fn batch_runs_share_codebooks_and_aggregate() {
        let spec = ProblemSpec::new(3, 8, 256);
        let mut rng = rng_from_seed(205);
        let books: Vec<hdc::Codebook> = (0..3)
            .map(|_| hdc::Codebook::random(8, 256, &mut rng))
            .collect();
        let (items, _) = resonator::batch::random_batch(&books, 6, 77);
        let mut eng = H3dFact::new(H3dFactConfig::default_for(spec).with_max_iters(800), 9);
        let out = eng.factorize_batch(&books, &items);
        assert_eq!(out.len(), 6);
        assert!(out.accuracy() >= 0.8, "batch accuracy {}", out.accuracy());
        let stats = eng.last_run_stats().unwrap();
        // The batch schedule buffers several elements in tier-1 SRAM.
        assert!(stats.buffer_peak_bits >= 6 * 256 * 4 / 2);
        assert!(stats.latency_s > 0.0);
    }

    #[test]
    fn adc8_config_runs() {
        let p = problem(3, 8, 512, 204);
        let cfg = H3dFactConfig::default_for(p.spec()).with_adc_bits(8);
        let mut eng = H3dFact::new(cfg, 5);
        let out = eng.factorize(&p);
        assert!(out.solved);
    }
}
