//! Result collection and printing: every metric by name and unit, the
//! provenance, the correctness gates, and the final one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports, with units (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units (the
/// `per_layer` list of `BENCHMARK.json`). A layer a workload bypasses
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("target.unbind_s", "s"),
    ("target.similarity_s", "s"),
    ("target.project_s", "s"),
    ("target.end_iteration_s", "s"),
    ("target.run_setup_s", "s"),
    ("target.kernel_calls", "count"),
    ("resonator.loop_self_s", "s"),
    ("resonator.iterations", "count"),
    ("resonator.iters_per_solve", "count"),
    ("resonator.revisits", "count"),
    ("resonator.degenerate_events", "count"),
    ("resonator.useful_iter_frac", "fraction"),
    ("hdc.similarity_batch_ns", "ns"),
    ("hdc.project_batch_ns", "ns"),
    ("hdc.similarity_bytes_per_call", "bytes"),
    ("hdc.project_bytes_per_call", "bytes"),
    ("executor.speedup_2v1", "x"),
    ("executor.steal_events", "count"),
    ("session.generate_s", "s"),
    ("session.round_s_p50", "s"),
    ("sim.cycles", "count"),
    ("cim.adc_conversions", "count"),
    ("arch3d.tier_switches", "count"),
    ("sim.buffer_peak_bits", "bits"),
    ("sim.energy_per_solve_uj", "uJ"),
    ("sim.latency_per_solve_us", "us"),
    ("service.admit_us_p50", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.solve_ms_per_batch_p50", "ms"),
    ("service.complete_us_p50", "us"),
    ("service.batch_mean", "count"),
    ("service.deadline_flush_frac", "fraction"),
    ("server.latency_p50_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("wire.overhead_ms_p50", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.send_lag_ms_p99", "ms"),
    ("registry.hot_hit_rate", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// One correctness gate's verdict.
struct Gate {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    notes: Vec<(String, String)>,
    gates: Vec<Gate>,
    /// Operations attempted (problems solved or requests sent).
    pub attempted: u64,
    /// Operations that failed (shed, protocol errors, unanswered).
    pub failed: u64,
}

impl Report {
    /// Records a metric. The JSON line takes declared metrics' units
    /// from the tables above; `unit` labels the printed line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a provenance or sample-count note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Prints every metric, note and gate, then the final JSON line with
    /// exactly the declared metrics of the mode. Returns whether every
    /// gate held (including completeness of the declared metric set).
    pub fn print(&mut self, trace: bool) -> bool {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut json_metrics = String::new();
        let mut missing = Vec::new();
        for (name, unit) in declared {
            let found: Vec<&(String, f64, String)> =
                self.metrics.iter().filter(|(n, _, _)| n == name).collect();
            match found.as_slice() {
                [(_, v, _)] if v.is_finite() => {
                    if !json_metrics.is_empty() {
                        json_metrics.push_str(", ");
                    }
                    let _ = write!(
                        json_metrics,
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => missing.push(*name),
            }
        }
        self.gate(
            "metric_set_complete",
            missing.is_empty(),
            format!("missing or non-finite: {missing:?}"),
        );

        let mut notes = String::new();
        for (k, v) in &self.notes {
            if !notes.is_empty() {
                notes.push_str(", ");
            }
            let _ = write!(notes, "\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        println!("{{\"provenance\": {{{notes}}}}}");
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for g in &self.gates {
            let verdict = if g.ok { "PASS" } else { "FAIL" };
            println!("gate {} {verdict} {}", g.name, g.detail);
        }
        let ok = self.gates.iter().all(|g| g.ok);
        println!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json_metrics}}}}}",
            self.attempted, self.failed
        );
        ok
    }
}
