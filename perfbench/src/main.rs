//! One repeatable benchmark of the H3DFact reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <capacity-sw|table3-hw|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the traced probe for the per-layer metrics and writes its spans to
//! `perfbench/out/`. Every run checks its correctness gates, prints every
//! metric by name and unit, and ends with one JSON line; a failed gate
//! makes the exit code non-zero. `perfbench/METRICS.md` describes the
//! workloads, metrics and how they interact.

mod adaptor;
mod batch;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use spans::Spans;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CapacitySw,
    Table3Hw,
    ServeOpen,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "capacity-sw" => Some(Self::CapacitySw),
            "table3-hw" => Some(Self::Table3Hw),
            "serve-open" => Some(Self::ServeOpen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::CapacitySw => "capacity-sw",
            Self::Table3Hw => "table3-hw",
            Self::ServeOpen => "serve-open",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <capacity-sw|table3-hw|serve-open> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let mut report = Report::default();
    let detection = h3dfact::hdc::dispatch::detection();
    report.note("workload", args.workload.name());
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note("simd_arm", detection.arm.name());
    report.note("simd_forced", detection.forced.map_or("none", |a| a.name()));
    report.note("target_cpu", env!("H3DFACT_TARGET_CPU"));
    report.note("threads_pinned", batch::THREADS);

    let jiffies0 = stats::cpu_jiffies();
    let mut spans = Spans::new();
    match (args.workload, args.trace) {
        (Workload::CapacitySw, false) => {
            batch::run_untraced(&batch::CAPACITY_SW, args.seed, args.seconds, &mut report)
        }
        (Workload::Table3Hw, false) => {
            batch::run_untraced(&batch::TABLE3_HW, args.seed, args.seconds, &mut report)
        }
        (Workload::ServeOpen, false) => serve::run_untraced(args.seed, args.seconds, &mut report),
        (Workload::CapacitySw | Workload::Table3Hw, true) => {
            let shape = if args.workload == Workload::CapacitySw {
                &batch::CAPACITY_SW
            } else {
                &batch::TABLE3_HW
            };
            let hot = batch::trace_probe(shape, args.seed, args.seconds, &mut report, &mut spans);
            report.metric("registry.hot_hit_rate", hot, "fraction");
            serve::bypassed(&mut report);
            report.attempted = shape.round as u64;
        }
        (Workload::ServeOpen, true) => {
            serve::run_traced(args.seed, args.seconds, &mut report, &mut spans)
        }
    }

    if args.trace {
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write(&path) {
            Ok(()) => report.note(
                "spans",
                format!("{} spans in {}", spans.len(), path.display()),
            ),
            Err(e) => report.gate("spans_written", false, format!("{}: {e}", path.display())),
        }
    }
    // Steal time is a property of the host, not of the program, but it
    // moves every wall-clock figure; it is recorded to explain outliers.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies0, stats::cpu_jiffies()) {
        let steal = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        report.note("host_steal_frac", format!("{steal:.4}"));
    }
    report.gate(
        "attempted_positive",
        report.attempted > 0,
        format!("{} operations attempted", report.attempted),
    );
    if report.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
