//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes one fixed list of operations (never a time-bounded
//! loop), sized to take about 30 s (`run_seconds` in `BENCHMARK.json`) on
//! the reference host. `--seconds` is checked but does not change the work,
//! so no count depends on it; `--seed` only chooses the order of the ops and
//! which of them are re-run for the spot checks (see `README.md`). The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; with `--trace 0` the metrics are the end-to-end
//! ones, with `--trace 1` the per-layer ones of a separately traced pass.

mod campaign;
mod common;
mod formation;
mod serve;

use common::RunOutput;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_s_p50", "s"),
    ("op_latency_s_p90", "s"),
    ("lcm_cycles_per_s", "1/s"),
    ("lcm_cycles", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1` (0 where
/// the layer is not on the workload's path).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for kernel in common::KERNELS {
        out.push((format!("geometry.{}.calls", kernel.label()), "count"));
        out.push((format!("geometry.{}.self_s", kernel.label()), "s"));
    }
    out.push(("core.compute.calls".into(), "count"));
    out.push(("core.compute.self_s".into(), "s"));
    out.push(("core.move_ratio".into(), "ratio"));
    for phase in apf_trace::PhaseKind::ALL {
        out.push((format!("core.phase.{}.cycles", phase.label()), "count"));
    }
    out.push(("core.election.bits".into(), "count"));
    out.push(("random_bits".into(), "count"));
    for (name, unit) in [
        ("sim.steps", "count"),
        ("sim.moves", "count"),
        ("sim.step_s", "s"),
        ("sim.is_formed_s", "s"),
        ("bench.build_world_s", "s"),
        ("bench.engine.trial_s_max", "s"),
        ("trace.events", "count"),
        ("trace.overhead_s", "s"),
        ("serve.http.submit_s_p50", "s"),
        ("serve.http.poll_s_p50", "s"),
        ("serve.http.result_s_p50", "s"),
        ("serve.queue_wait_s_p50", "s"),
        ("serve.exec_s_p50", "s"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.cache.verify_replays", "count"),
        ("serve.polls_per_job", "count"),
        ("serve.json.parse_s", "s"),
        ("serve.http.rejected", "count"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["formation-asym-async", "campaign-sym-async", "serve-jobs-mixed"];

/// Parsed command line.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: chooses the order of the fixed operation list.
    pub seed: u64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    if seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), trace: trace.unwrap_or(false) })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out: RunOutput = match args.workload.as_str() {
        "formation-asym-async" => formation::run(&args),
        "campaign-sym-async" => campaign::run(&args),
        _ => serve::run(&args),
    };
    for problem in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| (name.clone(), out.layers.get(&name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), out.end_to_end.get(name), unit))
            .collect()
    };
    if args.trace {
        if let Err(e) = common::write_spans(&args, &out) {
            eprintln!("perfbench: could not write the span file: {e}");
        }
    }
    let correct = out.problems.is_empty();
    println!("{}", common::result_json(correct, out.attempted, out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
