//! `campaign-sym-async`: E3-seeded symmetric-start trials under ASYNC, each
//! op one single-trial campaign through `Engine` with trace digests on, the
//! way `apf-cli job-digest` and `apf-serve` run trials.
//!
//! Election draws random bits and shifted-set matching dominates. The list
//! keeps two trials that freeze in ψ_DPF's rotate phase (the blocker rule
//! near `MIN_SEPARATION` in `crates/core/src/dpf/phase2.rs`); they spend
//! the whole step budget and count as failed ops.

use crate::common::{
    check_bits, check_formed, drive_spec, same_result, shuffle, traced_pass, RunOutput, SetupTimer,
};
use crate::Args;
use apf_bench::engine::{trial_seed, Campaign, Engine, RunSpec};
use apf_bench::RunResult;
use apf_scheduler::SchedulerKind;
use apf_sim::StopReason;
use std::time::Instant;

/// Step budget: 2.4 to 2.7 times the longest healthy op (5.6k steps at
/// n=8, 6.1k at n=12).
const BUDGET: u64 = 15_000;
/// Campaign seed of experiment E3 (trial `i` gets robot seed `trial_seed(3, i)`).
const E3_SEED: u64 = 3;
/// Symmetricity of every start.
const RHO: usize = 4;
/// The op list: `(n, i)` is E3's trial `i` of its ASYNC ρ=4 cell at `n`:
/// `symmetric_configuration(n, 4, 5000 + i)` → `random_pattern(n, 6000 + i)`.
const OPS: &[(usize, u64)] = &[
    (8, 0),
    (8, 1),
    (8, 2),
    (8, 3),
    (8, 4),
    (8, 5),
    (8, 6),
    (8, 7),
    (8, 8),
    (8, 9),
    (8, 10),
    (8, 11),
    (8, 12),
    (8, 13),
    (8, 14),
    (12, 0),
    (12, 1),
    (12, 3),
    (12, 4),
    (12, 9),
    (12, 11),
];
/// The ops that freeze in `dpf-rotate` (known fault, counted as failed).
const FROZEN: &[(usize, u64)] = &[(8, 5), (12, 1)];
/// Set-up repetitions before each op and after the last; `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 10;

fn spec(n: usize, i: u64) -> RunSpec {
    RunSpec::new(
        apf_patterns::symmetric_configuration(n, RHO, 5000 + i),
        apf_patterns::random_pattern(n, 6000 + i),
    )
    .scheduler(SchedulerKind::Async)
    .budget(BUDGET)
    .seed(trial_seed(E3_SEED, i))
}

/// One op's engine run: result, digest, wall seconds, and the engine's own
/// longest-trial time.
struct EngineOp {
    result: RunResult,
    digest: u64,
    latency: f64,
    trial_s: f64,
}

/// Runs the workload.
pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let mut ops: Vec<(usize, u64)> = OPS.to_vec();
    shuffle(&mut ops, args.seed);

    // Set-up: generate every op's inputs, validate each through
    // `build_world`, and wrap it as a single-trial campaign.
    let build_all = || {
        ops.iter()
            .map(|&(n, i)| {
                let spec = spec(n, i);
                spec.build_world().map(|_| {
                    let mut c =
                        Campaign::new(format!("e3 async n={n} rho={RHO} trial {i}"), E3_SEED);
                    c.push(spec);
                    c
                })
            })
            .collect::<Vec<_>>()
    };
    let mut setup = SetupTimer::default();
    let campaigns = setup.sample(SETUP_REPS, build_all);

    // Untraced pass: one engine run per op, digests on, one worker; the
    // set-up repeated between ops outside their timing.
    let engine = Engine::new().jobs(1).trace_digests(true).collect_results(true);
    let mut done: Vec<EngineOp> = Vec::with_capacity(ops.len());
    for campaign in &campaigns {
        let campaign = match campaign {
            Ok(c) => c,
            Err(e) => {
                out.problem(format!("instance rejected: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let report = engine.run(campaign);
        let latency = t0.elapsed().as_secs_f64();
        let result = report.results.as_ref().and_then(|r| r.first().copied()).unwrap_or_default();
        let digest = report.digests.as_ref().and_then(|d| d.first().copied()).unwrap_or(0);
        let trial_s = report.longest_trial.map_or(0.0, |(_, d)| d.as_secs_f64());
        done.push(EngineOp { result, digest, latency, trial_s });
        setup.sample(SETUP_REPS, build_all);
    }

    // Checks: bits, and exactly the known frozen ops fail.
    for (k, (op, &(n, i))) in done.iter().zip(&ops).enumerate() {
        out.attempted += 1;
        if let Err(e) = check_bits(&op.result, false) {
            out.problem(format!("op {k} (n={n}, i={i}): {e}"));
        }
        if !op.result.formed {
            out.failed += 1;
            if !FROZEN.contains(&(n, i)) {
                out.problem(format!("op {k} (n={n}, i={i}) did not form in {BUDGET} steps"));
            }
        }
    }
    // Each distinct frozen op is re-run once to read its stop reason and
    // the step of its last position change, and to confirm the digest.
    for &(n, i) in FROZEN {
        let Some(k) = ops.iter().position(|&op| op == (n, i)) else { continue };
        if done[k].result.formed {
            out.notes.push(format!("formerly frozen op n={n} i={i} now forms"));
            continue;
        }
        match drive_spec(&spec(n, i), BUDGET) {
            Ok(run) => {
                let frozen_for = BUDGET - run.counts.last_move_step;
                out.notes.push(format!(
                    "known fault: op n={n} rho={RHO} i={i} stopped with {:?} after {} steps; \
                     last position change at step {}",
                    run.outcome.reason, run.outcome.metrics.steps, run.counts.last_move_step
                ));
                if run.outcome.reason != StopReason::StepBudget {
                    out.problem(format!(
                        "frozen op n={n} i={i} stopped with {:?}",
                        run.outcome.reason
                    ));
                }
                // Frozen, not slow: nothing moved in the last quarter.
                if frozen_for < BUDGET / 4 {
                    out.problem(format!(
                        "op n={n} i={i} was still moving at step {}",
                        run.counts.last_move_step
                    ));
                }
                if run.digest != done[k].digest {
                    out.problem(format!("re-run of frozen op n={n} i={i} changed its digest"));
                }
            }
            Err(e) => out.problem(format!("re-run of frozen op n={n} i={i}: {e}")),
        }
    }
    // One healthy n=8 op (chosen by the seed): re-run through
    // `try_run_digest`, then once more to check its final state. (The
    // engine hands back no final positions, so only this op's final state is
    // checked here; the traced pass checks every formed op's.)
    let healthy: Vec<usize> =
        (0..done.len()).filter(|&k| ops[k].0 == 8 && !FROZEN.contains(&ops[k])).collect();
    let chosen = healthy[(args.seed % healthy.len() as u64) as usize];
    let (n, i) = ops[chosen];
    match spec(n, i).try_run_digest() {
        Ok((r, digest)) => {
            if digest != done[chosen].digest || !same_result(&r, &done[chosen].result) {
                out.problem(format!("re-run of op {chosen} (n={n}, i={i}) differs"));
            }
        }
        Err(e) => out.problem(format!("re-run of op {chosen}: {e}")),
    }
    if !args.trace {
        match drive_spec(&spec(n, i), BUDGET) {
            Ok(mut run) => {
                if let Err(e) = check_formed(&run.outcome.final_positions, &mut run.world) {
                    out.problem(format!("op {chosen} (n={n}, i={i}): {e}"));
                }
            }
            Err(e) => out.problem(format!("final-state re-run of op {chosen}: {e}")),
        }
    }

    let latencies: Vec<f64> = done.iter().map(|op| op.latency).collect();
    let wall: f64 = latencies.iter().sum();
    let cycles: u64 = done.iter().map(|op| op.result.cycles).sum();
    out.set_end_to_end(setup.median(), &latencies, wall, cycles);

    if args.trace {
        let specs: Vec<RunSpec> = ops.iter().map(|&(n, i)| spec(n, i)).collect();
        let expected: Vec<(RunResult, Option<u64>)> =
            done.iter().map(|op| (op.result, Some(op.digest))).collect();
        traced_pass(&specs, BUDGET, &expected, &mut out);
        let trial_max = done.iter().map(|op| op.trial_s).fold(0.0, f64::max);
        out.layers.set("bench.engine.trial_s_max", trial_max);
    }
    out
}
