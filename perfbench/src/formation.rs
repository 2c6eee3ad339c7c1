//! `formation-asym-async`: single ASYNC formations from asymmetric starts at
//! n = 16 and n = 24, each one `World::run` on a world built in set-up.
//!
//! No election runs (asymmetric starts draw no bits), so the time goes to
//! SEC, views and Compute; the shifted-set search is minor.

use crate::common::{
    check_bits, check_formed, same_result, shuffle, traced_pass, RunOutput, SetupTimer,
};
use crate::Args;
use apf_bench::engine::{trial_seed, RunSpec};
use apf_bench::RunResult;
use apf_scheduler::SchedulerKind;
use std::time::Instant;

/// Step budget: about nine times the longest op's 23k steps.
const BUDGET: u64 = 200_000;
/// Campaign seed of experiment E3, whose instance seeding the ops reuse.
const E3_SEED: u64 = 3;
/// The op list: `(n, i)` is `asymmetric_configuration(n, 5000 + i)` →
/// `random_pattern(n, 6000 + i)` with robot seed `trial_seed(3, i)`.
const OPS: &[(usize, u64)] = &[(16, 0), (16, 1), (16, 3), (16, 4), (16, 5), (16, 6), (24, 1)];
/// Set-up repetitions before each op and after the last; `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 25;

fn spec(n: usize, i: u64) -> RunSpec {
    RunSpec::new(
        apf_patterns::asymmetric_configuration(n, 5000 + i),
        apf_patterns::random_pattern(n, 6000 + i),
    )
    .scheduler(SchedulerKind::Async)
    .budget(BUDGET)
    .seed(trial_seed(E3_SEED, i))
}

/// Runs the workload.
pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let mut ops: Vec<(usize, u64)> = OPS.to_vec();
    shuffle(&mut ops, args.seed);

    // Set-up: generate every op's inputs and build (validate) its world.
    let build_all = || ops.iter().map(|&(n, i)| spec(n, i).build_world()).collect::<Vec<_>>();
    let mut setup = SetupTimer::default();
    let built = setup.sample(SETUP_REPS, build_all);

    // Untraced pass: one `World::run` per op, the set-up repeated between
    // ops outside their timing.
    let mut latencies = Vec::with_capacity(ops.len());
    let mut finished = Vec::with_capacity(ops.len());
    for world in built {
        let mut world = match world {
            Ok(world) => world,
            Err(e) => {
                out.problem(format!("instance rejected: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let outcome = world.run(BUDGET);
        latencies.push(t0.elapsed().as_secs_f64());
        finished.push((world, outcome));
        setup.sample(SETUP_REPS, build_all);
    }
    let wall: f64 = latencies.iter().sum();

    let mut results: Vec<RunResult> = Vec::with_capacity(ops.len());
    for (k, ((world, outcome), &(n, i))) in finished.iter_mut().zip(&ops).enumerate() {
        out.attempted += 1;
        let r = RunResult::from(outcome.clone());
        results.push(r);
        if !outcome.formed {
            out.failed += 1;
            out.problem(format!("op {k} (n={n}, i={i}) stopped with {:?}", outcome.reason));
            continue;
        }
        if let Err(e) = check_formed(&outcome.final_positions, world) {
            out.problem(format!("op {k} (n={n}, i={i}): {e}"));
        }
        if let Err(e) = check_bits(&r, true) {
            out.problem(format!("op {k} (n={n}, i={i}): {e}"));
        }
    }
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    out.set_end_to_end(setup.median(), &latencies, wall, cycles);

    // Re-run one n = 16 op (chosen by the seed) through `try_run_digest`.
    let small: Vec<usize> = (0..ops.len()).filter(|&k| ops[k].0 == 16).collect();
    let chosen = small[(args.seed % small.len() as u64) as usize];
    let (n, i) = ops[chosen];
    let rerun_digest = match spec(n, i).try_run_digest() {
        Ok((r, digest)) => {
            if !same_result(&r, &results[chosen]) {
                out.problem(format!("re-run of op {chosen} (n={n}, i={i}) differs"));
            }
            out.notes.push(format!("re-run op {chosen} (n={n}, i={i}): digest {digest:016x}"));
            Some(digest)
        }
        Err(e) => {
            out.problem(format!("re-run of op {chosen} rejected: {e}"));
            None
        }
    };

    if args.trace {
        let specs: Vec<RunSpec> = ops.iter().map(|&(n, i)| spec(n, i)).collect();
        let expected: Vec<(RunResult, Option<u64>)> = results
            .iter()
            .enumerate()
            .map(|(k, r)| (*r, if k == chosen { rerun_digest } else { None }))
            .collect();
        traced_pass(&specs, BUDGET, &expected, &mut out);
        out.layers.set("bench.engine.trial_s_max", latencies.iter().copied().fold(0.0, f64::max));
    }
    out
}
