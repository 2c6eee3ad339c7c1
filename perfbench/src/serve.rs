//! `serve-jobs-mixed`: a fresh in-process `apf-serve` (one worker, one
//! engine thread) and a closed-loop client on two connections submitting
//! small n = 7–8 campaigns and waiting for each result.
//!
//! A third of the submissions (52 of 153) repeat a spec the same connection
//! submitted earlier, so the content-addressed cache answers them (and
//! replays every 16th hit to verify it). The one worker runs the misses back
//! to back and is busy about 95% of the pass, so the simulator's speed sets
//! `ops_per_s` here too. A miss waits for the other connection's job and its
//! own; a hit's latency (about 20 ms) is mostly the server's accept loop,
//! which sleeps 10 ms whenever it finds no connection. The client's 2 ms
//! pause before each status poll is included in `op_latency_s_*`.

use crate::common::{
    check_bits, check_formed, drive_spec, fold_results, percentile, shuffle, splitmix, BenchSpans,
    EventCounts, RunOutput, SetupTimer,
};
use crate::Args;
use apf_bench::engine::{CampaignReport, Engine};
use apf_bench::spec::{CanonicalSpec, Generator};
use apf_bench::RunResult;
use apf_scheduler::SchedulerKind;
use apf_serve::client::{request, REQUEST_TIMEOUT};
use apf_serve::json::{self, Json};
use apf_serve::{JobOutcome, Server, ServerConfig, ShutdownHandle};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-trial step budget of every job.
const BUDGET: u64 = 200_000;
/// Concurrent client connections (closed loop each).
const CLIENTS: usize = 2;
/// Set-up repetitions before the pass; `setup_s` is the median of these
/// and of one more before every [`SETUP_EVERY`]th reference engine run.
const SETUP_REPS: usize = 5;
/// Reference engine runs per set-up repetition made between them (none are
/// made during the pass, where they would compete with the server's worker).
const SETUP_EVERY: usize = 2;
/// Pause before each status poll of a queued or running job.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Campaign seeds each job template is instantiated with.
const SEEDS_PER_TEMPLATE: u64 = 7;
/// Extra submissions of every repeated spec.
const REPEATS: usize = 2;

/// `(generator, n, rho, scheduler, trials)` job templates.
const TEMPLATES: &[(Generator, usize, usize, SchedulerKind, u64)] = &[
    (Generator::Asymmetric, 7, 1, SchedulerKind::Fsync, 2),
    (Generator::Asymmetric, 7, 1, SchedulerKind::Ssync, 2),
    (Generator::Asymmetric, 7, 1, SchedulerKind::RoundRobin, 2),
    (Generator::Asymmetric, 7, 1, SchedulerKind::Async, 1),
    (Generator::Asymmetric, 8, 1, SchedulerKind::Fsync, 2),
    (Generator::Asymmetric, 8, 1, SchedulerKind::Ssync, 2),
    (Generator::Asymmetric, 8, 1, SchedulerKind::RoundRobin, 2),
    (Generator::Asymmetric, 8, 1, SchedulerKind::Async, 1),
    (Generator::Symmetric, 8, 4, SchedulerKind::Fsync, 1),
    (Generator::Symmetric, 8, 4, SchedulerKind::Ssync, 1),
    (Generator::Symmetric, 8, 4, SchedulerKind::RoundRobin, 1),
    (Generator::Symmetric, 8, 2, SchedulerKind::Fsync, 1),
    (Generator::Symmetric, 8, 2, SchedulerKind::Ssync, 1),
    (Generator::Symmetric, 8, 2, SchedulerKind::RoundRobin, 1),
];
/// Symmetric ASYNC jobs (the election path): few, they cost ~1 s each.
const SYM_ASYNC_JOBS: u64 = 3;

/// The distinct specs of a run: every template at every seed.
fn distinct_specs() -> Vec<CanonicalSpec> {
    let mut out = Vec::new();
    for &(generator, n, rho, scheduler, trials) in TEMPLATES {
        for seed in 1..=SEEDS_PER_TEMPLATE {
            out.push(job_spec(generator, n, rho, scheduler, trials, seed));
        }
    }
    for seed in 1..=SYM_ASYNC_JOBS {
        out.push(job_spec(Generator::Symmetric, 8, 4, SchedulerKind::Async, 1, seed));
    }
    out
}

fn job_spec(
    generator: Generator,
    n: usize,
    rho: usize,
    scheduler: SchedulerKind,
    trials: u64,
    seed: u64,
) -> CanonicalSpec {
    CanonicalSpec {
        name: "perfbench".to_string(),
        seed,
        trials,
        n,
        rho,
        generator,
        scheduler,
        budget: BUDGET,
    }
}

/// Each connection's submissions, as indices into the distinct specs. Specs
/// are split between connections, so a repeat always follows its own first
/// submission on the same connection: which submissions miss and which hit
/// the cache does not depend on timing. Every fourth spec (in a seeded
/// order) is submitted `1 + REPEATS` times.
fn client_plans(distinct: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..distinct).collect();
    shuffle(&mut order, seed);
    let mut plans = vec![Vec::new(); CLIENTS];
    for (k, &spec) in order.iter().enumerate() {
        let copies = if k % 4 == 0 { 1 + REPEATS } else { 1 };
        for _ in 0..copies {
            plans[k % CLIENTS].push(spec);
        }
    }
    let mut state = seed;
    for plan in &mut plans {
        shuffle(plan, splitmix(&mut state));
    }
    plans
}

/// A server running on its own thread; dropping it shuts the server down
/// and waits for the thread.
struct Running {
    addr: String,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let cfg =
            ServerConfig { workers: 1, engine_jobs: 1, queue_depth: 64, ..ServerConfig::default() };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        let running = Running { addr, shutdown, thread };
        let t0 = Instant::now();
        loop {
            match request(&running.addr, "GET", "/healthz", &[], b"", REQUEST_TIMEOUT) {
                Ok(r) if r.status == 200 => return Ok(running),
                _ if t0.elapsed() > Duration::from_secs(10) => {
                    return Err("no answer from /healthz within 10 s".into());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The set-up: bind a server and get its first `/healthz` answer, then
/// build and validate every job spec (`validate` builds each trial's world).
fn set_up() -> Result<(Running, Vec<CanonicalSpec>, Vec<String>), String> {
    let server = Running::start()?;
    let specs = distinct_specs();
    for spec in &specs {
        spec.validate()?;
    }
    let bodies: Vec<String> = specs.iter().map(CanonicalSpec::canonical_json).collect();
    Ok((server, specs, bodies))
}

/// One submission as the client saw it.
#[derive(Default)]
struct OpRecord {
    spec: usize,
    latency: f64,
    cached: bool,
    polls: u64,
    outcome: Option<JobOutcome>,
    error: Option<String>,
}

/// Per-connection timings of the traced pass.
#[derive(Default)]
struct ClientSpans {
    submit: Vec<f64>,
    poll: Vec<f64>,
    result: Vec<f64>,
    parse: BenchSpans,
    rejected: u64,
}

/// The three request kinds a submission makes.
#[derive(Clone, Copy)]
enum Req {
    Submit,
    Poll,
    Result,
}

impl ClientSpans {
    fn slot(&mut self, req: Req) -> &mut Vec<f64> {
        match req {
            Req::Submit => &mut self.submit,
            Req::Poll => &mut self.poll,
            Req::Result => &mut self.result,
        }
    }
}

/// Issues one request and parses its JSON body, timing both when traced.
fn call(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    req: Req,
    spans: Option<&mut ClientSpans>,
) -> Result<Json, String> {
    let t0 = Instant::now();
    let response = request(addr, method, path, &[], body, REQUEST_TIMEOUT)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let took = t0.elapsed().as_secs_f64();
    let ok = (200..300).contains(&response.status);
    let text = String::from_utf8_lossy(&response.body);
    let parsed = match spans {
        Some(spans) => {
            spans.slot(req).push(took);
            spans.rejected += u64::from(!ok);
            spans.parse.time("json_parse", || json::parse(&text))
        }
        None => json::parse(&text),
    };
    if !ok {
        return Err(format!("{method} {path}: HTTP {} {text}", response.status));
    }
    parsed.map_err(|e| format!("{method} {path}: bad JSON: {e}"))
}

/// Submits one job and waits for its result.
fn submit_and_wait(addr: &str, body: &str, mut spans: Option<&mut ClientSpans>) -> OpRecord {
    let mut rec = OpRecord::default();
    let t0 = Instant::now();
    let mut wait = || -> Result<JobOutcome, String> {
        let submitted =
            call(addr, "POST", "/v1/jobs", body.as_bytes(), Req::Submit, spans.as_deref_mut())?;
        let id = submitted.get("id").and_then(Json::as_u64).ok_or("submit answer has no id")?;
        rec.cached = matches!(submitted.get("cached"), Some(Json::Bool(true)));
        let status_of = |v: &Json| v.get("status").and_then(Json::as_str).unwrap_or("").to_string();
        let mut status = status_of(&submitted);
        while !matches!(status.as_str(), "done" | "cancelled" | "failed") {
            std::thread::sleep(POLL_PAUSE);
            rec.polls += 1;
            let path = format!("/v1/jobs/{id}");
            status = status_of(&call(addr, "GET", &path, b"", Req::Poll, spans.as_deref_mut())?);
        }
        if status != "done" {
            return Err(format!("job {id} ended {status}"));
        }
        let path = format!("/v1/jobs/{id}/result");
        let result = call(addr, "GET", &path, b"", Req::Result, spans.as_deref_mut())?;
        JobOutcome::from_json(result.get("result").ok_or("result answer has no result")?)
    };
    let outcome = wait();
    rec.latency = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(o) => rec.outcome = Some(o),
        Err(e) => rec.error = Some(e),
    }
    rec
}

/// One pass: every connection runs its plan against `server`.
struct Pass {
    records: Vec<OpRecord>,
    wall: f64,
    spans: ClientSpans,
    metrics_text: String,
}

/// One pass of every connection's plan against `server`, which is shut
/// down at the end.
fn run_pass(server: Running, bodies: &[String], plans: &[Vec<usize>], traced: bool) -> Pass {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<OpRecord>, ClientSpans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let addr = server.addr.as_str();
                scope.spawn(move || {
                    let mut spans = ClientSpans::default();
                    let records = plan
                        .iter()
                        .map(|&spec| {
                            let mut rec =
                                submit_and_wait(addr, &bodies[spec], traced.then_some(&mut spans));
                            rec.spec = spec;
                            rec
                        })
                        .collect();
                    (records, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let metrics_text = request(&server.addr, "GET", "/metrics", &[], b"", REQUEST_TIMEOUT)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    drop(server);
    let mut records = Vec::new();
    let mut spans = ClientSpans::default();
    for (recs, s) in per_client {
        records.extend(recs);
        spans.submit.extend(s.submit);
        spans.poll.extend(s.poll);
        spans.result.extend(s.result);
        spans.rejected += s.rejected;
        spans.parse.merge(&s.parse);
    }
    Pass { records, wall, spans, metrics_text }
}

/// A Prometheus sample's value (`name{labels} value` or `name value`).
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Median of a Prometheus histogram, interpolated within its bucket.
fn histogram_p50(text: &str, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some((le, count)) = rest.split_once("\"} ") else { continue };
        let (Ok(le), Ok(count)) = (le.parse::<f64>(), count.trim().parse::<f64>()) else {
            continue;
        };
        buckets.push((le, count));
    }
    let total = sample(text, &format!("{name}_count"));
    if total == 0.0 {
        return 0.0;
    }
    let rank = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, cumulative) in buckets {
        if cumulative >= rank {
            return lo + (le - lo) * (rank - below) / (cumulative - below).max(1.0);
        }
        (lo, below) = (le, cumulative);
    }
    lo
}

/// Whether two outcomes agree in every deterministic field.
fn same_outcome(a: &JobOutcome, b: &JobOutcome) -> bool {
    a.trials == b.trials
        && a.requested == b.requested
        && a.formed == b.formed
        && a.success.to_bits() == b.success.to_bits()
        && a.mean_cycles.to_bits() == b.mean_cycles.to_bits()
        && a.median_cycles.to_bits() == b.median_cycles.to_bits()
        && a.p95_cycles.to_bits() == b.p95_cycles.to_bits()
        && a.mean_bits.to_bits() == b.mean_bits.to_bits()
        && a.bits_per_cycle.to_bits() == b.bits_per_cycle.to_bits()
        && a.digests == b.digests
}

/// The engine's report of a spec in the shape the service serves it.
fn engine_outcome(report: &CampaignReport) -> JobOutcome {
    let agg = report.aggregate();
    JobOutcome {
        trials: report.trials,
        requested: report.requested,
        formed: report.stats.formed(),
        success: agg.success,
        mean_cycles: agg.mean_cycles,
        median_cycles: agg.median_cycles,
        p95_cycles: agg.p95_cycles,
        mean_bits: agg.mean_bits,
        bits_per_cycle: agg.bits_per_cycle,
        digests: report.digests.clone().unwrap_or_default(),
        wall_secs: report.wall.as_secs_f64(),
        detail: None,
        cached: false,
    }
}

/// Checks one pass's records against the engine's reports; returns the
/// failed-op count.
fn check_pass(
    pass: &Pass,
    specs: &[CanonicalSpec],
    reference: &[JobOutcome],
    out: &mut RunOutput,
) -> u64 {
    let mut failed = 0;
    let mut first: BTreeMap<usize, &JobOutcome> = BTreeMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for rec in &pass.records {
        let Some(outcome) = &rec.outcome else {
            failed += 1;
            out.problem(format!(
                "job for spec {} failed: {}",
                rec.spec,
                rec.error.as_deref().unwrap_or("?")
            ));
            continue;
        };
        match first.get(&rec.spec) {
            None => {
                misses += 1;
                if rec.cached {
                    out.problem(format!("first submission of spec {} was a cache hit", rec.spec));
                }
                if !same_outcome(outcome, &reference[rec.spec]) {
                    out.problem(format!(
                        "served result of spec {} differs from the engine's",
                        rec.spec
                    ));
                }
                if outcome.formed != outcome.trials as u64 {
                    out.problem(format!(
                        "spec {} ({}) left a trial unformed",
                        rec.spec,
                        specs[rec.spec].canonical_json()
                    ));
                }
                first.insert(rec.spec, outcome);
            }
            Some(miss) => {
                hits += 1;
                if !rec.cached || !same_outcome(miss, outcome) {
                    out.problem(format!("repeat of spec {} was not the cached result", rec.spec));
                }
            }
        }
    }
    let text = &pass.metrics_text;
    let served_hits = sample(text, "apf_cache_total{event=\"hit\"}");
    let served_misses = sample(text, "apf_cache_total{event=\"miss\"}");
    if served_hits != hits as f64 || served_misses != misses as f64 {
        out.problem(format!(
            "server counted {served_hits} hits / {served_misses} misses, client {hits} / {misses}"
        ));
    }
    if sample(text, "apf_cache_total{event=\"verify_fail\"}") != 0.0 {
        out.problem("a cache verification replay disagreed");
    }
    failed
}

/// Runs the workload.
pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();

    let mut setup = SetupTimer::default();
    let (server, specs, bodies) = match setup.sample(SETUP_REPS, set_up) {
        Ok(made) => made,
        Err(e) => {
            out.problem(format!("set-up failed: {e}"));
            return out;
        }
    };
    let plans = client_plans(specs.len(), args.seed);

    let pass = run_pass(server, &bodies, &plans, false);

    // The engine's own run of every distinct spec, with the set-up repeated
    // between runs.
    let engine = Engine::new().jobs(1).trace_digests(true).collect_results(true);
    let mut reports: Vec<CampaignReport> = Vec::with_capacity(specs.len());
    for (k, spec) in specs.iter().enumerate() {
        if k % SETUP_EVERY == 0 {
            drop(setup.sample(1, set_up));
        }
        reports.push(engine.run(&spec.to_campaign()));
    }
    let reference: Vec<JobOutcome> = reports.iter().map(engine_outcome).collect();
    out.attempted = pass.records.len() as u64;
    out.failed = check_pass(&pass, &specs, &reference, &mut out);
    // Theorem 1's bound on every trial the engine ran.
    for (k, (spec, report)) in specs.iter().zip(&reports).enumerate() {
        let asymmetric = spec.generator == Generator::Asymmetric;
        for (i, r) in report.results.iter().flatten().enumerate() {
            if let Err(e) = check_bits(r, asymmetric) {
                out.problem(format!("spec {k} trial {i}: {e}"));
            }
        }
    }
    let results: Vec<RunResult> =
        reports.iter().flat_map(|r| r.results.clone().unwrap_or_default()).collect();
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let latencies: Vec<f64> = pass.records.iter().map(|r| r.latency).collect();
    out.set_end_to_end(setup.median(), &latencies, pass.wall, cycles);

    if args.trace {
        let traced = match Running::start() {
            Ok(server) => run_pass(server, &bodies, &plans, true),
            Err(e) => {
                out.problem(format!("traced pass: {e}"));
                return out;
            }
        };
        check_pass(&traced, &specs, &reference, &mut out);
        // Set-up's world building, timed apart: `validate` builds every
        // trial's world.
        let mut setup_spans = BenchSpans::default();
        for spec in &specs {
            if let Err(e) = setup_spans.time("build_world", || spec.validate()) {
                out.problem(format!("spec no longer validates: {e}"));
            }
        }
        let l = &mut out.layers;
        fold_results(&results, l);
        l.set("bench.build_world_s", setup_spans.secs("build_world"));
        let s = &traced.spans;
        l.set("serve.http.submit_s_p50", percentile(&s.submit, 0.5));
        l.set("serve.http.poll_s_p50", percentile(&s.poll, 0.5));
        l.set("serve.http.result_s_p50", percentile(&s.result, 0.5));
        l.set("serve.json.parse_s", s.parse.secs("json_parse"));
        l.set("serve.http.rejected", s.rejected as f64);
        let text = &traced.metrics_text;
        l.set("serve.queue_wait_s_p50", histogram_p50(text, "apf_job_queue_wait_seconds"));
        l.set("serve.exec_s_p50", histogram_p50(text, "apf_job_exec_seconds"));
        let hits = sample(text, "apf_cache_total{event=\"hit\"}");
        let misses = sample(text, "apf_cache_total{event=\"miss\"}");
        l.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
        l.set(
            "serve.cache.verify_replays",
            sample(text, "apf_cache_total{event=\"verify_ok\"}")
                + sample(text, "apf_cache_total{event=\"verify_fail\"}"),
        );
        let polls: u64 = traced.records.iter().map(|r| r.polls).sum();
        l.set("serve.polls_per_job", polls as f64 / traced.records.len().max(1) as f64);
        let trial_max = reports
            .iter()
            .filter_map(|r| r.longest_trial.map(|(_, d)| d.as_secs_f64()))
            .fold(0.0, f64::max);
        l.set("bench.engine.trial_s_max", trial_max);
        l.set("trace.overhead_s", traced.wall - pass.wall);
        out.folded.extend(s.parse.folded());
        let counts = count_events(&specs, &reports, &mut out);
        out.layers.set("trace.events", counts.events as f64);
        out.layers.set("sim.moves", counts.move_slices as f64);
        out.layers.set("core.move_ratio", counts.moved as f64 / counts.decides.max(1) as f64);
    }
    out
}

/// Re-runs every distinct spec's trials with a counting sink beside the
/// digest (traced runs only); digests must equal the engine's, and formed
/// trials pass the final-state checks. The jobs run on the server's worker
/// thread, out of reach of this thread's sinks, so the event counts come
/// from these re-runs.
fn count_events(
    specs: &[CanonicalSpec],
    reference: &[CampaignReport],
    out: &mut RunOutput,
) -> EventCounts {
    let mut counts = EventCounts::default();
    for (k, spec) in specs.iter().enumerate() {
        for i in 0..spec.trials {
            match drive_spec(&spec.trial_spec(i), spec.budget) {
                Ok(mut run) => {
                    counts.add(&run.counts);
                    if run.outcome.formed {
                        if let Err(e) = check_formed(&run.outcome.final_positions, &mut run.world) {
                            out.problem(format!("re-run of spec {k} trial {i}: {e}"));
                        }
                    }
                    let want = reference[k].digests.as_ref().and_then(|d| d.get(i as usize));
                    if want != Some(&run.digest) {
                        out.problem(format!("re-run of spec {k} trial {i} changed its digest"));
                    }
                }
                Err(e) => out.problem(format!("re-run of spec {k} trial {i}: {e}")),
            }
        }
    }
    counts
}
