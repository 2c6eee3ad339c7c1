//! Pieces every workload shares: metric maps, statistics, the result line,
//! the benchmark's own spans, the counting trace sink, and the independent
//! output checks.

use crate::Args;
use apf_bench::engine::RunSpec;
use apf_bench::profile::SpanProfile;
use apf_bench::RunResult;
use apf_geometry::Point;
use apf_sim::{Outcome, World};
use apf_trace::span::{self, SpanLabel};
use apf_trace::{HashSink, PhaseKind, TeeSink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The five analysis kernels the geometry crate records spans for.
pub const KERNELS: [SpanLabel; 5] =
    [SpanLabel::Sec, SpanLabel::Views, SpanLabel::Rho, SpanLabel::Regular, SpanLabel::Shifted];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The metric's value, 0 when the workload did not set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (only the known-fault operations may).
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Informational lines for standard error.
    pub notes: Vec<String>,
    /// End-to-end metrics of the untraced pass.
    pub end_to_end: Values,
    /// Per-layer metrics of the traced pass.
    pub layers: Values,
    /// Folded span stacks (`frame;frame self_ns`) of the traced pass.
    pub folded: Vec<String>,
}

impl RunOutput {
    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Sets the end-to-end metrics shared by every workload.
    pub fn set_end_to_end(&mut self, setup_s: f64, latencies: &[f64], wall_s: f64, cycles: u64) {
        let e = &mut self.end_to_end;
        e.set("setup_s", setup_s);
        e.set("ops_per_s", latencies.len() as f64 / wall_s);
        e.set("op_latency_s_p50", percentile(latencies, 0.5));
        e.set("op_latency_s_p90", percentile(latencies, 0.9));
        e.set("lcm_cycles_per_s", cycles as f64 / wall_s);
        e.set("lcm_cycles", cycles as f64);
        e.set("peak_rss_mb", peak_rss_mb());
    }
}

/// Linear-interpolation percentile (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Splitmix64 step: the benchmark's only source of seeded choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Set-up timing spread over a whole run. The workloads repeat their full
/// set-up at fixed points between ops (outside every op's timing), so
/// `setup_s`, the median of all repetitions, sees the same stretches of host
/// speed as the ops rather than one burst of sub-millisecond calls.
#[derive(Debug, Default)]
pub struct SetupTimer(Vec<f64>);

impl SetupTimer {
    /// Runs `setup` `reps` times (at least once), timing each repetition,
    /// and returns the last one's product. Earlier products are dropped
    /// outside the timing.
    pub fn sample<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let t0 = Instant::now();
            let made = setup();
            self.0.push(t0.elapsed().as_secs_f64());
            last = Some(made);
        }
        last.expect("at least one set-up repetition")
    }

    /// Median of every repetition so far.
    pub fn median(&self) -> f64 {
        percentile(&self.0, 0.5)
    }
}

/// The benchmark's own spans around its calls into the program: per name,
/// how many calls and their total wall time.
#[derive(Debug, Default)]
pub struct BenchSpans(BTreeMap<&'static str, (u64, Duration)>);

impl BenchSpans {
    /// Times `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed());
        out
    }

    /// Adds one call of `took` under `name`.
    pub fn add(&mut self, name: &'static str, took: Duration) {
        let slot = self.0.entry(name).or_default();
        slot.0 += 1;
        slot.1 += took;
    }

    /// Adds every span of `other`.
    pub fn merge(&mut self, other: &BenchSpans) {
        for (&name, &(count, took)) in &other.0 {
            let slot = self.0.entry(name).or_default();
            slot.0 += count;
            slot.1 += took;
        }
    }

    /// Total seconds under `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.1.as_secs_f64())
    }

    /// Folded lines (`bench;name total_ns`) for the span file.
    pub fn folded(&self) -> Vec<String> {
        self.0.iter().map(|(name, (_, d))| format!("bench;{name} {}", d.as_nanos())).collect()
    }
}

/// Event counts the traced pass collects beside the digest.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCounts {
    /// Every event (the events the digest hashes).
    pub events: u64,
    /// Computes (`Decide` events).
    pub decides: u64,
    /// Computes that returned a Move.
    pub moved: u64,
    /// Move slices applied.
    pub move_slices: u64,
    /// Step of the last slice that changed a position (0 if none).
    pub last_move_step: u64,
}

impl EventCounts {
    /// Adds another run's counts (`last_move_step` is per run; kept as max).
    pub fn add(&mut self, o: &EventCounts) {
        self.events += o.events;
        self.decides += o.decides;
        self.moved += o.moved;
        self.move_slices += o.move_slices;
        self.last_move_step = self.last_move_step.max(o.last_move_step);
    }
}

impl TraceSink for EventCounts {
    fn record(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::Decide { moved, .. } => {
                self.decides += 1;
                self.moved += u64::from(moved);
            }
            TraceEvent::MoveSlice { step, advanced, .. } => {
                self.move_slices += 1;
                if advanced > 0.0 {
                    self.last_move_step = step;
                }
            }
            _ => {}
        }
    }
}

/// One run driven step by step with a digest and event counts attached.
pub struct DrivenRun {
    /// `World::run`'s outcome (the final check and closing events come from
    /// `World::run` itself, so the event stream equals an engine run's).
    pub outcome: Outcome,
    /// FNV-1a digest of the event stream.
    pub digest: u64,
    /// Event counts.
    pub counts: EventCounts,
    /// The world after the run (for the stationarity probe).
    pub world: World,
}

/// Builds `spec`'s world (validating it).
pub fn build(spec: &RunSpec) -> Result<World, String> {
    spec.build_world().map_err(|e| e.to_string())
}

/// Runs `world` the way `World::run` does, one call at a time:
/// `is_formed`, then `step`, until formed or `budget` steps are spent. Then
/// `World::run` with the steps left (0 after an exhausted budget) makes the
/// final check and emits the closing events, exactly as an uninterrupted
/// run. With `spans`, every `World::step` and `World::is_formed` call is
/// timed under the benchmark's own span names.
pub fn step_loop(
    world: &mut World,
    budget: u64,
    mut spans: Option<&mut BenchSpans>,
) -> Result<Outcome, String> {
    for _ in 0..budget {
        let formed = match spans.as_deref_mut() {
            Some(s) => s.time("is_formed", || world.is_formed()),
            None => world.is_formed(),
        };
        if formed {
            break;
        }
        let stepped = match spans.as_deref_mut() {
            Some(s) => s.time("step", || world.step()),
            None => world.step(),
        };
        stepped.map_err(|e| format!("compute error: {e:?}"))?;
    }
    let remaining = budget - world.metrics().steps;
    Ok(world.run(remaining))
}

/// Runs a built world through [`step_loop`] with a hashing and a counting
/// sink attached.
pub fn drive(
    mut world: World,
    budget: u64,
    spans: Option<&mut BenchSpans>,
) -> Result<DrivenRun, String> {
    let hash = HashSink::new();
    let probe = hash.probe();
    let counts = Arc::new(Mutex::new(EventCounts::default()));
    world.set_sink(Box::new(TeeSink::new(Box::new(hash), Box::new(Arc::clone(&counts)))));
    let outcome = step_loop(&mut world, budget, spans)?;
    let counts = *counts.lock().expect("event counter lock");
    Ok(DrivenRun { outcome, digest: probe.digest(), counts, world })
}

/// Builds `spec`'s world and [`drive`]s it, untimed.
pub fn drive_spec(spec: &RunSpec, budget: u64) -> Result<DrivenRun, String> {
    drive(build(spec)?, budget, None)
}

/// Folds the program's spans into the geometry and core layer metrics.
pub fn fold_profile(profile: &SpanProfile, layers: &mut Values, folded: &mut Vec<String>) {
    for kernel in KERNELS {
        let (calls, self_ns) = profile.label(kernel).map_or((0, 0), |s| (s.count(), s.self_ns));
        layers.set(format!("geometry.{}.calls", kernel.label()), calls as f64);
        layers.set(format!("geometry.{}.self_s", kernel.label()), self_ns as f64 / 1e9);
    }
    let (calls, self_ns) =
        profile.label(SpanLabel::Compute).map_or((0, 0), |s| (s.count(), s.self_ns));
    layers.set("core.compute.calls", calls as f64);
    layers.set("core.compute.self_s", self_ns as f64 / 1e9);
    let mut buf = Vec::new();
    if profile.write_folded(&mut buf).is_ok() {
        folded.extend(String::from_utf8_lossy(&buf).lines().map(str::to_string));
    }
}

/// Sets the per-phase cycle, bit and step counts of a set of runs.
pub fn fold_results(results: &[RunResult], layers: &mut Values) {
    for phase in PhaseKind::ALL {
        let cycles: u64 = results.iter().map(|r| r.phase_cycles[phase.index()]).sum();
        layers.set(format!("core.phase.{}.cycles", phase.label()), cycles as f64);
    }
    let election: u64 = results.iter().map(|r| r.phase_bits[PhaseKind::RsbElection.index()]).sum();
    layers.set("core.election.bits", election as f64);
    layers.set("random_bits", results.iter().map(|r| r.bits).sum::<u64>() as f64);
    layers.set("sim.steps", results.iter().map(|r| r.steps).sum::<u64>() as f64);
}

/// Sets the layer metrics that come from the traced pass's event counts and
/// the benchmark's own spans.
pub fn fold_counts(counts: &EventCounts, spans: &BenchSpans, layers: &mut Values) {
    layers.set("trace.events", counts.events as f64);
    layers.set("sim.moves", counts.move_slices as f64);
    let ratio = if counts.decides == 0 { 0.0 } else { counts.moved as f64 / counts.decides as f64 };
    layers.set("core.move_ratio", ratio);
    layers.set("sim.step_s", spans.secs("step"));
    layers.set("sim.is_formed_s", spans.secs("is_formed"));
    layers.set("bench.build_world_s", spans.secs("build_world"));
}

/// Sorted pairwise distances scaled by the largest: unchanged by
/// translation, rotation, reflection and scale.
fn distance_signature(points: &[Point]) -> Vec<f64> {
    let mut d = Vec::with_capacity(points.len() * points.len() / 2);
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            d.push(((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt());
        }
    }
    d.sort_by(f64::total_cmp);
    let max = d.last().copied().unwrap_or(0.0);
    if max > 0.0 {
        for x in &mut d {
            *x /= max;
        }
    }
    d
}

/// The benchmark's own similarity test, written apart from
/// `apf_geometry::are_similar`: equal distance signatures within `1e-5`.
fn check_similar(found: &[Point], target: &[Point]) -> Result<(), String> {
    if found.len() != target.len() {
        return Err(format!("{} robots for a {}-point pattern", found.len(), target.len()));
    }
    let (a, b) = (distance_signature(found), distance_signature(target));
    let worst = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
    if worst > 1e-5 {
        return Err(format!("distance signatures differ by {worst:.3e}"));
    }
    Ok(())
}

/// Theorem 1's bound: bits only in ψ_RSB phases, at most one per
/// `rsb-election` cycle; asymmetric starts draw none.
pub fn check_bits(r: &RunResult, asymmetric: bool) -> Result<(), String> {
    for phase in PhaseKind::ALL {
        let bits = r.phase_bits[phase.index()];
        if bits > 0 && !phase.is_rsb() {
            return Err(format!("{bits} random bits drawn in phase {}", phase.label()));
        }
    }
    let election = r.phase_cycles[PhaseKind::RsbElection.index()];
    if r.bits > election {
        return Err(format!("{} random bits over {election} rsb-election cycles", r.bits));
    }
    if asymmetric && r.bits > 0 {
        return Err(format!("an asymmetric start drew {} random bits", r.bits));
    }
    Ok(())
}

/// The checks on a formed op's final state: the benchmark's similarity test
/// on `World::run`'s final positions, and the stationarity probe.
pub fn check_formed(final_positions: &[Point], world: &mut World) -> Result<(), String> {
    check_similar(final_positions, world.pattern())?;
    match world.would_any_move() {
        Ok(false) => Ok(()),
        Ok(true) => Err("a robot would still move after formation".into()),
        Err(e) => Err(format!("stationarity probe failed: {e:?}")),
    }
}

/// Whether two results are bit-identical in every deterministic field.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.formed == b.formed
        && a.steps == b.steps
        && a.cycles == b.cycles
        && a.bits == b.bits
        && a.distance.to_bits() == b.distance.to_bits()
        && a.phase_cycles == b.phase_cycles
        && a.phase_bits == b.phase_bits
}

/// The result line: one JSON object, metrics in the given order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the traced pass's folded spans to
/// `.bench_out/<workload>-seed<seed>.folded` (collapsed-stacks format).
pub fn write_spans(args: &Args, out: &RunOutput) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{}-seed{}.folded", args.workload, args.seed);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for line in &out.folded {
        writeln!(file, "{line}")?;
    }
    file.flush()
}

/// The traced pass shared by the two formation workloads. Each op runs the
/// same [`step_loop`] twice, each on a freshly built world, and the building
/// stays outside both timings: first bare (no sink, no spans), then traced
/// (the program's spans into a [`SpanProfile`], the benchmark's spans, a
/// digest and event counts). `trace.overhead_s` is the traced loops' wall
/// time less the bare loops'. Each op's result must equal `expected`'s, and
/// its digest too where one is known.
pub fn traced_pass(
    specs: &[RunSpec],
    budget: u64,
    expected: &[(RunResult, Option<u64>)],
    out: &mut RunOutput,
) {
    let profile = Arc::new(Mutex::new(SpanProfile::new()));
    let mut spans = BenchSpans::default();
    let mut counts = EventCounts::default();
    let mut results = Vec::with_capacity(specs.len());
    let (mut bare_s, mut traced_s) = (0.0, 0.0);
    for (k, spec) in specs.iter().enumerate() {
        let want = expected.get(k);
        let bare = build(spec).and_then(|mut world| {
            let t0 = Instant::now();
            let outcome = step_loop(&mut world, budget, None);
            bare_s += t0.elapsed().as_secs_f64();
            outcome
        });
        match bare {
            Ok(o) if want.is_some_and(|(w, _)| same_result(w, &RunResult::from(o.clone()))) => {}
            Ok(_) => out.problem(format!("bare op {k} differs from its untraced run")),
            Err(e) => out.problem(format!("bare op {k}: {e}")),
        }
        drop(span::install(Box::new(Arc::clone(&profile))));
        let traced = spans.time("build_world", || build(spec)).and_then(|world| {
            let t0 = Instant::now();
            let run = drive(world, budget, Some(&mut spans));
            traced_s += t0.elapsed().as_secs_f64();
            run
        });
        drop(span::take());
        let mut run = match traced {
            Ok(run) => run,
            Err(e) => {
                out.problem(format!("traced op {k}: {e}"));
                continue;
            }
        };
        let r = RunResult::from(run.outcome.clone());
        let matches = want.is_some_and(|(w, digest)| {
            same_result(w, &r) && digest.is_none_or(|d| d == run.digest)
        });
        if !matches {
            out.problem(format!("traced op {k} differs from its untraced run"));
        }
        if run.outcome.formed {
            if let Err(e) = check_formed(&run.outcome.final_positions, &mut run.world) {
                out.problem(format!("traced op {k}: {e}"));
            }
        }
        counts.add(&run.counts);
        results.push(r);
    }
    let profile = profile.lock().expect("span profile lock").clone();
    fold_profile(&profile, &mut out.layers, &mut out.folded);
    fold_results(&results, &mut out.layers);
    fold_counts(&counts, &spans, &mut out.layers);
    out.folded.extend(spans.folded());
    out.layers.set("trace.overhead_s", traced_s - bare_s);
}
