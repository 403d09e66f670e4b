//! `wormsim-perfbench`: times the sweep, the engine and the journal end to
//! end and layer by layer, through the library's public calls only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig3-16x16 --seed 1993 --seconds 36 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones, each as `name = value unit`, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when an
//! output check fails. `README.md` says what each workload and metric is
//! for.

mod host;
mod stats;
mod workload;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;
use wormsim::engine::Network;
use wormsim::observe::json::{self, Value};
use wormsim::observe::{fnv1a_hex, JsonObject};
use wormsim::{ArrivalProcess, Experiment, NetworkBuilder, RunResult};
use wormsim_bench::{run_sweep, ExperimentsRun, Journal, SweepOptions, SweepPlan};

/// Journal digests recorded per workload and seed: the output check for
/// seeds that have one.
const DIGESTS: &str = include_str!("../digests.json");

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("resume_s", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("paper_err", "util"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 30] = [
    ("traffic.rate_s", "s"),
    ("traffic.weights_s", "s"),
    ("engine.build_s", "s"),
    ("engine.step_ns", "ns"),
    ("engine.ns_per_flit_hop", "ns"),
    ("engine.inject_s", "s"),
    ("engine.route_s", "s"),
    ("engine.allocate_s", "s"),
    ("engine.advance_s", "s"),
    ("engine.drain_s", "s"),
    ("engine.flit_hops", "count"),
    ("engine.alloc_fail", "count"),
    ("engine.blocked_cycles", "count"),
    ("engine.alloc_fail_per_hop", "ratio"),
    ("core.point_p50_s", "s"),
    ("core.point_tail_s", "s"),
    ("core.point_tail_pct", "pct"),
    ("core.points", "count"),
    ("core.self_s", "s"),
    ("core.samples", "count"),
    ("core.cycles", "count"),
    ("observe.profiler_overhead", "ratio"),
    ("bench.sim_share", "ratio"),
    ("bench.overhead_s", "s"),
    ("bench.journal_record_s", "s"),
    ("bench.journal_write_bytes", "bytes"),
    ("bench.journal_load_s", "s"),
    ("bench.point_hash_s", "s"),
    ("bench.attempts_per_point", "ratio"),
    ("bench.traced_wall_s", "s"),
];

/// The engine phase metrics, indexed like the registry's `phase_nanos`
/// (`PHASE_INJECT`, `PHASE_ROUTE`, `PHASE_ALLOCATE`, `PHASE_ADVANCE`,
/// `PHASE_DRAIN`).
const PHASE_METRICS: [&str; 5] = [
    "engine.inject_s",
    "engine.route_s",
    "engine.allocate_s",
    "engine.advance_s",
    "engine.drain_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())? as f64),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(36.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run found: its metrics, how many points it attempted and how
/// many failed, and every output check that did not hold.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(problem());
        }
    }

    /// Counts a sweep's points `range` as attempted and their failures.
    fn count_points(&mut self, run: &ExperimentsRun, range: std::ops::Range<usize>) {
        for i in range {
            self.attempted += 1;
            if let Some(why) = stats::failure(run.outcomes[i].as_ref()) {
                self.failed += 1;
                self.problems.push(format!("point {i} failed: {why}"));
            }
        }
    }
}

/// Where runs keep their journals, relative to the working directory.
const JOURNAL_ROOT: &str = ".perfbench";

/// A directory for one run's journals, removed when the run ends (and its
/// parent too, unless another run is using it).
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(JOURNAL_ROOT);
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The network `experiment` simulates, built the way `Experiment::run`
/// builds it (every knob the workloads set is at its default here).
fn network(experiment: &Experiment, seed: u64, rate: f64) -> Result<Network, String> {
    NetworkBuilder::new(
        experiment.topology_ref().clone(),
        experiment.algorithm_kind(),
    )
    .traffic(experiment.traffic_config().clone())
    .arrival(ArrivalProcess::geometric(rate).map_err(|e| e.to_string())?)
    .message_length(experiment.length_config())
    .seed(seed)
    .build()
    .map_err(|e| e.to_string())
}

/// Seconds one point spends in each pre-simulation call.
#[derive(Clone, Copy, Default)]
struct Setup {
    rate: f64,
    weights: f64,
    build: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.rate + self.weights + self.build
    }
}

/// Times `injection_rate`, `hop_class_weights` and `NetworkBuilder::build`
/// for one point.
fn time_setup(experiment: &Experiment, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let rate = experiment.injection_rate().map_err(|e| e.to_string())?;
    let rate_s = secs(start);
    let start = Instant::now();
    let topology = experiment.topology_ref();
    let pattern = experiment
        .traffic_config()
        .build(topology)
        .map_err(|e| e.to_string())?;
    black_box(pattern.hop_class_weights(topology));
    let weights_s = secs(start);
    let start = Instant::now();
    let net = network(experiment, seed, rate)?;
    let build_s = secs(start);
    drop(black_box(net));
    Ok(Setup {
        rate: rate_s,
        weights: weights_s,
        build: build_s,
    })
}

/// Per-call set-up times summed over the workload's points.
fn time_workload_setup(w: &Workload) -> Result<Setup, String> {
    let mut sum = Setup::default();
    for (experiment, &seed) in w.experiments.iter().zip(&w.seeds) {
        let setup = time_setup(experiment, seed)?;
        sum.rate += setup.rate;
        sum.weights += setup.weights;
        sum.build += setup.build;
    }
    Ok(sum)
}

/// Runs the workload through `run_sweep` on the local thread backend,
/// fresh or resumed from `resume`; returns the call's wall time.
fn sweep(
    w: &Workload,
    dir: &Path,
    journal: &str,
    resume: Option<&Path>,
) -> Result<(f64, ExperimentsRun), String> {
    let plan = SweepPlan::new(w.experiments.clone()).journal_name(journal);
    let options = SweepOptions {
        threads: w.threads,
        out_dir: dir.display().to_string(),
        resume: resume.map(|path| path.display().to_string()),
        ..SweepOptions::default()
    };
    let start = Instant::now();
    let run = run_sweep(&plan, &options).map_err(|e| format!("run_sweep: {e}"))?;
    Ok((secs(start), run))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The journal digest recorded for this workload and seed, if any.
fn recorded_digest(workload: &str, seed: u64) -> Result<Option<String>, String> {
    let digests: Value = json::from_str(DIGESTS).map_err(|e| format!("digests.json: {e}"))?;
    Ok(digests
        .get(workload)
        .and_then(|by_seed| by_seed.get(&seed.to_string()))
        .and_then(Value::as_str)
        .map(str::to_owned))
}

/// Checks a fresh sweep's journal against the digest recorded for the
/// seed and returns the journal text.
fn check_journal(
    report: &mut Report,
    run: &ExperimentsRun,
    workload: &str,
    seed: u64,
) -> Result<String, String> {
    let text = read(&run.journal)?;
    let digest = fnv1a_hex(&text);
    println!("journal digest {digest} ({} lines)", text.lines().count());
    match recorded_digest(workload, seed)? {
        Some(recorded) => report.check(recorded == digest, || {
            format!("journal digest {digest} differs from the {recorded} recorded for seed {seed}")
        }),
        None => println!(
            "no digest recorded for seed {seed}: checked by resume reproduction and counts only"
        ),
    }
    Ok(text)
}

fn results(run: &ExperimentsRun) -> Vec<RunResult> {
    run.outcomes
        .iter()
        .filter_map(|outcome| outcome.as_ref()?.as_ref().ok().cloned())
        .collect()
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    let total = w.experiments.len();
    let half = total / 2;
    // Set-up runs several times; its median is robust to one slow pass.
    let repeats = if total <= 2 { 3 } else { 5 };
    let setups = (0..repeats)
        .map(|_| time_workload_setup(w).map(|s| s.total()))
        .collect::<Result<Vec<f64>, String>>()?;

    let window = Instant::now();
    let (mut walls, mut resumes) = (Vec::new(), Vec::new());
    let mut first: Option<(String, Vec<RunResult>)> = None;
    loop {
        let iteration = Instant::now();
        let rep = walls.len();
        let (wall, fresh) = sweep(w, dir, &format!("fresh{rep}.jsonl"), None)?;
        report.count_points(&fresh, 0..total);
        let text = match &first {
            None => check_journal(report, &fresh, &args.workload, args.seed)?,
            Some((text, _)) => {
                let again = read(&fresh.journal)?;
                report.check(&again == text, || {
                    format!("repeat {rep} wrote a different journal")
                });
                again
            }
        };
        // Resume the same plan from the journal cut to its first half.
        let cut = dir.join(format!("resume{rep}.jsonl"));
        let head: String = text.split_inclusive('\n').take(half).collect();
        std::fs::write(&cut, head).map_err(|e| format!("{}: {e}", cut.display()))?;
        let (resume_wall, resumed) = sweep(w, dir, "unused.jsonl", Some(&cut))?;
        report.count_points(&resumed, half..total);
        report.check(resumed.resumed == half, || {
            format!("resume skipped {} points, expected {half}", resumed.resumed)
        });
        report.check(read(&cut)? == text, || {
            "the resumed journal differs from the fresh one".to_owned()
        });
        if first.is_none() {
            first = Some((text, results(&fresh)));
        }
        std::fs::remove_file(&fresh.journal).map_err(|e| e.to_string())?;
        std::fs::remove_file(&cut).map_err(|e| e.to_string())?;
        walls.push(wall);
        resumes.push(resume_wall);
        if secs(window) + secs(iteration) > args.seconds {
            break;
        }
    }
    let (_, results) = first.expect("the loop runs at least once");
    report.check(
        results
            .iter()
            .all(|r| r.achieved_utilization.is_finite() && r.achieved_utilization > 0.0),
        || "a point reported no throughput".to_owned(),
    );
    println!(
        "repeats: {} sweep+resume, {repeats} set-up; {} cycles simulated per sweep",
        walls.len(),
        results.iter().map(|r| r.cycles_simulated).sum::<u64>()
    );
    report.set("wall_s", stats::median(&walls));
    report.set("setup_s", stats::median(&setups));
    report.set("resume_s", stats::median(&resumes));
    report.set(
        "ok_frac",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
    );
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    report.set("paper_err", stats::paper_err(&results));
    Ok(())
}

/// What the traced pass measured for one point.
struct PointTrace {
    point_s: f64,
    engine_off_s: f64,
    engine_on_s: f64,
    phase_nanos: [u64; 5],
    flit_hops: u64,
    alloc_fail: u64,
    blocked: u64,
    samples: u64,
    cycles: u64,
}

/// Times `Experiment::run` for one point, then `Network::run` over the
/// same number of cycles with the metrics registry off and on. Checks that
/// the point's result matches the sweep's and the engine's counts match
/// between the two engine runs.
fn trace_point(
    experiment: &Experiment,
    seed: u64,
    swept: &RunResult,
) -> Result<PointTrace, String> {
    let start = Instant::now();
    let result = experiment.run().map_err(|e| e.to_string())?;
    let point_s = secs(start);
    if (
        result.cycles_simulated,
        result.samples,
        result.messages_measured,
        result.achieved_utilization.to_bits(),
    ) != (
        swept.cycles_simulated,
        swept.samples,
        swept.messages_measured,
        swept.achieved_utilization.to_bits(),
    ) {
        return Err(format!(
            "{} at load {}: Experiment::run and run_sweep disagree",
            result.algorithm, result.offered_load
        ));
    }
    let cycles = result.cycles_simulated;
    let rate = result.injection_rate;

    let mut net = network(experiment, seed, rate)?;
    let start = Instant::now();
    net.run(cycles);
    let engine_off_s = secs(start);
    let flit_hops = net.metrics().flit_hops;
    drop(net);

    let mut net = network(experiment, seed, rate)?;
    net.observer().metrics_on();
    let start = Instant::now();
    net.run(cycles);
    let engine_on_s = secs(start);
    let registry = net
        .metrics_registry()
        .ok_or("metrics registry missing after metrics_on")?;
    if net.metrics().flit_hops != flit_hops {
        return Err(format!(
            "{} at load {}: {} flit-hops with the registry on, {flit_hops} with it off",
            result.algorithm,
            result.offered_load,
            net.metrics().flit_hops
        ));
    }
    Ok(PointTrace {
        point_s,
        engine_off_s,
        engine_on_s,
        phase_nanos: registry.phase_nanos,
        flit_hops,
        alloc_fail: registry.class_alloc_fail.iter().sum(),
        blocked: registry.class_blocked.iter().sum(),
        samples: result.samples as u64,
        cycles,
    })
}

/// Runs [`trace_point`] over every point on `threads` workers.
fn trace_points(w: &Workload, swept: &[RunResult]) -> Result<Vec<PointTrace>, String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let traces = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..w.threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= w.experiments.len() {
                    break;
                }
                let trace = trace_point(&w.experiments[i], w.seeds[i], &swept[i]);
                traces
                    .lock()
                    .expect("no tracing worker panicked")
                    .push((i, trace));
            });
        }
    });
    let mut traces = traces.into_inner().expect("no tracing worker panicked");
    traces.sort_by_key(|(i, _)| *i);
    traces.into_iter().map(|(_, trace)| trace).collect()
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    let total = w.experiments.len();
    let setup = time_workload_setup(w)?;

    let (wall, run) = sweep(w, dir, "traced.jsonl", None)?;
    report.count_points(&run, 0..total);
    check_journal(report, &run, &args.workload, args.seed)?;
    let swept = results(&run);
    if swept.len() != total {
        return Err(format!("{} of {total} points failed", total - swept.len()));
    }
    let point_wall: f64 = swept.iter().map(|r| r.wall_seconds).sum();
    let attempts: u64 = run.attempts.iter().sum();

    // Journal: replay the sweep's entries through `record`, then load.
    let loaded = Journal::load(&run.journal).map_err(|e| e.to_string())?;
    let mut replay = Journal::create(dir.join("replay.jsonl")).map_err(|e| e.to_string())?;
    let written = host::written_bytes();
    let start = Instant::now();
    for entry in loaded.entries() {
        replay.record(entry.clone()).map_err(|e| e.to_string())?;
    }
    let record_s = secs(start);
    let write_bytes = written
        .zip(host::written_bytes())
        .map_or(f64::NAN, |(before, after)| (after - before) as f64);
    let loads = (0..3)
        .map(|_| {
            let start = Instant::now();
            let journal = Journal::load(&run.journal).map_err(|e| e.to_string())?;
            black_box(journal);
            Ok(secs(start))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let start = Instant::now();
    for experiment in &w.experiments {
        black_box(experiment.point_hash());
    }
    let point_hash_s = secs(start);

    let traces = trace_points(w, &swept)?;
    let sum = |f: fn(&PointTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let count = |f: fn(&PointTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let point_times: Vec<f64> = traces.iter().map(|t| t.point_s).collect();
    let tail = stats::tail(&point_times);
    let engine_off = sum(|t| t.engine_off_s);
    let cycles = count(|t| t.cycles);
    let flit_hops = count(|t| t.flit_hops);
    let alloc_fail = count(|t| t.alloc_fail);
    let phase_s =
        |phase: usize| traces.iter().map(|t| t.phase_nanos[phase]).sum::<u64>() as f64 * 1e-9;

    report.set("traffic.rate_s", setup.rate);
    report.set("traffic.weights_s", setup.weights);
    report.set("engine.build_s", setup.build);
    report.set("engine.step_ns", engine_off * 1e9 / cycles as f64);
    report.set(
        "engine.ns_per_flit_hop",
        engine_off * 1e9 / flit_hops as f64,
    );
    for (phase, metric) in PHASE_METRICS.into_iter().enumerate() {
        report.set(metric, phase_s(phase));
    }
    report.set("engine.flit_hops", flit_hops as f64);
    report.set("engine.alloc_fail", alloc_fail as f64);
    report.set("engine.blocked_cycles", count(|t| t.blocked) as f64);
    report.set(
        "engine.alloc_fail_per_hop",
        alloc_fail as f64 / flit_hops as f64,
    );
    report.set("core.point_p50_s", stats::median(&point_times));
    report.set("core.point_tail_s", tail.value);
    report.set("core.point_tail_pct", f64::from(tail.percentile));
    report.set("core.points", total as f64);
    report.set(
        "core.self_s",
        sum(|t| t.point_s) - setup.total() - engine_off,
    );
    report.set("core.samples", count(|t| t.samples) as f64);
    report.set("core.cycles", cycles as f64);
    report.set(
        "observe.profiler_overhead",
        sum(|t| t.engine_on_s) / engine_off - 1.0,
    );
    report.set("bench.sim_share", point_wall / (w.threads as f64 * wall));
    report.set("bench.overhead_s", wall - point_wall / w.threads as f64);
    report.set("bench.journal_record_s", record_s);
    report.set("bench.journal_write_bytes", write_bytes);
    report.set("bench.journal_load_s", stats::median(&loads));
    report.set("bench.point_hash_s", point_hash_s);
    report.set("bench.attempts_per_point", attempts as f64 / total as f64);
    report.set("bench.traced_wall_s", wall);
    println!(
        "point tail: p{} of {total} points ({} beyond it)",
        tail.percentile, tail.beyond
    );
    Ok(())
}

/// Prints every metric as `name = value unit`, then the result line.
fn print_report(report: &Report, table: &[(&'static str, &'static str)]) {
    let mut metrics = String::new();
    let mut object = JsonObject::begin(&mut metrics);
    for &(name, unit) in table {
        let value = report
            .metrics
            .iter()
            .find(|(metric, _)| *metric == name)
            .map_or(f64::NAN, |&(_, value)| value);
        println!("{name} = {value} {unit}");
        let mut entry = String::new();
        let mut inner = JsonObject::begin(&mut entry);
        inner.field_f64("value", value).field_str("unit", unit);
        inner.finish();
        object.field_raw(name, &entry);
    }
    object.finish();
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    let mut line = String::new();
    let mut object = JsonObject::begin(&mut line);
    object
        .field_bool("correct", report.problems.is_empty())
        .field_u64("attempted", report.attempted)
        .field_u64("failed", report.failed)
        .field_raw("metrics", &metrics);
    object.finish();
    println!("{line}");
}

fn run(args: &Args) -> Result<Report, String> {
    let w = workload::build(&args.workload, args.seed, host::nproc()).ok_or_else(|| {
        format!(
            "unknown workload '{}' (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let dir = RunDir(PathBuf::from(JOURNAL_ROOT).join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    println!("host {}", host::fingerprint(&dir.0));
    println!(
        "workload {} seed {}: {} points on {} thread(s), trace {}",
        args.workload,
        args.seed,
        w.experiments.len(),
        w.threads,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    if args.trace {
        per_layer(args, &w, &dir.0, &mut report)?;
    } else {
        end_to_end(args, &w, &dir.0, &mut report)?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let report = run(&args)?;
        print_report(&report, if args.trace { &PER_LAYER } else { &END_TO_END });
        Ok(report.problems.is_empty())
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one `BENCHMARK.json` list.
    fn listed(benchmark: &Value, list: &str) -> Vec<(String, String)> {
        benchmark
            .get(list)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|metric| {
                let field = |key| metric.get(key).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark = json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
                .collect()
        };
        assert_eq!(listed(&benchmark, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = benchmark
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, workload::NAMES);
    }

    #[test]
    fn every_workload_builds_and_unknown_names_do_not() {
        for name in workload::NAMES {
            let w = workload::build(name, 1993, 2).unwrap();
            assert_eq!(w.experiments.len(), w.seeds.len());
            assert!(!w.experiments.is_empty());
        }
        assert!(workload::build("fig4", 1993, 2).is_none());
    }

    #[test]
    fn every_workload_has_digests_for_the_paper_and_held_out_seeds() {
        for name in workload::NAMES {
            for seed in [1993, 2718] {
                let digest = recorded_digest(name, seed).unwrap();
                assert_eq!(digest.map(|d| d.len()), Some(16), "{name} seed {seed}");
            }
            assert_eq!(recorded_digest(name, 7).unwrap(), None);
        }
    }
}
