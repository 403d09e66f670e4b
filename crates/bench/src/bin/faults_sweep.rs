//! Latency/throughput vs fault count: the adaptivity payoff under damage.
//!
//! Sweeps the number of randomly killed links from 0 to `--max-faults`,
//! running every selected algorithm at a fixed offered load against each
//! fault plan. E-cube has exactly one path per pair, so a single dead link
//! on it strands traffic; the adaptive algorithms route around the damage.
//! The sweep degrades gracefully point-by-point: a point that deadlocks,
//! livelocks, exhausts its budget, or disconnects the network records its
//! [`RunOutcome`] and the sweep continues.
//!
//! ```text
//! faults_sweep [--algos A] [--load L] [--max-faults N] [--smoke] [shared options]
//! ```
//!
//! `--observe DIR` writes per-run manifests and sample streams under
//! `DIR`, with the fault count folded into each run id
//! (`faults<N>-<algo>-...`); `--metrics` adds deep telemetry
//! (`metrics.json`, `heatmap.csv`, and — for deadlocked or livelocked
//! points — a `waitfor.jsonl` wait-for forensic snapshot).
//!
//! `--smoke` is the CI preset: a small torus, two algorithms, three fault
//! counts, and a tight cycle budget so the whole sweep finishes in seconds.
//!
//! Completed points are journaled to `DIR/faults_sweep.journal.jsonl`;
//! after a crash or Ctrl-C, `--resume <journal>` continues where the sweep
//! stopped and reproduces the uninterrupted CSV byte for byte.

use wormsim::faults::{FaultPlan, FaultRegion};
use wormsim::topology::Topology;
use wormsim::{
    AlgorithmKind, Experiment, ExperimentError, MeasurementSchedule, RunOutcome, RunResult,
};
use wormsim_bench::{
    cli, drop_unsupported, flag_value, parse_args_or_exit, run_or_exit, SweepOptions, SweepPlan,
};

const USAGE: &str = "faults_sweep [--algos A] [--load L] [--max-faults N] [--smoke]";

/// The fault sweep's own axes; everything else is in [`SweepOptions`].
struct FaultAxes {
    /// `--topo`, or the 8x8 torus.
    topology: Topology,
    algorithms: Vec<AlgorithmKind>,
    load: f64,
    max_faults: usize,
}

/// A point's outcome. `Err` means the configuration itself was rejected
/// (e.g. the plan disconnected every node); runtime failures land in
/// `Ok(result)` with a non-`Completed` outcome.
type Outcome = Result<RunResult, ExperimentError>;

fn parse_args(args: Vec<String>) -> Result<(FaultAxes, SweepOptions), String> {
    let mut axes = FaultAxes {
        topology: Topology::torus(&[8, 8]),
        algorithms: cli::parse_algorithms("all")?,
        load: 0.2,
        max_faults: 8,
    };
    let options = SweepOptions::parse(args, |flag, args, options| {
        match flag {
            "--algos" => axes.algorithms = cli::parse_algorithms(&flag_value(flag, args)?)?,
            "--load" => {
                let loads = cli::parse_loads(&flag_value(flag, args)?)?;
                if loads.len() != 1 {
                    return Err(
                        "--load takes a single load; the sweep axis is fault count".to_owned()
                    );
                }
                axes.load = loads[0];
            }
            "--max-faults" => {
                axes.max_faults = cli::parse_cycle_budget(&flag_value(flag, args)?)? as usize;
            }
            // The CI preset: small, two algorithms, tightly budgeted.
            "--smoke" => {
                options.topology = Some(Topology::torus(&[6, 6]));
                axes.algorithms = cli::parse_algorithms("ecube,phop")?;
                axes.max_faults = 2;
                options.schedule = MeasurementSchedule::quick();
                options.cycle_budget = Some(30_000);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(topology) = &options.topology {
        axes.topology = topology.clone();
    }
    for note in drop_unsupported(&mut axes.algorithms, &axes.topology)? {
        eprintln!("{note}");
    }
    Ok((axes, options))
}

/// The fault plan for one sweep point: `count` seeded-random link kills.
/// Each count perturbs the seed so plans differ, but the whole curve is
/// reproducible from the base seed alone. Zero faults means *no* plan at
/// all, keeping that point on the fault-free fast path as the baseline.
fn plan_for(topology: &Topology, seed: u64, count: usize) -> Option<FaultPlan> {
    (count > 0).then(|| {
        FaultPlan::random_links(
            topology,
            count,
            seed ^ (count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &FaultRegion::Anywhere,
        )
    })
}

/// Every `(fault count, algorithm)` point, fault-count-major so the
/// printed table reads top to bottom as damage accumulates: point `i` is
/// [`label`]`(i)`. The fault count rides in the observe prefix, so every
/// point keeps a distinct run id and output file set. Not fail-fast: a
/// bad point records its error and the sweep continues.
fn plan(axes: &FaultAxes, options: &SweepOptions) -> SweepPlan {
    let mut experiments = Vec::new();
    for count in 0..=axes.max_faults {
        for &algorithm in &axes.algorithms {
            let mut e = Experiment::new(axes.topology.clone(), algorithm)
                .offered_load(axes.load)
                .schedule(options.schedule)
                .seed(options.seed);
            if let Some(plan) = plan_for(&axes.topology, options.seed, count) {
                e = e.faults(plan);
            }
            experiments.push(options.configure(e, &format!("faults{count}")));
        }
    }
    SweepPlan::new(experiments).journal_name("faults_sweep.journal.jsonl")
}

/// Point `index`'s algorithm name and fault count.
fn label(axes: &FaultAxes, index: usize) -> (&'static str, usize) {
    let algorithms = axes.algorithms.len();
    (
        axes.algorithms[index % algorithms].name(),
        index / algorithms,
    )
}

/// Prints the two panels: mean latency (the outcome tag in upper case
/// when a run produced no statistics) and delivered messages per node per
/// cycle, one row per fault count.
fn print_table(axes: &FaultAxes, seed: u64, points: &[Outcome]) {
    println!(
        "== Latency vs fault count on {} at load {:.2} (seed {}) ==",
        axes.topology, axes.load, seed
    );
    let panel = |title: &str, cell: fn(&Outcome) -> String| {
        println!("\n{title}");
        print!("{:>7}", "faults");
        for algo in &axes.algorithms {
            print!("{:>12}", algo.name());
        }
        println!();
        for (count, row) in points.chunks(axes.algorithms.len()).enumerate() {
            print!("{count:>7}");
            for point in row {
                print!("{:>12}", cell(point));
            }
            println!();
        }
    };
    panel(
        "Mean latency (cycles); non-numeric cells name the run outcome:",
        |result| match result {
            Ok(r) if r.outcome.has_statistics() => format!("{:.1}", r.latency.mean()),
            Ok(r) => r.outcome.tag().to_uppercase(),
            Err(_) => "INVALID".to_owned(),
        },
    );
    panel(
        "Delivered messages per node per cycle:",
        |result| match result {
            Ok(r) => format!("{:.3}", r.delivery_rate),
            Err(_) => "-".to_owned(),
        },
    );
}

/// Writes the points `(index, outcome)` as `<out_dir>/<name>.csv`.
fn write_csv<'a>(
    axes: &FaultAxes,
    points: impl Iterator<Item = (usize, &'a Outcome)>,
    out_dir: &str,
    name: &str,
) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/{name}.csv");
    let mut out = String::from(
        "algorithm,fault_count,offered_load,outcome,latency_mean,achieved_utilization,\
         delivery_rate,messages_measured,cycles_simulated,dropped_events\n",
    );
    for (index, point) in points {
        let (algorithm, fault_count) = label(axes, index);
        match point {
            Ok(r) => {
                out.push_str(&format!(
                    "{},{},{},{},{:.4},{:.6},{:.6},{},{},{}\n",
                    algorithm,
                    fault_count,
                    axes.load,
                    r.outcome,
                    r.latency.mean(),
                    r.achieved_utilization,
                    r.delivery_rate,
                    r.messages_measured,
                    r.cycles_simulated,
                    r.dropped_events,
                ));
            }
            Err(e) => eprintln!("point {algorithm} @ {fault_count} faults invalid: {e}"),
        }
    }
    wormsim::observe::atomic_write(std::path::Path::new(&path), &out)?;
    Ok(path)
}

fn main() {
    let (axes, options) = parse_args_or_exit(USAGE, parse_args);
    eprintln!(
        "running {} points ({} fault counts x {} algorithms) on {} threads...",
        (axes.max_faults + 1) * axes.algorithms.len(),
        axes.max_faults + 1,
        axes.algorithms.len(),
        options.threads
    );
    // Partial results are still worth keeping — flushed under a name that
    // cannot be mistaken for the full sweep.
    let run = run_or_exit(&plan(&axes, &options), &options, |outcomes| {
        let ran = outcomes.iter().enumerate();
        let ran = ran.filter_map(|(i, outcome)| Some((i, outcome.as_ref()?)));
        write_csv(&axes, ran, &options.out_dir, "faults_sweep.partial")
    });
    let points: Vec<_> = run.outcomes.into_iter().flatten().collect();
    print_table(&axes, options.seed, &points);
    // A smoke run must fail loudly if the graceful-degradation contract
    // breaks: every point must produce *some* outcome, and the zero-fault
    // baseline (the first row) must actually complete.
    for (index, point) in points.iter().enumerate().take(axes.algorithms.len()) {
        let (algorithm, _) = label(&axes, index);
        match point {
            Ok(r) => assert!(
                r.outcome == RunOutcome::Completed || r.outcome == RunOutcome::Saturated,
                "zero-fault baseline for {algorithm} ended {}",
                r.outcome
            ),
            Err(e) => panic!("zero-fault baseline for {algorithm} invalid: {e}"),
        }
    }
    match write_csv(
        &axes,
        points.iter().enumerate(),
        &options.out_dir,
        "faults_sweep",
    ) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(FaultAxes, SweepOptions), String> {
        parse_args(args.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn fault_axes_parse() {
        let (axes, options) = parse(&[
            "--topo",
            "mesh:8x8",
            "--algos",
            "ecube,nlast",
            "--load",
            "0.3",
            "--max-faults",
            "4",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(axes.topology, Topology::mesh(&[8, 8]));
        assert_eq!(axes.algorithms.len(), 2);
        assert!((axes.load - 0.3).abs() < 1e-12);
        assert_eq!(axes.max_faults, 4);
        assert_eq!(options.seed, 7);
        let (axes, _) = parse(&[]).unwrap();
        assert_eq!(axes.topology, Topology::torus(&[8, 8]), "default network");
    }

    #[test]
    fn smoke_preset_is_small_and_budgeted() {
        let (axes, options) = parse(&["--smoke"]).unwrap();
        assert_eq!(axes.topology, Topology::torus(&[6, 6]));
        assert_eq!(axes.algorithms.len(), 2);
        assert_eq!(axes.max_faults, 2);
        assert_eq!(options.schedule, MeasurementSchedule::quick());
        assert!(options.cycle_budget.is_some());
    }

    #[test]
    fn load_must_be_single_valued() {
        assert!(parse(&["--load", "0.1,0.5"]).is_err());
        assert!(parse(&["--load", "0"]).is_err());
    }

    #[test]
    fn malformed_axes_are_usage_errors() {
        assert!(parse(&["--max-faults", "lots"]).is_err());
        assert!(parse(&["--hyperdrive"]).is_err());
    }

    #[test]
    fn plans_differ_by_count_and_reproduce_by_seed() {
        let topology = Topology::torus(&[8, 8]);
        assert!(
            plan_for(&topology, 1993, 0).is_none(),
            "baseline stays fault-free"
        );
        let a = plan_for(&topology, 1993, 3).expect("plan exists");
        let b = plan_for(&topology, 1993, 3).expect("plan exists");
        assert_eq!(a.faults(), b.faults(), "same seed, same plan");
        assert_eq!(a.faults().len(), 3);
    }

    #[test]
    fn plan_labels_every_point_and_prefixes_its_fault_count() {
        let (axes, options) = parse(&["--smoke", "--observe", "obs"]).unwrap();
        let plan = plan(&axes, &options);
        assert_eq!(plan.experiments().len(), 6);
        assert_eq!(label(&axes, 0), ("ecube", 0));
        assert_eq!(label(&axes, 5), ("phop", 2));
        assert_eq!(plan.experiments()[0].cycle_budget_value(), Some(30_000));
    }
}
