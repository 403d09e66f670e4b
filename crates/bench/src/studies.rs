//! The study table: every experiment the paper's evaluation (and our
//! ablations of it) runs, as a plan plus a report.
//!
//! A study's `plan` lists its sweep points; [`run_study`] runs them through
//! [`run_or_exit`] — parallel, journaled, resumable, panic-isolated, on any
//! backend — and hands the results, in plan order, to its `report`, which
//! prints the study's tables. A plan may depend on the results so far:
//! [`run_study`] calls it again after every round until it stops growing,
//! so an adaptive search (the saturation bisection) runs one round per
//! step with all its searches side by side, each round resuming the same
//! journal. A static plan ignores the results and takes one round.
//!
//! The `study <name>` binary selects an entry by name.

use crate::{
    apply_topology_override, drop_unsupported, partial_csv, peak_utilization, print_figure,
    print_paper_comparison, run_or_exit, study_plan, write_csv, ExperimentsRun, SweepOptions,
    SweepPlan,
};
use wormsim::presets::{self, FigureSpec};
use wormsim::topology::Topology;
use wormsim::{
    saturation_step, AlgorithmKind, Experiment, MeasurementSchedule, MessageLength, RunResult,
    SaturationPoint, SaturationStep, SelectionPolicy, Switching, TrafficConfig,
};
use AlgorithmKind::{Ecube, NegativeHopBonusCards, NorthLast, PositiveHop, TwoPowerN};

/// One entry of the study table.
pub struct Study {
    /// The name `study <name>` selects.
    pub name: &'static str,
    /// What the study measures, in one line.
    pub about: &'static str,
    /// Stem of the study's journal (`<id>.journal.jsonl`), partial CSV and
    /// observe run ids. The figure entries use their figure id, so their
    /// file names are the ones the per-figure binaries wrote.
    pub id: &'static str,
    /// The full plan, given the results of the plan so far (in plan
    /// order). Called until it stops growing.
    pub plan: fn(&SweepOptions, &[RunResult]) -> Vec<Experiment>,
    /// Prints the study's tables from its complete results, in plan order.
    pub report: fn(&SweepOptions, &[RunResult]),
}

/// Every study, in the order `study` lists them.
pub static STUDIES: &[Study] = &[
    Study {
        name: "fig3",
        about: "Figure 3: uniform traffic of 16-flit worms on a 16x16 torus",
        id: "fig3",
        plan: |options, done| figure_points(presets::fig3(), options, done),
        report: |options, results| figure_report(presets::fig3(), options, results),
    },
    Study {
        name: "fig4",
        about: "Figure 4: 4% hotspot traffic, hotspot node (15,15)",
        id: "fig4",
        plan: |options, done| figure_points(presets::fig4(), options, done),
        report: |options, results| figure_report(presets::fig4(), options, results),
    },
    Study {
        name: "fig5",
        about: "Figure 5: local traffic with 0.4 locality fraction",
        id: "fig5",
        plan: |options, done| figure_points(presets::fig5(), options, done),
        report: |options, results| figure_report(presets::fig5(), options, results),
    },
    Study {
        name: "vct",
        about: "Section 3.4: 2pn vs nbc vs e-cube under virtual cut-through",
        id: "vct34",
        plan: |options, done| figure_points(presets::vct_section_3_4(), options, done),
        report: |options, results| figure_report(presets::vct_section_3_4(), options, results),
    },
    Study {
        name: "headline",
        about: "Figures 3-5 and Section 3.4 with the paper-vs-measured table",
        id: "headline",
        plan: headline_plan,
        report: headline_report,
    },
    Study {
        name: "ablation_buffers",
        about: "peak throughput vs per-VC flit-buffer depth",
        id: "ablation_buffers",
        plan: buffers_plan,
        report: buffers_report,
    },
    Study {
        name: "ablation_congestion",
        about: "the input-buffer-limit congestion control (Lam & Reiser)",
        id: "ablation_congestion",
        plan: congestion_plan,
        report: congestion_report,
    },
    Study {
        name: "ablation_length",
        about: "message length: 16, 20, 24 flits and the 15/31 mix",
        id: "ablation_length",
        plan: length_plan,
        report: length_report,
    },
    Study {
        name: "ablation_selection",
        about: "adaptive candidate selection: least-congested, first-free, random",
        id: "ablation_selection",
        plan: selection_plan,
        report: selection_report,
    },
    Study {
        name: "ablation_vcs",
        about: "virtual-channel flow control: VCs per routing class (Dally 1992)",
        id: "ablation_vcs",
        plan: vcs_plan,
        report: vcs_report,
    },
    Study {
        name: "tune",
        about: "buffer depth x congestion limit x selection matrix behind the defaults",
        id: "tune",
        plan: tune_plan,
        report: tune_report,
    },
    Study {
        name: "multidim",
        about: "future work: all six algorithms on an 8x8x8 torus and a 16x16 mesh",
        id: "multidim",
        plan: multidim_plan,
        report: multidim_report,
    },
    Study {
        name: "hotspot_placement",
        about: "4% hotspot traffic by hotspot placement, plus four spread hotspots",
        id: "hotspot_placement",
        plan: placement_plan,
        report: placement_report,
    },
    Study {
        name: "switching_comparison",
        about: "wormhole vs virtual cut-through vs store-and-forward",
        id: "switching_comparison",
        plan: switching_plan,
        report: switching_report,
    },
    Study {
        name: "transpose_check",
        about: "Glass & Ni's caveat: transpose, bit-reversal and complement traffic",
        id: "transpose_check",
        plan: transpose_plan,
        report: transpose_report,
    },
    Study {
        name: "saturation",
        about: "in-text saturation readings, by bisection over offered load",
        id: "saturation",
        plan: saturation_plan,
        report: saturation_report,
    },
];

/// The study called `name`.
pub fn find(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|study| study.name == name)
}

/// Runs `study` to the end and prints its report, through [`run_or_exit`]
/// (which exits the process on interruption, quarantine or failure).
pub fn run_study(study: &Study, options: &SweepOptions) {
    let results = run_rounds(study, options, |plan, options| {
        run_or_exit(plan, options, partial_csv(study.id, &options.out_dir))
    });
    (study.report)(options, &results);
}

/// Runs `study`'s plan, one `run` per round, until the plan stops
/// growing, and returns the results in plan order. Every round is one
/// [`study_plan`] journaled to `<id>.journal.jsonl`; rounds after the
/// first resume that journal, so only the new points run. The
/// `--fail-after-points` budget spans the rounds: each round gets what
/// the rounds before it left.
fn run_rounds(
    study: &Study,
    options: &SweepOptions,
    mut run: impl FnMut(&SweepPlan, &SweepOptions) -> ExperimentsRun,
) -> Vec<RunResult> {
    let mut options = options.clone();
    let mut results = Vec::new();
    loop {
        let points = (study.plan)(&options, &results);
        if points.len() == results.len() {
            return results;
        }
        eprintln!("running {} ({} points)...", study.name, points.len());
        // A figure's points differ in algorithm and load, so its run ids
        // are `<id>-...`; other studies' points may share both, so theirs
        // carry the plan index.
        let figure = presets::all_figures().iter().any(|s| s.id == study.id);
        let prefix = |i| {
            if figure {
                study.id.to_owned()
            } else {
                format!("{}-{i}", study.id)
            }
        };
        let plan = study_plan(study.id, points, prefix, &options);
        let round = run(&plan, &options);
        // Below the budget, or this round would have exited.
        let journaled = round.outcomes.len() - round.resumed;
        if let Some(left) = &mut options.fail_after_points {
            *left -= journaled;
        }
        // A fail-fast run comes back without configuration errors.
        results = round.outcomes.into_iter().flatten().flatten().collect();
        options
            .resume
            .get_or_insert_with(|| round.journal.display().to_string());
    }
}

/// Peak achieved utilization over a series of runs.
fn peak(series: &[RunResult]) -> f64 {
    series
        .iter()
        .fold(0.0, |peak: f64, r| peak.max(r.achieved_utilization))
}

/// A uniform-traffic experiment at the options' schedule and seed.
fn uniform(topology: &Topology, algorithm: AlgorithmKind, options: &SweepOptions) -> Experiment {
    Experiment::new(topology.clone(), algorithm)
        .traffic(TrafficConfig::Uniform)
        .schedule(options.schedule)
        .seed(options.seed)
}

/// A table's plan: the experiment of every `(row, column)` cell at each
/// of `loads`, row-major, so each row is `columns × loads` results.
fn grid<R, C>(
    rows: &[R],
    columns: &[C],
    loads: &[f64],
    cell: impl Fn(&R, &C) -> Experiment,
) -> Vec<Experiment> {
    let mut plan = Vec::new();
    for row in rows {
        for column in columns {
            let base = cell(row, column);
            plan.extend(loads.iter().map(|&load| base.clone().offered_load(load)));
        }
    }
    plan
}

/// Prints a [`grid`]'s peak table body: per row its label right-aligned
/// in `widths.0`, then the peak utilization of each of its `columns`
/// cells in `widths.1`.
fn print_peaks(labels: &[&str], widths: (usize, usize), columns: usize, results: &[RunResult]) {
    let loads = results.len() / (labels.len() * columns);
    for (label, row) in labels.iter().zip(results.chunks(columns * loads)) {
        print!("{label:>w$}", w = widths.0);
        for series in row.chunks(loads) {
            print!("{:>w$.3}", peak(series), w = widths.1);
        }
        println!();
    }
}

fn figure_points(spec: FigureSpec, options: &SweepOptions, done: &[RunResult]) -> Vec<Experiment> {
    let (spec, notes) = apply_topology_override(spec, options);
    if done.is_empty() {
        notes.iter().for_each(|note| eprintln!("{note}"));
    }
    presets::experiments_for(&spec, options.schedule, options.seed)
}

fn figure_report(spec: FigureSpec, options: &SweepOptions, results: &[RunResult]) {
    let (spec, _) = apply_topology_override(spec, options);
    print_figure(&spec, results);
    print_paper_comparison(&spec.id, results);
    report_csv(&spec.id, results, options);
}

fn report_csv(id: &str, results: &[RunResult], options: &SweepOptions) {
    match write_csv(id, results, &options.out_dir) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

fn headline_plan(options: &SweepOptions, done: &[RunResult]) -> Vec<Experiment> {
    presets::all_figures()
        .into_iter()
        .flat_map(|spec| figure_points(spec, options, done))
        .collect()
}

fn headline_report(options: &SweepOptions, results: &[RunResult]) {
    let mut rest = results;
    for spec in presets::all_figures() {
        let (spec, _) = apply_topology_override(spec, options);
        let (results, tail) = rest.split_at(spec.algorithms.len() * spec.loads.len());
        rest = tail;
        println!("== {} ({}) ==", spec.title, spec.id);
        println!("Peak achieved utilization:");
        for algo in &spec.algorithms {
            let peak = peak_utilization(results, algo.name());
            println!("  {:>6}: {peak:.3}", algo.name());
        }
        println!();
        print_paper_comparison(&spec.id, results);
        report_csv(&spec.id, results, options);
    }
}

const BUFFER_LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
const BUFFER_DEPTHS: [u32; 4] = [1, 2, 4, 8];

fn buffers_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &AlgorithmKind::all(),
        &BUFFER_DEPTHS,
        &BUFFER_LOADS,
        |&algo, &buffer_depth| {
            uniform(&topo, algo, options).switching(Switching::Wormhole { buffer_depth })
        },
    )
}

fn buffers_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Peak achieved utilization vs per-VC buffer depth (uniform, {topo}):");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}",
        "algo", "d=1", "d=2", "d=4", "d=8"
    );
    let algos = AlgorithmKind::all().map(AlgorithmKind::name);
    print_peaks(&algos, (8, 8), BUFFER_DEPTHS.len(), results);
}

const CONGESTION_ALGOS: [AlgorithmKind; 4] = [Ecube, NorthLast, PositiveHop, NegativeHopBonusCards];
const CONGESTION_LIMITS: [(&str, Option<u32>); 4] = [
    ("1", Some(1)),
    ("2", Some(2)),
    ("8", Some(8)),
    ("none", None),
];

fn congestion_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &CONGESTION_ALGOS,
        &CONGESTION_LIMITS,
        &[0.8],
        |&algo, &(_, limit)| uniform(&topo, algo, options).congestion_limit(limit),
    )
}

fn congestion_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Achieved utilization at offered 0.8 (uniform, {topo}):");
    print!("{:>8}", "algo");
    for (name, _) in CONGESTION_LIMITS {
        print!("{name:>9}");
    }
    println!("   (and saturation latency in cycles)");
    let rows = results.chunks(CONGESTION_LIMITS.len());
    for (algo, row) in CONGESTION_ALGOS.into_iter().zip(rows) {
        print!("{:>8}", algo.name());
        for r in row {
            print!("{:>9.3}", r.achieved_utilization);
        }
        print!("   lat:");
        for r in row {
            print!(" {:>8.0}", r.latency.mean());
        }
        println!();
    }
    println!("\n(Unlimited injection lets source queues grow without bound, so its");
    println!("latency column is dominated by queueing and keeps growing with run length.)");
}

/// The low-load point first, then the points the peak is taken over.
const LENGTH_LOADS: [f64; 5] = [0.2, 0.3, 0.5, 0.7, 0.9];
const LENGTH_ALGOS: [AlgorithmKind; 2] = [PositiveHop, Ecube];

fn lengths() -> [(&'static str, MessageLength); 4] {
    let fixed = |flits| MessageLength::fixed(flits).expect("valid");
    let mix = MessageLength::bimodal(15, 31, 0.5).expect("valid");
    [
        ("16", fixed(16)),
        ("20", fixed(20)),
        ("24", fixed(24)),
        ("15/31 mix", mix),
    ]
}

fn length_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &lengths(),
        &LENGTH_ALGOS,
        &LENGTH_LOADS,
        |&(_, length), &algo| uniform(&topo, algo, options).message_length(length),
    )
}

fn length_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Effect of message length (uniform traffic, {topo}):\n");
    println!(
        "{:>10} {:>7} {:>14} {:>11}",
        "length", "algo", "latency @0.2", "peak util"
    );
    let mut series = results.chunks(LENGTH_LOADS.len());
    for (name, _) in lengths() {
        for algo in LENGTH_ALGOS {
            let series = series.next().expect("one series per length and algorithm");
            let (low, peak) = (series[0].latency.mean(), peak(&series[1..]));
            println!("{name:>10} {:>7} {low:>11.1} cy {peak:>11.3}", algo.name());
        }
    }
    println!(
        "\nLonger worms raise zero-load latency linearly (Eq. 2) and hold\n\
         channels longer when blocked; normalized peak throughput moves only\n\
         mildly because Eq. 4 already normalizes by message length."
    );
}

const SELECTION_LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
const SELECTION_ALGOS: [AlgorithmKind; 3] = [NegativeHopBonusCards, PositiveHop, TwoPowerN];
const SELECTION_POLICIES: [SelectionPolicy; 3] = [
    SelectionPolicy::MostCredits,
    SelectionPolicy::FirstFree,
    SelectionPolicy::Random,
];

fn selection_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &SELECTION_ALGOS,
        &SELECTION_POLICIES,
        &SELECTION_LOADS,
        |&algo, &policy| uniform(&topo, algo, options).selection(policy),
    )
}

fn selection_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Peak achieved utilization by selection policy (uniform, {topo}):");
    println!(
        "{:>8} {:>13} {:>13} {:>13}",
        "algo", "MostCredits", "FirstFree", "Random"
    );
    let algos = SELECTION_ALGOS.map(AlgorithmKind::name);
    print_peaks(&algos, (8, 13), SELECTION_POLICIES.len(), results);
}

const VC_LOADS: [f64; 5] = [0.2, 0.3, 0.4, 0.5, 0.6];
const VC_ALGOS: [AlgorithmKind; 3] = [Ecube, NorthLast, TwoPowerN];
const VC_REPLICAS: [u32; 3] = [1, 2, 4];

fn vcs_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(&VC_ALGOS, &VC_REPLICAS, &VC_LOADS, |&algo, &replicas| {
        uniform(&topo, algo, options).vc_replicas(replicas)
    })
}

fn vcs_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Peak achieved utilization vs VCs per class (uniform, {topo}):");
    println!("{:>8} {:>8} {:>8} {:>8}", "algo", "x1", "x2", "x4");
    let algos = VC_ALGOS.map(AlgorithmKind::name);
    print_peaks(&algos, (8, 8), VC_REPLICAS.len(), results);
}

const TUNE_LOADS: [f64; 4] = [0.4, 0.6, 0.8, 1.0];
const TUNE_ALGOS: [AlgorithmKind; 4] = [Ecube, TwoPowerN, PositiveHop, NegativeHopBonusCards];

/// The tuned settings, one table row each: (buffer depth, congestion
/// limit, selection policy).
fn tune_settings() -> Vec<(u32, u32, SelectionPolicy)> {
    let selections = [SelectionPolicy::MostCredits, SelectionPolicy::FirstFree];
    let limits = [1, 4, 8]
        .into_iter()
        .flat_map(|l| selections.map(|s| (l, s)));
    let limits: Vec<_> = limits.collect();
    [1, 2, 4]
        .into_iter()
        .flat_map(|depth| limits.iter().map(move |&(limit, s)| (depth, limit, s)))
        .collect()
}

/// The sensitivity matrix that picked the repository's defaults. It pins
/// its own network, schedule and seed (the paper's torus, quick, 42) so
/// the EXPERIMENTS.md table stays reproducible whatever the flags say.
fn tune_plan(_: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    grid(
        &tune_settings(),
        &TUNE_ALGOS,
        &TUNE_LOADS,
        |&setting, &algo| {
            let (buffer_depth, limit, selection) = setting;
            Experiment::new(Topology::torus(&[16, 16]), algo)
                .traffic(TrafficConfig::Uniform)
                .switching(Switching::Wormhole { buffer_depth })
                .congestion_limit(Some(limit))
                .selection(selection)
                .schedule(MeasurementSchedule::quick())
                .seed(42)
        },
    )
}

fn tune_report(_: &SweepOptions, results: &[RunResult]) {
    println!(
        "{:>6} {:>6} {:>12} | {:>7} {:>7} {:>7} {:>7}",
        "depth", "limit", "selection", "ecube", "2pn", "phop", "nbc"
    );
    let rows = results.chunks(TUNE_ALGOS.len() * TUNE_LOADS.len());
    for ((depth, limit, selection), row) in tune_settings().into_iter().zip(rows) {
        print!("{depth:>6} {limit:>6} {:>12} |", format!("{selection:?}"));
        for series in row.chunks(TUNE_LOADS.len()) {
            print!(" {:>7.3}", peak(series));
        }
        println!();
    }
}

/// The peak is taken over these; the low-load latency is read at 0.2.
const MULTIDIM_LOADS: [f64; 7] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];

/// 3-D torus: phop needs 13 classes (diameter 12), nhop/nbc 7. 2-D mesh
/// (the Glass & Ni setting): single-class e-cube, 2-class 2pn.
fn multidim_topologies() -> [Topology; 2] {
    [Topology::torus(&[8, 8, 8]), Topology::mesh(&[16, 16])]
}

fn multidim_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let mut plan = Vec::new();
    for topo in multidim_topologies() {
        let mut algos = AlgorithmKind::all().to_vec();
        drop_unsupported(&mut algos, &topo).expect("e-cube runs on every network");
        let row = grid(&[&topo], &algos, &MULTIDIM_LOADS, |topo, &algo| {
            uniform(topo, algo, options)
        });
        plan.extend(row);
    }
    plan
}

fn multidim_report(_: &SweepOptions, results: &[RunResult]) {
    let mut series = results.chunks(MULTIDIM_LOADS.len());
    for topo in multidim_topologies() {
        println!("\n== {topo} ==");
        println!(
            "{:>7} {:>9} {:>11} {:>14}",
            "algo", "vcs", "peak util", "latency @0.2"
        );
        for kind in AlgorithmKind::all() {
            let Ok(algo) = kind.build(&topo) else {
                println!("{:>7} {:>9}", kind.name(), "n/a");
                continue;
            };
            let series = series.next().expect("one series per runnable algorithm");
            for (r, load) in series.iter().zip(MULTIDIM_LOADS) {
                if r.deadlock.is_some() {
                    println!("{:>7}: DEADLOCK at load {load}", kind.name());
                }
            }
            let (classes, low) = (algo.num_vc_classes(), series[1].latency.mean());
            let peak = peak(series);
            println!(
                "{:>7} {classes:>9} {peak:>11.3} {low:>11.1} cy",
                kind.name()
            );
        }
    }
}

const PLACEMENT_LOADS: [f64; 4] = [0.2, 0.3, 0.4, 0.5];
const PLACEMENT_ALGOS: [AlgorithmKind; 4] = [NorthLast, Ecube, PositiveHop, NegativeHopBonusCards];

/// The hotspot placements, on the paper's 16x16 torus (the coordinates
/// only make sense there, so the study ignores `--topo`).
fn placements() -> [(&'static str, Vec<Vec<u16>>); 4] {
    [
        ("corner (15,15)", vec![vec![15, 15]]),
        ("center (8,8)", vec![vec![8, 8]]),
        ("edge (0,8)", vec![vec![0, 8]]),
        (
            "4 spread hotspots",
            vec![vec![3, 3], vec![3, 11], vec![11, 3], vec![11, 11]],
        ),
    ]
}

fn placement_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = Topology::torus(&[16, 16]);
    grid(
        &placements(),
        &PLACEMENT_ALGOS,
        &PLACEMENT_LOADS,
        |(_, nodes), &algo| {
            let traffic = TrafficConfig::Hotspot {
                nodes: nodes.clone(),
                fraction: 0.04,
            };
            uniform(&topo, algo, options).traffic(traffic)
        },
    )
}

fn placement_report(_: &SweepOptions, results: &[RunResult]) {
    println!("Peak achieved utilization, 4% hotspot traffic by placement:\n");
    print!("{:>20}", "placement");
    for a in PLACEMENT_ALGOS {
        print!("{:>9}", a.name());
    }
    println!();
    let names = placements().map(|(name, _)| name);
    print_peaks(&names, (20, 9), PLACEMENT_ALGOS.len(), results);
    println!(
        "\nExpected shape: only nlast's column moves with placement (its turn\n\
         restriction makes the north-west region special); spreading the\n\
         hotspot over four nodes recovers throughput for everyone."
    );
}

/// The low-load point first, then the points the peak is taken over.
const SWITCHING_LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
const SWITCHING_ALGOS: [AlgorithmKind; 4] = [NegativeHopBonusCards, PositiveHop, TwoPowerN, Ecube];
const SWITCHING_MODES: [(&str, Switching); 3] = [
    ("wormhole", Switching::Wormhole { buffer_depth: 2 }),
    ("cut-through", Switching::VirtualCutThrough),
    ("store&fwd", Switching::StoreAndForward),
];

fn switching_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &SWITCHING_ALGOS,
        &SWITCHING_MODES,
        &SWITCHING_LOADS,
        |&algo, &(_, mode)| uniform(&topo, algo, options).switching(mode),
    )
}

fn switching_report(_: &SweepOptions, results: &[RunResult]) {
    println!("Peak achieved utilization / latency@0.2 by switching technique:\n");
    print!("{:>7}", "algo");
    for (name, _) in SWITCHING_MODES {
        print!("{name:>22}");
    }
    println!();
    let rows = results.chunks(SWITCHING_MODES.len() * SWITCHING_LOADS.len());
    for (algo, row) in SWITCHING_ALGOS.into_iter().zip(rows) {
        print!("{:>7}", algo.name());
        for series in row.chunks(SWITCHING_LOADS.len()) {
            let (peak, low) = (peak(&series[1..]), series[0].latency.mean());
            print!("{peak:>11.3} {low:>7.0} cy");
        }
        println!();
    }
    println!(
        "\nThe paper's Section 3.4 story in one table: adaptivity-without-\n\
         priority (2pn) is only penalized under wormhole switching, where\n\
         channels are held while blocked; with message buffering (VCT/SAF)\n\
         it pulls close to the hop schemes. Store-and-forward pays ~d x m_l\n\
         latency at low load."
    );
}

const TRANSPOSE_LOADS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
const TRANSPOSE_ALGOS: [AlgorithmKind; 4] = [Ecube, NorthLast, TwoPowerN, PositiveHop];
const PERMUTATIONS: [(&str, TrafficConfig); 3] = [
    ("transpose", TrafficConfig::Transpose),
    ("bit-reversal", TrafficConfig::BitReversal),
    ("complement", TrafficConfig::Complement),
];

fn transpose_plan(options: &SweepOptions, _: &[RunResult]) -> Vec<Experiment> {
    let topo = options.topology_or_paper();
    grid(
        &PERMUTATIONS,
        &TRANSPOSE_ALGOS,
        &TRANSPOSE_LOADS,
        |(_, traffic), &algo| uniform(&topo, algo, options).traffic(traffic.clone()),
    )
}

fn transpose_report(options: &SweepOptions, results: &[RunResult]) {
    let topo = options.topology_or_paper();
    println!("Peak achieved utilization per permutation workload ({topo}):\n");
    print!("{:>14}", "workload");
    for a in TRANSPOSE_ALGOS {
        print!("{:>9}", a.name());
    }
    println!();
    let names = PERMUTATIONS.map(|(name, _)| name);
    print_peaks(&names, (14, 9), TRANSPOSE_ALGOS.len(), results);
    println!(
        "\nGlass & Ni's claim holds if nlast's column beats ecube's for the\n\
         permutations while losing under uniform traffic (Figure 3)."
    );
}

/// Saturated once achieved utilization falls below this share of offered.
const TRACKING_FRACTION: f64 = 0.9;
const BISECTION_STEPS: usize = 4;

/// Replays every algorithm's saturation search over `done`. The plan is
/// round-major: each round holds the next probe of every unfinished
/// search, in algorithm order. Returns the plan through the first round
/// `done` does not cover, and each search's answer once it has one.
fn saturation_searches(
    options: &SweepOptions,
    done: &[RunResult],
) -> (
    Vec<Experiment>,
    Vec<(AlgorithmKind, Option<SaturationPoint>)>,
) {
    let topo = options.topology_or_paper();
    let mut searches = AlgorithmKind::all().map(|kind| (kind, Vec::new(), None::<SaturationPoint>));
    let mut plan = Vec::new();
    let mut done = done.iter();
    loop {
        let (mut probes, mut uncovered) = (0, false);
        for (kind, runs, point) in searches.iter_mut().filter(|s| s.2.is_none()) {
            match saturation_step(TRACKING_FRACTION, BISECTION_STEPS, runs) {
                SaturationStep::Probe(load) => {
                    plan.push(uniform(&topo, *kind, options).offered_load(load));
                    probes += 1;
                    match done.next() {
                        Some(run) => runs.push(run.clone()),
                        None => uncovered = true,
                    }
                }
                SaturationStep::Found(found) => *point = Some(*found),
            }
        }
        if probes == 0 || uncovered {
            break;
        }
    }
    let points = searches
        .into_iter()
        .map(|(kind, _, point)| (kind, point))
        .collect();
    (plan, points)
}

fn saturation_plan(options: &SweepOptions, done: &[RunResult]) -> Vec<Experiment> {
    saturation_searches(options, done).0
}

fn saturation_report(options: &SweepOptions, results: &[RunResult]) {
    println!("Saturation offered load (achieved < 90% of offered), uniform traffic:\n");
    println!(
        "{:>7} {:>12} {:>14} {:>16}",
        "algo", "saturates", "paper", "util at point"
    );
    let paper_notes = [
        ("nbc", "after 0.6"),
        ("phop", "after 0.6"),
        ("nhop", "about 0.55"),
        ("2pn", "early"),
        ("ecube", "early (~0.4)"),
        ("nlast", "early"),
    ];
    for (kind, point) in saturation_searches(options, results).1 {
        let point = point.expect("the plan stopped growing, so every search finished");
        let note = paper_notes
            .iter()
            .find(|(n, _)| *n == kind.name())
            .map_or("", |(_, p)| *p);
        println!(
            "{:>7} {:>12.2} {:>14} {:>16.3}",
            kind.name(),
            point.estimate(),
            note,
            point.at_below.achieved_utilization
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_checked;

    fn options(args: &[&str]) -> SweepOptions {
        SweepOptions::parse(args.iter().map(|s| (*s).to_owned()), |_, _, _| Ok(false)).unwrap()
    }

    #[test]
    fn study_names_are_unique_and_found() {
        for (i, study) in STUDIES.iter().enumerate() {
            assert!(
                STUDIES[..i].iter().all(|other| other.name != study.name),
                "duplicate study {}",
                study.name
            );
            assert!(std::ptr::eq(find(study.name).unwrap(), study));
        }
        assert!(find("fig6").is_none());
    }

    #[test]
    fn every_plan_is_non_empty_and_valid() {
        let options = options(&["--topo", "torus:4x4", "--quick"]);
        for study in STUDIES {
            let plan = (study.plan)(&options, &[]);
            assert!(!plan.is_empty(), "{} plans nothing", study.name);
            for e in &plan {
                e.validate()
                    .unwrap_or_else(|err| panic!("{} plans an invalid point: {err}", study.name));
            }
            let hashes: std::collections::BTreeSet<String> =
                plan.iter().map(Experiment::point_hash).collect();
            assert_eq!(
                hashes.len(),
                plan.len(),
                "{} plans a point twice",
                study.name
            );
        }
    }

    #[test]
    fn saturation_study_matches_the_serial_search() {
        let out_dir = std::env::temp_dir()
            .join(format!(
                "wormsim-bench-{}-saturation-study",
                std::process::id()
            ))
            .display()
            .to_string();
        let options = SweepOptions {
            out_dir: out_dir.clone(),
            threads: 2,
            // Never reached; each round must get what the last one left.
            fail_after_points: Some(1000),
            ..options(&["--topo", "torus:8x8", "--quick", "--seed", "77"])
        };
        let study = find("saturation").unwrap();
        let mut rounds = Vec::new();
        let results = run_rounds(study, &options, |plan, options| {
            rounds.push((plan.experiments().len(), options.fail_after_points));
            run_checked(plan, options).expect("every probe runs")
        });
        assert!(rounds.len() > 2, "one round per bisection step");
        let mut journaled = 0;
        for &(points, budget) in &rounds {
            assert_eq!(budget, Some(1000 - journaled), "the budget spans rounds");
            journaled = points;
        }
        assert_eq!(results.len(), journaled);
        let searches = saturation_searches(&options, &results).1;
        for kind in [AlgorithmKind::Ecube, AlgorithmKind::PositiveHop] {
            let serial = Experiment::new(Topology::torus(&[8, 8]), kind)
                .schedule(MeasurementSchedule::quick())
                .seed(77)
                .find_saturation(TRACKING_FRACTION, BISECTION_STEPS)
                .expect("search runs");
            let (_, swept) = searches.iter().find(|(k, _)| *k == kind).unwrap();
            let swept = swept.as_ref().expect("the search finished");
            assert_eq!((swept.below, swept.above), (serial.below, serial.above));
            assert_eq!(
                wormsim::format_sweep_csv(std::slice::from_ref(&swept.at_below)),
                wormsim::format_sweep_csv(std::slice::from_ref(&serial.at_below)),
                "{kind}: the same measurement at the bracket's low end"
            );
        }
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
