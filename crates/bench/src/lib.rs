//! Shared harness for regenerating the paper's evaluation.
//!
//! Every sweep binary (`study`, `sweep`, `faults_sweep`) parses the same
//! [`SweepOptions`], runs a [`SweepPlan`] in parallel through
//! [`run_sweep`], and ends through [`run_or_exit`]; the [`studies`] table
//! holds the paper's figures, in-text studies and ablations. The figure
//! printers render paper-style latency/throughput series and the CSV
//! files that EXPERIMENTS.md references.
//!
//! The harness is crash-safe: every completed point is checkpointed to a
//! [`Journal`] (atomic JSONL, keyed by the point's configuration digest),
//! worker panics are contained to the point that raised them, the sweep
//! supervisor re-runs transient outcomes after a seed-jittered backoff,
//! and SIGINT drains in-flight points before flushing partial results and
//! printing a ready-to-paste resume command. See `docs/ROBUSTNESS.md`.
//!
//! Execution is pluggable behind the [`WorkerBackend`] trait: the default
//! [`LocalThreadBackend`] runs points on an in-process pool, while
//! [`RemoteBackend`] shards them across `wormsim-worker` processes over
//! HTTP. Either way the deterministic committer journals completed points
//! strictly in schedule order, so the merged CSV and journal are
//! byte-identical no matter how the sweep was sharded. See
//! `docs/DISTRIBUTION.md`.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use wormsim::presets::FigureSpec;
use wormsim::topology::Topology;
use wormsim::{
    format_results_table, format_sweep_csv, AlgorithmKind, CancelToken, Experiment,
    ExperimentError, MeasurementSchedule, ObserveConfig, RunResult,
};

mod backend;
mod chaos;
pub mod cli;
mod committer;
mod http;
mod journal;
pub mod plot;
mod reference;
mod remote;
pub mod studies;
mod supervisor;
pub mod worker;
pub use backend::{
    BackendChoice, BackendError, LocalThreadBackend, PointJob, PointStatus, WorkHandle,
    WorkerBackend,
};
pub use chaos::{ChaosPlan, ChaosPlanError};
pub use journal::{Journal, JournalEntry, JournalError, SalvagedLine};
pub use reference::{paper_reference, PaperClaim};
pub use remote::RemoteBackend;
pub use supervisor::{QuarantineRecord, SupervisionReport};

use committer::Committer;
use supervisor::{Event, Supervisor};
use wormsim::observe::JsonObject;

/// The token the installed SIGINT handler trips. Process-global because a
/// signal handler has no other way to reach session state.
static SIGINT_TOKEN: OnceLock<CancelToken> = OnceLock::new();

const SIGINT: i32 = 2;

extern "C" fn on_sigint(_signum: i32) {
    // Only async-signal-safe work here: one atomic store through the
    // token. No allocation, no locks, no I/O.
    if let Some(token) = SIGINT_TOKEN.get() {
        token.cancel();
    }
}

extern "C" {
    // Vendored libc-free binding: `signal(2)` is in every libc this
    // simulator builds against, and the harness only needs this one hook.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Routes SIGINT (Ctrl-C) to `token` instead of killing the process, so a
/// sweep can stop dispatching, drain in-flight points, flush the journal
/// and partial CSVs, and print a resume command. First caller wins: the
/// token registered first stays registered for the process lifetime.
fn install_sigint_handler(token: &CancelToken) {
    let _ = SIGINT_TOKEN.set(token.clone());
    // SAFETY: `on_sigint` is async-signal-safe (a single atomic store) and
    // has the exact `extern "C" fn(i32)` shape signal(2) expects; the
    // handler address stays valid for the process lifetime.
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

/// Command-line options shared by every sweep binary.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Measurement schedule (`--quick` selects the short one).
    pub schedule: MeasurementSchedule,
    /// Topology override (`--topo torus:32x32`, `--topo 8^3`, ...); `None`
    /// keeps each figure's own network (the paper's 16×16 torus), so
    /// default goldens and resume journals stay bit-identical.
    pub topology: Option<Topology>,
    /// Base RNG seed (`--seed N`).
    pub seed: u64,
    /// Output directory for CSV files (`--out DIR`, default `results`).
    pub out_dir: String,
    /// Worker threads (`--threads N`, default: all cores).
    pub threads: usize,
    /// Directory for per-run sample streams and manifests
    /// (`--observe DIR`); `None` disables them.
    pub observe_dir: Option<String>,
    /// Directory for per-run JSONL event traces (`--trace-out DIR`);
    /// `None` disables them.
    pub trace_dir: Option<String>,
    /// Cycles between time-series samples (`--sample-every N`, 0 = the
    /// observe layer's default stride).
    pub sample_every: u64,
    /// Deep telemetry (`--metrics`): per-channel/per-VC-class counters,
    /// latency histograms, the phase profiler, and per-run
    /// `metrics.json` + `heatmap.csv` exports. Requires `--observe`.
    pub metrics: bool,
    /// Per-run simulated-cycle cap (`--cycle-budget N`); runs cut short
    /// record `RunOutcome::BudgetExceeded`. `None` disables the cap.
    pub cycle_budget: Option<u64>,
    /// Per-run wall-clock cap in seconds (`--wall-budget SECS`), checked
    /// between sampling periods. `None` disables the cap.
    pub wall_budget_secs: Option<f64>,
    /// Journal to resume from (`--resume FILE`): points already recorded
    /// there are skipped and their results spliced back in bit-identically;
    /// new completions append to the same file.
    pub resume: Option<String>,
    /// Extra attempts for points with transient outcomes — budget trips
    /// and harness panics (`--retries N`, default 1). Retries reuse the
    /// identical seed; only the backoff delay between attempts is jittered.
    pub retries: u32,
    /// Supervision: write a worker off once a point's simulation
    /// heartbeat has been frozen this long (`--point-deadline SECS`);
    /// `None` disables hung-worker detection.
    pub point_deadline_secs: Option<f64>,
    /// Supervision: re-dispatch the oldest straggling point to idle
    /// capacity once it has been in flight this long
    /// (`--hedge-after SECS`); `None` disables hedging.
    pub hedge_after_secs: Option<f64>,
    /// Supervision: quarantine a point once it has lost this many
    /// dispatches to dead or hung workers (`--quarantine-after N`,
    /// default 3; `0` disables quarantine and lets a poison point retry
    /// forever).
    pub quarantine_after: u64,
    /// With `--resume`, accept a journal with corrupted mid-file lines
    /// (`--salvage`): every valid record is recovered, bad lines are
    /// quarantined to a `.corrupt.jsonl` sidecar, and their points
    /// re-run. Off by default — silent corruption should be loud.
    pub salvage: bool,
    /// Test hook (`--fail-after-points N`): simulate a crash by exiting
    /// the process (status 3) once N points have been journaled this run,
    /// without flushing anything else. Exercises the resume path.
    pub fail_after_points: Option<usize>,
    /// Test hook (not CLI-exposed): panic inside the worker at this point
    /// index, exercising per-point panic isolation.
    pub inject_panic: Option<usize>,
    /// Cooperative shutdown flag. [`run_or_exit`] routes SIGINT here;
    /// tests trip it directly.
    pub shutdown: CancelToken,
    /// Where points execute (`--backend local|remote`, `--worker ADDR`);
    /// defaults to the in-process pool.
    pub backend: BackendChoice,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            schedule: MeasurementSchedule::default(),
            topology: None,
            seed: 1993,
            out_dir: "results".to_owned(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            observe_dir: None,
            trace_dir: None,
            sample_every: 0,
            metrics: false,
            cycle_budget: None,
            wall_budget_secs: None,
            resume: None,
            retries: 1,
            point_deadline_secs: None,
            hedge_after_secs: None,
            quarantine_after: 3,
            salvage: false,
            fail_after_points: None,
            inject_panic: None,
            shutdown: CancelToken::new(),
            backend: BackendChoice::Local,
        }
    }
}

/// Usage text for the flags [`SweepOptions::parse`] understands, appended
/// to each binary's own usage line.
pub const OPTIONS_USAGE: &str = "[--quick|--saturation] [--topo T] [--seed N] [--out DIR] \
     [--threads N] [--observe DIR] [--trace-out DIR] [--sample-every N] [--metrics] \
     [--cycle-budget N] [--wall-budget SECS] [--resume JOURNAL] [--salvage] [--retries N] \
     [--point-deadline SECS] [--hedge-after SECS] [--quarantine-after N] \
     [--backend local|remote] [--worker HOST:PORT]...";

/// Parses the process arguments with `parse` (program name stripped). On
/// `--help`/`-h` prints `usage: <usage> <OPTIONS_USAGE>` and exits 0; on a
/// parse error prints the message and that usage on stderr and exits 2.
pub fn parse_args_or_exit<T>(
    usage: &str,
    parse: impl FnOnce(Vec<String>) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("usage: {usage} {OPTIONS_USAGE}");
        std::process::exit(0);
    }
    parse(args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        eprintln!("usage: {usage} {OPTIONS_USAGE}");
        std::process::exit(2);
    })
}

/// Whether the arguments ask for the usage text (`--help` or `-h`
/// anywhere), which short-circuits parsing.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// The next argument as the value of `flag`.
///
/// # Errors
///
/// When the arguments ran out.
pub fn flag_value(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

impl SweepOptions {
    /// Parses an argument iterator (program name already stripped): the
    /// shared flags listed in [`OPTIONS_USAGE`], plus whatever `own`
    /// accepts. `own` sees every argument the shared parser does not
    /// know, with the remaining arguments (to take a value from, see
    /// [`flag_value`]) and the options so far; it returns whether it
    /// consumed the argument.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, missing values,
    /// malformed integers, the nonsensical `--threads 0`, and inconsistent
    /// combinations (`--metrics` without `--observe`, `--salvage` without
    /// `--resume`, a remote backend without workers or with telemetry).
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        mut own: impl FnMut(
            &str,
            &mut dyn Iterator<Item = String>,
            &mut SweepOptions,
        ) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut options = SweepOptions::default();
        let (mut backend, mut workers) = (None, Vec::new());
        while let Some(arg) = args.next() {
            let args: &mut dyn Iterator<Item = String> = &mut args;
            let flag = arg.as_str();
            let mut value = || flag_value(flag, args);
            match flag {
                "--quick" => options.schedule = MeasurementSchedule::quick(),
                "--saturation" => options.schedule = MeasurementSchedule::saturation(),
                "--topo" => options.topology = Some(cli::parse_topology(&value()?)?),
                "--seed" => options.seed = cli::parse_seed(&value()?)?,
                "--out" => options.out_dir = value()?,
                "--threads" => options.threads = cli::parse_threads(&value()?)?,
                "--observe" => options.observe_dir = Some(value()?),
                "--trace-out" => options.trace_dir = Some(value()?),
                "--sample-every" => options.sample_every = cli::parse_sample_every(&value()?)?,
                "--metrics" => options.metrics = true,
                "--cycle-budget" => {
                    options.cycle_budget = Some(cli::parse_cycle_budget(&value()?)?)
                }
                "--wall-budget" => {
                    options.wall_budget_secs = Some(cli::parse_wall_budget(&value()?)?)
                }
                "--resume" => options.resume = Some(value()?),
                "--retries" => options.retries = cli::parse_retries(&value()?)?,
                "--point-deadline" => {
                    options.point_deadline_secs = Some(cli::parse_supervise_secs(flag, &value()?)?)
                }
                "--hedge-after" => {
                    options.hedge_after_secs = Some(cli::parse_supervise_secs(flag, &value()?)?)
                }
                "--quarantine-after" => {
                    options.quarantine_after = cli::parse_quarantine_after(&value()?)?
                }
                "--salvage" => options.salvage = true,
                "--fail-after-points" => {
                    options.fail_after_points = Some(cli::parse_fail_after(&value()?)?)
                }
                "--backend" => backend = Some(value()?),
                "--worker" => workers.push(value()?),
                _ => {
                    if !own(flag, args, &mut options)? {
                        return Err(format!("unknown argument '{flag}'"));
                    }
                }
            }
        }
        // Any --worker implies the remote backend.
        options.backend = match backend.as_deref() {
            Some("local") if !workers.is_empty() => {
                return Err("--backend local conflicts with --worker".into());
            }
            Some("local") => BackendChoice::Local,
            None if workers.is_empty() => BackendChoice::Local,
            Some("remote") | None => BackendChoice::Remote { workers },
            Some(other) => {
                return Err(format!(
                    "--backend must be 'local' or 'remote', got '{other}'"
                ));
            }
        };
        if options.metrics && options.observe_dir.is_none() {
            return Err("--metrics needs --observe DIR (metrics export to the observe dir)".into());
        }
        if options.salvage && options.resume.is_none() {
            return Err(
                "--salvage needs --resume JOURNAL (it relaxes how that journal is loaded)".into(),
            );
        }
        options.validate_backend()?;
        Ok(options)
    }

    /// Decorates one sweep point with the per-run settings that come from
    /// the command line: the cycle and wall budgets, and with `--observe`
    /// or `--trace-out` the telemetry config, run ids prefixed `prefix`.
    pub fn configure(&self, experiment: Experiment, prefix: &str) -> Experiment {
        let experiment = experiment
            .cycle_budget(self.cycle_budget)
            .wall_budget_secs(self.wall_budget_secs);
        if self.observe_dir.is_none() && self.trace_dir.is_none() {
            return experiment;
        }
        experiment.observe(ObserveConfig {
            out_dir: self.observe_dir.as_deref().map(Into::into),
            trace_dir: self.trace_dir.as_deref().map(Into::into),
            sample_every: self.sample_every,
            prefix: prefix.to_owned(),
            metrics: self.metrics,
        })
    }

    /// Checks backend-dependent option consistency: the remote backend
    /// needs at least one worker and cannot stream telemetry (observe and
    /// trace files would land on the worker's filesystem, not here).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the conflicting flags.
    pub fn validate_backend(&self) -> Result<(), String> {
        if let BackendChoice::Remote { workers } = &self.backend {
            if workers.is_empty() {
                return Err("--backend remote needs at least one --worker HOST:PORT".into());
            }
            if self.observe_dir.is_some() || self.trace_dir.is_some() {
                return Err(
                    "--observe/--trace-out are incompatible with --backend remote \
                     (telemetry would land on the worker's filesystem)"
                        .into(),
                );
            }
        }
        Ok(())
    }

    /// The `--topo` override, or the paper's default 16×16 torus.
    ///
    /// For binaries that study a single network rather than a
    /// [`FigureSpec`] sweep.
    pub fn topology_or_paper(&self) -> Topology {
        self.topology
            .clone()
            .unwrap_or_else(wormsim::presets::paper_topology)
    }
}

/// A figure sweep failure: the first experiment (lowest index in the
/// sweep's deterministic algorithm-major, load-minor order) whose run
/// returned an error.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepError {
    /// Index of the failed point in the sweep's deterministic order.
    pub index: usize,
    /// Algorithm of the failed point.
    pub algorithm: String,
    /// Offered load of the failed point.
    pub offered_load: f64,
    /// What went wrong.
    pub source: ExperimentError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep point {} ({} at offered load {}) failed: {}",
            self.index, self.algorithm, self.offered_load, self.source
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Any failure of the sweep *machinery*, as opposed to the simulation: a
/// failing point configuration or a journal that cannot be read/written.
#[derive(Clone, Debug, PartialEq)]
pub enum HarnessError {
    /// A point's configuration was rejected (see [`SweepError`]).
    Sweep(SweepError),
    /// The run journal could not be loaded or persisted. Fatal by design:
    /// continuing without checkpoints would silently void the crash-safety
    /// contract.
    Journal(JournalError),
    /// The execution backend failed (a worker died, a handshake was
    /// refused). Fatal: the sweep cannot know which points would be lost.
    Backend(BackendError),
    /// The sweep plan or options were inconsistent (empty journal name,
    /// remote backend without workers, ...).
    Plan {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sweep(e) => e.fmt(f),
            HarnessError::Journal(e) => e.fmt(f),
            HarnessError::Backend(e) => e.fmt(f),
            HarnessError::Plan { message } => write!(f, "invalid sweep plan: {message}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Sweep(e) => Some(e),
            HarnessError::Journal(e) => Some(e),
            HarnessError::Backend(e) => Some(e),
            HarnessError::Plan { .. } => None,
        }
    }
}

impl From<JournalError> for HarnessError {
    fn from(e: JournalError) -> Self {
        HarnessError::Journal(e)
    }
}

/// One sweep's raw per-point outcomes from [`run_sweep`].
#[derive(Debug)]
pub struct ExperimentsRun {
    /// Per point, in input order: `None` if the point never ran (shutdown
    /// before dispatch, or cancelled by an earlier failure in fail-fast
    /// mode), otherwise the run result or its configuration error.
    pub outcomes: Vec<Option<Result<RunResult, ExperimentError>>>,
    /// Attempts each completed point took (1 = first try; 0 if never ran).
    pub attempts: Vec<u64>,
    /// Whether the shutdown token tripped before every point completed.
    pub interrupted: bool,
    /// Points spliced in from the resume journal rather than re-run.
    pub resumed: usize,
    /// Whether the resume journal ended in a torn append that
    /// [`Journal::load`] dropped: the sweep re-ran the lost point, but
    /// callers inspecting a crash deserve to know the journal was not
    /// clean.
    pub recovered_truncation: bool,
    /// Corrupted journal lines `--salvage` quarantined to the
    /// `.corrupt.jsonl` sidecar (always 0 without the flag).
    pub salvaged: usize,
    /// Points the supervisor wrote off as poison: their outcome slots are
    /// `None`, their stories live in the `.quarantine.jsonl` sidecar, and
    /// the sweep completed without them.
    pub quarantined: Vec<QuarantineRecord>,
    /// What supervision did: workers written off for frozen heartbeats,
    /// straggler hedges, and discarded duplicate completions.
    pub supervision: SupervisionReport,
    /// Where the journal lives; pass via `--resume` to continue.
    pub journal: PathBuf,
}

/// What to sweep: the experiment list plus the per-sweep policy that used
/// to ride along as positional arguments (`journal_name`, `fail_fast`).
///
/// Build with [`SweepPlan::new`] and the chained setters; [`run_sweep`]
/// validates the plan before touching the filesystem.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    experiments: Vec<Experiment>,
    journal_name: String,
    fail_fast: bool,
}

impl SweepPlan {
    /// A plan over `experiments` with the default journal name
    /// (`sweep.journal.jsonl`) and fail-fast off.
    pub fn new(experiments: Vec<Experiment>) -> SweepPlan {
        SweepPlan {
            experiments,
            journal_name: "sweep.journal.jsonl".to_owned(),
            fail_fast: false,
        }
    }

    /// Names the journal file created under the options' output directory
    /// when not resuming.
    #[must_use]
    pub fn journal_name(mut self, name: impl Into<String>) -> SweepPlan {
        self.journal_name = name.into();
        self
    }

    /// With fail-fast, the first point whose *configuration* is rejected
    /// cancels the remaining points (figure sweeps: one bad config means
    /// the whole figure is wrong); without it, configuration errors are
    /// recorded per point and the sweep continues (fault sweeps: a plan
    /// that disconnects the network is data, not a bug).
    #[must_use]
    pub fn fail_fast(mut self, fail_fast: bool) -> SweepPlan {
        self.fail_fast = fail_fast;
        self
    }

    /// The planned experiments, in schedule order.
    pub fn experiments(&self) -> &[Experiment] {
        &self.experiments
    }

    /// Checks plan consistency (the journal name must be a bare file
    /// name, not a path).
    ///
    /// # Errors
    ///
    /// A human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.journal_name.is_empty() {
            return Err("journal name must not be empty".into());
        }
        if self.journal_name.contains('/') || self.journal_name.contains('\\') {
            return Err(format!(
                "journal name '{}' must be a file name, not a path (it lands under --out)",
                self.journal_name
            ));
        }
        Ok(())
    }
}

/// Orchestrates a [`SweepPlan`] on the configured backend with the full
/// robustness stack: journaled checkpoints (skipping points already
/// recorded when `options.resume` is set), per-point panic isolation,
/// supervised retries with backoff, and cooperative shutdown that drains
/// in-flight points.
///
/// The sweep supervisor submits points to the backend up to its capacity
/// and polls them to completion, deciding every re-run; the deterministic
/// committer appends finished points to the journal strictly in schedule
/// order, with the machine-dependent wall fields canonicalized to zero —
/// so the journal bytes are identical whether the sweep ran on one
/// thread, sixteen, or two remote workers.
///
/// # Errors
///
/// Journal I/O or parse failures, backend infrastructure failures, and
/// inconsistent plans/options. Point-level outcomes — including
/// configuration errors — are reported in the returned
/// [`ExperimentsRun`], not as `Err`.
pub fn run_sweep(plan: &SweepPlan, options: &SweepOptions) -> Result<ExperimentsRun, HarnessError> {
    plan.validate()
        .and_then(|()| options.validate_backend())
        .map_err(|message| HarnessError::Plan { message })?;
    let experiments = plan.experiments();
    let mut salvaged_lines: Vec<SalvagedLine> = Vec::new();
    let journal = match &options.resume {
        Some(path) if options.salvage => {
            let (journal, salvaged) = Journal::load_salvaging(path)?;
            salvaged_lines = salvaged;
            journal
        }
        Some(path) => Journal::load(path)?,
        None => Journal::create(Path::new(&options.out_dir).join(&plan.journal_name))?,
    };
    let journal_path = journal.path().to_path_buf();
    if !salvaged_lines.is_empty() {
        let sidecar = Journal::salvage_sidecar(&journal_path);
        let mut text = String::new();
        for bad in &salvaged_lines {
            let mut record = JsonObject::begin(&mut text);
            record.field_u64("line", bad.line as u64);
            record.field_str("error", &bad.error);
            record.field_str("text", &bad.text);
            record.finish();
            text.push('\n');
        }
        write_sidecar(&sidecar, &text)?;
        eprintln!(
            "WARNING: salvage recovered {} valid point(s) around {} corrupted journal line(s); \
             bad lines quarantined to {} and their points re-run",
            journal.len(),
            salvaged_lines.len(),
            sidecar.display()
        );
    }
    let hashes: Vec<String> = experiments.iter().map(Experiment::point_hash).collect();

    // One slot per point: the outcome plus the attempts it took.
    type Slot = Option<(Result<RunResult, ExperimentError>, u64)>;
    let total = experiments.len();
    let mut slots: Vec<Slot> = (0..total).map(|_| None).collect();
    let mut resumed = 0usize;
    for (i, hash) in hashes.iter().enumerate() {
        if let Some(entry) = journal.get(hash) {
            slots[i] = Some((Ok(entry.result.clone()), entry.attempts));
            resumed += 1;
        }
    }
    let recovered_truncation = journal.recovered_truncation();
    if resumed > 0 || recovered_truncation {
        let torn = if recovered_truncation {
            " (recovered from a torn final append; the lost point re-runs)"
        } else {
            ""
        };
        eprintln!(
            "resuming: {resumed}/{total} points already journaled in {}{torn}",
            journal_path.display()
        );
    }

    let mut committer = Committer::new(journal, total, options.fail_after_points);
    let mut backend: Box<dyn WorkerBackend> = match &options.backend {
        BackendChoice::Local => Box::new(LocalThreadBackend::new(
            options.threads,
            options.shutdown.clone(),
        )),
        BackendChoice::Remote { workers } => {
            Box::new(RemoteBackend::connect(workers).map_err(HarnessError::Backend)?)
        }
    };

    // Points to run, in schedule order; resumed points resolve as skips
    // so they never block the committer's frontier.
    let mut to_submit: VecDeque<usize> = VecDeque::new();
    for (i, slot) in slots.iter().enumerate() {
        if slot.is_some() {
            committer.skip(i)?;
        } else {
            to_submit.push_back(i);
        }
    }

    let mut supervisor = Supervisor::new(experiments, &hashes, options, to_submit);
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    let mut retry_decisions = std::collections::BTreeMap::<String, u64>::new();
    let mut aborted = false;
    let mut cancel_sent = false;
    let mut done = resumed;
    let started = std::time::Instant::now();

    loop {
        if options.shutdown.is_cancelled() && !cancel_sent {
            backend.cancel();
            cancel_sent = true;
        }
        if supervisor.is_idle() {
            break;
        }
        let events = supervisor
            .tick(backend.as_mut())
            .map_err(HarnessError::Backend)?;
        let progressed = !events.is_empty();
        for event in events {
            match event {
                Event::Done {
                    index: i,
                    result,
                    attempts,
                    retry_decision,
                } => {
                    match &result {
                        Ok(r) => {
                            let mut recorded = RunResult::clone(r);
                            // The only machine-dependent bytes in a result;
                            // zeroing them makes the journal byte-identical
                            // across backends and machines.
                            recorded.wall_seconds = 0.0;
                            recorded.cycles_per_sec = 0.0;
                            if let Some(decision) = &retry_decision {
                                *retry_decisions.entry(decision.clone()).or_insert(0) += 1;
                            }
                            committer.complete(
                                i,
                                JournalEntry {
                                    point_hash: hashes[i].clone(),
                                    index: i,
                                    attempts,
                                    retry_decision,
                                    result: recorded,
                                },
                            )?;
                        }
                        Err(_) => {
                            committer.skip(i)?;
                            if plan.fail_fast {
                                aborted = true;
                                supervisor.halt();
                            }
                        }
                    }
                    slots[i] = Some((result.map(|r| *r), attempts));
                    done += 1;
                    let remaining = total - done;
                    if remaining == 0 {
                        eprint!("\r  {done}/{total} points              ");
                    } else {
                        // Average seconds per completed point predicts the
                        // rest.
                        let fresh = done.saturating_sub(resumed).max(1);
                        let eta = started.elapsed().as_secs_f64() / fresh as f64 * remaining as f64;
                        eprint!("\r  {done}/{total} points (ETA {eta:.0}s)   ");
                    }
                    let _ = std::io::stderr().flush();
                }
                Event::Quarantined(record) => {
                    // The point is written off, not retried: unblock the
                    // committer's frontier and carry on without it.
                    committer.skip(record.index)?;
                    eprintln!(
                        "\nquarantining point {} after {} lost dispatches: {}",
                        record.index, record.dispatches, record.last_error
                    );
                    quarantined.push(record);
                    done += 1;
                }
            }
        }
        if !progressed {
            std::thread::sleep(backend.poll_interval());
        }
    }
    // Abort/interrupt can leave completed entries held behind a gap;
    // persist them (out of the strict order, which only covers complete
    // runs) so a resume does not redo finished work.
    committer.flush()?;
    eprintln!();

    let (outcomes, attempts): (Vec<_>, Vec<_>) = slots
        .into_iter()
        .map(|slot| slot.map_or((None, 0), |(result, n)| (Some(result), n)))
        .unzip();
    // Quarantined points are deliberately absent, not pending: they must
    // not read as an interruption (which would promise a resume could
    // finish them).
    let interrupted = outcomes
        .iter()
        .enumerate()
        .any(|(i, o)| o.is_none() && !quarantined.iter().any(|q| q.index == i))
        && !aborted;
    if !quarantined.is_empty() {
        let sidecar = Journal::quarantine_sidecar(&journal_path);
        let mut text = String::new();
        for record in &quarantined {
            let mut object = JsonObject::begin(&mut text);
            object.field_u64("index", record.index as u64);
            object.field_str("point_hash", &record.point_hash);
            object.field_u64("dispatches", record.dispatches);
            object.field_str("last_error", &record.last_error);
            object.finish();
            text.push('\n');
        }
        write_sidecar(&sidecar, &text)?;
        eprintln!(
            "{} point(s) quarantined as poison; details in {}",
            quarantined.len(),
            sidecar.display()
        );
    }
    let supervision = supervisor.report.clone();
    if !supervision.is_empty()
        || !quarantined.is_empty()
        || !retry_decisions.is_empty()
        || !salvaged_lines.is_empty()
    {
        let manifest = Journal::supervision_sidecar(&journal_path);
        let mut text = String::new();
        let mut object = JsonObject::begin(&mut text);
        object.field_u64("workers_written_off", supervision.workers_written_off);
        object.field_u64("points_hedged", supervision.points_hedged);
        object.field_u64("duplicates_discarded", supervision.duplicates_discarded);
        object.field_u64("points_quarantined", quarantined.len() as u64);
        object.field_u64("journal_lines_salvaged", salvaged_lines.len() as u64);
        let mut decisions = String::new();
        let mut inner = JsonObject::begin(&mut decisions);
        for (decision, count) in &retry_decisions {
            inner.field_u64(decision, *count);
        }
        inner.finish();
        object.field_raw("retry_decisions", &decisions);
        object.finish();
        text.push('\n');
        write_sidecar(&manifest, &text)?;
        eprintln!("supervision manifest written to {}", manifest.display());
    }
    Ok(ExperimentsRun {
        outcomes,
        attempts,
        interrupted,
        resumed,
        recovered_truncation,
        salvaged: salvaged_lines.len(),
        quarantined,
        supervision,
        journal: journal_path,
    })
}

/// Writes a supervision sidecar (quarantine records, salvage captures,
/// the manifest) atomically next to the journal.
fn write_sidecar(path: &Path, text: &str) -> Result<(), HarnessError> {
    wormsim::observe::atomic_write(path, text).map_err(|e| {
        HarnessError::Journal(JournalError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    })
}

/// Drops the algorithms `topology` cannot run (e.g. the negative-hop
/// schemes on odd-radix tori) and returns one `skipping <algo>: <why>`
/// note per dropped algorithm for the caller to print, or an error when
/// no algorithm is left.
pub fn drop_unsupported(
    algorithms: &mut Vec<AlgorithmKind>,
    topology: &Topology,
) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    algorithms.retain(|kind| match kind.build(topology) {
        Ok(_) => true,
        Err(e) => {
            notes.push(format!("skipping {kind}: {e}"));
            false
        }
    });
    if algorithms.is_empty() {
        return Err(format!("no selected algorithm supports {topology}"));
    }
    Ok(notes)
}

/// Applies the `--topo` override (if any) to a figure spec: retargets the
/// network, remaps topology-dependent traffic (see
/// [`FigureSpec::with_topology`]), and drops algorithms the new topology
/// rejects, returning the spec with the [`drop_unsupported`] notes.
///
/// Without an override the spec is returned untouched, so the default 16×16
/// figure outputs stay bit-identical.
///
/// # Panics
///
/// Panics if the override leaves no runnable algorithm.
pub fn apply_topology_override(
    spec: FigureSpec,
    options: &SweepOptions,
) -> (FigureSpec, Vec<String>) {
    let Some(topo) = &options.topology else {
        return (spec, Vec::new());
    };
    let mut spec = spec.with_topology(topo.clone());
    let notes = drop_unsupported(&mut spec.algorithms, topo).unwrap_or_else(|e| panic!("{e}"));
    (spec, notes)
}

/// A study's sweep: `points` in order, point `i` decorated by
/// [`SweepOptions::configure`] with run ids prefixed `prefix(i)`,
/// journaled to `<id>.journal.jsonl`, and fail-fast (one bad
/// configuration means the whole study is wrong).
pub fn study_plan(
    id: &str,
    points: Vec<Experiment>,
    prefix: impl Fn(usize) -> String,
    options: &SweepOptions,
) -> SweepPlan {
    let experiments = points
        .into_iter()
        .enumerate()
        .map(|(i, e)| options.configure(e, &prefix(i)))
        .collect();
    SweepPlan::new(experiments)
        .journal_name(format!("{id}.journal.jsonl"))
        .fail_fast(true)
}

/// A figure's sweep: the [`study_plan`] of every `(algorithm, load)`
/// point in algorithm-major, load-minor order, run ids prefixed with the
/// figure id.
pub fn figure_plan(spec: &FigureSpec, options: &SweepOptions) -> SweepPlan {
    let points = wormsim::presets::experiments_for(spec, options.schedule, options.seed);
    study_plan(&spec.id, points, |_| spec.id.clone(), options)
}

/// Runs `plan` through [`run_sweep`]; for a fail-fast plan the first
/// configuration error (lowest index) becomes the sweep's error.
///
/// # Errors
///
/// [`HarnessError::Sweep`] naming that point, or any [`run_sweep`] error.
pub(crate) fn run_checked(
    plan: &SweepPlan,
    options: &SweepOptions,
) -> Result<ExperimentsRun, HarnessError> {
    let run = run_sweep(plan, options)?;
    let failed = run
        .outcomes
        .iter()
        .enumerate()
        .find_map(|(i, outcome)| match outcome {
            Some(Err(e)) if plan.fail_fast => Some((i, e.clone())),
            _ => None,
        });
    let Some((index, source)) = failed else {
        return Ok(run);
    };
    let experiment = &plan.experiments[index];
    Err(HarnessError::Sweep(SweepError {
        index,
        algorithm: experiment.algorithm_kind().name().to_owned(),
        offered_load: experiment.offered_load_value(),
        source,
    }))
}

/// Per point, in plan order: its result, or `None` if it never ran.
pub type Outcomes = [Option<Result<RunResult, ExperimentError>>];

/// The command line to paste to continue an interrupted sweep: the current
/// invocation with any stale `--resume`/`--fail-after-points` stripped and
/// `--resume <journal>` appended.
fn resume_command(journal: &Path) -> String {
    let mut parts = Vec::new();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--resume" || arg == "--fail-after-points" {
            let _ = args.next();
            continue;
        }
        parts.push(arg);
    }
    parts.push("--resume".to_owned());
    parts.push(journal.display().to_string());
    parts.join(" ")
}

/// Runs `plan` for a binary and returns the run, every point's outcome
/// present, in plan order; configuration errors are present only when the
/// plan is not fail-fast. Installs the SIGINT handler first. Every way a sweep can
/// stop short exits the process the same way for every binary:
///
/// * interrupted (SIGINT): `write_partial` flushes the completed points,
///   the resume command is printed, exit 130;
/// * poison points quarantined: `write_partial` flushes the rest, the
///   sidecar is named, exit 4 (most points are good data, but the sweep
///   is incomplete by design);
/// * a harness failure or a fail-fast configuration error: exit 1.
pub fn run_or_exit(
    plan: &SweepPlan,
    options: &SweepOptions,
    write_partial: impl FnOnce(&Outcomes) -> std::io::Result<String>,
) -> ExperimentsRun {
    install_sigint_handler(&options.shutdown);
    let run = run_checked(plan, options).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if !run.interrupted && run.quarantined.is_empty() {
        return run;
    }
    let total = run.outcomes.len();
    let completed = run.outcomes.iter().filter(|o| o.is_some()).count();
    if completed > 0 {
        match write_partial(&run.outcomes) {
            Ok(path) => eprintln!("wrote partial results to {path}"),
            Err(e) => eprintln!("could not write partial CSV: {e}"),
        }
    }
    if run.interrupted {
        eprintln!("interrupted: {completed}/{total} points completed and journaled");
        eprintln!("resume with: {}", resume_command(&run.journal));
        std::process::exit(130);
    }
    eprintln!(
        "quarantined: sweep completed {completed}/{total} points; {} written off as poison (see {})",
        run.quarantined.len(),
        Journal::quarantine_sidecar(&run.journal).display()
    );
    for record in &run.quarantined {
        eprintln!(
            "  point {} after {} lost dispatches: {}",
            record.index, record.dispatches, record.last_error
        );
    }
    std::process::exit(4);
}

/// A `write_partial` for [`run_or_exit`] that writes the completed points
/// to `<out_dir>/<id>.partial.csv` in the sweep CSV format.
pub fn partial_csv<'a>(
    id: &'a str,
    out_dir: &'a str,
) -> impl FnOnce(&Outcomes) -> std::io::Result<String> + 'a {
    move |outcomes| {
        let done: Vec<RunResult> = outcomes.iter().flatten().flatten().cloned().collect();
        write_csv(&format!("{id}.partial"), &done, out_dir)
    }
}

/// Prints the figure in the paper's two-panel form (latency vs offered
/// load, achieved vs offered throughput), one series per algorithm.
pub fn print_figure(spec: &FigureSpec, results: &[RunResult]) {
    println!("== {} ({}) ==", spec.title, spec.id);
    let loads = &spec.loads;
    let series = |ai: usize| &results[ai * loads.len()..(ai + 1) * loads.len()];
    let table = |title: &str, cell: fn(&RunResult) -> String| {
        println!("\n{title} vs offered channel utilization:");
        print!("{:>8}", "offered");
        for algo in &spec.algorithms {
            print!("{:>10}", algo.name());
        }
        println!();
        for (li, load) in loads.iter().enumerate() {
            print!("{load:>8.2}");
            for ai in 0..spec.algorithms.len() {
                print!("{:>10}", cell(&series(ai)[li]));
            }
            println!();
        }
    };
    table("Average latency (cycles)", |r| {
        format!("{:.1}", r.latency.mean())
    });
    table("Achieved channel utilization", |r| {
        format!("{:.4}", r.achieved_utilization)
    });
    println!("\nPeak achieved utilization per algorithm:");
    for (ai, algo) in spec.algorithms.iter().enumerate() {
        let best = series(ai)
            .iter()
            .max_by(|a, b| {
                a.achieved_utilization
                    .partial_cmp(&b.achieved_utilization)
                    .expect("finite")
            })
            .expect("non-empty series");
        println!(
            "  {:>6}: {:.3} (at offered {:.2})",
            algo.name(),
            best.achieved_utilization,
            best.offered_load
        );
    }
    // ASCII renditions of the two panels, in the paper's style.
    let chart = |title: &str, y: fn(&RunResult) -> f64| {
        let curves: Vec<plot::Series> = (spec.algorithms.iter().enumerate())
            .map(|(ai, algo)| plot::Series {
                label: algo.name().to_owned(),
                marker: plot::MARKERS[ai % plot::MARKERS.len()],
                points: loads
                    .iter()
                    .zip(series(ai))
                    .map(|(&l, r)| (l, y(r)))
                    .collect(),
            })
            .collect();
        println!("{}", plot::render(title, &curves, 64, 18));
    };
    chart("Average latency (cycles)", |r| r.latency.mean());
    chart("Achieved channel utilization", |r| r.achieved_utilization);
    println!("{}", format_results_table(results));
}

/// Prints the paper's quoted numbers next to ours for the figure.
pub fn print_paper_comparison(spec_id: &str, results: &[RunResult]) {
    let claims = paper_reference(spec_id);
    if claims.is_empty() {
        return;
    }
    println!("Paper vs measured:");
    for claim in claims {
        let measured = (claim.measure)(results);
        println!(
            "  {:<62} paper {:>6}  measured {:>7.3}",
            claim.what, claim.paper_value, measured
        );
    }
    println!();
}

/// Writes the sweep CSV under the output directory (atomically, via a
/// temp-file rename, so a crash mid-write never leaves a torn CSV),
/// returning the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(spec_id: &str, results: &[RunResult], out_dir: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("{spec_id}.csv"));
    wormsim::observe::atomic_write(&path, format_sweep_csv(results))?;
    Ok(path.display().to_string())
}

/// Peak achieved utilization of one algorithm's series.
pub fn peak_utilization(results: &[RunResult], algorithm: &str) -> f64 {
    results
        .iter()
        .filter(|r| r.algorithm == algorithm)
        .map(|r| r.achieved_utilization)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::{presets, RunOutcome};

    fn parse(args: &[&str]) -> Result<SweepOptions, String> {
        SweepOptions::parse(args.iter().map(|s| (*s).to_owned()), |_, _, _| Ok(false))
    }

    #[test]
    fn options_parse_well_formed_args() {
        let options = parse(&["--quick", "--seed", "7", "--threads", "3", "--out", "o"]).unwrap();
        assert_eq!(options.seed, 7);
        assert_eq!(options.threads, 3);
        assert_eq!(options.out_dir, "o");
    }

    #[test]
    fn help_short_circuits() {
        let args = |args: &[&str]| args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert!(wants_help(&args(&["--help"])));
        assert!(wants_help(&args(&["fig3", "--quick", "-h"])));
        assert!(!wants_help(&args(&["--quick", "--seed", "7"])));
    }

    #[test]
    fn options_parse_topology_override() {
        let options = parse(&["--topo", "8^3"]).unwrap();
        assert_eq!(options.topology, Some(Topology::k_ary_n_cube(8, 3)));
        assert_eq!(parse(&[]).unwrap().topology, None);
        assert!(parse(&["--topo"]).is_err());
        assert!(parse(&["--topo", "donut:9"]).is_err());
    }

    #[test]
    fn topology_override_rewrites_spec() {
        let options = parse(&["--topo", "torus:8x8"]).unwrap();
        let (spec, notes) = apply_topology_override(presets::fig4(), &options);
        assert_eq!(spec.topology, Topology::torus(&[8, 8]));
        assert!(notes.is_empty());
        // The corner hotspot moved with the network.
        match &spec.traffic {
            wormsim::TrafficConfig::Hotspot { nodes, .. } => {
                assert_eq!(nodes, &vec![vec![7, 7]]);
            }
            other => panic!("unexpected traffic {other:?}"),
        }
        // All six paper algorithms run on an even-radix torus.
        assert_eq!(spec.algorithms.len(), 6);
        // An odd-radix torus drops the bipartite-only schemes but keeps
        // the rest runnable.
        let odd = parse(&["--topo", "torus:9x9"]).unwrap();
        let (spec, notes) = apply_topology_override(presets::fig3(), &odd);
        assert!(!spec.algorithms.is_empty());
        assert_eq!(spec.algorithms.len() + notes.len(), 6, "one note per skip");
        assert!(notes[0].starts_with("skipping "), "got: {notes:?}");
        // No override: the spec is untouched.
        let (spec, _) = apply_topology_override(presets::fig3(), &parse(&[]).unwrap());
        assert_eq!(spec.topology, presets::paper_topology());
    }

    #[test]
    fn options_parse_observability_flags() {
        let options = parse(&[
            "--observe",
            "obs",
            "--trace-out",
            "traces",
            "--sample-every",
            "250",
            "--metrics",
        ])
        .unwrap();
        assert_eq!(options.observe_dir.as_deref(), Some("obs"));
        assert_eq!(options.trace_dir.as_deref(), Some("traces"));
        assert_eq!(options.sample_every, 250);
        assert!(options.metrics);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.observe_dir, None);
        assert_eq!(defaults.trace_dir, None);
        assert_eq!(defaults.sample_every, 0);
        assert!(!defaults.metrics);
        // Metrics export into the observe dir, so it must be set.
        let err = parse(&["--metrics"]).unwrap_err();
        assert!(err.contains("--observe"), "got: {err}");
    }

    #[test]
    fn options_reject_zero_threads() {
        assert!(parse(&["--threads", "0"]).is_err());
    }

    #[test]
    fn options_reject_bad_sample_every() {
        assert!(parse(&["--sample-every", "0"]).is_err());
        assert!(parse(&["--sample-every", "soon"]).is_err());
        assert!(parse(&["--sample-every"]).is_err());
        assert!(parse(&["--observe"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn options_reject_malformed_integers() {
        assert!(parse(&["--threads", "three"]).is_err());
        assert!(parse(&["--threads", "-1"]).is_err());
        assert!(parse(&["--seed", "2e9"]).is_err());
        assert!(parse(&["--seed", "0xbeef"]).is_err());
    }

    #[test]
    fn options_reject_missing_values_and_unknown_flags() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--warp-speed"]).is_err());
    }

    #[test]
    fn options_parse_robustness_flags() {
        let options = parse(&[
            "--resume",
            "results/fig3.journal.jsonl",
            "--retries",
            "3",
            "--fail-after-points",
            "2",
        ])
        .unwrap();
        assert_eq!(
            options.resume.as_deref(),
            Some("results/fig3.journal.jsonl")
        );
        assert_eq!(options.retries, 3);
        assert_eq!(options.fail_after_points, Some(2));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.resume, None);
        assert_eq!(defaults.retries, 1);
        assert_eq!(defaults.fail_after_points, None);
        assert!(!defaults.shutdown.is_cancelled());
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--retries", "many"]).is_err());
        assert!(parse(&["--fail-after-points", "0"]).is_err());
    }

    #[test]
    fn options_parse_backend_flags() {
        assert_eq!(parse(&[]).unwrap().backend, BackendChoice::Local);
        assert_eq!(
            parse(&["--backend", "local"]).unwrap().backend,
            BackendChoice::Local
        );
        let options = parse(&["--worker", "127.0.0.1:9000", "--worker", "127.0.0.1:9001"]).unwrap();
        assert_eq!(
            options.backend,
            BackendChoice::Remote {
                workers: vec!["127.0.0.1:9000".to_owned(), "127.0.0.1:9001".to_owned()],
            },
            "--worker implies the remote backend"
        );
        // Remote without workers, or with local telemetry flags, is
        // rejected up front.
        assert!(parse(&["--backend", "remote"]).is_err());
        assert!(parse(&["--backend", "tape"]).is_err());
        assert!(parse(&["--worker", "w:1", "--backend", "local"]).is_err());
        let err =
            parse(&["--worker", "w:1", "--observe", "obs"]).expect_err("observe cannot shard");
        assert!(err.contains("--observe"), "got: {err}");
    }

    #[test]
    fn options_parse_budget_and_supervision_flags() {
        let options = parse(&[
            "--cycle-budget",
            "5000",
            "--wall-budget",
            "1.5",
            "--point-deadline",
            "30",
            "--hedge-after",
            "5.5",
            "--quarantine-after",
            "2",
            "--resume",
            "results/sweep.journal.jsonl",
            "--salvage",
        ])
        .unwrap();
        assert_eq!(options.cycle_budget, Some(5_000));
        assert_eq!(options.wall_budget_secs, Some(1.5));
        assert_eq!(options.point_deadline_secs, Some(30.0));
        assert_eq!(options.hedge_after_secs, Some(5.5));
        assert_eq!(options.quarantine_after, 2);
        assert!(options.salvage);
        assert!(parse(&["--cycle-budget", "0"]).is_err());
        assert!(parse(&["--wall-budget", "-2"]).is_err());
        assert!(parse(&["--point-deadline", "0"]).is_err());
        assert!(parse(&["--hedge-after", "-1"]).is_err());
        assert!(parse(&["--quarantine-after", "many"]).is_err());
        assert!(parse(&["--salvage"]).is_err(), "--salvage needs --resume");
    }

    #[test]
    fn options_parse_hands_unknown_arguments_to_the_hook() {
        let mut seen = Vec::new();
        let options = SweepOptions::parse(
            ["fig3", "--quick", "--load", "0.3", "--smoke"].map(String::from),
            |arg, args, options| {
                match arg {
                    "--load" => seen.push(flag_value(arg, args)?),
                    "--smoke" => options.cycle_budget = Some(7),
                    positional if !positional.starts_with('-') => seen.push(arg.to_owned()),
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(seen, ["fig3", "0.3"]);
        assert_eq!(options.schedule, MeasurementSchedule::quick());
        assert_eq!(
            options.cycle_budget,
            Some(7),
            "the hook may set shared options"
        );
        // Shared flags win over the hook; what neither knows is an error.
        let err = SweepOptions::parse(["--warp".to_owned()], |_, _, _| Ok(false)).unwrap_err();
        assert!(err.contains("--warp"), "got: {err}");
        let err = SweepOptions::parse(["--load".to_owned()], |arg, args, _| {
            flag_value(arg, args).map(|_| true)
        })
        .unwrap_err();
        assert!(err.contains("--load needs a value"), "got: {err}");
    }

    #[test]
    fn configure_applies_budgets_and_observe_prefix() {
        let base = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube);
        let plain = SweepOptions::default().configure(base.clone(), "x");
        assert_eq!(plain.point_hash(), base.point_hash());
        let options = parse(&["--cycle-budget", "900", "--observe", "obs"]).unwrap();
        let configured = options.configure(base.clone(), "fig3");
        assert_eq!(configured.cycle_budget_value(), Some(900));
        assert_ne!(configured.point_hash(), base.point_hash());
    }

    #[test]
    fn sweep_plan_validates_journal_names() {
        let plan = SweepPlan::new(Vec::new());
        assert_eq!(plan.journal_name, "sweep.journal.jsonl");
        assert!(!plan.fail_fast);
        assert!(plan.validate().is_ok());
        assert!(SweepPlan::new(Vec::new())
            .journal_name("")
            .validate()
            .is_err());
        assert!(SweepPlan::new(Vec::new())
            .journal_name("nested/name.jsonl")
            .validate()
            .is_err());
        let options = SweepOptions::default();
        let error = run_sweep(&SweepPlan::new(Vec::new()).journal_name("a/b"), &options)
            .expect_err("bad plan must be rejected before any I/O");
        assert!(matches!(error, HarnessError::Plan { .. }), "{error}");
    }

    fn temp_out_dir(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("wormsim-bench-{}-{name}", std::process::id()))
            .display()
            .to_string()
    }

    fn tiny_spec() -> FigureSpec {
        let mut spec = presets::fig3();
        spec.loads = vec![0.1, 0.3];
        spec.algorithms = vec![
            wormsim::AlgorithmKind::Ecube,
            wormsim::AlgorithmKind::PositiveHop,
        ];
        spec
    }

    fn complete(spec: &FigureSpec, options: &SweepOptions) -> Vec<RunResult> {
        let run = run_checked(&figure_plan(spec, options), options).expect("all points run");
        assert!(!run.interrupted && run.quarantined.is_empty());
        run.outcomes
            .into_iter()
            .map(|o| o.expect("every point ran").expect("no configuration error"))
            .collect()
    }

    #[test]
    fn harness_runs_a_tiny_figure() {
        // A reduced fig3: two algorithms, two loads, quick schedule.
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("tiny-figure"),
            threads: 4,
            ..SweepOptions::default()
        };
        let results = complete(&spec, &options);
        assert_eq!(results.len(), 4);
        // Ordering: algorithm-major, load-minor.
        assert_eq!(results[0].algorithm, "ecube");
        assert!((results[0].offered_load - 0.1).abs() < 1e-12);
        assert_eq!(results[3].algorithm, "phop");
        assert!((results[3].offered_load - 0.3).abs() < 1e-12);
        let path = write_csv("test", &results, &options.out_dir).unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(peak_utilization(&results, "phop") > 0.2);
        assert!(results[0].latency.mean() > 15.0, "ecube at offered 0.1");
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn sweep_error_names_the_first_failing_point() {
        // Load 9.0 is invalid, so the second point of each series fails.
        // One worker thread makes "first error wins" exact: index 1.
        let mut spec = tiny_spec();
        spec.loads = vec![0.1, 9.0];
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            threads: 1,
            out_dir: temp_out_dir("first-failure"),
            ..SweepOptions::default()
        };
        let harness_error = run_checked(&figure_plan(&spec, &options), &options)
            .expect_err("invalid load must fail the sweep");
        let HarnessError::Sweep(error) = harness_error else {
            panic!("expected a sweep error, got: {harness_error}");
        };
        assert_eq!(error.index, 1);
        assert_eq!(error.algorithm, "ecube");
        assert!((error.offered_load - 9.0).abs() < 1e-12);
        assert!(matches!(
            error.source,
            wormsim::ExperimentError::InvalidLoad { .. }
        ));
        let message = error.to_string();
        assert!(message.contains("ecube"), "got: {message}");
        assert!(message.contains('9'), "got: {message}");
        use std::error::Error as _;
        assert!(error.source().is_some());
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn injected_panic_is_isolated_and_recorded() {
        // One point panics; the sweep must still complete, with the panic
        // rendered as a Harness outcome rather than poisoning the pool.
        // retries: 0 so the panic is recorded on the first attempt.
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("inject-panic"),
            threads: 2,
            retries: 0,
            inject_panic: Some(2),
            ..SweepOptions::default()
        };
        let results = complete(&spec, &options);
        assert_eq!(results.len(), 4);
        let RunOutcome::Harness(info) = &results[2].outcome else {
            panic!(
                "expected a harness panic outcome, got {:?}",
                results[2].outcome
            );
        };
        assert!(info.message.contains("injected"), "got: {}", info.message);
        assert_eq!(
            results[2].samples, 0,
            "panicked point carries no statistics"
        );
        for (i, r) in results.iter().enumerate() {
            if i != 2 {
                assert!(r.outcome.has_statistics(), "point {i} ran normally");
            }
        }
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn transient_panic_is_retried_until_attempts_exhaust() {
        // The injection fires on every attempt of point 1, so with two
        // retries the point is tried 3 times (with backoff between), ends
        // as a Harness outcome, and the attempt count is recorded.
        let spec = tiny_spec();
        let experiments = wormsim::presets::experiments_for(&spec, MeasurementSchedule::quick(), 5);
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("retry"),
            threads: 1,
            retries: 2,
            inject_panic: Some(1),
            ..SweepOptions::default()
        };
        let plan = SweepPlan::new(experiments.clone())
            .journal_name("retry.journal.jsonl")
            .fail_fast(true);
        let run = run_sweep(&plan, &options).unwrap();
        assert!(!run.interrupted);
        assert_eq!(run.resumed, 0);
        assert_eq!(run.attempts[1], 3, "retries exhausted: 1 try + 2 retries");
        assert!(run
            .attempts
            .iter()
            .enumerate()
            .all(|(i, &a)| i == 1 || a == 1));
        let Some(Ok(result)) = &run.outcomes[1] else {
            panic!("point 1 must carry a result");
        };
        assert!(matches!(result.outcome, RunOutcome::Harness(_)));
        // The journaled entry remembers the attempts too.
        let journal = Journal::load(&run.journal).unwrap();
        let entry = journal
            .get(&experiments[1].point_hash())
            .expect("point 1 journaled");
        assert_eq!(entry.attempts, 3);
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn pre_tripped_shutdown_interrupts_before_dispatch() {
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("pre-tripped"),
            threads: 2,
            ..SweepOptions::default()
        };
        options.shutdown.cancel();
        let run = run_checked(&figure_plan(&spec, &options), &options)
            .expect("interruption is not an error");
        assert!(run.interrupted, "pre-tripped shutdown must interrupt");
        assert_eq!(run.outcomes.len(), 4);
        assert!(run.outcomes.iter().all(Option::is_none));
        assert!(run.journal.exists(), "journal path must exist for the hint");
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn resume_skips_journaled_points_and_matches_clean_run() {
        let spec = tiny_spec();
        let out_dir = temp_out_dir("resume-unit");
        let base = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: out_dir.clone(),
            threads: 1,
            ..SweepOptions::default()
        };
        // Clean reference run.
        let clean = complete(&spec, &base);
        let journal_path = Path::new(&out_dir).join("fig3.journal.jsonl");
        assert!(journal_path.exists());

        // Truncate the journal to its first two points (simulated crash),
        // then resume: the two journaled points are spliced, two re-run.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&journal_path, truncated).unwrap();
        let resumed_options = SweepOptions {
            resume: Some(journal_path.display().to_string()),
            ..base
        };
        let resumed = complete(&spec, &resumed_options);
        assert_eq!(
            format_sweep_csv(&clean),
            format_sweep_csv(&resumed),
            "resumed sweep must be byte-identical to the clean run"
        );
        // The journal is whole again after the resume.
        let journal = Journal::load(&journal_path).unwrap();
        assert_eq!(journal.len(), 4);
        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn local_and_remote_backends_write_identical_journals() {
        // The distributed byte-identity guarantee, in-process: the same
        // plan through the local pool and through a loopback worker must
        // leave byte-identical journal files.
        let spec = tiny_spec();
        let experiments =
            wormsim::presets::experiments_for(&spec, MeasurementSchedule::quick(), 1993);
        let local_dir = temp_out_dir("ident-local");
        let remote_dir = temp_out_dir("ident-remote");
        let plan = SweepPlan::new(experiments).fail_fast(true);
        let local = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            out_dir: local_dir.clone(),
            threads: 2,
            ..SweepOptions::default()
        };
        run_sweep(&plan, &local).expect("local sweep");
        let worker = crate::worker::spawn_local(2);
        let remote = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            out_dir: remote_dir.clone(),
            backend: BackendChoice::Remote {
                workers: vec![worker.to_string()],
            },
            ..SweepOptions::default()
        };
        run_sweep(&plan, &remote).expect("remote sweep");
        let local_bytes = std::fs::read(Path::new(&local_dir).join("sweep.journal.jsonl")).unwrap();
        let remote_bytes =
            std::fs::read(Path::new(&remote_dir).join("sweep.journal.jsonl")).unwrap();
        assert!(!local_bytes.is_empty());
        assert_eq!(
            local_bytes, remote_bytes,
            "journals must be byte-identical across backends"
        );
        std::fs::remove_dir_all(&local_dir).ok();
        std::fs::remove_dir_all(&remote_dir).ok();
    }

    #[test]
    fn one_worker_serves_consecutive_sweeps() {
        // A long-lived worker keeps every job id it ever handed out, and
        // each sweep builds a fresh backend: the second sweep (a re-run or
        // a resume) must not collide with the first one's jobs.
        let experiments: Vec<Experiment> = [0.1, 0.2]
            .iter()
            .map(|&load| {
                Experiment::new(Topology::torus(&[6, 6]), wormsim::AlgorithmKind::Ecube)
                    .offered_load(load)
                    .quick()
                    .seed(1993)
            })
            .collect();
        let plan = SweepPlan::new(experiments);
        let local_dir = temp_out_dir("reuse-local");
        let local = SweepOptions {
            out_dir: local_dir.clone(),
            threads: 2,
            ..SweepOptions::default()
        };
        run_sweep(&plan, &local).expect("local sweep");
        let local_bytes = std::fs::read(Path::new(&local_dir).join("sweep.journal.jsonl")).unwrap();
        let worker = crate::worker::spawn_local(2);
        for sweep in 0..2 {
            let dir = temp_out_dir(&format!("reuse-remote-{sweep}"));
            let remote = SweepOptions {
                out_dir: dir.clone(),
                backend: BackendChoice::Remote {
                    workers: vec![worker.to_string()],
                },
                ..SweepOptions::default()
            };
            let run = run_sweep(&plan, &remote)
                .unwrap_or_else(|e| panic!("sweep {sweep} on the shared worker: {e}"));
            assert!(run.outcomes.iter().all(|o| matches!(o, Some(Ok(_)))));
            let bytes = std::fs::read(Path::new(&dir).join("sweep.journal.jsonl")).unwrap();
            assert_eq!(
                local_bytes, bytes,
                "sweep {sweep} must reproduce the local journal byte for byte"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&local_dir).ok();
    }
}
