//! The [`WorkerBackend`] abstraction: where sweep points actually run.
//!
//! The orchestrator ([`run_sweep`](crate::run_sweep)) is backend-agnostic:
//! its supervisor submits [`PointJob`]s, polls their [`PointStatus`], and
//! feeds completed points to the deterministic committer. Two backends
//! exist:
//!
//! * [`LocalThreadBackend`] — the in-process pool, one OS thread per
//!   slot, with cooperative shutdown.
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — HTTP submit/poll
//!   against one or more `wormsim-worker` processes (see
//!   [`worker`](crate::worker) and `docs/DISTRIBUTION.md`).
//!
//! Backends are plain transports: each runs every dispatch exactly once,
//! through the shared panic-isolating [`run_isolated`], and reports what
//! happened. Whether a point runs again — a transient retry, a
//! raised-budget re-run, a re-dispatch after a lost executor, a hedge, a
//! quarantine — is decided by the sweep supervisor alone, so a point gets
//! the same result and the same attempt count wherever it runs: the
//! property the committer turns into byte-identical journals.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use wormsim::stats::{ConfidenceInterval, ConvergenceStatus};
use wormsim::{CancelToken, Experiment, ExperimentError, PanicInfo, RunOutcome, RunResult};

/// One dispatch of a sweep point: the experiment exactly as it should
/// run (attempt number and any raised budget already stamped on it).
#[derive(Clone, Debug)]
pub struct PointJob {
    /// The fully configured experiment (simulation settings only matter on
    /// the wire; observability and cancellation stay with the executor).
    pub experiment: Experiment,
    /// Index in the sweep's deterministic order (provenance and the panic
    /// injection hook; the journal is keyed by hash, not index).
    pub index: usize,
    /// Test hook: panic inside the executor instead of running.
    pub inject_panic: bool,
}

/// A backend's receipt for a submitted job; pass it back to
/// [`WorkerBackend::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkHandle(pub(crate) u64);

/// What [`WorkerBackend::poll`] reports for a handle.
#[derive(Debug)]
pub enum PointStatus {
    /// Still queued or running. `heartbeat` is the engine's cycle counter
    /// (offset by one) when the backend can observe per-job progress, so
    /// the supervisor can tell a hung executor from a slow one; the local
    /// pool shares one token across jobs and reports `None`.
    Pending {
        /// Last observed simulation heartbeat, if any.
        heartbeat: Option<u64>,
    },
    /// Finished: the run result, or the configuration error that
    /// rejected it. A `Done` status is consumed.
    Done(Result<RunResult, ExperimentError>),
    /// The executor was lost (a dead or garbling worker) and the job
    /// with it. The handle is released; the point has not run.
    Lost(BackendError),
}

/// A backend infrastructure failure: the *machinery* (a worker process, a
/// connection) failed, as opposed to a point's simulation outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendError {
    /// Which worker (address or label) failed.
    pub worker: String,
    /// What went wrong, rendered.
    pub message: String,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {}: {}", self.worker, self.message)
    }
}

impl std::error::Error for BackendError {}

/// Which backend a sweep runs on (`--backend local|remote`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// In-process thread pool (the default).
    #[default]
    Local,
    /// HTTP submit/poll against `wormsim-worker` processes.
    Remote {
        /// Worker addresses (`HOST:PORT`, from repeated `--worker` flags).
        workers: Vec<String>,
    },
}

/// Where sweep points execute. Submit up to [`capacity`] jobs, poll their
/// handles until each reports [`PointStatus::Done`] or
/// [`PointStatus::Lost`].
///
/// [`capacity`]: WorkerBackend::capacity
pub trait WorkerBackend {
    /// Queues a job; returns a handle to poll.
    ///
    /// # Errors
    ///
    /// When no executor with a free slot accepted the job. Point-level
    /// failures are never `Err` here — they surface through
    /// [`PointStatus::Done`].
    fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError>;

    /// Reports the current status of a submitted job. `Done` and `Lost`
    /// release the handle: polling it again is unspecified.
    fn poll(&mut self, handle: WorkHandle) -> PointStatus;

    /// How many jobs the backend can usefully hold in flight. The
    /// supervisor keeps at most this many submitted-but-unfinished jobs.
    fn capacity(&self) -> usize;

    /// Best-effort cancellation broadcast: make in-flight points stop at
    /// their next boundary. Idempotent.
    fn cancel(&mut self);

    /// How long the orchestrator should sleep between poll rounds that
    /// made no progress.
    fn poll_interval(&self) -> Duration {
        Duration::from_millis(2)
    }

    /// Declares a pending job's executor lost (its heartbeat froze past
    /// the point deadline) and releases the handle. A remote pool stops
    /// using that worker; the local pool cannot interrupt a hung thread,
    /// so it only forgets the job.
    fn write_off(&mut self, handle: WorkHandle) {
        self.forget(handle);
    }

    /// Abandons a job: the backend releases the handle and discards any
    /// result it may still produce. Used to drop the losing copies of a
    /// hedged point.
    fn forget(&mut self, handle: WorkHandle);
}

/// Renders a worker panic into a placeholder [`RunResult`] carrying
/// [`RunOutcome::Harness`], so the surrounding sweep records the failure
/// and keeps running instead of poisoning the pool.
fn panic_result(experiment: &Experiment, payload: &(dyn std::any::Any + Send)) -> RunResult {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    RunResult {
        algorithm: experiment.algorithm_kind().name().to_owned(),
        traffic: experiment.traffic_config().to_string(),
        offered_load: experiment.offered_load_value(),
        injection_rate: 0.0,
        latency: ConfidenceInterval::new(0.0, f64::INFINITY),
        latency_percentiles: [0, 0, 0],
        latency_max: 0,
        class_latencies: Vec::new(),
        achieved_utilization: 0.0,
        delivery_rate: 0.0,
        acceptance_rate: 0.0,
        refused_fraction: 0.0,
        messages_measured: 0,
        convergence: ConvergenceStatus::NeedMoreSamples,
        samples: 0,
        cycles_simulated: 0,
        wall_seconds: 0.0,
        cycles_per_sec: 0.0,
        outcome: RunOutcome::Harness(PanicInfo { message }),
        dropped_events: 0,
        deadlock: None,
        livelock: None,
        triage: None,
    }
}

/// Runs one dispatch, once, with panic isolation — the executor step both
/// backends share. A panic becomes a [`RunOutcome::Harness`] result.
pub(crate) fn run_isolated(job: &PointJob) -> Result<RunResult, ExperimentError> {
    catch_unwind(AssertUnwindSafe(|| {
        if job.inject_panic {
            panic!("injected harness panic at point {}", job.index);
        }
        job.experiment.run()
    }))
    .unwrap_or_else(|payload| Ok(panic_result(&job.experiment, payload.as_ref())))
}

type Finished = Result<RunResult, ExperimentError>;

struct LocalState {
    queue: VecDeque<(u64, PointJob)>,
    done: HashMap<u64, Finished>,
    quit: bool,
}

struct Shared {
    state: Mutex<LocalState>,
    ready: Condvar,
}

/// The in-process backend: a fixed pool of OS threads draining a shared
/// job queue. Jobs run with the sweep's shutdown token attached, so
/// SIGINT interrupts in-flight points at their next sampling boundary.
pub struct LocalThreadBackend {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shutdown: CancelToken,
    next_handle: u64,
}

impl LocalThreadBackend {
    /// Spawns a pool of `threads` workers (at least one) wired to the
    /// sweep's `shutdown` token.
    pub fn new(threads: usize, shutdown: CancelToken) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(LocalState {
                queue: VecDeque::new(),
                done: HashMap::new(),
                quit: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut state = shared.state.lock().expect("no poisoned backend state");
                        loop {
                            if state.quit {
                                return;
                            }
                            if let Some(job) = state.queue.pop_front() {
                                break job;
                            }
                            state = shared.ready.wait(state).expect("no poisoned backend state");
                        }
                    };
                    let (id, job) = job;
                    let finished = run_isolated(&job);
                    shared
                        .state
                        .lock()
                        .expect("no poisoned backend state")
                        .done
                        .insert(id, finished);
                })
            })
            .collect();
        LocalThreadBackend {
            shared,
            workers,
            shutdown,
            next_handle: 0,
        }
    }
}

impl WorkerBackend for LocalThreadBackend {
    fn submit(&mut self, mut job: PointJob) -> Result<WorkHandle, BackendError> {
        // Attach the sweep's shutdown token so an in-flight run stops at
        // its next sampling boundary; an uncancelled token never perturbs
        // the simulation.
        job.experiment = job.experiment.cancel_token(self.shutdown.clone());
        let id = self.next_handle;
        self.next_handle += 1;
        self.shared
            .state
            .lock()
            .expect("no poisoned backend state")
            .queue
            .push_back((id, job));
        self.shared.ready.notify_one();
        Ok(WorkHandle(id))
    }

    fn poll(&mut self, handle: WorkHandle) -> PointStatus {
        let mut state = self.shared.state.lock().expect("no poisoned backend state");
        match state.done.remove(&handle.0) {
            Some(result) => PointStatus::Done(result),
            None => PointStatus::Pending { heartbeat: None },
        }
    }

    fn capacity(&self) -> usize {
        self.workers.len()
    }

    fn cancel(&mut self) {
        // The shutdown token is shared with every job; tripping it (the
        // orchestrator already has) is the whole mechanism.
        self.shutdown.cancel();
    }

    fn forget(&mut self, handle: WorkHandle) {
        // Drop the job if still queued and discard any finished result; a
        // job already running simply completes into the void.
        let mut state = self.shared.state.lock().expect("no poisoned backend state");
        state.queue.retain(|(id, _)| *id != handle.0);
        state.done.remove(&handle.0);
    }
}

impl Drop for LocalThreadBackend {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("no poisoned backend state")
            .quit = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use wormsim::topology::Topology;
    use wormsim::AlgorithmKind;

    fn tiny_job(index: usize) -> PointJob {
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .offered_load(0.1)
            .quick()
            .seed(5);
        PointJob {
            experiment,
            index,
            inject_panic: false,
        }
    }

    fn wait_done(backend: &mut LocalThreadBackend, handle: WorkHandle) -> Finished {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "backend hung");
            match backend.poll(handle) {
                PointStatus::Pending { heartbeat } => {
                    assert_eq!(heartbeat, None, "the local pool reports no heartbeats");
                    std::thread::sleep(Duration::from_millis(2));
                }
                PointStatus::Done(result) => return result,
                PointStatus::Lost(cause) => panic!("the local pool never loses a job: {cause}"),
            }
        }
    }

    #[test]
    fn local_backend_runs_jobs_to_done() {
        let mut backend = LocalThreadBackend::new(2, CancelToken::new());
        assert_eq!(backend.capacity(), 2);
        let handles: Vec<WorkHandle> = (0..3)
            .map(|i| backend.submit(tiny_job(i)).unwrap())
            .collect();
        for handle in handles {
            let r = wait_done(&mut backend, handle).expect("valid config");
            assert!(r.outcome.has_statistics());
        }
    }

    #[test]
    fn injected_panic_is_contained_and_run_once() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let mut job = tiny_job(7);
        job.inject_panic = true;
        let handle = backend.submit(job).unwrap();
        let r = wait_done(&mut backend, handle).expect("panic becomes a Harness result");
        let RunOutcome::Harness(info) = &r.outcome else {
            panic!("expected Harness outcome, got {:?}", r.outcome);
        };
        assert!(info.message.contains("point 7"), "got: {}", info.message);
        // The executor does not retry: the handle is consumed, and the
        // pool is free for the next job at once.
        let next = backend.submit(tiny_job(8)).unwrap();
        assert!(wait_done(&mut backend, next).is_ok());
    }
}
