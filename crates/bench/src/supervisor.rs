//! Sweep supervision: the one place that decides whether a point runs
//! again, on top of any [`WorkerBackend`].
//!
//! Backends are transports that run each dispatch once and report
//! `Pending`, `Done` or `Lost`. The supervisor owns the submission queue
//! and every policy a long sweep needs:
//!
//! * **Transient retries.** A transient outcome (budget trip, harness
//!   panic) runs again, with the identical seed, up to `--retries` extra
//!   times. The delay before the next attempt is [`backoff_ms`],
//!   deterministic in (point hash, attempt) and held as a not-before
//!   instant on the point, not as a sleeping executor thread.
//! * **Stall triage.** A stall triaged `confirmed_unsafe` is a validated
//!   circular wait and never runs again. A `budget_artifact` stall runs
//!   again when the experiment has a cycle budget to raise, and the last
//!   attempt of that chain gets [`RAISED_BUDGET_FACTOR`]× the budget. The
//!   decision is journaled as the point's `retry_decision`.
//! * **Lost executors.** A dispatch the backend reports lost (a dead or
//!   garbling worker), or a run a worker cancelled, returns its point to
//!   the front of the queue.
//! * **Hung workers.** A worker whose simulation thread is stuck
//!   (livelocked host, SIGSTOP, a chaos stall) keeps answering `pending`.
//!   A dispatch whose heartbeat has been frozen past `--point-deadline`
//!   is written off ([`WorkerBackend::write_off`]) and counts as lost.
//! * **Stragglers.** With `--hedge-after`, the oldest in-flight point is
//!   dispatched a second time to spare capacity. First completion wins;
//!   the loser is forgotten before it can reach the committer, so hedging
//!   never perturbs the journal bytes.
//! * **Poison points.** A point that has lost `--quarantine-after`
//!   dispatches stops being re-dispatched: the sweep completes without it
//!   and reports a [`QuarantineRecord`].
//!
//! Once the sweep is shutting down (SIGINT or a fail-fast abort) nothing
//! is dispatched again: a point that would run again is dropped, its slot
//! left empty so a resume re-runs it. Every other decision depends only
//! on the point and its results, so the journal records the same attempt
//! count and `retry_decision` on every backend. [`run_sweep`] feeds the
//! supervisor the points to run and consumes its [`Event`]s.
//!
//! [`run_sweep`]: crate::run_sweep

use crate::backend::{BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use crate::SweepOptions;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use wormsim::verify::TriageVerdict;
use wormsim::{Experiment, ExperimentError, RunOutcome, RunResult};

/// Budget multiplier for the final attempt of a `budget_artifact` retry
/// chain: the re-run gets this many times the configured cycle budget, so
/// a stall the triage blamed on a tight budget has real headroom to
/// finish instead of deterministically reproducing itself.
pub(crate) const RAISED_BUDGET_FACTOR: u64 = 4;

/// Retry decision recorded when a stalled point was triaged
/// `confirmed_unsafe`: the stall is a validated circular wait, retrying
/// is deterministic futility, the result journals as-is.
pub(crate) const DECISION_CONFIRMED_UNSAFE: &str = "confirmed_unsafe_no_retry";
/// Retry decision recorded when a `budget_artifact` stall triggered a
/// retry (the final attempt ran with [`RAISED_BUDGET_FACTOR`]× budget).
pub(crate) const DECISION_BUDGET_RETRIED: &str = "budget_artifact_retried";
/// Retry decision recorded when a `budget_artifact` stall could not be
/// retried: either the retry budget was already spent or the experiment
/// has no cycle budget to raise (re-running the identical configuration
/// would reproduce the identical stall).
pub(crate) const DECISION_BUDGET_NO_RETRY: &str = "budget_artifact_not_retried";

/// Seed-jittered backoff before retry `attempt` of the point (or worker)
/// keyed `key`: exponential base so repeated transients spread out, plus
/// a per-key jitter so a thundering herd of failed points does not retry
/// in lockstep. Deterministic in (key, attempt) — no wall clock, no
/// global RNG.
pub(crate) fn backoff_ms(key: &str, attempt: u64) -> u64 {
    let digest = wormsim::observe::fnv1a_hex(&format!("{key}:retry:{attempt}"));
    let jitter = u64::from_str_radix(&digest[..4], 16).unwrap_or(0) % 64;
    (25u64 << attempt.min(5)) + jitter
}

/// The stall triage of a run result, when the run stalled at all.
fn stall_verdict(result: &Result<RunResult, ExperimentError>) -> Option<TriageVerdict> {
    match result {
        Ok(r) if matches!(r.outcome, RunOutcome::Deadlocked | RunOutcome::LiveLocked) => {
            r.triage.as_ref().map(|t| t.verdict)
        }
        _ => None,
    }
}

/// What the supervisor did during a sweep — surfaced in the run manifest
/// so injected faults are visible, not silently absorbed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers written off for a frozen simulation heartbeat.
    pub workers_written_off: u64,
    /// Points re-dispatched to idle capacity as straggler hedges.
    pub points_hedged: u64,
    /// Hedged duplicate dispatches discarded after another copy won.
    pub duplicates_discarded: u64,
}

impl SupervisionReport {
    /// Whether anything noteworthy happened.
    pub fn is_empty(&self) -> bool {
        *self == SupervisionReport::default()
    }
}

/// One quarantined point: why the sweep completed without it.
#[derive(Clone, Debug)]
pub struct QuarantineRecord {
    /// Position in the sweep's deterministic schedule.
    pub index: usize,
    /// The point's configuration digest (journal key).
    pub point_hash: String,
    /// Dispatches the point lost before quarantine.
    pub dispatches: u64,
    /// The infrastructure error behind the last lost dispatch.
    pub last_error: String,
}

/// A supervised point's outcome, consumed by the sweep loop.
pub(crate) enum Event {
    /// The point finished (possibly after retries, re-dispatch or a
    /// winning hedge).
    Done {
        index: usize,
        result: Result<RunResult, ExperimentError>,
        attempts: u64,
        retry_decision: Option<String>,
    },
    /// The point lost too many dispatches and was written off.
    Quarantined(QuarantineRecord),
}

struct Dispatch {
    handle: WorkHandle,
    /// Last simulation heartbeat observed from this dispatch.
    beat: Option<u64>,
    /// When the heartbeat last advanced (or the dispatch started).
    advanced: Instant,
}

/// A point taken off the queue and not yet resolved.
struct Flight {
    index: usize,
    /// The attempt its dispatches run (1 = first try).
    attempt: u64,
    /// Whether a `budget_artifact` stall engaged the raised-budget chain.
    budget_retry: bool,
    /// Live dispatches: one, two while hedged, none while the point waits
    /// to be (re-)dispatched.
    dispatches: Vec<Dispatch>,
    /// An undispatched point waits until then (a transient retry's
    /// backoff).
    not_before: Instant,
    /// When the point was last dispatched from empty (its hedging age).
    started: Instant,
    hedged: bool,
    /// Dispatches lost so far, and the cause of the last loss.
    lost: u64,
    last_error: String,
}

/// Runs a sweep's points on a backend and applies every re-run policy.
pub(crate) struct Supervisor<'a> {
    experiments: &'a [Experiment],
    hashes: &'a [String],
    options: &'a SweepOptions,
    /// Fresh points, in schedule order.
    queue: VecDeque<usize>,
    flights: Vec<Flight>,
    /// Set by a fail-fast abort; shutdown is read off the options.
    halted: bool,
    pub(crate) report: SupervisionReport,
}

impl<'a> Supervisor<'a> {
    /// Supervises the points `queue` (indices into `experiments`, whose
    /// digests are `hashes`) under the retry, deadline, hedge and
    /// quarantine settings of `options`.
    pub(crate) fn new(
        experiments: &'a [Experiment],
        hashes: &'a [String],
        options: &'a SweepOptions,
        queue: VecDeque<usize>,
    ) -> Supervisor<'a> {
        Supervisor {
            experiments,
            hashes,
            options,
            queue,
            flights: Vec::new(),
            halted: false,
            report: SupervisionReport::default(),
        }
    }

    /// In-flight dispatch count (hedged points count twice): the number
    /// of backend slots this supervisor is occupying.
    fn dispatched(&self) -> usize {
        self.flights.iter().map(|f| f.dispatches.len()).sum()
    }

    /// Whether nothing is left to run or to wait for.
    pub(crate) fn is_idle(&self) -> bool {
        self.flights.is_empty() && (self.queue.is_empty() || self.halted())
    }

    /// Stops dispatching (a fail-fast abort): in-flight dispatches are
    /// still polled to the end, but no point runs again.
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    fn halted(&self) -> bool {
        self.halted || self.options.shutdown.is_cancelled()
    }

    fn max_attempts(&self) -> u64 {
        u64::from(self.options.retries) + 1
    }

    /// One supervision round: poll every dispatch, settle finished and
    /// lost points, fill free capacity, and hedge the oldest straggler.
    /// Returns the points that resolved this round.
    ///
    /// # Errors
    ///
    /// Only when a point cannot be dispatched because the backend has no
    /// executor left at all.
    pub(crate) fn tick(
        &mut self,
        backend: &mut dyn WorkerBackend,
    ) -> Result<Vec<Event>, BackendError> {
        let now = Instant::now();
        if self.halted() {
            // Nothing runs again: waiting points keep empty slots for a
            // resume.
            self.flights.retain(|flight| !flight.dispatches.is_empty());
        }
        let mut events = Vec::new();
        let mut f = 0;
        while f < self.flights.len() {
            if self.flights[f].dispatches.is_empty() {
                f += 1;
                continue;
            }
            let resolved = match self.poll_flight(f, backend, now) {
                Some(result) => self.settle(f, result, now, &mut events),
                None if self.flights[f].dispatches.is_empty() => self.requeue(f, now, &mut events),
                None => false,
            };
            if resolved {
                self.flights.swap_remove(f);
            } else {
                f += 1;
            }
        }
        self.refill(backend, now)?;
        self.maybe_hedge(backend, now);
        Ok(events)
    }

    /// Polls every dispatch of flight `f`, dropping the lost ones (a
    /// frozen heartbeat past the deadline gets its worker written off
    /// first). Returns the first finished result; the other copies of a
    /// hedged point are forgotten.
    fn poll_flight(
        &mut self,
        f: usize,
        backend: &mut dyn WorkerBackend,
        now: Instant,
    ) -> Option<Result<RunResult, ExperimentError>> {
        let deadline = self
            .options
            .point_deadline_secs
            .map(Duration::from_secs_f64);
        let flight = &mut self.flights[f];
        let mut d = 0;
        while d < flight.dispatches.len() {
            let handle = flight.dispatches[d].handle;
            let cause = match backend.poll(handle) {
                PointStatus::Done(Ok(r)) if r.outcome == RunOutcome::Interrupted => {
                    // A cancelled run (shutdown, a draining worker) has
                    // partial statistics, which are not data.
                    "the run was interrupted on its executor".to_owned()
                }
                PointStatus::Done(result) => {
                    flight.dispatches.swap_remove(d);
                    for loser in flight.dispatches.drain(..) {
                        // First completion wins: the other copy's
                        // (identical) result is discarded before the
                        // committer ever sees it.
                        backend.forget(loser.handle);
                        self.report.duplicates_discarded += 1;
                    }
                    return Some(result);
                }
                PointStatus::Lost(cause) => cause.to_string(),
                PointStatus::Pending { heartbeat } => {
                    let dispatch = &mut flight.dispatches[d];
                    if heartbeat.is_some() && heartbeat != dispatch.beat {
                        dispatch.beat = heartbeat;
                        dispatch.advanced = now;
                    }
                    let frozen = dispatch.beat.is_some()
                        && deadline
                            .is_some_and(|limit| now.duration_since(dispatch.advanced) > limit);
                    if !frozen {
                        d += 1;
                        continue;
                    }
                    // The socket answers but the simulation has not
                    // advanced: a hung worker.
                    backend.write_off(handle);
                    self.report.workers_written_off += 1;
                    "written off by the supervisor: simulation heartbeat frozen".to_owned()
                }
            };
            flight.dispatches.swap_remove(d);
            flight.lost += 1;
            flight.last_error = cause;
        }
        None
    }

    /// Decides what a finished result means: another attempt after a
    /// backoff, or the point's final outcome and retry decision. Returns
    /// whether flight `f` is resolved (after shutdown, without an event).
    fn settle(
        &mut self,
        f: usize,
        result: Result<RunResult, ExperimentError>,
        now: Instant,
        events: &mut Vec<Event>,
    ) -> bool {
        let max_attempts = self.max_attempts();
        let halted = self.halted();
        let flight = &mut self.flights[f];
        let raisable = self.experiments[flight.index]
            .cycle_budget_value()
            .is_some();
        let stall = stall_verdict(&result);
        // Only a budget-artifact stall with a budget to raise is worth a
        // deterministic re-run; confirmed-unsafe stalls never retry.
        let stall_retryable = stall == Some(TriageVerdict::BudgetArtifact) && raisable;
        let transient = matches!(&result, Ok(r) if r.outcome.is_transient());
        if (transient || stall_retryable) && flight.attempt < max_attempts {
            if !halted {
                flight.budget_retry |= stall_retryable;
                let backoff = backoff_ms(&self.hashes[flight.index], flight.attempt);
                flight.not_before = now + Duration::from_millis(backoff);
                flight.attempt += 1;
            }
            return halted;
        }
        let retry_decision = match stall {
            Some(TriageVerdict::ConfirmedUnsafe) => Some(DECISION_CONFIRMED_UNSAFE),
            Some(TriageVerdict::BudgetArtifact) if !flight.budget_retry => {
                Some(DECISION_BUDGET_NO_RETRY)
            }
            _ if flight.budget_retry => Some(DECISION_BUDGET_RETRIED),
            _ => None,
        };
        events.push(Event::Done {
            index: flight.index,
            result,
            attempts: flight.attempt,
            retry_decision: retry_decision.map(str::to_owned),
        });
        true
    }

    /// A flight that lost its last dispatch goes back to the front of the
    /// queue, unless it has lost `quarantine_after` dispatches already.
    /// Returns whether flight `f` is resolved.
    fn requeue(&mut self, f: usize, now: Instant, events: &mut Vec<Event>) -> bool {
        if self.halted() {
            return true;
        }
        let limit = self.options.quarantine_after;
        let flight = &mut self.flights[f];
        if limit > 0 && flight.lost >= limit {
            events.push(Event::Quarantined(QuarantineRecord {
                index: flight.index,
                point_hash: self.hashes[flight.index].clone(),
                dispatches: flight.lost,
                last_error: flight.last_error.clone(),
            }));
            return true;
        }
        eprintln!(
            "\nre-dispatching point {} after a lost dispatch: {}",
            flight.index, flight.last_error
        );
        flight.not_before = now;
        false
    }

    /// Dispatches points while the backend has free capacity: waiting
    /// points whose backoff has passed first (they are the front of the
    /// queue), then fresh points in schedule order.
    fn refill(
        &mut self,
        backend: &mut dyn WorkerBackend,
        now: Instant,
    ) -> Result<(), BackendError> {
        if self.halted() {
            return Ok(());
        }
        while self.dispatched() < backend.capacity().max(1) {
            let waiting = self
                .flights
                .iter()
                .position(|flight| flight.dispatches.is_empty() && flight.not_before <= now);
            let f = match waiting {
                Some(f) => f,
                None => {
                    let Some(index) = self.queue.pop_front() else {
                        break;
                    };
                    self.flights.push(Flight {
                        index,
                        attempt: 1,
                        budget_retry: false,
                        dispatches: Vec::new(),
                        not_before: now,
                        started: now,
                        hedged: false,
                        lost: 0,
                        last_error: String::new(),
                    });
                    self.flights.len() - 1
                }
            };
            if let Err(err) = self.dispatch(f, backend, now) {
                // The pool shrank under us (a worker died mid-submit): the
                // point waits at the front, unless no executor is left.
                if backend.capacity() == 0 {
                    return Err(err);
                }
                break;
            }
        }
        Ok(())
    }

    /// Submits flight `f`'s current attempt, stamped with its attempt
    /// number, the resumed journal, and any raised budget.
    fn dispatch(
        &mut self,
        f: usize,
        backend: &mut dyn WorkerBackend,
        now: Instant,
    ) -> Result<(), BackendError> {
        let final_attempt = self.flights[f].attempt == self.max_attempts();
        let flight = &mut self.flights[f];
        let base = &self.experiments[flight.index];
        let mut experiment = base
            .clone()
            .attempt(flight.attempt as u32)
            .resumed_from(self.options.resume.clone());
        if flight.budget_retry && final_attempt {
            if let Some(budget) = base.cycle_budget_value() {
                experiment =
                    experiment.cycle_budget(Some(budget.saturating_mul(RAISED_BUDGET_FACTOR)));
            }
        }
        let handle = backend.submit(PointJob {
            experiment,
            index: flight.index,
            inject_panic: self.options.inject_panic == Some(flight.index),
        })?;
        if flight.dispatches.is_empty() {
            flight.started = now;
        }
        flight.dispatches.push(Dispatch {
            handle,
            beat: None,
            advanced: now,
        });
        Ok(())
    }

    /// Dispatches the oldest straggler a second time to idle capacity, at
    /// most one hedge per point per sweep.
    fn maybe_hedge(&mut self, backend: &mut dyn WorkerBackend, now: Instant) {
        let Some(hedge_after) = self.options.hedge_after_secs.map(Duration::from_secs_f64) else {
            return;
        };
        if self.halted() || backend.capacity() <= self.dispatched() {
            return;
        }
        let Some(f) = (0..self.flights.len())
            .filter(|&f| !self.flights[f].hedged && !self.flights[f].dispatches.is_empty())
            .min_by_key(|&f| self.flights[f].started)
        else {
            return;
        };
        if now.duration_since(self.flights[f].started) <= hedge_after {
            return;
        }
        // A submit failure here means the spare capacity evaporated
        // between the check and the dispatch (a worker died). The original
        // dispatch is still live, so a failed hedge is not an error.
        if self.dispatch(f, backend, now).is_ok() {
            self.flights[f].hedged = true;
            self.report.points_hedged += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wormsim::topology::Topology;
    use wormsim::verify::TriageReport;
    use wormsim::AlgorithmKind;

    /// A scriptable backend: each dispatch is resolved by poking the
    /// mock, so the tests control completion order, heartbeats, and
    /// losses exactly. Handles are positions in `submitted`.
    #[derive(Default)]
    struct MockBackend {
        capacity: usize,
        submitted: Vec<PointJob>,
        finished: HashMap<u64, PointStatus>,
        beats: HashMap<u64, u64>,
        written_off: Vec<u64>,
        forgotten: Vec<u64>,
    }

    impl MockBackend {
        fn with_capacity(capacity: usize) -> MockBackend {
            MockBackend {
                capacity,
                ..MockBackend::default()
            }
        }

        fn finish(&mut self, handle: u64, result: RunResult) {
            self.finished.insert(handle, PointStatus::Done(Ok(result)));
        }

        fn lose(&mut self, handle: u64, why: &str) {
            let cause = BackendError {
                worker: "w".into(),
                message: why.into(),
            };
            self.finished.insert(handle, PointStatus::Lost(cause));
        }
    }

    impl WorkerBackend for MockBackend {
        fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError> {
            self.submitted.push(job);
            Ok(WorkHandle(self.submitted.len() as u64 - 1))
        }
        fn poll(&mut self, handle: WorkHandle) -> PointStatus {
            let heartbeat = self.beats.get(&handle.0).copied();
            self.finished
                .remove(&handle.0)
                .unwrap_or(PointStatus::Pending { heartbeat })
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn cancel(&mut self) {}
        fn write_off(&mut self, handle: WorkHandle) {
            self.written_off.push(handle.0);
        }
        fn forget(&mut self, handle: WorkHandle) {
            self.forgotten.push(handle.0);
        }
    }

    fn experiment(index: usize) -> Experiment {
        Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .seed(index as u64 + 1)
    }

    /// A sweep of `points` tiny experiments, all queued.
    struct Sweep {
        experiments: Vec<Experiment>,
        hashes: Vec<String>,
        options: SweepOptions,
    }

    impl Sweep {
        fn new(points: usize, options: SweepOptions) -> Sweep {
            let experiments: Vec<Experiment> = (0..points).map(experiment).collect();
            let hashes = experiments.iter().map(Experiment::point_hash).collect();
            Sweep {
                experiments,
                hashes,
                options,
            }
        }

        fn supervisor(&self) -> Supervisor<'_> {
            let queue = (0..self.experiments.len()).collect();
            Supervisor::new(&self.experiments, &self.hashes, &self.options, queue)
        }
    }

    fn result() -> RunResult {
        experiment(0).run().expect("tiny run")
    }

    fn with_outcome(outcome: RunOutcome, verdict: Option<TriageVerdict>) -> RunResult {
        let mut r = result();
        r.outcome = outcome;
        r.triage = verdict.map(|verdict| TriageReport {
            verdict,
            edges: 0,
            cycle_messages: Vec::new(),
            cycle_channels: Vec::new(),
        });
        r
    }

    fn attempt_of(job: &PointJob) -> u32 {
        let debug = format!("{:?}", job.experiment);
        let tail = &debug[debug.find("attempt: ").expect("attempt field") + 9..];
        tail[..tail.find(',').unwrap()].parse().unwrap()
    }

    fn tick(supervisor: &mut Supervisor<'_>, backend: &mut MockBackend) -> Vec<Event> {
        supervisor
            .tick(backend)
            .expect("mock never runs out of capacity")
    }

    #[test]
    fn transient_outcome_is_resubmitted_until_retries_are_spent() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                retries: 2,
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(1);
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(backend.submitted.len(), 1);
        for attempt in 1..=2u32 {
            backend.finish(
                u64::from(attempt) - 1,
                with_outcome(RunOutcome::BudgetExceeded, None),
            );
            let waited = Instant::now();
            assert!(tick(&mut supervisor, &mut backend).is_empty());
            // The free slot is not refilled before the backoff passes.
            assert_eq!(backend.submitted.len(), attempt as usize);
            while backend.submitted.len() == attempt as usize {
                std::thread::sleep(Duration::from_millis(1));
                assert!(tick(&mut supervisor, &mut backend).is_empty());
            }
            let backoff = backoff_ms(&sweep.hashes[0], u64::from(attempt));
            assert!(waited.elapsed() >= Duration::from_millis(backoff));
            assert_eq!(
                attempt_of(&backend.submitted[attempt as usize]),
                attempt + 1
            );
        }
        backend.finish(2, with_outcome(RunOutcome::BudgetExceeded, None));
        let events = tick(&mut supervisor, &mut backend);
        let [Event::Done {
            attempts,
            retry_decision,
            ..
        }] = events.as_slice()
        else {
            panic!("the exhausted point must resolve once");
        };
        assert_eq!(*attempts, 3, "1 try + 2 retries");
        assert_eq!(*retry_decision, None);
        assert_eq!(backend.submitted.len(), 3);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn budget_artifact_chain_ends_with_a_raised_budget() {
        let mut sweep = Sweep::new(1, SweepOptions::default());
        sweep.experiments[0] = experiment(0).cycle_budget(Some(5_000));
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(1);
        tick(&mut supervisor, &mut backend);
        let stall = with_outcome(RunOutcome::Deadlocked, Some(TriageVerdict::BudgetArtifact));
        backend.finish(0, stall);
        while backend.submitted.len() == 1 {
            assert!(tick(&mut supervisor, &mut backend).is_empty());
            std::thread::sleep(Duration::from_millis(1));
        }
        let last = &backend.submitted[1].experiment;
        assert_eq!(
            last.cycle_budget_value(),
            Some(5_000 * RAISED_BUDGET_FACTOR)
        );
        backend.finish(1, result());
        let events = tick(&mut supervisor, &mut backend);
        let [Event::Done {
            attempts,
            retry_decision,
            ..
        }] = events.as_slice()
        else {
            panic!("the re-run must resolve the point");
        };
        assert_eq!(*attempts, 2);
        assert_eq!(retry_decision.as_deref(), Some(DECISION_BUDGET_RETRIED));
    }

    #[test]
    fn confirmed_unsafe_stall_is_never_resubmitted() {
        let mut sweep = Sweep::new(
            2,
            SweepOptions {
                retries: 3,
                ..SweepOptions::default()
            },
        );
        sweep.experiments[0] = experiment(0).cycle_budget(Some(5_000));
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(2);
        tick(&mut supervisor, &mut backend);
        let unsafe_stall =
            with_outcome(RunOutcome::Deadlocked, Some(TriageVerdict::ConfirmedUnsafe));
        backend.finish(0, unsafe_stall);
        // Point 1 has no budget to raise, so its budget-artifact stall is
        // final too.
        let artifact = with_outcome(RunOutcome::LiveLocked, Some(TriageVerdict::BudgetArtifact));
        backend.finish(1, artifact);
        let mut decisions: Vec<(usize, u64, Option<String>)> = tick(&mut supervisor, &mut backend)
            .into_iter()
            .map(|event| match event {
                Event::Done {
                    index,
                    attempts,
                    retry_decision,
                    ..
                } => (index, attempts, retry_decision),
                Event::Quarantined(_) => panic!("nothing was lost"),
            })
            .collect();
        decisions.sort();
        assert_eq!(
            decisions,
            vec![
                (0, 1, Some(DECISION_CONFIRMED_UNSAFE.to_owned())),
                (1, 1, Some(DECISION_BUDGET_NO_RETRY.to_owned())),
            ]
        );
        assert_eq!(backend.submitted.len(), 2, "no stall was resubmitted");
        assert!(supervisor.is_idle());
    }

    #[test]
    fn nothing_is_resubmitted_after_shutdown() {
        let sweep = Sweep::new(3, SweepOptions::default());
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(2);
        tick(&mut supervisor, &mut backend);
        assert_eq!(backend.submitted.len(), 2);
        sweep.options.shutdown.cancel();
        // A transient result that would retry, and a lost dispatch that
        // would re-queue: both are dropped, and point 2 never starts.
        backend.finish(0, with_outcome(RunOutcome::BudgetExceeded, None));
        backend.lose(1, "worker died");
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(backend.submitted.len(), 2);
        assert!(
            supervisor.is_idle(),
            "the empty slots are left for a resume"
        );
    }

    #[test]
    fn lost_dispatch_is_requeued_at_the_front() {
        let sweep = Sweep::new(2, SweepOptions::default());
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(1);
        tick(&mut supervisor, &mut backend);
        backend.lose(0, "worker a lost");
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        let indices: Vec<usize> = backend.submitted.iter().map(|job| job.index).collect();
        assert_eq!(indices, vec![0, 0], "the lost point goes before point 1");
        assert_eq!(
            attempt_of(&backend.submitted[1]),
            1,
            "a loss is not an attempt"
        );
        backend.finish(1, result());
        let events = tick(&mut supervisor, &mut backend);
        assert!(matches!(
            events.as_slice(),
            [Event::Done {
                index: 0,
                attempts: 1,
                ..
            }]
        ));
        assert_eq!(backend.submitted.last().unwrap().index, 1);
    }

    #[test]
    fn quarantine_trips_once_dispatches_exceed_the_budget() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                quarantine_after: 3,
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(4);
        tick(&mut supervisor, &mut backend);
        // Below the budget: still re-dispatching.
        for (handle, worker) in ["a", "b"].iter().enumerate() {
            backend.lose(handle as u64, &format!("worker {worker} lost"));
            assert!(tick(&mut supervisor, &mut backend).is_empty());
            assert_eq!(backend.submitted.len(), handle + 2);
        }
        // The third loss reaches it: quarantined with the last error, and
        // never dispatched again.
        backend.lose(2, "worker c lost");
        let events = tick(&mut supervisor, &mut backend);
        let [Event::Quarantined(record)] = events.as_slice() else {
            panic!("expected exactly one quarantine event");
        };
        assert_eq!(record.index, 0);
        assert_eq!(record.point_hash, sweep.hashes[0]);
        assert_eq!(record.dispatches, 3);
        assert_eq!(record.last_error, "worker w: worker c lost");
        assert_eq!(backend.submitted.len(), 3);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn quarantine_disabled_never_trips() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                quarantine_after: 0,
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(4);
        tick(&mut supervisor, &mut backend);
        for handle in 0..10 {
            backend.lose(handle, "carnage");
            assert!(tick(&mut supervisor, &mut backend).is_empty());
        }
        assert_eq!(backend.submitted.len(), 11);
        assert_eq!(supervisor.dispatched(), 1);
    }

    #[test]
    fn losing_one_hedged_copy_leaves_the_other_running() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                hedge_after_secs: Some(0.0),
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(2);
        tick(&mut supervisor, &mut backend);
        std::thread::sleep(Duration::from_millis(2));
        tick(&mut supervisor, &mut backend);
        assert_eq!(backend.submitted.len(), 2, "the straggler was hedged");
        backend.lose(0, "worker a lost");
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(backend.submitted.len(), 2, "the surviving copy carries on");
        backend.finish(1, result());
        let events = tick(&mut supervisor, &mut backend);
        assert!(matches!(events.as_slice(), [Event::Done { index: 0, .. }]));
        assert!(backend.forgotten.is_empty());
        assert!(supervisor.is_idle());
    }

    #[test]
    fn hedged_duplicate_is_discarded_when_the_original_wins() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                hedge_after_secs: Some(0.0),
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(2);
        tick(&mut supervisor, &mut backend);
        // The point is instantly a straggler; a tick hedges it into the
        // spare slot.
        std::thread::sleep(Duration::from_millis(2));
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(backend.submitted.len(), 2);
        assert_eq!(supervisor.dispatched(), 2);
        assert_eq!(supervisor.report.points_hedged, 1);
        // No third copy: one hedge per point.
        std::thread::sleep(Duration::from_millis(2));
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(backend.submitted.len(), 2);
        // The original finishes first; the hedge must be forgotten, and
        // exactly one Done event reaches the committer.
        backend.finish(0, result());
        backend.finish(1, result());
        let events = tick(&mut supervisor, &mut backend);
        assert!(matches!(events.as_slice(), [Event::Done { index: 0, .. }]));
        assert_eq!(backend.forgotten, vec![1], "the losing copy is discarded");
        assert_eq!(supervisor.report.duplicates_discarded, 1);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn hedging_needs_spare_capacity() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                hedge_after_secs: Some(0.0),
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(1);
        tick(&mut supervisor, &mut backend);
        std::thread::sleep(Duration::from_millis(2));
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert_eq!(backend.submitted.len(), 1, "no idle slot, no hedge");
        assert_eq!(supervisor.report.points_hedged, 0);
    }

    #[test]
    fn frozen_heartbeat_writes_the_worker_off_and_progress_resets_it() {
        let sweep = Sweep::new(
            1,
            SweepOptions {
                point_deadline_secs: Some(0.0),
                quarantine_after: 0,
                ..SweepOptions::default()
            },
        );
        let mut supervisor = sweep.supervisor();
        let mut backend = MockBackend::with_capacity(2);
        tick(&mut supervisor, &mut backend);
        // No heartbeat reported yet: the deadline must not fire (a
        // backend that cannot distinguish hung from slow stays silent).
        std::thread::sleep(Duration::from_millis(2));
        assert!(tick(&mut supervisor, &mut backend).is_empty());
        assert!(backend.written_off.is_empty());
        // A reported heartbeat that then freezes: the first tick records
        // it, the next one (past the zero deadline) writes the worker off
        // and re-dispatches the point.
        backend.beats.insert(0, 7);
        tick(&mut supervisor, &mut backend);
        assert!(backend.written_off.is_empty(), "first observation arms it");
        std::thread::sleep(Duration::from_millis(2));
        tick(&mut supervisor, &mut backend);
        assert_eq!(backend.written_off, vec![0]);
        assert_eq!(supervisor.report.workers_written_off, 1);
        assert_eq!(backend.submitted.len(), 2, "the point moved on");
        // Progress on the new dispatch keeps re-arming the deadline...
        for beat in 1..=3 {
            backend.beats.insert(1, beat);
            std::thread::sleep(Duration::from_millis(2));
            tick(&mut supervisor, &mut backend);
        }
        assert_eq!(backend.written_off, vec![0]);
        // ...until it freezes too.
        std::thread::sleep(Duration::from_millis(2));
        tick(&mut supervisor, &mut backend);
        assert_eq!(backend.written_off, vec![0, 1]);
        assert_eq!(backend.submitted.len(), 3);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = backoff_ms("abc123", 1);
        assert_eq!(a, backoff_ms("abc123", 1), "same inputs, same backoff");
        assert_ne!(
            backoff_ms("abc123", 1),
            backoff_ms("def456", 1),
            "different points jitter differently"
        );
        for attempt in 1..=10 {
            let ms = backoff_ms("abc123", attempt);
            assert!((25..=25 * 32 + 63).contains(&(ms as usize)), "got {ms}");
        }
    }
}
