//! The remote backend: sweep points executed by `wormsim-worker`
//! processes over HTTP submit/poll.
//!
//! [`RemoteBackend::connect`] handshakes every worker up front and
//! refuses any whose wire protocol or config digest disagrees with this
//! binary — a mismatched worker would run the *wrong interpretation* of
//! the same bytes, which is worse than a refusal. Each RPC retries
//! transient socket failures with seed-jittered backoff, under socket
//! timeouts, so one dropped packet does not kill an overnight sweep.
//!
//! The backend is a transport. A worker that stays unreachable past
//! those RPC retries, or keeps sending garbled responses, is marked dead:
//! it gets no further jobs, counts no capacity, and each of its in-flight
//! jobs polls as [`PointStatus::Lost`]. Whether and where a lost point
//! runs again is the sweep supervisor's decision. Only when *every*
//! worker is gone does a submit fail with a [`BackendError`].
//!
//! Job ids are assigned by the worker (its `/submit` reply), so one
//! long-lived worker serves any number of sweeps, resumes and
//! orchestrators.

use crate::backend::{BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use crate::http;
use crate::supervisor::backoff_ms;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;
use wormsim::observe::{json, JsonObject};
use wormsim::{wire_digest, Experiment, ExperimentError, RunResult, WIRE_PROTOCOL};

/// Socket timeout per connect/read/write within one RPC (overridable via
/// `WORMSIM_RPC_TIMEOUT_MS`, chiefly so fault-injection tests can detect
/// a frozen worker in milliseconds instead of tens of seconds).
const RPC_TIMEOUT: Duration = Duration::from_secs(10);
/// Transport attempts per RPC before the backend gives up on a worker.
const RPC_ATTEMPTS: u64 = 3;
/// Malformed (garbled) response bodies tolerated in a row — per job for
/// status polls, per submit for submit replies — before the worker is
/// treated as lost. A single corrupted response — a flaky NIC,
/// a chaos injection — should not cost a worker; a stream of them means
/// the process on the other side is not speaking the protocol anymore.
const GARBLE_STRIKES: u32 = 3;

fn rpc_timeout() -> Duration {
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        std::env::var("WORMSIM_RPC_TIMEOUT_MS")
            .ok()
            .and_then(|raw| raw.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map_or(RPC_TIMEOUT, Duration::from_millis)
    })
}

struct Worker {
    addr: String,
    slots: usize,
    in_flight: usize,
    /// Set once an RPC to this worker exhausts its transport retries;
    /// dead workers receive no further jobs and count no capacity.
    dead: bool,
    /// Set when the worker reports it is draining (SIGTERM received):
    /// zero capacity for new jobs, but its in-flight points are still
    /// polled to completion — a draining worker is retiring, not dead.
    draining: bool,
}

struct InFlight {
    worker: usize,
    /// The worker's id for the job, from its `/submit` reply.
    job: u64,
    /// Kept so a worker-side configuration failure is re-derived as a
    /// structured [`ExperimentError`] locally (validation is
    /// deterministic in the experiment alone).
    experiment: Experiment,
    /// Consecutive garbled status bodies.
    garbles: u32,
}

/// Why a submit to one specific worker did not take.
enum SendError {
    /// HTTP 503: the worker is draining. Not a failure — pick another.
    Draining,
    /// Transport or protocol failure: the worker is gone.
    Failed(BackendError),
}

/// A pool of `wormsim-worker` processes behind the [`WorkerBackend`]
/// trait. Capacity is the sum of worker slot counts; jobs go to the first
/// worker with a free slot.
pub struct RemoteBackend {
    workers: Vec<Worker>,
    jobs: HashMap<u64, InFlight>,
    next_handle: u64,
    digest: String,
}

/// One RPC with transport-level retries: transient socket failures back
/// off (seed-jittered, like point retries) and try again; an HTTP-level
/// error response is returned to the caller for protocol handling.
fn rpc(addr: &str, method: &str, target: &str, body: &str) -> Result<(u16, String), BackendError> {
    let mut last = String::new();
    for attempt in 1..=RPC_ATTEMPTS {
        match http::call(addr, method, target, body, rpc_timeout()) {
            Ok(response) => return Ok(response),
            Err(err) => last = err,
        }
        if attempt < RPC_ATTEMPTS {
            std::thread::sleep(Duration::from_millis(backoff_ms(addr, attempt)));
        }
    }
    Err(BackendError {
        worker: addr.to_owned(),
        message: format!("rpc {method} {target} failed after {RPC_ATTEMPTS} attempts: {last}"),
    })
}

fn get_u64(value: &json::Value, key: &str, addr: &str) -> Result<u64, BackendError> {
    value
        .get(key)
        .and_then(json::Value::as_u64)
        .ok_or_else(|| BackendError {
            worker: addr.to_owned(),
            message: format!("response missing integer field `{key}`"),
        })
}

fn parse_body(body: &str, addr: &str) -> Result<json::Value, BackendError> {
    json::from_str(body).map_err(|err| BackendError {
        worker: addr.to_owned(),
        message: format!("unparseable response body: {err}"),
    })
}

impl RemoteBackend {
    /// Handshakes every address and builds the pool.
    ///
    /// # Errors
    ///
    /// If any worker is unreachable, speaks a different wire protocol
    /// version, or reports a different config digest than this binary.
    pub fn connect(addrs: &[String]) -> Result<RemoteBackend, BackendError> {
        let digest = wire_digest();
        let mut workers = Vec::with_capacity(addrs.len());
        for raw in addrs {
            let addr = http::normalize_addr(raw);
            let (status, body) = rpc(&addr, "GET", "/handshake", "")?;
            if status != 200 {
                return Err(BackendError {
                    worker: addr,
                    message: format!("handshake returned HTTP {status}: {body}"),
                });
            }
            let value = parse_body(&body, &addr)?;
            let wire = get_u64(&value, "wire", &addr)?;
            if wire != u64::from(WIRE_PROTOCOL) {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "wire protocol mismatch: orchestrator v{WIRE_PROTOCOL}, worker v{wire}"
                    ),
                });
            }
            let theirs = value
                .get("digest")
                .and_then(|v| v.as_str())
                .unwrap_or_default();
            if theirs != digest {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "config digest mismatch: orchestrator {digest}, worker {theirs} — rebuild both from the same source"
                    ),
                });
            }
            let slots = get_u64(&value, "threads", &addr)?.max(1) as usize;
            let draining = value
                .get("draining")
                .and_then(json::Value::as_bool)
                .unwrap_or(false);
            workers.push(Worker {
                addr,
                slots,
                in_flight: 0,
                dead: false,
                draining,
            });
        }
        if workers.is_empty() {
            return Err(BackendError {
                worker: "<none>".to_owned(),
                message: "remote backend needs at least one worker address".to_owned(),
            });
        }
        Ok(RemoteBackend {
            workers,
            jobs: HashMap::new(),
            next_handle: 0,
            digest,
        })
    }

    /// A worker-side failure arrives as a rendered string; configuration
    /// errors are deterministic in the experiment alone, so re-validating
    /// locally recovers the structured variant. Anything else (which
    /// should not happen) is preserved verbatim as an I/O error.
    fn rederive_error(experiment: &Experiment, message: &str, addr: &str) -> ExperimentError {
        match experiment.validate() {
            Err(err) => err,
            Ok(()) => ExperimentError::Io {
                message: format!("worker {addr} reported: {message}"),
            },
        }
    }

    /// Writes a worker off (idempotent): no further jobs, no capacity.
    /// Its in-flight accounting is zeroed; each of its jobs polls as lost.
    fn mark_dead(&mut self, slot: usize, cause: &BackendError) {
        if !self.workers[slot].dead {
            self.workers[slot].dead = true;
            self.workers[slot].in_flight = 0;
            eprintln!(
                "worker {} lost ({}); sending it no further jobs",
                self.workers[slot].addr, cause.message
            );
        }
    }

    fn mark_draining(&mut self, slot: usize) {
        if !self.workers[slot].draining {
            self.workers[slot].draining = true;
            eprintln!(
                "worker {} is draining; sending no further jobs",
                self.workers[slot].addr
            );
        }
    }

    /// The next submit target among live, non-draining workers with a
    /// free slot: the one with the most free slots (ties go to the first
    /// index), so heterogeneous workers drain proportionally instead of
    /// the first address soaking up every job.
    fn pick_live(&self) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.dead && !w.draining && w.in_flight < w.slots)
            .max_by_key(|(i, w)| (w.slots - w.in_flight, self.workers.len() - i))
            .map(|(i, _)| i)
    }

    /// POSTs one job to one worker; counts it in flight and returns the
    /// worker's job id on success.
    ///
    /// A garbled reply hides the id of a job the worker may well have
    /// accepted; that copy runs unpolled, and the submit is sent again,
    /// up to [`GARBLE_STRIKES`] times.
    fn send_job(&mut self, slot: usize, job: &PointJob) -> Result<u64, SendError> {
        let mut body = String::new();
        let mut obj = JsonObject::begin(&mut body);
        obj.field_str("digest", &self.digest);
        obj.field_raw("experiment", &job.experiment.to_wire_json());
        obj.finish();
        let addr = self.workers[slot].addr.clone();
        let mut garbled = String::new();
        for _ in 0..GARBLE_STRIKES {
            let (status, response) =
                rpc(&addr, "POST", "/submit", &body).map_err(SendError::Failed)?;
            if status == 503 {
                // The worker is shutting down gracefully: no new jobs, but
                // everything it already has will finish.
                self.mark_draining(slot);
                return Err(SendError::Draining);
            }
            if status != 200 {
                return Err(SendError::Failed(BackendError {
                    worker: addr,
                    message: format!("submit returned HTTP {status}: {response}"),
                }));
            }
            let id = json::from_str(&response)
                .ok()
                .and_then(|value| value.get("job").and_then(json::Value::as_u64));
            if let Some(id) = id {
                self.workers[slot].in_flight += 1;
                return Ok(id);
            }
            garbled = response;
        }
        Err(SendError::Failed(BackendError {
            worker: addr,
            message: format!("{GARBLE_STRIKES} garbled submit responses; last: {garbled}"),
        }))
    }
}

/// A fully decoded `/status` body. Decoding is separated from transport
/// so a *garbled* body (chaos corruption, a flaky link) can be treated as
/// a strike against the worker rather than a fatal protocol error.
enum StatusBody {
    Pending {
        heartbeat: Option<u64>,
        draining: bool,
    },
    Done(RunResult),
    Failed(String),
}

fn decode_status(body: &str) -> Result<StatusBody, String> {
    let value = json::from_str(body).map_err(|err| format!("unparseable response body: {err}"))?;
    match value.get("state").and_then(|v| v.as_str()).unwrap_or("") {
        "pending" => Ok(StatusBody::Pending {
            heartbeat: value.get("heartbeat").and_then(json::Value::as_u64),
            draining: value
                .get("draining")
                .and_then(json::Value::as_bool)
                .unwrap_or(false),
        }),
        "done" => {
            let result_value = value
                .get("result")
                .ok_or_else(|| "done status missing `result`".to_owned())?;
            RunResult::from_json(result_value)
                .map(StatusBody::Done)
                .map_err(|err| format!("undecodable result: {err}"))
        }
        "failed" => Ok(StatusBody::Failed(
            value
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("unspecified worker failure")
                .to_owned(),
        )),
        other => Err(format!("unknown job state {other:?} in: {body}")),
    }
}

impl WorkerBackend for RemoteBackend {
    fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError> {
        let mut cause = BackendError {
            worker: "<pool>".to_owned(),
            message: "no live worker has a free slot".to_owned(),
        };
        while let Some(slot) = self.pick_live() {
            match self.send_job(slot, &job) {
                Ok(id) => {
                    let handle = self.next_handle;
                    self.next_handle += 1;
                    self.jobs.insert(
                        handle,
                        InFlight {
                            worker: slot,
                            job: id,
                            experiment: job.experiment,
                            garbles: 0,
                        },
                    );
                    return Ok(WorkHandle(handle));
                }
                // Marked draining inside send_job; the next pick skips it.
                Err(SendError::Draining) => {}
                Err(SendError::Failed(err)) => {
                    self.mark_dead(slot, &err);
                    cause = err;
                }
            }
        }
        Err(cause)
    }

    fn poll(&mut self, handle: WorkHandle) -> PointStatus {
        let Some(in_flight) = self.jobs.get_mut(&handle.0) else {
            return PointStatus::Lost(BackendError {
                worker: "<pool>".to_owned(),
                message: format!("poll of unknown handle {}", handle.0),
            });
        };
        let slot = in_flight.worker;
        let addr = self.workers[slot].addr.clone();
        let message = if self.workers[slot].dead {
            // Written off by an earlier failure (its own RPC, or another
            // job's poll): no doomed round-trip.
            "worker is gone".to_owned()
        } else {
            match rpc(&addr, "GET", &format!("/status?job={}", in_flight.job), "") {
                Err(err) => err.message,
                Ok((200, body)) => match decode_status(&body) {
                    Ok(StatusBody::Pending {
                        heartbeat,
                        draining,
                    }) => {
                        in_flight.garbles = 0;
                        if draining {
                            self.mark_draining(slot);
                        }
                        return PointStatus::Pending { heartbeat };
                    }
                    Ok(StatusBody::Done(result)) => {
                        self.forget(handle);
                        return PointStatus::Done(Ok(result));
                    }
                    Ok(StatusBody::Failed(message)) => {
                        let err = Self::rederive_error(&in_flight.experiment, &message, &addr);
                        self.forget(handle);
                        return PointStatus::Done(Err(err));
                    }
                    Err(garble) => {
                        // The transport delivered bytes, but not the
                        // protocol's. Tolerate a few (the next poll asks
                        // again) before treating the worker as lost.
                        in_flight.garbles += 1;
                        if in_flight.garbles < GARBLE_STRIKES {
                            return PointStatus::Pending { heartbeat: None };
                        }
                        format!("{GARBLE_STRIKES} garbled status responses; last: {garble}")
                    }
                },
                Ok((status, body)) => format!("status returned HTTP {status}: {body}"),
            }
        };
        let cause = BackendError {
            worker: addr,
            message,
        };
        self.mark_dead(slot, &cause);
        self.jobs.remove(&handle.0);
        PointStatus::Lost(cause)
    }

    fn capacity(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| !w.dead && !w.draining)
            .map(|w| w.slots)
            .sum()
    }

    fn cancel(&mut self) {
        // Best-effort broadcast; a worker that is already gone cannot
        // hold up shutdown.
        for worker in self.workers.iter().filter(|w| !w.dead) {
            let _ = rpc(&worker.addr, "POST", "/cancel", "{}");
        }
    }

    fn poll_interval(&self) -> Duration {
        // HTTP polls are orders of magnitude costlier than a mutex peek;
        // back off accordingly.
        Duration::from_millis(25)
    }

    fn write_off(&mut self, handle: WorkHandle) {
        if let Some(in_flight) = self.jobs.remove(&handle.0) {
            let cause = BackendError {
                worker: self.workers[in_flight.worker].addr.clone(),
                message: "written off by the supervisor: simulation heartbeat frozen".to_owned(),
            };
            self.mark_dead(in_flight.worker, &cause);
        }
    }

    fn forget(&mut self, handle: WorkHandle) {
        if let Some(in_flight) = self.jobs.remove(&handle.0) {
            let worker = &mut self.workers[in_flight.worker];
            if !worker.dead {
                worker.in_flight = worker.in_flight.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::spawn_local;
    use std::time::Instant;
    use wormsim::topology::Topology;
    use wormsim::AlgorithmKind;

    fn job_for(experiment: Experiment, index: usize) -> PointJob {
        PointJob {
            experiment,
            index,
            inject_panic: false,
        }
    }

    /// Polls until the job resolves; `Err` carries a lost dispatch.
    fn wait(
        backend: &mut RemoteBackend,
        handle: WorkHandle,
    ) -> Result<Result<RunResult, ExperimentError>, BackendError> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "remote worker hung");
            match backend.poll(handle) {
                PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(10)),
                PointStatus::Done(result) => return Ok(result),
                PointStatus::Lost(cause) => return Err(cause),
            }
        }
    }

    #[test]
    fn remote_point_matches_local_run_exactly() {
        let addr = spawn_local(2);
        let mut backend =
            RemoteBackend::connect(&[addr.to_string()]).expect("handshake with loopback worker");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local run");
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let remote = wait(&mut backend, handle)
            .expect("no lost dispatch")
            .expect("remote run succeeds");
        // Bit-exact equality across process + wire + JSON round-trip,
        // minus machine-dependent wall timing.
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits()
        );
        assert_eq!(remote.cycles_simulated, local.cycles_simulated);
        assert_eq!(remote.messages_measured, local.messages_measured);
        assert_eq!(remote.latency_percentiles, local.latency_percentiles);
    }

    #[test]
    fn worker_reports_configuration_errors_as_structured_failures() {
        let addr = spawn_local(1);
        let mut backend = RemoteBackend::connect(&[addr.to_string()]).expect("handshake");
        // offered_load of 0 is rejected by Experiment::validate.
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .offered_load(0.0)
            .quick();
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let err = wait(&mut backend, handle)
            .expect("no lost dispatch")
            .expect_err("invalid load must fail");
        assert!(
            matches!(err, ExperimentError::InvalidLoad { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn poll_failure_reports_the_job_lost_and_drops_the_worker() {
        let doomed = crate::worker::spawn_killable(1);
        let survivor = spawn_local(1);
        let mut backend = RemoteBackend::connect(&[doomed.addr.to_string(), survivor.to_string()])
            .expect("handshake both workers");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        // Submission goes to the first worker with a free slot — the
        // doomed one. Kill it mid-point; the next poll's RPC failure must
        // report the job lost and write the worker off.
        let handle = backend
            .submit(job_for(experiment.clone(), 0))
            .expect("submit");
        doomed.kill();
        let cause = wait(&mut backend, handle).expect_err("the killed worker cannot answer");
        assert_eq!(cause.worker, doomed.addr.to_string());
        assert_eq!(
            backend.capacity(),
            1,
            "the dead worker must drop out of the capacity count"
        );
        // A re-submit lands on the survivor and reproduces the local
        // result bit for bit.
        let handle = backend.submit(job_for(experiment, 0)).expect("resubmit");
        let remote = wait(&mut backend, handle)
            .expect("the survivor answers")
            .expect("the point completes");
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits()
        );
        assert_eq!(remote.cycles_simulated, local.cycles_simulated);
    }

    #[test]
    fn garbling_worker_is_cut_loose_and_the_point_lands_on_the_survivor() {
        // Every response body (except the chaos-exempt handshake) is
        // corrupted: valid HTTP framing, broken JSON. The backend must
        // write the worker off after its garbled submit replies instead
        // of trusting a byte of it.
        let garbler =
            crate::worker::spawn_chaotic(1, crate::chaos::ChaosPlan::parse("corrupt=1").unwrap());
        let survivor = spawn_local(1);
        let mut backend = RemoteBackend::connect(&[garbler.to_string(), survivor.to_string()])
            .expect("handshake is exempt from response corruption");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let remote = wait(&mut backend, handle)
            .expect("the point must land on the survivor")
            .expect("the point completes");
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits(),
            "the survivor must reproduce the local result bit for bit"
        );
        assert_eq!(
            backend.capacity(),
            1,
            "the garbling worker must be written off"
        );
    }

    #[test]
    fn connect_rejects_a_dead_worker() {
        let err = RemoteBackend::connect(&["127.0.0.1:1".to_owned()])
            .err()
            .expect("port 1 must refuse the handshake");
        assert!(
            err.message.contains("handshake") || err.message.contains("rpc"),
            "got: {err}"
        );
    }
}
