//! End-to-end sweep supervision under real process-level faults: workers
//! are killed, hung with SIGSTOP, and armed with chaos plans that corrupt
//! their responses mid-sweep — and the merged CSV *and* journal must still
//! come out byte-identical to a serial run. Also drives the supervision
//! CLI flags (`--point-deadline`, `--hedge-after`, `--quarantine-after`)
//! through the `sweep` bin: a hedged straggler leaves a supervision
//! manifest, and a poison point exits with the distinct quarantine code.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const WORKER: &str = env!("CARGO_BIN_EXE_wormsim-worker");

/// A worker subprocess that dies with the test, pass or fail.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// Starts a worker on an ephemeral loopback port, optionally chaos
    /// armed, and reads the bound address from its announcement line.
    fn spawn(threads: usize, chaos: Option<&str>) -> WorkerProc {
        let mut cmd = Command::new(WORKER);
        cmd.args(["--listen", "127.0.0.1:0", "--threads", &threads.to_string()]);
        if let Some(plan) = chaos {
            cmd.args(["--chaos", plan]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn wormsim-worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read announcement");
        let addr = line
            .trim()
            .strip_prefix("wormsim-worker listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_owned();
        WorkerProc { child, addr }
    }

    /// Freezes the whole worker process with SIGSTOP — the hung-worker
    /// case: the socket stays open, but nothing answers.
    fn sigstop(&self) {
        let status = Command::new("kill")
            .args(["-STOP", &self.child.id().to_string()])
            .status()
            .expect("send SIGSTOP");
        assert!(status.success(), "SIGSTOP failed: {status}");
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // SIGKILL also reaps stopped processes.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormsim-superv-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A twelve-point 8×8 sweep: long enough that faults injected 300 ms in
/// genuinely hit in-flight work.
fn long_sweep_args(out_dir: &Path) -> Vec<String> {
    [
        "--topo",
        "torus:8x8",
        "--algos",
        "ecube,phop,nbc",
        "--loads",
        "0.1,0.2,0.3,0.4",
        "--quick",
        "--seed",
        "1993",
        "--threads",
        "2",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([out_dir.display().to_string()])
    .collect()
}

/// A six-point 6×6 sweep for the cheaper CLI-flag scenarios.
fn short_sweep_args(out_dir: &Path) -> Vec<String> {
    [
        "--topo",
        "torus:6x6",
        "--algos",
        "ecube,phop",
        "--loads",
        "0.1,0.2,0.3",
        "--quick",
        "--seed",
        "1993",
        "--threads",
        "2",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([out_dir.display().to_string()])
    .collect()
}

fn run_serial(args: &[String], out_dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let status = Command::new(SWEEP)
        .args(args)
        .status()
        .expect("spawn local sweep");
    assert!(status.success(), "local sweep failed: {status}");
    (
        std::fs::read(out_dir.join("sweep.csv")).expect("local CSV"),
        std::fs::read(out_dir.join("sweep.journal.jsonl")).expect("local journal"),
    )
}

/// The chaos gauntlet: four workers — one clean, one corrupting 20% of
/// its response bodies, one killed 300 ms in, one frozen with SIGSTOP
/// 300 ms in — and the sweep must finish with bytes identical to serial.
#[test]
fn killed_hung_and_corrupting_workers_stay_byte_identical() {
    let local_dir = temp_dir("gauntlet-local");
    let args = long_sweep_args(&local_dir);
    let (local_csv, local_journal) = run_serial(&args, &local_dir);

    let clean = WorkerProc::spawn(2, None);
    let garbler = WorkerProc::spawn(2, Some("corrupt=0.2,delay-ms=10@0.3"));
    let doomed = WorkerProc::spawn(2, None);
    let frozen = WorkerProc::spawn(2, None);
    let remote_dir = temp_dir("gauntlet-remote");
    let sweep = Command::new(SWEEP)
        .args(long_sweep_args(&remote_dir))
        .args(["--backend", "remote"])
        .args(["--worker", &clean.addr])
        .args(["--worker", &garbler.addr])
        .args(["--worker", &doomed.addr])
        .args(["--worker", &frozen.addr])
        // Small RPC timeout so the frozen worker's unanswered polls are
        // declared lost in seconds, not the 10 s production default.
        .env("WORMSIM_RPC_TIMEOUT_MS", "500")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remote sweep");
    std::thread::sleep(std::time::Duration::from_millis(300));
    drop(doomed); // kill -9, mid-point
    frozen.sigstop(); // hung, socket still open, mid-point
    let output = sweep.wait_with_output().expect("sweep finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sweep must survive the gauntlet; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("re-dispatching"),
        "losing two workers must be announced; stderr was:\n{stderr}"
    );

    let remote_csv = std::fs::read(remote_dir.join("sweep.csv")).expect("remote CSV");
    let remote_journal =
        std::fs::read(remote_dir.join("sweep.journal.jsonl")).expect("remote journal");
    assert_eq!(
        local_csv, remote_csv,
        "the gauntlet must not perturb a byte of the CSV"
    );
    assert_eq!(
        local_journal, remote_journal,
        "the gauntlet must not perturb a byte of the journal"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

/// `--hedge-after` through the CLI: a worker whose first point stalls
/// forever (chaos `stall-submit=1`) is rescued by a hedged re-dispatch,
/// the sweep stays byte-identical, and the supervision manifest records
/// the hedge.
#[test]
fn hedged_straggler_is_rescued_and_recorded() {
    let local_dir = temp_dir("hedge-local");
    let args = short_sweep_args(&local_dir);
    let (local_csv, local_journal) = run_serial(&args, &local_dir);

    let staller = WorkerProc::spawn(2, Some("stall-submit=1"));
    let clean = WorkerProc::spawn(2, None);
    let remote_dir = temp_dir("hedge-remote");
    let status = Command::new(SWEEP)
        .args(short_sweep_args(&remote_dir))
        .args(["--backend", "remote"])
        .args(["--worker", &staller.addr])
        .args(["--worker", &clean.addr])
        .args(["--hedge-after", "0.3"])
        .args(["--quarantine-after", "0"])
        .status()
        .expect("spawn remote sweep");
    assert!(status.success(), "hedged sweep failed: {status}");

    let remote_csv = std::fs::read(remote_dir.join("sweep.csv")).expect("remote CSV");
    let remote_journal =
        std::fs::read(remote_dir.join("sweep.journal.jsonl")).expect("remote journal");
    assert_eq!(local_csv, remote_csv, "hedging must not perturb the CSV");
    assert_eq!(
        local_journal, remote_journal,
        "hedging must not perturb the journal"
    );
    let manifest = std::fs::read_to_string(remote_dir.join("sweep.journal.supervision.json"))
        .expect("supervision manifest");
    assert!(
        manifest.contains("\"points_hedged\""),
        "manifest must record the hedge: {manifest}"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

/// `--point-deadline` + `--quarantine-after` through the CLI: a point
/// that hangs every worker it touches is quarantined, the sweep exits
/// with the distinct quarantine code (4), and the poison point lands in
/// the quarantine sidecar instead of the journal.
#[test]
fn poison_point_quarantines_with_distinct_exit_code() {
    let staller_a = WorkerProc::spawn(1, Some("stall-submit=1"));
    let staller_b = WorkerProc::spawn(1, Some("stall-submit=1"));
    let out_dir = temp_dir("quarantine");
    let output = Command::new(SWEEP)
        .args([
            "--topo",
            "torus:6x6",
            "--algos",
            "ecube",
            "--loads",
            "0.1",
            "--quick",
            "--seed",
            "1993",
            "--out",
        ])
        .arg(&out_dir)
        .args(["--backend", "remote"])
        .args(["--worker", &staller_a.addr])
        .args(["--worker", &staller_b.addr])
        .args(["--point-deadline", "0.5"])
        .args(["--quarantine-after", "1"])
        .stderr(Stdio::piped())
        .output()
        .expect("spawn quarantine sweep");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(4),
        "quarantine must exit with its own code; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("quarantin"),
        "quarantine must be announced; stderr was:\n{stderr}"
    );
    let sidecar = std::fs::read_to_string(out_dir.join("sweep.journal.quarantine.jsonl"))
        .expect("quarantine sidecar");
    assert!(
        sidecar.contains("\"point_hash\""),
        "sidecar must name the poison point: {sidecar}"
    );
    let journal =
        std::fs::read_to_string(out_dir.join("sweep.journal.jsonl")).expect("journal exists");
    assert!(
        journal.is_empty(),
        "the poison point must not reach the journal: {journal}"
    );

    std::fs::remove_dir_all(&out_dir).ok();
}

/// The same poison scenario through `faults_sweep`: quarantine must end
/// the sweep through the shared exit path (exit 4, the sidecar named),
/// not fall through to the result table with points missing.
#[test]
fn faults_sweep_quarantine_exits_with_distinct_code() {
    let staller_a = WorkerProc::spawn(1, Some("stall-submit=1"));
    let staller_b = WorkerProc::spawn(1, Some("stall-submit=1"));
    let out_dir = temp_dir("faults-quarantine");
    let output = Command::new(env!("CARGO_BIN_EXE_faults_sweep"))
        .args([
            "--topo",
            "torus:6x6",
            "--algos",
            "ecube",
            "--max-faults",
            "1",
        ])
        .args(["--quick", "--seed", "1993", "--out"])
        .arg(&out_dir)
        .args(["--backend", "remote"])
        .args(["--worker", &staller_a.addr])
        .args(["--worker", &staller_b.addr])
        .args(["--point-deadline", "0.5"])
        .args(["--quarantine-after", "1"])
        .stderr(Stdio::piped())
        .output()
        .expect("spawn quarantine fault sweep");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(4),
        "quarantine must exit with its own code; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("quarantined: sweep completed"),
        "the shared exit path must report the quarantine; stderr was:\n{stderr}"
    );
    let sidecar = std::fs::read_to_string(out_dir.join("faults_sweep.journal.quarantine.jsonl"))
        .expect("quarantine sidecar");
    assert!(sidecar.contains("\"point_hash\""), "sidecar: {sidecar}");
    assert!(
        !out_dir.join("faults_sweep.csv").exists(),
        "an incomplete sweep must not write the full CSV"
    );

    std::fs::remove_dir_all(&out_dir).ok();
}
