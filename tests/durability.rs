//! Crash-injection and graceful-shutdown harness for the durable loop.
//!
//! Every test here drives the real `autorecover` binary as a child
//! process — crashes are genuine `abort()`s at the crash points scripted
//! with `--crash-at`, and shutdown is a genuine SIGTERM — then asserts
//! the durability contract: a resumed run produces a final policy and
//! run report **byte-identical** to an uninterrupted run with the same
//! flags, at any `--threads` value, without ever re-training a completed
//! window.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_autorecover");

/// Small-but-real loop shape shared by every test: three windows keep
/// the matrix fast while still exercising resume-into-the-middle.
const WINDOWS: &str = "3";
const SCALE: &str = "0.01";
const SEED: &str = "7";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autorecover-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn loop_cmd(state_dir: &Path, threads: &str, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("loop")
        .args(["--windows", WINDOWS])
        .args(["--scale", SCALE])
        .args(["--seed", SEED])
        .args(["--threads", threads])
        .arg("--state-dir")
        .arg(state_dir);
    cmd.args(extra);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn autorecover")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The uninterrupted reference: run once per thread count, return
/// (policy bytes, run-report bytes).
fn reference(tag: &str, threads: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = temp_dir(tag);
    let policy = dir.join("final.policy");
    let output = run(&mut loop_cmd(
        &dir,
        threads,
        &["--policy-out", policy.to_str().unwrap()],
    ));
    assert!(
        output.status.success(),
        "reference run failed: {}",
        stderr(&output)
    );
    let policy_bytes = fs::read(&policy).expect("reference policy");
    let report_bytes = fs::read(dir.join("run-report.json")).expect("reference report");
    let _ = fs::remove_dir_all(&dir);
    (policy_bytes, report_bytes)
}

#[test]
fn crash_matrix_resume_is_byte_identical_for_every_point_and_thread_count() {
    let crash_points = [
        "before-journal:1",
        "mid-journal:1",
        "before-checkpoint:1",
        "after-checkpoint:1",
    ];
    // The fsck report of each crashed state dir at one thread, which the
    // same crash at four threads must reproduce: the pipelined loop
    // writes in the same order at every thread count.
    let mut crashed_states: Vec<(&str, String)> = Vec::new();
    for threads in ["1", "4"] {
        let (ref_policy, ref_report) = reference(&format!("ref-{threads}"), threads);
        for spec in crash_points {
            let tag = format!("crash-{}-{threads}", spec.replace(':', "-"));
            let dir = temp_dir(&tag);
            // Phase 1: the run dies at the scripted point. An abort is
            // SIGABRT — the process must NOT exit successfully, and must
            // announce the crash point (stderr is unbuffered).
            let crashed = run(&mut loop_cmd(&dir, threads, &["--crash-at", spec]));
            assert!(
                !crashed.status.success(),
                "{spec}: crash run exited cleanly"
            );
            assert!(
                stderr(&crashed).contains("faultline: crashing at"),
                "{spec}: missing crash announcement: {}",
                stderr(&crashed)
            );
            let crashed_fsck = run(Command::new(BIN).arg("fsck").arg(&dir));
            let state = format!("{}{}", stdout(&crashed_fsck), stderr(&crashed_fsck));
            match crashed_states.iter().find(|(point, _)| *point == spec) {
                None => crashed_states.push((spec, state)),
                Some((_, single)) => assert_eq!(
                    &state, single,
                    "{spec}: the crashed state dir at {threads} threads differs from 1 thread's"
                ),
            }
            // Phase 2: resume with the same flags (no crash plan). It
            // must warm-start — the durable summary proves a checkpoint
            // was loaded and windows were skipped, i.e. nothing
            // completed was re-trained — and run to completion.
            let policy = dir.join("final.policy");
            let resumed = run(&mut loop_cmd(
                &dir,
                threads,
                &["--policy-out", policy.to_str().unwrap()],
            ));
            assert!(
                resumed.status.success(),
                "{spec}: resume failed: {}",
                stderr(&resumed)
            );
            let out = stdout(&resumed);
            assert!(
                out.contains("resumed 1 (skipped"),
                "{spec}: resume did not warm-start:\n{out}"
            );
            assert!(
                !out.contains("skipped 0 windows"),
                "{spec}: resume re-ran every window:\n{out}"
            );
            // Phase 3: byte-identity against the uninterrupted run.
            let policy_bytes = fs::read(&policy).expect("resumed policy");
            assert_eq!(
                policy_bytes, ref_policy,
                "{spec} threads {threads}: resumed policy differs from uninterrupted run"
            );
            let report_bytes = fs::read(dir.join("run-report.json")).expect("resumed report");
            assert_eq!(
                report_bytes, ref_report,
                "{spec} threads {threads}: resumed run report differs from uninterrupted run"
            );
            // Phase 4: the healed state dir passes fsck.
            let fsck = run(Command::new(BIN).arg("fsck").arg(&dir));
            assert!(
                fsck.status.success(),
                "{spec}: fsck failed: {}",
                stdout(&fsck)
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn fsck_flags_torn_journals_and_corrupt_checkpoints() {
    let dir = temp_dir("fsck");
    let output = run(&mut loop_cmd(&dir, "1", &[]));
    assert!(output.status.success(), "{}", stderr(&output));
    let healthy = run(Command::new(BIN).arg("fsck").arg(&dir));
    assert!(healthy.status.success(), "{}", stdout(&healthy));
    assert!(stdout(&healthy).contains("state dir is healthy"));

    // Flip one byte in the newest checkpoint: fsck must fail and name
    // the corruption; resume must fall back to the previous checkpoint
    // and still finish (proved by the byte-identical-policy matrix —
    // here we assert the fallback path survives).
    let newest = dir.join("checkpoint-00000003.ckpt");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&newest, &bytes).unwrap();
    let corrupt = run(Command::new(BIN).arg("fsck").arg(&dir));
    assert!(
        !corrupt.status.success(),
        "fsck passed a corrupt checkpoint"
    );
    assert!(stdout(&corrupt).contains("CORRUPT"), "{}", stdout(&corrupt));
    let resumed = run(&mut loop_cmd(&dir, "1", &[]));
    assert!(
        resumed.status.success(),
        "resume died on a corrupt newest checkpoint: {}",
        stderr(&resumed)
    );
    assert!(
        stdout(&resumed).contains("resumed 1 (skipped"),
        "fallback resume did not warm-start:\n{}",
        stdout(&resumed)
    );

    // Truncate the journal mid-record: fsck reports the torn tail.
    let journal = dir.join("journal.log");
    let bytes = fs::read(&journal).unwrap();
    fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();
    let torn = run(Command::new(BIN).arg("fsck").arg(&dir));
    assert!(!torn.status.success(), "fsck passed a torn journal");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_mismatched_flags() {
    let dir = temp_dir("preflight");
    let output = run(&mut loop_cmd(&dir, "1", &[]));
    assert!(output.status.success(), "{}", stderr(&output));
    // Same dir, different seed: a hard, typed error — silently mixing
    // two runs' state would poison both.
    let mismatch = run(Command::new(BIN)
        .arg("loop")
        .args([
            "--windows",
            WINDOWS,
            "--scale",
            SCALE,
            "--seed",
            "8",
            "--threads",
            "1",
        ])
        .arg("--state-dir")
        .arg(&dir));
    assert!(!mismatch.status.success());
    assert!(
        stderr(&mismatch).contains("--seed"),
        "{}",
        stderr(&mismatch)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_requires_state_dir() {
    let output = run(Command::new(BIN).arg("loop").args([
        "--windows",
        WINDOWS,
        "--scale",
        SCALE,
        "--crash-at",
        "mid-journal:0",
    ]));
    assert!(!output.status.success());
    assert!(
        stderr(&output).contains("--crash-at requires --state-dir"),
        "{}",
        stderr(&output)
    );
}

#[cfg(unix)]
#[test]
fn sigterm_finishes_the_inflight_window_and_persists_it() {
    use std::io::Read;

    let dir = temp_dir("sigterm");
    // Enough windows that the run cannot finish before the signal
    // arrives; the signal lands mid-window and the loop must complete
    // that window, checkpoint it, and exit 0.
    let mut child = Command::new(BIN)
        .arg("loop")
        .args([
            "--windows",
            "40",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--threads",
            "1",
        ])
        .arg("--state-dir")
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn loop");
    // Wait for the first checkpoint so the signal interrupts a live,
    // mid-run loop rather than startup.
    let first_checkpoint = dir.join("checkpoint-00000001.ckpt");
    let started = std::time::Instant::now();
    while !first_checkpoint.exists() {
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "first window never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    let status = child.wait().expect("wait for loop");
    assert!(status.success(), "graceful shutdown must exit 0");
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .unwrap();
    assert!(
        out.contains("interrupted by signal"),
        "missing interruption notice:\n{out}"
    );
    // The in-flight window was persisted: the state dir is healthy and
    // every checkpoint agrees with the journal.
    let fsck = run(Command::new(BIN).arg("fsck").arg(&dir));
    assert!(fsck.status.success(), "{}", stdout(&fsck));
    // And the run is genuinely resumable: checkpoints cover at least one
    // window, and no window was left half-persisted.
    assert!(stdout(&fsck).contains("clean tail"), "{}", stdout(&fsck));
    let _ = fs::remove_dir_all(&dir);
}
