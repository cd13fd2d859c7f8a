//! Golden regression tests: a committed log fixture is run through a
//! pinned configuration and the result must match a committed snapshot
//! byte for byte.
//!
//! * `golden.policy` locks down the *entire* deterministic pipeline — log
//!   parsing, noise filtering, type ranking, per-type seed derivation,
//!   Q-learning, parallel fan-out/merge, and policy serialization.
//! * `golden.filter` locks down the m-pattern noise filter on its own:
//!   the Figure-3 cohesion curve, the mined symptom clusters and the
//!   clean/noisy verdict counts at `minp = 0.1`.
//! * `golden.loop` locks down the Figure-1 loop's accumulated corpus:
//!   each window's outcome row, a fingerprint of the corpus it
//!   published (order included, with a `(start, machine)` tie across
//!   windows) and of the policy retrained from it, then the final
//!   policy.
//!
//! Any intentional change to one of those stages must regenerate the
//! snapshots:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p recovery-core --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use recovery_core::error_type::NoiseFilter;
use recovery_core::experiment::{fig3_cohesion_curve_of, ExperimentContext};
use recovery_core::persist::policy_to_text;
use recovery_core::pipeline::{run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_simlog::{CatalogConfig, ClusterConfig, RecoveryLog, RecoveryProcess, SimDuration};
use recovery_telemetry::{ObserverHandle, Telemetry};

fn fixture(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; fixtures live at the workspace
    // root next to the integration tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The pinned training recipe. Changing anything here (or in the stages
/// it exercises) is a deliberate behavioural change — regenerate the
/// snapshot and review the diff.
fn train_golden_policy() -> String {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut log = RecoveryLog::from_text(&text).expect("fixture log parses");
    let symptoms = log.symptoms().clone();
    let ctx = ExperimentContext::prepare(log.split_processes(), 0.1, 4);
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let mut config = TrainerConfig::fast().with_seed(0x601D_5EED);
    config.learning.max_episodes = 1_500;
    // Two threads on purpose: the snapshot certifies the parallel path
    // produces the sequential bytes (tests/parallel.rs asserts the
    // matrix; this pins the actual values).
    let trainer = OfflineTrainer::new(train, config).with_threads(2);
    let (policy, stats) = trainer.train(&ctx.types);
    assert!(!stats.is_empty(), "fixture log trained no types");
    policy_to_text(&policy, &symptoms)
}

/// The noise filter's view of the fixture log at the paper's
/// `minp = 0.1`, as `autorecover mine` computes it, one line per fact:
/// the Figure-3 curve (shortest round-trip floats), the symptom clusters
/// by name, and the verdict counts.
fn golden_filter_report() -> String {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut log = RecoveryLog::from_text(&text).expect("fixture log parses");
    let filter = NoiseFilter::new(0.1);
    let outcome = filter.partition(log.split_processes());
    let mut out = String::new();
    for (minp, fraction) in fig3_cohesion_curve_of(&outcome.db) {
        out.push_str(&format!("fig3 minp={minp:?} cohesive={fraction:?}\n"));
    }
    let clusters = filter.clusters(&outcome.db);
    out.push_str(&format!("clusters {}\n", clusters.len()));
    for cluster in &clusters {
        let names: Vec<&str> = cluster
            .iter()
            .map(|&s| log.symptoms().name(s).unwrap_or("?"))
            .collect();
        out.push_str(&format!("cluster {}\n", names.join(" ")));
    }
    out.push_str(&format!(
        "clean {}\nnoisy {}\n",
        outcome.clean.len(),
        outcome.noisy.len()
    ));
    out
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprint of a corpus in its order: each process's start,
/// machine and initial symptom.
fn corpus_fingerprint(processes: &[RecoveryProcess]) -> u64 {
    fnv1a(processes.iter().flat_map(|p| {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&p.start().as_secs().to_le_bytes());
        key[8..12].copy_from_slice(&p.machine().index().to_le_bytes());
        key[12..].copy_from_slice(&p.initial_symptom().index().to_le_bytes());
        key
    }))
}

/// A pinned four-window loop at two threads, one line per window — its
/// outcome row and the fingerprints of the corpus and the policy it
/// published — then the final policy text. The short, busy windows make
/// processes of different windows share a `(start, machine)` key, so the
/// fixture pins the order of such ties.
fn golden_loop_report() -> String {
    let catalog = CatalogConfig::default().with_fault_types(12).generate(21);
    let mut trainer = TrainerConfig::fast();
    trainer.learning.max_episodes = 1_500;
    let config = ContinuousLoopConfig {
        windows: 4,
        top_k: 8,
        threads: 2,
        seed: 0x601D_100B,
        trainer,
        ..ContinuousLoopConfig::new(ClusterConfig {
            machines: 60,
            horizon: SimDuration::from_days(2),
            mean_fault_interarrival: SimDuration::from_mins(10),
            ..ClusterConfig::default()
        })
    };
    let symptoms = catalog.symptoms();
    let mut rows = Vec::new();
    let mut ties = 0;
    let run = run_continuous_loop_controlled(
        &catalog,
        &config,
        &Telemetry::disabled(),
        &mut |_| ObserverHandle::none(),
        &mut |publication| {
            let policy = publication.policy.map_or("-".to_owned(), |p| {
                format!("{:016x}", fnv1a(policy_to_text(p, symptoms).bytes()))
            });
            // Only ties between processes of different initial symptoms
            // show their order in the fingerprint.
            ties = publication
                .accumulated
                .windows(2)
                .filter(|w| {
                    (w[0].start(), w[0].machine()) == (w[1].start(), w[1].machine())
                        && w[0].initial_symptom() != w[1].initial_symptom()
                })
                .count();
            rows.push(format!(
                "accumulated={} corpus={:016x} policy={policy}",
                publication.accumulated.len(),
                corpus_fingerprint(publication.accumulated)
            ));
        },
        &mut LoopControls::default(),
    )
    .expect("an in-memory loop cannot fail");
    // Within one window a machine's processes start at distinct times,
    // so equal neighbouring keys come from different windows.
    assert!(
        ties > 0,
        "the pinned loop has no (start, machine) tie across windows"
    );
    let mut out = String::new();
    for (outcome, row) in run.outcomes.iter().zip(&rows) {
        out.push_str(&format!(
            "window {} processes={} mttr_s={} learned={} entries={} status={} {row}\n",
            outcome.window,
            outcome.processes,
            outcome.mttr.as_secs(),
            outcome.learned_policy,
            outcome.policy_entries,
            outcome.status.label(),
        ));
    }
    out.push_str(&format!("ties {ties}\nfinal policy\n"));
    out.push_str(
        &run.policy
            .map_or(String::new(), |p| policy_to_text(&p, symptoms)),
    );
    out
}

/// Compares `actual` with the committed snapshot `name`, or rewrites the
/// snapshot when `REGEN_GOLDEN` is set.
fn check_snapshot(name: &str, what: &str, actual: &str) {
    let snapshot_path = fixture(name);

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        fs::write(&snapshot_path, actual).expect("write regenerated snapshot");
        eprintln!("regenerated {}", snapshot_path.display());
        return;
    }

    let expected = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed snapshot {}: {e}\n\
             regenerate it with: REGEN_GOLDEN=1 cargo test -p recovery-core --test golden",
            snapshot_path.display()
        )
    });
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or("line counts differ".to_owned(), |i| {
                format!(
                    "first differing line {}:\n  expected: {}\n  actual:   {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            });
        panic!(
            "GOLDEN {what} DRIFT — the output no longer matches \
             tests/fixtures/{name} ({} expected lines, {} actual).\n{first_diff}\n\
             If this change is intentional, regenerate the snapshot and commit it:\n\
             \n    REGEN_GOLDEN=1 cargo test -p recovery-core --test golden\n",
            expected.lines().count(),
            actual.lines().count(),
        );
    }
}

#[test]
fn trained_policy_matches_committed_snapshot() {
    check_snapshot("golden.policy", "POLICY", &train_golden_policy());
}

#[test]
fn noise_filter_matches_committed_snapshot() {
    check_snapshot("golden.filter", "FILTER", &golden_filter_report());
}

#[test]
fn continuous_loop_matches_committed_snapshot() {
    check_snapshot("golden.loop", "LOOP", &golden_loop_report());
}
