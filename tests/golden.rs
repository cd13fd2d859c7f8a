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
//! * `golden.sim` locks down the cluster simulator's output: for four
//!   cluster shapes at three seeds, under the production ladder and
//!   under a live hybrid policy trained on the shape's first log, the
//!   entry count, a fingerprint of the log text and one of the ground
//!   truth of every split process. The densest shape has entries of
//!   different machines, and of one machine, in the same second, so the
//!   fixture pins the order of both kinds of tie.
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
use recovery_core::policy::{DecisionTable, HybridPolicy, LivePolicy, UserStatePolicy};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_simlog::{
    CatalogConfig, ClusterConfig, ClusterSim, GeneratorConfig, GroundTruth, LogGenerator,
    RecoveryLog, RecoveryProcess, SimDuration,
};
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

/// The simulator cases of `golden.sim`: a name and a generator preset.
/// `dense` packs 60 machines with a fault every 10 minutes into two days,
/// so many entries share a second.
fn sim_cases() -> [(&'static str, GeneratorConfig); 4] {
    let dense = GeneratorConfig {
        catalog: CatalogConfig::default().with_fault_types(12),
        cluster: ClusterConfig {
            machines: 60,
            horizon: SimDuration::from_days(2),
            mean_fault_interarrival: SimDuration::from_mins(10),
            ..ClusterConfig::default()
        },
        ..GeneratorConfig::small()
    };
    [
        ("paper_scale(0.01)", GeneratorConfig::paper_scale(0.01)),
        ("paper_scale(0.1)", GeneratorConfig::paper_scale(0.1)),
        ("small", GeneratorConfig::small()),
        ("dense", dense),
    ]
}

/// Neighbouring entries of one second: `(different machines, same
/// machine)`.
fn same_second_ties(log: &mut RecoveryLog) -> (usize, usize) {
    let entries = log.entries();
    let mut ties = (0, 0);
    for w in entries.windows(2) {
        if w[0].time == w[1].time {
            if w[0].machine == w[1].machine {
                ties.1 += 1;
            } else {
                ties.0 += 1;
            }
        }
    }
    ties
}

/// One `golden.sim` line: the log's entry count and text fingerprint,
/// and a fingerprint of the ground truth of every split process, in
/// split order.
fn sim_line(
    case: &str,
    seed: u64,
    arm: &str,
    log: &mut RecoveryLog,
    truth: &GroundTruth,
) -> String {
    let text = fnv1a(log.to_text().into_bytes());
    let processes = log.split_processes();
    let truth_digest = fnv1a(processes.iter().flat_map(|p| {
        let t = truth.lookup(p.machine(), p.start());
        let mut key = [0u8; 9];
        if let Some(t) = t {
            key[0] = 1 + u8::from(t.overlay.is_some());
            key[1..5].copy_from_slice(&t.fault.index().to_le_bytes());
            let overlay = t.overlay.map_or(u32::MAX, |o| o.index());
            key[5..].copy_from_slice(&overlay.to_le_bytes());
        }
        key
    }));
    format!(
        "{case} seed={seed} policy={arm} entries={} processes={} truth={} text={text:016x} truth_digest={truth_digest:016x}\n",
        log.len(),
        processes.len(),
        truth.len(),
    )
}

/// Every `golden.sim` case at three seeds: the ladder log of
/// `LogGenerator`, then the same cluster under a live hybrid of the
/// ladder's fallback and a policy trained on the case's first ladder
/// log. Asserts that the dense case has both kinds of same-second tie.
fn golden_sim_report() -> String {
    let mut out = String::new();
    for (case, config) in sim_cases() {
        let mut ties = (0, 0);
        let mut live_policy = None;
        for seed in [1, 7, 42] {
            let mut generated = LogGenerator::new(config.clone().with_seed(seed)).generate();
            let (across, within) = same_second_ties(&mut generated.log);
            ties = (ties.0 + across, ties.1 + within);
            out.push_str(&sim_line(
                case,
                seed,
                "ladder",
                &mut generated.log,
                &generated.truth,
            ));
            let trained = live_policy.get_or_insert_with(|| {
                let ctx = ExperimentContext::prepare(generated.log.split_processes(), 0.1, 8);
                let mut trainer = TrainerConfig::fast().with_seed(0x601D_5111);
                trainer.learning.max_episodes = 1_500;
                OfflineTrainer::new(&ctx.clean, trainer)
                    .with_threads(2)
                    .train(&ctx.types)
                    .0
            });
            let live = LivePolicy::new(HybridPolicy::new(
                DecisionTable::new(trained),
                UserStatePolicy::default(),
            ));
            let sim = ClusterSim::new(
                &generated.catalog,
                live,
                config.cluster.clone(),
                seed ^ 0x11,
            );
            let (mut log, truth) = sim.run();
            let (across, within) = same_second_ties(&mut log);
            ties = (ties.0 + across, ties.1 + within);
            out.push_str(&sim_line(case, seed, "live", &mut log, &truth));
        }
        out.push_str(&format!(
            "{case} ties across={} within={}\n",
            ties.0, ties.1
        ));
        if case == "dense" {
            assert!(
                ties.0 > 0,
                "the dense case has no same-second tie across machines"
            );
            assert!(
                ties.1 > 0,
                "the dense case has no same-second tie within a machine"
            );
        }
    }
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

#[test]
fn cluster_simulation_matches_committed_snapshot() {
    check_snapshot("golden.sim", "SIMULATION", &golden_sim_report());
}
