//! Determinism of the parallel per-type pipeline: the same catalog
//! trained with 1, 2, 4, and 8 worker threads must produce byte-identical
//! serialized policies, identical `TypeTrainingStats` (content *and*
//! order), bit-identical evaluation reports, and telemetry counters that
//! aggregate from worker threads to the sequential run's totals. The
//! packed training table and the hash-map artifact form it is emitted in
//! must also carry the same bytes at every thread count.

use recovery_core::evaluate::time_ordered_split;
use recovery_core::experiment::{sweep_comparison, ExperimentContext, TestRun, TestRunConfig};
use recovery_core::persist::policy_to_text;
use recovery_core::selection_tree::SelectionTreeConfig;
use recovery_core::state::StateCodec;
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_core::{RecoveryState, TrainedPolicy};
use recovery_mdp::{DenseQTable, QTable};
use recovery_simlog::{GeneratorConfig, LogGenerator, RepairAction, SymptomCatalog};
use recovery_telemetry::Telemetry;

fn small_context() -> (ExperimentContext, SymptomCatalog) {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let symptoms = generated.log.symptoms().clone();
    let ctx = ExperimentContext::prepare(generated.log.split_processes(), 0.1, 6);
    (ctx, symptoms)
}

fn quick_trainer() -> TrainerConfig {
    let mut config = TrainerConfig::fast();
    config.learning.max_episodes = 2_000;
    config
}

fn quick_run(fraction: f64) -> TestRunConfig {
    TestRunConfig {
        top_k: 6,
        ..TestRunConfig::new(fraction)
    }
    .with_trainer(quick_trainer())
}

#[test]
fn training_is_byte_identical_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);

    let outputs: Vec<_> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
            let (policy, stats) = trainer.train(&ctx.types);
            (threads, policy_to_text(&policy, &symptoms), stats)
        })
        .collect();

    let (_, reference_text, reference_stats) = &outputs[0];
    assert!(
        reference_stats.len() > 1,
        "need several types for the matrix to mean anything"
    );
    for (threads, text, stats) in &outputs[1..] {
        assert!(
            text == reference_text,
            "policy trained with {threads} threads differs from the sequential bytes"
        );
        assert_eq!(
            stats.len(),
            reference_stats.len(),
            "{threads} threads trained a different number of types"
        );
        for (s, r) in stats.iter().zip(reference_stats) {
            assert_eq!(s.error_type, r.error_type, "stats order drifted");
            assert_eq!(s.sweeps, r.sweeps);
            assert_eq!(s.converged, r.converged);
            assert_eq!(s.sample_count, r.sample_count);
        }
    }
}

/// Rebuilds `policy` by packing each type's hash-map fragment into a
/// `DenseQTable` and emitting it back in artifact form — the bridge every
/// trained or warm-started table crosses.
fn through_dense_table(policy: &TrainedPolicy, codec: StateCodec) -> TrainedPolicy {
    let mut fragments: Vec<QTable<RecoveryState, RepairAction>> = Vec::new();
    let mut types = Vec::new();
    for ((state, action), value, visits) in policy.q().iter() {
        let et = state.error_type();
        let slot = match types.iter().position(|&t| t == et) {
            Some(slot) => slot,
            None => {
                types.push(et);
                fragments.push(QTable::new());
                types.len() - 1
            }
        };
        fragments[slot].set_with_visits(*state, *action, value, visits);
    }
    let mut rebuilt = TrainedPolicy::default();
    for (et, fragment) in types.into_iter().zip(&fragments) {
        let mut dense = DenseQTable::new(codec.num_states(), RepairAction::COUNT);
        dense.absorb_qtable(fragment, |s| codec.encode(&s.tried()), |a| a.index());
        assert_eq!(dense.len(), fragment.len(), "{et}: packing lost entries");
        rebuilt.q_mut().merge_from(dense.to_qtable(
            |i| RecoveryState::new(et, codec.decode(i)),
            |a| RepairAction::ALL[a],
        ));
    }
    rebuilt
}

#[test]
fn dense_and_hash_backends_are_byte_identical_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);
    let codec = StateCodec::new(quick_trainer().max_attempts);

    let outputs: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
            let (policy, stats) = trainer.train(&ctx.types);
            let hash_text = policy_to_text(&policy, &symptoms);
            let dense_text = policy_to_text(&through_dense_table(&policy, codec), &symptoms);
            (threads, hash_text, dense_text, stats)
        })
        .collect();

    let (_, reference_text, _, reference_stats) = &outputs[0];
    assert!(reference_stats.len() > 1, "need several types");
    for (threads, hash_text, dense_text, stats) in &outputs {
        assert!(
            hash_text == reference_text,
            "artifact form with {threads} threads drifted from the reference bytes"
        );
        assert!(
            dense_text == reference_text,
            "packed table with {threads} threads drifted from the reference bytes"
        );
        assert_eq!(stats.len(), reference_stats.len(), "{threads}: type count");
        for (s, r) in stats.iter().zip(reference_stats) {
            assert_eq!(s.error_type, r.error_type, "{threads}: stats order");
            assert_eq!(s.sweeps, r.sweeps, "{threads}: sweeps");
            assert_eq!(s.converged, r.converged, "{threads}: convergence");
        }
    }
}

#[test]
fn train_all_matches_across_thread_counts() {
    let (ctx, symptoms) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);
    let run = |threads| {
        let trainer = OfflineTrainer::new(train, quick_trainer()).with_threads(threads);
        let (policy, stats) = trainer.train_all();
        (policy_to_text(&policy, &symptoms), stats.len())
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn test_run_reports_are_bit_identical_across_thread_counts() {
    let (ctx, _) = small_context();
    let sequential = TestRun::execute_in_context(&quick_run(0.4).with_threads(1), &ctx);
    let parallel = TestRun::execute_in_context(&quick_run(0.4).with_threads(8), &ctx);

    // EvaluationReport is PartialEq over raw f64 sums: this asserts the
    // parallel replay's floating-point accumulation is *bit*-identical,
    // not merely close.
    assert_eq!(sequential.trained_report, parallel.trained_report);
    assert_eq!(sequential.hybrid_report, parallel.hybrid_report);
    assert_eq!(sequential.user_report, parallel.user_report);
    assert_eq!(sequential.stats, parallel.stats);
}

#[test]
fn sweep_comparison_is_identical_across_thread_counts() {
    let (ctx, _) = small_context();
    let tree_config = SelectionTreeConfig {
        chunk_sweeps: 200,
        max_sweeps: 2_000,
        ..SelectionTreeConfig::default()
    };
    let run = |threads| {
        let config = quick_run(0.4).with_threads(threads);
        sweep_comparison(&config, &tree_config, &ctx)
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.rows, parallel.rows);
    assert_eq!(sequential.tree_report, parallel.tree_report);
    assert_eq!(sequential.standard_report, parallel.standard_report);
}

#[test]
fn worker_telemetry_aggregates_to_sequential_totals() {
    let (ctx, _) = small_context();
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);

    let counters_with_threads = |threads: usize| {
        let telemetry = Telemetry::new();
        let trainer = OfflineTrainer::new(train, quick_trainer())
            .with_observer(telemetry.observer_handle())
            .with_threads(threads);
        let (_, stats) = trainer.train(&ctx.types);
        (telemetry.snapshot().expect("telemetry enabled"), stats)
    };
    let (sequential, stats) = counters_with_threads(1);
    let (parallel, _) = counters_with_threads(4);

    // Every counter the observer records — global sweep/episode totals,
    // per-type sweep counters, platform attempt/cache families — must
    // aggregate to the same totals no matter how many workers fed it.
    for (name, &value) in &sequential.counters {
        assert_eq!(
            parallel.counters.get(name).copied(),
            Some(value),
            "counter {name} diverged between 1 and 4 threads"
        );
    }
    assert_eq!(
        sequential.counters.len(),
        parallel.counters.len(),
        "parallel run recorded extra counters"
    );
    // And the counters agree with the ground truth the trainer returned.
    let total_sweeps: u64 = stats.iter().map(|s| s.sweeps).sum();
    assert_eq!(
        parallel.counters.get("train.sweeps").copied(),
        Some(total_sweeps)
    );
}
