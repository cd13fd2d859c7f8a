//! Integration tests of the persistence formats: the textual recovery log,
//! the policy file, and the durable state directory (checkpoints +
//! journal), including adversarial inputs and property-based round trips.

use proptest::prelude::*;

use recovery_core::durable::{fsck, scan_journal, Checkpoint, DurableLoop};
use recovery_core::error_type::ErrorType;
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::{policy_from_text, policy_to_text, POLICY_HEADER};
use recovery_core::policy::{DecidePolicy, TrainedPolicy};
use recovery_core::state::{ActionMultiset, RecoveryState};
use recovery_simlog::{RecoveryLog, RepairAction, SymptomCatalog};
use recovery_telemetry::Telemetry;

fn arb_action() -> impl Strategy<Value = RepairAction> {
    prop_oneof![
        Just(RepairAction::TryNop),
        Just(RepairAction::Reboot),
        Just(RepairAction::Reimage),
        Just(RepairAction::Rma),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary policies survive the text round trip: same entries, same
    /// decisions, bit-identical values, same visit counts (v2 format).
    #[test]
    fn policy_round_trip(
        entries in proptest::collection::vec(
            (
                0u32..8,
                proptest::collection::vec(arb_action(), 0..6),
                arb_action(),
                0.0f64..1e6,
                0u64..1_000_000,
            ),
            1..40
        )
    ) {
        let mut symptoms = SymptomCatalog::new();
        for i in 0..8u32 {
            symptoms.intern(&format!("error:Kind{i}"));
        }
        let mut policy = TrainedPolicy::default();
        for (sym, tried, action, value, visits) in &entries {
            let et = ErrorType::new(symptoms.id(&format!("error:Kind{sym}")).unwrap());
            let state = RecoveryState::new(et, ActionMultiset::from_actions(tried.iter().copied()));
            policy.q_mut().set_with_visits(state, *action, *value, *visits);
        }
        let text = policy_to_text(&policy, &symptoms);
        let mut symptoms2 = SymptomCatalog::new();
        let parsed = policy_from_text(&text, &mut symptoms2).expect("own output parses");
        prop_assert_eq!(parsed.q().len(), policy.q().len());
        prop_assert_eq!(parsed.q().total_visits(), policy.q().total_visits());
        // Every decision, value, and visit count agrees (modulo the
        // symptom renumbering).
        for ((state, action), value, visits) in policy.q().iter() {
            let name = symptoms.name(state.error_type().symptom()).unwrap();
            let et2 = ErrorType::new(symptoms2.id(name).expect("name interned on parse"));
            let state2 = RecoveryState::new(et2, state.tried());
            prop_assert_eq!(policy.decide(state), parsed.decide(&state2));
            let reloaded = parsed.q().value(&state2, *action).expect("entry survives");
            prop_assert_eq!(reloaded.to_bits(), value.to_bits());
            prop_assert_eq!(parsed.q().visits(&state2, *action), visits);
        }
    }

    /// The parser never panics on arbitrary input — it returns an error
    /// or a policy.
    #[test]
    fn policy_parser_is_panic_free(text in "\\PC*") {
        let mut symptoms = SymptomCatalog::new();
        let _ = policy_from_text(&text, &mut symptoms);
    }

    /// The log parser never panics on arbitrary input.
    #[test]
    fn log_parser_is_panic_free(text in "\\PC*") {
        let _ = RecoveryLog::from_text(&text);
    }

    /// The log parser never panics on structured-looking but corrupted
    /// lines.
    #[test]
    fn log_parser_rejects_corrupted_fields(
        ts in "[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}",
        machine in "M?[0-9a-z]{0,6}",
        desc in "[ -~]{0,20}",
    ) {
        let line = format!("{ts}\t{machine}\t{desc}");
        let _ = RecoveryLog::from_text(&line);
    }
}

#[test]
fn policy_file_is_human_readable_and_diff_stable() {
    let mut symptoms = SymptomCatalog::new();
    let et = ErrorType::new(symptoms.intern("errorHardware:EventLog"));
    let mut policy = TrainedPolicy::default();
    policy
        .q_mut()
        .set(RecoveryState::initial(et), RepairAction::Reimage, 12387.0);
    let text = policy_to_text(&policy, &symptoms);
    assert_eq!(
        text,
        format!("{POLICY_HEADER}\nerrorHardware:EventLog | - | REIMAGE | 12387 | 0\n")
    );
}

#[test]
fn truncated_policy_files_error_with_line_numbers() {
    let mut symptoms = SymptomCatalog::new();
    let text = format!("{POLICY_HEADER}\nerror:A | - | REIMAGE\n");
    let err = policy_from_text(&text, &mut symptoms).unwrap_err();
    assert_eq!(err.line(), 2);
}

#[test]
fn log_files_with_windows_line_endings_parse() {
    let text = "2006-01-01 00:00:00\tM0001\terror:A\r\n2006-01-01 00:10:00\tM0001\tSuccess\r\n";
    let mut log = RecoveryLog::from_text(text).unwrap();
    assert_eq!(log.split_processes().len(), 1);
}

// ---------------------------------------------------------------------
// Durable state dir: corruption properties
// ---------------------------------------------------------------------

/// Seed/windows baked into every seeded state dir below.
const DURABLE_SEED: u64 = 7;
const DURABLE_WINDOWS: usize = 4;

/// Builds a real three-checkpoint state directory the way the loop
/// does: one journal record and one checkpoint per window, with a
/// policy embedded from window 1 on. Returns the dir and the symptom
/// catalog the run interned against.
fn seeded_state_dir(tag: &str) -> (std::path::PathBuf, SymptomCatalog) {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "autorecover-persistence-{tag}-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut symptoms = SymptomCatalog::new();
    let et = ErrorType::new(symptoms.intern("error:Disk"));
    let mut policy = TrainedPolicy::default();
    policy
        .q_mut()
        .set_with_visits(RecoveryState::initial(et), RepairAction::Reboot, 42.5, 9);
    let mut durable = DurableLoop::open(&dir).expect("open state dir");
    let telemetry = Telemetry::disabled();
    let mut outcomes = Vec::new();
    for window in 0..3usize {
        let window_log = format!(
            "2006-01-0{d} 00:00:00\tM000{m}\terror:Disk\n\
             2006-01-0{d} 00:10:00\tM000{m}\tSuccess\n",
            d = window + 1,
            m = window + 1,
        );
        outcomes.push(recovery_core::pipeline::WindowOutcome {
            window,
            processes: 1,
            mttr: recovery_simlog::SimDuration::from_secs(600),
            learned_policy: window > 0,
            policy_entries: usize::from(window > 0),
            status: recovery_core::pipeline::WindowStatus::Trained,
        });
        durable
            .append_journal(window, &window_log)
            .expect("append journal record");
        durable
            .write_checkpoint(
                window,
                DURABLE_WINDOWS,
                DURABLE_SEED,
                &outcomes,
                (window > 0).then_some(&policy),
                &symptoms,
                &telemetry,
            )
            .expect("write checkpoint");
    }
    (dir, symptoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flipping any byte of the newest checkpoint is detected by fsck,
    /// and resume silently falls back to an older valid checkpoint
    /// instead of erroring or trusting the corrupt one.
    #[test]
    fn checkpoint_corruption_is_flagged_and_resume_falls_back(
        position in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let (dir, symptoms) = seeded_state_dir("ckpt-flip");
        let newest = dir.join("checkpoint-00000003.ckpt");
        let mut bytes = std::fs::read(&newest).unwrap();
        let index = position % bytes.len();
        bytes[index] ^= flip;
        std::fs::write(&newest, &bytes).unwrap();

        let report = fsck(&dir).expect("fsck runs");
        prop_assert!(!report.ok(), "fsck passed a corrupt checkpoint: {report:?}");

        let pool = WorkerPool::new(1);
        let mut durable = DurableLoop::open(&dir).unwrap();
        let resumed = durable
            .resume(&symptoms, DURABLE_SEED, DURABLE_WINDOWS, &pool)
            .expect("resume survives a corrupt newest checkpoint")
            .expect("older checkpoints are intact");
        prop_assert_eq!(resumed.seq, 2u64, "fallback skipped to the wrong checkpoint");
        prop_assert_eq!(resumed.next_window, 2);
        prop_assert_eq!(resumed.outcomes.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the journal anywhere is detected by fsck (torn tail
    /// or checkpoint/journal disagreement), and resume falls back to
    /// the newest checkpoint the surviving records can still back.
    #[test]
    fn journal_truncation_is_flagged_and_resume_falls_back(cut in 1usize..10_000) {
        let (dir, symptoms) = seeded_state_dir("journal-cut");
        let journal = dir.join("journal.log");
        let bytes = std::fs::read(&journal).unwrap();
        let cut = 1 + cut % (bytes.len() - 1);
        let kept = &bytes[..bytes.len() - cut];
        std::fs::write(&journal, kept).unwrap();

        let report = fsck(&dir).expect("fsck runs");
        prop_assert!(!report.ok(), "fsck passed a truncated journal: {report:?}");

        // The scanner recovers exactly the complete-record prefix.
        let scan = scan_journal(kept);
        prop_assert!(scan.records.len() < 3);
        prop_assert!(scan.valid_bytes <= kept.len() as u64);

        let pool = WorkerPool::new(1);
        let mut durable = DurableLoop::open(&dir).unwrap();
        let resumed = durable
            .resume(&symptoms, DURABLE_SEED, DURABLE_WINDOWS, &pool)
            .expect("resume survives a truncated journal");
        match resumed {
            Some(state) => {
                // The chosen checkpoint never claims more journal
                // records than actually survived.
                prop_assert!(state.seq as usize <= scan.records.len());
                prop_assert_eq!(state.accumulated().len(), state.seq as usize);
            }
            None => prop_assert_eq!(scan.records.len(), 0),
        }
        // Resume truncated the torn tail: a fresh scan is clean.
        let healed = std::fs::read(&journal).unwrap();
        prop_assert!(scan_journal(&healed).tail_error.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint file with arbitrary bytes appended or substituted
    /// never parses as valid: the checksum line is load-bearing.
    #[test]
    fn checkpoint_parser_is_panic_free_and_checksummed(text in "\\PC*") {
        let err = Checkpoint::from_text(&text);
        // Arbitrary text essentially never carries a matching FNV-1a
        // checksum line; if it somehow parses, it must round-trip.
        if let Ok(checkpoint) = err {
            prop_assert_eq!(Checkpoint::from_text(&checkpoint.to_text()).unwrap(), checkpoint);
        }
    }

    /// The journal scanner never panics and never claims bytes past the
    /// end of the input, whatever the bytes are.
    #[test]
    fn journal_scanner_is_panic_free(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let scan = scan_journal(&bytes);
        prop_assert!(scan.valid_bytes <= bytes.len() as u64);
        for (expected_index, record) in scan.records.iter().enumerate() {
            prop_assert_eq!(record.index, expected_index as u64);
        }
    }
}
