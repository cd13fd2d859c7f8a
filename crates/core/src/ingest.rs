//! Log ingestion: one sequential parse, then one sequential pass that
//! splits the log into processes. Neither step depends on the thread
//! count, so neither do their output or their trace.
//!
//! * **Parse** (sequential, span `parse`). Every reader of log text runs
//!   the one loop of [`RecoveryLog::from_text_with`]: each line is
//!   classified once and symptoms are interned in first-appearance line
//!   order. On a 2-core host two parse shards took as long as one thread
//!   over the whole text, so parsing does not fan out, and neither its
//!   output nor its trace depends on the thread count.
//! * **Split** (sequential, span `split_shards`). One pass over the
//!   entries runs the per-machine state machine of
//!   [`extract_processes`], each machine's open process in its own table
//!   slot. The sort (span `merge_processes`) stable-sorts on
//!   `(start, machine)`, so the result is byte-identical to
//!   [`RecoveryLog::split_processes`]. The split used to fan out over
//!   eight machine shards, each scanning every entry; on a 2-core host
//!   the one pass is faster than the fan-out at any thread count.
//!
//! # Lenient ingestion
//!
//! Strict parsing ([`parse_log`], [`ingest`]) stops at the first
//! malformed line — the right behavior for trusted, generated fixtures,
//! and byte-identical to [`RecoveryLog::from_text`]. Field logs are
//! dirtier: torn writes, encoding damage, and foreign lines are routine,
//! and the paper's whole premise is learning from noisy logs. So
//! [`parse_log_with_policy`] additionally offers two lenient
//! [`ParseErrorPolicy`] modes that *skip* malformed lines instead of
//! failing:
//!
//! * [`ParseErrorPolicy::Skip`] counts skipped lines per
//!   [`ParseLogErrorKind`] and drops them;
//! * [`ParseErrorPolicy::Quarantine`] additionally retains the first
//!   [`QUARANTINE_CAPACITY`] offending lines (number, kind, truncated
//!   text) in a bounded [`QuarantineReport`] buffer for inspection.
//!
//! Both run the same loop as strict parsing and record each malformed
//! line into one report as they meet it. A skipped line whose third
//! field is a symptom still interns it, so `SymptomId`s follow first
//! appearance in the text whichever lines survive. Skipped lines are
//! surfaced through telemetry (`ingest.lines_skipped`,
//! `ingest.parse_error.<kind>`, `ingest.quarantined` counters and
//! `quarantine` events), so degraded ingestion is observable, never
//! silent.

use std::fmt;
use std::str::FromStr;

use recovery_simlog::{
    extract_processes, ParseLogError, ParseLogErrorKind, RecoveryLog, RecoveryProcess,
    SymptomCatalog,
};
use recovery_telemetry::{Event, Telemetry};

use crate::parallel::WorkerPool;

/// How log-reading entry points react to a malformed line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParseErrorPolicy {
    /// Stop at the first malformed line (the strict default, byte-
    /// identical to [`RecoveryLog::from_text`]).
    #[default]
    Fail,
    /// Skip malformed lines, counting them per kind.
    Skip,
    /// Skip malformed lines and retain the first
    /// [`QUARANTINE_CAPACITY`] of them for inspection.
    Quarantine,
}

impl FromStr for ParseErrorPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail" => Ok(ParseErrorPolicy::Fail),
            "skip" => Ok(ParseErrorPolicy::Skip),
            "quarantine" => Ok(ParseErrorPolicy::Quarantine),
            other => Err(format!(
                "unknown parse-error policy {other:?} (expected fail, skip, or quarantine)"
            )),
        }
    }
}

impl fmt::Display for ParseErrorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseErrorPolicy::Fail => "fail",
            ParseErrorPolicy::Skip => "skip",
            ParseErrorPolicy::Quarantine => "quarantine",
        })
    }
}

/// Maximum number of malformed lines a [`QuarantineReport`] retains;
/// lines past the cap are still counted ([`QuarantineReport::dropped`])
/// but their text is not kept, so a pathologically corrupt input cannot
/// balloon memory.
pub const QUARANTINE_CAPACITY: usize = 64;

/// Longest retained excerpt of a quarantined line, in characters.
const QUARANTINE_EXCERPT_CHARS: usize = 120;

/// One malformed line retained by [`ParseErrorPolicy::Quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the original text.
    pub line: usize,
    /// Which part of the line failed to parse.
    pub kind: ParseLogErrorKind,
    /// The offending text, truncated to a bounded excerpt.
    pub text: String,
}

/// What lenient ingestion skipped: per-kind counters plus (in quarantine
/// mode) a bounded buffer of the first offending lines. Strict runs
/// produce an empty ([`QuarantineReport::is_clean`]) report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    skipped: u64,
    counts: [u64; ParseLogErrorKind::COUNT],
    lines: Vec<QuarantinedLine>,
    dropped: u64,
}

impl QuarantineReport {
    /// Total malformed lines skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Malformed lines skipped for one error kind.
    pub fn count(&self, kind: ParseLogErrorKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The retained lines, ascending by line number (at most
    /// [`QUARANTINE_CAPACITY`]; empty under [`ParseErrorPolicy::Skip`]).
    pub fn lines(&self) -> &[QuarantinedLine] {
        &self.lines
    }

    /// Malformed lines that exceeded the quarantine buffer and were
    /// counted but not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing was skipped (always true for strict runs).
    pub fn is_clean(&self) -> bool {
        self.skipped == 0
    }

    fn record(&mut self, line: usize, kind: ParseLogErrorKind, text: &str, retain: bool) {
        self.skipped += 1;
        self.counts[kind.index()] += 1;
        if !retain {
            return;
        }
        if self.lines.len() < QUARANTINE_CAPACITY {
            self.lines.push(QuarantinedLine {
                line,
                kind,
                text: text.chars().take(QUARANTINE_EXCERPT_CHARS).collect(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Publishes the report's counters and retained lines through
    /// `telemetry`, once the parse is done.
    fn observe(&self, telemetry: &Telemetry) {
        if self.is_clean() {
            return;
        }
        if let Some(registry) = telemetry.registry() {
            registry.counter("ingest.lines_skipped").add(self.skipped);
            for kind in ParseLogErrorKind::ALL {
                let count = self.count(kind);
                if count > 0 {
                    registry
                        .counter(&format!("ingest.parse_error.{}", kind.label()))
                        .add(count);
                }
            }
            if !self.lines.is_empty() {
                registry
                    .counter("ingest.quarantined")
                    .add(self.lines.len() as u64);
            }
        }
        for line in &self.lines {
            telemetry.emit(
                &Event::new("quarantine")
                    .with("line", line.line)
                    .with("kind", line.kind.label())
                    .with("text", line.text.as_str()),
            );
        }
        telemetry.emit(
            &Event::new("quarantine_summary")
                .with("skipped", self.skipped)
                .with("retained", self.lines.len())
                .with("dropped", self.dropped),
        );
    }
}

/// Parses a textual recovery log in a `parse` span: exactly
/// [`RecoveryLog::from_text`].
///
/// `_pool` is unused, since parsing is sequential; it stays in the
/// signature for existing callers.
///
/// # Errors
///
/// Returns the first [`ParseLogError`], annotated with its 1-based line
/// number.
pub fn parse_log(
    text: &str,
    _pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<RecoveryLog, ParseLogError> {
    let _span = telemetry.span("parse");
    RecoveryLog::from_text(text)
}

/// [`parse_log`] with a [`ParseErrorPolicy`]: strict ([`ParseErrorPolicy::Fail`])
/// stops at the first malformed line exactly like [`parse_log`] and
/// returns an empty report. The lenient policies never fail on
/// malformed lines; they skip them and describe what was skipped in the
/// returned [`QuarantineReport`].
///
/// # Errors
///
/// Under [`ParseErrorPolicy::Fail`] only: the first [`ParseLogError`]
/// of the text, exactly as [`parse_log`].
pub fn parse_log_with_policy(
    text: &str,
    policy: ParseErrorPolicy,
    telemetry: &Telemetry,
) -> Result<(RecoveryLog, QuarantineReport), ParseLogError> {
    let retain = policy == ParseErrorPolicy::Quarantine;
    let mut report = QuarantineReport::default();
    let log = {
        let _span = telemetry.span("parse");
        RecoveryLog::from_text_with(text, SymptomCatalog::new(), |line, text, error| {
            if policy == ParseErrorPolicy::Fail {
                return Err(error.at_line(line));
            }
            report.record(line, error.kind(), text, retain);
            Ok(())
        })?
    };
    report.observe(telemetry);
    Ok((log, report))
}

/// Splits the log into complete recovery processes: one pass over the
/// entries (span `split_shards`), then the `(start, machine)` sort (span
/// `merge_processes`). Equivalent to [`RecoveryLog::split_processes`].
///
/// `_pool` is unused, since the split is sequential; it stays in the
/// signature for existing callers.
pub fn split_processes(
    log: &mut RecoveryLog,
    _pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Vec<RecoveryProcess> {
    let entries = log.entries();
    let mut processes = {
        let _span = telemetry.span("split_shards");
        extract_processes(entries)
    };
    let _span = telemetry.span("merge_processes");
    processes.sort_by_key(|p| (p.start(), p.machine()));
    processes
}

/// Parses a textual log and splits it into processes: the common
/// ingestion entry point of the CLI and benches.
///
/// # Errors
///
/// Returns the first [`ParseLogError`] of the text, as [`parse_log`].
pub fn ingest(
    text: &str,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<(RecoveryLog, Vec<RecoveryProcess>), ParseLogError> {
    let mut log = parse_log(text, pool, telemetry)?;
    let processes = split_processes(&mut log, pool, telemetry);
    Ok((log, processes))
}

/// Result of a policy-aware [`ingest_with_policy`] run.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The parsed log (malformed lines removed under lenient policies).
    pub log: RecoveryLog,
    /// Complete recovery processes extracted from the log.
    pub processes: Vec<RecoveryProcess>,
    /// What was skipped (empty under [`ParseErrorPolicy::Fail`]).
    pub quarantine: QuarantineReport,
}

/// [`ingest`] with a [`ParseErrorPolicy`]: parse under the policy, then
/// split into processes.
///
/// # Errors
///
/// Under [`ParseErrorPolicy::Fail`] only: the first [`ParseLogError`]
/// of the text.
pub fn ingest_with_policy(
    text: &str,
    policy: ParseErrorPolicy,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<IngestOutcome, ParseLogError> {
    let (mut log, quarantine) = parse_log_with_policy(text, policy, telemetry)?;
    let processes = split_processes(&mut log, pool, telemetry);
    Ok(IngestOutcome {
        log,
        processes,
        quarantine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::{GeneratorConfig, LogGenerator};

    fn sample_text() -> String {
        LogGenerator::new(GeneratorConfig::small())
            .generate()
            .log
            .to_text()
    }

    #[test]
    fn sharded_parse_matches_sequential() {
        let text = sample_text();
        let sequential = RecoveryLog::from_text(&text).unwrap();
        for threads in [1, 2, 3, 8] {
            let sharded = parse_log(&text, &WorkerPool::new(threads), &Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
            assert_eq!(sharded, sequential, "{threads} threads");
        }
    }

    #[test]
    fn sharded_split_matches_sequential() {
        let text = sample_text();
        let expected = RecoveryLog::from_text(&text).unwrap().split_processes();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let (_, processes) = ingest(&text, &pool, &Telemetry::disabled()).unwrap();
            assert_eq!(processes, expected, "{threads} threads");
        }
    }

    #[test]
    fn sharded_parse_reports_the_first_error() {
        let mut text = sample_text();
        let lines = text.lines().count();
        // Corrupt two lines; the earlier one must win for any pool.
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        corrupted[lines / 3] = "garbage".into();
        corrupted[2 * lines / 3] = "more garbage".into();
        text = corrupted.join("\n");
        let expected = RecoveryLog::from_text(&text).unwrap_err();
        for threads in [2, 4, 8] {
            let err = parse_log(&text, &WorkerPool::new(threads), &Telemetry::disabled())
                .expect_err("corrupted log must not parse");
            assert_eq!(err.line(), expected.line(), "{threads} threads");
            assert_eq!(err.line(), Some(lines / 3 + 1));
        }
    }

    #[test]
    fn policy_parses_from_cli_spellings() {
        assert_eq!("fail".parse(), Ok(ParseErrorPolicy::Fail));
        assert_eq!("skip".parse(), Ok(ParseErrorPolicy::Skip));
        assert_eq!("quarantine".parse(), Ok(ParseErrorPolicy::Quarantine));
        assert!("lenient".parse::<ParseErrorPolicy>().is_err());
        assert_eq!(ParseErrorPolicy::default(), ParseErrorPolicy::Fail);
        assert_eq!(ParseErrorPolicy::Quarantine.to_string(), "quarantine");
    }

    #[test]
    fn strict_policy_is_the_existing_parser() {
        let text = sample_text();
        let expected = RecoveryLog::from_text(&text).unwrap();
        let (log, report) =
            parse_log_with_policy(&text, ParseErrorPolicy::Fail, &Telemetry::disabled()).unwrap();
        assert_eq!(log, expected);
        assert!(report.is_clean());
    }

    #[test]
    fn lenient_parse_skips_and_reports_malformed_lines() {
        let text = sample_text();
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        let total = corrupted.len();
        corrupted[total / 4] = "garbage without tabs".into();
        corrupted[total / 2] = "also garbage".into();
        let corrupted = corrupted.join("\n");
        let (log, report) = parse_log_with_policy(
            &corrupted,
            ParseErrorPolicy::Quarantine,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(report.skipped(), 2);
        // A tab-less line dies parsing its first (timestamp) field.
        assert_eq!(report.count(ParseLogErrorKind::Timestamp), 2);
        assert_eq!(report.lines().len(), 2);
        assert_eq!(report.lines()[0].line, total / 4 + 1);
        assert_eq!(report.lines()[0].text, "garbage without tabs");
        assert_eq!(report.dropped(), 0);
        // Skip mode: same survivors and counters, no retained lines.
        let (skip_log, skip_report) =
            parse_log_with_policy(&corrupted, ParseErrorPolicy::Skip, &Telemetry::disabled())
                .unwrap();
        assert_eq!(skip_log, log);
        assert_eq!(skip_report.skipped(), 2);
        assert!(skip_report.lines().is_empty());
        assert_eq!(skip_report.dropped(), 0);
    }

    #[test]
    fn lenient_parse_of_a_clean_log_matches_strict() {
        let text = sample_text();
        let strict = RecoveryLog::from_text(&text).unwrap();
        for policy in [ParseErrorPolicy::Skip, ParseErrorPolicy::Quarantine] {
            let (log, report) =
                parse_log_with_policy(&text, policy, &Telemetry::disabled()).unwrap();
            assert_eq!(log, strict, "{policy}");
            assert!(report.is_clean(), "{policy}");
        }
    }

    #[test]
    fn quarantine_buffer_is_bounded() {
        let mut text = String::from("# all garbage\n");
        let total = super::QUARANTINE_CAPACITY + 20;
        for i in 0..total {
            text.push_str(&format!("junk line {i}\n"));
        }
        let (log, report) =
            parse_log_with_policy(&text, ParseErrorPolicy::Quarantine, &Telemetry::disabled())
                .unwrap();
        assert!(log.is_empty());
        assert_eq!(report.skipped(), total as u64);
        assert_eq!(report.lines().len(), super::QUARANTINE_CAPACITY);
        assert_eq!(report.dropped(), 20);
        // The retained lines are the first ones, in order.
        for (i, line) in report.lines().iter().enumerate() {
            assert_eq!(
                line.line,
                i + 2,
                "line numbers ascend from after the comment"
            );
        }
    }

    #[test]
    fn quarantine_telemetry_counts_by_kind() {
        let text = sample_text();
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        // A valid time and machine with no third field: Entry kind.
        corrupted[3] = "2006-01-01 00:00:00\tM0007".into();
        let corrupted = corrupted.join("\n");
        let telemetry = Telemetry::new();
        let outcome = ingest_with_policy(
            &corrupted,
            ParseErrorPolicy::Quarantine,
            &WorkerPool::new(2),
            &telemetry,
        )
        .unwrap();
        assert_eq!(outcome.quarantine.skipped(), 1);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters["ingest.lines_skipped"], 1);
        assert_eq!(snap.counters["ingest.parse_error.entry"], 1);
        assert_eq!(snap.counters["ingest.quarantined"], 1);
    }

    #[test]
    fn empty_and_comment_only_logs_ingest_cleanly() {
        for text in ["", "# only a comment\n\n"] {
            let pool = WorkerPool::new(4);
            let (log, processes) = ingest(text, &pool, &Telemetry::disabled()).unwrap();
            assert!(log.is_empty());
            assert!(processes.is_empty());
        }
    }
}
