//! The recovery log: an ordered collection of entries plus the symptom
//! catalog, with the textual serialization format of the paper's Table 1
//! and the process-splitting step of §4.1.

use std::collections::{BTreeMap, HashMap};

use crate::codec::{self, LineReader};
use crate::error::ParseLogError;
use crate::event::{LogEntry, LogEvent};
use crate::machine::MachineId;
use crate::process::{ActionRecord, RecoveryProcess};
use crate::symptom::SymptomCatalog;
use crate::time::SimTime;

/// A recovery log: chronologically ordered `<time, machine, description>`
/// entries together with the catalog of symptom descriptions.
///
/// ```
/// use recovery_simlog::{RecoveryLog, LogEntry, LogEvent, MachineId, SimTime, RepairAction};
///
/// let mut log = RecoveryLog::new();
/// let flaky = log.symptoms_mut().intern("error:IFM-ISNWatchdog");
/// log.push(LogEntry { time: SimTime::from_secs(0), machine: MachineId::new(1),
///                     event: LogEvent::Symptom(flaky) });
/// log.push(LogEntry { time: SimTime::from_secs(60), machine: MachineId::new(1),
///                     event: LogEvent::Action(RepairAction::Reboot) });
/// log.push(LogEntry { time: SimTime::from_secs(1800), machine: MachineId::new(1),
///                     event: LogEvent::Success });
/// assert_eq!(log.split_processes().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    entries: Vec<LogEntry>,
    symptoms: SymptomCatalog,
    sorted: bool,
}

impl RecoveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RecoveryLog {
            entries: Vec::new(),
            symptoms: SymptomCatalog::new(),
            sorted: true,
        }
    }

    /// Creates an empty log that shares the given symptom catalog (used by
    /// the generator, which interns names while building the catalog).
    pub fn with_symptoms(symptoms: SymptomCatalog) -> Self {
        RecoveryLog {
            entries: Vec::new(),
            symptoms,
            sorted: true,
        }
    }

    /// A log of `entries` that are already in the order
    /// [`RecoveryLog::entries`] gives: sorted by `(time, machine)`, with
    /// entries of equal key in the order they happened.
    pub(crate) fn from_sorted_entries(entries: Vec<LogEntry>, symptoms: SymptomCatalog) -> Self {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].time, w[0].machine) <= (w[1].time, w[1].machine)),
            "entries out of (time, machine) order"
        );
        RecoveryLog {
            entries,
            symptoms,
            sorted: true,
        }
    }

    /// Appends an entry. Entries may arrive out of order; the log sorts
    /// lazily when read.
    pub fn push(&mut self, entry: LogEntry) {
        if let Some(last) = self.entries.last() {
            if (entry.time, entry.machine) < (last.time, last.machine) {
                self.sorted = false;
            }
        }
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in chronological order (sorting first if needed).
    pub fn entries(&mut self) -> &[LogEntry] {
        self.ensure_sorted();
        &self.entries
    }

    /// The symptom catalog.
    pub fn symptoms(&self) -> &SymptomCatalog {
        &self.symptoms
    }

    /// Mutable access to the symptom catalog, for interning new
    /// descriptions before pushing entries that reference them.
    pub fn symptoms_mut(&mut self) -> &mut SymptomCatalog {
        &mut self.symptoms
    }

    /// The time of the first and last entries, or `None` when empty.
    pub fn time_span(&mut self) -> Option<(SimTime, SimTime)> {
        self.ensure_sorted();
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => Some((a.time, b.time)),
            _ => None,
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries.sort_by_key(|e| (e.time, e.machine));
            self.sorted = true;
        }
    }

    /// Serializes the whole log in the textual format (one entry per
    /// line, tab-separated, as in the paper's Table 1), into a string
    /// allocated once at its exact length.
    pub fn to_text(&mut self) -> String {
        self.ensure_sorted();
        codec::render_lines(&self.entries, &self.symptoms)
    }

    /// Parses a textual log produced by [`RecoveryLog::to_text`] (or by any
    /// external monitoring system using the same format).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseLogError`], annotated with its 1-based line
    /// number. Blank lines and lines starting with `#` are skipped.
    pub fn from_text(text: &str) -> Result<Self, ParseLogError> {
        Self::from_text_with(text, SymptomCatalog::new(), |line, _, error| {
            Err(error.at_line(line))
        })
    }

    /// The one parse loop behind every reader of log text: strict and
    /// lenient ingestion and journal replay.
    ///
    /// Lines are parsed in order as by [`LogEntry::parse_line`], interning
    /// symptoms into `symptoms` (a catalog carried over from earlier
    /// text, or an empty one). Blank lines and lines starting with `#`
    /// are skipped. Each malformed line goes to `on_error` with its
    /// 1-based number, its text and the error: returning `Ok(())` skips
    /// the line, returning `Err` stops the parse with that error. A
    /// skipped line has already interned its symptom, if it has one.
    ///
    /// # Errors
    ///
    /// The first error `on_error` returns.
    pub fn from_text_with<E>(
        text: &str,
        symptoms: SymptomCatalog,
        mut on_error: impl FnMut(usize, &str, ParseLogError) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut log = RecoveryLog::with_symptoms(symptoms);
        // Reserved once, for as many entries as `text.lines()` yields:
        // growing by doubling would raise peak heap by up to the entry
        // vector's size at the last reallocation.
        log.entries.reserve(line_count(text));
        let mut reader = LineReader::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match reader.line(line, &mut log.symptoms) {
                Ok(entry) => log.push(entry),
                Err(error) => on_error(i + 1, line, error)?,
            }
        }
        Ok(log)
    }

    /// Audits the log: how many complete processes it contains, and what
    /// gets dropped on the floor by [`RecoveryLog::split_processes`] —
    /// stray actions or `Success` reports outside any process (e.g.
    /// operator-initiated maintenance), and machines with an unfinished
    /// process at the end of the log. Useful before trusting an external
    /// log as training data.
    pub fn audit(&mut self) -> LogAudit {
        self.ensure_sorted();
        let mut open: BTreeMap<MachineId, bool> = BTreeMap::new();
        let mut audit = LogAudit::default();
        for e in &self.entries {
            match e.event {
                LogEvent::Symptom(_) => {
                    open.entry(e.machine).or_insert(true);
                }
                LogEvent::Action(_) => {
                    if !open.contains_key(&e.machine) {
                        audit.stray_actions += 1;
                    }
                }
                LogEvent::Success => {
                    if open.remove(&e.machine).is_some() {
                        audit.complete_processes += 1;
                    } else {
                        audit.stray_successes += 1;
                    }
                }
            }
        }
        audit.unfinished_processes = open.len();
        audit
    }

    /// Splits the log into complete recovery processes, globally ordered by
    /// process start time (the order used for the paper's time-ordered
    /// train/test splits).
    ///
    /// Per machine, a process opens at the first symptom seen while the
    /// machine is healthy and closes at the next `Success`. Stray actions
    /// or `Success` entries outside a process, and trailing unfinished
    /// processes, are dropped — mirroring the paper, which only trains on
    /// processes that "end with successful recovery".
    pub fn split_processes(&mut self) -> Vec<RecoveryProcess> {
        self.ensure_sorted();
        let mut processes = extract_processes(&self.entries);
        processes.sort_by_key(|p| (p.start(), p.machine()));
        processes
    }
}

/// The number of lines `text.lines()` yields, from a count of `\n`
/// bytes taken eight bytes at a time.
fn line_count(text: &str) -> usize {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let words = text.as_bytes().chunks_exact(8);
    let tail = words.remainder().iter().filter(|&&b| b == b'\n').count();
    let newlines: usize = words
        .map(|word| {
            let word = u64::from_ne_bytes(word.try_into().expect("8-byte chunk"));
            let x = word ^ 0x0a0a_0a0a_0a0a_0a0a;
            // The high bit of each byte of `x` that is zero, and only those.
            (!(((x & LOW7) + LOW7) | x | LOW7)).count_ones() as usize
        })
        .sum();
    newlines + tail + usize::from(!text.is_empty() && !text.ends_with('\n'))
}

/// Runs the per-machine process state machine over chronologically sorted
/// entries, in one pass.
///
/// Per machine, a process opens at the first symptom seen while the
/// machine is healthy and closes at the next `Success`; machines never
/// interact, so each keeps its open process in its own slot of a table.
/// Processes are returned in completion (`Success`) order, which within
/// one machine is also chronological — the property the stable
/// `(start, machine)` sort of [`RecoveryLog::split_processes`] relies on.
pub fn extract_processes(entries: &[LogEntry]) -> Vec<RecoveryProcess> {
    let successes = entries
        .iter()
        .filter(|e| matches!(e.event, LogEvent::Success))
        .count();
    let mut processes = Vec::with_capacity(successes);
    let mut open = OpenProcesses::new(entries.len());
    for e in entries {
        let slot = open.slot(e.machine);
        match e.event {
            LogEvent::Symptom(s) => slot.symptoms.push((e.time, s)),
            // An action without a preceding symptom is a stray (e.g.
            // operator-initiated maintenance): ignore it.
            LogEvent::Action(a) if !slot.symptoms.is_empty() => slot.actions.push(ActionRecord {
                time: e.time,
                action: a,
            }),
            LogEvent::Action(_) => {}
            LogEvent::Success if !slot.symptoms.is_empty() => {
                let Open { symptoms, actions } = std::mem::take(slot);
                processes.push(RecoveryProcess::new(e.machine, symptoms, actions, e.time));
            }
            LogEvent::Success => {}
        }
    }
    processes
}

/// A machine's open process: its symptoms and actions so far. A machine
/// has an open process exactly when `symptoms` is non-empty.
#[derive(Default)]
struct Open {
    symptoms: Vec<(SimTime, crate::symptom::SymptomId)>,
    actions: Vec<ActionRecord>,
}

/// The open process of every machine. Machine ids below `dense_bound`
/// index a `Vec` directly; larger ones go through a map, since ids span
/// all of `u32` and a table sized by the largest id could need 2^32
/// slots. With the bound at the entry count, the table never holds more
/// slots than the log has entries.
struct OpenProcesses {
    dense: Vec<Open>,
    dense_bound: usize,
    sparse: HashMap<MachineId, Open>,
}

impl OpenProcesses {
    fn new(dense_bound: usize) -> Self {
        OpenProcesses {
            dense: Vec::new(),
            dense_bound,
            sparse: HashMap::new(),
        }
    }

    fn slot(&mut self, machine: MachineId) -> &mut Open {
        let index = machine.index() as usize;
        if index >= self.dense_bound {
            return self.sparse.entry(machine).or_default();
        }
        if index >= self.dense.len() {
            self.dense.resize_with(index + 1, Open::default);
        }
        &mut self.dense[index]
    }
}

/// The result of [`RecoveryLog::audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogAudit {
    /// Processes that run symptom → … → `Success`.
    pub complete_processes: usize,
    /// Repair actions recorded while no process was open on the machine.
    pub stray_actions: usize,
    /// `Success` reports with no open process to close.
    pub stray_successes: usize,
    /// Machines whose last process never reached `Success`.
    pub unfinished_processes: usize,
}

impl LogAudit {
    /// Whether the log is perfectly clean: everything belongs to a
    /// complete process.
    pub fn is_clean(&self) -> bool {
        self.stray_actions == 0 && self.stray_successes == 0 && self.unfinished_processes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::RepairAction;

    fn push(log: &mut RecoveryLog, secs: u64, machine: u32, event: LogEvent) {
        log.push(LogEntry {
            time: SimTime::from_secs(secs),
            machine: MachineId::new(machine),
            event,
        });
    }

    fn two_machine_log() -> RecoveryLog {
        let mut log = RecoveryLog::new();
        let s0 = log.symptoms_mut().intern("error:A");
        let s1 = log.symptoms_mut().intern("errorHardware:B");
        // Machine 1: full process.
        push(&mut log, 0, 1, LogEvent::Symptom(s0));
        push(&mut log, 100, 1, LogEvent::Action(RepairAction::TryNop));
        push(&mut log, 800, 1, LogEvent::Symptom(s1));
        push(&mut log, 900, 1, LogEvent::Action(RepairAction::Reboot));
        push(&mut log, 2700, 1, LogEvent::Success);
        // Machine 2: interleaved process.
        push(&mut log, 50, 2, LogEvent::Symptom(s1));
        push(&mut log, 300, 2, LogEvent::Action(RepairAction::Reboot));
        push(&mut log, 2000, 2, LogEvent::Success);
        log
    }

    #[test]
    fn splits_interleaved_machines() {
        let mut log = two_machine_log();
        let procs = log.split_processes();
        assert_eq!(procs.len(), 2);
        // Ordered by start time: machine 1 (t=0) before machine 2 (t=50).
        assert_eq!(procs[0].machine(), MachineId::new(1));
        assert_eq!(procs[1].machine(), MachineId::new(2));
        assert_eq!(procs[0].actions().len(), 2);
        assert_eq!(procs[1].actions().len(), 1);
    }

    #[test]
    fn consecutive_processes_on_one_machine() {
        let mut log = RecoveryLog::new();
        let s = log.symptoms_mut().intern("error:A");
        push(&mut log, 0, 1, LogEvent::Symptom(s));
        push(&mut log, 10, 1, LogEvent::Action(RepairAction::Reboot));
        push(&mut log, 100, 1, LogEvent::Success);
        push(&mut log, 5000, 1, LogEvent::Symptom(s));
        push(&mut log, 5010, 1, LogEvent::Action(RepairAction::Reimage));
        push(&mut log, 9000, 1, LogEvent::Success);
        let procs = log.split_processes();
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].final_action(), Some(RepairAction::Reboot));
        assert_eq!(procs[1].final_action(), Some(RepairAction::Reimage));
    }

    #[test]
    fn strays_and_unfinished_are_dropped() {
        let mut log = RecoveryLog::new();
        let s = log.symptoms_mut().intern("error:A");
        // Stray action and Success with no open process.
        push(&mut log, 0, 1, LogEvent::Action(RepairAction::Reboot));
        push(&mut log, 5, 1, LogEvent::Success);
        // Unfinished process at log end.
        push(&mut log, 100, 1, LogEvent::Symptom(s));
        push(&mut log, 110, 1, LogEvent::Action(RepairAction::TryNop));
        assert!(log.split_processes().is_empty());
    }

    #[test]
    fn out_of_order_pushes_are_sorted_lazily() {
        let mut log = RecoveryLog::new();
        let s = log.symptoms_mut().intern("error:A");
        push(&mut log, 100, 1, LogEvent::Success);
        push(&mut log, 0, 1, LogEvent::Symptom(s));
        push(&mut log, 10, 1, LogEvent::Action(RepairAction::Reboot));
        let procs = log.split_processes();
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].downtime().as_secs(), 100);
    }

    #[test]
    fn text_round_trip_preserves_processes() {
        let mut log = two_machine_log();
        let text = log.to_text();
        let mut parsed = RecoveryLog::from_text(&text).unwrap();
        assert_eq!(parsed.len(), log.len());
        let a = log.split_processes();
        let b = parsed.split_processes();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.machine(), y.machine());
            assert_eq!(x.downtime(), y.downtime());
            assert_eq!(x.actions(), y.actions());
            // Symptom *names* must match even though ids may be renumbered.
            let xn: Vec<_> = x
                .symptom_set()
                .iter()
                .map(|&s| log.symptoms().name(s))
                .collect();
            let yn: Vec<_> = y
                .symptom_set()
                .iter()
                .map(|&s| parsed.symptoms().name(s))
                .collect();
            assert_eq!(xn, yn);
        }
    }

    #[test]
    fn from_text_skips_blank_and_comment_lines() {
        let text = "# recovery log\n\n2006-01-01 00:00:00\tM0001\terror:A\n2006-01-01 00:10:00\tM0001\tSuccess\n";
        let mut log = RecoveryLog::from_text(text).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.split_processes().len(), 1);
    }

    #[test]
    fn from_text_reports_line_numbers() {
        let text = "2006-01-01 00:00:00\tM0001\terror:A\ngarbage line\n";
        let err = RecoveryLog::from_text(text).unwrap_err();
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn lenient_parse_interns_in_line_order() {
        use crate::error::ParseLogErrorKind as Kind;
        let text = "# error:Comment\n\n\
                    not a time\tM0001\terror:A\n\
                    2006-01-01 00:00:00\tM0001\tSuccess\n\
                    2006-01-01 00:00:01\tM0001\tREBOOT\n\
                    2006-01-01 00:00:02\tnode-9\terror:B\n\
                    2006-01-01 00:00:03\tM0001\tnocolon\n\
                    2006-01-01 00:00:04\tM0001\terror:C\n\
                    2006-01-01 00:00:05\tM0001\terror:A\n";
        let mut skipped = Vec::new();
        let log = RecoveryLog::from_text_with(text, SymptomCatalog::new(), |line, _, error| {
            skipped.push((line, error.kind()));
            Ok::<(), ParseLogError>(())
        })
        .unwrap();
        assert_eq!(
            skipped,
            [(3, Kind::Timestamp), (6, Kind::Machine), (7, Kind::Symptom)]
        );
        assert_eq!(log.len(), 4);
        // Skipped lines intern their symptoms where they appear; comment,
        // action and `Success` lines never intern.
        let names: Vec<&str> = log.symptoms().iter().map(|(_, name)| name).collect();
        assert_eq!(names, ["error:A", "error:B", "error:C"]);
        // A strict parse stops at the first malformed line.
        assert_eq!(RecoveryLog::from_text(text).unwrap_err().line(), Some(3));
    }

    #[test]
    fn from_text_sorts_out_of_order_lines() {
        let mut log = two_machine_log();
        let text = log.to_text();
        let reversed: String = text.lines().rev().map(|l| format!("{l}\n")).collect();
        let mut parsed = RecoveryLog::from_text(&reversed).unwrap();
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.split_processes().len(), 2);
    }

    #[test]
    fn from_text_with_carries_the_catalog_over() {
        let mut first = RecoveryLog::from_text("2006-01-01 00:00:00\tM0001\terror:A\n").unwrap();
        let carried = std::mem::take(first.symptoms_mut());
        let second = RecoveryLog::from_text_with(
            "2006-01-01 00:00:00\tM0001\terror:B\n2006-01-01 00:00:01\tM0001\terror:A\n",
            carried,
            |line, _, error| Err(error.at_line(line)),
        )
        .unwrap();
        let names: Vec<&str> = second.symptoms().iter().map(|(_, name)| name).collect();
        assert_eq!(names, ["error:A", "error:B"]);
    }

    #[test]
    fn extract_processes_partitions_by_machine() {
        // Machines never interact: extracting each machine's entries on
        // their own and merging gives the whole log's split.
        let mut log = two_machine_log();
        let all = log.split_processes();
        let entries = log.entries().to_vec();
        let mut partitioned: Vec<_> = (0..2u32)
            .flat_map(|s| {
                let part: Vec<LogEntry> = entries
                    .iter()
                    .filter(|e| e.machine.index() % 2 == s)
                    .copied()
                    .collect();
                extract_processes(&part)
            })
            .collect();
        partitioned.sort_by_key(|p| (p.start(), p.machine()));
        assert_eq!(partitioned, all);
    }

    #[test]
    fn split_handles_the_smallest_and_largest_machine_ids() {
        // The codec reads machine ids up to u32::MAX; a table indexed
        // by id alone would need 2^32 slots for this four-line log.
        let text = "2006-01-01 00:00:00\tM0000\terror:A\n\
                    2006-01-01 00:00:05\tM4294967295\terror:B\n\
                    2006-01-01 00:01:00\tM4294967295\tREBOOT\n\
                    2006-01-01 00:02:00\tM0000\tSuccess\n\
                    2006-01-01 00:03:00\tM4294967295\tSuccess\n";
        let mut log = RecoveryLog::from_text(text).unwrap();
        let a = log.symptoms().id("error:A").unwrap();
        let b = log.symptoms().id("error:B").unwrap();
        let t = SimTime::from_secs;
        assert_eq!(
            log.split_processes(),
            [
                RecoveryProcess::new(MachineId::new(0), vec![(t(0), a)], vec![], t(120)),
                RecoveryProcess::new(
                    MachineId::new(u32::MAX),
                    vec![(t(5), b)],
                    vec![ActionRecord {
                        time: t(60),
                        action: RepairAction::Reboot,
                    }],
                    t(180),
                ),
            ]
        );
    }

    #[test]
    fn audit_counts_completes_strays_and_unfinished() {
        let mut log = RecoveryLog::new();
        let s = log.symptoms_mut().intern("error:A");
        // Stray action + stray success.
        push(&mut log, 0, 1, LogEvent::Action(RepairAction::Reboot));
        push(&mut log, 5, 1, LogEvent::Success);
        // One complete process.
        push(&mut log, 100, 1, LogEvent::Symptom(s));
        push(&mut log, 110, 1, LogEvent::Action(RepairAction::TryNop));
        push(&mut log, 200, 1, LogEvent::Success);
        // One unfinished process on another machine.
        push(&mut log, 300, 2, LogEvent::Symptom(s));
        let audit = log.audit();
        assert_eq!(audit.complete_processes, 1);
        assert_eq!(audit.stray_actions, 1);
        assert_eq!(audit.stray_successes, 1);
        assert_eq!(audit.unfinished_processes, 1);
        assert!(!audit.is_clean());
        assert_eq!(audit.complete_processes, log.split_processes().len());
    }

    #[test]
    fn audit_of_generated_log_matches_split() {
        use crate::generator::{GeneratorConfig, LogGenerator};
        let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
        let audit = generated.log.audit();
        assert_eq!(
            audit.complete_processes,
            generated.log.split_processes().len()
        );
        assert_eq!(audit.stray_actions, 0);
        assert_eq!(audit.stray_successes, 0);
        // The simulator finishes every process it opens.
        assert_eq!(audit.unfinished_processes, 0);
        assert!(audit.is_clean());
    }

    #[test]
    fn line_count_matches_lines() {
        let mut text = String::new();
        for piece in [
            "",
            "\n",
            "a",
            "\r\n",
            "\t\n\n",
            "2006-01-01 00:00:00\tM0001\n",
            "\u{e9}\n",
        ] {
            for _ in 0..9 {
                text.push_str(piece);
                assert_eq!(line_count(&text), text.lines().count(), "{text:?}");
                let unterminated = format!("{text}x");
                assert_eq!(line_count(&unterminated), unterminated.lines().count());
            }
        }
        assert_eq!(line_count(""), 0);
    }

    #[test]
    fn time_span_covers_first_and_last() {
        let mut log = two_machine_log();
        let (a, b) = log.time_span().unwrap();
        assert_eq!(a, SimTime::from_secs(0));
        assert_eq!(b, SimTime::from_secs(2700));
        assert!(RecoveryLog::new().time_span().is_none());
    }
}
