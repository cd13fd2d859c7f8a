//! Log entries: the `<time, machine, description>` triples of the paper.

use std::fmt;

use crate::action::RepairAction;
use crate::codec::{self, LineReader};
use crate::error::ParseLogError;
use crate::machine::MachineId;
use crate::symptom::{SymptomCatalog, SymptomId};
use crate::time::SimTime;

/// The description field of a log entry (paper §4.1): an error symptom, a
/// repair action, or a report of successful recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogEvent {
    /// An error symptom was observed on the machine.
    Symptom(SymptomId),
    /// The recovery controller applied a repair action.
    Action(RepairAction),
    /// The machine was observed healthy again: the recovery process ends.
    Success,
}

impl LogEvent {
    /// Whether this event is an error symptom.
    pub fn is_symptom(&self) -> bool {
        matches!(self, LogEvent::Symptom(_))
    }

    /// Whether this event is a repair action.
    pub fn is_action(&self) -> bool {
        matches!(self, LogEvent::Action(_))
    }

    /// Whether this event ends a recovery process.
    pub fn is_success(&self) -> bool {
        matches!(self, LogEvent::Success)
    }
}

/// One `<time, machine, description>` entry of the recovery log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// When the event was recorded.
    pub time: SimTime,
    /// The monitored machine the event concerns.
    pub machine: MachineId,
    /// What happened.
    pub event: LogEvent,
}

impl LogEntry {
    /// Renders the entry as one tab-separated log line, resolving symptom
    /// ids through `symptoms`.
    ///
    /// # Panics
    ///
    /// Panics if the entry references a symptom id that is not interned in
    /// `symptoms`; entries and catalog always travel together in this
    /// crate, so a miss indicates a programming error.
    pub fn format_line(&self, symptoms: &SymptomCatalog) -> String {
        codec::render_line(self, symptoms)
    }

    /// Parses one tab-separated log line, interning any new symptom
    /// description into `symptoms`.
    ///
    /// The description is classified — and a symptom interned — before
    /// the time and machine fields are checked, so a line rejected for a
    /// bad timestamp or machine id still interns its symptom. Lenient
    /// ingestion relies on this: its `SymptomId`s follow the first
    /// appearance of each description in the text, skipped lines
    /// included.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseLogError`] when the line does not have three
    /// tab-separated fields or a field fails to parse. The time and
    /// machine fields must be exactly what [`LogEntry::format_line`]
    /// writes: no signs, no unpadded or over-padded numbers. A
    /// description is interpreted as `Success` if it is the literal
    /// `Success`, as an action if it matches an action token, and as a
    /// symptom otherwise — symptoms must contain a `:`
    /// (category:component) to be accepted.
    pub fn parse_line(line: &str, symptoms: &mut SymptomCatalog) -> Result<Self, ParseLogError> {
        LineReader::default().line(line, symptoms)
    }
}

impl fmt::Display for LogEvent {
    /// Formats without symptom names (ids only); use
    /// [`LogEntry::format_line`] for the full textual log format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEvent::Symptom(id) => write!(f, "symptom {id}"),
            LogEvent::Action(a) => write!(f, "action {a}"),
            LogEvent::Success => f.write_str("Success"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseLogErrorKind;

    fn entry(event: LogEvent) -> LogEntry {
        LogEntry {
            time: SimTime::from_secs(3 * 3600 + 7 * 60 + 12),
            machine: MachineId::new(423),
            event,
        }
    }

    #[test]
    fn formats_like_paper_table1() {
        let mut symptoms = SymptomCatalog::new();
        let id = symptoms.intern("error:IFM-ISNWatchdog");
        let line = entry(LogEvent::Symptom(id)).format_line(&symptoms);
        assert_eq!(line, "2006-01-01 03:07:12\tM0423\terror:IFM-ISNWatchdog");
    }

    #[test]
    fn action_and_success_round_trip() {
        let mut symptoms = SymptomCatalog::new();
        for event in [
            LogEvent::Action(RepairAction::Reboot),
            LogEvent::Action(RepairAction::Rma),
            LogEvent::Success,
        ] {
            let e = entry(event);
            let line = e.format_line(&symptoms);
            let parsed = LogEntry::parse_line(&line, &mut symptoms).unwrap();
            assert_eq!(parsed, e);
        }
    }

    #[test]
    fn symptom_round_trip_interns_consistently() {
        let mut write_catalog = SymptomCatalog::new();
        let id = write_catalog.intern("errorHardware:EventLog");
        let line = entry(LogEvent::Symptom(id)).format_line(&write_catalog);

        let mut read_catalog = SymptomCatalog::new();
        let parsed = LogEntry::parse_line(&line, &mut read_catalog).unwrap();
        match parsed.event {
            LogEvent::Symptom(sid) => {
                assert_eq!(read_catalog.name(sid), Some("errorHardware:EventLog"));
            }
            other => panic!("expected symptom, got {other:?}"),
        }
    }

    #[test]
    fn malformed_line_still_interns_its_symptom() {
        let mut catalog = SymptomCatalog::new();
        for line in [
            "not a time\tM0423\terror:BadTime",
            "2006-01-01 03:07:12\tbadmachine\terror:BadMachine",
        ] {
            assert!(
                LogEntry::parse_line(line, &mut catalog).is_err(),
                "{line:?}"
            );
        }
        assert_eq!(catalog.id("error:BadTime"), Some(SymptomId::new(0)));
        assert_eq!(catalog.id("error:BadMachine"), Some(SymptomId::new(1)));
        // Descriptions that are not symptoms never intern, whatever fails.
        for line in [
            "not a time\tM0423\tSuccess",
            "not a time\tM0423\tREBOOT",
            "not a time\tM0423\tnocolon",
            "2006-01-01 03:07:12\tM0423",
        ] {
            assert!(
                LogEntry::parse_line(line, &mut catalog).is_err(),
                "{line:?}"
            );
        }
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        let mut symptoms = SymptomCatalog::new();
        // The first field that fails names the error kind.
        for (line, kind) in [
            ("", ParseLogErrorKind::Timestamp),
            ("2006-01-01 03:07:12", ParseLogErrorKind::Entry),
            ("2006-01-01 03:07:12\tM0423", ParseLogErrorKind::Entry),
            ("not a time\tM0423\tSuccess", ParseLogErrorKind::Timestamp),
            (
                "not a time\tbadmachine\tnocolon",
                ParseLogErrorKind::Timestamp,
            ),
            (
                "2006-01-01 03:07:12\tbadmachine\tSuccess",
                ParseLogErrorKind::Machine,
            ),
            (
                "2006-01-01 03:07:12\tbadmachine\tnocolon",
                ParseLogErrorKind::Machine,
            ),
            (
                "2006-01-01 03:07:12\tM0423\tnocolon",
                ParseLogErrorKind::Symptom,
            ),
            (
                "2006-01-01 03:07:12\tM0423\tREBOOT ",
                ParseLogErrorKind::Symptom,
            ),
            // Fields the renderer never writes.
            (
                "+2006-01-01 03:07:12\tM0423\tSuccess",
                ParseLogErrorKind::Timestamp,
            ),
            (
                "2006-01-01 03:07:12\tM7\tSuccess",
                ParseLogErrorKind::Machine,
            ),
        ] {
            let err = LogEntry::parse_line(line, &mut symptoms).unwrap_err();
            assert_eq!(err.kind(), kind, "{line:?}");
        }
    }

    #[test]
    fn event_predicates() {
        assert!(LogEvent::Symptom(SymptomId::new(0)).is_symptom());
        assert!(LogEvent::Action(RepairAction::TryNop).is_action());
        assert!(LogEvent::Success.is_success());
        assert!(!LogEvent::Success.is_symptom());
    }

    #[test]
    #[should_panic(expected = "missing from catalog")]
    fn format_panics_on_foreign_symptom() {
        let symptoms = SymptomCatalog::new();
        let _ = entry(LogEvent::Symptom(SymptomId::new(5))).format_line(&symptoms);
    }
}
