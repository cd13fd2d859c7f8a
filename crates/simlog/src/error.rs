//! Error types for the log data model.

use std::error::Error;
use std::fmt;

/// An error produced while parsing the textual recovery-log format.
///
/// Carries the offending fragment and, where known, the line number of the
/// entry being parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogError {
    kind: ParseLogErrorKind,
    fragment: String,
    line: Option<usize>,
}

/// The category of a [`ParseLogError`]: which part of the log line failed.
///
/// Exposed so lenient-ingestion quarantine buffers can keep per-kind
/// counters without string-matching [`std::fmt::Display`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParseLogErrorKind {
    /// The timestamp field did not parse.
    Timestamp,
    /// The machine-id field did not parse.
    Machine,
    /// A repair-action token was malformed.
    Action,
    /// The line did not have the three tab-separated fields of Table 1.
    Entry,
    /// The description was not a valid symptom (no `category:component`
    /// colon).
    Symptom,
}

impl ParseLogErrorKind {
    /// Every kind, in a fixed order ([`ParseLogErrorKind::index`] is the
    /// position in this array).
    pub const ALL: [ParseLogErrorKind; 5] = [
        ParseLogErrorKind::Timestamp,
        ParseLogErrorKind::Machine,
        ParseLogErrorKind::Action,
        ParseLogErrorKind::Entry,
        ParseLogErrorKind::Symptom,
    ];

    /// Number of kinds (the length of [`ParseLogErrorKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// This kind's position in [`ParseLogErrorKind::ALL`] — a stable
    /// dense index for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A stable lower-case label for metric names and structured events.
    pub fn label(self) -> &'static str {
        match self {
            ParseLogErrorKind::Timestamp => "timestamp",
            ParseLogErrorKind::Machine => "machine",
            ParseLogErrorKind::Action => "action",
            ParseLogErrorKind::Entry => "entry",
            ParseLogErrorKind::Symptom => "symptom",
        }
    }
}

impl ParseLogError {
    pub(crate) fn timestamp(fragment: &str) -> Self {
        Self::new(ParseLogErrorKind::Timestamp, fragment)
    }

    pub(crate) fn machine(fragment: &str) -> Self {
        Self::new(ParseLogErrorKind::Machine, fragment)
    }

    pub(crate) fn action(fragment: &str) -> Self {
        Self::new(ParseLogErrorKind::Action, fragment)
    }

    pub(crate) fn entry(fragment: &str) -> Self {
        Self::new(ParseLogErrorKind::Entry, fragment)
    }

    pub(crate) fn symptom(fragment: &str) -> Self {
        Self::new(ParseLogErrorKind::Symptom, fragment)
    }

    fn new(kind: ParseLogErrorKind, fragment: &str) -> Self {
        ParseLogError {
            kind,
            fragment: fragment.to_owned(),
            line: None,
        }
    }

    /// Attaches a 1-based line number to the error.
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// The 1-based line number of the failing entry, if known.
    pub fn line(&self) -> Option<usize> {
        self.line
    }

    /// The text fragment that failed to parse.
    pub fn fragment(&self) -> &str {
        &self.fragment
    }

    /// Which part of the line failed, as a typed category.
    pub fn kind(&self) -> ParseLogErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ParseLogErrorKind::Timestamp => "invalid timestamp",
            ParseLogErrorKind::Machine => "invalid machine id",
            ParseLogErrorKind::Action => "unknown repair action",
            ParseLogErrorKind::Entry => "malformed log entry",
            ParseLogErrorKind::Symptom => "invalid symptom description",
        };
        write!(f, "{what}: {:?}", self.fragment)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        Ok(())
    }
}

// `source()` keeps its `None` default on purpose: the parser classifies
// failures itself rather than wrapping an inner error, so the kind plus
// the fragment carry everything there is to know.
impl Error for ParseLogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_fragment_and_line() {
        let err = ParseLogError::timestamp("yesterday").at_line(7);
        let msg = err.to_string();
        assert!(msg.contains("invalid timestamp"), "{msg}");
        assert!(msg.contains("yesterday"), "{msg}");
        assert!(msg.contains("line 7"), "{msg}");
        assert_eq!(err.line(), Some(7));
        assert_eq!(err.fragment(), "yesterday");
    }

    #[test]
    fn kind_is_typed_not_stringly() {
        assert_eq!(
            ParseLogError::timestamp("x").kind(),
            ParseLogErrorKind::Timestamp
        );
        assert_eq!(
            ParseLogError::machine("x").kind(),
            ParseLogErrorKind::Machine
        );
        assert_eq!(ParseLogError::entry("x").kind(), ParseLogErrorKind::Entry);
        assert_eq!(
            ParseLogError::symptom("x").kind(),
            ParseLogErrorKind::Symptom
        );
        assert_eq!(ParseLogError::action("x").kind(), ParseLogErrorKind::Action);
        for (i, kind) in ParseLogErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(ParseLogErrorKind::COUNT, ParseLogErrorKind::ALL.len());
        // No inner error to chain to.
        use std::error::Error;
        assert!(ParseLogError::entry("x").source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseLogError>();
    }
}
