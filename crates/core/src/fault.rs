//! Faultline: a deterministic, seed-driven fault-injection harness.
//!
//! The robustness machinery of this workspace — quarantining ingestion
//! ([`crate::ingest::parse_log_with_policy`]) and the degraded-mode
//! continuous loop ([`crate::pipeline::run_continuous_loop_controlled`])
//! — must be *exercised* by tests, not trusted. This module injects the
//! faults those paths are built to survive:
//!
//! * [`corrupt_lines`] — mangle a chosen field of randomly selected log
//!   lines so they fail to parse with a known [`ParseLogErrorKind`];
//! * [`truncate_text`] — cut the text off mid-line, simulating a
//!   partially written or torn log file;
//! * [`LoopFaultPlan`] — script per-window failures (empty windows,
//!   simulation/retraining panics, filter blackouts) into the continuous
//!   loop.
//!
//! Everything is a pure function of its seed: the same seed picks the
//! same lines and the same cut point. No clocks, no global RNG — faults
//! are as reproducible as the pipeline they attack, so a test can assert
//! byte-identical recovery across thread counts.

use std::collections::BTreeSet;

use recovery_simlog::ParseLogErrorKind;

/// A tiny splitmix64 stream — the same std-only generator style the
/// simulator uses, kept private here so fault plans never perturb any
/// simulation stream.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..bound` (`bound > 0`).
    fn next_index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Which field of a log line [`corrupt_lines`] mangles, and hence which
/// [`ParseLogErrorKind`] the strict parser reports for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Replace the timestamp field with non-temporal text
    /// (→ [`ParseLogErrorKind::Timestamp`]).
    Timestamp,
    /// Replace the machine-id field with an unprefixed token
    /// (→ [`ParseLogErrorKind::Machine`]).
    Machine,
    /// Drop the description field, destroying the three-field structure
    /// (→ [`ParseLogErrorKind::Entry`]).
    Structure,
    /// Replace the description with text that is neither an action, a
    /// `Success` report, nor a `category:component` symptom
    /// (→ [`ParseLogErrorKind::Symptom`]).
    Symptom,
}

impl CorruptionMode {
    /// The parse-error kind the strict parser reports for a line
    /// corrupted in this mode.
    pub fn expected_kind(self) -> ParseLogErrorKind {
        match self {
            CorruptionMode::Timestamp => ParseLogErrorKind::Timestamp,
            CorruptionMode::Machine => ParseLogErrorKind::Machine,
            CorruptionMode::Structure => ParseLogErrorKind::Entry,
            CorruptionMode::Symptom => ParseLogErrorKind::Symptom,
        }
    }
}

/// A corrupted log text plus the 1-based line numbers that were touched,
/// in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptedText {
    /// The text after fault injection.
    pub text: String,
    /// 1-based numbers of the lines that were corrupted or cut.
    pub lines: Vec<usize>,
}

/// Corrupts up to `count` distinct, randomly chosen content lines of a
/// recovery-log text in the given mode. Blank and `#`-comment lines are
/// never selected (the parser skips them anyway). The selection is a
/// pure function of `seed`; returns the new text and the touched 1-based
/// line numbers.
pub fn corrupt_lines(text: &str, seed: u64, count: usize, mode: CorruptionMode) -> CorruptedText {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let eligible: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, _)| i)
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut chosen = BTreeSet::new();
    // Distinct draws; bounded attempts keep this total even when
    // `count` approaches the number of eligible lines.
    let target = count.min(eligible.len());
    let mut attempts = 0;
    while chosen.len() < target && attempts < 64 * target.max(1) {
        chosen.insert(eligible[rng.next_index(eligible.len())]);
        attempts += 1;
    }
    for &i in &chosen {
        lines[i] = corrupt_one(&lines[i], mode);
    }
    CorruptedText {
        text: join_with_trailing_newline(&lines, text),
        lines: chosen.into_iter().map(|i| i + 1).collect(),
    }
}

/// Corrupts one `time\tmachine\tdescription` line in the given mode.
fn corrupt_one(line: &str, mode: CorruptionMode) -> String {
    let mut fields: Vec<&str> = line.splitn(3, '\t').collect();
    while fields.len() < 3 {
        fields.push("");
    }
    match mode {
        CorruptionMode::Timestamp => format!("not-a-time\t{}\t{}", fields[1], fields[2]),
        CorruptionMode::Machine => format!("{}\tnode-9\t{}", fields[0], fields[2]),
        // A valid time and machine with the third field torn off: the
        // parser runs out of fields and reports the entry malformed.
        CorruptionMode::Structure => format!("{}\t{}", fields[0], fields[1]),
        CorruptionMode::Symptom => format!("{}\t{}\tgibberish payload", fields[0], fields[1]),
    }
}

/// Cuts the text off inside the timestamp field of a randomly chosen
/// content line, simulating a torn or partially flushed log file. The
/// truncated tail line fails strict parsing with
/// [`ParseLogErrorKind::Timestamp`]. Returns the truncated text and the
/// 1-based number of the cut line. Texts with no content lines are
/// returned unchanged.
pub fn truncate_text(text: &str, seed: u64) -> CorruptedText {
    let lines: Vec<&str> = text.lines().collect();
    let eligible: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, _)| i)
        .collect();
    if eligible.is_empty() {
        return CorruptedText {
            text: text.to_owned(),
            lines: Vec::new(),
        };
    }
    let mut rng = SplitMix64::new(seed);
    let cut_line = eligible[rng.next_index(eligible.len())];
    let mut out = String::new();
    for line in &lines[..cut_line] {
        out.push_str(line);
        out.push('\n');
    }
    // Keep a strict prefix of the timestamp field ("2006-01-01 03:…"),
    // guaranteed too short to be a valid timestamp.
    let tail = lines[cut_line];
    let keep = tail.len().min(7);
    out.push_str(&tail[..keep]);
    CorruptedText {
        text: out,
        lines: vec![cut_line + 1],
    }
}

/// Re-joins mutated lines, preserving the original trailing newline.
fn join_with_trailing_newline(lines: &[String], original: &str) -> String {
    let mut out = lines.join("\n");
    if original.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// A script of per-window faults for the continuous loop, consumed by
/// [`crate::pipeline::run_continuous_loop_controlled`] via
/// [`crate::pipeline::ContinuousLoopConfig::faults`]. The default plan
/// injects nothing and costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopFaultPlan {
    empty_windows: BTreeSet<usize>,
    simulation_panics: BTreeSet<usize>,
    retrain_panics: BTreeSet<usize>,
    filter_blackouts: BTreeSet<usize>,
}

impl LoopFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self == &Self::default()
    }

    /// Discard the given window's simulated log, as if the cluster
    /// produced no observations.
    #[must_use]
    pub fn with_empty_window(mut self, window: usize) -> Self {
        self.empty_windows.insert(window);
        self
    }

    /// Panic inside the given window's simulation phase.
    #[must_use]
    pub fn with_simulation_panic(mut self, window: usize) -> Self {
        self.simulation_panics.insert(window);
        self
    }

    /// Panic inside the retraining step that runs *after* the given
    /// window.
    #[must_use]
    pub fn with_retrain_panic(mut self, window: usize) -> Self {
        self.retrain_panics.insert(window);
        self
    }

    /// Make the noise filter reject every accumulated process after the
    /// given window, leaving nothing to train on.
    #[must_use]
    pub fn with_filter_blackout(mut self, window: usize) -> Self {
        self.filter_blackouts.insert(window);
        self
    }

    /// Hook: does this window's simulation produce an empty log?
    pub fn empties_window(&self, window: usize) -> bool {
        self.empty_windows.contains(&window)
    }

    /// Hook: does this window's simulation phase panic?
    pub fn trips_simulation(&self, window: usize) -> bool {
        self.simulation_panics.contains(&window)
    }

    /// Hook: does the retraining step after this window panic?
    pub fn trips_retrain(&self, window: usize) -> bool {
        self.retrain_panics.contains(&window)
    }

    /// Hook: is the noise filter blacked out after this window?
    pub fn blacks_out_filter(&self, window: usize) -> bool {
        self.filter_blackouts.contains(&window)
    }
}

/// A named moment of persisting a window — inside
/// [`crate::durable::DurableLoop::append_journal`] or
/// [`crate::durable::DurableLoop::write_checkpoint`] — where a
/// [`CrashPlan`] can abort the process — the durability
/// harness's equivalent of a `kill -9` landing at the worst possible
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashPoint {
    /// Before anything is written for the window: the journal and
    /// checkpoints do not know the window happened.
    BeforeJournal,
    /// Half-way through the journal append: a torn, checksummed-short
    /// record is durable on disk.
    MidJournalAppend,
    /// After the journal append but before the checkpoint write: the
    /// journal is one record ahead of every checkpoint.
    BeforeCheckpoint,
    /// After the checkpoint rename: the window is fully durable and the
    /// crash loses nothing.
    AfterCheckpoint,
}

impl CrashPoint {
    /// Every crash point, in the order a window's persistence meets them.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::BeforeJournal,
        CrashPoint::MidJournalAppend,
        CrashPoint::BeforeCheckpoint,
        CrashPoint::AfterCheckpoint,
    ];

    /// The stable CLI/spec label.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::BeforeJournal => "before-journal",
            CrashPoint::MidJournalAppend => "mid-journal",
            CrashPoint::BeforeCheckpoint => "before-checkpoint",
            CrashPoint::AfterCheckpoint => "after-checkpoint",
        }
    }

    /// Parses a label back into a crash point.
    pub fn from_label(label: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// A script of deterministic process crashes for the durable loop: at
/// each listed `(point, window)` pair, the process aborts without
/// unwinding. The default plan never crashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    crashes: BTreeSet<(CrashPoint, usize)>,
}

impl CrashPlan {
    /// A plan that never crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan crashes anywhere at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// Abort at `point` while persisting the given window.
    #[must_use]
    pub fn with_crash(mut self, point: CrashPoint, window: usize) -> Self {
        self.crashes.insert((point, window));
        self
    }

    /// Hook: does the plan abort at this point for this window?
    pub fn trips(&self, point: CrashPoint, window: usize) -> bool {
        self.crashes.contains(&(point, window))
    }

    /// Parses a `point:window[,point:window...]` spec, e.g.
    /// `mid-journal:1,after-checkpoint:2`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed element.
    pub fn parse(spec: &str) -> Result<CrashPlan, String> {
        let mut plan = CrashPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (label, window) = part
                .split_once(':')
                .ok_or_else(|| format!("crash spec {part:?} is not point:window"))?;
            let point = CrashPoint::from_label(label.trim()).ok_or_else(|| {
                let known = CrashPoint::ALL.map(CrashPoint::label).join(", ");
                format!("unknown crash point {label:?} (known: {known})")
            })?;
            let window: usize = window
                .trim()
                .parse()
                .map_err(|_| format!("crash spec {part:?} has a non-numeric window"))?;
            plan = plan.with_crash(point, window);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# header\n\
        2006-01-01 00:00:10\tM0001\terror:Disk-SMART\n\
        2006-01-01 00:01:00\tM0001\tREBOOT\n\
        \n\
        2006-01-01 00:20:00\tM0001\tSuccess\n";

    #[test]
    fn corruption_is_deterministic_and_skips_comments() {
        let a = corrupt_lines(SAMPLE, 42, 2, CorruptionMode::Timestamp);
        let b = corrupt_lines(SAMPLE, 42, 2, CorruptionMode::Timestamp);
        assert_eq!(a, b);
        for &line in &a.lines {
            assert!(line >= 2, "comment line must never be chosen");
            assert_ne!(line, 4, "blank line must never be chosen");
        }
        assert!(a.text.ends_with('\n'), "trailing newline preserved");
    }

    #[test]
    fn each_mode_breaks_its_own_field() {
        for (mode, fragment) in [
            (CorruptionMode::Timestamp, "not-a-time"),
            (CorruptionMode::Machine, "node-9"),
            (CorruptionMode::Symptom, "gibberish payload"),
        ] {
            let out = corrupt_lines(SAMPLE, 7, 1, mode);
            assert_eq!(out.lines.len(), 1);
            assert!(out.text.contains(fragment), "{mode:?}: {}", out.text);
        }
        let out = corrupt_lines(SAMPLE, 7, 1, CorruptionMode::Structure);
        let touched = out.text.lines().nth(out.lines[0] - 1).unwrap();
        assert_eq!(
            touched.matches('\t').count(),
            1,
            "structure mode drops the third field: {touched:?}"
        );
    }

    #[test]
    fn truncation_cuts_inside_a_content_line() {
        let out = truncate_text(SAMPLE, 99);
        assert_eq!(out.lines.len(), 1);
        assert!(out.text.len() < SAMPLE.len());
        assert!(!out.text.ends_with('\n'));
        let tail = out.text.lines().last().unwrap();
        assert!(
            tail.len() <= 7,
            "torn tail must be a short prefix: {tail:?}"
        );
        assert_eq!(truncate_text(SAMPLE, 99), out, "deterministic");
        assert_eq!(truncate_text("# only\n\n", 1).lines, Vec::<usize>::new());
    }

    #[test]
    fn loop_plan_hooks_report_their_windows() {
        let plan = LoopFaultPlan::none()
            .with_empty_window(1)
            .with_simulation_panic(2)
            .with_retrain_panic(0)
            .with_filter_blackout(3);
        assert!(plan.empties_window(1) && !plan.empties_window(0));
        assert!(plan.trips_simulation(2) && !plan.trips_simulation(1));
        assert!(plan.trips_retrain(0) && !plan.trips_retrain(2));
        assert!(plan.blacks_out_filter(3) && !plan.blacks_out_filter(1));
        assert!(!plan.is_empty());
        assert!(LoopFaultPlan::default().is_empty());
    }

    #[test]
    fn crash_plan_parses_specs_and_round_trips_labels() {
        let plan = CrashPlan::parse("mid-journal:1, after-checkpoint:2").unwrap();
        assert!(plan.trips(CrashPoint::MidJournalAppend, 1));
        assert!(plan.trips(CrashPoint::AfterCheckpoint, 2));
        assert!(!plan.trips(CrashPoint::MidJournalAppend, 2));
        assert!(!plan.trips(CrashPoint::BeforeJournal, 1));
        assert!(CrashPlan::parse("").unwrap().is_empty());
        assert!(CrashPlan::parse("nope:1").unwrap_err().contains("unknown"));
        assert!(CrashPlan::parse("mid-journal")
            .unwrap_err()
            .contains("point:window"));
        assert!(CrashPlan::parse("mid-journal:x")
            .unwrap_err()
            .contains("non-numeric"));
        for point in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_label(point.label()), Some(point));
        }
    }
}
