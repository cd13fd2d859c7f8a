//! Crash-safe durability for the continuous loop: checkpointed state,
//! a window journal, and warm-start resume.
//!
//! A `--state-dir` turns the Figure-1 loop from a process-lifetime
//! computation into a restartable service. The directory holds three
//! kinds of file, all plain text, all checksummed:
//!
//! * **`FORMAT`** — a one-line format marker ([`STATE_DIR_FORMAT`]).
//! * **`checkpoint-<seq>.ckpt`** — one [`Checkpoint`] per completed
//!   window: loop position, the full counter snapshot, every window
//!   outcome so far, and the current policy as an embedded v2 policy
//!   file (exact values *and* visit counts — see [`crate::persist`]).
//!   Checkpoints are written atomically (temp file + fsync + rename +
//!   directory fsync) and end in an FNV-1a checksum line, so a torn or
//!   bit-flipped checkpoint is detected and skipped in favor of the
//!   previous one. History is retained: the fallback scan walks
//!   sequence numbers downward until a checksum verifies.
//! * **`journal.log`** — an append-only record per window holding the
//!   window's simulated log text, length-prefixed and checksummed.
//!   A crash mid-append leaves a torn tail; the reader stops at the
//!   first invalid record and resume truncates the tail away.
//!
//! # Resume determinism contract
//!
//! Resuming a killed `loop --state-dir DIR` run produces a final policy
//! and run report **byte-identical** to an uninterrupted run with the
//! same flags, for any `--threads` value. The mechanism: completed
//! windows are never re-simulated or re-trained — their observation
//! logs are replayed from the journal (re-parsed against the fault
//! catalog's own symptom catalog, so `SymptomId`s match the original
//! interning), the accumulated corpus is rebuilt window by window with
//! the same split and the same add-a-window step as the live loop, and
//! the in-flight policy is restored bit-exactly
//! from the checkpoint's v2 text. The loop then continues from the
//! first window the checkpoint does not cover; everything downstream is
//! the already-deterministic pipeline.
//!
//! [`fsck`] validates a state directory offline: checkpoint checksums,
//! sequence monotonicity, journal continuity, and cross-file agreement.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use recovery_simlog::{RecoveryLog, RecoveryProcess, SimDuration, SymptomCatalog};
use recovery_telemetry::Telemetry;

use crate::fault::{CrashPlan, CrashPoint};
use crate::parallel::WorkerPool;
use crate::persist::{policy_from_text, policy_to_text, ParsePolicyError};
use crate::pipeline::{Corpus, WindowOutcome, WindowStatus};
use crate::policy::TrainedPolicy;

/// Content of the `FORMAT` marker file in a state directory.
pub const STATE_DIR_FORMAT: &str = "# autorecover state dir v1";

/// Header line of a checkpoint file.
pub const CHECKPOINT_HEADER: &str = "# autorecover checkpoint v1";

/// File name of the window journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash rendered as 16 lowercase hex digits.
pub fn fingerprint(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Writes `bytes` to `dir/name` atomically: temp file, fsync, rename,
/// then an fsync of the directory so the rename itself is durable.
///
/// # Errors
///
/// Returns the first I/O error of the write/sync/rename sequence.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(name))?;
    // Directory fsync makes the rename durable; platforms where a
    // directory cannot be opened as a file simply skip it.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Crash here if the plan says so: announce the crash point on stderr
/// (so harnesses can assert *where* the process died) and abort without
/// unwinding — exactly what a `kill -9` looks like to the state dir.
fn maybe_crash(plan: &CrashPlan, point: CrashPoint, window: usize) {
    if plan.trips(point, window) {
        eprintln!("faultline: crashing at {} (window {window})", point.label());
        std::process::abort();
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// One durable snapshot of the loop: everything needed to continue from
/// `next_window` without re-simulating or re-training anything before it.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Monotonic sequence number (also in the file name).
    pub seq: u64,
    /// The first window the loop still has to run.
    pub next_window: usize,
    /// Total windows of the run this checkpoint belongs to.
    pub windows: usize,
    /// Master seed of the run (resume refuses a mismatch).
    pub seed: u64,
    /// How many journal records this checkpoint covers. Journal records
    /// beyond this (a crash between journal append and checkpoint
    /// write) are truncated on resume; re-simulation is deterministic.
    pub journal_records: u64,
    /// Full counter snapshot at checkpoint time, restored on resume so
    /// summaries and reports match an uninterrupted run.
    pub counters: BTreeMap<String, u64>,
    /// Every window outcome so far, in order.
    pub outcomes: Vec<WindowOutcome>,
    /// The current (last-good) policy as v2 policy text, if any window
    /// has completed a retraining step.
    pub policy_text: Option<String>,
}

impl Checkpoint {
    /// Serializes the checkpoint, ending with its checksum line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        out.push_str(&format!("seq {}\n", self.seq));
        out.push_str(&format!("next_window {}\n", self.next_window));
        out.push_str(&format!("windows {}\n", self.windows));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("journal_records {}\n", self.journal_records));
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for o in &self.outcomes {
            out.push_str(&format!(
                "outcome {} {} {} {} {} {}\n",
                o.window,
                o.processes,
                o.mttr.as_secs(),
                u8::from(o.learned_policy),
                o.policy_entries,
                o.status.label()
            ));
        }
        if let Some(policy) = &self.policy_text {
            out.push_str("policy_begin\n");
            out.push_str(policy);
            if !policy.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("policy_end\n");
        }
        let checksum = fingerprint(out.as_bytes());
        out.push_str(&format!("# checksum {checksum}\n"));
        out
    }

    /// Parses and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem — a missing
    /// or mismatched checksum line counts as corruption, not a parse
    /// nuance, so callers can fall back to an older checkpoint.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let Some(tail_start) = text.rfind("# checksum ") else {
            return Err("missing checksum line".into());
        };
        let covered = &text[..tail_start];
        let tail = text[tail_start..].trim_end();
        let claimed = tail
            .strip_prefix("# checksum ")
            .ok_or("malformed checksum line")?;
        let actual = fingerprint(covered.as_bytes());
        if claimed != actual {
            return Err(format!(
                "checksum mismatch: file says {claimed}, content is {actual}"
            ));
        }
        let mut lines = covered.lines();
        if lines.next() != Some(CHECKPOINT_HEADER) {
            return Err(format!("missing header {CHECKPOINT_HEADER:?}"));
        }
        let mut seq = None;
        let mut next_window = None;
        let mut windows = None;
        let mut seed = None;
        let mut journal_records = None;
        let mut counters = BTreeMap::new();
        let mut outcomes = Vec::new();
        let mut policy_text: Option<String> = None;
        while let Some(line) = lines.next() {
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("seq") => seq = parse_u64(fields.next(), "seq")?.into(),
                Some("next_window") => {
                    next_window = Some(parse_u64(fields.next(), "next_window")? as usize);
                }
                Some("windows") => windows = Some(parse_u64(fields.next(), "windows")? as usize),
                Some("seed") => seed = parse_u64(fields.next(), "seed")?.into(),
                Some("journal_records") => {
                    journal_records = parse_u64(fields.next(), "journal_records")?.into();
                }
                Some("counter") => {
                    let name = fields.next().ok_or("counter line missing name")?;
                    let value = parse_u64(fields.next(), "counter value")?;
                    counters.insert(name.to_owned(), value);
                }
                Some("outcome") => outcomes.push(parse_outcome(line)?),
                Some("policy_begin") => {
                    let mut policy = String::new();
                    loop {
                        match lines.next() {
                            Some("policy_end") => break,
                            Some(policy_line) => {
                                policy.push_str(policy_line);
                                policy.push('\n');
                            }
                            None => return Err("unterminated policy block".into()),
                        }
                    }
                    policy_text = Some(policy);
                }
                Some(other) => return Err(format!("unknown checkpoint field {other:?}")),
                None => continue,
            }
        }
        Ok(Checkpoint {
            seq: seq.ok_or("missing seq")?,
            next_window: next_window.ok_or("missing next_window")?,
            windows: windows.ok_or("missing windows")?,
            seed: seed.ok_or("missing seed")?,
            journal_records: journal_records.ok_or("missing journal_records")?,
            counters,
            outcomes,
            policy_text,
        })
    }

    /// Parses the embedded policy against (a clone of) `symptoms`.
    ///
    /// # Errors
    ///
    /// Returns the underlying policy parse error.
    pub fn policy(
        &self,
        symptoms: &mut SymptomCatalog,
    ) -> Result<Option<TrainedPolicy>, ParsePolicyError> {
        match &self.policy_text {
            None => Ok(None),
            Some(text) => policy_from_text(text, symptoms).map(Some),
        }
    }
}

fn parse_u64(field: Option<&str>, what: &str) -> Result<u64, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("invalid {what}"))
}

fn parse_outcome(line: &str) -> Result<WindowOutcome, String> {
    let mut fields = line.split_whitespace().skip(1);
    let window = parse_u64(fields.next(), "outcome window")? as usize;
    let processes = parse_u64(fields.next(), "outcome processes")? as usize;
    let mttr = SimDuration::from_secs(parse_u64(fields.next(), "outcome mttr")?);
    let learned_policy = match fields.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("invalid outcome learned flag".into()),
    };
    let policy_entries = parse_u64(fields.next(), "outcome entries")? as usize;
    let status = fields
        .next()
        .and_then(WindowStatus::from_label)
        .ok_or("invalid outcome status label")?;
    Ok(WindowOutcome {
        window,
        processes,
        mttr,
        learned_policy,
        policy_entries,
        status,
    })
}

fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:08}.ckpt")
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// One decoded journal record: a window index and its observation-log
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The 0-based window this record belongs to (== its position).
    pub index: u64,
    /// The window's simulated recovery-log text (may be empty for a
    /// faulted/empty window).
    pub payload: String,
    /// Byte offset of the first byte *after* this record in the file.
    pub end_offset: u64,
}

/// The result of scanning a journal file: the valid record prefix plus
/// what (if anything) stopped the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Records that decoded and checksummed cleanly, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (where truncation would cut).
    pub valid_bytes: u64,
    /// Why scanning stopped early: `None` for a clean end-of-file, or a
    /// description of the torn/corrupt tail.
    pub tail_error: Option<String>,
}

/// Encodes one journal record: a `r <index> <len> <checksum>` header
/// line, the payload bytes, and a closing newline. The checksum covers
/// the payload only; the length prefix is what makes a torn tail
/// detectable.
pub fn journal_record_bytes(index: u64, payload: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_journal_record(&mut bytes, index, payload).expect("writing to a Vec cannot fail");
    bytes
}

/// Writes the record [`journal_record_bytes`] encodes straight to `out`,
/// in three writes — header, payload, newline — so the payload is never
/// copied into a buffer of its own.
///
/// # Errors
///
/// The first error of a write.
pub fn write_journal_record(out: &mut impl Write, index: u64, payload: &str) -> io::Result<()> {
    let header = format!(
        "r {index} {} {}\n",
        payload.len(),
        fingerprint(payload.as_bytes())
    );
    out.write_all(header.as_bytes())?;
    out.write_all(payload.as_bytes())?;
    out.write_all(b"\n")
}

/// Scans journal bytes into the valid record prefix. Indices must be
/// contiguous from 0; the first violation, bad checksum, or truncated
/// record stops the scan (everything before it stays valid).
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut tail_error = None;
    while pos < bytes.len() {
        let header_end = match bytes[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => pos + i,
            None => {
                tail_error = Some(format!("truncated record header at byte {pos}"));
                break;
            }
        };
        let header = match std::str::from_utf8(&bytes[pos..header_end]) {
            Ok(h) => h,
            Err(_) => {
                tail_error = Some(format!("non-utf8 record header at byte {pos}"));
                break;
            }
        };
        let mut fields = header.split_whitespace();
        let parsed = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some("r"), Some(index), Some(len), Some(checksum)) => index
                .parse::<u64>()
                .ok()
                .zip(len.parse::<usize>().ok())
                .map(|(index, len)| (index, len, checksum)),
            _ => None,
        };
        let Some((index, len, checksum)) = parsed else {
            tail_error = Some(format!("malformed record header at byte {pos}: {header:?}"));
            break;
        };
        if index != records.len() as u64 {
            tail_error = Some(format!(
                "record index {index} breaks continuity (expected {})",
                records.len()
            ));
            break;
        }
        let payload_start = header_end + 1;
        let payload_end = payload_start + len;
        if payload_end + 1 > bytes.len() {
            // Not enough bytes for payload + closing newline.
            tail_error = Some(format!("truncated record {index} (payload cut short)"));
            break;
        }
        let payload_bytes = &bytes[payload_start..payload_end];
        if bytes[payload_end] != b'\n' {
            tail_error = Some(format!("record {index} missing terminator"));
            break;
        }
        if fingerprint(payload_bytes) != checksum {
            tail_error = Some(format!("record {index} checksum mismatch"));
            break;
        }
        let payload = match std::str::from_utf8(payload_bytes) {
            Ok(p) => p.to_owned(),
            Err(_) => {
                tail_error = Some(format!("record {index} payload is not utf-8"));
                break;
            }
        };
        pos = payload_end + 1;
        records.push(JournalRecord {
            index,
            payload,
            end_offset: pos as u64,
        });
    }
    let valid_bytes = records.last().map_or(0, |r| r.end_offset);
    JournalScan {
        records,
        valid_bytes,
        tail_error,
    }
}

// ---------------------------------------------------------------------
// The durable loop state
// ---------------------------------------------------------------------

/// Everything a resumed loop starts from, rebuilt by
/// [`DurableLoop::resume`].
#[derive(Debug)]
pub struct ResumedState {
    /// The checkpoint the resume is based on.
    pub seq: u64,
    /// The first window the loop still has to run.
    pub next_window: usize,
    /// Outcomes of the already-completed windows.
    pub outcomes: Vec<WindowOutcome>,
    /// The accumulated training corpus, rebuilt from the journal window
    /// by window, as the live loop built it.
    pub(crate) corpus: Corpus,
    /// The current (last-good) policy, restored bit-exactly.
    pub policy: Option<TrainedPolicy>,
    /// Counter values at checkpoint time, to re-apply to a fresh
    /// registry.
    pub counters: BTreeMap<String, u64>,
}

impl ResumedState {
    /// The accumulated training corpus, in `(start, machine)` order.
    pub fn accumulated(&self) -> &[RecoveryProcess] {
        self.corpus.processes()
    }
}

/// A live handle on a state directory: journal appends and checkpoint
/// writes during the run, resume/fsck before it.
#[derive(Debug)]
pub struct DurableLoop {
    dir: PathBuf,
    crash: CrashPlan,
    journal_records: u64,
    last_seq: u64,
}

impl DurableLoop {
    /// Opens (creating if needed) a state directory.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created, or exists
    /// with a different `FORMAT` marker.
    pub fn open(dir: &Path) -> Result<DurableLoop, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let format_path = dir.join("FORMAT");
        match fs::read_to_string(&format_path) {
            Ok(existing) => {
                if existing.trim() != STATE_DIR_FORMAT {
                    return Err(format!(
                        "{} is not an autorecover state dir (FORMAT says {:?})",
                        dir.display(),
                        existing.trim()
                    ));
                }
            }
            Err(_) => {
                write_atomic(dir, "FORMAT", format!("{STATE_DIR_FORMAT}\n").as_bytes())
                    .map_err(|e| format!("writing {}: {e}", format_path.display()))?;
            }
        }
        Ok(DurableLoop {
            dir: dir.to_path_buf(),
            crash: CrashPlan::none(),
            journal_records: 0,
            last_seq: 0,
        })
    }

    /// Installs a deterministic crash plan (tests and the crash-matrix
    /// harness only).
    #[must_use]
    pub fn with_crash_plan(mut self, crash: CrashPlan) -> Self {
        self.crash = crash;
        self
    }

    /// The state directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint sequence numbers present on disk, ascending (whether
    /// or not they verify).
    fn checkpoint_seqs(&self) -> Vec<u64> {
        let mut seqs = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(seq) = name
                    .strip_prefix("checkpoint-")
                    .and_then(|s| s.strip_suffix(".ckpt"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        seqs
    }

    /// Loads the newest checkpoint whose checksum verifies, walking the
    /// sequence downward past corrupt ones. `None` when no checkpoint
    /// survives.
    pub fn best_checkpoint(&self) -> Option<Checkpoint> {
        for seq in self.checkpoint_seqs().into_iter().rev() {
            let path = self.dir.join(checkpoint_file_name(seq));
            if let Ok(text) = fs::read_to_string(&path) {
                if let Ok(checkpoint) = Checkpoint::from_text(&text) {
                    return Some(checkpoint);
                }
            }
        }
        None
    }

    /// Validates that this state dir belongs to a run with the given
    /// seed and window count before resuming into it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch.
    pub fn preflight(&self, seed: u64, windows: usize) -> Result<(), String> {
        if let Some(checkpoint) = self.best_checkpoint() {
            if checkpoint.seed != seed {
                return Err(format!(
                    "state dir {} was recorded with --seed {}, not {seed}",
                    self.dir.display(),
                    checkpoint.seed
                ));
            }
            if checkpoint.windows != windows {
                return Err(format!(
                    "state dir {} was recorded with --windows {}, not {windows}",
                    self.dir.display(),
                    checkpoint.windows
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds the loop state from the newest valid checkpoint and the
    /// journal, truncating any journal tail the checkpoint does not
    /// cover. Returns `None` when the directory holds no usable
    /// checkpoint (fresh start; a torn journal is truncated to empty).
    ///
    /// Replay re-parses each journal record with the one log parser,
    /// against a clone of `symptoms` carried from record to record —
    /// every simulated description already exists there, so
    /// `SymptomId`s match the original run's interning and ranking
    /// tie-breaks stay identical.
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable files or a seed/window mismatch
    /// (see [`DurableLoop::preflight`]).
    pub fn resume(
        &mut self,
        symptoms: &SymptomCatalog,
        seed: u64,
        windows: usize,
        pool: &WorkerPool,
    ) -> Result<Option<ResumedState>, String> {
        self.preflight(seed, windows)?;
        let journal_path = self.dir.join(JOURNAL_FILE);
        let journal_bytes = match File::open(&journal_path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)
                    .map_err(|e| format!("reading {}: {e}", journal_path.display()))?;
                bytes
            }
            Err(_) => Vec::new(),
        };
        let scan = scan_journal(&journal_bytes);
        // Newest checkpoint the surviving journal can actually back.
        let mut chosen: Option<Checkpoint> = None;
        for seq in self.checkpoint_seqs().into_iter().rev() {
            let path = self.dir.join(checkpoint_file_name(seq));
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(checkpoint) = Checkpoint::from_text(&text) else {
                continue;
            };
            if checkpoint.journal_records as usize <= scan.records.len() {
                chosen = Some(checkpoint);
                break;
            }
        }
        let Some(checkpoint) = chosen else {
            // Nothing to resume from: reset the journal so the fresh
            // run's appends start at record 0.
            if !journal_bytes.is_empty() {
                fs::write(&journal_path, b"")
                    .map_err(|e| format!("resetting {}: {e}", journal_path.display()))?;
            }
            self.journal_records = 0;
            self.last_seq = 0;
            return Ok(None);
        };
        // Drop journal records (and torn tails) beyond the checkpoint.
        let keep = checkpoint.journal_records as usize;
        let keep_bytes = if keep == 0 {
            0
        } else {
            scan.records[keep - 1].end_offset
        };
        if keep_bytes < journal_bytes.len() as u64 {
            let f = OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(|e| format!("opening {}: {e}", journal_path.display()))?;
            f.set_len(keep_bytes)
                .map_err(|e| format!("truncating {}: {e}", journal_path.display()))?;
            f.sync_all().ok();
        }
        // Replay the covered records into the accumulated corpus with
        // the same split and add-a-window step the live loop uses.
        // Telemetry stays disabled here: the original run's counters are
        // restored from the checkpoint, not re-earned.
        let replay_telemetry = Telemetry::disabled();
        let mut catalog_symptoms = symptoms.clone();
        let mut corpus = Corpus::default();
        for record in &scan.records[..keep] {
            let mut log =
                RecoveryLog::from_text_with(&record.payload, catalog_symptoms, |line, _, e| {
                    Err(format!("journal record {}: line {line}: {e}", record.index))
                })?;
            let processes = crate::ingest::split_processes(&mut log, pool, &replay_telemetry);
            catalog_symptoms = std::mem::take(log.symptoms_mut());
            corpus.add_window(processes);
        }
        let policy = checkpoint
            .policy(&mut catalog_symptoms)
            .map_err(|e| format!("checkpoint {} policy: {e}", checkpoint.seq))?;
        self.journal_records = checkpoint.journal_records;
        self.last_seq = checkpoint.seq;
        Ok(Some(ResumedState {
            seq: checkpoint.seq,
            next_window: checkpoint.next_window,
            outcomes: checkpoint.outcomes.clone(),
            corpus,
            policy,
            counters: checkpoint.counters.clone(),
        }))
    }

    /// Appends window `window`'s observation log to the journal and
    /// makes it durable. The crash points before the append and
    /// mid-append (a torn record fsynced to disk) fire here.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; the caller treats persistence errors
    /// as fatal (a durability run that cannot persist must not pretend
    /// to).
    pub fn append_journal(&mut self, window: usize, window_log: &str) -> io::Result<()> {
        maybe_crash(&self.crash, CrashPoint::BeforeJournal, window);
        let mut journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(JOURNAL_FILE))?;
        if self.crash.trips(CrashPoint::MidJournalAppend, window) {
            // Write a torn record — header plus roughly half the payload
            // — make it durable, then die. The scanner must stop here
            // and resume must truncate it away.
            let record = journal_record_bytes(self.journal_records, window_log);
            journal.write_all(&record[..record.len() / 2])?;
            journal.sync_all()?;
            maybe_crash(&self.crash, CrashPoint::MidJournalAppend, window);
        }
        write_journal_record(&mut journal, self.journal_records, window_log)?;
        journal.sync_all()?;
        self.journal_records += 1;
        Ok(())
    }

    /// Writes the checkpoint that completes window `window`, atomically,
    /// covering every journal record appended so far. The crash points
    /// before and after the checkpoint fire here.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, as [`DurableLoop::append_journal`].
    #[allow(clippy::too_many_arguments)]
    pub fn write_checkpoint(
        &mut self,
        window: usize,
        windows: usize,
        seed: u64,
        outcomes: &[WindowOutcome],
        policy: Option<&TrainedPolicy>,
        symptoms: &SymptomCatalog,
        telemetry: &Telemetry,
    ) -> io::Result<()> {
        maybe_crash(&self.crash, CrashPoint::BeforeCheckpoint, window);
        // The write counter is bumped *before* the counter snapshot is
        // captured, so a checkpoint's own write is part of its snapshot
        // and resumed runs end with the same totals as uninterrupted
        // ones.
        if let Some(registry) = telemetry.registry() {
            registry.counter("durable.checkpoint.written").inc();
        }
        let checkpoint = Checkpoint {
            seq: self.last_seq + 1,
            next_window: window + 1,
            windows,
            seed,
            journal_records: self.journal_records,
            counters: telemetry.snapshot().map(|s| s.counters).unwrap_or_default(),
            outcomes: outcomes.to_vec(),
            policy_text: policy.map(|p| policy_to_text(p, symptoms)),
        };
        write_atomic(
            &self.dir,
            &checkpoint_file_name(checkpoint.seq),
            checkpoint.to_text().as_bytes(),
        )?;
        self.last_seq = checkpoint.seq;
        maybe_crash(&self.crash, CrashPoint::AfterCheckpoint, window);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------

/// The verdict on one checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointVerdict {
    /// File name inside the state dir.
    pub file: String,
    /// Parsed metadata when the file verifies, the failure otherwise.
    pub result: Result<CheckpointSummary, String>,
}

/// Metadata of one verified checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Sequence number from the file content.
    pub seq: u64,
    /// First uncompleted window.
    pub next_window: usize,
    /// Journal records covered.
    pub journal_records: u64,
    /// Whether a policy block is embedded.
    pub has_policy: bool,
}

/// The full offline validation of a state directory.
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// One verdict per checkpoint file, ascending by sequence.
    pub checkpoints: Vec<CheckpointVerdict>,
    /// Valid journal records found.
    pub journal_records: usize,
    /// The journal's torn/corrupt tail, if any.
    pub journal_tail_error: Option<String>,
    /// Every problem found, human-readable. Empty means healthy.
    pub issues: Vec<String>,
}

impl FsckReport {
    /// Whether the state directory is fully healthy.
    pub fn ok(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Validates a state directory offline: the `FORMAT` marker, every
/// checkpoint's checksum and sequence monotonicity, journal record
/// continuity and checksums, and that the newest valid checkpoint is
/// backed by enough journal records.
///
/// # Errors
///
/// Returns a message when `dir` is not a state directory at all; every
/// recoverable anomaly lands in [`FsckReport::issues`] instead.
pub fn fsck(dir: &Path) -> Result<FsckReport, String> {
    let format_path = dir.join("FORMAT");
    let format = fs::read_to_string(&format_path)
        .map_err(|e| format!("{} is not a state dir (no FORMAT file: {e})", dir.display()))?;
    let mut issues = Vec::new();
    if format.trim() != STATE_DIR_FORMAT {
        issues.push(format!(
            "FORMAT says {:?}, expected {STATE_DIR_FORMAT:?}",
            format.trim()
        ));
    }
    let probe = DurableLoop {
        dir: dir.to_path_buf(),
        crash: CrashPlan::none(),
        journal_records: 0,
        last_seq: 0,
    };
    let mut checkpoints = Vec::new();
    let mut last: Option<CheckpointSummary> = None;
    let mut newest_valid: Option<CheckpointSummary> = None;
    for seq in probe.checkpoint_seqs() {
        let file = checkpoint_file_name(seq);
        let result = fs::read_to_string(dir.join(&file))
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| Checkpoint::from_text(&text))
            .and_then(|c| {
                if c.seq != seq {
                    return Err(format!("file name says seq {seq}, content says {}", c.seq));
                }
                Ok(CheckpointSummary {
                    seq: c.seq,
                    next_window: c.next_window,
                    journal_records: c.journal_records,
                    has_policy: c.policy_text.is_some(),
                })
            });
        match &result {
            Ok(summary) => {
                if let Some(prev) = last {
                    if summary.next_window < prev.next_window
                        || summary.journal_records < prev.journal_records
                    {
                        issues.push(format!(
                            "checkpoint {} regresses (next_window {} < {} or journal_records {} < {})",
                            summary.seq,
                            summary.next_window,
                            prev.next_window,
                            summary.journal_records,
                            prev.journal_records
                        ));
                    }
                }
                last = Some(*summary);
                newest_valid = Some(*summary);
            }
            Err(e) => issues.push(format!("{file}: {e}")),
        }
        checkpoints.push(CheckpointVerdict { file, result });
    }
    let journal_path = dir.join(JOURNAL_FILE);
    let journal_bytes = fs::read(&journal_path).unwrap_or_default();
    let scan = scan_journal(&journal_bytes);
    if let Some(tail) = &scan.tail_error {
        issues.push(format!("journal: {tail}"));
    }
    if let Some(newest) = newest_valid {
        if newest.journal_records as usize > scan.records.len() {
            issues.push(format!(
                "checkpoint {} claims {} journal records, journal has {}",
                newest.seq,
                newest.journal_records,
                scan.records.len()
            ));
        }
    }
    Ok(FsckReport {
        checkpoints,
        journal_records: scan.records.len(),
        journal_tail_error: scan.tail_error,
        issues,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autorecover-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Persists window `window` of a seed-7 run of `windows` windows as
    /// the loop does: its journal record, then its checkpoint.
    fn record(durable: &mut DurableLoop, window: usize, windows: usize, log: &str) {
        durable.append_journal(window, log).unwrap();
        durable
            .write_checkpoint(
                window,
                windows,
                7,
                &[],
                None,
                &SymptomCatalog::new(),
                &Telemetry::disabled(),
            )
            .unwrap();
    }

    #[test]
    fn appended_records_are_the_encoded_bytes() {
        let dir = temp_dir("append");
        let mut durable = DurableLoop::open(&dir).unwrap();
        let payloads = ["2006-01-01 00:00:00\tM0001\terror:A\n", ""];
        let mut expected = Vec::new();
        for (window, payload) in payloads.iter().enumerate() {
            durable.append_journal(window, payload).unwrap();
            expected.extend(journal_record_bytes(window as u64, payload));
        }
        assert_eq!(fs::read(dir.join(JOURNAL_FILE)).unwrap(), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            seq: 3,
            next_window: 2,
            windows: 4,
            seed: 0x2007_D50A,
            journal_records: 2,
            counters: [("loop.fallbacks".to_owned(), 1)].into_iter().collect(),
            outcomes: vec![WindowOutcome {
                window: 0,
                processes: 10,
                mttr: SimDuration::from_secs(1234),
                learned_policy: false,
                policy_entries: 0,
                status: WindowStatus::Trained,
            }],
            policy_text: Some(format!(
                "{}\nerror:A | - | REBOOT | 17.5 | 3\n",
                crate::persist::POLICY_HEADER
            )),
        }
    }

    #[test]
    fn checkpoint_round_trips_and_detects_corruption() {
        let checkpoint = sample_checkpoint();
        let text = checkpoint.to_text();
        let parsed = Checkpoint::from_text(&text).unwrap();
        assert_eq!(parsed, checkpoint);
        // Any flipped byte breaks the checksum.
        let corrupted = text.replace("journal_records 2", "journal_records 3");
        assert!(Checkpoint::from_text(&corrupted)
            .unwrap_err()
            .contains("checksum"));
        assert!(Checkpoint::from_text("").unwrap_err().contains("checksum"));
    }

    #[test]
    fn journal_scan_survives_torn_tail() {
        let mut bytes = journal_record_bytes(0, "payload zero");
        bytes.extend(journal_record_bytes(1, ""));
        let full = scan_journal(&bytes);
        assert_eq!(full.records.len(), 2);
        assert!(full.tail_error.is_none());
        assert_eq!(full.valid_bytes, bytes.len() as u64);
        // A torn third record: valid prefix survives, tail reported.
        let torn = journal_record_bytes(2, "torn payload");
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        let scan = scan_journal(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.tail_error.is_some(), "{scan:?}");
        assert_eq!(scan.valid_bytes, full.valid_bytes);
    }

    #[test]
    fn journal_scan_rejects_discontinuity_and_bad_checksums() {
        let mut bytes = journal_record_bytes(0, "a");
        bytes.extend(journal_record_bytes(2, "skipped one"));
        let scan = scan_journal(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.tail_error.unwrap().contains("continuity"));
        let mut bytes = journal_record_bytes(0, "payload");
        let flip = bytes.len() - 3;
        bytes[flip] ^= 0x40;
        let scan = scan_journal(&bytes);
        assert!(scan.records.is_empty());
        assert!(scan.tail_error.unwrap().contains("checksum"));
    }

    #[test]
    fn fsck_flags_corrupt_checkpoints_and_torn_journals() {
        let dir = temp_dir("fsck");
        let mut durable = DurableLoop::open(&dir).unwrap();
        record(&mut durable, 0, 2, "");
        let report = fsck(&dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.journal_records, 1);
        // Flip a byte inside the checkpoint: fsck must flag it.
        let path = dir.join(checkpoint_file_name(1));
        let mut bytes = fs::read(&path).unwrap();
        bytes[CHECKPOINT_HEADER.len() + 5] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let report = fsck(&dir).unwrap();
        assert!(!report.ok());
        assert!(report.issues[0].contains("checksum"), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_foreign_directories() {
        let dir = temp_dir("foreign");
        fs::write(dir.join("FORMAT"), "something else\n").unwrap();
        assert!(DurableLoop::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_on_empty_dir_is_a_fresh_start() {
        let dir = temp_dir("fresh");
        let mut durable = DurableLoop::open(&dir).unwrap();
        let symptoms = SymptomCatalog::new();
        let pool = WorkerPool::new(1);
        let resumed = durable.resume(&symptoms, 7, 4, &pool).unwrap();
        assert!(resumed.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_names_the_journal_record_and_line_of_a_bad_entry() {
        let dir = temp_dir("bad-entry");
        let mut durable = DurableLoop::open(&dir).unwrap();
        let symptoms = SymptomCatalog::new();
        let windows = [
            "2006-01-01 00:00:00\tM0001\terror:A\n2006-01-01 00:10:00\tM0001\tSuccess\n",
            "# window 1\nnot-a-time\tM0001\terror:A\n",
        ];
        for (window, log) in windows.iter().enumerate() {
            record(&mut durable, window, 3, log);
        }
        let err = DurableLoop::open(&dir)
            .unwrap()
            .resume(&symptoms, 7, 3, &WorkerPool::new(1))
            .unwrap_err();
        assert_eq!(
            err,
            "journal record 1: line 2: invalid timestamp: \"not-a-time\""
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn preflight_rejects_seed_and_window_mismatches() {
        let dir = temp_dir("preflight");
        let mut durable = DurableLoop::open(&dir).unwrap();
        record(&mut durable, 0, 4, "");
        assert!(durable.preflight(7, 4).is_ok());
        assert!(durable.preflight(8, 4).unwrap_err().contains("--seed"));
        assert!(durable.preflight(7, 5).unwrap_err().contains("--windows"));
        let _ = fs::remove_dir_all(&dir);
    }
}
