//! The line codec of the textual recovery log: one grammar for
//! `<time, machine, description>` lines (paper Table 1), both directions.
//!
//! A line is `YYYY-MM-DD hh:mm:ss` `\t` `M%04d` `\t` description. The
//! renderer writes it digit by digit into a buffer reserved to the exact
//! output length; the parser reads it back digit by digit and accepts
//! exactly the strings the renderer writes, so `render(parse(line)) ==
//! line` for every line that parses:
//!
//! * the year has four digits, or more without a leading zero (years
//!   past 9999); month, day, hour, minute and second have two each;
//! * a machine id is `M` and four digits, or more without a leading
//!   zero (indices of 10,000 and above), at most `u32::MAX`;
//! * no signs, spaces, short fields or extra zeros anywhere.
//!
//! Entries arrive in time order, so both directions cache the date of
//! the last line: the renderer keys it by day number and the parser by
//! the date's text, and the calendar conversion runs once per day.
//! Either key names exactly one day, so out-of-order lines only miss the
//! cache. [`SimTime`] and [`MachineId`] render and parse through the same
//! functions, so no second grammar exists.

use std::fmt;

use crate::action::RepairAction;
use crate::error::ParseLogError;
use crate::event::{LogEntry, LogEvent};
use crate::machine::MachineId;
use crate::symptom::SymptomCatalog;
use crate::time::SimTime;

const SECS_PER_DAY: u64 = 86_400;

/// Longest rendered date with its trailing space: a `u64`'s 20 digits
/// of year and `-MM-DD `.
const DATE_MAX: usize = 20 + 7;

/// `hh:mm:ss`, after the date and a space.
const CLOCK_LEN: usize = 8;

/// Shortest timestamp: `YYYY-MM-DD hh:mm:ss`.
const TIMESTAMP_MIN: usize = 19;

/// Longest rendered timestamp.
const TIMESTAMP_MAX: usize = DATE_MAX + CLOCK_LEN;

/// Longest rendered machine id: `M` and a `u32`'s 10 digits.
const MACHINE_MAX: usize = 11;

/// Renders log lines, caching the date of the last day it wrote.
#[derive(Debug)]
struct LineWriter {
    /// Day number (seconds / 86,400) that `date` renders.
    day: u64,
    /// `YYYY-MM-DD ` of `day`, in `date[..date_len]`.
    date: [u8; DATE_MAX],
    date_len: usize,
}

impl Default for LineWriter {
    fn default() -> Self {
        LineWriter {
            day: u64::MAX,
            date: [0; DATE_MAX],
            date_len: 0,
        }
    }
}

impl LineWriter {
    /// `YYYY-MM-DD ` of the day holding `secs`.
    fn date(&mut self, secs: u64) -> &[u8] {
        let day = secs / SECS_PER_DAY;
        if day != self.day {
            let (year, month, day_of_month, ..) =
                SimTime::from_secs(day * SECS_PER_DAY).to_calendar();
            let mut date = Cursor::new(&mut self.date);
            date.padded(year.unsigned_abs());
            date.byte(b'-');
            date.two(month);
            date.byte(b'-');
            date.two(day_of_month);
            date.byte(b' ');
            self.date_len = date.at;
            self.day = day;
        }
        &self.date[..self.date_len]
    }

    /// Writes `YYYY-MM-DD hh:mm:ss`.
    fn put_time(&mut self, out: &mut Cursor<'_>, time: SimTime) {
        let secs = time.as_secs();
        out.bytes(self.date(secs));
        let rem = (secs % SECS_PER_DAY) as u32;
        out.two(rem / 3600);
        out.byte(b':');
        out.two(rem % 3600 / 60);
        out.byte(b':');
        out.two(rem % 60);
    }

    /// Byte length of `entry`'s line, without a newline.
    ///
    /// # Panics
    ///
    /// As [`LineWriter::write_line`].
    fn line_len(&mut self, entry: &LogEntry, symptoms: &SymptomCatalog) -> usize {
        let time = self.date(entry.time.as_secs()).len() + CLOCK_LEN;
        let machine = 1 + padded_len(u64::from(entry.machine.index()));
        time + 1 + machine + 1 + description(entry, symptoms).len()
    }

    /// Appends `entry`'s line to `out`, without a newline.
    ///
    /// # Panics
    ///
    /// Panics if the entry's symptom is not interned in `symptoms`.
    fn write_line(&mut self, entry: &LogEntry, symptoms: &SymptomCatalog, out: &mut Vec<u8>) {
        let mut buf = [0; TIMESTAMP_MAX + MACHINE_MAX + 2];
        let mut head = Cursor::new(&mut buf);
        self.put_time(&mut head, entry.time);
        head.byte(b'\t');
        head.machine(entry.machine);
        head.byte(b'\t');
        out.extend_from_slice(head.written());
        out.extend_from_slice(description(entry, symptoms).as_bytes());
    }
}

/// Renders `entries` one line each, every line ending in `\n`, into a
/// string allocated once at its exact length.
///
/// # Panics
///
/// Panics if an entry's symptom is not interned in `symptoms`.
pub(crate) fn render_lines(entries: &[LogEntry], symptoms: &SymptomCatalog) -> String {
    let mut writer = LineWriter::default();
    let len = entries
        .iter()
        .map(|e| writer.line_len(e, symptoms) + 1)
        .sum();
    let mut out = Vec::with_capacity(len);
    for e in entries {
        writer.write_line(e, symptoms, &mut out);
        out.push(b'\n');
    }
    debug_assert_eq!(out.len(), len, "line lengths are exact");
    String::from_utf8(out).expect("rendered log text is UTF-8")
}

/// Renders one entry's line, without a newline.
///
/// # Panics
///
/// Panics if the entry's symptom is not interned in `symptoms`.
pub(crate) fn render_line(entry: &LogEntry, symptoms: &SymptomCatalog) -> String {
    let mut line = render_lines(std::slice::from_ref(entry), symptoms);
    line.pop();
    line
}

/// Writes `YYYY-MM-DD hh:mm:ss` to `f`.
pub(crate) fn fmt_time(time: SimTime, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut buf = [0; TIMESTAMP_MAX];
    let mut out = Cursor::new(&mut buf);
    LineWriter::default().put_time(&mut out, time);
    f.write_str(out.into_str())
}

/// Writes `M%04d` to `f`.
pub(crate) fn fmt_machine(machine: MachineId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut buf = [0; MACHINE_MAX];
    let mut out = Cursor::new(&mut buf);
    out.machine(machine);
    f.write_str(out.into_str())
}

/// The description field of `entry`.
fn description<'c>(entry: &LogEntry, symptoms: &'c SymptomCatalog) -> &'c str {
    match entry.event {
        LogEvent::Symptom(id) => symptoms
            .name(id)
            .unwrap_or_else(|| panic!("symptom {id} missing from catalog")),
        LogEvent::Action(a) => a.as_str(),
        LogEvent::Success => "Success",
    }
}

/// Digits [`Cursor::padded`] writes for `value`: at least four.
fn padded_len(value: u64) -> usize {
    value
        .checked_ilog10()
        .map_or(1, |log| log as usize + 1)
        .max(4)
}

/// Writes ASCII fields left to right into a fixed buffer.
struct Cursor<'b> {
    buf: &'b mut [u8],
    at: usize,
}

impl<'b> Cursor<'b> {
    fn new(buf: &'b mut [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn byte(&mut self, byte: u8) {
        self.buf[self.at] = byte;
        self.at += 1;
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// `value` (below 100) as two digits.
    fn two(&mut self, value: u32) {
        self.byte(b'0' + (value / 10) as u8);
        self.byte(b'0' + (value % 10) as u8);
    }

    /// `value` in decimal, zero-padded to four digits: the year and
    /// machine-id form.
    fn padded(&mut self, value: u64) {
        let end = self.at + padded_len(value);
        let mut rest = value;
        for slot in self.buf[self.at..end].iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        self.at = end;
    }

    fn machine(&mut self, machine: MachineId) {
        self.byte(b'M');
        self.padded(u64::from(machine.index()));
    }

    fn written(&self) -> &[u8] {
        &self.buf[..self.at]
    }

    fn into_str(self) -> &'b str {
        std::str::from_utf8(&self.buf[..self.at]).expect("rendered fields are ASCII")
    }
}

/// Parses log lines, caching the date of the last timestamp it read.
///
/// The cache key is the date's text, borrowed from the input, so a hit
/// means the same date and the same day.
#[derive(Debug, Default)]
pub(crate) struct LineReader<'t> {
    /// `YYYY-MM-DD` of the last date decoded (empty before the first).
    date: &'t [u8],
    /// The first second of that date.
    day_start: u64,
}

impl<'t> LineReader<'t> {
    /// Parses one tab-separated line, interning a new symptom
    /// description into `symptoms`.
    ///
    /// The description is classified, and a symptom interned, before
    /// the time and machine fields are checked; see
    /// [`LogEntry::parse_line`].
    pub(crate) fn line(
        &mut self,
        line: &'t str,
        symptoms: &mut SymptomCatalog,
    ) -> Result<LogEntry, ParseLogError> {
        // A line rendered with a four-digit year and machine id has its
        // tabs at bytes 19 and 25. When the bytes before them decode,
        // they hold no tab, so those are the first two tabs and no scan
        // is needed to find them.
        let bytes = line.as_bytes();
        if let (Some(b'\t'), Some(b'\t')) = (bytes.get(19), bytes.get(25)) {
            if let (Some(time), Some(machine)) = (
                self.decode_time(&bytes[..19]),
                machine_index(&bytes[20..25]),
            ) {
                let event = classify(&line[26..], symptoms)?;
                return Ok(LogEntry {
                    time,
                    machine: MachineId::new(machine),
                    event,
                });
            }
        }
        let (time, rest) = split_tab(line);
        let (machine, description) = match rest {
            Some(rest) => {
                let (machine, description) = split_tab(rest);
                (Some(machine), description)
            }
            None => (None, None),
        };
        let event = description.map(|d| classify(d, symptoms));
        let time = self.time(time)?;
        let machine = parse_machine(machine.ok_or_else(|| ParseLogError::entry(line))?)?;
        // No third field is a malformed entry; a third field that is no
        // description is the classification's error.
        let event = event.ok_or_else(|| ParseLogError::entry(line))??;
        Ok(LogEntry {
            time,
            machine,
            event,
        })
    }

    /// Parses a `YYYY-MM-DD hh:mm:ss` timestamp.
    pub(crate) fn time(&mut self, field: &'t str) -> Result<SimTime, ParseLogError> {
        self.decode_time(field.as_bytes())
            .ok_or_else(|| ParseLogError::timestamp(field))
    }

    fn decode_time(&mut self, field: &'t [u8]) -> Option<SimTime> {
        if field.len() < TIMESTAMP_MIN {
            return None;
        }
        let (date, clock) = field.split_at(field.len() - CLOCK_LEN - 1);
        if date != self.date {
            self.day_start = decode_date(date)?;
            self.date = date;
        }
        let &[b' ', h1, h2, b':', m1, m2, b':', s1, s2] = clock else {
            return None;
        };
        let (hour, minute, second) = (two(h1, h2)?, two(m1, m2)?, two(s1, s2)?);
        if hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        let secs = u64::from(hour * 3600 + minute * 60 + second);
        self.day_start.checked_add(secs).map(SimTime::from_secs)
    }
}

/// Parses an `M%04d` machine id.
pub(crate) fn parse_machine(field: &str) -> Result<MachineId, ParseLogError> {
    machine_index(field.as_bytes())
        .map(MachineId::new)
        .ok_or_else(|| ParseLogError::machine(field))
}

fn machine_index(field: &[u8]) -> Option<u32> {
    let [b'M', digits @ ..] = field else {
        return None;
    };
    u32::try_from(padded(digits)?).ok()
}

/// The first second of a `YYYY-MM-DD` date.
fn decode_date(date: &[u8]) -> Option<u64> {
    let (year, month_day) = date.split_at(date.len().checked_sub(6)?);
    let &[b'-', m1, m2, b'-', d1, d2] = month_day else {
        return None;
    };
    let year = i64::try_from(padded(year)?).ok()?;
    SimTime::from_calendar(year, two(m1, m2)?, two(d1, d2)?, 0, 0, 0).map(SimTime::as_secs)
}

/// The value of a field [`Cursor::padded`] writes: four digits, or more
/// without a leading zero.
fn padded(digits: &[u8]) -> Option<u64> {
    if digits.len() < 4 || (digits.len() > 4 && digits[0] == b'0') {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        acc.checked_mul(10)?.checked_add(u64::from(digit(b)?))
    })
}

fn two(tens: u8, ones: u8) -> Option<u32> {
    Some(digit(tens)? * 10 + digit(ones)?)
}

fn digit(byte: u8) -> Option<u32> {
    let d = byte.wrapping_sub(b'0');
    (d < 10).then_some(u32::from(d))
}

/// Splits at the first tab: the field before it and the rest after it.
/// A plain scan, since the fields before a tab are a few bytes long.
fn split_tab(s: &str) -> (&str, Option<&str>) {
    match s.bytes().position(|b| b == b'\t') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    }
}

/// Classifies a description by direct token match, interning it when it
/// is a symptom: the literal `Success`, an action token, or a
/// `category:component` symptom.
fn classify(description: &str, symptoms: &mut SymptomCatalog) -> Result<LogEvent, ParseLogError> {
    if description == "Success" {
        Ok(LogEvent::Success)
    } else if let Some(action) = RepairAction::from_token(description) {
        Ok(LogEvent::Action(action))
    } else if description.bytes().any(|b| b == b':') {
        Ok(LogEvent::Symptom(symptoms.intern(description)))
    } else {
        Err(ParseLogError::symptom(description))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_date_cache_never_carries_a_day_over() {
        let mut reader = LineReader::default();
        let lines = [
            "2006-03-01 10:00:00",
            "2006-03-01 11:00:00",
            "2006-02-28 23:00:00",
            "2006-03-01 00:00:01",
        ];
        let parsed: Vec<SimTime> = lines.iter().map(|s| reader.time(s).unwrap()).collect();
        let fresh: Vec<SimTime> = lines.iter().map(|s| s.parse().unwrap()).collect();
        assert_eq!(parsed, fresh);
        // A bad clock after a cached date is still an error.
        assert!(reader.time("2006-03-01 24:00:00").is_err());

        let mut writer = LineWriter::default();
        let symptoms = SymptomCatalog::new();
        let mut out = Vec::new();
        for &t in parsed.iter().rev() {
            let entry = LogEntry {
                time: t,
                machine: MachineId::new(1),
                event: LogEvent::Success,
            };
            let before = out.len();
            writer.write_line(&entry, &symptoms, &mut out);
            assert_eq!(out.len() - before, writer.line_len(&entry, &symptoms));
            out.push(b'\n');
        }
        let text = String::from_utf8(out).unwrap();
        let shown: Vec<&str> = text.lines().map(|l| &l[..19]).collect();
        let expected: Vec<&str> = lines.iter().rev().copied().collect();
        assert_eq!(shown, expected);
    }
}
