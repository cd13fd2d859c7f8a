//! Simulation time: absolute instants and durations, with the calendar
//! rendering used by the textual recovery-log format.
//!
//! The simulator runs on a virtual clock of whole seconds. [`SimTime`] is an
//! absolute instant measured from the *log epoch* (2006-01-01 00:00:00, a
//! date contemporary with the paper's data collection window);
//! [`SimDuration`] is a span between two instants. Both are newtypes over
//! `u64` seconds so that instants and spans cannot be mixed up
//! (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

use crate::codec::{self, LineReader};
use crate::error::ParseLogError;

/// Calendar year of the log epoch used when rendering [`SimTime`].
pub const EPOCH_YEAR: i64 = 2006;

/// Days from 1970-01-01 to the log epoch (2006-01-01), used internally by
/// the civil-date conversion.
const EPOCH_DAYS: i64 = days_from_civil(EPOCH_YEAR, 1, 1).expect("the epoch is representable");

/// An absolute instant on the simulation clock, in whole seconds since the
/// log epoch (2006-01-01 00:00:00).
///
/// ```
/// use recovery_simlog::SimTime;
///
/// let t = SimTime::from_secs(3 * 3600 + 7 * 60 + 12);
/// assert_eq!(t.to_string(), "2006-01-01 03:07:12");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants, in whole seconds.
///
/// ```
/// use recovery_simlog::SimDuration;
///
/// let d = SimDuration::from_secs(90);
/// assert_eq!(d.as_secs(), 90);
/// assert_eq!((d + SimDuration::from_secs(30)).as_secs(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The log epoch itself: 2006-01-01 00:00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Seconds elapsed since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulator only ever
    /// measures forward spans.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant ({earlier} > {self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The span from `earlier` to `self`, or `None` if `earlier` is later.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Decomposes this instant into calendar fields
    /// `(year, month, day, hour, minute, second)`.
    pub fn to_calendar(self) -> (i64, u32, u32, u32, u32, u32) {
        let days = (self.0 / 86_400) as i64 + EPOCH_DAYS;
        let rem = self.0 % 86_400;
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (rem / 3600) as u32,
            (rem % 3600 / 60) as u32,
            (rem % 60) as u32,
        )
    }

    /// Builds an instant from calendar fields.
    ///
    /// Returns `None` if the fields do not name a valid date-time at or
    /// after the epoch, or one too late for a `u64` of seconds.
    pub fn from_calendar(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Option<Self> {
        if year < EPOCH_YEAR
            || !(1..=12).contains(&month)
            || day < 1
            || day > days_in_month(year, month)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return None;
        }
        let days = u64::try_from(days_from_civil(year, month, day)? - EPOCH_DAYS).ok()?;
        let clock = u64::from(hour) * 3600 + u64::from(minute) * 60 + u64::from(second);
        days.checked_mul(86_400)?.checked_add(clock).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Creates a span of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// This span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// This span in seconds as a float, convenient for cost arithmetic.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    /// Renders as `YYYY-MM-DD hh:mm:ss`, the timestamp format of the
    /// textual recovery log.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        codec::fmt_time(*self, f)
    }
}

impl fmt::Display for SimDuration {
    /// Renders as a humanized span, e.g. `2d 03:15:09`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
        if days > 0 {
            write!(f, "{days}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl FromStr for SimTime {
    type Err = ParseLogError;

    /// Parses exactly what [`fmt::Display`] writes, `YYYY-MM-DD hh:mm:ss`:
    /// two digits per field after the year, four digits of year or more
    /// without a leading zero, no signs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LineReader::default().time(s)
    }
}

/// Days since 1970-01-01 for a civil date in year 1 or later (Howard
/// Hinnant's algorithm), or `None` if the count overflows an `i64`.
const fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    match era.checked_mul(146_097) {
        Some(days) => days.checked_add(doe - 719_468),
        None => None,
    }
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseLogErrorKind;

    #[test]
    fn epoch_renders_as_new_year_2006() {
        assert_eq!(SimTime::EPOCH.to_string(), "2006-01-01 00:00:00");
    }

    #[test]
    fn paper_table1_timestamp_round_trips() {
        // Table 1's first entry occurs at 3:07:12 am.
        let t = SimTime::from_secs(3 * 3600 + 7 * 60 + 12);
        let s = t.to_string();
        assert_eq!(s, "2006-01-01 03:07:12");
        assert_eq!(s.parse::<SimTime>().unwrap(), t);
    }

    #[test]
    fn crosses_month_and_year_boundaries() {
        let jan31 = SimTime::from_calendar(2006, 1, 31, 23, 59, 59).unwrap();
        assert_eq!(
            (jan31 + SimDuration::from_secs(1)).to_string(),
            "2006-02-01 00:00:00"
        );
        let dec31 = SimTime::from_calendar(2006, 12, 31, 23, 59, 59).unwrap();
        assert_eq!(
            (dec31 + SimDuration::from_secs(1)).to_string(),
            "2007-01-01 00:00:00"
        );
    }

    #[test]
    fn handles_leap_year_2008() {
        let t = SimTime::from_calendar(2008, 2, 29, 12, 0, 0).expect("2008 is a leap year");
        assert_eq!(t.to_string(), "2008-02-29 12:00:00");
        assert!(SimTime::from_calendar(2007, 2, 29, 0, 0, 0).is_none());
    }

    #[test]
    fn rejects_invalid_calendar_fields() {
        assert!(SimTime::from_calendar(2006, 0, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 13, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 4, 31, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 1, 1, 24, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 1, 1, 0, 60, 0).is_none());
        assert!(
            SimTime::from_calendar(2005, 12, 31, 23, 59, 59).is_none(),
            "before epoch"
        );
    }

    #[test]
    fn rejects_malformed_strings() {
        for s in [
            "",
            "2006-01-01",
            "03:07:12",
            "2006/01/01 03:07:12",
            "2006-01-01 3:7",
            // Forms the renderer never writes.
            "2006-1-01 00:00:00",
            "2006-01-01 3:07:12",
            "+2006-01-01 00:00:00",
            "2006-01-+1 00:00:00",
            "02006-01-01 00:00:00",
            "2006-01-01  00:00:00",
            "2006-01-01 00:00:00 ",
            "2006-01-01T00:00:00",
            "2006-01-01 23:59:60",
        ] {
            assert!(s.parse::<SimTime>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn out_of_range_fields_are_timestamp_errors_not_wraps() {
        // Each of these parsed (as a wrapped value) or panicked when the
        // fields went through `parse::<i64>` and `as u32`.
        for s in [
            "2006-4294967297-01 00:00:00",
            "2006-01-01 4294967296:00:00",
            "2006-01-4294967298 00:00:00",
            "99999999999999-03-01 00:00:00",
            "9223372036854775807-03-01 00:00:00",
            "99999999999999999999-03-01 00:00:00",
        ] {
            let err = s.parse::<SimTime>().unwrap_err();
            assert_eq!(err.kind(), ParseLogErrorKind::Timestamp, "{s:?}");
        }
        assert!(SimTime::from_calendar(i64::MAX, 3, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(i64::MIN, 3, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(99_999_999_999_999, 3, 1, 0, 0, 0).is_none());
    }

    #[test]
    fn the_last_second_round_trips() {
        let last = SimTime::from_secs(u64::MAX);
        let shown = last.to_string();
        assert_eq!(shown.parse::<SimTime>().unwrap(), last);
        let (y, mo, d, h, mi, s) = last.to_calendar();
        assert_eq!(SimTime::from_calendar(y, mo, d, h, mi, s), Some(last));
        assert!(SimTime::from_calendar(y + 1, mo, d, 0, 0, 0).is_none());
    }

    #[test]
    fn duration_since_measures_forward_spans() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(160);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(60));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backward_span() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_display_humanizes() {
        assert_eq!(SimDuration::from_secs(59).to_string(), "00:00:59");
        assert_eq!(SimDuration::from_hours(3).to_string(), "03:00:00");
        assert_eq!(
            (SimDuration::from_days(2) + SimDuration::from_secs(3 * 3600 + 15 * 60 + 9))
                .to_string(),
            "2d 03:15:09"
        );
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = [10u64, 20, 30]
            .into_iter()
            .map(SimDuration::from_secs)
            .sum();
        assert_eq!(total, SimDuration::from_secs(60));
    }
}
