//! Repair actions and their strength order.
//!
//! The production system behind the paper exposes exactly four repair
//! actions (§4.1): `TRYNOP` (watch and do nothing), `REBOOT`, `REIMAGE`
//! (rebuild the operating system), and `RMA` (hand the machine to a human).
//! They form a *total strength order*: a stronger action subsumes the
//! process of every weaker one, which is the basis of the paper's
//! replay hypotheses H1/H2 (§3.3).

use std::fmt;
use std::str::FromStr;

use crate::error::ParseLogError;
use crate::time::SimDuration;

/// A repair action that the recovery controller can apply to a machine.
///
/// Variants are declared from weakest to strongest, so the derived [`Ord`]
/// *is* the strength order used throughout the workspace:
///
/// ```
/// use recovery_simlog::RepairAction;
///
/// assert!(RepairAction::TryNop < RepairAction::Reboot);
/// assert!(RepairAction::Reimage < RepairAction::Rma);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RepairAction {
    /// Watch the machine without intervening, hoping the error is transient.
    TryNop,
    /// Restart the machine.
    Reboot,
    /// Rebuild the operating system image.
    Reimage,
    /// Return Merchandise Authorization: request a manual repair by a human.
    Rma,
}

impl RepairAction {
    /// All actions, weakest first.
    pub const ALL: [RepairAction; 4] = [
        RepairAction::TryNop,
        RepairAction::Reboot,
        RepairAction::Reimage,
        RepairAction::Rma,
    ];

    /// Number of distinct repair actions.
    pub const COUNT: usize = 4;

    /// Strength rank, `0` (weakest) through `3` (strongest).
    pub const fn strength(self) -> u8 {
        self as u8
    }

    /// Dense index, usable to address per-action arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The action with dense index `index`, if in range.
    pub fn from_index(index: usize) -> Option<RepairAction> {
        RepairAction::ALL.get(index).copied()
    }

    /// Whether `self` is at least as strong as `other`.
    ///
    /// By hypothesis H2 of the paper, an action at least as strong as a
    /// known-correct action also repairs the error.
    pub fn at_least_as_strong_as(self, other: RepairAction) -> bool {
        self.strength() >= other.strength()
    }

    /// The next stronger action, or `None` for [`RepairAction::Rma`].
    pub fn escalate(self) -> Option<RepairAction> {
        RepairAction::from_index(self.index() + 1)
    }

    /// A representative *baseline* duration for executing this action and
    /// observing its effect, used by catalog generation as the center of the
    /// per-fault duration distributions. Production numbers vary widely;
    /// these magnitudes mirror the paper's Table 1 episode (minutes for
    /// `TRYNOP`/`REBOOT`, hours for `REIMAGE`, days for `RMA`).
    pub fn baseline_duration(self) -> SimDuration {
        match self {
            RepairAction::TryNop => SimDuration::from_mins(15),
            RepairAction::Reboot => SimDuration::from_mins(30),
            RepairAction::Reimage => SimDuration::from_hours(3),
            RepairAction::Rma => SimDuration::from_hours(36),
        }
    }

    /// How much longer a *failed* attempt of this action takes compared to
    /// a successful one: the controller waits out the full observation
    /// window before concluding the cheap action did not work — the
    /// overhead the paper calls "actually not that negligible" (§1).
    pub fn failure_duration_factor(self) -> f64 {
        match self {
            // Failure of TRYNOP shows up as the error recurring, which is
            // observed within the same watch window as success.
            RepairAction::TryNop => 1.0,
            RepairAction::Reboot => 2.2,
            RepairAction::Reimage => 1.5,
            RepairAction::Rma => 1.0,
        }
    }

    /// The log token for this action (`TRYNOP`, `REBOOT`, `REIMAGE`, `RMA`).
    pub const fn as_str(self) -> &'static str {
        match self {
            RepairAction::TryNop => "TRYNOP",
            RepairAction::Reboot => "REBOOT",
            RepairAction::Reimage => "REIMAGE",
            RepairAction::Rma => "RMA",
        }
    }

    /// The action whose log token is `token`, or `None` — the
    /// allocation-free form of [`str::parse`] the log parser classifies
    /// every description with.
    pub(crate) fn from_token(token: &str) -> Option<RepairAction> {
        match token {
            "TRYNOP" => Some(RepairAction::TryNop),
            "REBOOT" => Some(RepairAction::Reboot),
            "REIMAGE" => Some(RepairAction::Reimage),
            "RMA" => Some(RepairAction::Rma),
            _ => None,
        }
    }
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for RepairAction {
    type Err = ParseLogError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RepairAction::from_token(s).ok_or_else(|| ParseLogError::action(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strength_order_is_total_and_matches_ord() {
        for (i, a) in RepairAction::ALL.iter().enumerate() {
            assert_eq!(a.strength() as usize, i);
            assert_eq!(a.index(), i);
            for b in &RepairAction::ALL {
                assert_eq!(a < b, a.strength() < b.strength());
                assert_eq!(a.at_least_as_strong_as(*b), a.strength() >= b.strength());
            }
        }
    }

    #[test]
    fn escalation_walks_the_ladder() {
        assert_eq!(RepairAction::TryNop.escalate(), Some(RepairAction::Reboot));
        assert_eq!(RepairAction::Reboot.escalate(), Some(RepairAction::Reimage));
        assert_eq!(RepairAction::Reimage.escalate(), Some(RepairAction::Rma));
        assert_eq!(RepairAction::Rma.escalate(), None);
    }

    #[test]
    fn tokens_round_trip() {
        for a in RepairAction::ALL {
            assert_eq!(a.as_str().parse::<RepairAction>().unwrap(), a);
            assert_eq!(RepairAction::from_token(a.as_str()), Some(a));
        }
    }

    #[test]
    fn rejects_unknown_tokens() {
        for s in ["", "reboot", "REBOOT ", "POWERCYCLE"] {
            assert!(s.parse::<RepairAction>().is_err(), "{s:?} should not parse");
            assert_eq!(RepairAction::from_token(s), None, "{s:?}");
        }
    }

    #[test]
    fn from_index_in_and_out_of_range() {
        assert_eq!(RepairAction::from_index(0), Some(RepairAction::TryNop));
        assert_eq!(RepairAction::from_index(3), Some(RepairAction::Rma));
        assert_eq!(RepairAction::from_index(4), None);
    }

    #[test]
    fn baseline_durations_increase_with_strength() {
        let durs: Vec<_> = RepairAction::ALL
            .iter()
            .map(|a| a.baseline_duration())
            .collect();
        assert!(durs.windows(2).all(|w| w[0] < w[1]));
    }
}
