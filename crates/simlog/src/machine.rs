//! Machine identity.

use std::fmt;
use std::str::FromStr;

use crate::codec;
use crate::error::ParseLogError;

/// Identifies one machine in the monitored cluster.
///
/// Rendered as `M` followed by a zero-padded index (e.g. `M0423`), the form
/// used in the textual recovery log.
///
/// ```
/// use recovery_simlog::MachineId;
///
/// let m = MachineId::new(423);
/// assert_eq!(m.to_string(), "M0423");
/// assert_eq!("M0423".parse::<MachineId>().unwrap(), m);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineId(u32);

impl MachineId {
    /// Creates a machine id from its cluster index.
    pub const fn new(index: u32) -> Self {
        MachineId(index)
    }

    /// The cluster index of this machine.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        codec::fmt_machine(*self, f)
    }
}

impl FromStr for MachineId {
    type Err = ParseLogError;

    /// Parses exactly what [`fmt::Display`] writes: `M` and four digits,
    /// or more without a leading zero.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        codec::parse_machine(s)
    }
}

impl From<u32> for MachineId {
    fn from(index: u32) -> Self {
        MachineId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_zero_padded() {
        assert_eq!(MachineId::new(7).to_string(), "M0007");
        assert_eq!(MachineId::new(12345).to_string(), "M12345");
    }

    #[test]
    fn parse_round_trips() {
        for idx in [0u32, 1, 42, 9999, 123_456, u32::MAX] {
            let m = MachineId::new(idx);
            assert_eq!(m.to_string().parse::<MachineId>().unwrap(), m);
        }
    }

    #[test]
    fn rejects_malformed_ids() {
        for s in [
            "",
            "M",
            "0423",
            "Mforty",
            "N0423",
            "M-1",
            "M+423",
            "M7",
            "M00423",
            "M 423",
            "m0423",
            "M4294967296",
        ] {
            assert!(s.parse::<MachineId>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn orders_by_index() {
        assert!(MachineId::new(1) < MachineId::new(2));
    }
}
