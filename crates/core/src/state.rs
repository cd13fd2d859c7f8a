//! MDP state representation (paper §3.2).
//!
//! A state is a tuple *(error type, recovery result, actions tried so
//! far)*. Only failure states carry decisions — once the result flips to
//! *health* the episode is over — so the Q-table is keyed by
//! [`RecoveryState`] = (error type, tried-action multiset) and health is
//! represented by episode termination.
//!
//! The order in which past actions were tried does not change what is
//! knowable about the fault under hypotheses H1/H2 (only *which* actions
//! failed matters), so the multiset encoding keeps the state space compact
//! without losing the Markov property.

use std::fmt;

use recovery_simlog::RepairAction;

use crate::error_type::ErrorType;

/// A multiset of repair actions, stored as per-action counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ActionMultiset([u8; RepairAction::COUNT]);

impl ActionMultiset {
    /// The empty multiset (no actions tried yet).
    pub const EMPTY: ActionMultiset = ActionMultiset([0; RepairAction::COUNT]);

    /// Builds a multiset from a sequence of actions.
    pub fn from_actions<I: IntoIterator<Item = RepairAction>>(actions: I) -> Self {
        let mut m = ActionMultiset::EMPTY;
        for a in actions {
            m = m.with(a);
        }
        m
    }

    /// This multiset with one more occurrence of `action`.
    ///
    /// # Panics
    ///
    /// Panics if the count of `action` would exceed 255 — far beyond the
    /// paper's N = 20 episode cap, so reaching it indicates a runaway
    /// episode loop.
    pub fn with(mut self, action: RepairAction) -> Self {
        let c = &mut self.0[action.index()];
        *c = c
            .checked_add(1)
            .expect("action count overflow: runaway episode");
        self
    }

    /// How many times `action` occurs.
    pub fn count(&self, action: RepairAction) -> u8 {
        self.0[action.index()]
    }

    /// Total number of actions in the multiset.
    pub fn total(&self) -> usize {
        self.0.iter().map(|&c| c as usize).sum()
    }

    /// Whether no actions have been tried.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// The strongest action present, or `None` when empty. Under
    /// hypothesis H2 this determines everything the failures so far reveal
    /// about the fault.
    pub fn strongest(&self) -> Option<RepairAction> {
        RepairAction::ALL
            .into_iter()
            .rev()
            .find(|a| self.count(*a) > 0)
    }

    /// Iterates the contained actions, weakest first, with multiplicity.
    pub fn iter(&self) -> impl Iterator<Item = RepairAction> + '_ {
        RepairAction::ALL
            .into_iter()
            .flat_map(move |a| std::iter::repeat_n(a, self.count(a) as usize))
    }
}

impl fmt::Display for ActionMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for a in RepairAction::ALL {
            let c = self.count(a);
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{a}x{c}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

impl FromIterator<RepairAction> for ActionMultiset {
    fn from_iter<I: IntoIterator<Item = RepairAction>>(iter: I) -> Self {
        ActionMultiset::from_actions(iter)
    }
}

/// One non-terminal MDP state: the inferred error type plus the multiset
/// of repair actions already tried (and failed) in this recovery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryState {
    error_type: ErrorType,
    tried: ActionMultiset,
}

impl RecoveryState {
    /// The initial state of a recovery process of the given type.
    pub fn initial(error_type: ErrorType) -> Self {
        RecoveryState {
            error_type,
            tried: ActionMultiset::EMPTY,
        }
    }

    /// A state with an explicit tried multiset.
    pub fn new(error_type: ErrorType, tried: ActionMultiset) -> Self {
        RecoveryState { error_type, tried }
    }

    /// The error type of the ongoing process.
    pub fn error_type(&self) -> ErrorType {
        self.error_type
    }

    /// The actions tried (and failed) so far.
    pub fn tried(&self) -> ActionMultiset {
        self.tried
    }

    /// The successor state after `action` fails.
    pub fn after(&self, action: RepairAction) -> Self {
        RecoveryState {
            error_type: self.error_type,
            tried: self.tried.with(action),
        }
    }

    /// Number of attempts made so far.
    pub fn attempts(&self) -> usize {
        self.tried.total()
    }
}

impl PartialOrd for RecoveryState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// States order by *(error type, attempts so far, tried multiset)* — the
/// display order diagnostics have always used (shallow states before deep
/// ones within a type), now canonical so ordered collections
/// (`QTable::by_state`, diff merges) iterate in report order with no
/// re-sorting. Consistent with `Eq`: `total()` is derived from `tried`,
/// so only equal states compare equal.
impl Ord for RecoveryState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.error_type, self.tried.total(), self.tried).cmp(&(
            other.error_type,
            other.tried.total(),
            other.tried,
        ))
    }
}

impl fmt::Display for RecoveryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.error_type, self.tried)
    }
}

/// Packs per-type recovery states into dense integer indexes for the
/// flat-array Q-table every learner trains on (`recovery-mdp`'s
/// `DenseQTable`).
///
/// Within one error type a state is just its [`ActionMultiset`], and
/// every per-action count is bounded by the episode step cap `N` (an
/// episode of at most `N` steps adds at most `N` occurrences in total).
/// The multiset therefore embeds injectively into a mixed-radix integer
/// with radix `N + 1` per action:
///
/// ```text
/// index = Σ_a count(a) * (N + 1)^a.index()
/// ```
///
/// The initial (empty) state is index 0, and trying one more action is a
/// **constant stride add** — no re-encoding in the episode loop. The
/// codec spans the full `(N + 1)^COUNT` cube (194 481 states at the
/// paper's N = 20, ~13 MB of transient table per type), trading a few
/// megabytes for branch-free O(1) transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCodec {
    radix: usize,
    strides: [usize; RepairAction::COUNT],
}

impl StateCodec {
    /// A codec for episodes of at most `max_attempts` steps.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero or the packed space would
    /// overflow `usize`.
    pub fn new(max_attempts: usize) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        let radix = max_attempts
            .checked_add(1)
            .expect("attempt cap overflows the packed radix");
        let mut strides = [0usize; RepairAction::COUNT];
        let mut stride = 1usize;
        for (i, slot) in strides.iter_mut().enumerate() {
            *slot = stride;
            if i + 1 < RepairAction::COUNT {
                stride = stride
                    .checked_mul(radix)
                    .expect("attempt cap overflows the packed state space");
            }
        }
        StateCodec { radix, strides }
    }

    /// Exclusive upper bound on packed indexes — the Q-table's state
    /// dimension.
    pub fn num_states(&self) -> usize {
        self.strides[RepairAction::COUNT - 1] * self.radix
    }

    /// The index of the empty multiset (the initial state).
    pub const INITIAL: usize = 0;

    /// Packs a tried-action multiset.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any per-action count exceeds the
    /// attempt cap — such a state cannot arise within the episode cap.
    pub fn encode(&self, tried: &ActionMultiset) -> usize {
        let mut index = 0usize;
        for a in RepairAction::ALL {
            let count = tried.count(a) as usize;
            debug_assert!(count < self.radix, "count {count} exceeds the attempt cap");
            index += count * self.strides[a.index()];
        }
        index
    }

    /// Unpacks an index back into its multiset.
    pub fn decode(&self, index: usize) -> ActionMultiset {
        debug_assert!(index < self.num_states(), "index {index} out of range");
        let mut tried = ActionMultiset::EMPTY;
        for a in RepairAction::ALL {
            let count = (index / self.strides[a.index()]) % self.radix;
            for _ in 0..count {
                tried = tried.with(a);
            }
        }
        tried
    }

    /// The index after one more (failed) occurrence of `action` — the
    /// O(1) hot-path transition mirroring [`RecoveryState::after`].
    #[inline]
    pub fn after(&self, index: usize, action: RepairAction) -> usize {
        index + self.strides[action.index()]
    }

    /// Per-action counts of a packed index, without materializing the
    /// multiset: `(counts, total)`.
    #[inline]
    pub fn counts(&self, index: usize) -> ([usize; RepairAction::COUNT], usize) {
        let mut counts = [0usize; RepairAction::COUNT];
        let mut total = 0usize;
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = (index / self.strides[i]) % self.radix;
            total += *slot;
        }
        (counts, total)
    }

    /// The count of one action's digit — a single divide instead of the
    /// full [`StateCodec::counts`] decode, for the per-step hot path.
    #[inline]
    pub fn count_of(&self, index: usize, action: RepairAction) -> usize {
        (index / self.strides[action.index()]) % self.radix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::SymptomId;

    fn et(n: u32) -> ErrorType {
        ErrorType::new(SymptomId::new(n))
    }

    #[test]
    fn multiset_counts_actions() {
        let m = ActionMultiset::from_actions([
            RepairAction::Reboot,
            RepairAction::TryNop,
            RepairAction::Reboot,
        ]);
        assert_eq!(m.count(RepairAction::Reboot), 2);
        assert_eq!(m.count(RepairAction::TryNop), 1);
        assert_eq!(m.count(RepairAction::Rma), 0);
        assert_eq!(m.total(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn multiset_order_does_not_matter() {
        let a = ActionMultiset::from_actions([RepairAction::TryNop, RepairAction::Reboot]);
        let b = ActionMultiset::from_actions([RepairAction::Reboot, RepairAction::TryNop]);
        assert_eq!(a, b);
    }

    #[test]
    fn strongest_reflects_ladder() {
        assert_eq!(ActionMultiset::EMPTY.strongest(), None);
        let m = ActionMultiset::from_actions([RepairAction::TryNop, RepairAction::Reimage]);
        assert_eq!(m.strongest(), Some(RepairAction::Reimage));
    }

    #[test]
    fn iter_reproduces_multiplicities() {
        let m = ActionMultiset::from_actions([RepairAction::Reboot, RepairAction::Reboot]);
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![RepairAction::Reboot, RepairAction::Reboot]);
        let rebuilt: ActionMultiset = m.iter().collect();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn display_is_compact() {
        let m = ActionMultiset::from_actions([RepairAction::TryNop, RepairAction::TryNop]);
        assert_eq!(m.to_string(), "{TRYNOPx2}");
        assert_eq!(ActionMultiset::EMPTY.to_string(), "{}");
    }

    #[test]
    fn state_transitions_accumulate() {
        let s0 = RecoveryState::initial(et(3));
        assert_eq!(s0.attempts(), 0);
        let s1 = s0.after(RepairAction::TryNop);
        let s2 = s1.after(RepairAction::Reboot);
        assert_eq!(s2.attempts(), 2);
        assert_eq!(s2.error_type(), et(3));
        assert_eq!(s2.tried().count(RepairAction::TryNop), 1);
        assert_ne!(s1, s2);
        // Same error type + same multiset = same state (Markov key).
        let s2b = s0.after(RepairAction::Reboot).after(RepairAction::TryNop);
        assert_eq!(s2, s2b);
    }

    #[test]
    fn states_of_different_types_differ() {
        assert_ne!(RecoveryState::initial(et(1)), RecoveryState::initial(et(2)));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn with_panics_on_count_overflow() {
        let mut m = ActionMultiset::EMPTY;
        for _ in 0..=255 {
            m = m.with(RepairAction::TryNop);
        }
    }

    #[test]
    fn state_order_is_type_then_depth_then_multiset() {
        let shallow =
            RecoveryState::new(et(1), ActionMultiset::from_actions([RepairAction::Reimage]));
        let deep = RecoveryState::new(
            et(1),
            ActionMultiset::from_actions([RepairAction::TryNop, RepairAction::TryNop]),
        );
        // Depth dominates the multiset: one Reimage sorts before two
        // TryNops even though TryNop is the lexicographically smaller
        // action — the order diagnostics reports have always used.
        assert!(shallow < deep);
        assert!(RecoveryState::initial(et(1)) < shallow);
        assert!(deep < RecoveryState::initial(et(2)), "type dominates depth");
    }

    #[test]
    fn codec_round_trips_and_is_injective_within_the_cap() {
        let cap = 4usize;
        let codec = StateCodec::new(cap);
        assert_eq!(
            codec.num_states(),
            (cap + 1).pow(RepairAction::COUNT as u32)
        );
        let mut seen = std::collections::HashSet::new();
        // Enumerate every multiset with all per-action counts ≤ cap.
        for n0 in 0..=cap {
            for n1 in 0..=cap {
                for n2 in 0..=cap {
                    for n3 in 0..=cap {
                        let m = ActionMultiset::from_actions(
                            std::iter::repeat_n(RepairAction::TryNop, n0)
                                .chain(std::iter::repeat_n(RepairAction::Reboot, n1))
                                .chain(std::iter::repeat_n(RepairAction::Reimage, n2))
                                .chain(std::iter::repeat_n(RepairAction::Rma, n3)),
                        );
                        let idx = codec.encode(&m);
                        assert!(idx < codec.num_states());
                        assert!(seen.insert(idx), "collision at {m}");
                        assert_eq!(codec.decode(idx), m, "round trip of {m}");
                        let (counts, total) = codec.counts(idx);
                        assert_eq!(counts, [n0, n1, n2, n3]);
                        assert_eq!(total, m.total());
                    }
                }
            }
        }
    }

    #[test]
    fn codec_after_is_the_packed_transition() {
        let codec = StateCodec::new(20);
        let mut m = ActionMultiset::EMPTY;
        let mut idx = StateCodec::INITIAL;
        for a in [
            RepairAction::TryNop,
            RepairAction::Reboot,
            RepairAction::TryNop,
            RepairAction::Rma,
        ] {
            idx = codec.after(idx, a);
            m = m.with(a);
            assert_eq!(idx, codec.encode(&m));
        }
    }
}
