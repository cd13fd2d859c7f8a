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
use std::sync::{Mutex, PoisonError};

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
/// Within one error type a state is just its [`ActionMultiset`], and an
/// episode of at most `N` steps reaches only multisets whose *total* is
/// at most `N`. The codec indexes exactly those: a multiset with counts
/// `c0..c3` (in action-index order) is the 4-combination
/// `q_j = c0 + … + c(j-1) + (j - 1)` of `0..N + 4` (stars and bars), and
/// its index is that combination's rank in the combinatorial number
/// system:
///
/// ```text
/// index = C(q1, 1) + C(q2, 2) + C(q3, 3) + C(q4, 4)
/// ```
///
/// The empty multiset is index 0, shallower multisets rank before deeper
/// ones, and `num_states()` is `C(N + 4, 4)` — 10,626 states at the
/// paper's N = 20, so a per-type `DenseQTable` is about 0.7 MB. The
/// mixed-radix cube this replaced spanned every per-action count up to
/// `N` (`21^4` = 194,481 states, ~13 MB per type): constant-stride
/// transitions, but allocating and zero-filling the cube cost more than
/// the episodes it served, and far more with two threads allocating at
/// once.
///
/// Transitions, decodes and digit reads are table lookups: every codec
/// of the same `N` shares one read-only layout (per-state digits and
/// successor indexes, ~210 KB at N = 20), built on first use and kept
/// for the life of the process.
#[derive(Clone, Copy)]
pub struct StateCodec {
    layout: &'static Layout,
}

/// The shared, read-only tables behind every [`StateCodec`] of one cap.
struct Layout {
    max_attempts: usize,
    /// Per-action counts of each index.
    digits: Box<[[u8; RepairAction::COUNT]]>,
    /// `successors[index][a]` is the index after one more `a`. At the
    /// cap the successor lies past `num_states()`, where `encode` puts
    /// over-cap multisets too.
    successors: Box<[[u32; RepairAction::COUNT]]>,
}

/// Every layout built so far, one per attempt cap.
static LAYOUTS: Mutex<Vec<&'static Layout>> = Mutex::new(Vec::new());

/// `C(n, k)`; exact, since each partial product is `C(n, i + 1) * (i + 1)`.
fn choose(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// The combinatorial-number-system rank of per-action counts given in
/// action-index order.
fn rank(counts: [usize; RepairAction::COUNT]) -> usize {
    let mut prefix = 0;
    let mut rank = 0;
    for (j, c) in counts.into_iter().enumerate() {
        prefix += c;
        rank += choose(prefix + j, j + 1);
    }
    rank
}

impl Layout {
    /// The layout for cap `max_attempts`, built on first request.
    fn shared(max_attempts: usize) -> &'static Layout {
        // Only a completed layout is ever pushed, so a registry poisoned
        // by a panic elsewhere is still consistent.
        let mut layouts = LAYOUTS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(layout) = layouts.iter().find(|l| l.max_attempts == max_attempts) {
            return layout;
        }
        let layout: &'static Layout = Box::leak(Box::new(Layout::build(max_attempts)));
        layouts.push(layout);
        layout
    }

    fn build(max_attempts: usize) -> Layout {
        let num_states = choose(max_attempts + RepairAction::COUNT, RepairAction::COUNT);
        let mut digits = vec![[0u8; RepairAction::COUNT]; num_states];
        let mut successors = vec![[0u32; RepairAction::COUNT]; num_states];
        // Visit every count vector with total ≤ cap: bump the first digit
        // while the total allows, else carry the first non-zero digit.
        let mut counts = [0usize; RepairAction::COUNT];
        let mut total = 0;
        loop {
            let index = rank(counts);
            digits[index] = counts.map(|c| c as u8);
            for (a, slot) in successors[index].iter_mut().enumerate() {
                let mut next = counts;
                next[a] += 1;
                *slot = u32::try_from(rank(next)).expect("ranks below C(260, 4) fit u32");
            }
            if total < max_attempts {
                counts[0] += 1;
                total += 1;
                continue;
            }
            let first = counts
                .iter()
                .position(|&c| c > 0)
                .expect("total is the cap");
            if first + 1 == RepairAction::COUNT {
                break;
            }
            total = total - counts[first] + 1;
            counts[first] = 0;
            counts[first + 1] += 1;
        }
        Layout {
            max_attempts,
            digits: digits.into_boxed_slice(),
            successors: successors.into_boxed_slice(),
        }
    }
}

impl StateCodec {
    /// A codec for episodes of at most `max_attempts` steps.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero or above 255, the per-action
    /// count range of an [`ActionMultiset`].
    pub fn new(max_attempts: usize) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        assert!(
            max_attempts <= usize::from(u8::MAX),
            "attempt cap exceeds the multiset's per-action count range"
        );
        StateCodec {
            layout: Layout::shared(max_attempts),
        }
    }

    /// Exclusive upper bound on packed indexes — the Q-table's state
    /// dimension, `C(max_attempts + 4, 4)`.
    pub fn num_states(&self) -> usize {
        self.layout.digits.len()
    }

    /// The index of the empty multiset (the initial state).
    pub const INITIAL: usize = 0;

    /// Packs a tried-action multiset. The packing is injective over all
    /// multisets; one over the attempt cap packs at or past
    /// [`StateCodec::num_states`], so any table lookup of it panics.
    pub fn encode(&self, tried: &ActionMultiset) -> usize {
        rank(tried.0.map(usize::from))
    }

    /// Unpacks an index back into its multiset.
    pub fn decode(&self, index: usize) -> ActionMultiset {
        ActionMultiset(self.layout.digits[index])
    }

    /// The index after one more (failed) occurrence of `action` — the
    /// O(1) hot-path transition mirroring [`RecoveryState::after`].
    #[inline]
    pub fn after(&self, index: usize, action: RepairAction) -> usize {
        self.layout.successors[index][action.index()] as usize
    }

    /// Per-action counts of a packed index, without materializing the
    /// multiset: `(counts, total)`.
    #[inline]
    pub fn counts(&self, index: usize) -> ([usize; RepairAction::COUNT], usize) {
        let counts = self.layout.digits[index].map(usize::from);
        (counts, counts.iter().sum())
    }

    /// The count of one action in a packed index.
    #[inline]
    pub fn count_of(&self, index: usize, action: RepairAction) -> usize {
        usize::from(self.layout.digits[index][action.index()])
    }
}

/// Codecs are equal when they share a layout, i.e. the same cap.
impl PartialEq for StateCodec {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.layout, other.layout)
    }
}

impl Eq for StateCodec {}

impl fmt::Debug for StateCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateCodec")
            .field("max_attempts", &self.layout.max_attempts)
            .field("num_states", &self.num_states())
            .finish()
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
        for cap in (1..=6).chain([20]) {
            let codec = StateCodec::new(cap);
            // C(cap + 4, 4): the multisets of four actions with total ≤ cap.
            assert_eq!(
                codec.num_states(),
                (cap + 1) * (cap + 2) * (cap + 3) * (cap + 4) / 24,
                "cap {cap}"
            );
            let mut seen = std::collections::HashSet::new();
            for n0 in 0..=cap {
                for n1 in 0..=cap - n0 {
                    for n2 in 0..=cap - n0 - n1 {
                        for n3 in 0..=cap - n0 - n1 - n2 {
                            let counts = [n0, n1, n2, n3];
                            let m = ActionMultiset::from_actions(
                                RepairAction::ALL
                                    .into_iter()
                                    .flat_map(|a| std::iter::repeat_n(a, counts[a.index()])),
                            );
                            let idx = codec.encode(&m);
                            assert!(idx < codec.num_states(), "{m} out of range at cap {cap}");
                            assert!(seen.insert(idx), "collision at {m}, cap {cap}");
                            assert_eq!(codec.decode(idx), m, "round trip of {m}");
                            assert_eq!(codec.counts(idx), (counts, m.total()));
                            for a in RepairAction::ALL {
                                assert_eq!(codec.count_of(idx, a), counts[a.index()]);
                                if m.total() < cap {
                                    assert_eq!(codec.after(idx, a), codec.encode(&m.with(a)));
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(seen.len(), codec.num_states(), "every index is a state");
            assert_eq!(codec.encode(&ActionMultiset::EMPTY), StateCodec::INITIAL);
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
