//! The flat-array Q-table every learner trains on.
//!
//! The paper's per-type recovery MDP is small and enumerable (a
//! tried-action multiset bounded by the N = 20 episode cap), so states
//! pack into integer indexes and the table is three flat arrays indexed
//! by `state_index * num_actions + action_index`:
//!
//! * `values: Vec<f64>` — the Eq. 6 running averages;
//! * `visits` — per-pair update counts (the `n` in `α = 1/(1+n)`);
//! * `known: Vec<bool>` — whether the pair has ever been updated or set,
//!   the explored/unexplored distinction the `explored_backup` policy and
//!   hybrid coverage checks rely on.
//!
//! Reads and updates are array indexing — no hashing, no allocation. A
//! trained table leaves the hot path through [`DenseQTable::to_qtable`],
//! which rebuilds the [`QTable`] artifact form that persistence,
//! diagnostics and merges read. The update replicates [`QTable::update`]
//! operation for operation, so values and visit counts cross that bridge
//! exactly.

use crate::qtable::QTable;
use std::hash::Hash;

/// A tabular Q-function over packed integer states and actions, with the
/// paper's Eq. 6 update rule (`α = 1/(1 + visits)`).
///
/// Visit counts are `u32` (ample for any per-type run — the paper-scale
/// cap is 160 000 sweeps × 20 steps) packed alongside a `u32` *epoch*
/// tag in one slot word. The epoch makes [`DenseQTable::reset_visits`]
/// O(1): sweeping every slot would cost multiple MB of traffic and a
/// cache wipe — instead, bumping the table epoch invalidates every stale
/// count at once, and reads resolve a stale known slot to the recorded
/// reset value.
#[derive(Debug, Clone)]
pub struct DenseQTable {
    num_actions: usize,
    values: Vec<f64>,
    /// Per-slot `(epoch << 32) | count`; counts whose epoch is stale
    /// read as `reset_value` (known slots) or zero (unknown slots).
    visits: Vec<u64>,
    known: Vec<bool>,
    known_count: usize,
    /// Current visit epoch; bumped by [`DenseQTable::reset_visits`].
    epoch: u32,
    /// The count every known, stale-epoch slot reads as.
    reset_value: u32,
}

/// Tables are equal when they agree on dimensions and on every slot's
/// observable state — known flag, value, and *effective* visit count.
/// The epoch/reset-value representation of the counts is resolved, not
/// compared: two tables reaching the same counts through different
/// reset histories are equal.
impl PartialEq for DenseQTable {
    fn eq(&self, other: &Self) -> bool {
        self.num_actions == other.num_actions
            && self.values == other.values
            && self.known == other.known
            && (0..self.values.len()).all(|i| self.visit_count(i) == other.visit_count(i))
    }
}

impl DenseQTable {
    /// Creates an all-unexplored table over `num_states × num_actions`
    /// pairs. This is the only allocation the learners perform per
    /// training run.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the pair count overflows.
    pub fn new(num_states: usize, num_actions: usize) -> Self {
        assert!(num_states > 0, "need at least one state");
        assert!(num_actions > 0, "need at least one action");
        let slots = num_states
            .checked_mul(num_actions)
            .expect("state space too large for a dense table");
        DenseQTable {
            num_actions,
            values: vec![0.0; slots],
            visits: vec![0; slots],
            known: vec![false; slots],
            known_count: 0,
            epoch: 0,
            reset_value: 0,
        }
    }

    /// The effective visit count of slot `i`, resolving the epoch tag.
    #[inline]
    fn visit_count(&self, i: usize) -> u32 {
        let packed = self.visits[i];
        if (packed >> 32) as u32 == self.epoch {
            packed as u32
        } else if self.known[i] {
            self.reset_value
        } else {
            0
        }
    }

    /// Packs `count` under the current epoch for slot `i`.
    #[inline]
    fn store_count(&mut self, i: usize, count: u32) {
        self.visits[i] = (u64::from(self.epoch) << 32) | u64::from(count);
    }

    /// Number of states the table covers.
    pub fn num_states(&self) -> usize {
        self.values.len() / self.num_actions
    }

    /// Number of actions per state.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    #[inline]
    fn slot(&self, state: usize, action: usize) -> usize {
        debug_assert!(action < self.num_actions, "action {action} out of range");
        state * self.num_actions + action
    }

    /// The learned value of `(s, a)`, if it has ever been visited or set.
    #[inline]
    pub fn value(&self, state: usize, action: usize) -> Option<f64> {
        let i = self.slot(state, action);
        if self.known[i] {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// The learned value of `(s, a)`, or `default` for unexplored pairs.
    #[inline]
    pub fn value_or(&self, state: usize, action: usize, default: f64) -> f64 {
        let i = self.slot(state, action);
        if self.known[i] {
            self.values[i]
        } else {
            default
        }
    }

    /// How many updates `(s, a)` has received.
    #[inline]
    pub fn visits(&self, state: usize, action: usize) -> u64 {
        u64::from(self.visit_count(self.slot(state, action)))
    }

    /// Applies one Eq. 6 update toward `target` and returns the absolute
    /// change of the entry — the same contract, and the same
    /// floating-point operations in the same order, as
    /// [`QTable::update`].
    #[inline]
    pub fn update(&mut self, state: usize, action: usize, target: f64) -> f64 {
        let i = self.slot(state, action);
        // Resolve the count before flipping `known`: a slot first touched
        // after a reset must read zero, not the stale-epoch reset value.
        let visits = self.visit_count(i);
        if !self.known[i] {
            self.known[i] = true;
            self.known_count += 1;
        }
        let value = self.values[i];
        let alpha = 1.0 / (1.0 + f64::from(visits));
        let old = if visits == 0 { target } else { value };
        let new = (1.0 - alpha) * old + alpha * target;
        let delta = (new - value).abs();
        let delta = if visits == 0 { 0.0 } else { delta };
        self.values[i] = new;
        self.store_count(i, visits + 1);
        delta
    }

    /// Overwrites the value of `(s, a)` without touching its visit count,
    /// mirroring [`QTable::set`].
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        let i = self.slot(state, action);
        if !self.known[i] {
            self.known[i] = true;
            self.known_count += 1;
            // First touch: pin the zero count to the current epoch so it
            // does not read as a stale-epoch reset value.
            self.store_count(i, 0);
        }
        self.values[i] = value;
    }

    /// Installs a value *and* visit count — the import path used to seed
    /// a table from a [`QTable`] fragment.
    ///
    /// # Panics
    ///
    /// Panics if `visits` exceeds the `u32` counter range.
    pub fn set_with_visits(&mut self, state: usize, action: usize, value: f64, visits: u64) {
        let i = self.slot(state, action);
        if !self.known[i] {
            self.known[i] = true;
            self.known_count += 1;
        }
        self.values[i] = value;
        let count = u32::try_from(visits).expect("visit count exceeds dense range");
        self.store_count(i, count);
    }

    /// Resets every *known* entry's visit count to `to`, keeping the
    /// learned values. Used at the exploration→search phase boundary of
    /// the paper's two-phase learning course: subsequent Eq. 6 averaging
    /// starts from the current values with weight `to/(to+n)`, so the
    /// (possibly biased) exploration-phase history stops dominating.
    pub fn reset_visits(&mut self, to: u32) {
        // O(1): invalidate every slot's epoch tag instead of sweeping
        // the (possibly multi-MB) count array. Known slots now read as
        // `to` until their next update re-pins them.
        self.epoch = self.epoch.wrapping_add(1);
        self.reset_value = to;
    }

    /// Number of known `(s, a)` pairs.
    pub fn len(&self) -> usize {
        self.known_count
    }

    /// Whether no pair has been explored or set.
    pub fn is_empty(&self) -> bool {
        self.known_count == 0
    }

    /// Iterates over the known pairs in packed index order, yielding
    /// `(state, action, value, visits)`.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64, u64)> + '_ {
        self.known.iter().enumerate().filter_map(move |(i, &k)| {
            if k {
                Some((
                    i / self.num_actions,
                    i % self.num_actions,
                    self.values[i],
                    u64::from(self.visit_count(i)),
                ))
            } else {
                None
            }
        })
    }

    /// The known actions of `state` sorted by ascending Q-value, probing
    /// `actions` in the given order with ties keeping that order — the
    /// exact counterpart of [`QTable::ranked_actions`].
    pub fn ranked_actions(&self, state: usize, actions: &[usize]) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = actions
            .iter()
            .filter_map(|&a| self.value(state, a).map(|v| (a, v)))
            .collect();
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("Q values are finite"));
        out
    }

    /// Converts the table to the [`QTable`] artifact form, mapping packed
    /// indexes through the caller's decoders. Values and visit counts
    /// transfer exactly, so persistence, diagnostics, and rank-order
    /// merges see the trained table as it was.
    pub fn to_qtable<S, A>(
        &self,
        mut decode_state: impl FnMut(usize) -> S,
        mut decode_action: impl FnMut(usize) -> A,
    ) -> QTable<S, A>
    where
        S: Eq + Hash + Clone,
        A: Eq + Hash + Copy,
    {
        let mut q = QTable::new();
        for (state, action, value, visits) in self.entries() {
            q.set_with_visits(decode_state(state), decode_action(action), value, visits);
        }
        q
    }

    /// Imports every entry of a [`QTable`], mapping states and actions
    /// through the caller's encoders — the inverse of
    /// [`DenseQTable::to_qtable`], used to warm-start training from a
    /// seeded table.
    pub fn absorb_qtable<S, A>(
        &mut self,
        q: &QTable<S, A>,
        mut encode_state: impl FnMut(&S) -> usize,
        mut encode_action: impl FnMut(A) -> usize,
    ) where
        S: Eq + Hash + Clone,
        A: Eq + Hash + Copy,
    {
        for ((s, a), value, visits) in q.iter() {
            self.set_with_visits(encode_state(s), encode_action(*a), value, visits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_matches_hash_table_bit_for_bit() {
        let mut dense = DenseQTable::new(4, 3);
        let mut hash: QTable<usize, usize> = QTable::new();
        let targets = [10.0, 20.0, 5.5, 0.25, 1e9, 3.0];
        for (i, &t) in targets.iter().enumerate() {
            let (s, a) = (i % 4, i % 3);
            let dd = dense.update(s, a, t);
            let dh = hash.update(s, a, t);
            assert_eq!(dd.to_bits(), dh.to_bits(), "delta {i}");
        }
        for (s, a, v, n) in dense.entries() {
            assert_eq!(Some(v.to_bits()), hash.value(&s, a).map(f64::to_bits));
            assert_eq!(n, hash.visits(&s, a));
        }
        assert_eq!(dense.len(), hash.len());
    }

    #[test]
    fn first_update_adopts_target_with_zero_delta() {
        let mut q = DenseQTable::new(2, 2);
        assert_eq!(q.update(0, 0, 10.0), 0.0);
        assert_eq!(q.value(0, 0), Some(10.0));
        assert_eq!(q.visits(0, 0), 1);
        assert_eq!(q.value(0, 1), None, "neighbour slot stays unexplored");
    }

    #[test]
    fn set_preserves_visits_and_marks_known() {
        let mut q = DenseQTable::new(2, 2);
        q.update(1, 1, 4.0);
        q.set(1, 1, 99.0);
        assert_eq!(q.value(1, 1), Some(99.0));
        assert_eq!(q.visits(1, 1), 1);
        q.set(0, 0, 7.0);
        assert_eq!(q.visits(0, 0), 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn reset_visits_touches_only_known_slots() {
        let mut q = DenseQTable::new(2, 2);
        q.update(0, 0, 1.0);
        q.update(0, 0, 2.0);
        q.reset_visits(1);
        assert_eq!(q.visits(0, 0), 1);
        assert_eq!(q.visits(1, 1), 0);
        assert_eq!(q.value(1, 1), None);
    }

    #[test]
    fn round_trips_through_qtable() {
        let mut dense = DenseQTable::new(3, 2);
        dense.update(0, 1, 3.0);
        dense.update(0, 1, 5.0);
        dense.set(2, 0, 8.0);
        let hash = dense.to_qtable(|s| s as u32, |a| a as u8);
        assert_eq!(hash.len(), 2);
        assert_eq!(hash.value(&0u32, 1u8), Some(4.0));
        assert_eq!(hash.visits(&0u32, 1u8), 2);
        assert_eq!(hash.visits(&2u32, 0u8), 0);
        let mut back = DenseQTable::new(3, 2);
        back.absorb_qtable(&hash, |&s| s as usize, |a: u8| a as usize);
        assert_eq!(back, dense);
    }

    #[test]
    fn ranked_actions_matches_hash_ranking() {
        let mut dense = DenseQTable::new(1, 3);
        let mut hash: QTable<usize, usize> = QTable::new();
        for (a, v) in [(0, 3.0), (1, 1.0), (2, 2.0)] {
            dense.set(0, a, v);
            hash.set(0, a, v);
        }
        assert_eq!(
            dense.ranked_actions(0, &[0, 1, 2]),
            hash.ranked_actions(&0, &[0, 1, 2])
        );
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn rejects_zero_states() {
        let _ = DenseQTable::new(0, 1);
    }
}
