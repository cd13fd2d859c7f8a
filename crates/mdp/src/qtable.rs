//! Table-lookup Q-function with visit-count learning rates.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A tabular Q-function over hashable states and actions, storing expected
/// *costs* (lower is better) plus how often each `(s, a)` pair has been
/// updated.
///
/// The learners train on a [`DenseQTable`](crate::DenseQTable); this is
/// the artifact form it converts to, keyed by domain states, which
/// persistence, diagnostics and per-type merges read.
///
/// The update rule is the paper's Eq. 6:
///
/// ```text
/// Q_n(s, a) = (1 - α_n) Q_{n-1}(s, a) + α_n * target
/// α_n       = 1 / (1 + visits(s, a))
/// ```
///
/// where `target = cost + min_a' Q_{n-1}(s', a')` is computed by the
/// caller (the trainer knows the transition; the table does not). With
/// this learning-rate schedule the update is a contraction and the values
/// converge to the optimum with probability 1 (paper §3.3).
#[derive(Debug, Clone)]
pub struct QTable<S, A> {
    entries: HashMap<(S, A), Entry>,
}

impl<S, A> Default for QTable<S, A> {
    fn default() -> Self {
        QTable {
            entries: HashMap::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    value: f64,
    visits: u64,
}

impl<S: Eq + Hash + Clone, A: Eq + Hash + Copy> QTable<S, A> {
    /// Creates an empty table.
    pub fn new() -> Self {
        QTable {
            entries: HashMap::new(),
        }
    }

    /// The learned value of `(s, a)`, if it has ever been visited or set.
    pub fn value(&self, s: &S, a: A) -> Option<f64> {
        self.entries.get(&(s.clone(), a)).map(|e| e.value)
    }

    /// How many updates `(s, a)` has received.
    pub fn visits(&self, s: &S, a: A) -> u64 {
        self.entries.get(&(s.clone(), a)).map_or(0, |e| e.visits)
    }

    /// Whether the table has any entry for state `s` over the given action
    /// set — the coverage test used by the hybrid policy.
    pub fn knows_state(&self, s: &S, actions: &[A]) -> bool {
        actions.iter().any(|&a| self.value(s, a).is_some())
    }

    /// Applies one Eq. 6 update toward `target` and returns the absolute
    /// change of the entry (used for convergence detection).
    ///
    /// The first update of a fresh pair uses `α = 1`, i.e. it adopts the
    /// target outright, and reports a delta of 0 — discovering a state is
    /// not value movement. Convergence detectors must therefore pair a
    /// small tolerance with a window long enough that a streak of
    /// first-visit-only sweeps cannot satisfy it alone.
    pub fn update(&mut self, s: S, a: A, target: f64) -> f64 {
        let e = self.entries.entry((s, a)).or_insert(Entry {
            value: 0.0,
            visits: 0,
        });
        let alpha = 1.0 / (1.0 + e.visits as f64);
        let old = if e.visits == 0 { target } else { e.value };
        let new = (1.0 - alpha) * old + alpha * target;
        let delta = (new - e.value).abs();
        let delta = if e.visits == 0 { 0.0 } else { delta };
        e.value = new;
        e.visits += 1;
        delta
    }

    /// Overwrites the value of `(s, a)` without touching its visit count
    /// (used to seed a table from a prior policy).
    pub fn set(&mut self, s: S, a: A, value: f64) {
        self.entries
            .entry((s, a))
            .and_modify(|e| e.value = value)
            .or_insert(Entry { value, visits: 0 });
    }

    /// Installs a value *and* visit count, replacing any existing entry —
    /// the import path used to rebuild a table from a trained
    /// [`DenseQTable`](crate::DenseQTable), where both halves of the
    /// entry are authoritative.
    pub fn set_with_visits(&mut self, s: S, a: A, value: f64, visits: u64) {
        self.entries.insert((s, a), Entry { value, visits });
    }

    /// The minimum Q-value over `actions` in state `s`, ignoring
    /// unexplored pairs. `None` if nothing is known about `s`.
    pub fn min_value(&self, s: &S, actions: &[A]) -> Option<f64> {
        actions
            .iter()
            .filter_map(|&a| self.value(s, a))
            .min_by(|x, y| x.partial_cmp(y).expect("Q values are finite"))
    }

    /// The greedy (cost-minimizing) action in state `s` over `actions`,
    /// with its value. Ties break toward the earlier action in `actions`.
    /// `None` if nothing is known about `s`.
    pub fn best_action(&self, s: &S, actions: &[A]) -> Option<(A, f64)> {
        let mut best: Option<(A, f64)> = None;
        for &a in actions {
            if let Some(v) = self.value(s, a) {
                if best.is_none_or(|(_, bv)| v < bv) {
                    best = Some((a, v));
                }
            }
        }
        best
    }

    /// The known actions of state `s` sorted by ascending Q-value — the
    /// ranking the selection-tree accelerator consumes.
    pub fn ranked_actions(&self, s: &S, actions: &[A]) -> Vec<(A, f64)> {
        let mut out: Vec<(A, f64)> = actions
            .iter()
            .filter_map(|&a| self.value(s, a).map(|v| (a, v)))
            .collect();
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("Q values are finite"));
        out
    }

    /// Absorbs every entry of `other`, values and visit counts alike;
    /// entries already present are overwritten by `other`'s.
    ///
    /// This is how per-type table fragments trained in parallel are
    /// folded into one policy table. When the merged tables have
    /// **disjoint key sets** — per-type fragments do, because the state
    /// embeds the error type — the merge is commutative: any merge order
    /// produces the same table.
    pub fn merge_from(&mut self, other: QTable<S, A>) {
        self.entries.extend(other.entries);
    }

    /// Number of `(s, a)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(&(state, action), value, visits)`.
    pub fn iter(&self) -> impl Iterator<Item = (&(S, A), f64, u64)> {
        self.entries.iter().map(|(k, e)| (k, e.value, e.visits))
    }

    /// Like [`QTable::ranked_actions`] but carrying the visit count of
    /// each entry — the introspection view diagnostics build per-state
    /// explanations from. Sorted by ascending Q-value; ties keep the
    /// order of `actions`.
    pub fn ranked_entries(&self, s: &S, actions: &[A]) -> Vec<(A, f64, u64)> {
        let mut out: Vec<(A, f64, u64)> = actions
            .iter()
            .filter_map(|&a| {
                self.entries
                    .get(&(s.clone(), a))
                    .map(|e| (a, e.value, e.visits))
            })
            .collect();
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("Q values are finite"));
        out
    }

    /// Groups the table by state: every known state mapped to its
    /// `(action, value, visits)` entries. Iteration is fully
    /// deterministic — states in `Ord` order, each state's entries in
    /// action order — so consumers (diagnostics, persistence) can walk
    /// the grouping directly without re-sorting. Rank with
    /// [`QTable::ranked_entries`] if Q-value order matters instead.
    pub fn by_state(&self) -> BTreeMap<S, Vec<(A, f64, u64)>>
    where
        S: Ord,
        A: Ord,
    {
        let mut out: BTreeMap<S, Vec<(A, f64, u64)>> = BTreeMap::new();
        for ((s, a), e) in &self.entries {
            out.entry(s.clone())
                .or_default()
                .push((*a, e.value, e.visits));
        }
        for entries in out.values_mut() {
            entries.sort_by_key(|&(a, _, _)| a);
        }
        out
    }

    /// Total Eq. 6 updates received across all entries. Zero for tables
    /// rebuilt from a persisted policy file (which stores values only),
    /// which is how consumers detect that visit counts are unavailable.
    pub fn total_visits(&self) -> u64 {
        self.entries.values().map(|e| e.visits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_adopts_target() {
        let mut q: QTable<u32, u8> = QTable::new();
        let delta = q.update(0, 0, 10.0);
        assert_eq!(delta, 0.0, "fresh entries report no delta");
        assert_eq!(q.value(&0, 0), Some(10.0));
        assert_eq!(q.visits(&0, 0), 1);
    }

    #[test]
    fn update_follows_eq6_schedule() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.update(0, 0, 10.0); // visits 0 → adopt, value 10
                              // visits 1 → α = 1/2: value = 0.5*10 + 0.5*20 = 15.
        let d = q.update(0, 0, 20.0);
        assert!((q.value(&0, 0).unwrap() - 15.0).abs() < 1e-12);
        assert!((d - 5.0).abs() < 1e-12);
        // visits 2 → α = 1/3: value = (2/3)*15 + (1/3)*30 = 20.
        q.update(0, 0, 30.0);
        assert!((q.value(&0, 0).unwrap() - 20.0).abs() < 1e-12);
        assert_eq!(q.visits(&0, 0), 3);
    }

    #[test]
    fn repeated_constant_targets_converge_to_target() {
        let mut q: QTable<u32, u8> = QTable::new();
        for _ in 0..100 {
            q.update(1, 1, 7.5);
        }
        assert!((q.value(&1, 1).unwrap() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn running_average_of_targets() {
        // With α = 1/(1+n) the value is the arithmetic mean of targets.
        let mut q: QTable<u32, u8> = QTable::new();
        for t in [2.0, 4.0, 6.0, 8.0] {
            q.update(0, 0, t);
        }
        assert!((q.value(&0, 0).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn best_action_minimizes_cost() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.set(0, 0, 5.0);
        q.set(0, 1, 2.0);
        q.set(0, 2, 9.0);
        assert_eq!(q.best_action(&0, &[0, 1, 2]), Some((1, 2.0)));
        assert_eq!(q.min_value(&0, &[0, 2]), Some(5.0));
        assert_eq!(q.best_action(&1, &[0, 1]), None);
    }

    #[test]
    fn best_action_ignores_unknown_actions() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.set(0, 2, 1.0);
        assert_eq!(q.best_action(&0, &[0, 1, 2]), Some((2, 1.0)));
    }

    #[test]
    fn ranked_actions_sorts_ascending() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.set(0, 0, 3.0);
        q.set(0, 1, 1.0);
        q.set(0, 2, 2.0);
        let ranked = q.ranked_actions(&0, &[0, 1, 2]);
        assert_eq!(ranked, vec![(1, 1.0), (2, 2.0), (0, 3.0)]);
    }

    #[test]
    fn knows_state_checks_any_action() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.set(3, 1, 0.0);
        assert!(q.knows_state(&3, &[0, 1]));
        assert!(!q.knows_state(&3, &[0, 2]));
        assert!(!q.knows_state(&4, &[0, 1]));
    }

    #[test]
    fn set_preserves_visits() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.update(0, 0, 1.0);
        q.update(0, 0, 1.0);
        q.set(0, 0, 99.0);
        assert_eq!(q.visits(&0, 0), 2);
        assert_eq!(q.value(&0, 0), Some(99.0));
    }

    #[test]
    fn ranked_entries_carry_visits() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.update(0, 0, 3.0);
        q.update(0, 0, 3.0);
        q.update(0, 1, 1.0);
        let ranked = q.ranked_entries(&0, &[0, 1, 2]);
        assert_eq!(ranked, vec![(1, 1.0, 1), (0, 3.0, 2)]);
        assert!(q.ranked_entries(&9, &[0, 1]).is_empty());
    }

    #[test]
    fn by_state_groups_entries() {
        let mut q: QTable<u32, u8> = QTable::new();
        q.update(0, 0, 1.0);
        q.update(0, 1, 2.0);
        q.update(7, 0, 3.0);
        let grouped = q.by_state();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[&0].len(), 2);
        assert_eq!(grouped[&7], vec![(0, 3.0, 1)]);
    }

    #[test]
    fn total_visits_distinguishes_trained_from_loaded_tables() {
        let mut trained: QTable<u32, u8> = QTable::new();
        trained.update(0, 0, 1.0);
        trained.update(0, 0, 2.0);
        assert_eq!(trained.total_visits(), 2);
        // `set` (the persistence path) leaves visits untouched.
        let mut loaded: QTable<u32, u8> = QTable::new();
        loaded.set(0, 0, 1.5);
        assert_eq!(loaded.total_visits(), 0);
    }

    #[test]
    fn len_and_iter() {
        let mut q: QTable<u32, u8> = QTable::new();
        assert!(q.is_empty());
        q.set(0, 0, 1.0);
        q.set(1, 0, 2.0);
        assert_eq!(q.len(), 2);
        let total: f64 = q.iter().map(|(_, v, _)| v).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }
}
