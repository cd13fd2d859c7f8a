//! # recovery-mpattern
//!
//! Mining of *mutually dependent patterns* (m-patterns), after S. Ma and
//! J. L. Hellerstein, "Mining Mutually Dependent Patterns for System
//! Management" (IEEE JSAC 2002) — the algorithm the reproduced paper uses
//! to validate that recovery-log symptoms form cohesive sets and to filter
//! noisy multi-fault processes (paper §3.1, Figure 3).
//!
//! An itemset `P` is an **m-pattern** at threshold `minp` iff for *every*
//! item `i ∈ P`:
//!
//! ```text
//! support(P) / support({i}) >= minp
//! ```
//!
//! i.e. whenever any one member appears, the whole pattern appears in at
//! least a `minp` fraction of those transactions. Unlike plain frequent
//! itemsets, m-patterns capture *infrequent but highly correlated* items,
//! which is exactly the regime of error symptoms. m-patterns enjoy
//! downward closure (every subset of an m-pattern is an m-pattern), which
//! enables level-wise Apriori-style mining.
//!
//! ```
//! use recovery_mpattern::{TransactionDb, MPatternMiner};
//!
//! let mut db = TransactionDb::new();
//! db.push([1, 2, 3]);
//! db.push([1, 2, 3]);
//! db.push([4, 5]);
//! db.push([4, 5]);
//! db.push([4, 6]);
//!
//! // {1,2,3} is fully mutually dependent; {4,5} only at minp <= 2/3.
//! assert!(db.is_m_pattern(&[1, 2, 3], 1.0));
//! assert!(db.is_m_pattern(&[4, 5], 0.6));
//! assert!(!db.is_m_pattern(&[4, 5], 0.8));
//!
//! let patterns = MPatternMiner::new(0.6).mine_maximal(&db);
//! assert!(patterns.iter().any(|p| p.items == vec![1, 2, 3]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasher, Hash};

/// The item bound required by the miner: totally ordered, hashable, cheap
/// to copy (symptom ids, small integers, …).
pub trait Item: Copy + Ord + Hash + Debug {}
impl<T: Copy + Ord + Hash + Debug> Item for T {}

/// Where one item occurs.
#[derive(Debug, Clone, Default)]
struct Posting {
    /// Number of transactions containing the item.
    support: usize,
    /// Ids of the distinct itemsets containing the item, ascending.
    itemsets: Vec<usize>,
}

/// A transaction database. Each distinct itemset is stored once, with the
/// number of transactions that carry it: recovery logs repeat symptom
/// sets (the paper-scale log has about 3 distinct sets per 100
/// processes), so support counting and cohesion checks run per itemset,
/// not per transaction. Every count the database reports is still over
/// transactions.
#[derive(Debug, Clone)]
pub struct TransactionDb<T> {
    /// The distinct itemsets, sorted and deduplicated, flattened in id
    /// (first-push) order: itemset `id` is
    /// `set_items[set_bounds[id]..set_bounds[id + 1]]`.
    set_items: Vec<T>,
    set_bounds: Vec<usize>,
    /// Transactions carrying each itemset, by id.
    counts: Vec<usize>,
    /// The itemset id of every transaction, in push order.
    transaction_sets: Vec<usize>,
    /// The newest itemset id with each itemset hash; older ids with the
    /// same hash chain through `same_hash`, so a lookup compares slices
    /// of `set_items` and the database keeps no second copy of a set.
    set_ids: HashMap<u64, usize>,
    same_hash: Vec<Option<usize>>,
    /// Hashes itemsets with a random key, so crafted itemsets cannot
    /// force long `same_hash` chains.
    set_hasher: RandomState,
    postings: HashMap<T, Posting>,
    /// `push`'s sort buffer, kept to spare an allocation per transaction.
    scratch: Vec<T>,
}

impl<T: Item> Default for TransactionDb<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Item> TransactionDb<T> {
    /// Creates an empty database.
    pub fn new() -> Self {
        TransactionDb {
            set_items: Vec::new(),
            set_bounds: vec![0],
            counts: Vec::new(),
            transaction_sets: Vec::new(),
            set_ids: HashMap::new(),
            same_hash: Vec::new(),
            set_hasher: RandomState::new(),
            postings: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Adds one transaction. Duplicate items within the transaction are
    /// collapsed; empty transactions are kept (they count toward
    /// [`TransactionDb::len`] but support nothing).
    pub fn push<I: IntoIterator<Item = T>>(&mut self, items: I) {
        let mut set = std::mem::take(&mut self.scratch);
        set.clear();
        set.extend(items);
        set.sort_unstable();
        set.dedup();
        let hash = self.set_hasher.hash_one(set.as_slice());
        let head = self.set_ids.get(&hash).copied();
        let found = std::iter::successors(head, |&id| self.same_hash[id])
            .find(|&id| self.itemset(id) == set.as_slice());
        let id = match found {
            Some(id) => {
                self.counts[id] += 1;
                id
            }
            None => {
                let id = self.counts.len();
                self.set_items.extend_from_slice(&set);
                self.set_bounds.push(self.set_items.len());
                self.counts.push(1);
                self.set_ids.insert(hash, id);
                self.same_hash.push(head);
                id
            }
        };
        let first_seen = self.counts[id] == 1;
        for &item in &set {
            let posting = self.postings.entry(item).or_default();
            posting.support += 1;
            if first_seen {
                posting.itemsets.push(id);
            }
        }
        self.transaction_sets.push(id);
        self.scratch = set;
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transaction_sets.len()
    }

    /// Whether the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.transaction_sets.is_empty()
    }

    /// The distinct itemsets in id order (the order they were first
    /// pushed), each sorted and paired with the number of transactions
    /// carrying it.
    pub fn itemsets(&self) -> impl ExactSizeIterator<Item = (&[T], usize)> + '_ {
        self.set_bounds
            .windows(2)
            .zip(&self.counts)
            .map(|(b, &count)| (&self.set_items[b[0]..b[1]], count))
    }

    /// The itemset id of each transaction, in push order: transaction `t`
    /// carries the `itemset_ids()[t]`-th entry of
    /// [`TransactionDb::itemsets`].
    pub fn itemset_ids(&self) -> &[usize] {
        &self.transaction_sets
    }

    /// All distinct items, sorted.
    pub fn items(&self) -> Vec<T> {
        let mut v: Vec<T> = self.postings.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Support (number of transactions containing all of `items`).
    ///
    /// The empty itemset is supported by every transaction.
    pub fn support(&self, items: &[T]) -> usize {
        match items {
            [] => self.len(),
            [single] => self.item_support(single),
            _ => {
                // Only itemsets holding both of the two rarest items can
                // contain them all: intersect those two postings, then
                // check any further items in each survivor.
                let (mut rarest, mut second): (&[usize], &[usize]) = (&[], &[]);
                for (i, item) in items.iter().enumerate() {
                    let Some(posting) = self.postings.get(item) else {
                        return 0;
                    };
                    let list = posting.itemsets.as_slice();
                    if i == 0 || list.len() < rarest.len() {
                        second = if i == 0 { list } else { rarest };
                        rarest = list;
                    } else if i == 1 || list.len() < second.len() {
                        second = list;
                    }
                }
                let mut support = 0;
                intersect_sorted(rarest, second, |id| {
                    let set = self.itemset(id);
                    if items.len() == 2 || items.iter().all(|x| set.binary_search(x).is_ok()) {
                        support += self.counts[id];
                    }
                });
                support
            }
        }
    }

    fn itemset(&self, id: usize) -> &[T] {
        &self.set_items[self.set_bounds[id]..self.set_bounds[id + 1]]
    }

    fn item_support(&self, item: &T) -> usize {
        self.postings.get(item).map_or(0, |p| p.support)
    }

    /// The *dependence* of an itemset: `min_i support(P) / support({i})`,
    /// the quantity the `minp` threshold bounds. Returns 0.0 if any item
    /// never occurs; 1.0 for the empty set and singletons (they are
    /// trivially mutually dependent).
    pub fn dependence(&self, items: &[T]) -> f64 {
        if items.len() <= 1 {
            return if items.is_empty() || self.support(items) > 0 {
                1.0
            } else {
                0.0
            };
        }
        self.dependence_at(items, self.support(items))
    }

    /// [`TransactionDb::dependence`] of `items` (two or more) whose
    /// support is already known to be `support`.
    fn dependence_at(&self, items: &[T], support: usize) -> f64 {
        let sup = support as f64;
        let mut min_ratio = f64::INFINITY;
        for item in items {
            let s = self.item_support(item) as f64;
            if s == 0.0 {
                return 0.0;
            }
            min_ratio = min_ratio.min(sup / s);
        }
        min_ratio
    }

    /// The [`TransactionDb::dependence`] of every distinct itemset, by
    /// itemset id — one support count per itemset however many
    /// transactions carry it.
    pub fn itemset_dependences(&self) -> Vec<f64> {
        self.itemsets()
            .map(|(set, _)| self.dependence(set))
            .collect()
    }

    /// Whether `items` is an m-pattern at threshold `minp`.
    ///
    /// # Panics
    ///
    /// Panics if `minp` is not in `(0, 1]`.
    pub fn is_m_pattern(&self, items: &[T], minp: f64) -> bool {
        check_minp(minp);
        self.dependence(items) >= minp
    }

    /// Fraction of transactions whose full itemset is an m-pattern at
    /// `minp` — the paper's Figure 3 statistic ("percentage of the
    /// recovery processes with only highly dependent symptoms").
    ///
    /// Empty transactions count as cohesive (they contain no conflicting
    /// symptoms). Returns 0.0 for an empty database.
    ///
    /// # Panics
    ///
    /// Panics if `minp` is not in `(0, 1]`.
    pub fn cohesive_fraction(&self, minp: f64) -> f64 {
        self.cohesive_fractions(&[minp])[0]
    }

    /// [`TransactionDb::cohesive_fraction`] at every threshold of `grid`,
    /// judging each distinct itemset once for the whole grid.
    ///
    /// # Panics
    ///
    /// Panics if a threshold is not in `(0, 1]`.
    pub fn cohesive_fractions(&self, grid: &[f64]) -> Vec<f64> {
        grid.iter().for_each(|&minp| check_minp(minp));
        if self.is_empty() {
            return vec![0.0; grid.len()];
        }
        let dependences = self.itemset_dependences();
        grid.iter()
            .map(|&minp| {
                let cohesive: usize = dependences
                    .iter()
                    .zip(&self.counts)
                    .filter(|(d, _)| **d >= minp)
                    .map(|(_, &count)| count)
                    .sum();
                cohesive as f64 / self.len() as f64
            })
            .collect()
    }
}

impl<T: Item> FromIterator<Vec<T>> for TransactionDb<T> {
    fn from_iter<I: IntoIterator<Item = Vec<T>>>(iter: I) -> Self {
        let mut db = TransactionDb::new();
        for t in iter {
            db.push(t);
        }
        db
    }
}

impl<T: Item> Extend<Vec<T>> for TransactionDb<T> {
    fn extend<I: IntoIterator<Item = Vec<T>>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

/// One mined m-pattern with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MPattern<T> {
    /// The items of the pattern, sorted.
    pub items: Vec<T>,
    /// Number of transactions containing the full pattern.
    pub support: usize,
}

/// Level-wise (Apriori-style) miner for m-patterns.
///
/// Exploits the downward-closure property: a `(k+1)`-itemset can only be an
/// m-pattern if all of its `k`-subsets are. Level 2 is read off pair
/// co-occurrence counts over the distinct itemsets; each longer level is
/// generated by joining patterns that share a `k-1` prefix and pruned
/// against the previous level.
///
/// ```
/// use recovery_mpattern::{MPatternMiner, TransactionDb, brute_force_mine};
///
/// let db: TransactionDb<u32> =
///     vec![vec![1, 2], vec![1, 2], vec![1, 2], vec![3]].into_iter().collect();
/// let miner = MPatternMiner::new(0.9);
/// let mined = miner.mine(&db);
/// assert_eq!(mined[0].items, vec![1, 2]);
/// // The level-wise search agrees with exhaustive enumeration.
/// assert_eq!(mined, brute_force_mine(&db, 0.9, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MPatternMiner {
    minp: f64,
    min_support: usize,
    max_len: usize,
}

impl MPatternMiner {
    /// Creates a miner with threshold `minp`, minimum absolute support 2,
    /// and a maximum pattern length of 16.
    ///
    /// # Panics
    ///
    /// Panics if `minp` is not in `(0, 1]`.
    pub fn new(minp: f64) -> Self {
        check_minp(minp);
        MPatternMiner {
            minp,
            min_support: 2,
            max_len: 16,
        }
    }

    /// Sets the minimum absolute support a pattern must reach.
    pub fn with_min_support(mut self, min_support: usize) -> Self {
        self.min_support = min_support.max(1);
        self
    }

    /// Sets the maximum pattern length explored.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        assert!(max_len > 0, "max_len must be at least 1");
        self.max_len = max_len;
        self
    }

    /// The configured `minp` threshold.
    pub fn minp(&self) -> f64 {
        self.minp
    }

    /// Mines every m-pattern of length ≥ 2 (singletons are trivially
    /// m-patterns and are omitted), sorted by (length, items).
    pub fn mine<T: Item>(&self, db: &TransactionDb<T>) -> Vec<MPattern<T>> {
        let mut all: Vec<MPattern<T>> = Vec::new();
        let mut level = if self.max_len >= 2 {
            self.pairs(db)
        } else {
            Vec::new()
        };
        let mut len = 2;
        // Every level is sorted by items, so `all` ends sorted by
        // (length, items).
        while !level.is_empty() {
            let next = if len < self.max_len {
                self.grow(db, &level)
            } else {
                Vec::new()
            };
            all.append(&mut level);
            level = next;
            len += 1;
        }
        all
    }

    /// The 2-item m-patterns, sorted, from one pass that counts the pairs
    /// of frequent items in every distinct itemset.
    fn pairs<T: Item>(&self, db: &TransactionDb<T>) -> Vec<MPattern<T>> {
        let mut counts: HashMap<(T, T), usize> = HashMap::new();
        let mut frequent: Vec<T> = Vec::new();
        for (set, count) in db.itemsets() {
            frequent.clear();
            frequent.extend(
                set.iter()
                    .copied()
                    .filter(|i| db.item_support(i) >= self.min_support),
            );
            for (i, &a) in frequent.iter().enumerate() {
                for &b in &frequent[i + 1..] {
                    *counts.entry((a, b)).or_insert(0) += count;
                }
            }
        }
        let mut pairs: Vec<MPattern<T>> = counts
            .into_iter()
            .filter(|&(_, support)| support >= self.min_support)
            .map(|((a, b), support)| MPattern {
                items: vec![a, b],
                support,
            })
            .filter(|p| db.dependence_at(&p.items, p.support) >= self.minp)
            .collect();
        pairs.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        pairs
    }

    /// The `(k+1)`-item m-patterns grown from the sorted `k`-item `level`
    /// (Apriori join and prune), in sorted order.
    fn grow<T: Item>(&self, db: &TransactionDb<T>, level: &[MPattern<T>]) -> Vec<MPattern<T>> {
        let mut next = Vec::new();
        for (i, a) in level.iter().enumerate() {
            let k = a.items.len();
            for b in &level[i + 1..] {
                if a.items[..k - 1] != b.items[..k - 1] {
                    break; // sorted order: no later pattern shares the prefix
                }
                let mut cand = a.items.clone();
                cand.push(b.items[k - 1]);
                if !all_subsets_present(&cand, level) {
                    continue;
                }
                let support = db.support(&cand);
                if support >= self.min_support && db.dependence_at(&cand, support) >= self.minp {
                    next.push(MPattern {
                        items: cand,
                        support,
                    });
                }
            }
        }
        next
    }

    /// Mines only the *maximal* m-patterns (those not contained in a
    /// longer one) — the paper's "symptom clusters".
    pub fn mine_maximal<T: Item>(&self, db: &TransactionDb<T>) -> Vec<MPattern<T>> {
        let all = self.mine(db);
        let mut maximal: Vec<MPattern<T>> = Vec::new();
        // `all` is sorted by length ascending; scan longest-first.
        for p in all.iter().rev() {
            if !maximal.iter().any(|m| is_subset(&p.items, &m.items)) {
                maximal.push(p.clone());
            }
        }
        maximal.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        maximal
    }

    /// Partitions all items with support ≥ `min_support` into *clusters*:
    /// the maximal m-patterns, plus a singleton cluster for every item not
    /// covered by any pattern. Clusters may overlap if an item belongs to
    /// two maximal patterns. This is the cluster census behind the paper's
    /// "119 symptom clusters covering 96.67% of the total logs".
    pub fn clusters<T: Item>(&self, db: &TransactionDb<T>) -> Vec<Vec<T>> {
        let maximal = self.mine_maximal(db);
        let mut covered: Vec<T> = maximal
            .iter()
            .flat_map(|p| p.items.iter().copied())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        let mut out: Vec<Vec<T>> = maximal.into_iter().map(|p| p.items).collect();
        for item in db.items() {
            if db.support(&[item]) >= self.min_support && covered.binary_search(&item).is_err() {
                out.push(vec![item]);
            }
        }
        out.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
        out
    }
}

/// Reference implementation: enumerates *every* itemset over the
/// database's items and keeps the m-patterns — exponential, usable only
/// for small item universes, and exactly what the level-wise miner must
/// agree with. Exposed for differential testing; it counts support by
/// scanning the stored itemsets, weighted by how many transactions carry
/// each, and so shares no counting code with the miner.
///
/// # Panics
///
/// Panics if `minp` is out of `(0, 1]` or the database has more than 20
/// distinct items (the enumeration would explode).
pub fn brute_force_mine<T: Item>(
    db: &TransactionDb<T>,
    minp: f64,
    min_support: usize,
) -> Vec<MPattern<T>> {
    check_minp(minp);
    let items = db.items();
    assert!(
        items.len() <= 20,
        "brute force is for small universes, got {} items",
        items.len()
    );
    let count = |subset: &[T]| -> usize {
        db.itemsets()
            .filter(|(set, _)| is_subset(subset, set))
            .map(|(_, n)| n)
            .sum()
    };
    let mut out = Vec::new();
    for mask in 1u32..(1u32 << items.len()) {
        if mask.count_ones() < 2 {
            continue; // singletons are trivial, as in the miner
        }
        let subset: Vec<T> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect();
        let support = count(&subset);
        let dependence = subset
            .iter()
            .map(|&i| support as f64 / count(&[i]) as f64)
            .fold(f64::INFINITY, f64::min);
        if support >= min_support && dependence >= minp {
            out.push(MPattern {
                items: subset,
                support,
            });
        }
    }
    out.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    out
}

fn check_minp(minp: f64) {
    assert!(
        minp > 0.0 && minp <= 1.0,
        "minp must be in (0, 1], got {minp}"
    );
}

/// Calls `f` with every value present in both sorted, deduplicated lists,
/// in ascending order. The merge advances its cursors without
/// data-dependent branches, which the unpredictable interleaving of two
/// postings would otherwise mispredict at every step.
fn intersect_sorted(a: &[usize], b: &[usize], mut f: impl FnMut(usize)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            f(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

/// Checks that every (len-1)-subset of `cand` appears in `level`, which
/// is sorted by items.
fn all_subsets_present<T: Item>(cand: &[T], level: &[MPattern<T>]) -> bool {
    let mut sub = Vec::with_capacity(cand.len() - 1);
    (0..cand.len()).all(|skip| {
        sub.clear();
        sub.extend_from_slice(&cand[..skip]);
        sub.extend_from_slice(&cand[skip + 1..]);
        level
            .binary_search_by(|p| p.items.as_slice().cmp(&sub))
            .is_ok()
    })
}

/// Whether sorted slice `a` is a subset of sorted slice `b`.
fn is_subset<T: Item>(a: &[T], b: &[T]) -> bool {
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cohesive clusters plus a rare cross-cluster transaction.
    fn two_cluster_db() -> TransactionDb<u32> {
        let mut db = TransactionDb::new();
        for _ in 0..10 {
            db.push([1, 2, 3]);
        }
        for _ in 0..5 {
            db.push([10, 11]);
        }
        db.push([1, 10]); // noisy: mixes the clusters
        db
    }

    #[test]
    fn support_counts_containment() {
        let db = two_cluster_db();
        assert_eq!(db.len(), 16);
        assert_eq!(db.support(&[1]), 11);
        assert_eq!(db.support(&[1, 2]), 10);
        assert_eq!(db.support(&[1, 2, 3]), 10);
        assert_eq!(db.support(&[10, 11]), 5);
        assert_eq!(db.support(&[1, 10]), 1);
        assert_eq!(db.support(&[99]), 0);
        assert_eq!(db.support(&[]), 16);
    }

    #[test]
    fn dependence_is_min_ratio() {
        let db = two_cluster_db();
        // support({1,2}) = 10, support({1}) = 11, support({2}) = 10.
        assert!((db.dependence(&[1, 2]) - 10.0 / 11.0).abs() < 1e-12);
        // {1,10}: support 1, items supports 11 and 6.
        assert!((db.dependence(&[1, 10]) - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(db.dependence(&[99, 1]), 0.0);
        assert_eq!(db.dependence(&[1]), 1.0);
        assert_eq!(db.dependence(&[]), 1.0);
    }

    #[test]
    fn m_pattern_condition_thresholds() {
        let db = two_cluster_db();
        assert!(db.is_m_pattern(&[1, 2, 3], 0.9));
        assert!(!db.is_m_pattern(&[1, 2, 3], 0.95)); // 10/11 ≈ 0.909
        assert!(db.is_m_pattern(&[10, 11], 0.8)); // 5/6 ≈ 0.833
        assert!(!db.is_m_pattern(&[1, 10], 0.2));
    }

    #[test]
    fn mining_finds_both_clusters() {
        let db = two_cluster_db();
        let patterns = MPatternMiner::new(0.8).mine(&db);
        let sets: Vec<&Vec<u32>> = patterns.iter().map(|p| &p.items).collect();
        assert!(sets.contains(&&vec![1, 2, 3]), "{sets:?}");
        assert!(sets.contains(&&vec![10, 11]), "{sets:?}");
        assert!(sets.contains(&&vec![1, 2]), "subsets are m-patterns too");
        assert!(!sets.contains(&&vec![1, 10]));
    }

    #[test]
    fn maximal_mining_drops_subsets() {
        let db = two_cluster_db();
        let maximal = MPatternMiner::new(0.8).mine_maximal(&db);
        let sets: Vec<&Vec<u32>> = maximal.iter().map(|p| &p.items).collect();
        assert_eq!(sets, vec![&vec![10, 11], &vec![1, 2, 3]]);
    }

    #[test]
    fn downward_closure_holds_on_mined_output() {
        let db = two_cluster_db();
        let miner = MPatternMiner::new(0.5).with_min_support(1);
        for p in miner.mine(&db) {
            // Every (k-1)-subset must itself satisfy the m-condition.
            for skip in 0..p.items.len() {
                let sub: Vec<u32> = p
                    .items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, v)| *v)
                    .collect();
                assert!(
                    db.is_m_pattern(&sub, 0.5),
                    "subset {sub:?} of {:?} violates closure",
                    p.items
                );
            }
        }
    }

    #[test]
    fn cohesive_fraction_matches_hand_count() {
        let db = two_cluster_db();
        // At minp 0.8: the 10 {1,2,3} and 5 {10,11} transactions are
        // cohesive; the {1,10} one is not. 15/16.
        let f = db.cohesive_fraction(0.8);
        assert!((f - 15.0 / 16.0).abs() < 1e-12, "{f}");
        // The fraction is non-increasing in minp.
        let mut prev = 1.0f64;
        for i in 1..=10 {
            let cur = db.cohesive_fraction(i as f64 / 10.0);
            assert!(cur <= prev + 1e-12, "not monotone at {i}");
            prev = cur;
        }
    }

    #[test]
    fn clusters_cover_uncovered_items_as_singletons() {
        let mut db = two_cluster_db();
        for _ in 0..3 {
            db.push([42]); // an isolated symptom
        }
        let clusters = MPatternMiner::new(0.8).clusters(&db);
        assert!(clusters.contains(&vec![42]));
        assert!(clusters.contains(&vec![1, 2, 3]));
        assert!(clusters.contains(&vec![10, 11]));
    }

    #[test]
    fn min_support_filters_rare_patterns() {
        let mut db = TransactionDb::new();
        db.push([1, 2]); // appears once, perfectly dependent
        db.push([3]);
        let strict = MPatternMiner::new(0.5).with_min_support(2).mine(&db);
        assert!(strict.is_empty());
        let lax = MPatternMiner::new(0.5).with_min_support(1).mine(&db);
        assert_eq!(lax.len(), 1);
        assert_eq!(lax[0].items, vec![1, 2]);
        assert_eq!(lax[0].support, 1);
    }

    #[test]
    fn max_len_caps_exploration() {
        let mut db = TransactionDb::new();
        for _ in 0..5 {
            db.push([1, 2, 3, 4]);
        }
        let miner = MPatternMiner::new(1.0).with_max_len(2);
        let patterns = miner.mine(&db);
        assert!(patterns.iter().all(|p| p.items.len() <= 2));
        assert!(!patterns.is_empty());
    }

    #[test]
    fn duplicate_items_in_transaction_collapse() {
        let mut db = TransactionDb::new();
        db.push([7, 7, 7]);
        assert_eq!(db.support(&[7]), 1);
        assert_eq!(db.itemsets().next(), Some((&[7][..], 1)));
    }

    #[test]
    fn repeated_itemsets_are_stored_once_with_their_count() {
        let db = two_cluster_db();
        let sets: Vec<(&[u32], usize)> = db.itemsets().collect();
        assert_eq!(
            sets,
            vec![(&[1, 2, 3][..], 10), (&[10, 11][..], 5), (&[1, 10][..], 1)]
        );
        assert_eq!(db.itemsets().len(), 3);
        assert_eq!(db.itemset_ids().len(), db.len());
        assert_eq!(db.itemset_ids()[0], 0);
        assert_eq!(db.itemset_ids()[10], 1);
        assert_eq!(db.itemset_ids()[15], 2);
        // Order and duplicates within a transaction do not make a new set.
        let mut db = TransactionDb::new();
        db.push([3, 1, 2]);
        db.push([2, 3, 1, 1]);
        assert_eq!(db.itemsets().len(), 1);
        assert_eq!(db.itemset_ids(), &[0, 0]);
        assert_eq!(db.support(&[1, 3]), 2);
    }

    #[test]
    fn support_accepts_unsorted_and_repeated_items() {
        let db = two_cluster_db();
        assert_eq!(db.support(&[3, 1]), 10);
        assert_eq!(db.support(&[2, 2]), 10);
        assert_eq!(db.support(&[10, 1, 10]), 1);
    }

    #[test]
    fn itemset_dependences_follow_itemset_ids() {
        let db = two_cluster_db();
        let deps = db.itemset_dependences();
        assert_eq!(deps.len(), 3);
        for ((set, _), d) in db.itemsets().zip(&deps) {
            assert_eq!(*d, db.dependence(set));
        }
        assert_eq!(
            db.cohesive_fractions(&[0.8, 0.1]),
            vec![db.cohesive_fraction(0.8), db.cohesive_fraction(0.1)]
        );
    }

    #[test]
    fn empty_db_edge_cases() {
        let db: TransactionDb<u32> = TransactionDb::new();
        assert!(db.is_empty());
        assert_eq!(db.itemsets().len(), 0);
        assert_eq!(db.cohesive_fraction(0.5), 0.0);
        assert!(MPatternMiner::new(0.5).mine(&db).is_empty());
        assert!(db.items().is_empty());
    }

    #[test]
    #[should_panic(expected = "minp")]
    fn rejects_zero_minp() {
        let _ = MPatternMiner::new(0.0);
    }

    #[test]
    #[should_panic(expected = "minp")]
    fn rejects_minp_above_one() {
        let db: TransactionDb<u32> = TransactionDb::new();
        let _ = db.is_m_pattern(&[1], 1.5);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut db: TransactionDb<u32> = vec![vec![1, 2], vec![1, 2]].into_iter().collect();
        db.extend(vec![vec![3]]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.support(&[1, 2]), 2);
    }

    #[test]
    fn overlapping_maximal_patterns_both_survive() {
        // {1,2} and {2,3} both cohesive, {1,2,3} never co-occurs fully.
        let mut db = TransactionDb::new();
        for _ in 0..6 {
            db.push([1, 2]);
        }
        for _ in 0..6 {
            db.push([2, 3]);
        }
        // support(1,2)=6, support(2)=12 → dependence 0.5.
        let maximal = MPatternMiner::new(0.5).mine_maximal(&db);
        let sets: Vec<&Vec<u32>> = maximal.iter().map(|p| &p.items).collect();
        assert!(sets.contains(&&vec![1, 2]));
        assert!(sets.contains(&&vec![2, 3]));
        assert!(!sets.contains(&&vec![1, 2, 3]));
    }
}
