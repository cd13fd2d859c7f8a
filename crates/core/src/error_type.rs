//! Error-type inference and noise filtering (paper §3.1).
//!
//! The learner never sees ground-truth faults; it approximates them with
//! *error types*: the initial symptom of each recovery process. Two tools
//! support this approximation:
//!
//! * [`ErrorTypeRanking`] — the frequency ranking of inferred types, used
//!   to select the K most frequent types for training (the paper uses the
//!   top 40 of 97, covering 98.68% of processes);
//! * [`NoiseFilter`] — m-pattern based cohesion filtering: a process whose
//!   distinct symptom set is not mutually dependent at `minp` likely
//!   contains more than one fault and is removed before training and
//!   evaluation (the paper removes 3.33% of its log at `minp = 0.1`).

use std::collections::HashMap;
use std::fmt;

use recovery_mpattern::{MPatternMiner, TransactionDb};
use recovery_simlog::{RecoveryProcess, SymptomId};

/// An inferred error type: the initial symptom of a recovery process.
///
/// This is a deliberate approximation (paper §2.3.2): an error type
/// represents all errors sharing the same leading symptom, which ideally
/// corresponds to one fault, though distinct faults may collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ErrorType(SymptomId);

impl ErrorType {
    /// Wraps the initial symptom that names this type.
    pub const fn new(symptom: SymptomId) -> Self {
        ErrorType(symptom)
    }

    /// Infers the error type of a process: its initial symptom.
    pub fn of(process: &RecoveryProcess) -> Self {
        ErrorType(process.initial_symptom())
    }

    /// The underlying symptom.
    pub const fn symptom(self) -> SymptomId {
        self.0
    }
}

impl fmt::Display for ErrorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ET({})", self.0)
    }
}

impl From<SymptomId> for ErrorType {
    fn from(s: SymptomId) -> Self {
        ErrorType(s)
    }
}

/// The frequency ranking of inferred error types over a set of processes.
///
/// Rank 0 is the most frequent type; the paper's figures index types 1–40
/// by this ranking (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorTypeRanking {
    ranked: Vec<(ErrorType, usize)>,
    rank_of: HashMap<ErrorType, usize>,
    total: usize,
}

impl ErrorTypeRanking {
    /// Builds the ranking from a set of processes.
    pub fn from_processes(processes: &[RecoveryProcess]) -> Self {
        let mut counts: HashMap<ErrorType, usize> = HashMap::new();
        for p in processes {
            *counts.entry(ErrorType::of(p)).or_insert(0) += 1;
        }
        Self::from_counts(counts)
    }

    /// Builds the ranking from each type's process count.
    pub(crate) fn from_counts(counts: impl IntoIterator<Item = (ErrorType, usize)>) -> Self {
        let mut ranked: Vec<(ErrorType, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank_of = ranked
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (*t, i))
            .collect();
        ErrorTypeRanking {
            total: ranked.iter().map(|(_, c)| c).sum(),
            ranked,
            rank_of,
        }
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether no types were observed.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The type at rank `rank` (0 = most frequent) and its process count.
    pub fn get(&self, rank: usize) -> Option<(ErrorType, usize)> {
        self.ranked.get(rank).copied()
    }

    /// The rank of `t`, if it was observed.
    pub fn rank(&self, t: ErrorType) -> Option<usize> {
        self.rank_of.get(&t).copied()
    }

    /// The process count of `t`, or 0 if unobserved.
    pub fn count(&self, t: ErrorType) -> usize {
        self.rank(t).map_or(0, |r| self.ranked[r].1)
    }

    /// The `k` most frequent types, most frequent first.
    pub fn top_k(&self, k: usize) -> Vec<ErrorType> {
        self.ranked.iter().take(k).map(|(t, _)| *t).collect()
    }

    /// Fraction of all processes whose type is among the top `k` — the
    /// paper's 98.68% statistic for k = 40.
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: usize = self.ranked.iter().take(k).map(|(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// Iterates `(rank, type, count)` in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, ErrorType, usize)> + '_ {
        self.ranked
            .iter()
            .enumerate()
            .map(|(i, (t, c))| (i, *t, *c))
    }
}

/// The verdict of the noise filter on a whole log.
#[derive(Debug, Clone)]
pub struct FilterOutcome {
    /// Processes whose symptom sets are cohesive at `minp`.
    pub clean: Vec<RecoveryProcess>,
    /// Processes flagged as noisy (likely multi-fault).
    pub noisy: Vec<RecoveryProcess>,
    /// The symptom database the verdicts were judged on, one transaction
    /// per input process in input order; mine its symptom clusters with
    /// [`NoiseFilter::clusters`].
    pub db: TransactionDb<SymptomId>,
}

impl FilterOutcome {
    /// Fraction of processes kept — the paper reports 96.67% at
    /// `minp = 0.1`.
    pub fn kept_fraction(&self) -> f64 {
        let total = self.clean.len() + self.noisy.len();
        if total == 0 {
            0.0
        } else {
            self.clean.len() as f64 / total as f64
        }
    }
}

/// m-pattern based noise filter (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseFilter {
    minp: f64,
    min_support: usize,
}

impl Default for NoiseFilter {
    /// The paper's operating point: `minp = 0.1`.
    fn default() -> Self {
        NoiseFilter {
            minp: 0.1,
            min_support: 2,
        }
    }
}

impl NoiseFilter {
    /// Creates a filter at the given `minp` threshold.
    ///
    /// # Panics
    ///
    /// Panics if `minp` is not in `(0, 1]`.
    pub fn new(minp: f64) -> Self {
        assert!(
            minp > 0.0 && minp <= 1.0,
            "minp must be in (0, 1], got {minp}"
        );
        NoiseFilter {
            minp,
            min_support: 2,
        }
    }

    /// The configured threshold.
    pub fn minp(&self) -> f64 {
        self.minp
    }

    /// Builds the symptom transaction database of a set of processes (one
    /// transaction per process: its distinct symptom set).
    pub fn transaction_db(processes: &[RecoveryProcess]) -> TransactionDb<SymptomId> {
        let mut db = TransactionDb::new();
        for p in processes {
            db.push(p.symptoms().iter().map(|&(_, s)| s));
        }
        db
    }

    /// Judges every distinct itemset of `db`: entry `id` is whether
    /// itemset `id` is cohesive at this filter's `minp`. A verdict
    /// depends only on transaction counts, never on the order the
    /// transactions were pushed in.
    pub(crate) fn cohesive_sets(&self, db: &TransactionDb<SymptomId>) -> Vec<bool> {
        db.itemset_dependences()
            .into_iter()
            .map(|d| d >= self.minp)
            .collect()
    }

    /// Splits processes into clean and noisy. Each distinct symptom set is
    /// judged once; every process follows its set's verdict.
    pub fn partition(&self, processes: Vec<RecoveryProcess>) -> FilterOutcome {
        let db = Self::transaction_db(&processes);
        let cohesive = self.cohesive_sets(&db);
        let mut clean = Vec::new();
        let mut noisy = Vec::new();
        for (p, &set) in processes.into_iter().zip(db.itemset_ids()) {
            if cohesive[set] {
                clean.push(p);
            } else {
                noisy.push(p);
            }
        }
        FilterOutcome { clean, noisy, db }
    }

    /// The symptom clusters of `db` at this filter's `minp` (the paper's
    /// "119 clusters").
    pub fn clusters(&self, db: &TransactionDb<SymptomId>) -> Vec<Vec<SymptomId>> {
        MPatternMiner::new(self.minp)
            .with_min_support(self.min_support)
            .clusters(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::{GeneratorConfig, LogGenerator, MachineId, SimTime};

    fn proc(machine: u32, start: u64, symptoms: &[u32]) -> RecoveryProcess {
        let sv: Vec<(SimTime, SymptomId)> = symptoms
            .iter()
            .enumerate()
            .map(|(i, &s)| (SimTime::from_secs(start + i as u64), SymptomId::new(s)))
            .collect();
        RecoveryProcess::new(
            MachineId::new(machine),
            sv,
            vec![],
            SimTime::from_secs(start + 1000),
        )
    }

    #[test]
    fn error_type_is_initial_symptom() {
        let p = proc(0, 0, &[7, 8, 9]);
        assert_eq!(ErrorType::of(&p), ErrorType::new(SymptomId::new(7)));
        assert_eq!(ErrorType::of(&p).symptom(), SymptomId::new(7));
    }

    #[test]
    fn ranking_orders_by_frequency() {
        let processes = vec![
            proc(0, 0, &[1]),
            proc(0, 10, &[2]),
            proc(0, 20, &[2]),
            proc(0, 30, &[2]),
            proc(0, 40, &[3]),
            proc(0, 50, &[3]),
        ];
        let ranking = ErrorTypeRanking::from_processes(&processes);
        assert_eq!(ranking.len(), 3);
        assert_eq!(ranking.get(0).unwrap().0, ErrorType::new(SymptomId::new(2)));
        assert_eq!(ranking.get(0).unwrap().1, 3);
        assert_eq!(ranking.rank(ErrorType::new(SymptomId::new(1))), Some(2));
        assert_eq!(ranking.count(ErrorType::new(SymptomId::new(3))), 2);
        assert_eq!(ranking.rank(ErrorType::new(SymptomId::new(99))), None);
    }

    #[test]
    fn top_k_and_coverage() {
        let processes = vec![
            proc(0, 0, &[1]),
            proc(0, 10, &[1]),
            proc(0, 20, &[1]),
            proc(0, 30, &[2]),
        ];
        let ranking = ErrorTypeRanking::from_processes(&processes);
        assert_eq!(ranking.top_k(1), vec![ErrorType::new(SymptomId::new(1))]);
        assert!((ranking.top_k_coverage(1) - 0.75).abs() < 1e-12);
        assert!((ranking.top_k_coverage(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ranking() {
        let ranking = ErrorTypeRanking::from_processes(&[]);
        assert!(ranking.is_empty());
        assert_eq!(ranking.top_k_coverage(3), 0.0);
    }

    #[test]
    fn filter_separates_mixed_symptom_processes() {
        // Cluster {1,2} occurs often; cluster {5,6} occurs often; one
        // process mixes 1 and 5.
        let mut processes = Vec::new();
        for i in 0..20 {
            processes.push(proc(0, i * 100, &[1, 2]));
            processes.push(proc(1, i * 100 + 50, &[5, 6]));
        }
        processes.push(proc(2, 9999, &[1, 5]));
        let outcome = NoiseFilter::new(0.3).partition(processes);
        assert_eq!(outcome.noisy.len(), 1);
        assert_eq!(outcome.noisy[0].symptom_set().len(), 2);
        assert_eq!(outcome.clean.len(), 40);
        assert!((outcome.kept_fraction() - 40.0 / 41.0).abs() < 1e-9);
        assert_eq!(outcome.db.len(), 41);
        assert_eq!(outcome.db.itemsets().len(), 3);
        assert!(NoiseFilter::new(0.3)
            .clusters(&outcome.db)
            .contains(&vec![SymptomId::new(1), SymptomId::new(2)]));
    }

    #[test]
    fn cohesion_curve_is_monotone_nonincreasing() {
        let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
        let processes = generated.log.split_processes();
        let grid: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
        let curve = NoiseFilter::transaction_db(&processes).cohesive_fractions(&grid);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "curve must not increase: {curve:?}");
        }
        // At the loosest threshold most of the log is cohesive.
        assert!(
            curve[0] > 0.8,
            "minp = 0.1 keeps most processes: {}",
            curve[0]
        );
    }

    #[test]
    fn generated_log_filter_keeps_most_processes() {
        let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
        let processes = generated.log.split_processes();
        let total = processes.len();
        let filter = NoiseFilter::default();
        let outcome = filter.partition(processes);
        assert!(
            outcome.kept_fraction() > 0.85,
            "kept {:.3} of {total}",
            outcome.kept_fraction()
        );
        assert!(!filter.clusters(&outcome.db).is_empty());
    }

    #[test]
    #[should_panic(expected = "minp")]
    fn rejects_bad_minp() {
        let _ = NoiseFilter::new(0.0);
    }
}
