//! Immutable, versioned policy snapshots.
//!
//! A [`PolicySnapshot`] is everything the serving plane needs to answer
//! `/advise`, `/simulate`, and `/policy` for one published policy,
//! precomputed at publish time: the canonical text form and its hash,
//! the full per-state advice table (pre-rendered
//! [`recovery_diagnostics::explain_policy`] JSON, so a served answer is
//! byte-identical to the offline explanation by construction), and an
//! optional replay plane for what-if simulation. Snapshots are built
//! once, wrapped in an `Arc`, and never mutated afterwards — readers can
//! hold one across a hot swap without ever observing a torn state.

use std::collections::{BTreeSet, HashMap};

use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, ReplayCache, SimulationPlatform};
use recovery_core::{ActionMultiset, ErrorType, TrainedPolicy};
use recovery_diagnostics::{explain_policy, ExplainOptions};
use recovery_simlog::{RecoveryProcess, RepairAction, SymptomCatalog};

/// FNV-1a 64-bit hash, rendered as 16 lowercase hex digits. Std-only and
/// stable across platforms, which is all a policy fingerprint needs.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The replay plane of a snapshot: a cost model built from the training
/// corpus plus the [`ReplayCache`] of one canonical process per symptom,
/// so `/simulate` answers with the zero-alloc cached-attempt path.
#[derive(Debug, Clone)]
pub struct ReplayPlane {
    platform: SimulationPlatform,
    /// The replay data of the canonical processes: each symptom's is the
    /// first process (in the corpus's deterministic order) showing it,
    /// so the same corpus always yields the same answers.
    cache: ReplayCache,
    /// Each symptom name's canonical process, by index in `cache`.
    canonical: HashMap<String, usize>,
}

/// One simulated step of a `/simulate` replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedStep {
    /// The replayed action.
    pub action: RepairAction,
    /// Whether this attempt cured the canonical fault (H1/H2 verdict).
    pub cured: bool,
    /// The attempt's cost in seconds.
    pub cost_s: f64,
}

/// The outcome of a `/simulate` replay against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedRun {
    /// Detection lead of the canonical process, seconds.
    pub detection_lead_s: f64,
    /// One entry per replayed action, stopping after the first cure.
    pub steps: Vec<SimulatedStep>,
    /// Whether the sequence cured the fault.
    pub cured: bool,
    /// Sum of step costs, seconds.
    pub total_cost_s: f64,
}

impl ReplayPlane {
    fn build(processes: &[RecoveryProcess], symptoms: &SymptomCatalog) -> Self {
        let platform = SimulationPlatform::from_processes(processes, CostEstimation::PreferActual);
        // Seen symptoms are marked by id, so each name is looked up once;
        // an id outside the catalog has no name and no canonical process.
        let mut seen = vec![false; symptoms.len()];
        let mut truths = Vec::new();
        let mut canonical = HashMap::new();
        for p in processes {
            let symptom = ErrorType::of(p).symptom();
            match seen.get_mut(symptom.index() as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => continue,
            }
            if let Some(name) = symptoms.name(symptom) {
                canonical.insert(name.to_string(), truths.len());
                truths.push(p);
            }
        }
        ReplayPlane {
            cache: platform.replay_cache(&truths),
            platform,
            canonical,
        }
    }

    /// Replays `actions` against the canonical process for `symptom`,
    /// stopping after the first curing attempt. `None` when the corpus
    /// never showed the symptom.
    pub fn simulate(&self, symptom: &str, actions: &[RepairAction]) -> Option<SimulatedRun> {
        let process = *self.canonical.get(symptom)?;
        let mut occurrences = [0usize; RepairAction::COUNT];
        let mut steps = Vec::with_capacity(actions.len());
        let mut total = 0.0;
        let mut cured = false;
        for &action in actions {
            let outcome = self.platform.attempt_cached(
                &self.cache,
                process,
                action,
                occurrences[action.index()],
            );
            occurrences[action.index()] += 1;
            total += outcome.cost;
            steps.push(SimulatedStep {
                action,
                cured: outcome.cured,
                cost_s: outcome.cost,
            });
            if outcome.cured {
                cured = true;
                break;
            }
        }
        Some(SimulatedRun {
            detection_lead_s: self.platform.detection_lead_cached(&self.cache, process),
            steps,
            cured,
            total_cost_s: total,
        })
    }
}

/// An immutable, versioned view of one published policy.
///
/// The version is part of the snapshot itself (not store-side metadata):
/// a reader that cloned the `Arc` sees one coherent
/// (version, hash, advice) triple no matter how many swaps happen
/// underneath it.
#[derive(Debug, Clone)]
pub struct PolicySnapshot {
    version: u64,
    hash: String,
    text: String,
    source: String,
    entries: usize,
    symptom_names: BTreeSet<String>,
    /// `state_key` (`"<symptom> | {tried}"`) → pre-rendered
    /// [`recovery_diagnostics::StateExplanation::to_json`] string.
    advice: HashMap<String, String>,
    replay: Option<ReplayPlane>,
}

impl PolicySnapshot {
    /// Builds a snapshot from a trained policy and its symptom catalog.
    /// The version is 0 until a store publishes it; `processes`, when
    /// given, become the replay plane backing `/simulate`.
    pub fn build(
        policy: &TrainedPolicy,
        symptoms: &SymptomCatalog,
        source: &str,
        processes: Option<&[RecoveryProcess]>,
    ) -> Self {
        let text = policy_to_text(policy, symptoms);
        let hash = fingerprint(text.as_bytes());
        let explanation = explain_policy(policy, symptoms, ExplainOptions::default());
        let advice: HashMap<String, String> = explanation
            .states
            .iter()
            .map(|s| (s.state_key.clone(), s.to_json().render()))
            .collect();
        let symptom_names = symptoms.iter().map(|(_, name)| name.to_string()).collect();
        PolicySnapshot {
            version: 0,
            hash,
            text,
            source: source.to_string(),
            entries: policy.q().len(),
            symptom_names,
            advice,
            replay: processes.map(|p| ReplayPlane::build(p, symptoms)),
        }
    }

    pub(crate) fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Monotonic publish version (0 before publication).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// FNV-1a fingerprint of the canonical text form.
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// The canonical `policy_to_text` rendering.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Where the snapshot came from (`file:<path>` or `window:<n>`).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of `(state, action)` entries in the Q-table.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether the snapshot's catalog knows `symptom` at all.
    pub fn knows_symptom(&self, symptom: &str) -> bool {
        self.symptom_names.contains(symptom)
    }

    /// The pre-rendered explanation for `(symptom, tried)`, exactly as
    /// offline `explain_policy` would render it for the same state.
    pub fn advice(&self, symptom: &str, tried: ActionMultiset) -> Option<&str> {
        self.advice
            .get(&format!("{symptom} | {tried}"))
            .map(String::as_str)
    }

    /// Number of advised states.
    pub fn advised_states(&self) -> usize {
        self.advice.len()
    }

    /// The replay plane, when the snapshot was built with a corpus.
    pub fn replay(&self) -> Option<&ReplayPlane> {
        self.replay.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_core::TrainerConfig;

    fn trained() -> (TrainedPolicy, SymptomCatalog, Vec<RecoveryProcess>) {
        let mut generated = recovery_simlog::LogGenerator::new(
            recovery_simlog::GeneratorConfig::small().with_seed(7),
        )
        .generate();
        let processes = generated.log.split_processes();
        let trainer = recovery_core::OfflineTrainer::new(&processes, TrainerConfig::default());
        let ranking = recovery_core::ErrorTypeRanking::from_processes(&processes);
        let types = ranking.top_k(3);
        let tree = recovery_core::selection_tree::SelectionTreeTrainer::new(
            &trainer,
            recovery_core::selection_tree::SelectionTreeConfig::default(),
        );
        let (policy, _) = tree.train(&types);
        (policy, generated.log.symptoms().clone(), processes)
    }

    #[test]
    fn fingerprint_is_stable_and_hex() {
        assert_eq!(fingerprint(b""), "cbf29ce484222325");
        assert_eq!(fingerprint(b"a"), fingerprint(b"a"));
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"abc").len(), 16);
    }

    #[test]
    fn snapshot_advice_matches_offline_explanation_bytes() {
        let (policy, symptoms, _) = trained();
        let snapshot = PolicySnapshot::build(&policy, &symptoms, "test", None);
        let explanation = explain_policy(&policy, &symptoms, ExplainOptions::default());
        assert!(!explanation.states.is_empty());
        assert_eq!(snapshot.advised_states(), explanation.states.len());
        for state in &explanation.states {
            let (symptom, _) = state.state_key.split_once(" | ").expect("state key shape");
            assert!(snapshot.knows_symptom(symptom));
            // Rebuild the multiset from the ranking-independent state key
            // by querying through the public lookup.
            let served = snapshot
                .advice
                .get(&state.state_key)
                .expect("every explained state is advised");
            assert_eq!(served, &state.to_json().render());
        }
        assert!(!snapshot.knows_symptom("error:NoSuchSymptom"));
        assert_eq!(snapshot.version(), 0);
        assert_eq!(snapshot.hash(), fingerprint(snapshot.text().as_bytes()));
    }

    #[test]
    fn replay_plane_simulates_until_cured() {
        let (policy, symptoms, processes) = trained();
        let snapshot = PolicySnapshot::build(&policy, &symptoms, "test", Some(&processes));
        let plane = snapshot.replay().expect("replay plane built");
        // Pick a symptom the corpus actually exhibits (the catalog can
        // contain fault types the small log never drew).
        let symptom = symptoms
            .name(ErrorType::of(&processes[0]).symptom())
            .unwrap();
        // RMA is the strongest action: always cures, so the ladder stops
        // there no matter what came before.
        let run = plane
            .simulate(
                symptom,
                &[
                    RepairAction::TryNop,
                    RepairAction::Rma,
                    RepairAction::Reboot,
                ],
            )
            .expect("known symptom simulates");
        assert!(run.cured);
        // The replay stops at the first cure — RMA always cures, so at
        // most the first two ladder rungs ran and the trailing REBOOT
        // was never attempted.
        assert!(run.steps.len() <= 2);
        assert!(run.steps.last().unwrap().cured);
        assert!(run.steps.iter().all(|s| s.action != RepairAction::Reboot));
        assert!(run.total_cost_s > 0.0);
        assert!(plane.simulate("error:NoSuchSymptom", &[]).is_none());
        // Deterministic: the same request replays to the same bytes.
        let again = plane
            .simulate(
                symptom,
                &[
                    RepairAction::TryNop,
                    RepairAction::Rma,
                    RepairAction::Reboot,
                ],
            )
            .unwrap();
        assert_eq!(run, again);
    }
}
