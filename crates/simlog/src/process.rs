//! Recovery processes: the episode unit of the whole pipeline.
//!
//! A *recovery process* (paper §4.1) starts with the advent of a new error
//! on a machine, experiences a series of repair actions, and ends with a
//! successful recovery. The paper's Table 1 shows one example. Processes
//! are extracted from a [`crate::RecoveryLog`] by
//! [`crate::RecoveryLog::split_processes`].

use crate::action::RepairAction;
use crate::machine::MachineId;
use crate::symptom::SymptomId;
use crate::time::{SimDuration, SimTime};

/// One repair action applied during a recovery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActionRecord {
    /// When the controller started the action.
    pub time: SimTime,
    /// The action applied.
    pub action: RepairAction,
}

/// An attempted action together with its observed cost and outcome, as
/// reconstructed from log timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionCost {
    /// The action applied.
    pub action: RepairAction,
    /// Wall-clock cost of the attempt: the span from this action's start
    /// to the next action's start (or to `Success` for the final action).
    /// This includes the observation window, which the paper notes is "not
    /// that negligible" even for cheap actions.
    pub cost: SimDuration,
    /// Whether this attempt ended the process (only ever true for the last
    /// action).
    pub cured: bool,
}

/// One complete recovery process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryProcess {
    machine: MachineId,
    symptoms: Vec<(SimTime, SymptomId)>,
    actions: Vec<ActionRecord>,
    success_time: SimTime,
}

impl RecoveryProcess {
    /// Assembles a process from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `symptoms` is empty (a process starts with a symptom by
    /// definition), if the events are not in chronological order, or if
    /// `success_time` precedes the last event.
    pub fn new(
        machine: MachineId,
        symptoms: Vec<(SimTime, SymptomId)>,
        actions: Vec<ActionRecord>,
        success_time: SimTime,
    ) -> Self {
        assert!(
            !symptoms.is_empty(),
            "a recovery process starts with a symptom"
        );
        assert!(
            symptoms.windows(2).all(|w| w[0].0 <= w[1].0),
            "symptoms must be chronological"
        );
        assert!(
            actions.windows(2).all(|w| w[0].time <= w[1].time),
            "actions must be chronological"
        );
        let last_event = actions
            .last()
            .map(|a| a.time)
            .into_iter()
            .chain(symptoms.last().map(|s| s.0))
            .max()
            .expect("symptoms is non-empty");
        assert!(
            success_time >= last_event,
            "success must follow the last event"
        );
        RecoveryProcess {
            machine,
            symptoms,
            actions,
            success_time,
        }
    }

    /// The machine this process ran on.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// When the process started: the time of its first symptom.
    pub fn start(&self) -> SimTime {
        self.symptoms[0].0
    }

    /// When the successful recovery was reported.
    pub fn success_time(&self) -> SimTime {
        self.success_time
    }

    /// Total downtime of the process (start → success), the quantity the
    /// paper's MTTR objective minimizes.
    pub fn downtime(&self) -> SimDuration {
        self.success_time.duration_since(self.start())
    }

    /// The *initial symptom*, which the paper uses as the error type of the
    /// process (§3.1: "we define error type as the initial symptom of a
    /// recovery process").
    pub fn initial_symptom(&self) -> SymptomId {
        self.symptoms[0].1
    }

    /// All symptoms observed, in time order (may repeat).
    pub fn symptoms(&self) -> &[(SimTime, SymptomId)] {
        &self.symptoms
    }

    /// The distinct symptoms observed, in first-occurrence order.
    pub fn symptom_set(&self) -> Vec<SymptomId> {
        let mut seen = Vec::new();
        for &(_, s) in &self.symptoms {
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        seen
    }

    /// The repair actions applied, in order.
    pub fn actions(&self) -> &[ActionRecord] {
        &self.actions
    }

    /// The final (curing) action, or `None` if the machine recovered
    /// spontaneously without intervention.
    pub fn final_action(&self) -> Option<RepairAction> {
        self.actions.last().map(|a| a.action)
    }

    /// The minimal action strength that repairs this error, per the
    /// paper's hypotheses H1/H2 (§3.3): the last action of a successful
    /// process is a correct action, and any action at least as strong also
    /// repairs it. A process with no recorded action recovered by waiting,
    /// so even `TRYNOP` suffices.
    pub fn required_action(&self) -> RepairAction {
        self.final_action().unwrap_or(RepairAction::TryNop)
    }

    /// The *correct action set* of hypothesis H1: the last action plus any
    /// stronger action that appears in the process.
    pub fn correct_actions(&self) -> Vec<RepairAction> {
        let required = self.required_action();
        let mut out = Vec::new();
        for rec in &self.actions {
            if rec.action.at_least_as_strong_as(required) && !out.contains(&rec.action) {
                out.push(rec.action);
            }
        }
        if out.is_empty() {
            out.push(required);
        }
        out
    }

    /// Reconstructs the per-attempt cost of every action from the log
    /// timestamps, in attempt order and without allocating: each attempt
    /// is charged the span to the next attempt, and the final attempt is
    /// charged the span to `Success`.
    pub fn action_costs(&self) -> impl ExactSizeIterator<Item = ActionCost> + '_ {
        let n = self.actions.len();
        (0..n).map(move |i| {
            let end = if i + 1 < n {
                self.actions[i + 1].time
            } else {
                self.success_time
            };
            ActionCost {
                action: self.actions[i].action,
                cost: end.duration_since(self.actions[i].time),
                cured: i + 1 == n,
            }
        })
    }

    /// The cost of the `occurrence`-th attempt (0-based) of `action` with
    /// the given outcome, as [`RecoveryProcess::action_costs`] reports
    /// it — used by uncached replay once per simulated attempt.
    pub fn nth_action_cost(
        &self,
        action: RepairAction,
        cured: bool,
        occurrence: usize,
    ) -> Option<SimDuration> {
        let n = self.actions.len();
        let mut seen = 0;
        for i in 0..n {
            let last = i + 1 == n;
            if self.actions[i].action == action && last == cured {
                if seen == occurrence {
                    let end = if last {
                        self.success_time
                    } else {
                        self.actions[i + 1].time
                    };
                    return Some(end.duration_since(self.actions[i].time));
                }
                seen += 1;
            }
        }
        None
    }

    /// The span from the first symptom to the first repair action: fault
    /// detection and decision overhead, identical under any policy.
    pub fn detection_lead(&self) -> SimDuration {
        match self.actions.first() {
            Some(a) => a.time.duration_since(self.start()),
            None => self.downtime(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Builds the paper's Table 1 process:
    /// symptom, symptom, TRYNOP, symptom, symptom, REBOOT, Success.
    fn table1() -> RecoveryProcess {
        let s = |h: u64, m: u64, sec: u64| t(h * 3600 + m * 60 + sec);
        RecoveryProcess::new(
            MachineId::new(423),
            vec![
                (s(3, 7, 12), SymptomId::new(0)),
                (s(3, 10, 58), SymptomId::new(1)),
                (s(3, 25, 37), SymptomId::new(1)),
                (s(3, 27, 34), SymptomId::new(1)),
            ],
            vec![
                ActionRecord {
                    time: s(3, 23, 26),
                    action: RepairAction::TryNop,
                },
                ActionRecord {
                    time: s(3, 42, 10),
                    action: RepairAction::Reboot,
                },
            ],
            s(4, 13, 7),
        )
    }

    #[test]
    fn table1_basic_geometry() {
        let p = table1();
        assert_eq!(p.initial_symptom(), SymptomId::new(0));
        assert_eq!(p.final_action(), Some(RepairAction::Reboot));
        assert_eq!(p.required_action(), RepairAction::Reboot);
        // 3:07:12 → 4:13:07 is 1h 5m 55s.
        assert_eq!(p.downtime(), SimDuration::from_secs(3955));
        assert_eq!(p.detection_lead(), SimDuration::from_secs(974));
    }

    #[test]
    fn table1_action_costs() {
        let p = table1();
        let costs: Vec<_> = p.action_costs().collect();
        assert_eq!(costs.len(), 2);
        // TRYNOP runs 3:23:26 → 3:42:10 = 1124 s, fails.
        assert_eq!(costs[0].action, RepairAction::TryNop);
        assert_eq!(costs[0].cost, SimDuration::from_secs(1124));
        assert!(!costs[0].cured);
        // REBOOT runs 3:42:10 → 4:13:07 = 1857 s, cures.
        assert_eq!(costs[1].action, RepairAction::Reboot);
        assert_eq!(costs[1].cost, SimDuration::from_secs(1857));
        assert!(costs[1].cured);
    }

    #[test]
    fn symptom_set_dedupes_preserving_order() {
        let p = table1();
        assert_eq!(p.symptom_set(), vec![SymptomId::new(0), SymptomId::new(1)]);
    }

    #[test]
    fn correct_actions_include_stronger_in_process() {
        // A non-monotone sequence: REIMAGE tried, then REBOOT cures.
        let p = RecoveryProcess::new(
            MachineId::new(1),
            vec![(t(0), SymptomId::new(0))],
            vec![
                ActionRecord {
                    time: t(10),
                    action: RepairAction::Reimage,
                },
                ActionRecord {
                    time: t(500),
                    action: RepairAction::Reboot,
                },
            ],
            t(900),
        );
        assert_eq!(p.required_action(), RepairAction::Reboot);
        assert_eq!(
            p.correct_actions(),
            vec![RepairAction::Reimage, RepairAction::Reboot]
        );
    }

    #[test]
    fn nth_action_cost_matches_the_allocating_form() {
        let p = table1();
        let costs: Vec<_> = p.action_costs().collect();
        for (i, ac) in costs.iter().enumerate() {
            let occurrence = costs[..i]
                .iter()
                .filter(|x| x.action == ac.action && x.cured == ac.cured)
                .count();
            assert_eq!(
                p.nth_action_cost(ac.action, ac.cured, occurrence),
                Some(ac.cost),
                "attempt {i}"
            );
        }
        // Queries with no matching attempt return None.
        assert_eq!(p.nth_action_cost(RepairAction::Rma, true, 0), None);
        assert_eq!(p.nth_action_cost(RepairAction::TryNop, false, 1), None);
        assert_eq!(p.nth_action_cost(RepairAction::TryNop, true, 0), None);
    }

    #[test]
    fn spontaneous_recovery_requires_only_trynop() {
        let p = RecoveryProcess::new(
            MachineId::new(2),
            vec![(t(0), SymptomId::new(3))],
            vec![],
            t(120),
        );
        assert_eq!(p.final_action(), None);
        assert_eq!(p.required_action(), RepairAction::TryNop);
        assert_eq!(p.correct_actions(), vec![RepairAction::TryNop]);
        assert_eq!(p.action_costs().len(), 0);
        assert_eq!(p.detection_lead(), SimDuration::from_secs(120));
    }

    #[test]
    #[should_panic(expected = "starts with a symptom")]
    fn rejects_empty_symptoms() {
        let _ = RecoveryProcess::new(MachineId::new(0), vec![], vec![], t(1));
    }

    #[test]
    #[should_panic(expected = "success must follow")]
    fn rejects_success_before_last_event() {
        let _ = RecoveryProcess::new(
            MachineId::new(0),
            vec![(t(100), SymptomId::new(0))],
            vec![ActionRecord {
                time: t(200),
                action: RepairAction::TryNop,
            }],
            t(150),
        );
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_unordered_symptoms() {
        let _ = RecoveryProcess::new(
            MachineId::new(0),
            vec![(t(100), SymptomId::new(0)), (t(50), SymptomId::new(1))],
            vec![],
            t(200),
        );
    }
}
