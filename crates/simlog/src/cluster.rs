//! Discrete-event cluster simulation.
//!
//! [`ClusterSim`] drives a population of machines through fault arrivals
//! and policy-controlled recovery, emitting a [`RecoveryLog`] with exactly
//! the event grammar of the paper's production log: error symptoms, repair
//! actions, and `Success` reports. Faults arrive per machine as a Poisson
//! process (suspended while the machine is down); the recovery controller
//! consults a [`RecoveryPolicy`] after each failed attempt and gives up to
//! manual repair (`RMA`) after `max_attempts - 1` automated attempts, the
//! paper's `N = 20` episode cap (§3.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::RepairAction;
use crate::catalog::FaultCatalog;
use crate::dist::Exponential;
use crate::event::{LogEntry, LogEvent};
use crate::fault::FaultId;
use crate::log::RecoveryLog;
use crate::machine::MachineId;
use crate::policy::{PolicyContext, RecoveryPolicy};
use crate::symptom::SymptomId;
use crate::time::{SimDuration, SimTime};

/// Knobs of the cluster simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines in the cluster.
    pub machines: u32,
    /// How long new faults keep arriving; processes opened before the
    /// horizon run to completion.
    pub horizon: SimDuration,
    /// Mean fault inter-arrival time per healthy machine.
    pub mean_fault_interarrival: SimDuration,
    /// Episode cap: after `max_attempts - 1` automated attempts the
    /// controller forces `RMA`. The paper uses 20.
    pub max_attempts: usize,
    /// Probability that a process is *noisy*: a second, independent fault
    /// overlaps it, mixing two symptom sets (the paper's ≈3.33% of
    /// processes that its noise filter removes).
    pub noise_prob: f64,
    /// Probability that a failed attempt re-emits the primary symptom
    /// while the controller observes (Table 1 shows such repeats).
    pub re_emit_prob: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 100,
            horizon: SimDuration::from_days(60),
            mean_fault_interarrival: SimDuration::from_days(5),
            max_attempts: 20,
            noise_prob: 0.033,
            re_emit_prob: 0.6,
        }
    }
}

impl ClusterConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if there are no machines, the horizon is zero, the attempt
    /// cap is below 2 (one automated attempt plus the RMA fallback), or a
    /// probability is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.machines > 0, "cluster needs at least one machine");
        assert!(self.horizon > SimDuration::ZERO, "horizon must be positive");
        assert!(
            self.mean_fault_interarrival > SimDuration::ZERO,
            "inter-arrival mean must be positive"
        );
        assert!(
            self.max_attempts >= 2,
            "need room for at least one attempt plus RMA"
        );
        assert!(
            (0.0..=1.0).contains(&self.noise_prob),
            "noise_prob out of [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.re_emit_prob),
            "re_emit_prob out of [0, 1]"
        );
    }
}

/// Ground truth for one generated recovery process, keyed by
/// `(machine, process start time)` so it can be joined back to the
/// processes returned by [`RecoveryLog::split_processes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessTruth {
    /// The fault class that opened the process.
    pub fault: FaultId,
    /// The overlapping second fault, for noisy processes.
    pub overlay: Option<FaultId>,
}

/// Ground-truth side channel of a simulation run. The learning pipeline
/// never reads this; tests and experiment sanity checks do.
///
/// Records are kept in the order processes started, which is ascending
/// start time (and event order within one second), so a lookup is a
/// binary search by time and a scan of that second's few records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    by_start: Vec<(SimTime, MachineId, ProcessTruth)>,
}

impl GroundTruth {
    /// Looks up the truth for the process that started on `machine` at
    /// `start`.
    pub fn lookup(&self, machine: MachineId, start: SimTime) -> Option<ProcessTruth> {
        let first = self.by_start.partition_point(|&(time, _, _)| time < start);
        self.by_start[first..]
            .iter()
            .take_while(|&&(time, _, _)| time == start)
            .find(|&&(_, m, _)| m == machine)
            .map(|&(_, _, truth)| truth)
    }

    /// Number of recorded processes.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Whether no processes were recorded.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    fn record(&mut self, machine: MachineId, start: SimTime, truth: ProcessTruth) {
        debug_assert!(
            self.by_start
                .last()
                .is_none_or(|&(time, _, _)| time <= start),
            "processes are recorded in start order"
        );
        self.by_start.push((start, machine, truth));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A new fault strikes a healthy machine.
    FaultArrives(FaultId),
    /// A scheduled symptom emission for the machine's `process`-th
    /// process.
    EmitSymptom { symptom: SymptomId, process: u32 },
    /// A repair attempt finishes for the machine's `process`-th process.
    ActionCompletes { cured: bool, process: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    machine: MachineId,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Seconds ahead of the clock that [`EventQueue`]'s wheel covers. At
/// paper scale, 99% of the events of open processes fall within it.
const WHEEL_SECS: u64 = 1 << 13;

/// No node: an empty slot, or the end of the list being popped.
const NIL: u32 = u32::MAX;

/// The pending events, popped in `(time, seq)` order, where `seq` counts
/// pushes: events of one second pop in the order they were scheduled.
///
/// An event due less than [`WHEEL_SECS`] after the clock waits on a
/// timing wheel: slot `time % WHEEL_SECS` holds that second's events in
/// push order, as a ring through a pool of reused nodes that the slot
/// enters at its last node, and one bit per slot marks the occupied
/// ones, so the next second with events is found by scanning a few
/// words. Every later event — above all each healthy
/// machine's next fault, days away — waits in a binary heap, where the
/// near-term events no longer sift past it. A slot never mixes seconds,
/// since the clock never passes a pending event and the wheel takes none
/// a full turn ahead. The next event is the earlier of the heap's head
/// and the head of the wheel's next second.
#[derive(Debug)]
struct EventQueue {
    /// The last node of each slot's ring, whose successor is the first.
    slots: Vec<u32>,
    /// One bit per slot, set while the slot's ring is not empty.
    occupied: Vec<u64>,
    /// Ring nodes: an event and the next node.
    nodes: Vec<(Event, u32)>,
    /// Nodes free for reuse.
    free: Vec<u32>,
    /// Events on the wheel, including the `due` list.
    on_wheel: usize,
    /// The rest of the events of the second being popped, taken off its
    /// slot as a list that ends at [`NIL`].
    due: u32,
    later: BinaryHeap<Reverse<Event>>,
    /// The time of the last event popped.
    clock: SimTime,
    seq: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            slots: vec![NIL; WHEEL_SECS as usize],
            occupied: vec![0; WHEEL_SECS as usize / 64],
            nodes: Vec::new(),
            free: Vec::new(),
            on_wheel: 0,
            due: NIL,
            later: BinaryHeap::new(),
            clock: SimTime::EPOCH,
            seq: 0,
        }
    }

    /// Schedules an event, at or after the clock.
    fn push(&mut self, time: SimTime, machine: MachineId, kind: EventKind) {
        self.seq += 1;
        let event = Event {
            time,
            seq: self.seq,
            machine,
            kind,
        };
        if time.duration_since(self.clock).as_secs() >= WHEEL_SECS {
            self.later.push(Reverse(event));
            return;
        }
        let node = match self.free.pop() {
            Some(node) => node,
            None => {
                self.nodes.push((event, NIL));
                u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let slot = (time.as_secs() % WHEEL_SECS) as usize;
        let next = match self.slots[slot] {
            NIL => {
                self.occupied[slot / 64] |= 1 << (slot % 64);
                node
            }
            last => std::mem::replace(&mut self.nodes[last as usize].1, node),
        };
        self.nodes[node as usize] = (event, next);
        self.slots[slot] = node;
        self.on_wheel += 1;
    }

    /// The earliest second with events on the wheel, if any.
    fn next_second(&self) -> Option<SimTime> {
        if self.on_wheel == 0 {
            return None;
        }
        let start = (self.clock.as_secs() % WHEEL_SECS) as usize;
        let words = self.occupied.len();
        // The first word's bits from `start` on, the other words in turn,
        // and last the first word's bits before `start`.
        (0..=words).find_map(|k| {
            let word = (start / 64 + k) % words;
            let bits = match k {
                0 => self.occupied[word] & (!0 << (start % 64)),
                _ => self.occupied[word],
            };
            (bits != 0).then(|| {
                let slot = (word * 64 + bits.trailing_zeros() as usize) as u64;
                let ahead = (slot + WHEEL_SECS - start as u64) % WHEEL_SECS;
                self.clock + SimDuration::from_secs(ahead)
            })
        })
    }

    fn pop(&mut self) -> Option<Event> {
        if self.due == NIL {
            if let Some(second) = self.next_second() {
                if self.later.peek().is_none_or(|Reverse(e)| e.time >= second) {
                    let slot = (second.as_secs() % WHEEL_SECS) as usize;
                    let last = std::mem::replace(&mut self.slots[slot], NIL) as usize;
                    self.due = std::mem::replace(&mut self.nodes[last].1, NIL);
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
            }
        }
        let from_heap = match (self.due, self.later.peek()) {
            (NIL, _) => true,
            (due, Some(Reverse(later))) => *later < self.nodes[due as usize].0,
            (_, None) => false,
        };
        let event = if from_heap {
            self.later.pop()?.0
        } else {
            let (event, next) = self.nodes[self.due as usize];
            self.free.push(self.due);
            self.due = next;
            self.on_wheel -= 1;
            event
        };
        self.clock = event.time;
        Some(event)
    }
}

/// One machine's recovery bookkeeping. The slot outlives its processes,
/// so the symptom and action buffers are reused from one to the next.
#[derive(Debug)]
struct Slot {
    /// How many processes the machine has opened; events carry the count
    /// of the process they belong to, so an ended process's events are
    /// recognized as stale.
    process: u32,
    open: bool,
    fault: FaultId,
    overlay: Option<FaultId>,
    observed: Vec<SymptomId>,
    tried: Vec<RepairAction>,
}

impl Slot {
    fn is_current(&self, process: u32) -> bool {
        self.open && self.process == process
    }
}

/// Writes the log in the stable `(time, machine)` order that
/// [`RecoveryLog`]'s lazy sort would give it, so the log never needs
/// that sort.
///
/// Two things break the event order that entries are produced in. Within
/// one second, events of different machines pop in the order they were
/// scheduled, not by machine: an entry dated at the clock goes behind
/// every entry of its second whose machine is not larger than its own,
/// which keeps same-machine entries in the order they were written. And
/// a process's first action is logged when its fault arrives but dated
/// at the later time the controller engages: such an entry is held until
/// the clock reaches its second, then written before anything the events
/// of that second write, as it was produced before them.
#[derive(Debug, Default)]
struct LogWriter {
    entries: Vec<LogEntry>,
    /// Entries dated ahead of the clock, latest first; entries of one
    /// second lie in reverse of the order they were produced.
    held: Vec<LogEntry>,
    clock: SimTime,
}

impl LogWriter {
    /// Moves the clock to `now`, writing every held entry dated at or
    /// before it.
    fn advance(&mut self, now: SimTime) {
        while let Some(&entry) = self.held.last() {
            if entry.time > now {
                break;
            }
            self.held.pop();
            self.insert(entry);
        }
        self.clock = now;
    }

    fn write(&mut self, entry: LogEntry) {
        debug_assert!(entry.time >= self.clock, "entry dated before the clock");
        if entry.time > self.clock {
            let at = self.held.partition_point(|held| held.time > entry.time);
            self.held.insert(at, entry);
        } else {
            self.insert(entry);
        }
    }

    fn insert(&mut self, entry: LogEntry) {
        let behind = self
            .entries
            .iter()
            .rev()
            .take_while(|e| e.time == entry.time && e.machine > entry.machine)
            .count();
        self.entries.insert(self.entries.len() - behind, entry);
    }

    fn finish(mut self) -> Vec<LogEntry> {
        while let Some(entry) = self.held.pop() {
            self.insert(entry);
        }
        self.entries
    }
}

/// The discrete-event cluster simulator.
///
/// Drive it with [`ClusterSim::run`], which consumes the simulator and
/// returns the generated log plus ground truth.
///
/// ```
/// use recovery_simlog::{CatalogConfig, ClusterConfig, ClusterSim, UserDefinedPolicy};
///
/// let catalog = CatalogConfig::default().with_fault_types(5).generate(3);
/// let config = ClusterConfig { machines: 10, ..ClusterConfig::default() };
/// let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), config, 42);
/// let (mut log, truth) = sim.run();
/// let processes = log.split_processes();
/// assert_eq!(processes.len(), truth.len());
/// ```
#[derive(Debug)]
pub struct ClusterSim<'a, P> {
    catalog: &'a FaultCatalog,
    policy: P,
    config: ClusterConfig,
    rng: StdRng,
}

impl<'a, P: RecoveryPolicy> ClusterSim<'a, P> {
    /// Creates a simulator over `catalog`, controlled by `policy`, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ClusterConfig::validate`]).
    pub fn new(catalog: &'a FaultCatalog, policy: P, config: ClusterConfig, seed: u64) -> Self {
        config.validate();
        ClusterSim {
            catalog,
            policy,
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs the simulation to completion and returns the log and ground
    /// truth. New faults stop arriving at the horizon; processes already
    /// open run until they succeed, so the log contains only complete
    /// processes (plus any symptom noise). The log comes back in
    /// chronological order, so reading it sorts nothing.
    pub fn run(mut self) -> (RecoveryLog, GroundTruth) {
        let catalog = self.catalog;
        let mut truth = GroundTruth::default();
        let mut queue = EventQueue::new();
        let mut log = LogWriter::default();
        let mut slots: Vec<Slot> = (0..self.config.machines)
            .map(|_| Slot {
                process: 0,
                open: false,
                fault: FaultId::new(0),
                overlay: None,
                observed: Vec::new(),
                tried: Vec::new(),
            })
            .collect();

        let interarrival =
            Exponential::from_mean(self.config.mean_fault_interarrival.as_secs_f64());

        // Seed each machine's first fault arrival.
        for m in 0..self.config.machines {
            let dt = SimDuration::from_secs(interarrival.sample(&mut self.rng) as u64);
            if dt <= self.config.horizon {
                let fault = catalog.sample_fault(&mut self.rng).id();
                queue.push(
                    SimTime::EPOCH + dt,
                    MachineId::new(m),
                    EventKind::FaultArrives(fault),
                );
            }
        }

        while let Some(event) = queue.pop() {
            log.advance(event.time);
            let machine = event.machine;
            let slot = &mut slots[machine.index() as usize];
            match event.kind {
                EventKind::FaultArrives(fault_id) => {
                    debug_assert!(!slot.open, "arrival while recovering");
                    let fault = catalog.fault(fault_id).expect("sampled from catalog");
                    slot.process = slot.process.wrapping_add(1);
                    slot.open = true;
                    slot.fault = fault_id;
                    slot.overlay = None;
                    slot.observed.clear();
                    slot.observed.push(fault.primary_symptom());
                    slot.tried.clear();
                    log.write(LogEntry {
                        time: event.time,
                        machine,
                        event: LogEvent::Symptom(fault.primary_symptom()),
                    });
                    // Secondary symptoms of the primary fault.
                    self.schedule_secondaries(
                        &mut queue,
                        machine,
                        event.time,
                        fault_id,
                        slot.process,
                    );
                    // Noise: an overlapping second fault mixes in its symptoms.
                    if self.rng.gen_bool(self.config.noise_prob) {
                        let overlay = catalog.sample_fault(&mut self.rng).id();
                        if overlay != fault_id {
                            slot.overlay = Some(overlay);
                            let of = catalog.fault(overlay).expect("in catalog");
                            let delay = SimDuration::from_secs(self.rng.gen_range(30..600));
                            queue.push(
                                event.time + delay,
                                machine,
                                EventKind::EmitSymptom {
                                    symptom: of.primary_symptom(),
                                    process: slot.process,
                                },
                            );
                            self.schedule_secondaries(
                                &mut queue,
                                machine,
                                event.time + delay,
                                overlay,
                                slot.process,
                            );
                        }
                    }
                    truth.record(
                        machine,
                        event.time,
                        ProcessTruth {
                            fault: fault_id,
                            overlay: slot.overlay,
                        },
                    );
                    // Controller engages after the detection delay.
                    let engage = event.time
                        + SimDuration::from_secs(
                            Exponential::from_mean(fault.mean_detection_delay_secs())
                                .sample(&mut self.rng)
                                .max(1.0) as u64,
                        );
                    self.start_attempt(slot, machine, engage, &mut queue, &mut log);
                }
                EventKind::EmitSymptom { symptom, process } => {
                    if slot.is_current(process) {
                        if !slot.observed.contains(&symptom) {
                            slot.observed.push(symptom);
                        }
                        log.write(LogEntry {
                            time: event.time,
                            machine,
                            event: LogEvent::Symptom(symptom),
                        });
                    }
                }
                EventKind::ActionCompletes { cured, process } => {
                    if !slot.is_current(process) {
                        continue;
                    }
                    if cured {
                        slot.open = false;
                        log.write(LogEntry {
                            time: event.time,
                            machine,
                            event: LogEvent::Success,
                        });
                        // Schedule the next fault if within the horizon.
                        let dt = SimDuration::from_secs(
                            interarrival.sample(&mut self.rng).max(1.0) as u64,
                        );
                        let next = event.time + dt;
                        if next.duration_since(SimTime::EPOCH) <= self.config.horizon {
                            let fault = catalog.sample_fault(&mut self.rng).id();
                            queue.push(next, machine, EventKind::FaultArrives(fault));
                        }
                    } else {
                        self.start_attempt(slot, machine, event.time, &mut queue, &mut log);
                    }
                }
            }
        }
        let log = RecoveryLog::from_sorted_entries(log.finish(), catalog.symptoms().clone());
        (log, truth)
    }

    /// Chooses the next action via the policy (or the forced RMA at the
    /// attempt cap), logs it at `now`, samples its outcome and duration,
    /// and schedules its completion.
    fn start_attempt(
        &mut self,
        slot: &mut Slot,
        machine: MachineId,
        now: SimTime,
        queue: &mut EventQueue,
        log: &mut LogWriter,
    ) {
        let action = if slot.tried.len() + 1 >= self.config.max_attempts {
            // N-1 automated attempts failed: request manual repair.
            RepairAction::Rma
        } else {
            self.policy.decide(&PolicyContext {
                initial_symptom: slot.observed[0],
                observed_symptoms: &slot.observed,
                tried_actions: &slot.tried,
            })
        };
        slot.tried.push(action);
        log.write(LogEntry {
            time: now,
            machine,
            event: LogEvent::Action(action),
        });

        let fault = self.catalog.fault(slot.fault).expect("in catalog");
        let mut cured = fault.attempt_cures(action, &mut self.rng);
        // A noisy process needs the overlay fault cured too.
        if let Some(overlay) = slot.overlay {
            let of = self.catalog.fault(overlay).expect("in catalog");
            cured = cured && of.attempt_cures(action, &mut self.rng);
        }
        let duration = fault.timing(action).sample(cured, &mut self.rng);
        // A failed attempt often re-emits the primary symptom mid-window.
        if !cured && self.rng.gen_bool(self.config.re_emit_prob) {
            let frac = self.rng.gen_range(0.2..0.8);
            let at = now + SimDuration::from_secs((duration.as_secs_f64() * frac).max(1.0) as u64);
            let symptom = fault.primary_symptom();
            let process = slot.process;
            queue.push(at, machine, EventKind::EmitSymptom { symptom, process });
        }
        let process = slot.process;
        queue.push(
            now + duration,
            machine,
            EventKind::ActionCompletes { cured, process },
        );
    }

    fn schedule_secondaries(
        &mut self,
        queue: &mut EventQueue,
        machine: MachineId,
        base: SimTime,
        fault: FaultId,
        process: u32,
    ) {
        let spec = self.catalog.fault(fault).expect("in catalog");
        for s in spec.secondary_symptoms() {
            if self.rng.gen_bool(s.probability) {
                let delay = Exponential::from_mean(s.mean_delay_secs).sample(&mut self.rng);
                let at = base + SimDuration::from_secs(delay.max(1.0) as u64);
                let symptom = s.symptom;
                queue.push(at, machine, EventKind::EmitSymptom { symptom, process });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::policy::{FixedActionPolicy, UserDefinedPolicy};
    use proptest::prelude::*;

    fn small_catalog() -> FaultCatalog {
        CatalogConfig::default().with_fault_types(10).generate(7)
    }

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            machines: 20,
            horizon: SimDuration::from_days(20),
            mean_fault_interarrival: SimDuration::from_days(2),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn run_produces_complete_processes() {
        let catalog = small_catalog();
        let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), small_config(), 1);
        let (mut log, truth) = sim.run();
        let procs = log.split_processes();
        assert!(!procs.is_empty(), "simulation produced no processes");
        assert_eq!(procs.len(), truth.len(), "every process has ground truth");
        for p in &procs {
            assert!(truth.lookup(p.machine(), p.start()).is_some());
            assert!(p.downtime() > SimDuration::ZERO);
            assert!(!p.actions().is_empty(), "controller always acts");
            assert!(p.actions().len() <= 20, "N = 20 cap respected");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let catalog = small_catalog();
        let run = |seed| {
            let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), small_config(), seed);
            let (mut log, _) = sim.run();
            log.to_text()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn initial_symptom_matches_ground_truth_fault() {
        let catalog = small_catalog();
        let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), small_config(), 2);
        let (mut log, truth) = sim.run();
        for p in log.split_processes() {
            let t = truth.lookup(p.machine(), p.start()).unwrap();
            let fault = catalog.fault(t.fault).unwrap();
            assert_eq!(p.initial_symptom(), fault.primary_symptom());
        }
    }

    #[test]
    fn rma_only_policy_cures_in_one_attempt() {
        let catalog = small_catalog();
        let sim = ClusterSim::new(
            &catalog,
            FixedActionPolicy::new(RepairAction::Rma),
            small_config(),
            3,
        );
        let (mut log, _) = sim.run();
        let procs = log.split_processes();
        assert!(!procs.is_empty());
        for p in &procs {
            assert_eq!(p.actions().len(), 1, "RMA always cures");
            assert_eq!(p.final_action(), Some(RepairAction::Rma));
        }
    }

    #[test]
    fn trynop_only_policy_hits_the_attempt_cap() {
        // Build a catalog where TRYNOP never works, then insist on it:
        // the N = 20 cap must force a final RMA on attempt 20.
        let catalog = CatalogConfig::default()
            .with_fault_types(3)
            .with_deceptive_ranks(vec![0, 1, 2])
            .generate(11);
        let config = ClusterConfig {
            machines: 5,
            horizon: SimDuration::from_days(30),
            mean_fault_interarrival: SimDuration::from_days(3),
            noise_prob: 0.0,
            ..ClusterConfig::default()
        };
        let sim = ClusterSim::new(
            &catalog,
            FixedActionPolicy::new(RepairAction::TryNop),
            config,
            4,
        );
        let (mut log, _) = sim.run();
        let procs = log.split_processes();
        assert!(!procs.is_empty());
        let mut saw_cap = false;
        for p in &procs {
            let last = p.final_action().unwrap();
            if p.actions().len() == 20 {
                assert_eq!(last, RepairAction::Rma, "cap forces manual repair");
                saw_cap = true;
            }
            assert!(p.actions().len() <= 20);
        }
        assert!(
            saw_cap,
            "deceptive faults should exhaust the TRYNOP-only policy"
        );
    }

    #[test]
    fn noise_processes_are_recorded_in_truth() {
        let catalog = small_catalog();
        let config = ClusterConfig {
            noise_prob: 0.5,
            ..small_config()
        };
        let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), config, 9);
        let (mut log, truth) = sim.run();
        let procs = log.split_processes();
        let noisy = procs
            .iter()
            .filter(|p| {
                truth
                    .lookup(p.machine(), p.start())
                    .unwrap()
                    .overlay
                    .is_some()
            })
            .count();
        assert!(
            noisy > 0,
            "with noise_prob = 0.5 some processes must be noisy"
        );
    }

    #[test]
    fn no_arrivals_beyond_horizon() {
        let catalog = small_catalog();
        let config = ClusterConfig {
            horizon: SimDuration::from_days(10),
            ..small_config()
        };
        let horizon = config.horizon;
        let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), config, 12);
        let (mut log, _) = sim.run();
        for p in log.split_processes() {
            assert!(
                p.start().duration_since(SimTime::EPOCH) <= horizon,
                "process started after the horizon"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The simulator writes its log in the order the log's own stable
        /// `(time, machine)` sort gives, for clusters dense enough that
        /// many entries share a second and sparse enough that faults
        /// arrive beyond the event queue's wheel.
        #[test]
        fn simulated_log_is_its_own_stable_sort(
            machines in 1u32..40,
            hours in 1u64..200,
            interarrival_mins in 1u64..3_000,
            noise_prob in prop_oneof![Just(0.0), Just(0.033), Just(0.5)],
            re_emit_prob in prop_oneof![Just(0.0), Just(0.6), Just(1.0)],
            seed in 0u64..1_000,
        ) {
            let catalog = CatalogConfig::default().with_fault_types(6).generate(seed);
            let config = ClusterConfig {
                machines,
                horizon: SimDuration::from_hours(hours),
                mean_fault_interarrival: SimDuration::from_mins(interarrival_mins),
                noise_prob,
                re_emit_prob,
                ..ClusterConfig::default()
            };
            let sim = ClusterSim::new(&catalog, UserDefinedPolicy::default(), config, seed);
            let (mut log, _) = sim.run();
            let entries = log.entries().to_vec();
            let mut sorted = entries.clone();
            sorted.sort_by_key(|e| (e.time, e.machine));
            prop_assert_eq!(entries, sorted);
        }
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn rejects_empty_cluster() {
        let catalog = small_catalog();
        let config = ClusterConfig {
            machines: 0,
            ..ClusterConfig::default()
        };
        let _ = ClusterSim::new(&catalog, UserDefinedPolicy::default(), config, 0);
    }
}
