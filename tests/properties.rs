//! Property-based tests (proptest) on cross-crate invariants:
//! serialization round-trips, the replay hypotheses, Q-learning vs exact
//! dynamic programming, m-pattern monotonicity, and the optimality of the
//! per-type DP solution.

use proptest::prelude::*;

use recovery_core::error_type::{ErrorType, NoiseFilter};
use recovery_core::exact::EmpiricalTypeModel;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::UserStatePolicy;
use recovery_core::state::{ActionMultiset, RecoveryState};
use recovery_core::trainer::type_seed;
use recovery_mdp::{
    value_iteration, BoltzmannSelector, DenseQTable, DoubleQLearning, QLearning, QLearningConfig,
    QTable, SampledMdp, Sarsa, TabularMdp, TemperatureSchedule,
};
use recovery_mpattern::TransactionDb;
use recovery_simlog::{
    ActionRecord, LogEntry, LogEvent, MachineId, RecoveryLog, RecoveryProcess, RepairAction,
    SimTime, SymptomId,
};

// ---------- generators ----------

fn arb_action() -> impl Strategy<Value = RepairAction> {
    prop_oneof![
        Just(RepairAction::TryNop),
        Just(RepairAction::Reboot),
        Just(RepairAction::Reimage),
        Just(RepairAction::Rma),
    ]
}

/// A random, well-formed recovery process: a symptom burst, then an
/// escalating action ladder ending at `required`, then success.
fn arb_process(machine: u32, start: u64) -> impl Strategy<Value = RecoveryProcess> {
    (
        arb_action(),
        0u32..5,
        1u64..5000,
        proptest::collection::vec(0u32..12, 1..4),
    )
        .prop_map(move |(required, extra_sym, gap, symptom_ids)| {
            let mut symptoms: Vec<(SimTime, SymptomId)> = symptom_ids
                .iter()
                .enumerate()
                .map(|(i, &s)| (SimTime::from_secs(start + i as u64), SymptomId::new(s)))
                .collect();
            symptoms.truncate(1 + extra_sym as usize);
            let mut actions = Vec::new();
            let mut now = start + 100;
            for a in RepairAction::ALL {
                actions.push(ActionRecord {
                    time: SimTime::from_secs(now),
                    action: a,
                });
                now += gap;
                if a.at_least_as_strong_as(required) {
                    break;
                }
            }
            RecoveryProcess::new(
                MachineId::new(machine),
                symptoms,
                actions,
                SimTime::from_secs(now),
            )
        })
}

fn arb_processes() -> impl Strategy<Value = Vec<RecoveryProcess>> {
    proptest::collection::vec(arb_action(), 3..25).prop_flat_map(|reqs| {
        let strategies: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(i, _)| arb_process(i as u32, i as u64 * 1_000_000))
            .collect();
        strategies
    })
}

// ---------- simlog ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any log built from valid entries survives the textual round trip:
    /// the re-rendered text is byte-identical, the entries are equal, and
    /// so are the processes.
    #[test]
    fn log_text_round_trip(processes in arb_processes()) {
        let mut log = RecoveryLog::new();
        // Intern enough symptom names for every id used above.
        let ids: Vec<SymptomId> =
            (0..12).map(|i| log.symptoms_mut().intern(&format!("error:Component{i}"))).collect();
        let _ = ids;
        for p in &processes {
            for &(t, s) in p.symptoms() {
                log.push(LogEntry { time: t, machine: p.machine(), event: LogEvent::Symptom(s) });
            }
            for a in p.actions() {
                log.push(LogEntry { time: a.time, machine: p.machine(), event: LogEvent::Action(a.action) });
            }
            log.push(LogEntry { time: p.success_time(), machine: p.machine(), event: LogEvent::Success });
        }
        let text = log.to_text();
        let mut parsed = RecoveryLog::from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed.to_text(), text.clone());
        // Parsing against the writer's catalog keeps its symptom ids.
        let mut replayed = RecoveryLog::from_text_with(&text, log.symptoms().clone(), |line, _, e| {
            Err(e.at_line(line))
        })
        .expect("own output parses");
        prop_assert_eq!(replayed.entries(), log.entries());
        prop_assert_eq!(parsed.len(), log.len());
        let a = log.split_processes();
        let b = parsed.split_processes();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.downtime(), y.downtime());
            prop_assert_eq!(x.actions(), y.actions());
        }
    }

    /// SimTime calendar round trip over ~40 years of seconds.
    #[test]
    fn simtime_round_trip(secs in 0u64..1_300_000_000) {
        let t = SimTime::from_secs(secs);
        let shown = t.to_string();
        prop_assert_eq!(shown.parse::<SimTime>().unwrap(), t);
    }

    /// Multisets are order-insensitive and count exactly.
    #[test]
    fn multiset_order_insensitive(mut actions in proptest::collection::vec(arb_action(), 0..20)) {
        let a = ActionMultiset::from_actions(actions.clone());
        actions.reverse();
        let b = ActionMultiset::from_actions(actions.clone());
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.total(), actions.len());
    }
}

// ---------- log-line codec ----------

/// Seconds of 10000-01-01 00:00:00, the first five-digit year.
fn year_10000() -> u64 {
    SimTime::from_calendar(10_000, 1, 1, 0, 0, 0)
        .expect("representable")
        .as_secs()
}

/// Instants that cross day, month and year boundaries, leap days, the
/// five-digit years and the last representable second.
fn arb_time() -> impl Strategy<Value = SimTime> {
    prop_oneof![
        // A second near either end of a day in the first 12 years.
        (0u64..4_400, prop_oneof![0u64..90, 86_310u64..86_400])
            .prop_map(|(day, s)| day * 86_400 + s),
        0u64..400_000_000,
        (0u64..2 * 86_400 * 366).prop_map(|s| year_10000() - 86_400 * 366 + s),
        year_10000()..u64::MAX,
        (0u64..200_000).prop_map(|back| u64::MAX - back),
    ]
    .prop_map(SimTime::from_secs)
}

fn arb_machine() -> impl Strategy<Value = MachineId> {
    prop_oneof![
        0u32..10,
        9_990u32..10_010,
        0u32..200_000,
        (0u32..1_000).prop_map(|d| u32::MAX - d)
    ]
    .prop_map(MachineId::new)
}

fn arb_event() -> impl Strategy<Value = LogEvent> {
    prop_oneof![
        (0u32..12).prop_map(|i| LogEvent::Symptom(SymptomId::new(i))),
        arb_action().prop_map(LogEvent::Action),
        Just(LogEvent::Success),
    ]
}

/// Entries in arbitrary order, with symptoms from `codec_catalog`.
fn arb_entries() -> impl Strategy<Value = Vec<LogEntry>> {
    proptest::collection::vec((arb_time(), arb_machine(), arb_event()), 0..40).prop_map(|v| {
        v.into_iter()
            .map(|(time, machine, event)| LogEntry {
                time,
                machine,
                event,
            })
            .collect()
    })
}

fn codec_catalog() -> recovery_simlog::SymptomCatalog {
    let mut catalog = recovery_simlog::SymptomCatalog::new();
    for i in 0..12 {
        catalog.intern(&format!(
            "error{}:Component-{i}",
            if i % 2 == 0 { "" } else { "Hardware" }
        ));
    }
    catalog
}

/// The rendering the log format specifies, from the calendar fields.
fn oracle_time(t: SimTime) -> String {
    let (y, mo, d, h, mi, s) = t.to_calendar();
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
}

/// One edit at `at` (taken modulo the length): replace, insert or
/// delete, with bytes that keep a line near its rendered form.
fn mutate(line: &mut Vec<u8>, op: u8, at: usize, byte: u8) {
    const BYTES: &[u8] = b"0123456789-: \t+M0";
    let byte = BYTES[byte as usize % BYTES.len()];
    match op % 3 {
        0 if !line.is_empty() => {
            let at = at % line.len();
            line[at] = byte;
        }
        1 => line.insert(at % (line.len() + 1), byte),
        _ if !line.is_empty() => {
            line.remove(at % line.len());
        }
        _ => line.push(byte),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(render(entries)) == entries, through every reader: the
    /// sorted text of `to_text`, and the lines one by one in their
    /// arbitrary order (so a cached date from one line must not leak
    /// into a later, earlier one).
    #[test]
    fn codec_round_trips_entry_sequences(entries in arb_entries()) {
        let catalog = codec_catalog();
        let mut log = RecoveryLog::with_symptoms(catalog.clone());
        for &e in &entries {
            log.push(e);
        }
        let text = log.to_text();
        let strict = |line: usize, _: &str, e: recovery_simlog::ParseLogError| Err(e.at_line(line));
        let mut parsed = RecoveryLog::from_text_with(&text, catalog.clone(), strict)
            .expect("own output parses");
        prop_assert_eq!(parsed.entries(), log.entries());
        prop_assert_eq!(parsed.to_text(), text.clone());

        let unsorted: String = entries.iter().map(|e| e.format_line(&catalog) + "\n").collect();
        let mut parsed = RecoveryLog::from_text_with(&unsorted, catalog.clone(), strict)
            .expect("own output parses");
        prop_assert_eq!(parsed.entries(), log.entries());
        let mut symptoms = catalog.clone();
        for (e, line) in entries.iter().zip(unsorted.lines()) {
            prop_assert_eq!(LogEntry::parse_line(line, &mut symptoms).unwrap(), *e);
        }
        prop_assert_eq!(symptoms, catalog);
    }

    /// The codec writes exactly what `SimTime`'s and `MachineId`'s
    /// `Display` write, and both match the format's specification.
    #[test]
    fn codec_renders_what_display_writes(entries in arb_entries()) {
        let catalog = codec_catalog();
        let mut log = RecoveryLog::with_symptoms(catalog.clone());
        for &e in &entries {
            log.push(e);
        }
        let text = log.to_text();
        let sorted = log.entries().to_vec();
        prop_assert_eq!(text.lines().count(), sorted.len());
        for (e, line) in sorted.iter().zip(text.lines()) {
            let description = match e.event {
                LogEvent::Symptom(id) => catalog.name(id).unwrap().to_owned(),
                LogEvent::Action(a) => a.to_string(),
                LogEvent::Success => "Success".to_owned(),
            };
            let expected = format!("{}\t{}\t{description}", e.time, e.machine);
            prop_assert_eq!(line, expected.as_str());
            prop_assert_eq!(e.format_line(&catalog), expected.clone());
            prop_assert_eq!(e.time.to_string(), oracle_time(e.time));
            prop_assert_eq!(e.machine.to_string(), format!("M{:04}", e.machine.index()));
        }
    }

    /// Every line the parser accepts renders back to itself: the parser
    /// takes no sign, width or leading zero the renderer would not write.
    #[test]
    fn codec_accepts_only_what_it_renders(
        time in arb_time(),
        machine in arb_machine(),
        event in arb_event(),
        edits in proptest::collection::vec((0u8..3, 0usize..64, 0u8..32), 1..4),
    ) {
        let catalog = codec_catalog();
        let entry = LogEntry { time, machine, event };
        let mut line = entry.format_line(&catalog).into_bytes();
        for &(op, at, byte) in &edits {
            mutate(&mut line, op, at, byte);
        }
        let line = String::from_utf8(line).expect("ASCII edits");
        let mut symptoms = catalog.clone();
        if let Ok(parsed) = LogEntry::parse_line(&line, &mut symptoms) {
            prop_assert_eq!(parsed.format_line(&symptoms), line.clone());
        }
        let mut fields = line.splitn(3, '\t');
        if let Some(field) = fields.next() {
            if let Ok(t) = field.parse::<SimTime>() {
                prop_assert_eq!(t.to_string(), field);
            }
        }
        if let Some(field) = fields.next() {
            if let Ok(m) = field.parse::<MachineId>() {
                prop_assert_eq!(m.to_string(), field);
            }
        }
    }

    /// No input makes the parser panic: arbitrary bytes, alone or spliced
    /// into a rendered line, under strict and lenient parsing.
    #[test]
    fn codec_parser_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..80),
        time in arb_time(),
        at in 0usize..40,
    ) {
        let catalog = codec_catalog();
        let line = LogEntry { time, machine: MachineId::new(7), event: LogEvent::Success }
            .format_line(&catalog);
        let at = at.min(line.len());
        let mut spliced = line.as_bytes()[..at].to_vec();
        spliced.extend_from_slice(&bytes);
        spliced.extend_from_slice(&line.as_bytes()[at..]);
        for input in [bytes, spliced] {
            let text = String::from_utf8_lossy(&input).into_owned();
            let _ = RecoveryLog::from_text(&text);
            let lenient = RecoveryLog::from_text_with(&text, catalog.clone(), |_, _, _| {
                Ok::<(), recovery_simlog::ParseLogError>(())
            });
            prop_assert!(lenient.is_ok());
            for field in text.split(['\t', '\n']) {
                let _ = field.parse::<SimTime>();
                let _ = field.parse::<MachineId>();
            }
        }
    }
}

// ---------- platform / replay hypotheses ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// H2 monotonicity: if an action cures in replay, every stronger
    /// action also cures; costs are positive and finite.
    #[test]
    fn replay_verdicts_are_monotone(processes in arb_processes()) {
        let platform = SimulationPlatform::from_processes(&processes, CostEstimation::PreferActual);
        for p in &processes {
            let mut prev_cured = false;
            for a in RepairAction::ALL {
                let outcome = platform.attempt(p, a, 0);
                prop_assert!(outcome.cost.is_finite() && outcome.cost >= 0.0);
                prop_assert!(
                    !prev_cured || outcome.cured,
                    "stronger action flipped a cure to a failure"
                );
                prev_cured = outcome.cured;
            }
            // RMA always cures (manual repair).
            prop_assert!(platform.attempt(p, RepairAction::Rma, 0).cured);
        }
    }

    /// Replaying the generating ladder in actual-cost mode reconstructs
    /// each process's downtime exactly.
    #[test]
    fn ladder_replay_is_exact(processes in arb_processes()) {
        let platform = SimulationPlatform::from_processes(&processes, CostEstimation::PreferActual);
        let user = UserStatePolicy::default();
        for p in &processes {
            let replay = platform.replay(p, &user, 20);
            prop_assert!(replay.handled());
            let diff = (replay.total_cost() - p.downtime().as_secs_f64()).abs();
            prop_assert!(diff < 1e-6, "replay cost {} vs downtime {}", replay.total_cost(), p.downtime().as_secs());
        }
    }

    /// The exact DP optimum never loses to the user ladder (it optimizes
    /// over a superset of policies), its chain reproduces its value to
    /// the bit, and value iteration on the same model written out as an
    /// explicit MDP finds the same optimum.
    #[test]
    fn dp_optimum_dominates_the_ladder(reqs in proptest::collection::vec(arb_action(), 2..30)) {
        let processes: Vec<RecoveryProcess> = reqs
            .iter()
            .enumerate()
            .map(|(i, &req)| {
                let start = i as u64 * 1_000_000;
                let mut actions = Vec::new();
                let mut now = start + 100;
                for a in RepairAction::ALL {
                    actions.push(ActionRecord { time: SimTime::from_secs(now), action: a });
                    now += 600 * (a.index() as u64 + 1);
                    if a.at_least_as_strong_as(req) {
                        break;
                    }
                }
                RecoveryProcess::new(
                    MachineId::new(i as u32),
                    vec![(SimTime::from_secs(start), SymptomId::new(1))],
                    actions,
                    SimTime::from_secs(now),
                )
            })
            .collect();
        let platform = SimulationPlatform::from_processes(&processes, CostEstimation::AverageOnly);
        let refs: Vec<&RecoveryProcess> = processes.iter().collect();
        let model = EmpiricalTypeModel::new(ErrorType::new(SymptomId::new(1)), &refs, &platform);
        let opt = model.optimal(20);
        let user_cost = model.policy_cost(&UserStatePolicy::default(), 20).unwrap();
        prop_assert!(opt.expected_cost <= user_cost + 1e-6,
            "DP {} worse than ladder {}", opt.expected_cost, user_cost);
        prop_assert_eq!(model.policy_cost(&opt, 20), Some(opt.expected_cost));

        // The grid as a `TabularMdp`: cell `attempts × 4 + column` per
        // (strongest failure, attempts), plus one terminal state. Every
        // action acts as RMA at the last attempt.
        const N: usize = 20;
        let strongest = [
            None,
            Some(RepairAction::TryNop),
            Some(RepairAction::Reboot),
            Some(RepairAction::Reimage),
        ];
        let column = |m: Option<RepairAction>| m.map_or(0, |a| a.index() + 1);
        let terminal = 4 * N;
        let mut mdp = TabularMdp::new(4 * N + 1, RepairAction::COUNT);
        mdp.set_terminal(terminal);
        for attempts in 0..N {
            for m in strongest {
                let s = attempts * 4 + column(m);
                for a in RepairAction::ALL {
                    let acted = if attempts + 1 == N { RepairAction::Rma } else { a };
                    let p = model.success_prob(m, acted);
                    let cost = p * model.average_cost(acted, true)
                        + (1.0 - p) * model.average_cost(acted, false);
                    mdp.set_cost(s, a.index(), cost);
                    if p > 0.0 {
                        mdp.add_transition(s, a.index(), p, terminal);
                    }
                    if p < 1.0 {
                        let next = (attempts + 1) * 4 + column(m.max(Some(acted)));
                        mdp.add_transition(s, a.index(), 1.0 - p, next);
                    }
                }
            }
        }
        let v_star = value_iteration(&mdp, 1.0, 1e-12, 10_000).values[0];
        prop_assert!((v_star - opt.expected_cost).abs() <= 1e-9 * opt.expected_cost,
            "DP {} vs value iteration {}", opt.expected_cost, v_star);
    }
}

// ---------- mdp ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The learners converge to the value-iteration optimum on random
    /// proper episodic MDPs: Q-learning and double Q-learning learn the
    /// start value, SARSA's start value sits no lower than the optimum
    /// (up to sampling noise), and all three learners greedily pick a
    /// start action whose exact one-step lookahead cost is the optimum.
    /// The exploration phase boundary resets Q-learning's visit counts
    /// mid-run.
    #[test]
    fn q_learning_matches_value_iteration(seed in 0u64..5000) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut model_rng = StdRng::seed_from_u64(seed);
        let mdp = TabularMdp::random_episodic(5, 3, &mut model_rng);
        let exact = value_iteration(&mdp, 1.0, 1e-12, 10_000);
        let v_star = exact.values[0];
        let config = QLearningConfig {
            max_episodes: 40_000,
            schedule: TemperatureSchedule::Geometric { t0: 200.0, decay: 0.9995, floor: 0.05 },
            convergence_tol: 0.05,
            convergence_window: 300,
            exploration_fraction: 0.25,
            ..QLearningConfig::default()
        };
        let env = || SampledMdp::new(&mdp, StdRng::seed_from_u64(seed ^ 0xA5), vec![0]);
        let rng = || StdRng::seed_from_u64(seed ^ 0x5A);
        let table = DenseQTable::new(mdp.n_states(), mdp.n_actions());
        let runs = [
            ("q-learning", QLearning::new(config.clone()).train(&mut env(), &mut rng(), table), true),
            ("double-q", DoubleQLearning::new(config.clone()).train(&mut env(), &mut rng()), true),
            // SARSA values its exploring behaviour policy, which costs at
            // least the optimum: its value is held only from below.
            ("sarsa", Sarsa::new(config).train(&mut env(), &mut rng()), false),
        ];
        for (name, result, learns_value) in runs {
            let (a0, v0) = result.q.ranked_actions(0, &[0, 1, 2])[0];
            if learns_value {
                let rel = (v0 - v_star).abs() / v_star.max(1.0);
                prop_assert!(rel < 0.12, "{}: learned {} vs exact {} (rel {rel})", name, v0, v_star);
            } else {
                prop_assert!(v0 >= 0.88 * v_star,
                    "{}: learned {} below 0.88 × exact {}", name, v0, v_star);
            }
            let lookahead = mdp.cost(0, a0)
                + mdp.transitions(0, a0).iter().map(|&(p, next)| p * exact.values[next]).sum::<f64>();
            let rel = (lookahead - v_star).abs() / v_star.max(1.0);
            prop_assert!(rel < 1e-6,
                "{}: start action {} costs {} vs optimum {} (rel {rel})", name, a0, lookahead, v_star);
        }
    }

    /// Boltzmann selection probabilities are a valid distribution and
    /// favour cheaper actions, for arbitrary finite costs.
    #[test]
    fn boltzmann_is_a_distribution(
        costs in proptest::collection::vec(0.0f64..1e7, 2..6),
        t in 0.1f64..1e6,
    ) {
        let sel = BoltzmannSelector::new();
        let p = sel.probabilities(&costs, t);
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // The arg-min cost has the max probability.
        let min_i = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let max_p = p.iter().cloned().fold(0.0, f64::max);
        prop_assert!(p[min_i] >= max_p - 1e-12);
    }
}

// ---------- packed state codec ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed state index round-trips through decode, stays inside
    /// the codec's capacity, and is injective over reachable tried-action
    /// multisets (per-action counts bounded by the attempt budget).
    #[test]
    fn state_codec_round_trips_and_is_injective(
        seqs in proptest::collection::vec(
            proptest::collection::vec(arb_action(), 0..21), 2..12),
    ) {
        use recovery_core::state::StateCodec;
        let codec = StateCodec::new(20);
        let mut seen: std::collections::HashMap<usize, ActionMultiset> =
            std::collections::HashMap::new();
        for seq in &seqs {
            let m = ActionMultiset::from_actions(seq.iter().copied());
            let idx = codec.encode(&m);
            prop_assert!(idx < codec.num_states());
            prop_assert_eq!(codec.decode(idx), m);
            if let Some(prev) = seen.insert(idx, m) {
                prop_assert_eq!(prev, m, "distinct multisets collided at index {}", idx);
            }
        }
    }

    /// Packed transitions are the packed image of multiset insertion:
    /// `after(encode(m), a) == encode(m.with(a))`.
    #[test]
    fn state_codec_transition_matches_multiset_insertion(
        seq in proptest::collection::vec(arb_action(), 0..20),
        extra in arb_action(),
    ) {
        use recovery_core::state::StateCodec;
        let codec = StateCodec::new(20);
        let m = ActionMultiset::from_actions(seq.iter().copied());
        let idx = codec.encode(&m);
        prop_assert_eq!(codec.after(idx, extra), codec.encode(&m.with(extra)));
    }
}

// ---------- mpattern ----------

/// Transactions drawn from a pool of at most five itemsets, so nearly
/// every case repeats an itemset. Items lie in `0..universe` and may come
/// unsorted and duplicated within a transaction, as raw symptom lists do.
fn arb_repeating_transactions(
    universe: u32,
    max_items: usize,
    max_transactions: usize,
) -> impl Strategy<Value = Vec<Vec<u32>>> {
    (
        proptest::collection::vec(proptest::collection::vec(0..universe, 1..max_items), 1..6),
        proptest::collection::vec(0usize..1_000, 1..max_transactions),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|i| pool[i % pool.len()].clone())
                .collect()
        })
}

/// Transactions of `raw` containing every item of `items`, counted one by
/// one: the oracle the database's multiplicity-weighted counts must meet.
fn naive_support(raw: &[Vec<u32>], items: &[u32]) -> usize {
    raw.iter()
        .filter(|t| items.iter().all(|i| t.contains(i)))
        .count()
}

/// The dependence of `items` over `raw`, from [`naive_support`].
fn naive_dependence(raw: &[Vec<u32>], items: &[u32]) -> f64 {
    let support = naive_support(raw, items);
    if items.len() <= 1 {
        return if items.is_empty() || support > 0 {
            1.0
        } else {
            0.0
        };
    }
    let mut min_ratio = f64::INFINITY;
    for &item in items {
        let s = naive_support(raw, &[item]);
        if s == 0 {
            return 0.0;
        }
        min_ratio = min_ratio.min(support as f64 / s as f64);
    }
    min_ratio
}

/// A transaction's symptom set as the filter judges it: sorted, distinct.
fn distinct_sorted(t: &[u32]) -> Vec<u32> {
    let mut set = t.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// Checks `support`, `dependence`, `cohesive_fraction` and every
/// transaction's verdict of `db` against naive counts over `raw`, the
/// transactions `db` was built from.
fn check_against_naive_counts(db: &TransactionDb<u32>, raw: &[Vec<u32>]) -> TestCaseResult {
    prop_assert_eq!(db.len(), raw.len());
    prop_assert_eq!(db.itemset_ids().len(), raw.len());
    let sets: Vec<Vec<u32>> = db.itemsets().map(|(set, _)| set.to_vec()).collect();
    for (set, count) in db.itemsets() {
        prop_assert_eq!(
            count,
            raw.iter().filter(|t| distinct_sorted(t) == set).count()
        );
    }
    let items = db.items();
    for &a in &items {
        prop_assert_eq!(db.support(&[a]), naive_support(raw, &[a]));
        for &b in &items {
            for query in [vec![a, b], vec![b, a, b]] {
                prop_assert_eq!(db.support(&query), naive_support(raw, &query));
                prop_assert_eq!(db.dependence(&query), naive_dependence(raw, &query));
            }
        }
    }
    let dependences = db.itemset_dependences();
    for minp_steps in 1..=10 {
        let minp = minp_steps as f64 / 10.0;
        let mut cohesive = 0;
        for (t, &id) in raw.iter().zip(db.itemset_ids()) {
            let set = distinct_sorted(t);
            prop_assert_eq!(&sets[id], &set);
            let verdict = naive_dependence(raw, &set) >= minp;
            prop_assert_eq!(dependences[id] >= minp, verdict);
            prop_assert_eq!(db.is_m_pattern(&set, minp), verdict);
            cohesive += usize::from(verdict);
        }
        prop_assert_eq!(
            db.cohesive_fraction(minp),
            cohesive as f64 / raw.len() as f64
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dependence is in [0, 1] and the cohesive fraction is non-increasing
    /// in minp, for arbitrary transaction databases; every count equals
    /// the naive count over the raw transactions.
    #[test]
    fn mpattern_monotonicity(transactions in arb_repeating_transactions(15, 6, 40)) {
        let db: TransactionDb<u32> = transactions.iter().cloned().collect();
        for (set, _) in db.itemsets() {
            let d = db.dependence(set);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&d), "dependence {d}");
        }
        let mut prev = f64::INFINITY;
        for i in 1..=10 {
            let f = db.cohesive_fraction(i as f64 / 10.0);
            prop_assert!(f <= prev + 1e-12, "cohesion increased at {i}");
            prev = f;
        }
        check_against_naive_counts(&db, &transactions)?;
    }

    /// Support is anti-monotone: adding an item never raises support.
    #[test]
    fn support_is_anti_monotone(
        transactions in arb_repeating_transactions(10, 5, 30),
        a in 0u32..10,
        b in 0u32..10,
    ) {
        let db: TransactionDb<u32> = transactions.iter().cloned().collect();
        let single = db.support(&[a]);
        let mut pair = vec![a, b];
        pair.sort_unstable();
        pair.dedup();
        prop_assert!(db.support(&pair) <= single);
        prop_assert_eq!(db.support(&pair), naive_support(&transactions, &pair));
    }

    /// The noise filter routes every process by its symptom set's naive
    /// verdict, keeping the input order on both sides.
    #[test]
    fn noise_filter_verdicts_match_naive_counts(
        transactions in arb_repeating_transactions(12, 5, 40),
        minp_steps in 1u32..11,
    ) {
        let processes: Vec<RecoveryProcess> = transactions
            .iter()
            .enumerate()
            .map(|(i, symptoms)| {
                let start = i as u64 * 1_000;
                RecoveryProcess::new(
                    MachineId::new(i as u32),
                    symptoms
                        .iter()
                        .enumerate()
                        .map(|(j, &s)| (SimTime::from_secs(start + j as u64), SymptomId::new(s)))
                        .collect(),
                    vec![ActionRecord {
                        time: SimTime::from_secs(start + 100),
                        action: RepairAction::Reboot,
                    }],
                    SimTime::from_secs(start + 200),
                )
            })
            .collect();
        let minp = minp_steps as f64 / 10.0;
        let outcome = NoiseFilter::new(minp).partition(processes);
        let (mut clean, mut noisy) = (Vec::new(), Vec::new());
        for (i, t) in transactions.iter().enumerate() {
            if naive_dependence(&transactions, &distinct_sorted(t)) >= minp {
                clean.push(i as u32);
            } else {
                noisy.push(i as u32);
            }
        }
        let machines = |ps: &[RecoveryProcess]| -> Vec<u32> {
            ps.iter().map(|p| p.machine().index()).collect()
        };
        prop_assert_eq!(machines(&outcome.clean), clean);
        prop_assert_eq!(machines(&outcome.noisy), noisy);
        prop_assert_eq!(outcome.db.len(), transactions.len());
    }
}

// ---------- mpattern differential testing ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The level-wise Apriori miner agrees exactly with brute-force
    /// enumeration on small item universes, across thresholds.
    #[test]
    fn miner_matches_brute_force(
        transactions in arb_repeating_transactions(7, 5, 25),
        minp_steps in 1u32..10,
        min_support in 1usize..4,
    ) {
        let db: TransactionDb<u32> = transactions.iter().cloned().collect();
        let minp = minp_steps as f64 / 10.0;
        let mined = recovery_mpattern::MPatternMiner::new(minp)
            .with_min_support(min_support)
            .mine(&db);
        let reference = recovery_mpattern::brute_force_mine(&db, minp, min_support);
        for p in &reference {
            prop_assert_eq!(p.support, naive_support(&transactions, &p.items));
        }
        prop_assert_eq!(mined, reference);
    }
}

// ---------- parallel training determinism ----------

/// One per-type Q-table fragment, described as (symptom offset, action,
/// value, state depth): the state is the type's initial state after
/// `depth` repetitions of the action.
type Fragment = Vec<(u32, RepairAction, f64, u8)>;

fn arb_fragment(sym_base: u32) -> impl Strategy<Value = Fragment> {
    proptest::collection::vec((0u32..6, arb_action(), 0.0f64..1e6, 0u8..4), 0..20).prop_map(
        move |v| {
            v.into_iter()
                .map(|(s, a, val, depth)| (sym_base + s, a, val, depth))
                .collect()
        },
    )
}

fn build_table(entries: &Fragment) -> QTable<RecoveryState, RepairAction> {
    let mut q = QTable::new();
    for &(sym, a, val, depth) in entries {
        let mut state = RecoveryState::initial(ErrorType::new(SymptomId::new(sym)));
        for _ in 0..depth {
            state = state.after(a);
        }
        // `update` rather than `set` so visit counts are nonzero and the
        // merge must carry them too.
        q.update(state, a, val);
    }
    q
}

/// A total, exact snapshot of a table: `(debug key, value bits, visits)`
/// sorted by key, so tables can be compared entry-for-entry.
fn snapshot(q: &QTable<RecoveryState, RepairAction>) -> Vec<(String, u64, u64)> {
    let mut v: Vec<_> = q
        .iter()
        .map(|(k, val, vis)| (format!("{k:?}"), val.to_bits(), vis))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-type fragments have disjoint keys (the state embeds the error
    /// type), so folding them into one policy table commutes: the merged
    /// table is identical — values, visit counts, entry set — no matter
    /// which fragment lands first. This is what lets the parallel trainer
    /// merge worker results in rank order without caring which worker
    /// finished first.
    #[test]
    fn qtable_merge_is_order_independent_for_disjoint_type_keys(
        a in arb_fragment(0),
        b in arb_fragment(100),
    ) {
        let (qa, qb) = (build_table(&a), build_table(&b));
        let mut ab = qa.clone();
        ab.merge_from(qb.clone());
        let mut ba = qb;
        ba.merge_from(qa);
        prop_assert_eq!(snapshot(&ab), snapshot(&ba));
        prop_assert_eq!(ab.len(), ba.len());
    }

    /// Annealing schedules are monotonically non-increasing in the step
    /// index and never fall below their floor — the property that makes
    /// "explore early, exploit late" hold for arbitrary parameters.
    #[test]
    fn temperature_anneals_monotonically(
        t0 in 1.0f64..1e6,
        decay_millis in 1u32..1000,
        floor_frac in 1e-6f64..1.0,
        mut ks in proptest::collection::vec(0u64..100_000, 2..16),
    ) {
        let decay = f64::from(decay_millis) / 1000.0;
        let floor = t0 * floor_frac;
        let schedules = [
            TemperatureSchedule::Geometric { t0, decay, floor },
            TemperatureSchedule::Harmonic { t0, floor },
        ];
        ks.sort_unstable();
        for sched in schedules {
            let mut prev = f64::INFINITY;
            for &k in &ks {
                let t = sched.temperature(k);
                prop_assert!(t >= floor, "{sched:?} fell below its floor at k={k}");
                prop_assert!(t <= prev, "{sched:?} increased at k={k}: {t} > {prev}");
                prev = t;
            }
        }
    }

    /// Boltzmann probabilities still sum to 1 along an entire anneal —
    /// the pairing of the two properties the parallel trainer's
    /// exploration relies on at every sweep index.
    #[test]
    fn boltzmann_sums_to_one_along_an_anneal(
        costs in proptest::collection::vec(0.0f64..1e7, 2..6),
        k in 0u64..50_000,
    ) {
        let sched = TemperatureSchedule::default();
        let p = BoltzmannSelector::new().probabilities(&costs, sched.temperature(k));
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total} at k={k}");
        // Late in the anneal a huge cost gap underflows exp() to exactly
        // 0 — a valid probability; only negatives/NaN/inf are bugs.
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    /// `type_seed` is injective over symptom indices for any fixed
    /// master seed and salt: no two error types can ever share a random
    /// stream, which is the bedrock of order-independent parallel
    /// training. (Both multiplications are by odd constants — bijections
    /// on u64 — so distinct indices give distinct seeds.)
    #[test]
    fn type_seed_is_injective_over_symptom_indices(
        master in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
        indices in proptest::collection::vec(0u32..1_000_000, 2..64),
    ) {
        let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for &i in &indices {
            let seed = type_seed(master, i, salt);
            if let Some(&prev) = seen.get(&seed) {
                prop_assert_eq!(
                    prev, i,
                    "indices {} and {} collide on seed {:#x}", prev, i, seed
                );
            }
            seen.insert(seed, i);
        }
    }
}
