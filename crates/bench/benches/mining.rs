//! Benchmarks of the m-pattern mining substrate and the noise filter on
//! three symptom logs:
//!
//! * `small`: `GeneratorConfig::small()`, where the filter takes
//!   milliseconds;
//! * `paper_scale`: the log the end-to-end benchmark's `offline` workload
//!   filters (paper scale, default fault catalog, cluster history seed 7),
//!   whose processes repeat a few thousand distinct symptom sets;
//! * `all_distinct`: as many processes and symptoms as `paper_scale`, but
//!   no two processes share a symptom set — the worst case for a filter
//!   that judges each distinct set once.
//!
//! ```text
//! cargo bench -p recovery-bench --bench mining -- --bench
//! ```

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_core::error_type::NoiseFilter;
use recovery_mpattern::MPatternMiner;
use recovery_simlog::{
    ClusterSim, GeneratorConfig, LogGenerator, MachineId, RecoveryLog, RecoveryProcess, SimTime,
    SymptomId,
};

/// Processes and distinct symptoms of the paper-scale log.
const PAPER_PROCESSES: usize = 71_094;
const PAPER_SYMPTOMS: u32 = 336;

/// The `offline` workload's log, parsed back from its text so symptom ids
/// are interned in the order ingestion sees them.
fn paper_scale_processes() -> Vec<RecoveryProcess> {
    let config = GeneratorConfig::paper_scale(1.0);
    let catalog_seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    let catalog = config.catalog.generate(catalog_seed);
    let mut log = ClusterSim::new(&catalog, config.policy, config.cluster, 7)
        .run()
        .0;
    RecoveryLog::from_text(&log.to_text())
        .expect("own output parses")
        .split_processes()
}

/// [`PAPER_PROCESSES`] processes with distinct sets of 2–5 symptoms drawn
/// from [`PAPER_SYMPTOMS`], from a fixed seed.
fn all_distinct_processes() -> Vec<RecoveryProcess> {
    let mut rng = StdRng::seed_from_u64(0xD157_1AC7);
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut processes = Vec::with_capacity(PAPER_PROCESSES);
    while processes.len() < PAPER_PROCESSES {
        let len = rng.gen_range(2..6);
        let mut symptoms: Vec<u32> = Vec::with_capacity(len);
        while symptoms.len() < len {
            let s = rng.gen_range(0..PAPER_SYMPTOMS);
            if !symptoms.contains(&s) {
                symptoms.push(s);
            }
        }
        let mut key = symptoms.clone();
        key.sort_unstable();
        if !seen.insert(key) {
            continue;
        }
        let start = processes.len() as u64 * 1_000;
        processes.push(RecoveryProcess::new(
            MachineId::new(processes.len() as u32 % 2_000),
            symptoms
                .iter()
                .enumerate()
                .map(|(i, &s)| (SimTime::from_secs(start + i as u64), SymptomId::new(s)))
                .collect(),
            vec![],
            SimTime::from_secs(start + 500),
        ));
    }
    processes
}

/// The filter's passes over `processes`: the symptom database build, the
/// partition at the paper's `minp = 0.1` (database build included) and
/// the Figure-3 statistic on a prebuilt database.
fn bench_filter(group: &mut BenchmarkGroup<'_>, name: &str, processes: &[RecoveryProcess]) {
    let distinct: HashSet<Vec<SymptomId>> = processes
        .iter()
        .map(|p| {
            let mut set = p.symptom_set();
            set.sort_unstable();
            set
        })
        .collect();
    println!(
        "# {name}: {} processes, {} distinct symptom sets",
        processes.len(),
        distinct.len()
    );
    group.bench_function(&format!("{name}/transaction_db"), |b| {
        b.iter(|| std::hint::black_box(NoiseFilter::transaction_db(processes).len()))
    });
    let db = NoiseFilter::transaction_db(processes);
    group.bench_function(&format!("{name}/partition"), |b| {
        b.iter_batched(
            || processes.to_vec(),
            |p| std::hint::black_box(NoiseFilter::default().partition(p).clean.len()),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(&format!("{name}/cohesive_fraction"), |b| {
        b.iter(|| std::hint::black_box(db.cohesive_fraction(0.1)))
    });
}

fn bench_mining(c: &mut Criterion) {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let processes = generated.log.split_processes();
    let db = NoiseFilter::transaction_db(&processes);
    let mut group = c.benchmark_group("mpattern");
    group.sample_size(10);
    group.bench_function("mine_maximal_minp_0.1", |b| {
        b.iter(|| std::hint::black_box(MPatternMiner::new(0.1).mine_maximal(&db).len()))
    });
    group.bench_function("cohesive_fraction_minp_0.1", |b| {
        b.iter(|| std::hint::black_box(db.cohesive_fraction(0.1)))
    });
    group.bench_function("noise_filter_partition", |b| {
        b.iter_batched(
            || processes.clone(),
            |p| std::hint::black_box(NoiseFilter::default().partition(p).clean.len()),
            criterion::BatchSize::LargeInput,
        )
    });
    bench_filter(&mut group, "paper_scale", &paper_scale_processes());
    bench_filter(&mut group, "all_distinct", &all_distinct_processes());
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
