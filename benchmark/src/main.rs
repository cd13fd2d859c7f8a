//! `autorecover-bench`: the end-to-end benchmark's command line.
//!
//! ```text
//! autorecover-bench measure --workload W --seed N --seconds S --trace 0|1 [--profile-out FILE]
//! autorecover-bench run --seed N [--traced] [--repeat R] [--out FILE]
//! autorecover-bench compare BASE.json NEW.json
//! ```
//!
//! `measure` runs one workload in this process and prints, as the last
//! line of standard output, `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it carries sample counts and violations.
//! It exits 1 when any output was wrong. `run` times each workload for
//! `BENCHMARK.json`'s `run_seconds`; `compare` applies its bounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use recovery_benchmark::suite::{self, RunOptions};
use recovery_benchmark::workloads::{self, Ctx, Sizes, Workload};

/// The file whose bounds `compare` applies, relative to the repository
/// root the benchmark runs from.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Positional arguments and `--flag value` pairs (`--traced` takes none).
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("traced") => {
                    flags.insert("traced".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None => positional.push(arg),
            }
        }
        Ok(Args { positional, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse {v:?}"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("missing --{name}"))
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.require("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds: f64 = args.require("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match args.require::<u8>("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let ctx = Ctx {
        seed: args.require("seed")?,
        seconds,
        trace,
        sizes: Sizes::full(),
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        profile_out: args.get("profile-out")?,
    };
    let outcome = workloads::measure(workload, &ctx)?;
    for (def, reading) in outcome.readings(trace)? {
        eprintln!(
            "{} {} {} {} (n={})",
            workload.name(),
            def.name,
            reading.value,
            def.unit,
            reading.samples
        );
    }
    for violation in &outcome.violations {
        eprintln!("violation: {violation}");
    }
    println!("{}", outcome.detail_json(trace)?.render());
    println!("{}", outcome.result_json(trace)?.render());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let traced = args.flags.contains_key("traced");
    let seed: u64 = args.require("seed")?;
    let default_out = if traced {
        PathBuf::from(".bench_out/layers.json")
    } else {
        PathBuf::from(format!(".bench_out/run-seed{seed}.json"))
    };
    let opts = RunOptions {
        seed,
        traced,
        repeat: args.get("repeat")?.unwrap_or(1),
        out: args.get("out")?.unwrap_or(default_out),
    };
    if opts.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(if suite::run(&opts)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [base, new] = args
        .positional
        .get(1..3)
        .and_then(|p| <&[String; 2]>::try_from(p).ok())
        .ok_or("compare needs BASE.json and NEW.json")?;
    Ok(
        if suite::compare(base.as_ref(), new.as_ref(), BENCHMARK_JSON.as_ref())? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("measure") => measure(&args),
            Some("run") => run(&args),
            Some("compare") => compare(&args),
            _ => Err("usage: autorecover-bench measure|run|compare …".into()),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
