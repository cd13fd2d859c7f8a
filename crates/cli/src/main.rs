//! `autorecover` — the end-to-end command line for the workspace:
//! generate a synthetic cluster recovery log, inspect and mine it, train
//! a recovery policy offline, evaluate it against the log, and simulate a
//! cluster running the learned policy live.

mod args;
mod commands;
mod session;
mod signal;
mod watch;

use std::process::ExitCode;

const USAGE: &str = "\
autorecover — offline RL generation of error-recovery policies
(reproduction of Zhu & Yuan, \"A Reinforcement Learning Approach to
Automatic Error Recovery\", DSN 2007)

USAGE:
  autorecover <command> [args]

COMMANDS:
  generate --out LOG [--scale F] [--seed N]
      Simulate a cluster under the production cheapest-first policy and
      write the recovery log in the textual <time, machine, description>
      format. --scale 1 is 2,000 machines over ~6 months.

  inspect LOG [--top N]
      Log statistics: entries, recovery processes, the error-type
      frequency ranking, and per-type downtime (paper Figures 5/6).

  mine LOG [--minp F]
      m-pattern analysis: the symptom-cohesion curve (paper Figure 3),
      the mined symptom clusters, and the noise-filter verdict.

  train LOG --out POLICY [--fraction F] [--method standard|tree|faithful]
            [--minp F] [--top N] [--threads N]
      Train a recovery policy on the first F of the log (by time) and
      write it as a readable policy file.

  evaluate LOG --policy POLICY [--fraction F] [--hybrid true|false]
               [--threads N]
      Replay a trained policy against the held-out tail of the log and
      report per-type relative cost and coverage (paper Figures 8-12).

  simulate POLICY [--scale F] [--seed N] [--baseline true|false]
      Run a *live* cluster simulation controlled by the trained policy
      (with user-policy fallback) and compare MTTR against the
      production policy on an identical fault sequence. --seed must
      match the seed of the log the policy was trained on (it selects
      the fault catalog).

  report LOG [--method standard|tree] [--threads N] [--fast true]
             [--diagnostics-out DIR]
      The full paper evaluation on one log: all four train/test splits,
      totals, and coverage (paper Figures 8-12 in one table).
      --diagnostics-out writes one deterministic run report per split
      (JSON + Markdown + HTML): convergence traces, policy decisions
      with confidence flags, and the evaluation summary. --fast true
      swaps in the quick trainer preset (for CI and smoke runs).

  explain POLICY [--min-visits K] [--tie F] [--json true]
      Per-state action rankings of a trained policy file: learned costs,
      the winner's margin, near-ties (runner-up within fraction F), and
      decisions backed by fewer than K Eq. 6 updates.

  diff-policy OLD NEW [--json true]
      Structured diff between two policy files: states added/removed and
      states whose chosen action flipped, with both costs.

  loop [--windows N] [--scale F] [--seed N] [--policy-out POLICY]
       [--state-dir DIR] [--crash-at PT:W,..]
       [--fault-empty W,..] [--fault-sim-panic W,..]
       [--fault-retrain-panic W,..] [--fault-blackout W,..]
      The paper's Figure 1 as a running system: alternate observation
      windows and retraining on the accumulated log, reporting the
      realized MTTR per window plus the fallback counter.
      --policy-out writes the final retrained policy as a policy file.
      --state-dir makes the loop crash-safe: every window appends its
      observation log to a checksummed journal and writes an atomic
      checkpoint (policy with visit counts, counters, outcomes), so a
      killed run resumes exactly where it stopped — skipping completed
      windows — and still produces a final policy and run report
      byte-identical to an uninterrupted run. SIGTERM/SIGINT finish the
      in-flight window, persist it, and exit cleanly; an uninterrupted
      durable run also writes DIR/run-report.json. --crash-at aborts the
      process at named persistence points (before-journal, mid-journal,
      before-checkpoint, after-checkpoint; e.g. mid-journal:1) — the
      crash-test harness behind the resume guarantees.
      The --fault-* flags inject scripted faults into the listed 0-based
      windows (empty observation window, simulation panic, retraining
      panic, noise-filter blackout) to exercise the degraded paths.

  fsck STATE_DIR
      Offline validation of a loop --state-dir: checkpoint checksums and
      sequence monotonicity, journal record checksums and continuity,
      and checkpoint/journal agreement. Exits non-zero when anything is
      wrong; a torn journal tail or corrupt newest checkpoint is
      reported here and silently survived by resume (it falls back to
      the last valid checkpoint).

  serve [--listen ADDR] [--serve-for SECS] [--max-inflight N]
        [--policy POLICY [--log LOG]]
        [loop flags: --windows/--scale/--seed/--policy-out/--state-dir/
         --fault-*]
      Serve a recovery policy over HTTP: POST /advise (ranked actions
      for a symptom state), POST /simulate (what-if replay of an action
      sequence), GET /policy and /policy/text (version, hash, canonical
      text), plus the shared telemetry routes (/metrics, /snapshot,
      /healthz, /events, /traces, /trace/<id>, /convergence). Every
      response carries an X-Request-Id resolvable at /trace/req-<id>,
      and per-route latency lands in serve.route.<route>.ms. With
      --policy it pins that policy file (add --log to enable /simulate
      replay against the training corpus); without it, it runs the
      continuous loop beside the daemon and hot-swaps a new immutable
      snapshot after every successfully retrained window — a degraded
      window keeps the last-good policy serving. Every answer carries
      the policy version and hash. Connections beyond --max-inflight
      (default 64) are shed with a typed 503. --listen defaults to an
      ephemeral localhost port; --serve-for bounds the daemon's
      lifetime (absent = serve until signalled). In loop mode,
      --state-dir makes the loop durable as in `loop`, and the daemon
      republishes the newest checkpoint's policy at startup — a
      restarted server answers from its last trained state before the
      first window completes. On SIGTERM/SIGINT the loop persists its
      in-flight window and the daemon drains: new connections get a
      typed 503 {\"type\":\"draining\"}, in-flight requests finish.

  watch SOURCE [--refresh true] [--follow true] [--limit N]
               [--interval SECS]
      Live view of a continuous loop. SOURCE is either http://host:port
      (or host:port) of a run started with --metrics-listen — streams
      its /events NDJSON — or a --metrics-out JSONL file (--follow true
      tails it until the run's final snapshot). Renders the loop's
      window table plus fallback rate and convergence counts, folds
      live convergence events into a per-window verdict line, and
      accumulates serving access events into per-route mean latencies;
      --refresh true redraws the screen in place on every update.

GLOBAL FLAGS (accepted by every command):
  --threads N           Worker threads for per-type training and test-set
                        replay (train/evaluate/report). Defaults to the
                        machine's available parallelism; 1 is the legacy
                        sequential path. Trained policies are
                        byte-identical for every thread count.
  --on-parse-error MODE How log-reading commands (inspect/mine/train/
                        evaluate/report) react to a malformed log line:
                        fail (default; stop at the first error), skip
                        (drop malformed lines, counting them per kind),
                        or quarantine (skip + retain the first 64
                        offending lines for inspection). Parsing is
                        one sequential pass, whatever --threads says.
  --metrics-out FILE    Write telemetry as JSON lines: per-stage span
                        timings, training progress events, and a final
                        metrics snapshot (counters/gauges/histograms).
  --metrics-listen ADDR Serve live observability over HTTP while the
                        command runs (port 0 picks an ephemeral port):
                        /metrics (Prometheus text), /snapshot (JSON
                        metrics), /healthz (loop status), /events
                        (NDJSON event stream), /traces and /trace/<id>
                        (finished span trees; append /profile for a
                        flamegraph-style text rendering), /convergence
                        (NDJSON stream of per-window retraining
                        summaries; /convergence/sse frames it as SSE).
                        Purely observational: outputs are byte-identical
                        with or without it.
  --serve-linger SECS   Keep the --metrics-listen server up this long
                        after the command finishes, so scrapers can
                        collect the final state of short runs.
  --log-format FORMAT   Progress-line format on stderr: text (default)
                        or json (one JSON object per line).
  -v, -vv               Increase verbosity: show per-type diagnostics.

Run `autorecover <command> --help` for nothing extra — commands are fully
described above.";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = match session::Session::from_args(&parsed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => commands::generate(&parsed, &session),
        "inspect" => commands::inspect(&parsed, &session),
        "mine" => commands::mine(&parsed, &session),
        "train" => commands::train(&parsed, &session),
        "evaluate" => commands::evaluate(&parsed, &session),
        "simulate" => commands::simulate(&parsed, &session),
        "report" => commands::report(&parsed, &session),
        "explain" => commands::explain(&parsed, &session),
        "diff-policy" => commands::diff_policy(&parsed, &session),
        "loop" => commands::continuous_loop(&parsed, &session),
        "serve" => commands::serve(&parsed, &session),
        "fsck" => commands::fsck(&parsed, &session),
        "watch" => watch::watch(&parsed, &session),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; run `autorecover help`")),
    };
    session.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
