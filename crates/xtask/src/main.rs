//! Workspace automation.
//!
//! - `cargo run -p xtask -- lint` — the workspace consistency lints;
//!   exits non-zero if any finding survives the allowlist.
//! - `cargo run -p xtask -- races` — the concurrency soundness lints
//!   over the sharded connection plane (SAFETY comments, raw shard
//!   entries only inside an `unsafe fn`, mode-aware lock order,
//!   fastpath whitelist proof); exits non-zero if any finding survives
//!   `races-allow.txt`.
//! - `cargo run -p xtask -- rtsafe` — the real-time-safety lints: call
//!   graphs from the declared RT entry points (engine tick, fast-path
//!   exec, outbound drain) are taint-checked for allocation, blocking,
//!   and unbounded-work sinks, with a bidirectionally-verified
//!   `// rt-ok:` justification grammar; exits non-zero if any finding
//!   survives `rtsafe-allow.txt`.
//! - `cargo run -p xtask -- explore [--budget N] [--depth N] [--seed-topology NAME]`
//!   — the bounded model checker over the queue/activation state machine;
//!   exits non-zero and prints a minimized, replayable counterexample on
//!   an invariant violation.
//! - `cargo run -p xtask -- fuzz [--iters N] [--seed N] [--corpus-out DIR]`
//!   — the structure-aware wire-codec fuzzer; exits non-zero on a
//!   property violation, and with `--corpus-out` (re)writes the seed
//!   corpus plus any failing inputs as corpus files.
//! - `cargo run -p xtask -- soak [--seed N] [--iters N] [--concurrency N] [--workers N]`
//!   — fault-injected client churn against a live in-process server
//!   (`--iters` = client sessions); exits non-zero on any invariant
//!   violation, leaked client, engine stall, or — at 100+ sessions —
//!   if fewer than all five fault kinds were actually injected.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use da_modelcheck::explore::{explore, Config};
use da_modelcheck::fuzz::{fuzz, seed_corpus, FuzzConfig};
use da_modelcheck::soak::{soak, SoakConfig};
use da_modelcheck::Seed;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("races") => run_races(),
        Some("rtsafe") => run_rtsafe(),
        Some("explore") => run_explore(&args[1..]),
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("soak") => run_soak(&args[1..]),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint | races | rtsafe | explore | fuzz | soak> \
                 [options]"
            );
            if let Some(cmd) = other {
                eprintln!("unknown command: {cmd}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    match xtask::run_workspace_lint(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("lint: workspace is consistent");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: cannot read workspace at {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

fn run_races() -> ExitCode {
    let root = workspace_root();
    match xtask::races::run_workspace_races(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("races: shard entries, lock modes, and fastpath whitelist check out");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("races: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("races: cannot read workspace at {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

fn run_rtsafe() -> ExitCode {
    let root = workspace_root();
    match xtask::rtsafe::run_workspace_rtsafe(&root) {
        Ok(findings) if findings.is_empty() => {
            println!(
                "rtsafe: every RT-reachable path is allocation/block/loop-clean or justified"
            );
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("rtsafe: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rtsafe: cannot read workspace at {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag value` pairs from `args`; returns `None` (after
/// printing a diagnostic) on an unknown flag or missing/bad value.
fn parse_flags(args: &[String], known: &[&str]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            eprintln!("unknown option: {flag} (expected one of {})", known.join(", "));
            return None;
        }
        let Some(value) = it.next() else {
            eprintln!("option {flag} needs a value");
            return None;
        };
        out.push((flag.clone(), value.clone()));
    }
    Some(out)
}

fn run_explore(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args, &["--budget", "--depth", "--seed-topology"]) else {
        return ExitCode::FAILURE;
    };
    let mut cfg = Config::default();
    for (flag, value) in flags {
        match flag.as_str() {
            "--budget" => match value.parse() {
                Ok(n) => cfg.max_states = n,
                Err(_) => return bad_value(&flag, &value),
            },
            "--depth" => match value.parse() {
                Ok(n) => cfg.max_depth = n,
                Err(_) => return bad_value(&flag, &value),
            },
            _ => match Seed::ALL.iter().find(|s| s.name() == value) {
                Some(&s) => cfg.seeds = vec![s],
                None => return bad_value(&flag, &value),
            },
        }
    }
    let report = explore(&cfg);
    for run in &report.seeds {
        println!(
            "explore[{}]: {} states, {} transitions, depth {} reached",
            run.seed.name(),
            run.states,
            run.transitions,
            run.depth_reached,
        );
    }
    println!(
        "explore: {} states total in {:.2}s ({:.0} states/sec), {} replayed actions",
        report.states(),
        report.elapsed.as_secs_f64(),
        report.states_per_sec(),
        report.replayed_actions(),
    );
    let counterexamples = report.counterexamples();
    if counterexamples.is_empty() {
        println!("explore: all invariants hold within the budget");
        ExitCode::SUCCESS
    } else {
        for cx in counterexamples {
            eprintln!("{}", cx.render());
        }
        ExitCode::FAILURE
    }
}

fn run_fuzz(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args, &["--iters", "--seed", "--corpus-out"]) else {
        return ExitCode::FAILURE;
    };
    let mut cfg = FuzzConfig::default();
    let mut corpus_out: Option<PathBuf> = None;
    for (flag, value) in flags {
        match flag.as_str() {
            "--iters" => match value.parse() {
                Ok(n) => cfg.iters = n,
                Err(_) => return bad_value(&flag, &value),
            },
            "--seed" => match value.parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return bad_value(&flag, &value),
            },
            _ => corpus_out = Some(PathBuf::from(value)),
        }
    }
    let report = fuzz(&cfg);
    println!(
        "fuzz: {} iterations (seed {}): {} round-trips, {} mutations ({} rejected), \
         {} dispatches",
        report.iters, cfg.seed, report.roundtrips, report.mutations, report.rejected,
        report.dispatches,
    );
    if let Some(dir) = corpus_out {
        if let Err(e) = write_corpus(&dir, &report.failures) {
            eprintln!("fuzz: cannot write corpus to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if report.clean() {
        println!("fuzz: all properties hold");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("fuzz[{}]: {}", f.name, f.detail);
        }
        eprintln!("fuzz: {} violation(s)", report.failures.len());
        ExitCode::FAILURE
    }
}

fn run_soak(args: &[String]) -> ExitCode {
    let known = ["--seed", "--iters", "--concurrency", "--workers", "--require-sanitizer"];
    let Some(flags) = parse_flags(args, &known) else {
        return ExitCode::FAILURE;
    };
    let mut cfg = SoakConfig::default();
    let mut require_sanitizer = false;
    for (flag, value) in flags {
        match flag.as_str() {
            "--seed" => match value.parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return bad_value(&flag, &value),
            },
            "--iters" => match value.parse() {
                Ok(n) => cfg.sessions = n,
                Err(_) => return bad_value(&flag, &value),
            },
            "--workers" => match value.parse() {
                Ok(n) => cfg.workers = n,
                Err(_) => return bad_value(&flag, &value),
            },
            "--require-sanitizer" => match value.parse() {
                Ok(b) => require_sanitizer = b,
                Err(_) => return bad_value(&flag, &value),
            },
            _ => match value.parse() {
                Ok(n) => cfg.concurrency = n,
                Err(_) => return bad_value(&flag, &value),
            },
        }
    }
    let report = soak(&cfg);
    if require_sanitizer && !report.sanitizer_active {
        eprintln!(
            "soak: the shard borrow sanitizer is compiled out of this build — \
             run the debug profile (--require-sanitizer expects debug_assertions)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "soak: shard borrow sanitizer {}",
        if report.sanitizer_active { "active" } else { "compiled out (release)" },
    );
    println!(
        "soak: {} sessions (seed {}): {} completed, {} cut short by faults",
        report.sessions, cfg.seed, report.completed_ok, report.died_early,
    );
    println!(
        "soak: {} faults injected across {} kind(s); {} event(s) dropped, \
         {} client(s) evicted, {} engine ticks",
        report.total_faults(),
        report.kinds_seen(),
        report.events_dropped,
        report.clients_evicted,
        report.engine_ticks,
    );
    // At CI scale every fault kind has thousands of chances to fire; all
    // five missing means the injector itself regressed.
    let starved = report.sessions >= 100 && report.kinds_seen() < 5;
    if starved {
        eprintln!(
            "soak: only {} of 5 fault kinds injected over {} sessions",
            report.kinds_seen(),
            report.sessions,
        );
    }
    if report.clean() && !starved {
        println!("soak: all invariants hold, no clients leaked");
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("soak: {v}");
        }
        ExitCode::FAILURE
    }
}

/// Writes the deterministic seed corpus plus any fuzzer-found failing
/// inputs into `dir` as corpus-format files.
fn write_corpus(dir: &Path, failures: &[da_modelcheck::fuzz::Failure]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0usize;
    for (name, bytes) in seed_corpus() {
        std::fs::write(dir.join(name), bytes)?;
        written += 1;
    }
    for (i, f) in failures.iter().enumerate() {
        std::fs::write(dir.join(format!("fail-{}-{i}.bin", f.name)), &f.corpus_bytes)?;
        written += 1;
    }
    println!("fuzz: wrote {written} corpus file(s) to {}", dir.display());
    Ok(())
}

fn bad_value(flag: &str, value: &str) -> ExitCode {
    eprintln!("bad value for {flag}: {value}");
    ExitCode::FAILURE
}
