//! `hyperbench` — the repository's one benchmark.
//!
//! ```text
//! hyperbench --workload <name>|all --seed <u64> [--seconds N]
//!            [--trace 0|1 | --traced] [--repeat N] [--smoke]
//! ```
//!
//! Builds the root workspace's `hyperdex-server`, generates every input
//! from the seed, drives the system only through its public API
//! (`HypercubeIndex`, `NodeRuntime`, `Cluster`/`NetClient`), verifies
//! every reply against an oracle computed from the generated records,
//! and prints every metric by name with its unit. The last line of
//! standard output is the JSON object `BENCHMARK.json`'s driver reads.
//! Exits non-zero when a reply was wrong, an op failed or a frame
//! ledger did not balance. See README.md beside this crate.

mod direct;
mod hist;
mod inputs;
mod oracle;
mod procfs;
mod report;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use inputs::{Scale, DEFAULT_SECONDS, REFERENCE_SEED};
use report::{Host, RunResult, WORKLOADS};
use tcp::{Env, Kind};

const USAGE: &str =
    "usage: hyperbench --workload <pin_tcp|superset_tcp|mixed_rw_tcp|direct_scale|all> \
--seed <u64> [--seconds <1..60>] [--trace <0|1> | --traced] [--repeat <n>] [--smoke] \
| --emit-benchmark-json";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    scale: Scale,
    traced: bool,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut repeat, mut smoke) =
        (REFERENCE_SEED, DEFAULT_SECONDS, false, 1usize, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => traced = true,
            "--repeat" => {
                repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|&name| workload == "all" || workload == name)
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workloads,
        seed,
        scale: if smoke {
            Scale::smoke()
        } else {
            Scale::full(seconds)
        },
        traced,
        repeat,
    })
}

/// The repository root: the working directory when the benchmark is
/// started from it (as the driver does), else where this crate was
/// compiled.
fn repo_root() -> PathBuf {
    let here = PathBuf::from(".");
    if here.join("benchmark/Cargo.toml").is_file() && here.join("crates/net/Cargo.toml").is_file() {
        return here;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds `hyperdex-server` from the root workspace into the target
/// directory this benchmark itself was built into, and returns its
/// path. A no-op when it is already up to date.
fn build_server(repo: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => repo.join("benchmark/target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "hyperdex-net",
            "--bin",
            "hyperdex-server",
        ])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hyperdex-server failed ({status})"));
    }
    let bin = target
        .join("release")
        .join(format!("hyperdex-server{}", std::env::consts::EXE_SUFFIX));
    // The launcher resolves a relative path against each child's
    // working directory; hand it an absolute one.
    bin.canonicalize()
        .map_err(|e| format!("{}: {e}", bin.display()))
}

fn run_one(workload: &'static str, args: &Args, env: &Env) -> Result<RunResult, String> {
    match workload {
        "pin_tcp" => tcp::run(Kind::Pin, args.seed, &args.scale, args.traced, env),
        "superset_tcp" => tcp::run(Kind::Superset, args.seed, &args.scale, args.traced, env),
        "mixed_rw_tcp" => tcp::run(Kind::Mixed, args.seed, &args.scale, args.traced, env),
        "direct_scale" => direct::run(args.seed, &args.scale, args.traced, env),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let repo = repo_root();
    let host = Host::detect(&repo);
    if host.cores < 2 {
        eprintln!(
            "warning: {} core(s); the preset is sized for 2 and its numbers will not compare",
            host.cores
        );
    }
    let env = Env {
        server_bin: build_server(&repo)?,
        out_dir: repo.join("benchmark/out"),
    };
    std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("{}: {e}", env.out_dir.display()))?;

    let mut all_correct = true;
    let mut last_line = String::new();
    for &workload in &args.workloads {
        let mut result = run_one(workload, args, &env)?;
        if args.traced {
            result.metrics.set("host.cores", host.cores as f64);
        }
        print!("{}", result.table());
        for problem in &result.problems {
            eprintln!("[{workload}] FAILED: {problem}");
        }
        all_correct &= result.correct();
        let suffix = if args.traced { "-traced" } else { "" };
        let path = env
            .out_dir
            .join(format!("result-{workload}-{}{suffix}.json", args.seed));
        std::fs::write(&path, result.file(args.traced, &args.scale, &host))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        last_line = result.result_line(args.traced);
    }
    println!("{last_line}");
    Ok(all_correct)
}

/// `--repeat N`: the same workload and seed `N` times, each in a
/// process of its own as the driver runs them (a reused heap would
/// flatter set-up time and resident memory), then the spread table.
fn repeat(args: &Args, forwarded: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut runs = Vec::with_capacity(args.repeat);
        for i in 0..args.repeat {
            let out = Command::new(&exe)
                .args(["--workload", workload])
                .args(forwarded)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start repetition {i}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            all_correct &= out.status.success() && line.contains("\"correct\": true");
            runs.push(report::Metrics::from_result_line(line));
        }
        print!("{}", report::repeat_table(workload, &runs, args.traced));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--emit-benchmark-json") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hyperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // What a repetition inherits: everything but the workload choice
    // and the repeat count.
    let forwarded: Vec<String> = {
        let mut kept = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" || a == "--repeat" {
                it.next();
            } else {
                kept.push(a.clone());
            }
        }
        kept
    };
    let outcome = if args.repeat > 1 {
        repeat(&args, &forwarded)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hyperbench: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hyperbench: {e}");
            ExitCode::FAILURE
        }
    }
}
