//! The experiment runner: regenerates every table and figure.
//!
//! ```text
//! experiments [EXPERIMENT ...] [--scale full|small] [--seed N] [--list]
//!
//! EXPERIMENT: table1 fig5 fig6 fig7 fig8 fig9 eq1 ablation xcheck
//!             availability churn prune faults   all (default: all)
//!
//! `churn`, `prune` and `faults` additionally write their rows to
//! `BENCH_churn.json` / `BENCH_prune.json` / `BENCH_faults.json` in
//! the current directory, each stamped with the effective seed.
//!
//! A final table maps each experiment run to the artifact it produced.
//! ```

use std::process::ExitCode;

use hyperdex_bench::experiments::{
    ablation, availability, churn, eq1, faults, fig5, fig6, fig7, fig8, fig9, prune, table1, xcheck,
};
use hyperdex_bench::report::Table;
use hyperdex_bench::{Scale, SharedContext};

const USAGE: &str = "usage: experiments \
                     [table1|fig5|...|eq1|ablation|xcheck|availability|churn|prune|faults|all ...] \
                     [--scale full|small] [--seed N] [--list]";

/// Every experiment: name and one-line description, in run order (a
/// paper exhibit's description is its EXPERIMENTS.md heading).
const EXPERIMENTS: [(&str, &str); 13] = [
    ("table1", "data schema"),
    ("fig5", "keyword-set-size distribution"),
    ("fig6", "storage load distribution"),
    ("fig7", "object vs. node distribution over |One(u)|"),
    ("fig8", "superset-search cost, cacheless"),
    ("fig9", "superset search with per-node FIFO caches"),
    ("eq1", "analytic node-count formula cross-check"),
    ("ablation", "design-knob ablation"),
    ("xcheck", "engine vs message-protocol parity"),
    ("availability", "recall under static node failures"),
    ("churn", "recall and repair under live membership churn"),
    ("prune", "occupancy-guided SBT pruning savings"),
    (
        "faults",
        "recall/latency under frame loss and worker crashes",
    ),
];

/// What a command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Run the named experiments, every name known, at a scale and
    /// seed.
    Run(Scale, u64, Vec<String>),
    List,
    Help,
}

/// Parses the arguments and checks every experiment name, so a typo
/// fails before the corpus is built or an earlier experiment writes
/// its artifact.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut chosen: Vec<String> = Vec::new();

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref() {
                Some("full") => scale = Scale::Full,
                Some("small") => scale = Scale::Small,
                other => return Err(format!("bad --scale {other:?}")),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return Err("bad --seed".to_string()),
            },
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Ok(Command::Help),
            name => chosen.push(name.to_string()),
        }
    }
    if let Some(other) = chosen
        .iter()
        .find(|c| *c != "all" && !EXPERIMENTS.iter().any(|(name, _)| name == c))
    {
        return Err(format!("unknown experiment `{other}`"));
    }
    if chosen.is_empty() || chosen.iter().any(|c| c == "all") {
        chosen = EXPERIMENTS.map(|(name, _)| name.to_string()).to_vec();
    }
    Ok(Command::Run(scale, seed, chosen))
}

fn main() -> ExitCode {
    let (scale, seed, chosen) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(scale, seed, chosen)) => (scale, seed, chosen),
        Ok(Command::List) => {
            for (name, what) in EXPERIMENTS {
                println!("{name:<14} {what}");
            }
            return ExitCode::SUCCESS;
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let scale_name = match scale {
        Scale::Full => "full (131,180 objects / 178k queries)",
        Scale::Small => "small (10,000 objects / 20k queries)",
    };
    println!("# hyperdex experiment run\nscale: {scale_name}; seed: {seed}");
    println!("building corpus and query log...");
    let ctx = SharedContext::new(scale, seed);
    println!(
        "corpus: {} records, mean {:.2} keywords/object; log: {} queries, top-10 share {:.1}%",
        ctx.corpus.len(),
        ctx.corpus.mean_keywords_per_object(),
        ctx.queries.len(),
        ctx.queries.top_share(10) * 100.0
    );

    // (experiment, artifact) pairs for the final summary table.
    let mut ran: Vec<(String, String)> = Vec::new();
    for name in &chosen {
        let mut artifact = "stdout".to_string();
        match name.as_str() {
            "table1" => {
                table1::run(&ctx, 5);
            }
            "fig5" => {
                fig5::run(&ctx);
            }
            "fig6" => {
                fig6::run(&ctx);
            }
            "fig7" => {
                fig7::run(&ctx);
            }
            "fig8" => {
                fig8::run(&ctx);
            }
            "fig9" => {
                fig9::run(&ctx);
            }
            "eq1" => {
                eq1::run(&ctx);
            }
            "ablation" => {
                ablation::run(&ctx);
            }
            "xcheck" => {
                xcheck::run(&ctx);
            }
            "availability" => {
                availability::run(&ctx);
                availability::run_protocol(&ctx);
            }
            "churn" => {
                let rows = churn::run(&ctx);
                let path = std::path::Path::new("BENCH_churn.json");
                match churn::write_json(&rows, seed, path) {
                    Ok(()) => artifact = path.display().to_string(),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "prune" => {
                let rows = prune::run(&ctx);
                let path = std::path::Path::new("BENCH_prune.json");
                match prune::write_json(&rows, seed, path) {
                    Ok(()) => artifact = path.display().to_string(),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "faults" => {
                let rows = faults::run(&ctx);
                let path = std::path::Path::new("BENCH_faults.json");
                match faults::write_json(&rows, seed, path) {
                    Ok(()) => artifact = path.display().to_string(),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => unreachable!("parse_args admits no experiment `{other}`"),
        }
        ran.push((name.clone(), artifact));
    }

    println!("\n## Run summary\n");
    // The effective seed rides along on every row so a pasted summary
    // is reproducible without the preamble.
    let seed_text = seed.to_string();
    let mut summary = Table::new(["experiment", "seed", "output"]);
    for (name, artifact) in &ran {
        summary.row([name.as_str(), seed_text.as_str(), artifact.as_str()]);
    }
    print!("{}", summary.to_markdown());
    println!("\ndone.");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_misspelt_name_is_the_usage_error_before_anything_runs() {
        assert_eq!(
            parse(&["churn", "tabel1"]),
            Err("unknown experiment `tabel1`".to_string())
        );
        assert_eq!(
            parse(&["churn", "--seed", "7"]),
            Ok(Command::Run(Scale::Small, 7, vec!["churn".to_string()]))
        );
        assert!(parse(&["--seed", "x"]).is_err());
        assert_eq!(parse(&["tabel1", "--list"]), Ok(Command::List));
    }
}
