//! The paper's reproduction as a test: every exhibit the `experiments`
//! binary regenerates deterministically (Table 1, Figures 5–9, Eq. 1,
//! the ablation, the engine-vs-protocol cross-check and availability)
//! at seed 42, compared byte for byte with the checked-in output.
//!
//! A change that moves any printed number fails here. When a change is
//! meant to move one, regenerate the file with
//!
//! ```text
//! cargo run --release -p hyperdex-bench --bin experiments -- \
//!     table1 fig5 fig6 fig7 fig8 fig9 eq1 ablation xcheck availability \
//!     --seed 42 > crates/bench/tests/experiments_golden.txt
//! ```
//!
//! and say in the change which numbers moved and why. `churn`, `prune`
//! and `faults` are not here: they write `BENCH_*.json` files, which CI
//! regenerates and diffs on their own.

use std::process::Command;

const GOLDEN: &str = include_str!("experiments_golden.txt");

#[test]
fn the_paper_exhibits_print_their_checked_in_bytes() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "eq1",
            "ablation",
            "xcheck",
            "availability",
            "--seed",
            "42",
        ])
        .output()
        .expect("the experiments binary runs");
    assert!(
        out.status.success(),
        "experiments exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("the report is UTF-8");
    if got == GOLDEN {
        return;
    }
    let first = got
        .lines()
        .zip(GOLDEN.lines())
        .position(|(g, want)| g != want)
        .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "the report differs from experiments_golden.txt first at line {}:\n  got:  {:?}\n  want: {:?}\n\
         ({} lines, {} bytes; golden {} lines, {} bytes)",
        first + 1,
        got.lines().nth(first).unwrap_or("<end>"),
        GOLDEN.lines().nth(first).unwrap_or("<end>"),
        got.lines().count(),
        got.len(),
        GOLDEN.lines().count(),
        GOLDEN.len()
    );
}
