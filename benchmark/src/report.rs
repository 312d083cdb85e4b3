//! Metric names, units, directions and bounds — the one place they
//! are written down — and the result formats built from them:
//! `BENCHMARK.json`, the per-run result line, the result file with
//! its host record, and the `--repeat` table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::hist::{us, Windows};
use crate::inputs::{Scale, DEFAULT_SECONDS};
use crate::procfs;

/// One metric of `BENCHMARK.json`. `bound` is the share of the
/// parent's median an end-to-end metric may worsen by; per-layer
/// metrics carry none.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The four workloads and why each exists (one line each; the long
/// form is in README.md).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pin_tcp",
        "Zipf-skewed pin lookups over loopback TCP: two frames and a ~1 us store lookup per op, so only net and runtime wire-path work shows and store or traversal work does not.",
    ),
    (
        "superset_tcp",
        "The skewed query log as superset searches over TCP: core scans plus runtime frontier batching dominate, and the hot repeats are what a serving-path result cache exploits.",
    ),
    (
        "mixed_rw_tcp",
        "Inserts beside reads on a growing index with no repeated superset query: bypasses any result cache, so its admission/invalidation or write cost shows as a loss.",
    ),
    (
        "direct_scale",
        "In-process index at 4x the corpus and 16x the cube, one thread, supersets + pins + inserts + removes: bypasses runtime and net, so only core store/traversal work shows.",
    ),
];

/// What the driver gates. Every workload reports every one of them
/// (the builder's contract allows no omissions) and each must repeat
/// across seeds to within a third of its bound; on the two-core shared
/// reference host no wall-clock rate or latency does (README.md has
/// the measured spreads), so those are reported as `client.*` below
/// and the gate rests on set-up time, the paper's own cost metric —
/// messages per operation — and memory.
pub const END_TO_END: [Spec; 3] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("frames_per_op", "count", "lower", 0.05),
    gated("peak_rss_mb", "MiB", "lower", 0.1),
];

/// Single-layer numbers, from the traced run. A metric a workload
/// cannot produce reads 0 there.
pub const PER_LAYER: [Spec; 66] = [
    layer("workload.corpus_gen_s", "s", "lower"),
    layer("workload.querylog_gen_s", "s", "lower"),
    layer("workload.top10_share", "ratio", "higher"),
    layer("hypercube.sbt_bfs_ns_per_vertex", "ns", "lower"),
    layer("hypercube.vertices_per_query", "count", "lower"),
    layer("core.hashing.vertex_for_ns", "ns", "lower"),
    layer("core.store.scan_ns_per_entry", "ns", "lower"),
    layer("core.store.pin_lookup_ns", "ns", "lower"),
    layer("core.entries_scanned_per_query", "count", "lower"),
    layer("core.store.insert_ns", "ns", "lower"),
    layer("core.store.remove_ns", "ns", "lower"),
    layer("core.store.bytes_per_object", "B", "lower"),
    layer("core.store.arena_waste_ratio", "ratio", "lower"),
    layer("core.pin_us_p50", "us", "lower"),
    layer("core.superset_us_p50", "us", "lower"),
    layer("core.superset_us_p99", "us", "lower"),
    layer("core.self_us_p50", "us", "lower"),
    layer("core.nodes_contacted_per_query", "count", "lower"),
    layer("core.results_per_query", "count", "higher"),
    layer("core.cache_hit_ratio", "ratio", "higher"),
    layer("core.time_share.pin", "ratio", "lower"),
    layer("core.time_share.superset", "ratio", "lower"),
    layer("core.time_share.write", "ratio", "lower"),
    layer("runtime.wire.encode_ns", "ns", "lower"),
    layer("runtime.wire.decode_ns", "ns", "lower"),
    layer("runtime.wire.bytes_per_op", "B", "lower"),
    layer("runtime.shard.owner_of_ns", "ns", "lower"),
    layer("runtime.pin_us_p50", "us", "lower"),
    layer("runtime.superset_us_p50", "us", "lower"),
    layer("runtime.superset_us_p99", "us", "lower"),
    layer("runtime.self_us_p50", "us", "lower"),
    layer("runtime.frames_per_op", "count", "lower"),
    layer("runtime.scans_per_op", "count", "lower"),
    layer("runtime.batch_entries_per_frame", "count", "higher"),
    layer("runtime.backpressure_hits", "count", "lower"),
    layer("runtime.wakeups", "count", "lower"),
    layer("runtime.bulk_load_s", "s", "lower"),
    layer("net.stream.encode_ns", "ns", "lower"),
    layer("net.stream.decode_ns", "ns", "lower"),
    layer("net.pin_us_p50", "us", "lower"),
    layer("net.superset_us_p50", "us", "lower"),
    layer("net.self_us_p50", "us", "lower"),
    layer("net.flush_barrier_us_p50", "us", "lower"),
    layer("net.load_ins_s", "ops/s", "higher"),
    layer("net.cluster_launch_s", "s", "lower"),
    layer("net.server_cpu_ms_per_kop", "ms", "lower"),
    layer("net.frames_drained", "count", "lower"),
    layer("net.respawns", "count", "lower"),
    layer("net.in_flight_at_shutdown", "count", "lower"),
    layer("sim.messages_per_query", "count", "lower"),
    layer("sim.nodes_contacted_per_query", "count", "lower"),
    layer("sim.virtual_ms_p50", "ms", "lower"),
    layer("dht.hops_per_lookup", "count", "lower"),
    layer("client.sched_lag_p99_us", "us", "lower"),
    layer("client.offered_ops_s", "ops/s", "higher"),
    layer("client.achieved_ops_s", "ops/s", "higher"),
    layer("client.cpu_ms_per_kop", "ms", "lower"),
    layer("client.tracing_overhead_ratio", "ratio", "lower"),
    layer("client.throughput_ops_s", "ops/s", "higher"),
    layer("client.insert_ops_s", "ops/s", "higher"),
    layer("client.pin_p50_us", "us", "lower"),
    layer("client.pin_p99_us", "us", "lower"),
    layer("client.superset_p50_us", "us", "lower"),
    layer("client.superset_p99_us", "us", "lower"),
    layer("client.failed_ops_ratio", "ratio", "lower"),
    layer("host.cores", "count", "higher"),
];

fn spec_of(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}

/// Named measurements of one run.
#[derive(Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a name `BENCHMARK.json` lists.
    ///
    /// # Panics
    ///
    /// On a name no spec lists: that is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec_of(name).unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        self.0
            .insert(spec.name, if value.is_finite() { value } else { 0.0 });
    }

    /// The wall-clock latencies by request class: for each class the
    /// quiet quartile over the run's windows of the window's p50 and
    /// p99, in microseconds.
    pub fn set_client_latencies(&mut self, pin: &Windows, superset: &Windows) {
        self.set("client.pin_p50_us", us(pin.quiet_quantile(0.5)));
        self.set("client.pin_p99_us", us(pin.quiet_quantile(0.99)));
        self.set("client.superset_p50_us", us(superset.quiet_quantile(0.5)));
        self.set("client.superset_p99_us", us(superset.quiet_quantile(0.99)));
    }

    /// Reads back the values of a line [`RunResult::result_line`]
    /// wrote; names it does not hold stay unset.
    pub fn from_result_line(line: &str) -> Metrics {
        let mut metrics = Metrics::default();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            let key = format!("{}: {{\"value\": ", json_str(spec.name));
            let value = line.find(&key).and_then(|at| {
                let rest = &line[at + key.len()..];
                rest[..rest.find(',')?].parse::<f64>().ok()
            });
            if let Some(value) = value {
                metrics.set(spec.name, value);
            }
        }
        metrics
    }

    /// The recorded value (0 when the workload does not produce it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions; empty on a correct run.
    pub problems: Vec<String>,
    /// `name → count` of the ops each phase issued.
    pub op_counts: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// No op failed and every end-of-run check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn listed(&self, traced: bool) -> &'static [Spec] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Every end-to-end metric and every per-layer metric this run
    /// measured as `name value unit`, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let measured = PER_LAYER
            .iter()
            .filter(|s| self.metrics.0.contains_key(s.name));
        for spec in END_TO_END.iter().chain(measured) {
            let _ = writeln!(
                out,
                "{:<14} {:<36} {:>16.4} {}",
                self.workload,
                spec.name,
                self.metrics.get(spec.name),
                spec.unit
            );
        }
        out
    }

    /// The one-line JSON object the driver reads.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .listed(traced)
            .iter()
            .map(|s| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(s.name),
                    self.metrics.get(s.name),
                    json_str(s.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file: host record, op counts and every metric.
    pub fn file(&self, traced: bool, scale: &Scale, host: &Host) -> String {
        let ops: Vec<String> = self
            .op_counts
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"traced\": {traced},\n  \"claim\": null,\n  \
             \"host\": {},\n  \"seconds\": {},\n  \"scale_factor\": {},\n  \"setups\": {},\n  \
             \"op_counts\": {{{}}},\n  \"problems\": [{}],\n  \"result\": {}\n}}\n",
            json_str(self.workload),
            self.seed,
            host.json(),
            scale.seconds,
            scale.factor(),
            scale.setups,
            ops.join(", "),
            problems.join(", "),
            self.result_line(traced)
        )
    }
}

/// Where the numbers were taken.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_owned(),
    )
}

impl Host {
    /// Reads the host record; the commit is `unknown` outside a git
    /// checkout (the driver's copy is not one).
    pub fn detect(repo: &Path) -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: procfs::cpu_model(),
            rustc: first_line(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_owned()),
            commit: first_line(
                Command::new("git")
                    .arg("-C")
                    .arg(repo)
                    .args(["rev-parse", "HEAD"]),
            )
            .unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"undersized\": {}}}",
            self.cores,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.cores < 2
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of `BENCHMARK.json`, generated so the file and the
/// binary cannot drift apart (a test compares them).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let spec = |s: &Spec| {
        let bound = s
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(s.name),
            json_str(s.unit),
            json_str(s.better)
        )
    };
    let list = |specs: &[Spec]| specs.iter().map(spec).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS as u64,
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

/// `--repeat`: per metric the median, extremes and spread
/// (`max/min − 1`) of same-seed runs.
pub fn repeat_table(workload: &str, runs: &[Metrics], traced: bool) -> String {
    let mut out = String::new();
    if runs.is_empty() {
        return out;
    }
    let listed: &[Spec] = if traced { &PER_LAYER } else { &END_TO_END };
    let _ = writeln!(
        out,
        "{:<14} {:<36} {:>14} {:>14} {:>14} {:>8}  unit  [runs in order]",
        "workload", "metric", "median", "min", "max", "spread"
    );
    for spec in listed {
        let mut values: Vec<f64> = runs.iter().map(|r| r.get(spec.name)).collect();
        let in_order: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        values.sort_by(f64::total_cmp);
        let (min, max) = (values[0], values[values.len() - 1]);
        let median = values[values.len() / 2];
        let spread = if min > 0.0 { max / min - 1.0 } else { 0.0 };
        let _ = writeln!(
            out,
            "{workload:<14} {:<36} {median:>14.4} {min:>14.4} {max:>14.4} {spread:>8.4}  {}  [{}]",
            spec.name,
            spec.unit,
            in_order.join(" ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `hyperbench --emit-benchmark-json`"
        );
    }

    #[test]
    fn specs_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(spec.unit.len() <= 16 && matches!(spec.better, "lower" | "higher"));
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == "lower"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn result_line_lists_exactly_the_requested_metrics() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.25);
        metrics.set("host.cores", 2.0);
        let run = RunResult {
            workload: "pin_tcp",
            seed: 1,
            metrics,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            op_counts: Vec::new(),
        };
        let line = run.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("host.cores") && !line.contains('\n'));
        assert!(run
            .result_line(true)
            .contains("\"host.cores\": {\"value\": 2, \"unit\": \"count\"}"));
        let back = Metrics::from_result_line(&line);
        assert_eq!((back.get("setup_s"), back.get("host.cores")), (1.25, 0.0));
        let table = repeat_table("pin_tcp", &[back.clone(), back], false);
        assert!(table
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("setup_s") && l.contains("1.2500")));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
