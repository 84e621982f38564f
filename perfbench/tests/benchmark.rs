//! Self-tests of the benchmark definition and its workloads.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` from the repository root. The `reproduce` runs
//! need the `run_all` executable that `perfbench/run.sh` builds, under
//! `$CARGO_TARGET_DIR/release/` (default `.bench_build/release/`).

use serde::Deserialize;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use stp_perfbench::args::Workload;
use stp_perfbench::report::{result_line, Report, END_TO_END, PER_LAYER};
use stp_perfbench::trace::Tracer;
use stp_perfbench::{certify, reproduce, sessions, sweep};

#[derive(Debug, Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<NamedWhy>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Debug, Deserialize)]
struct NamedWhy {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark() -> Benchmark {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_registry() {
    let b = benchmark();
    assert_eq!(b.command, ["bash", "perfbench/run.sh"]);
    assert_eq!(b.paths, ["perfbench"]);
    assert!((1..=60).contains(&b.run_seconds));
    let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for w in &b.workloads {
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let mut seen = BTreeSet::new();
    let names = b
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), "-"))
        .chain(
            b.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        )
        .chain(
            b.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        );
    for (name, unit) in names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(valid_unit(unit) || unit == "-", "{name}: bad unit {unit:?}");
        assert!(seen.insert(name), "{name} used twice");
    }
    let e2e: Vec<(&str, &str)> = b
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = b
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, PER_LAYER);
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    for m in &b.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(m.bound <= setup.bound, "{} outbounds setup_s", m.name);
        assert!(matches!(m.better.as_str(), "lower" | "higher"));
    }
    for m in &b.per_layer {
        assert!(matches!(m.better.as_str(), "lower" | "higher"));
    }
}

fn run_all() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root().join(".bench_build"), PathBuf::from);
    let target = if target.is_relative() {
        repo_root().join(target)
    } else {
        target
    };
    let path = target.join("release").join("run_all");
    assert!(
        path.exists(),
        "{} not found: run `bash perfbench/run.sh` once to build it",
        path.display()
    );
    path
}

fn measured(workload: Workload, seed: u64) -> Report {
    match workload {
        Workload::Reproduce => {
            reproduce::measure(&repo_root(), &run_all(), 1).expect("run_all runs")
        }
        Workload::Sweep => sweep::measure(seed, 1),
        Workload::Sessions => sessions::measure(seed, 1),
        Workload::Certify => certify::measure(1),
    }
}

fn traced(workload: Workload, seed: u64) -> (Report, Tracer) {
    match workload {
        Workload::Reproduce => {
            reproduce::traced(&repo_root(), &run_all(), 1).expect("run_all runs")
        }
        Workload::Sweep => sweep::traced(seed, 1),
        Workload::Sessions => sessions::traced(seed, 1),
        Workload::Certify => certify::traced(1),
    }
}

fn metric_names(report: &Report) -> BTreeSet<&'static str> {
    report.metrics.keys().copied().collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        let report = measured(w, 7);
        assert_eq!(report.failed, 0, "{}: {report:?}", w.name());
        let line = result_line(&report, false).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        for (name, _) in END_TO_END {
            assert!(
                report.metrics[name] > 0.0,
                "{}: {name} is not positive",
                w.name()
            );
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }
}

#[test]
fn traced_self_times_and_the_unattributed_share_account_for_the_traced_wall() {
    for w in Workload::ALL {
        let (report, tracer) = traced(w, 7);
        assert_eq!(report.failed, 0, "{}: {report:?}", w.name());
        result_line(&report, true).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let roots: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns() as f64 * 1e-9)
            .sum();
        let selfs = tracer.self_secs();
        let self_sum: f64 = selfs.values().sum();
        assert!(roots > 0.0, "{}: no spans", w.name());
        assert!(
            (self_sum - roots).abs() <= 1e-9 * tracer.spans().len() as f64,
            "{}: self times {self_sum} vs traced wall {roots}",
            w.name()
        );
        let root_names: BTreeSet<&str> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        let unattributed: f64 = root_names.iter().map(|n| selfs[n]).sum::<f64>() / roots;
        let share = report.metrics["trace.unattributed_share"];
        assert!((0.0..=1.0).contains(&share), "{}: share {share}", w.name());
        assert!(
            (unattributed - share).abs() < 1e-9,
            "{}: {unattributed} vs {share}",
            w.name()
        );
        let attributed: f64 = selfs
            .iter()
            .filter(|(n, _)| !root_names.contains(*n))
            .map(|(_, s)| s)
            .sum::<f64>();
        assert!(
            ((attributed / roots + unattributed) - 1.0).abs() < 1e-9,
            "{}: layers {attributed} + unattributed {unattributed} of {roots}",
            w.name()
        );
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_metrics() {
    assert_ne!(sweep::seeds(1), sweep::seeds(2));
    let (a, b) = (sessions::churn_spec(1, 2), sessions::churn_spec(2, 2));
    assert_ne!(a.seed, b.seed);
    let claimed = a.claimed_inputs();
    let differ = (0..64).any(|k| a.session_at(k, &claimed) != b.session_at(k, &claimed));
    assert!(differ, "another seed must generate other sessions");
    for w in [Workload::Sweep, Workload::Sessions] {
        let (r1, r2) = (measured(w, 1), measured(w, 2));
        assert_ne!(r1.spec, r2.spec, "{}", w.name());
        assert_eq!(metric_names(&r1), metric_names(&r2), "{}", w.name());
    }
    for w in [Workload::Reproduce, Workload::Certify] {
        let (r1, r2) = (measured(w, 1), measured(w, 2));
        assert_eq!(r1.spec, r2.spec, "{}: fixed inputs", w.name());
        assert_eq!(metric_names(&r1), metric_names(&r2), "{}", w.name());
    }
}
