//! The metric registry, a run's [`Report`], and the records the run
//! prints: one provenance line, then the result line.

use crate::args::Args;
use crate::util::{fnv, Fnv};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: every workload's measured run reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload's traced run reports each. A layer
/// a workload does not exercise reports `0` there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Knowledge layer (reproduce: E8).
    ("knowledge.universe_s", "s"),
    ("knowledge.learning_s", "s"),
    ("knowledge.stability_s", "s"),
    ("knowledge.classes_s", "s"),
    ("knowledge.universe_runs", "count"),
    // Other reproduce sections, by the layer doing the work.
    ("verify.refute_s", "s"),
    ("verify.shrink_s", "s"),
    ("core.alpha_s", "s"),
    ("sim.experiments_s", "s"),
    // Certificate pipeline (certify).
    ("verify.search_s", "s"),
    ("verify.json_s", "s"),
    ("verify.check_s", "s"),
    ("verify.cert_bytes", "bytes"),
    ("verify.accept_ratio", "ratio"),
    // Kernel, channel, scheduler and protocol layers (sweep, sessions).
    ("sim.kernel.steps_per_s", "1/s"),
    ("sim.kernel.steps_per_run", "count"),
    ("channel.sends_per_run", "count"),
    ("channel.drops_per_run", "count"),
    ("channel.deliver_share", "ratio"),
    ("channel.expire_share", "ratio"),
    ("sched.decide_share", "ratio"),
    ("protocols.sender_share", "ratio"),
    ("protocols.receiver_share", "ratio"),
    ("sim.kernel.bookkeeping_share", "ratio"),
    ("unattributed_share", "ratio"),
    // Sweep cells: family x channel self time per lap.
    ("sweep.cell.tight-dup_s", "s"),
    ("sweep.cell.tight-del_s", "s"),
    ("sweep.cell.tight-timed_s", "s"),
    ("sweep.cell.abp-dup_s", "s"),
    ("sweep.cell.abp-del_s", "s"),
    ("sweep.cell.abp-timed_s", "s"),
    ("sweep.cell.stab-dup_s", "s"),
    ("sweep.cell.stab-del_s", "s"),
    ("sweep.cell.stab-timed_s", "s"),
    // Sweep executors, measured on real threads; the model is labelled.
    ("sim.executor.cursor_runs_per_s", "1/s"),
    ("sim.executor.steal_runs_per_s", "1/s"),
    ("sim.executor.scaling", "ratio"),
    ("sim.executor.model_gap", "ratio"),
    // Session store (sessions).
    ("sim.sessions.submit_us", "us"),
    ("sim.sessions.poll_us", "us"),
    ("sim.sessions.drain_us", "us"),
    ("sim.sessions.step_round_ms_p50", "ms"),
    ("sim.sessions.step_round_ms_p99", "ms"),
    ("sim.sessions.queue_wait_rounds_p99", "rounds"),
    ("sim.sessions.recycle_hit_ratio", "ratio"),
    ("sim.sessions.active_mean", "count"),
    ("sim.sessions.admission_share", "ratio"),
    ("sim.sessions.retire_share", "ratio"),
    ("sim_latency_p99_rounds", "rounds"),
    // Allocations per operation, counted in a separate process.
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    // Whole-run accounting.
    ("fail_frac", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What one run found: the correctness tally and its metrics by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// Metric values by registry name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Description of the generated inputs, digested into the
    /// provenance record's `spec_digest`.
    pub spec: String,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Tallies `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Why a report could not be printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// A registry metric the workload did not produce.
    Missing(&'static str),
    /// A metric that is not a finite number.
    NotFinite(&'static str),
    /// A run that attempted nothing.
    NothingAttempted,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Missing(m) => write!(f, "metric `{m}` was not produced"),
            ReportError::NotFinite(m) => write!(f, "metric `{m}` is not a finite number"),
            ReportError::NothingAttempted => write!(f, "the run attempted no operation"),
        }
    }
}

impl std::error::Error for ReportError {}

/// The registry a run reports against: end-to-end for the measured run,
/// per-layer for the traced one.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every registry metric with its
/// unit. Per-layer metrics a workload leaves unset read `0` (the layer
/// did no work there); an unset end-to-end metric is an error.
pub fn result_line(report: &Report, trace: bool) -> Result<String, ReportError> {
    if report.attempted == 0 {
        return Err(ReportError::NothingAttempted);
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in registry(trace).iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(ReportError::Missing(name)),
        };
        if !value.is_finite() {
            return Err(ReportError::NotFinite(name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    ))
}

/// Where a number came from: (commit, host, workload, seed, spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The commit measured, or a digest of its sources when the
    /// checkout is not a git repository.
    pub commit: String,
    /// Parallelism granted to this process.
    pub host_cores_effective: usize,
    /// CPUs the kernel reports.
    pub host_cores_present: usize,
    /// The workload's name.
    pub workload: &'static str,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Digest of the generated inputs' description.
    pub spec_digest: String,
}

impl Provenance {
    /// The provenance of a finished run over `report`'s inputs.
    pub fn of(args: &Args, report: &Report) -> Provenance {
        let (host_cores_effective, host_cores_present) = stp_bench::host::host_parallelism();
        Provenance {
            commit: commit(Path::new(".")),
            host_cores_effective,
            host_cores_present,
            workload: args.workload.name(),
            seed: args.seed,
            trace: args.trace,
            spec_digest: format!("{:016x}", fnv(report.spec.as_bytes())),
        }
    }

    /// A compact id naming this run, carried by every span line.
    pub fn run_id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.commit, self.workload, self.seed, self.spec_digest, self.host_cores_effective
        )
    }

    /// The `{"provenance": …}` line printed before the result line.
    pub fn line(&self) -> String {
        format!(
            "{{\"provenance\": {{\"commit\": \"{}\", \"host_cores_effective\": {}, \"host_cores_present\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"spec_digest\": \"{}\", \"run\": \"{}\"}}}}",
            self.commit,
            self.host_cores_effective,
            self.host_cores_present,
            self.workload,
            self.seed,
            self.trace,
            self.spec_digest,
            self.run_id()
        )
    }
}

/// The commit checked out under `root`: read from `.git` when present
/// (no `git` process is started), otherwise `src-` plus a digest of the
/// sources the benchmark builds (`Cargo.toml`, `Cargo.lock`, `crates/`,
/// `shims/`), which names the code as exactly as a commit would.
pub fn commit(root: &Path) -> String {
    git_head(root).unwrap_or_else(|| {
        let mut h = Fnv::default();
        for top in ["Cargo.toml", "Cargo.lock", "crates", "shims"] {
            digest_tree(&root.join(top), &mut h);
        }
        format!("src-{:016x}", h.finish())
    })
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn digest_tree(path: &Path, h: &mut Fnv) {
    if let Ok(bytes) = std::fs::read(path) {
        h.bytes(path.to_string_lossy().as_bytes()).bytes(&bytes);
        return;
    }
    let Ok(dir) = std::fs::read_dir(path) else {
        return;
    };
    let mut entries: Vec<_> = dir.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        digest_tree(&entry, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(trace: bool) -> Report {
        let mut r = Report::default();
        for (name, _) in registry(trace) {
            r.set(name, 1.5);
        }
        r.tally(3, 0);
        r
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys_and_every_metric() {
        for trace in [false, true] {
            let line = result_line(&full(trace), trace).unwrap();
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
            for (name, unit) in registry(trace) {
                assert!(line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
                )));
            }
        }
    }

    #[test]
    fn missing_or_broken_metrics_are_errors() {
        let mut r = full(false);
        r.metrics.remove("wall_s");
        assert_eq!(result_line(&r, false), Err(ReportError::Missing("wall_s")));
        let mut r = full(false);
        r.set("wall_s", f64::NAN);
        assert_eq!(
            result_line(&r, false),
            Err(ReportError::NotFinite("wall_s"))
        );
        assert_eq!(
            result_line(&Report::default(), false),
            Err(ReportError::NothingAttempted)
        );
        // Per-layer metrics a workload does not touch read 0.
        let mut r = full(true);
        r.metrics.remove("knowledge.universe_s");
        assert!(result_line(&r, true)
            .unwrap()
            .contains("\"knowledge.universe_s\": {\"value\": 0.0"));
    }
}
