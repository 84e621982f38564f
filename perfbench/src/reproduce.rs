//! The `reproduce` workload: the full paper reproduction, `run_all`,
//! run as a user runs it.
//!
//! The measured run spawns the `run_all` executable and reads its
//! standard output as it streams. One operation is one experiment
//! section; a section's latency runs from the arrival of its header
//! line to the arrival of the next one (or the end of output). The
//! output must be byte-identical to `results/run_all.txt` and the exit
//! code 0: each section whose text differs is one failure, and a nonzero
//! exit fails every section of the lap. The reproduction has no inputs
//! to draw, so `--seed` changes nothing here.
//!
//! The traced run makes the same library calls in this process, one
//! span per section named after the layer that does the section's work,
//! and replaces E8's single call by its parts — the exact universe,
//! learning profiles, stability checks and class counts — each in its
//! own span. Every in-process section must still render byte-identical
//! to the reference.

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{fastest, median, quantile, timed, Budget, SetupClock};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stp_bench::{e1, e10, e11, e12, e2, e3, e4, e5, e6, e7, e8, e9};
use stp_knowledge::LearningProfile;

/// The committed reproduction output, relative to the checkout root.
pub const REFERENCE: &str = "results/run_all.txt";

/// Why the workload could not run.
#[derive(Debug)]
pub enum ReproduceError {
    /// The reference output could not be read.
    Reference(std::io::Error),
    /// The `run_all` executable could not be started or read.
    Spawn(PathBuf, std::io::Error),
}

impl std::fmt::Display for ReproduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproduceError::Reference(e) => write!(f, "cannot read {REFERENCE}: {e}"),
            ReproduceError::Spawn(p, e) => write!(f, "cannot run {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for ReproduceError {}

/// The reference output split into sections, keyed by section id
/// (`E1`, `E3a`, …), each holding its full text, header line included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sections(pub Vec<(String, String)>);

/// The section id a header line opens (`"E11c — …"` → `"E11c"`), or
/// `None` for any other line.
pub fn header_id(line: &str) -> Option<&str> {
    let (id, _) = line.split_once(" — ")?;
    let digits = id.strip_prefix('E')?;
    let num = digits.trim_end_matches(|c: char| c.is_ascii_lowercase());
    (!num.is_empty() && num.chars().all(|c| c.is_ascii_digit()) && digits.len() - num.len() <= 1)
        .then_some(id)
}

/// Splits reproduction output into sections; text before the first
/// header is kept under the id `""`.
pub fn split(text: &str) -> Sections {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        match header_id(line.trim_end_matches('\n')) {
            Some(id) => out.push((id.to_string(), line.to_string())),
            None => match out.last_mut() {
                Some((_, body)) => body.push_str(line),
                None => out.push((String::new(), line.to_string())),
            },
        }
    }
    Sections(out)
}

/// Reads and splits the reference: the set-up the `setup_s` metric
/// times.
pub fn setup(root: &Path) -> Result<Sections, ReproduceError> {
    let text = std::fs::read_to_string(root.join(REFERENCE)).map_err(ReproduceError::Reference)?;
    Ok(split(&text))
}

/// Sections of `got` that do not match `want`, position by position;
/// missing and surplus sections count too.
pub fn mismatches(want: &Sections, got: &Sections) -> u64 {
    let n = want.0.len().max(got.0.len());
    (0..n).filter(|&i| want.0.get(i) != got.0.get(i)).count() as u64
}

/// One spawned reproduction.
#[derive(Debug)]
pub struct Lap {
    /// Wall seconds from spawn to exit.
    pub wall: f64,
    /// Seconds per section, header to next header (or end of output).
    pub section_secs: Vec<f64>,
    /// Standard output, split.
    pub sections: Sections,
    /// Whether the process exited with code 0.
    pub exit_ok: bool,
    /// Highest `VmHWM` seen while the process ran, in MiB.
    pub peak_rss_mb: f64,
}

/// Spawns `run_all` and times its sections as they stream.
pub fn spawn(run_all: &Path) -> Result<Lap, ReproduceError> {
    let err = |e| ReproduceError::Spawn(run_all.to_path_buf(), e);
    let start = Instant::now();
    let mut child = Command::new(run_all)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(err)?;
    let pid = child.id().to_string();
    let done = Arc::new(AtomicBool::new(false));
    // Resident memory is sampled every few milliseconds from a second
    // thread: the high-water mark only grows, and it vanishes with the
    // process, so the last sample is at most one period stale.
    let poller = {
        let (done, pid) = (Arc::clone(&done), pid.clone());
        std::thread::spawn(move || {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                if let Some(mb) = crate::util::peak_rss_mb(&pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        })
    };
    let mut text = Vec::new();
    let mut marks = Vec::new();
    let read = (|| {
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = Vec::new();
        loop {
            line.clear();
            if out.read_until(b'\n', &mut line)? == 0 {
                return Ok(());
            }
            if header_id(String::from_utf8_lossy(&line).trim_end()).is_some() {
                marks.push(Instant::now());
            }
            text.extend_from_slice(&line);
        }
    })();
    let end_of_output = Instant::now();
    let status = child.wait();
    let wall = start.elapsed().as_secs_f64();
    done.store(true, Ordering::Relaxed);
    let peak = poller.join().unwrap_or(0.0);
    read.map_err(err)?;
    let status = status.map_err(err)?;
    marks.push(end_of_output);
    Ok(Lap {
        wall,
        section_secs: marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect(),
        sections: split(&String::from_utf8_lossy(&text)),
        exit_ok: status.success(),
        peak_rss_mb: peak,
    })
}

fn tally(report: &mut Report, want: &Sections, lap: &Lap) {
    let attempted = want.0.len() as u64;
    let failed = if lap.exit_ok {
        mismatches(want, &lap.sections).min(attempted)
    } else {
        attempted
    };
    report.tally(attempted, failed);
}

/// Set-up samples taken before each lap: a run makes only a few laps.
const SETUP_SAMPLES_PER_LAP: usize = 8;

/// The measured run. Its wall time comes from the fastest lap (see
/// [`crate::util::fastest`]); set-up is timed before every lap and its
/// median reported.
pub fn measure(root: &Path, run_all: &Path, seconds: u64) -> Result<Report, ReproduceError> {
    let want = setup(root)?;
    let mut clock = SetupClock::new(|| setup(root));
    let budget = Budget::secs(seconds as f64);
    let mut laps = Vec::new();
    while budget.another(laps.len()) {
        for _ in 0..SETUP_SAMPLES_PER_LAP {
            clock.sample()?;
        }
        laps.push(spawn(run_all)?);
    }
    let mut report = Report::default();
    let walls: Vec<f64> = laps.iter().map(|l| l.wall).collect();
    // Each section's median over the laps, then percentiles across
    // sections. A section of a few milliseconds varies threefold from
    // lap to lap on its own (E11c: 1.9–6.7 ms), and the sections near
    // the median are such, so their fastest laps would be outliers.
    let sections: Vec<f64> = (0..want.0.len())
        .map(|i| {
            let secs: Vec<f64> = laps
                .iter()
                .filter_map(|l| l.section_secs.get(i).copied())
                .collect();
            median(&secs)
        })
        .collect();
    let wall = fastest(&walls);
    report.set("setup_s", clock.median());
    report.set("wall_s", wall);
    report.set("ops_per_s", want.0.len() as f64 / wall);
    report.set("latency_p50_ms", median(&sections) * 1e3);
    report.set("latency_p99_ms", quantile(&sections, 0.99) * 1e3);
    report.set(
        "peak_rss_mb",
        median(&laps.iter().map(|l| l.peak_rss_mb).collect::<Vec<_>>()),
    );
    for lap in &laps {
        tally(&mut report, &want, lap);
    }
    report.spec = format!(
        "{} {:016x}",
        REFERENCE,
        crate::util::fnv(format!("{want:?}").as_bytes())
    );
    Ok(report)
}

/// The in-process reproduction, one span per section; returns each
/// section's text as `run_all` prints it, and the number of runs in
/// E8's exact universe. The calls and their arguments mirror
/// `run_all`'s; comparing the text with the reference catches any drift
/// between the two.
pub fn in_process(t: &mut Tracer, op: u64) -> (Sections, usize) {
    let meter = stp_bench::telemetry::progress();
    let mut universe_runs = 0;
    type Body<'a> = Box<dyn FnOnce(&mut Tracer) -> String + 'a>;
    let sections: Vec<(&str, &str, &'static str, Body)> = vec![
        (
            "E1",
            "tight protocol over reorder+duplicate channels",
            "sim.experiments",
            Box::new(|_| e1::render(&e1::run(5, 3))),
        ),
        (
            "E2",
            "Theorem 1 impossibility",
            "verify.refute",
            Box::new(|_| e2::render(&e2::run(3))),
        ),
        (
            "E3a",
            "tight-del completeness",
            "sim.experiments",
            Box::new(|_| e3::render_completeness(&e3::run_completeness(4, 3))),
        ),
        (
            "E3b",
            "bounded recovery profile",
            "sim.experiments",
            Box::new(|_| e3::render_recovery(&e3::run_recovery(8))),
        ),
        (
            "E4",
            "Theorem 2 impossibility",
            "verify.refute",
            Box::new(|_| e4::render(&e4::run(&[2, 4, 6, 8]))),
        ),
        (
            "E5",
            "weak boundedness (recovery vs |X|)",
            "sim.experiments",
            Box::new(|_| e5::render(&e5::run(&[4, 8, 16, 32, 64]))),
        ),
        (
            "E6",
            "the alpha function",
            "core.alpha",
            Box::new(|_| e6::render(&e6::run(25, 7))),
        ),
        (
            "E7",
            "protocol cost grid",
            "sim.experiments",
            Box::new(|_| e7::render(&e7::run(42))),
        ),
        (
            "E8",
            "knowledge analysis (exact universe, m = 2)",
            "",
            Box::new(|t| {
                let (text, runs) = knowledge(t, 2, 6);
                universe_runs = runs;
                text
            }),
        ),
        (
            "E9",
            "probabilistic codebooks beyond alpha(m)",
            "sim.experiments",
            Box::new(|_| e9::render(&e9::run(2, 3, &[4, 5, 6, 7], 8))),
        ),
        (
            "E10",
            "boundedness probe (Definition 2)",
            "sim.experiments",
            Box::new(|_| e10::render(&e10::run(&[8, 16, 24], 6))),
        ),
        (
            "E11a",
            "recovery envelopes (OnWrite-triggered silence)",
            "sim.experiments",
            Box::new(|_| {
                e11::render_envelopes(&e11::run_envelopes_observed(&[4, 8, 16, 32], 0, &meter))
            }),
        ),
        (
            "E11b",
            "composite campaign survival",
            "sim.experiments",
            Box::new(|_| e11::render_composite(&e11::run_composite(8))),
        ),
        (
            "E11c",
            "shrunk safety-violation witness",
            "verify.shrink",
            Box::new(|_| e11::render_shrink(&e11::run_shrink_demo())),
        ),
        (
            "E12a",
            "classical protocols under transient state corruption",
            "sim.experiments",
            Box::new(|_| e12::render_fragility(&e12::run_fragility(4))),
        ),
        (
            "E12b",
            "certified stabilization bounds",
            "sim.experiments",
            Box::new(|_| e12::render_stabilization(&e12::run_stabilization_grid())),
        ),
    ];
    let mut out = Vec::new();
    for (id, title, layer, body) in sections {
        // E8's parts carry their own spans; its glue is unattributed.
        let body = if layer.is_empty() {
            body(t)
        } else {
            t.span(layer, op, body)
        };
        out.push((id.to_string(), format!("{id} — {title}\n{body}\n")));
    }
    (Sections(out), universe_runs)
}

/// E8 from its parts, each call in a span: `run_all`'s E8 section body
/// and the size of the universe.
fn knowledge(t: &mut Tracer, m: u16, horizon: u64) -> (String, usize) {
    let u = t.span("knowledge.universe", 0, |_| e8::exact_universe(m, horizon));
    let mut by_input: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for run in 0..u.len() {
        by_input
            .entry(u.trace(run).input().to_string())
            .or_default()
            .push(run);
    }
    let mut rows = Vec::new();
    for (input, runs) in &by_input {
        let (mut fully, mut gaps) = (0usize, Vec::new());
        let (mut stable, mut stable_total, mut kfirst, mut kfirst_total) = (0, 0, 0, 0);
        for &run in runs {
            let n = u.trace(run).input().len();
            let profile = t.span("knowledge.learning", run as u64, |_| {
                LearningProfile::of(&u, run)
            });
            if n == 0 || profile.t.iter().all(Option::is_some) {
                fully += 1;
            }
            gaps.extend(profile.learning_gaps().into_iter().flatten());
            for i in 1..=n {
                stable_total += 1;
                if t.span("knowledge.stability", run as u64, |_| {
                    u.is_knowledge_stable(run, i)
                }) {
                    stable += 1;
                }
            }
            for (learnt, &w) in profile.t.iter().zip(&profile.write_steps) {
                if let Some(learnt) = learnt {
                    kfirst_total += 1;
                    if *learnt <= w + 1 {
                        kfirst += 1;
                    }
                }
            }
        }
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        rows.push(e8::E8Row {
            input: input.clone(),
            runs: runs.len(),
            fully_learnt: fully,
            mean_learning_gap: if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().sum::<u64>() as f64 / gaps.len() as f64
            },
            stability: ratio(stable, stable_total),
            knowledge_first: ratio(kfirst, kfirst_total),
        });
    }
    let classes: Vec<usize> = (0..=horizon)
        .map(|step| t.span("knowledge.classes", step, |_| u.classes_at(step).len()))
        .collect();
    let text = format!(
        "{}\nindistinguishability classes per step: {classes:?}\n",
        e8::render(&rows)
    );
    (text, u.len())
}

/// The traced run: spawned (untraced) reproductions alternating with
/// traced in-process ones.
pub fn traced(
    root: &Path,
    run_all: &Path,
    seconds: u64,
) -> Result<(Report, Tracer), ReproduceError> {
    let want = setup(root)?;
    let mut report = Report::default();
    let mut tracer = Tracer::on();
    let budget = Budget::secs(seconds as f64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut universe_runs = 0;
    while budget.another(traced.len()) {
        let lap = spawn(run_all)?;
        tally(&mut report, &want, &lap);
        plain.push(lap.wall);
        let op = traced.len() as u64;
        let ((got, runs), wall) = timed(|| tracer.span("reproduce.lap", op, |t| in_process(t, op)));
        universe_runs = runs;
        report.tally(want.0.len() as u64, mismatches(&want, &got));
        traced.push(wall);
    }
    let laps = traced.len() as f64;
    let selfs = tracer.self_secs();
    let per_lap = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / laps;
    for (metric, span) in [
        ("knowledge.universe_s", "knowledge.universe"),
        ("knowledge.learning_s", "knowledge.learning"),
        ("knowledge.stability_s", "knowledge.stability"),
        ("knowledge.classes_s", "knowledge.classes"),
        ("verify.refute_s", "verify.refute"),
        ("verify.shrink_s", "verify.shrink"),
        ("core.alpha_s", "core.alpha"),
        ("sim.experiments_s", "sim.experiments"),
    ] {
        report.set(metric, per_lap(span));
    }
    report.set("knowledge.universe_runs", universe_runs as f64);
    report.set("trace_overhead", median(&traced) / median(&plain));
    report.set("trace.unattributed_share", tracer.unattributed_share());
    report.set("fail_frac", report.failed as f64 / report.attempted as f64);
    report.spec = format!(
        "{} {:016x}",
        REFERENCE,
        crate::util::fnv(format!("{want:?}").as_bytes())
    );
    Ok((report, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_and_sections() {
        assert_eq!(
            header_id("E11c — shrunk safety-violation witness"),
            Some("E11c")
        );
        assert_eq!(header_id("E1 — tight"), Some("E1"));
        assert_eq!(header_id("E — x"), None);
        assert_eq!(header_id("Eab — x"), None);
        assert_eq!(header_id("  E1 — x"), None);
        let s = split("E1 — a\nrow\n\nE2 — b\nrow\n");
        assert_eq!(s.0.len(), 2);
        assert_eq!(s.0[0], ("E1".to_string(), "E1 — a\nrow\n\n".to_string()));
        let mut t = s.clone();
        t.0[1].1.push('x');
        assert_eq!(mismatches(&s, &t), 1);
        t.0.pop();
        assert_eq!(mismatches(&s, &t), 1);
        assert_eq!(mismatches(&s, &s), 0);
    }
}
