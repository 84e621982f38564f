//! The `sweep` workload: the adversarial-sweep grid through
//! [`SweepEngine::run`] at one thread per core, with tracing off.
//!
//! Twenty-seven sweeps per lap, family × channel × adversary, each over
//! the family's claimed sequences × 1024 adversary seeds drawn from
//! `--seed`. One operation is one run; a sweep call's latency is the
//! per-operation latency the end-to-end percentiles report. Every lap's
//! per-sweep outcome digest must equal the digest of
//! [`SweepEngine::run_serial`] on the same sweep, and every run also
//! sweeps the grid of [`CANONICAL_SEED`] and checks it against the
//! digests committed in `reference/sweep_digests.txt`, so a change that
//! alters outcomes in the serial and the parallel path alike still
//! fails. Runs that end incomplete or unsafe (ABP over dup and del, the
//! send-once tight protocol over lossy channels) are expected and are
//! not failures.
//!
//! The step budget is kept small (500 steps) and the seed count large
//! (1024) so that runs that stall until the budget runs out do not
//! dominate a sweep: how many stall depends on the seeds, and with 256
//! seeds their count alone moved the slowest sweep's time by a quarter
//! from one `--seed` to another.

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{
    fastest, median, quantile, resident_peak_mb, splitmix, timed, warm_up, Budget, Fnv, SetupClock,
};
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::event::TraceMode;
use stp_protocols::{FamilySpec, ProtocolFamily, ResendPolicy};
use stp_sim::prof::ProfRecord;
use stp_sim::{PhaseProfiler, RunStats, StealSweep, SweepEngine, SweepOutcome, SweepSpec};

/// Adversary seeds per (sequence, adversary).
pub const SEEDS: u64 = 1024;
/// Step budget per run.
pub const MAX_STEPS: u64 = 500;

/// The grid's families, in the order of the `sweep.cell.*` names.
pub fn families() -> [FamilySpec; 3] {
    [
        FamilySpec::Tight {
            d: 4,
            policy: ResendPolicy::Once,
        },
        FamilySpec::Abp {
            domain: 2,
            max_len: 4,
        },
        FamilySpec::Stabilizing { d: 2, max_len: 3 },
    ]
}

/// The grid's channels, in the order of the `sweep.cell.*` names.
pub fn channels() -> [ChannelSpec; 3] {
    [
        ChannelSpec::Dup,
        ChannelSpec::Del,
        ChannelSpec::Timed { deadline: 4 },
    ]
}

/// The adversaries every cell runs under.
pub fn schedulers() -> Vec<SchedulerSpec> {
    vec![
        SchedulerSpec::DupStorm { p_deliver: 0.9 },
        SchedulerSpec::Random { p_deliver: 0.7 },
        SchedulerSpec::Reorder,
    ]
}

/// Per family × channel span and metric names, family-major like
/// [`families`] × [`channels`].
const CELL_SPANS: [&str; 9] = [
    "sweep.cell.tight-dup",
    "sweep.cell.tight-del",
    "sweep.cell.tight-timed",
    "sweep.cell.abp-dup",
    "sweep.cell.abp-del",
    "sweep.cell.abp-timed",
    "sweep.cell.stab-dup",
    "sweep.cell.stab-del",
    "sweep.cell.stab-timed",
];
const CELL_METRICS: [&str; 9] = [
    "sweep.cell.tight-dup_s",
    "sweep.cell.tight-del_s",
    "sweep.cell.tight-timed_s",
    "sweep.cell.abp-dup_s",
    "sweep.cell.abp-del_s",
    "sweep.cell.abp-timed_s",
    "sweep.cell.stab-dup_s",
    "sweep.cell.stab-del_s",
    "sweep.cell.stab-timed_s",
];

/// One family × channel × adversary sweep, ready to run.
pub struct Cell {
    /// Span name of its family × channel cell, e.g. `sweep.cell.tight-dup`.
    pub span: &'static str,
    /// The family, shareable across worker threads.
    pub family: Box<dyn ProtocolFamily + Sync>,
    /// The adversary.
    pub scheduler: SchedulerSpec,
    /// The sweep's spec (channel, adversary, seeds, budget).
    pub spec: SweepSpec,
    /// The engine at the measured width.
    pub engine: SweepEngine,
    /// Runs in one sweep.
    pub runs: usize,
}

/// The adversary seeds `--seed` expands to.
pub fn seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS).map(|i| splitmix(seed, i)).collect()
}

/// Builds the 27 sweeps for `seed` at `threads` workers: the set-up
/// the `setup_s` metric times.
pub fn setup(seed: u64, threads: usize) -> Vec<Cell> {
    let seeds = seeds(seed);
    let mut cells = Vec::with_capacity(CELL_SPANS.len() * 3);
    for (fi, fam) in families().iter().enumerate() {
        for (ci, channel) in channels().iter().enumerate() {
            for scheduler in schedulers() {
                let spec = SweepSpec::new(channel.clone(), scheduler.clone())
                    .max_steps(MAX_STEPS)
                    .seeds(seeds.iter().copied())
                    .trace_mode(TraceMode::Off)
                    .threads(threads);
                let family = fam.build_sync();
                let runs = spec.grid_size(&*family);
                cells.push(Cell {
                    span: CELL_SPANS[fi * 3 + ci],
                    engine: SweepEngine::new(spec.clone()),
                    family,
                    scheduler,
                    spec,
                    runs,
                });
            }
        }
    }
    cells
}

/// Order- and host-independent digest of a sweep's per-run outcomes.
pub fn digest(outcome: &SweepOutcome) -> u64 {
    let mut h = Fnv::default();
    for r in &outcome.runs {
        h.u64(r.scheduler as u64)
            .u64(r.seed)
            .bytes(r.input.to_string().as_bytes());
        stats_digest(&mut h, &r.stats);
    }
    h.finish()
}

fn stats_digest(h: &mut Fnv, s: &RunStats) {
    for v in [
        s.steps,
        s.sends_s as u64,
        s.sends_r as u64,
        s.deliveries_r as u64,
        s.deliveries_s as u64,
        s.drops as u64,
        s.written as u64,
        s.input_len as u64,
        u64::from(s.safe),
    ] {
        h.u64(v);
    }
    for &w in &s.write_steps {
        h.u64(w);
    }
}

/// The seed of the grid whose digests are committed.
pub const CANONICAL_SEED: u64 = 0;

/// `SweepEngine::run_serial` digests of the [`CANONICAL_SEED`] grid, one
/// line per sweep: digest, cell, adversary.
const REFERENCE_DIGESTS: &str = include_str!("../reference/sweep_digests.txt");

/// The committed reference lines, comments skipped.
fn committed_digests() -> Vec<&'static str> {
    REFERENCE_DIGESTS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The reference lines for `cells` with outcome digests `digests`, in
/// the layout of `reference/sweep_digests.txt`.
pub fn reference_lines(cells: &[Cell], digests: &[u64]) -> Vec<String> {
    cells
        .iter()
        .zip(digests)
        .map(|(c, d)| format!("{d:016x} {} {:?}", c.span, c.scheduler))
        .collect()
}

/// Sweeps the [`CANONICAL_SEED`] grid through `SweepEngine::run` and
/// fails every run of each sweep whose line differs from the committed
/// reference.
fn check_canonical(width: usize, report: &mut Report) {
    let cells = setup(CANONICAL_SEED, width);
    let digests: Vec<u64> = cells
        .iter()
        .map(|c| digest(&c.engine.run(&*c.family)))
        .collect();
    let want = committed_digests();
    for (i, (cell, got)) in cells
        .iter()
        .zip(reference_lines(&cells, &digests))
        .enumerate()
    {
        let failed = if want.get(i) == Some(&got.as_str()) {
            0
        } else {
            cell.runs as u64
        };
        report.tally(cell.runs as u64, failed);
    }
}

/// Description of the generated inputs, for the spec digest.
fn spec_text(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| format!("{}:{:?}", c.span, c.spec))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One lap of the grid, in a `sweep.lap` span: each sweep through
/// `SweepEngine::run`, inside its cell's span. Returns per-sweep seconds
/// and outcome digests; a lap's wall time is the sum of its sweeps', so
/// digesting between them is not timed.
fn lap(cells: &[Cell], tracer: &mut Tracer, lap: u64) -> (Vec<f64>, Vec<u64>) {
    tracer.span("sweep.lap", lap, |t| {
        cells
            .iter()
            .map(|cell| {
                let (out, s) = timed(|| t.span(cell.span, lap, |_| cell.engine.run(&*cell.family)));
                (s, digest(&out))
            })
            .unzip()
    })
}

/// Worker threads: one per core the process may use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reference digests: every sweep through `run_serial`.
fn reference(cells: &[Cell]) -> Vec<u64> {
    cells
        .iter()
        .map(|c| digest(&c.engine.run_serial(&*c.family)))
        .collect()
}

/// Counts failed runs: every run of a sweep whose digest differs.
fn check(cells: &[Cell], laps: &[Vec<u64>], reference: &[u64], report: &mut Report) {
    for digests in laps {
        for ((cell, d), r) in cells.iter().zip(digests).zip(reference) {
            let failed = if d == r { 0 } else { cell.runs as u64 };
            report.tally(cell.runs as u64, failed);
        }
    }
}

/// The measured run. Its timings come from the fastest laps (see
/// [`crate::util::fastest`]); set-up is timed before every lap and its
/// median reported; memory laps follow the timed ones.
pub fn measure(seed: u64, seconds: u64) -> Report {
    let width = threads();
    let mut clock = SetupClock::new(|| setup(seed, width));
    let cells = clock.sample();
    let runs: usize = cells.iter().map(|c| c.runs).sum();
    let mut report = Report::default();
    check_canonical(width, &mut report);
    let reference = reference(&cells);
    let mut tracer = Tracer::off();
    warm_up(seconds, || {
        lap(&cells, &mut tracer, 0);
    });
    let budget = Budget::secs(seconds as f64);
    let mut walls = Vec::new();
    let mut sweep_secs = vec![Vec::new(); cells.len()];
    while budget.another(walls.len()) {
        clock.sample();
        let (secs, digests) = lap(&cells, &mut tracer, walls.len() as u64);
        walls.push(secs.iter().sum::<f64>());
        for (samples, s) in sweep_secs.iter_mut().zip(secs) {
            samples.push(s);
        }
        check(&cells, &[digests], &reference, &mut report);
    }
    // Each sweep's fastest call, then percentiles across the 27 sweeps.
    let sweeps: Vec<f64> = sweep_secs.iter().map(|s| fastest(s)).collect();
    let wall = fastest(&walls);
    let peak = resident_peak_mb(|| {
        let (_, digests) = lap(&cells, &mut tracer, 0);
        check(&cells, &[digests], &reference, &mut report);
    });
    report.set("peak_rss_mb", peak);
    report.set("setup_s", clock.median());
    report.set("wall_s", wall);
    report.set("ops_per_s", runs as f64 / wall);
    report.set("latency_p50_ms", median(&sweeps) * 1e3);
    report.set("latency_p99_ms", quantile(&sweeps, 0.99) * 1e3);
    report.spec = spec_text(&cells);
    report
}

/// Profiler sampling period for the phase shares: every unit of work is
/// a window. The profiled pass is not timed, and at sparser periods a
/// single preempted window can outweigh all the others.
pub const PROF_PERIOD: u64 = 1;

/// Folds a profiler report into the phase-share metrics.
pub fn set_phase_shares(report: &mut Report, prof: &ProfRecord, extra: &[(&'static str, &str)]) {
    let share = |pred: &dyn Fn(&str) -> bool| -> f64 {
        prof.phases
            .iter()
            .filter(|p| pred(&p.phase))
            .map(|p| p.share)
            .sum()
    };
    let mut named = 0.0;
    let mut put = |report: &mut Report, name: &'static str, v: f64| {
        named += v;
        report.set(name, v);
    };
    put(
        report,
        "channel.deliver_share",
        share(&|p| p.starts_with("deliver_")),
    );
    put(
        report,
        "channel.expire_share",
        share(&|p| p.starts_with("expire_")),
    );
    put(
        report,
        "sched.decide_share",
        share(&|p| p == "scheduler_decide"),
    );
    put(
        report,
        "protocols.sender_share",
        share(&|p| p == "sender_step"),
    );
    put(
        report,
        "protocols.receiver_share",
        share(&|p| p == "receiver_step"),
    );
    put(
        report,
        "sim.kernel.bookkeeping_share",
        share(&|p| p == "bookkeeping"),
    );
    for &(name, phase) in extra {
        put(report, name, share(&|p| p == phase));
    }
    report.set("unattributed_share", (1.0 - named).max(0.0));
}

/// Kernel counters from a serial sweep over every cell.
fn kernel_counts(outcomes: &[SweepOutcome]) -> (f64, f64, f64, f64) {
    let (mut runs, mut steps, mut sends, mut drops) = (0u64, 0u64, 0u64, 0u64);
    for o in outcomes {
        for r in &o.runs {
            runs += 1;
            steps += r.stats.steps;
            sends += (r.stats.sends_s + r.stats.sends_r) as u64;
            drops += r.stats.drops as u64;
        }
    }
    (runs as f64, steps as f64, sends as f64, drops as f64)
}

/// The traced run: per-cell self times from traced laps interleaved with
/// untraced ones (`trace_overhead`), the executor lanes measured on real
/// threads next to the critical-path model, serial kernel counters, and
/// the profiler's phase shares.
pub fn traced(seed: u64, seconds: u64) -> (Report, Tracer) {
    let width = threads();
    let cells = setup(seed, width);
    let mut report = Report::default();
    check_canonical(width, &mut report);
    let reference = reference(&cells);
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    let mut lap_digests = Vec::new();
    warm_up(seconds, || {
        lap(&cells, &mut off, 0);
    });

    // Traced and untraced laps, alternating.
    let budget = Budget::secs(seconds as f64 * 0.45);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    while budget.another(traced_walls.len()) {
        let n = traced_walls.len() as u64;
        let (secs, digests) = lap(&cells, &mut off, n);
        plain_walls.push(secs.iter().sum::<f64>());
        lap_digests.push(digests);
        let (secs, digests) = lap(&cells, &mut tracer, n);
        traced_walls.push(secs.iter().sum::<f64>());
        lap_digests.push(digests);
    }
    let laps = traced_walls.len() as f64;
    let selfs = tracer.self_secs();
    for (span, metric) in CELL_SPANS.iter().zip(CELL_METRICS) {
        report.set(metric, selfs.get(span).copied().unwrap_or(0.0) / laps);
    }
    report.set(
        "trace_overhead",
        median(&traced_walls) / median(&plain_walls),
    );

    // The executor lanes, each rep in a `sweep.executors` span: cursor
    // and steal executors at the same width, one thread, and the
    // isolated critical-path projection (a model).
    let serial_cells = setup(seed, 1);
    let lane_budget = Budget::secs(seconds as f64 * 0.35);
    let (mut cursor, mut steal, mut serial, mut model) = (vec![], vec![], vec![], vec![]);
    let mut serial_outcomes = Vec::new();
    let mut reps = 0u64;
    while lane_budget.another(reps as usize) {
        tracer.span("sweep.executors", reps, |t| {
            let mut lane = |name, cells: &[Cell], run: &dyn Fn(&Cell) -> SweepOutcome| {
                let (outs, s) =
                    timed(|| t.span(name, reps, |_| cells.iter().map(run).collect::<Vec<_>>()));
                lap_digests.push(outs.iter().map(digest).collect());
                (outs, s)
            };
            cursor.push(lane("sim.executor.cursor", &cells, &|c| c.engine.run(&*c.family)).1);
            steal.push(
                lane("sim.executor.steal", &cells, &|c| {
                    StealSweep::new(c.spec.clone(), width).run(&*c.family)
                })
                .1,
            );
            let (outs, s) = lane("sim.executor.serial", &serial_cells, &|c| {
                c.engine.run(&*c.family)
            });
            serial.push(s);
            serial_outcomes = outs;
            let isolated = t.span("sim.executor.isolated", reps, |_| {
                cells
                    .iter()
                    .map(|c| StealSweep::new(c.spec.clone(), width).run_isolated(&*c.family))
                    .collect::<Vec<_>>()
            });
            lap_digests.push(isolated.iter().map(|r| digest(&r.outcome)).collect());
            model.push(isolated.iter().map(|r| r.critical_path_secs()).sum::<f64>());
        });
        reps += 1;
    }
    report.set("trace.unattributed_share", tracer.unattributed_share());
    let runs: usize = cells.iter().map(|c| c.runs).sum();
    let (cursor, steal, serial, model) = (
        median(&cursor),
        median(&steal),
        median(&serial),
        median(&model),
    );
    report.set("sim.executor.cursor_runs_per_s", runs as f64 / cursor);
    report.set("sim.executor.steal_runs_per_s", runs as f64 / steal);
    report.set("sim.executor.scaling", serial / cursor);
    report.set("sim.executor.model_gap", steal / model);
    let (n, steps, sends, drops) = kernel_counts(&serial_outcomes);
    report.set("sim.kernel.steps_per_s", steps / serial);
    report.set("sim.kernel.steps_per_run", steps / n);
    report.set("channel.sends_per_run", sends / n);
    report.set("channel.drops_per_run", drops / n);

    // Phase shares from the profiler, over one profiled lap.
    let prof = PhaseProfiler::new(PROF_PERIOD);
    let digests = cells
        .iter()
        .map(|c| digest(&c.engine.run_profiled(&*c.family, &prof)))
        .collect();
    lap_digests.push(digests);
    set_phase_shares(&mut report, &prof.report("perfbench", "sweep"), &[]);

    check(&cells, &lap_digests, &reference, &mut report);
    report.set("fail_frac", report.failed as f64 / report.attempted as f64);
    report.spec = spec_text(&cells);
    (report, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed digests are `run_serial`'s on the canonical grid. A
    /// change meant to alter sweep outcomes replaces the file's digest
    /// lines with the ones this test prints.
    #[test]
    fn committed_digests_are_run_serials() {
        let cells = setup(CANONICAL_SEED, 1);
        let digests: Vec<u64> = cells
            .iter()
            .map(|c| digest(&c.engine.run_serial(&*c.family)))
            .collect();
        assert_eq!(committed_digests(), reference_lines(&cells, &digests));
    }
}
