//! The `certify` workload: laps of the conformance grid.
//!
//! A lap runs every cell's search and certificate emission
//! ([`conformance::run_grid`]), then takes each certificate through
//! `to_json` → `from_json` and judges the parsed certificate as
//! [`conformance::judge`] does, which replays it through
//! `check_certificate`. One operation is one cell judged; a cell fails
//! unless it conforms, its certificate survives the JSON round trip
//! unchanged, and the checker accepts it. The grid is fixed by the
//! theorems it certifies, so `--seed` changes nothing here.
//!
//! The measured run is a closed loop with one client per core, each
//! running laps back to back. The search runs for the whole grid in one
//! call, so a cell's latency covers its own JSON round trip and check;
//! the search's share of a lap is `verify.search_s` in the traced run,
//! which runs one client.

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{
    fastest, median, quantile, resident_peak_mb, timed, warm_up, Budget, SetupClock,
};
use stp_bench::conformance::{self, CellOutcome};
use stp_verify::Certificate;

/// The reference ledger: each cell's coordinates and certificate kind,
/// in grid order, as `run_grid` emitted them when this benchmark was
/// defined.
const LEDGER: &str = include_str!("../reference/certify_ledger.txt");

/// One expected ledger row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// `m<m>-<family>-<channel>.json`, the cell's artifact name.
    pub cell: String,
    /// The certificate kind the cell must carry.
    pub kind: String,
}

/// Parses the reference ledger: the set-up the `setup_s` metric times.
pub fn setup() -> Vec<Expected> {
    LEDGER
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (cell, kind) = l.split_once(' ')?;
            Some(Expected {
                cell: cell.to_string(),
                kind: kind.trim().to_string(),
            })
        })
        .collect()
}

/// What one lap produced.
#[derive(Debug, Default)]
pub struct LapResult {
    /// Wall seconds of the lap.
    pub wall: f64,
    /// Per-cell seconds of the round trip and check.
    pub cell_secs: Vec<f64>,
    /// Cells judged.
    pub cells: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Certificate JSON bytes, summed.
    pub cert_bytes: u64,
}

/// Round-trips one certificate and judges the parsed copy; `true` when
/// the cell conforms.
fn judge_cell(
    outcome: CellOutcome,
    expected: Option<&Expected>,
    t: &mut Tracer,
    op: u64,
) -> (bool, u64) {
    let Some(cert) = &outcome.certificate else {
        return (false, 0);
    };
    let json = t.span("verify.json", op, |_| cert.to_json());
    let parsed = t.span("verify.json", op, |_| Certificate::from_json(&json));
    let Ok(parsed) = parsed else {
        return (false, json.len() as u64);
    };
    let same = &parsed == cert;
    let kind_ok =
        expected.is_some_and(|e| e.cell == outcome.cell.artifact_name() && e.kind == parsed.kind());
    let tripped = CellOutcome {
        certificate: Some(parsed),
        ..outcome
    };
    let record = t.span("verify.check", op, |_| conformance::judge(&tripped, ""));
    (record.ok && same && kind_ok, json.len() as u64)
}

/// One lap of the grid.
pub fn lap(expected: &[Expected], tracer: &mut Tracer, op: u64) -> LapResult {
    let mut out = LapResult::default();
    let ((), wall) = timed(|| {
        tracer.span("certify.lap", op, |t| {
            let outcomes = t.span("verify.search", op, |_| conformance::run_grid());
            if outcomes.len() != expected.len() {
                out.failed += expected.len().abs_diff(outcomes.len()) as u64;
            }
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let ((ok, bytes), s) = timed(|| judge_cell(outcome, expected.get(i), t, op));
                out.cell_secs.push(s);
                out.cells += 1;
                out.failed += u64::from(!ok);
                out.cert_bytes += bytes;
            }
        })
    });
    out.wall = wall;
    out
}

/// What one client of the measured run saw.
struct ClientRun {
    laps: Vec<LapResult>,
    /// Set-up seconds, sampled before every lap.
    setup_s: f64,
}

/// One client of the closed loop: warm up, then run laps back to back.
fn client(seconds: u64) -> ClientRun {
    let mut clock = SetupClock::new(setup);
    let expected = clock.sample();
    let mut tracer = Tracer::off();
    warm_up(seconds, || {
        lap(&expected, &mut tracer, 0);
    });
    let budget = Budget::secs(seconds as f64);
    let mut laps = Vec::new();
    while budget.another(laps.len()) {
        clock.sample();
        laps.push(lap(&expected, &mut tracer, laps.len() as u64));
    }
    ClientRun {
        laps,
        setup_s: clock.median(),
    }
}

/// One lap on every client at once.
fn concurrent_lap(expected: &[Expected], clients: usize) -> Vec<LapResult> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| lap(expected, &mut Tracer::off(), 0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("certify client panicked"))
            .collect()
    })
}

/// The measured run: a closed loop with one client per core, each
/// running laps back to back. A lap's wall time is the mean over the
/// clients of each client's fastest lap (see [`crate::util::fastest`]),
/// so the figure does not hinge on which core a single client happened
/// to run on; `setup_s` is the mean of the clients' median set-ups.
/// Memory laps, one lap on every client at once, follow the timed ones.
pub fn measure(seconds: u64) -> Report {
    let expected = setup();
    let width = crate::sweep::threads();
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..width).map(|_| s.spawn(|| client(seconds))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("certify client panicked"))
            .collect()
    });
    let mut report = Report::default();
    let (mut cells, mut walls) = (Vec::new(), Vec::new());
    for c in &clients {
        walls.push(fastest(&c.laps.iter().map(|l| l.wall).collect::<Vec<_>>()));
        for l in &c.laps {
            cells.extend_from_slice(&l.cell_secs);
            report.tally(expected.len().max(l.cells as usize) as u64, l.failed);
        }
    }
    let peak = resident_peak_mb(|| {
        for l in concurrent_lap(&expected, width) {
            report.tally(expected.len().max(l.cells as usize) as u64, l.failed);
        }
    });
    let n = clients.len() as f64;
    let wall = walls.iter().sum::<f64>() / n;
    report.set("peak_rss_mb", peak);
    report.set(
        "setup_s",
        clients.iter().map(|c| c.setup_s).sum::<f64>() / n,
    );
    report.set("wall_s", wall);
    report.set("ops_per_s", (clients.len() * expected.len()) as f64 / wall);
    report.set("latency_p50_ms", quantile(&cells, 0.5) * 1e3);
    report.set("latency_p99_ms", quantile(&cells, 0.99) * 1e3);
    report.spec = LEDGER.to_string();
    report
}

/// The traced run: traced laps alternating with untraced ones.
pub fn traced(seconds: u64) -> (Report, Tracer) {
    let expected = setup();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    warm_up(seconds, || {
        lap(&expected, &mut off, 0);
    });
    let budget = Budget::secs(seconds as f64);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut report = Report::default();
    while budget.another(traced.len()) {
        for (t, walls) in [(&mut off, &mut plain), (&mut tracer, &mut traced)] {
            let l = lap(&expected, t, walls.len() as u64);
            report.tally(expected.len().max(l.cells as usize) as u64, l.failed);
            walls.push(l);
        }
    }
    let laps = traced.len() as f64;
    let selfs = tracer.self_secs();
    let per_lap = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / laps;
    report.set("verify.search_s", per_lap("verify.search"));
    report.set("verify.json_s", per_lap("verify.json"));
    report.set("verify.check_s", per_lap("verify.check"));
    let cells: u64 = traced.iter().map(|l| l.cells).sum();
    let failed: u64 = traced.iter().map(|l| l.failed).sum();
    let bytes: u64 = traced.iter().map(|l| l.cert_bytes).sum();
    report.set("verify.cert_bytes", bytes as f64 / cells.max(1) as f64);
    report.set(
        "verify.accept_ratio",
        (cells - failed.min(cells)) as f64 / cells.max(1) as f64,
    );
    let walls = |laps: &[LapResult]| median(&laps.iter().map(|l| l.wall).collect::<Vec<_>>());
    report.set("trace_overhead", walls(&traced) / walls(&plain));
    report.set("trace.unattributed_share", tracer.unattributed_share());
    report.set("fail_frac", report.failed as f64 / report.attempted as f64);
    report.spec = LEDGER.to_string();
    (report, tracer)
}
