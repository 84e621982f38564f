//! The `sessions` workload: an open loop, in simulated rounds, against
//! a [`SessionServer`] with one shard per core.
//!
//! Each round the single driver thread submits that round's arrivals
//! (2048 sessions from [`ChurnSpec::session_at`] over the three-template
//! churn mix, 5% of them walking away after two rounds), steps the
//! server one round, polls a fixed sample of in-flight ids, and drains
//! the finished sessions. Arrivals never wait for completions, so the
//! offered load is fixed; it sits below saturation, so the queue stays
//! bounded. One operation is one session. A session's host latency runs
//! from the start of the round it was due to be submitted in to the end
//! of the `drain_completed` call that returned its outcome.
//!
//! The lap's outcome digest must equal [`run_churn_isolated`]'s on the
//! same spec, and every `Exhausted` session is a failure.

use crate::report::Report;
use crate::sweep::{set_phase_shares, PROF_PERIOD};
use crate::trace::Tracer;
use crate::util::{
    mean, median, quantile, resident_peak_mb, splitmix, warm_up, Budget, SetupClock,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_protocols::{FamilySpec, ResendPolicy};
use stp_sim::sessions::{
    run_churn_isolated, run_churn_profiled, ChurnSpec, ServerSpec, SessionFate, SessionId,
    SessionOutcome, SessionServer, SessionSpec, SessionStatus, SessionTemplate,
};
use stp_sim::PhaseProfiler;

/// Sessions submitted per round: the offered load.
pub const ARRIVALS_PER_ROUND: u64 = 2_048;
/// Rounds with arrivals per lap.
pub const ARRIVAL_ROUNDS: u64 = 36;
/// Slots per shard.
pub const CAPACITY_PER_SHARD: usize = 4_096;
/// Ids polled per round: the first this many of every round's arrivals,
/// each polled every round until it is done.
pub const POLL_SAMPLE: usize = 16;
/// Rounds a lap may run past its last arrivals before the sessions
/// still in flight count as failed.
const DRAIN_LIMIT: u64 = 10_000;

/// The churn spec one lap runs: `bench_sessions`' three-template mix,
/// with the seed drawn from `--seed`. The 16-step quantum retires most
/// sessions in the round they arrive, so the median host latency lies
/// inside one round's cluster; at 8 steps it sat on the edge between
/// the one-round and two-round clusters and jumped between them.
pub fn churn_spec(seed: u64, shards: u16) -> ChurnSpec {
    ChurnSpec {
        sessions: ARRIVALS_PER_ROUND * ARRIVAL_ROUNDS,
        arrivals_per_round: ARRIVALS_PER_ROUND,
        server: ServerSpec {
            shards,
            capacity_per_shard: CAPACITY_PER_SHARD,
            quantum: 16,
            watchdog: None,
        },
        max_steps: 2_000,
        seed: splitmix(seed, 0),
        disconnect_rate: 0.05,
        disconnect_after: 2,
        mix: vec![
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 3,
                    policy: ResendPolicy::Once,
                },
                channel: ChannelSpec::Dup,
                scheduler: SchedulerSpec::DupStorm { p_deliver: 0.9 },
            },
            SessionTemplate {
                family: FamilySpec::Abp {
                    domain: 2,
                    max_len: 3,
                },
                channel: ChannelSpec::LossyFifo,
                scheduler: SchedulerSpec::Random { p_deliver: 0.8 },
            },
            SessionTemplate {
                family: FamilySpec::Tight {
                    d: 4,
                    policy: ResendPolicy::EveryTick,
                },
                channel: ChannelSpec::Del,
                scheduler: SchedulerSpec::Random { p_deliver: 0.7 },
            },
        ],
    }
}

/// A lap ready to run: the generated arrivals, round by round, and an
/// empty server.
pub struct Lap {
    /// Session specs, one vector per arrival round.
    pub arrivals: Vec<Vec<SessionSpec>>,
    /// The server under test.
    pub server: SessionServer,
}

/// Builds one lap: the set-up the `setup_s` metric times.
pub fn setup(spec: &ChurnSpec, fleet: bool) -> Lap {
    let claimed = spec.claimed_inputs();
    let arrivals = (0..ARRIVAL_ROUNDS)
        .map(|r| {
            (r * ARRIVALS_PER_ROUND..(r + 1) * ARRIVALS_PER_ROUND)
                .map(|k| spec.session_at(k, &claimed))
                .collect()
        })
        .collect();
    let server = if fleet {
        SessionServer::with_fleet(&spec.server)
    } else {
        SessionServer::new(&spec.server)
    };
    Lap { arrivals, server }
}

/// `run_churn`'s per-session digest, recomputed from the drained
/// outcome; summed (wrapping) it is order-insensitive.
pub fn outcome_digest(o: &SessionOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    (o.fate == SessionFate::Completed).hash(&mut h);
    (o.fate == SessionFate::Disconnected).hash(&mut h);
    o.stats.steps.hash(&mut h);
    o.stats.sends_s.hash(&mut h);
    o.stats.sends_r.hash(&mut h);
    o.stats.deliveries_r.hash(&mut h);
    o.stats.deliveries_s.hash(&mut h);
    o.stats.drops.hash(&mut h);
    o.stats.written.hash(&mut h);
    o.stats.input_len.hash(&mut h);
    o.stats.safe.hash(&mut h);
    o.stats.write_steps.hash(&mut h);
    h.finish()
}

/// What one lap produced.
#[derive(Debug, Default)]
pub struct LapResult {
    /// Wall seconds of the driver loop.
    pub wall: f64,
    /// Sessions drained.
    pub drained: u64,
    /// Sessions that ran out of step budget.
    pub exhausted: u64,
    /// Sum of per-session digests.
    pub digest: u64,
    /// Host latency of each completed session, in seconds.
    pub latency: Vec<f64>,
    /// Submit-to-retire latency of each completed session, in rounds.
    pub latency_rounds: Vec<f64>,
    /// Rounds each sampled session waited in the queue.
    pub queue_wait: Vec<f64>,
    /// Ids polled.
    pub polls: u64,
    /// Rounds run.
    pub rounds: u64,
    /// Active sessions after each round (traced runs only).
    pub active: Vec<f64>,
    /// Fleet recycle hits over admissions (fleet-backed servers only).
    pub recycle_hit_ratio: Option<f64>,
    /// Protocol steps, sends and drops summed over drained sessions.
    pub steps: u64,
    /// Sends in both directions.
    pub sends: u64,
    /// Messages dropped or expired.
    pub drops: u64,
}

/// Runs the open loop over `lap`'s arrivals until every session is
/// drained.
pub fn drive(lap: Lap, tracer: &mut Tracer, op: u64) -> LapResult {
    let Lap {
        mut arrivals,
        server,
    } = lap;
    let total = ARRIVALS_PER_ROUND * ARRIVAL_ROUNDS;
    let mut out = LapResult::default();
    let mut due: Vec<Instant> = Vec::new();
    let mut watch: Vec<(SessionId, u64, bool)> = Vec::new();
    let start = Instant::now();
    tracer.span("sessions.lap", op, |t| {
        let mut round = 0u64;
        while out.drained < total && round < ARRIVAL_ROUNDS + DRAIN_LIMIT {
            due.push(Instant::now());
            if let Some(batch) = arrivals.get_mut(round as usize) {
                t.span("sim.sessions.submit", round, |_| {
                    for (i, spec) in batch.drain(..).enumerate() {
                        let id = server.submit(spec);
                        if i < POLL_SAMPLE {
                            watch.push((id, round, false));
                        }
                    }
                });
            }
            t.span("sim.sessions.step_round", round, |_| server.step_rounds(1));
            t.span("sim.sessions.poll", round, |_| {
                out.polls += watch.len() as u64;
                watch.retain_mut(|(id, submitted, admitted)| match server.poll(*id) {
                    SessionStatus::Queued => true,
                    SessionStatus::Running { .. } => {
                        if !*admitted {
                            *admitted = true;
                            out.queue_wait.push((round - *submitted) as f64);
                        }
                        true
                    }
                    _ => {
                        if !*admitted {
                            out.queue_wait.push((round - *submitted) as f64);
                        }
                        false
                    }
                });
            });
            let drained = t.span("sim.sessions.drain", round, |_| server.drain_completed());
            let now = Instant::now();
            for o in &drained {
                out.drained += 1;
                out.digest = out.digest.wrapping_add(outcome_digest(o));
                out.steps += o.stats.steps;
                out.sends += (o.stats.sends_s + o.stats.sends_r) as u64;
                out.drops += o.stats.drops as u64;
                match o.fate {
                    SessionFate::Completed => {
                        let submitted = due[o.submitted_round as usize];
                        out.latency.push((now - submitted).as_secs_f64());
                        out.latency_rounds.push(o.latency_rounds() as f64);
                    }
                    SessionFate::Exhausted => out.exhausted += 1,
                    SessionFate::Disconnected => {}
                }
            }
            if t.is_on() {
                out.active.push(server.active_sessions() as f64);
            }
            round += 1;
        }
        out.rounds = round;
    });
    out.wall = start.elapsed().as_secs_f64();
    out.recycle_hit_ratio = server.snapshot().map(|s| {
        let stats = s.stats();
        stats.recycle_hits as f64 / (stats.recycle_hits + stats.recycle_misses).max(1) as f64
    });
    out
}

/// Tallies a lap against the reference digest: a digest mismatch fails
/// every session, and every exhausted or undrained session fails.
fn check(lap: &LapResult, reference: u64, report: &mut Report) {
    let total = ARRIVALS_PER_ROUND * ARRIVAL_ROUNDS;
    let failed = if lap.digest != reference || lap.drained != total {
        total
    } else {
        lap.exhausted
    };
    report.tally(total, failed);
}

/// One shard per core the process may use.
pub fn shards() -> u16 {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(usize::from(u16::MAX)) as u16)
}

/// The measured run. Its timings come from the fastest lap (see
/// [`crate::util::fastest`]); set-up is timed before every lap and its
/// median reported; memory laps follow the timed ones.
pub fn measure(seed: u64, seconds: u64) -> Report {
    let spec = churn_spec(seed, shards());
    let reference = run_churn_isolated(&spec, None).digest;
    let mut tracer = Tracer::off();
    warm_up(seconds, || {
        drive(setup(&spec, false), &mut tracer, 0);
    });
    let mut clock = SetupClock::new(|| setup(&spec, false));
    let budget = Budget::secs(seconds as f64);
    let mut report = Report::default();
    let mut laps = 0;
    let mut quietest: Option<LapResult> = None;
    while budget.another(laps) {
        let lap = clock.sample();
        let result = drive(lap, &mut tracer, laps as u64);
        check(&result, reference, &mut report);
        laps += 1;
        if quietest.as_ref().is_none_or(|q| result.wall < q.wall) {
            quietest = Some(result);
        }
    }
    let lap = quietest.expect("the budget runs at least one lap");
    let peak = resident_peak_mb(|| {
        let lap = drive(setup(&spec, false), &mut tracer, 0);
        check(&lap, reference, &mut report);
    });
    report.set("peak_rss_mb", peak);
    report.set("setup_s", clock.median());
    report.set("wall_s", lap.wall);
    report.set("ops_per_s", spec.sessions as f64 / lap.wall);
    report.set("latency_p50_ms", quantile(&lap.latency, 0.5) * 1e3);
    report.set("latency_p99_ms", quantile(&lap.latency, 0.99) * 1e3);
    report.spec = format!("{spec:?}");
    report
}

/// The traced run: traced laps (fleet metrics on, spans around every
/// server call) alternating with untraced ones, then one profiled churn
/// run on the same spec for the phase shares.
pub fn traced(seed: u64, seconds: u64) -> (Report, Tracer) {
    let spec = churn_spec(seed, shards());
    let reference = run_churn_isolated(&spec, None).digest;
    let mut report = Report::default();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    warm_up(seconds, || {
        drive(setup(&spec, false), &mut off, 0);
    });
    let budget = Budget::secs(seconds as f64 * 0.7);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut laps = Vec::new();
    while budget.another(laps.len()) {
        let plain = drive(setup(&spec, false), &mut off, laps.len() as u64);
        plain_walls.push(plain.wall);
        check(&plain, reference, &mut report);
        let lap = drive(setup(&spec, true), &mut tracer, laps.len() as u64);
        traced_walls.push(lap.wall);
        check(&lap, reference, &mut report);
        laps.push(lap);
    }
    let sum = |f: &dyn Fn(&LapResult) -> f64| laps.iter().map(f).sum::<f64>();
    let cat = |f: &dyn Fn(&LapResult) -> &Vec<f64>| {
        laps.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let submitted = spec.sessions as f64 * laps.len() as f64;
    report.set(
        "sim.sessions.submit_us",
        tracer.total_secs("sim.sessions.submit") / submitted * 1e6,
    );
    report.set(
        "sim.sessions.poll_us",
        tracer.total_secs("sim.sessions.poll") / sum(&|l| l.polls as f64) * 1e6,
    );
    let rounds = sum(&|l| l.rounds as f64);
    report.set(
        "sim.sessions.drain_us",
        tracer.total_secs("sim.sessions.drain") / rounds * 1e6,
    );
    let step = tracer.durations("sim.sessions.step_round");
    report.set("sim.sessions.step_round_ms_p50", quantile(&step, 0.5) * 1e3);
    report.set(
        "sim.sessions.step_round_ms_p99",
        quantile(&step, 0.99) * 1e3,
    );
    report.set(
        "sim.sessions.queue_wait_rounds_p99",
        quantile(&cat(&|l| &l.queue_wait), 0.99),
    );
    let recycle: Vec<f64> = laps.iter().filter_map(|l| l.recycle_hit_ratio).collect();
    report.set("sim.sessions.recycle_hit_ratio", mean(&recycle));
    report.set("sim.sessions.active_mean", mean(&cat(&|l| &l.active)));
    report.set(
        "sim_latency_p99_rounds",
        quantile(&cat(&|l| &l.latency_rounds), 0.99),
    );
    let steps = sum(&|l| l.steps as f64);
    report.set(
        "sim.kernel.steps_per_s",
        steps / tracer.total_secs("sim.sessions.step_round"),
    );
    report.set("sim.kernel.steps_per_run", steps / submitted);
    report.set(
        "channel.sends_per_run",
        sum(&|l| l.sends as f64) / submitted,
    );
    report.set(
        "channel.drops_per_run",
        sum(&|l| l.drops as f64) / submitted,
    );
    report.set(
        "trace_overhead",
        median(&traced_walls) / median(&plain_walls),
    );
    report.set("trace.unattributed_share", tracer.unattributed_share());

    let prof = Arc::new(PhaseProfiler::new(PROF_PERIOD));
    let profiled = run_churn_profiled(&spec, None, &prof);
    report.tally(
        spec.sessions,
        if profiled.digest == reference {
            0
        } else {
            spec.sessions
        },
    );
    set_phase_shares(
        &mut report,
        &prof.report("perfbench", "sessions"),
        &[
            ("sim.sessions.admission_share", "admission"),
            ("sim.sessions.retire_share", "retire"),
        ],
    );
    report.set("fail_frac", report.failed as f64 / report.attempted as f64);
    report.spec = format!("{spec:?}");
    (report, tracer)
}
