//! Parity: the session store's tight loop against the legacy sweep path.
//!
//! The contract the tentpole rests on: a [`SessionEngine`] stepping a
//! session to retirement produces [`RunStats`] *bit-identical* to the
//! pooled-world [`SweepEngine`] running the same (family, input, channel,
//! scheduler, seed) cell. The grid here is 32 seeds × {dup, del, timed}
//! × {tight, abp, stabilizing} under two adversaries, and every cell is
//! compared twice: once on virgin slots, and again on a second lap
//! through the same (deliberately small) engine so every slot has been
//! recycled — reset-in-place provisioning must not leak any state from
//! the first lap. A fault-campaign grid does the same for the
//! corruption branch: scrambles, desyncs and forged messages.

use std::collections::HashSet;
use stp_core::data::DataSeq;
use stp_core::event::{CorruptionKind, Event};
use stp_protocols::ResendPolicy;
use stp_sim::prelude::*;

const SEEDS: u64 = 32;
const MAX_STEPS: u64 = 2_000;

fn families() -> Vec<(&'static str, FamilySpec)> {
    vec![
        (
            "tight",
            FamilySpec::Tight {
                d: 3,
                policy: ResendPolicy::Once,
            },
        ),
        (
            "abp",
            FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
        ),
        ("stabilizing", FamilySpec::Stabilizing { d: 2, max_len: 3 }),
    ]
}

fn channels() -> Vec<(&'static str, ChannelSpec)> {
    vec![
        ("dup", ChannelSpec::Dup),
        ("del", ChannelSpec::Del),
        ("timed", ChannelSpec::Timed { deadline: 4 }),
    ]
}

fn sweep_spec(channel: ChannelSpec) -> SweepSpec {
    SweepSpec::new(channel, SchedulerSpec::DupStorm { p_deliver: 0.9 })
        .also_scheduler(SchedulerSpec::Random { p_deliver: 0.7 })
        .max_steps(MAX_STEPS)
        .seeds(0..SEEDS)
        .trace_mode(TraceMode::Off)
        .threads(1)
}

// Runs every spec through `engine` (in submit order) and returns the
// retired stats, serial-ordered to match the sweep's grid order.
fn engine_lap(engine: &mut SessionEngine, specs: &[SessionSpec]) -> Vec<RunStats> {
    let serials: Vec<u64> = specs.iter().map(|s| engine.submit(s.clone())).collect();
    assert!(
        engine.run_until_idle(10 * MAX_STEPS * specs.len() as u64),
        "grid must drain"
    );
    let stats = serials
        .iter()
        .map(|&serial| match engine.poll(serial) {
            SessionStatus::Done { outcome } => outcome.stats.clone(),
            other => panic!("serial {serial} did not retire: {other:?}"),
        })
        .collect();
    engine.drain_completed();
    stats
}

#[test]
fn session_store_matches_sweep_engine_bit_for_bit() {
    for (fname, family) in families() {
        for (cname, channel) in channels() {
            let sweep = sweep_spec(channel);
            let outcome = SweepEngine::new(sweep.clone()).run_serial(&*family.build());
            let specs = sweep.session_specs(&family);
            assert_eq!(
                outcome.runs.len(),
                specs.len(),
                "{fname}/{cname}: spec expansion matches the grid"
            );

            // Capacity far below the grid size: the first lap already
            // recycles slots hard, the second lap reuses every slot.
            let mut engine = SessionEngine::new(0, 8, 16);
            let first = engine_lap(&mut engine, &specs);
            assert!(
                engine.slots_recycled() > 0,
                "{fname}/{cname}: an 8-slot engine must recycle"
            );
            for (i, (got, run)) in first.iter().zip(&outcome.runs).enumerate() {
                assert_eq!(
                    got, &run.stats,
                    "{fname}/{cname}: lap 1 cell {i} (seed {}, input {:?})",
                    run.seed, run.input
                );
            }

            let second = engine_lap(&mut engine, &specs);
            assert_eq!(
                first, second,
                "{fname}/{cname}: recycled slots replay identically"
            );
        }
    }
}

#[test]
fn sharded_server_matches_sweep_engine() {
    // Same contract through the public API: specs scattered over a
    // 4-shard server retire with the same stats as the serial sweep.
    let (_, family) = families().remove(0);
    let sweep = sweep_spec(ChannelSpec::Del);
    let outcome = SweepEngine::new(sweep.clone()).run_serial(&*family.build());
    let specs = sweep.session_specs(&family);

    let server = SessionServer::new(&ServerSpec {
        shards: 4,
        capacity_per_shard: 8,
        quantum: 16,
        watchdog: None,
    });
    let ids: Vec<SessionId> = specs.iter().map(|s| server.submit(s.clone())).collect();
    assert!(
        server.run_until_idle(10 * MAX_STEPS * specs.len() as u64),
        "grid must drain"
    );
    for (i, (id, run)) in ids.iter().zip(&outcome.runs).enumerate() {
        match server.poll(*id) {
            SessionStatus::Done { outcome: got } => {
                assert_eq!(got.stats, run.stats, "cell {i} (seed {})", run.seed);
            }
            other => panic!("cell {i} did not retire: {other:?}"),
        }
    }
    assert_eq!(server.drain_completed().len(), specs.len());
}

// A fault campaign striking every corruption hook the step kernel has:
// state scrambles and counter desyncs on both processors, and forged
// messages onto both directions of the channel.
fn corruption_campaign() -> SchedulerSpec {
    let clause = |action, period, offset, max_firings| FaultClause {
        action,
        trigger: Trigger::EveryK { period, offset },
        direction: Direction::Both,
        duration: 1,
        max_firings,
    };
    SchedulerSpec::Campaign {
        inner: Box::new(SchedulerSpec::DupStorm { p_deliver: 0.9 }),
        plan: FaultPlan::new(11)
            .with(clause(FaultAction::StateScramble, 13, 3, 4))
            .with(clause(FaultAction::CounterDesync, 17, 5, 4))
            .with(clause(FaultAction::InjectNoise, 7, 2, 6)),
    }
}

#[test]
fn session_store_matches_sweep_engine_under_corruption_campaigns() {
    // The campaign must actually land strikes of every kind, or the
    // parity below would not cover the corruption branch.
    let (_, stabilizing) = families().remove(2);
    let input = DataSeq::from_indices([1, 0, 1]);
    let family = stabilizing.build();
    let mut world = World::builder(input.clone())
        .sender(family.sender_for(&input))
        .receiver(family.receiver())
        .channel(ChannelSpec::Dup.build())
        .scheduler(corruption_campaign().build(0))
        .build()
        .expect("all components supplied");
    world.run(MAX_STEPS);
    let kinds: HashSet<CorruptionKind> = world
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::Corruption { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds.len(), 6, "strikes landed: {kinds:?}");

    for (fname, family) in families() {
        for (cname, channel) in [("dup", ChannelSpec::Dup), ("del", ChannelSpec::Del)] {
            let sweep = SweepSpec::new(channel, corruption_campaign())
                .max_steps(MAX_STEPS)
                .seeds(0..SEEDS)
                .trace_mode(TraceMode::Off)
                .threads(1);
            let outcome = SweepEngine::new(sweep.clone()).run_serial(&*family.build());
            let specs = sweep.session_specs(&family);
            assert_eq!(outcome.runs.len(), specs.len());

            let mut engine = SessionEngine::new(0, 8, 16);
            let first = engine_lap(&mut engine, &specs);
            assert!(engine.slots_recycled() > 0);
            for (i, (got, run)) in first.iter().zip(&outcome.runs).enumerate() {
                assert_eq!(
                    got, &run.stats,
                    "{fname}/{cname}: lap 1 cell {i} (seed {}, input {:?})",
                    run.seed, run.input
                );
            }
            let second = engine_lap(&mut engine, &specs);
            assert_eq!(
                first, second,
                "{fname}/{cname}: recycled slots replay identically"
            );
        }
    }
}
