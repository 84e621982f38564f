//! The one global step of the paper's model (§2.2), shared by every
//! executor.
//!
//! [`World`](crate::World) and the session store both advance a run by
//! calling [`step`]. What differs between them is only what watches the
//! step: an [`EventSink`] receives the events (the world's trace, probes
//! and message provenance), and a [`StepObs`] receives the profiler's
//! phase marks. The session store passes [`NoEvents`] and
//! [`NoObs`](crate::prof::NoObs), whose methods are empty and whose
//! flags are constant `false`, so monomorphization deletes every event,
//! probe and provenance branch from its hot loop.
//!
//! The run's aggregate counters are a [`RunStats`] maintained in place,
//! so the statistics an executor reports are the counters themselves.

use crate::metrics::RunStats;
use crate::prof::{Phase, StepObs};
use std::ops::Range;
use stp_channel::{Channel, Scheduler};
use stp_core::alphabet::{RMsg, SMsg};
use stp_core::data::DataSeq;
use stp_core::event::{CorruptionKind, Event, MsgEvent, MsgId, ProcessId, Step};
use stp_core::proto::{Receiver, ReceiverEvent, Sender, SenderEvent};

/// The four machines one step drives, borrowed from whatever owns them.
pub(crate) struct Parts<'a> {
    pub(crate) sender: &'a mut dyn Sender,
    pub(crate) receiver: &'a mut dyn Receiver,
    pub(crate) channel: &'a mut dyn Channel,
    pub(crate) scheduler: &'a mut dyn Scheduler,
}

/// Where a step's events go.
pub(crate) trait EventSink {
    /// Whether events are wanted at all. `false` skips event
    /// construction, the tape-read scan and the end-of-step hook.
    fn records(&self) -> bool;
    /// Whether per-message provenance ids are tracked.
    fn provenance(&self) -> bool;
    /// Whether provenance is on and the channel can lose copies, so the
    /// step keeps lost-copy ids to check the expiry drain against.
    fn tracks_loss(&self) -> bool;
    /// One event of step `step`, in execution order.
    fn record(&mut self, step: Step, event: Event);
    /// One message-lifecycle event of step `step`.
    fn msg_event(&mut self, step: Step, event: MsgEvent);
    /// The next dense per-run message id.
    fn next_msg_id(&mut self) -> MsgId;
    /// The tape positions read since the last call, given the sender's
    /// running read count `reads`.
    fn unseen_reads(&mut self, reads: usize) -> Range<usize>;
    /// Step `step` has finished.
    fn end_step(&mut self, step: Step);
}

/// The sink that wants nothing.
pub(crate) struct NoEvents;

impl EventSink for NoEvents {
    #[inline(always)]
    fn records(&self) -> bool {
        false
    }
    #[inline(always)]
    fn provenance(&self) -> bool {
        false
    }
    #[inline(always)]
    fn tracks_loss(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _step: Step, _event: Event) {}
    #[inline(always)]
    fn msg_event(&mut self, _step: Step, _event: MsgEvent) {}
    fn next_msg_id(&mut self) -> MsgId {
        unreachable!("provenance is off")
    }
    #[inline(always)]
    fn unseen_reads(&mut self, _reads: usize) -> Range<usize> {
        0..0
    }
    #[inline(always)]
    fn end_step(&mut self, _step: Step) {}
}

/// Buffers a step fills and empties again, kept by the caller so that
/// stepping allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    expired_r: Vec<SMsg>,
    expired_s: Vec<RMsg>,
    expired_ids_r: Vec<Option<MsgId>>,
    expired_ids_s: Vec<Option<MsgId>>,
    // Ids the adversary deleted this step, kept (when the sink tracks
    // loss) to assert that the expiry drain never re-surfaces a copy
    // already reported dropped in the same step.
    deleted_ids: Vec<MsgId>,
}

/// The counters of a run over `input_len` items that has not stepped
/// yet.
pub(crate) fn counters(input_len: usize) -> RunStats {
    RunStats {
        steps: 0,
        sends_s: 0,
        sends_r: 0,
        deliveries_r: 0,
        deliveries_s: 0,
        drops: 0,
        written: 0,
        input_len,
        safe: true,
        write_steps: Vec::new(),
    }
}

/// Rewinds `c` for a fresh run over `input_len` items, keeping the
/// allocation of `write_steps`.
pub(crate) fn reset(c: &mut RunStats, input_len: usize) {
    let mut write_steps = std::mem::take(&mut c.write_steps);
    write_steps.clear();
    *c = RunStats {
        write_steps,
        ..counters(input_len)
    };
}

/// The completion rule: the sender reports done and the output covers
/// the whole input. Executors check it before each step, so a run that
/// is complete on arrival takes no step.
pub(crate) fn is_complete(sender: &dyn Sender, c: &RunStats) -> bool {
    sender.is_done() && c.written >= c.input_len
}

/// Executes one global step of `parts` over `input`, advancing `c`.
///
/// The scheduler decides deletions and at most one delivery per process;
/// deletions apply first, then corruption strikes, then deliveries; each
/// processor handles its event and its outputs are applied after the
/// deliveries, so nothing is delivered in the step it was sent; then the
/// channel's clock ticks and the copies it expired count as drops.
/// `deliver`/`expire` name the channel kind's phases so the profiler
/// splits channel cost per kind.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn step<O: StepObs, E: EventSink>(
    parts: Parts<'_>,
    c: &mut RunStats,
    input: &DataSeq,
    scratch: &mut Scratch,
    obs: &mut O,
    sink: &mut E,
    deliver: Phase,
    expire: Phase,
) {
    let Parts {
        sender,
        receiver,
        channel,
        scheduler,
    } = parts;
    obs.mark(Phase::SchedulerDecide);
    let t = c.steps;
    scheduler.note_progress(t, c.written);
    let decision = scheduler.decide(t, &*channel);

    // Adversarial deletions first (they model in-transit loss).
    obs.mark(deliver);
    for &msg in &decision.delete_to_r {
        if channel.delete_to_r(msg).is_ok() {
            c.drops += 1;
            let to = ProcessId::Receiver;
            sink.record(t, Event::ChannelDrop { to, msg: msg.0 });
            if sink.provenance() {
                let id = channel.take_deleted_id_to_r();
                scratch.deleted_ids.extend(id);
                sink.msg_event(t, MsgEvent::Dropped { id, to, msg: msg.0 });
            }
        }
    }
    for &msg in &decision.delete_to_s {
        if channel.delete_to_s(msg).is_ok() {
            c.drops += 1;
            let to = ProcessId::Sender;
            sink.record(t, Event::ChannelDrop { to, msg: msg.0 });
            if sink.provenance() {
                let id = channel.take_deleted_id_to_s();
                scratch.deleted_ids.extend(id);
                sink.msg_event(t, MsgEvent::Dropped { id, to, msg: msg.0 });
            }
        }
    }

    // Transient corruption strikes land between loss and delivery: state
    // scrambles and counter desyncs call the processors' opt-in hooks (a
    // protocol that does not implement them absorbs the strike), and
    // injections forge a message onto the channel as if the peer had
    // sent it, the payload reduced modulo the victim's alphabet. A strike
    // is recorded only when it took effect, so a scripted replay
    // re-applies exactly the strikes that mattered. Forged copies are not
    // recorded as sends — that would misattribute them to a processor and
    // double-send on replay — but they do get provenance ids.
    for cmd in &decision.corruptions {
        let applied = match cmd.kind {
            CorruptionKind::ScrambleSender => sender.scramble(cmd.draw),
            CorruptionKind::ScrambleReceiver => receiver.scramble(cmd.draw),
            CorruptionKind::DesyncSender => sender.desync(cmd.draw),
            CorruptionKind::DesyncReceiver => receiver.desync(cmd.draw),
            CorruptionKind::InjectToR => {
                let size = sender.alphabet().size();
                size != 0 && {
                    let m = SMsg((cmd.draw % u64::from(size)) as u16);
                    channel.send_s(m);
                    if sink.provenance() {
                        note_sent(sink, t, ProcessId::Receiver, m.0, |id| {
                            channel.note_send_s(m, id)
                        });
                    }
                    true
                }
            }
            CorruptionKind::InjectToS => {
                let size = receiver.alphabet().size();
                size != 0 && {
                    let m = RMsg((cmd.draw % u64::from(size)) as u16);
                    channel.send_r(m);
                    if sink.provenance() {
                        note_sent(sink, t, ProcessId::Sender, m.0, |id| {
                            channel.note_send_r(m, id)
                        });
                    }
                    true
                }
            }
        };
        if applied {
            let (kind, draw) = (cmd.kind, cmd.draw);
            sink.record(t, Event::Corruption { kind, draw });
        }
    }

    // Deliveries (against the post-deletion state; infeasible choices
    // are ignored, which keeps adversaries honest without crashing).
    let delivered_to_s = decision
        .deliver_to_s
        .filter(|m| channel.deliver_to_s(*m).is_ok());
    if let Some(m) = delivered_to_s {
        c.deliveries_s += 1;
        sink.record(t, Event::DeliverToS { msg: m });
        if sink.provenance() {
            let id = channel.take_delivered_id_to_s();
            let to = ProcessId::Sender;
            sink.msg_event(t, MsgEvent::Delivered { id, to, msg: m.0 });
        }
    }
    let delivered_to_r = decision
        .deliver_to_r
        .filter(|m| channel.deliver_to_r(*m).is_ok());
    if let Some(m) = delivered_to_r {
        c.deliveries_r += 1;
        sink.record(t, Event::DeliverToR { msg: m });
        if sink.provenance() {
            let id = channel.take_delivered_id_to_r();
            let to = ProcessId::Receiver;
            sink.msg_event(t, MsgEvent::Delivered { id, to, msg: m.0 });
        }
    }

    // Processor steps.
    obs.mark(Phase::SenderStep);
    let s_event = match (t, delivered_to_s) {
        (0, _) => SenderEvent::Init,
        (_, Some(m)) => SenderEvent::Deliver(m),
        (_, None) => SenderEvent::Tick,
    };
    let r_event = match (t, delivered_to_r) {
        (0, _) => ReceiverEvent::Init,
        (_, Some(m)) => ReceiverEvent::Deliver(m),
        (_, None) => ReceiverEvent::Tick,
    };
    let s_out = sender.on_event(s_event);
    obs.mark(Phase::ReceiverStep);
    let r_out = receiver.on_event(r_event);

    // Record the tape reads the sender performed during this step.
    if sink.records() {
        obs.mark(Phase::SenderStep);
        for pos in sink.unseen_reads(sender.reads()) {
            if let Some(item) = input.get(pos) {
                sink.record(t, Event::Read { item, pos });
            }
        }
        obs.mark(Phase::ReceiverStep);
    }

    // Apply outputs after deliveries: sends become deliverable next step
    // at the earliest.
    for item in r_out.write {
        // Positions are assigned consecutively, so safety reduces to
        // "each written item matches the input at its position" —
        // exactly what `require::check_safety` verifies on full traces.
        c.safe &= input.get(c.written) == Some(item);
        c.write_steps.push(t);
        sink.record(
            t,
            Event::Write {
                item,
                pos: c.written,
            },
        );
        c.written += 1;
    }
    obs.mark(deliver);
    for m in s_out.send {
        channel.send_s(m);
        c.sends_s += 1;
        sink.record(t, Event::SendS { msg: m });
        if sink.provenance() {
            note_sent(sink, t, ProcessId::Receiver, m.0, |id| {
                channel.note_send_s(m, id)
            });
        }
    }
    for m in r_out.send {
        channel.send_r(m);
        c.sends_r += 1;
        sink.record(t, Event::SendR { msg: m });
        if sink.provenance() {
            note_sent(sink, t, ProcessId::Sender, m.0, |id| {
                channel.note_send_r(m, id)
            });
        }
    }

    // Channel clock (timed channels expire messages here), then the
    // expiry drain: copies the channel itself destroyed this step count
    // as drops exactly like adversarial loss, but are evented as
    // `ChannelExpire` so replay does not re-inject them.
    obs.mark(expire);
    channel.tick();
    channel.take_expirations(&mut scratch.expired_r, &mut scratch.expired_s);
    if sink.tracks_loss() {
        channel.take_expiration_ids(&mut scratch.expired_ids_r, &mut scratch.expired_ids_s);
        // A copy the adversary already deleted this step left the
        // channel then — it must never re-surface through the expiry
        // drain, or drops would be double-counted.
        debug_assert!(
            scratch
                .expired_ids_r
                .iter()
                .chain(scratch.expired_ids_s.iter())
                .flatten()
                .all(|id| !scratch.deleted_ids.contains(id)),
            "take_expirations yielded a copy already reported dropped this step"
        );
    }
    c.drops += scratch.expired_r.len() + scratch.expired_s.len();
    if sink.records() {
        for (i, msg) in scratch.expired_r.iter().enumerate() {
            let to = ProcessId::Receiver;
            sink.record(t, Event::ChannelExpire { to, msg: msg.0 });
            if sink.provenance() {
                let id = scratch.expired_ids_r.get(i).copied().flatten();
                sink.msg_event(t, MsgEvent::Expired { id, to, msg: msg.0 });
            }
        }
        for (i, msg) in scratch.expired_s.iter().enumerate() {
            let to = ProcessId::Sender;
            sink.record(t, Event::ChannelExpire { to, msg: msg.0 });
            if sink.provenance() {
                let id = scratch.expired_ids_s.get(i).copied().flatten();
                sink.msg_event(t, MsgEvent::Expired { id, to, msg: msg.0 });
            }
        }
    }
    scratch.expired_r.clear();
    scratch.expired_s.clear();
    scratch.expired_ids_r.clear();
    scratch.expired_ids_s.clear();
    scratch.deleted_ids.clear();

    obs.mark(Phase::Bookkeeping);
    c.steps = t + 1;
    if sink.records() {
        obs.mark(Phase::ProbeDispatch);
        sink.end_step(t);
        obs.mark(Phase::Bookkeeping);
    }
}

// Assigns the next id to a copy just sent toward `to`, files it with the
// channel through `file` (which answers the id the copy coalesced into),
// and emits its `Sent` event.
fn note_sent<E: EventSink>(
    sink: &mut E,
    t: Step,
    to: ProcessId,
    msg: u16,
    file: impl FnOnce(MsgId) -> MsgId,
) {
    let id = sink.next_msg_id();
    let filed = file(id);
    let coalesced_into = (filed != id).then_some(filed);
    sink.msg_event(
        t,
        MsgEvent::Sent {
            id,
            to,
            msg,
            coalesced_into,
        },
    );
}
