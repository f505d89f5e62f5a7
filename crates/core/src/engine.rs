//! The streaming engine.
//!
//! Advances all audio by one quantum per tick: remote parties and the
//! PSTN, then each active root LOUD's command queue (producing samples
//! from players/synthesizers), then the continuous producers (microphones
//! and telephone receive), the wire graph in topological order, and
//! finally the consumers (speakers, recorders, recognizers, telephone
//! transmit).
//!
//! The tick reaches per-stream state only through the data plane's slot
//! slab ([`crate::plan::Slab`]): the cached plans hold slot indices, so
//! routing and consumption hash nothing, and stepping a root's queue
//! looks up only that root's queue (DESIGN.md §5).
//!
//! Two properties the paper demands fall out of the structure:
//!
//! - **Seamless transitions (§6.2).** A queue is given a tick *budget*;
//!   when a durational command finishes mid-tick, its successor starts
//!   immediately and produces the budget's remainder — so back-to-back
//!   plays concatenate inside a single tick's buffer with "not a single
//!   dropped or inserted sample". The end time is computed in device
//!   sample counts, never wall-clock (the §6.2 footnote about clock
//!   skew).
//! - **State restoration (§5.4).** Deactivated LOUDs are simply not
//!   stepped; every operation's position lives in its device's slot,
//!   which outlives deactivation, so reactivation resumes exactly where
//!   deactivation paused.

use crate::core::{Core, ResKey};
use crate::plan::{DataPlane, EngineScratch, PlanCache, PlanRoot, RoutePlan, Slab, NO_SLOT};
use crate::queue::{CmdState, QNode, RunNode};
use crate::sound::pcm_encoding;
use crate::vdevice::{ActiveOp, ClassState, DevSlot, HwBinding};
use da_dsp::silence::PauseDetector;
use da_hw::clock::frames_this_tick;
use da_proto::command::{DeviceCommand, RecordTermination};
use da_proto::event::{CallState, Event, QueueStopReason, RecordStopReason};
use da_proto::ids::{LoudId, ResourceId, SoundId, VDeviceId};
use da_proto::types::{DeviceClass, QueueState};

/// Runs one engine tick over the whole core.
pub fn tick(core: &mut Core) {
    // Debug builds panic on any allocation inside the tick that is not
    // inside an `AllocRelax` scope; every relax pairs with an rt-ok
    // justification the static `rtsafe` pass checks (DESIGN.md §16).
    let _rt = crate::rt::ScopedAllocGuard::arm();
    let started = std::time::Instant::now();
    let quantum = core.config.quantum_us;
    let t = core.tick_index;
    let n8 = frames_this_tick(8000, quantum, t);

    // The data plane (slot slab, cached plans and scratch buffers) is
    // detached from the core for the tick so its borrows never conflict
    // with core mutations. Nothing inside a tick changes topology, so
    // the plans stay valid for the whole tick.
    let mut plane = std::mem::take(&mut core.plane);
    core.tel.metrics.plan_cache_lookups_total.inc();
    // Relax: plan rebuild is the acknowledged slow path (topology epoch
    // bump only); steady-state ticks take the cached-plan early return.
    {
        let _relax = crate::rt::AllocRelax::scope();
        if plane.ensure_fresh(core) {
            core.stats.plan_rebuilds += 1;
            core.tel.metrics.plan_cache_rebuilds_total.inc();
            core.tel.metrics.plan_build_us.record_duration_us(started.elapsed());
        }
    }
    let DataPlane { plans, slab, scratch } = &mut plane;
    // One `Instant` per phase boundary feeds the phase histograms.
    let mut phase = PhaseClock::start();

    // 1. The outside world: scripted remote parties exchange audio.
    {
        // Relax: remote parties are scripted test scaffolding simulating
        // the far end of the line — outside the engine's RT surface.
        let _relax = crate::rt::AllocRelax::scope();
        let mut parties = std::mem::take(&mut core.remote_parties);
        for p in &mut parties {
            p.tick(&mut core.hw.pstn, n8);
        }
        core.remote_parties = parties;
        // 2. Network timers (ring timeout etc.): expiring timers queue
        //    human-timescale line events (busy, no-answer), not samples.
        core.hw.pstn.tick(n8 as u64);
    }

    // 3. Telephone line events fan out to the device LOUD and bound
    //    virtual devices.
    fan_out_line_events(core, slab, plans);
    phase.lap(&core.tel.metrics.engine_phase_line_us);

    // 4. Command queues of active roots, in stack order.
    for r in &plans.active_roots {
        step_queue(core, slab, *r, n8 as u64, scratch);
    }
    phase.lap(&core.tel.metrics.engine_phase_queues_us);

    // 5. Continuous producers: microphones and telephone receive.
    produce_continuous(core, slab, quantum, t, plans, scratch);
    phase.lap(&core.tel.metrics.engine_phase_produce_us);

    // 6. Wires (and intermediate devices) in topological order per tree.
    for plan in &plans.routes {
        route_tree(slab, plan, quantum, t, scratch);
    }
    phase.lap(&core.tel.metrics.engine_phase_route_us);

    // 7. Consumers: speakers, telephone transmit, recorders, recognizers.
    consume(core, slab, quantum, t, plans, scratch);
    phase.lap(&core.tel.metrics.engine_phase_consume_us);

    core.plane = plane;

    // Drain the per-tick DSP meter and ring-overflow count accumulated
    // by the phases into telemetry.
    let scratch = &mut core.plane.scratch;
    let meter = scratch.meter.take();
    let overflow = std::mem::take(&mut scratch.ring_overflow);
    let m = &core.tel.metrics;
    if meter.convert_ns > 0 {
        m.dsp_convert_ns.record(meter.convert_ns);
    }
    if meter.mix_ns > 0 {
        m.dsp_mix_ns.record(meter.mix_ns);
    }
    if meter.resample_ns > 0 {
        m.dsp_resample_ns.record(meter.resample_ns);
    }
    if overflow > 0 {
        m.engine_ring_overflow_frames_total.add(overflow);
    }

    // 8. Advance time.
    core.device_time += n8 as u64;
    core.tick_index += 1;
    core.stats.ticks += 1;
    let spent = started.elapsed();
    core.stats.busy += spent;
    core.stats.last_tick = spent;
    if spent > core.stats.max_tick {
        core.stats.max_tick = spent;
    }
    core.tel.metrics.engine_ticks_total.inc();
    // Sub-microsecond ticks land in the "≤ 1 us" bucket rather than
    // vanishing into bucket zero.
    core.tel.metrics.engine_tick_us.record((spent.as_micros() as u64).max(1));
    if spent > std::time::Duration::from_micros(quantum) {
        core.tel.metrics.engine_tick_overruns_total.inc();
        if core.tel.journal.enabled(da_telemetry::Level::Warn) {
            // Relax: the deadline is already blown; diagnostics may allocate.
            let _relax = crate::rt::AllocRelax::scope();
            core.tel.journal.event(
                da_telemetry::Level::Warn,
                "engine.tick_overrun",
                // The overrun journal line fires only after the deadline is already blown.
                format!(" tick={t} spent_us={} quantum_us={quantum}", spent.as_micros()), // rt-ok: post-deadline diagnostics
            );
        }
    }
}

/// Times consecutive tick phases: each lap records the time since the
/// previous boundary and starts the next phase.
struct PhaseClock(std::time::Instant);

impl PhaseClock {
    fn start() -> Self {
        PhaseClock(std::time::Instant::now())
    }

    fn lap(&mut self, into: &da_telemetry::Histogram) {
        let now = std::time::Instant::now();
        into.record_duration_us(now - self.0);
        self.0 = now;
    }
}

/// Two distinct slots of `devs`, mutably (a wire never joins a device
/// to itself).
fn pair_mut(devs: &mut [DevSlot], a: usize, b: usize) -> (&mut DevSlot, &mut DevSlot) {
    assert_ne!(a, b, "a wire joins two distinct devices");
    if a < b {
        let (lo, hi) = devs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = devs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

// ---------------------------------------------------------------------------
// Line events
// ---------------------------------------------------------------------------

// rt-ok(fn): call-progress fan-out runs per line event (human timescale), not per sample
fn fan_out_line_events(core: &mut Core, slab: &mut Slab, plans: &PlanCache) {
    use da_hw::pstn::LineEvent;
    // Relax: line events are human-timescale call progress, not samples.
    let _relax = crate::rt::AllocRelax::scope();
    for (slot, &(dev_idx, line)) in plans.line_slots.iter().enumerate() {
        let events = core.hw.pstn.poll_events(line);
        if events.is_empty() {
            continue;
        }
        let bound = &plans.line_bound[slot];
        for ev in events {
            let (state, caller_id) = match &ev {
                LineEvent::IncomingRing { caller_id } => (CallState::Ringing, caller_id.clone()),
                LineEvent::Connected => (CallState::Connected, None),
                LineEvent::Busy => (CallState::Busy, None),
                LineEvent::NoAnswer => (CallState::NoAnswer, None),
                LineEvent::RemoteHangup => (CallState::HungUp, None),
            };
            // Device-LOUD monitors (paper §5.9 footnote: an unmapped
            // answering machine watches the device LOUD telephone).
            core.send_event(
                ResKey(3, dev_idx as u32),
                Event::CallProgress {
                    device: ResourceId::Device(da_proto::ids::DeviceId(dev_idx as u32)),
                    state,
                    caller_id: caller_id.clone(),
                },
            );
            for &vid in bound {
                core.send_event(
                    ResKey(1, vid),
                    Event::CallProgress {
                        device: ResourceId::VDevice(VDeviceId(vid)),
                        state,
                        caller_id: caller_id.clone(),
                    },
                );
            }
            if matches!(ev, LineEvent::RemoteHangup) {
                // Flag recorders in the same trees that terminate on
                // hangup.
                let roots: Vec<u32> =
                    bound.iter().filter_map(|v| core.vdevs.get(v).map(|v| v.root)).collect();
                for d in slab.devs.iter_mut().filter(|d| roots.contains(&d.root)) {
                    if let Some(ActiveOp::Record { term, hangup_seen, .. }) = &mut d.op {
                        if matches!(term, RecordTermination::OnHangup) {
                            *hangup_seen = true;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Queue execution
// ---------------------------------------------------------------------------

/// Steps one active root's queue. The root's queue is the one map
/// lookup of a steady step: the running node lives in the root's slot
/// and its devices are stepped through their slots. Starting a node is
/// an op boundary and may look up more.
fn step_queue(
    core: &mut Core,
    slab: &mut Slab,
    root: PlanRoot,
    budget_8k: u64,
    scratch: &mut EngineScratch,
) {
    let rs = root.slot as usize;
    let mut next = {
        let Some(q) = core.queue_mut(root.root) else { return };
        if q.state() != QueueState::Started {
            return;
        }
        q.relative_frames += budget_8k;
        if slab.roots[rs].running.is_none() {
            q.pending.pop_front()
        } else {
            None
        }
    };
    let mut budget = budget_8k;
    loop { // rt-ok: bounded by the tick budget; every iteration spends budget or breaks
        // Ensure something is running.
        if let Some(node) = next.take() {
            let run = start_node(core, slab, root.root, node, scratch);
            slab.roots[rs].running = Some(run);
        }
        let Some(mut run) = slab.roots[rs].running.take() else { return };
        let (consumed, failed) = step_node(core, slab, root.root, &mut run, budget, scratch);
        let done = run.done();
        if !done {
            slab.roots[rs].running = Some(run);
        }
        // A command failure (e.g. Dial hit a busy line) stops the queue.
        if failed {
            stop_queue(core, slab, root.root, QueueStopReason::Error);
            return;
        }
        if !done {
            return;
        }
        budget = budget.saturating_sub(consumed);
        if budget == 0 {
            return;
        }
        // Start the successor within this tick (seamless).
        next = core.queue_mut(root.root).and_then(|q| q.pending.pop_front());
        if next.is_none() {
            return;
        }
    }
}

/// Starts a parsed node, returning its run state; the node's first step
/// spends what is left of this tick's budget, so a durational command
/// begins producing at once.
// rt-ok(fn): node start allocates run state once per queue node, amortized over the op
fn start_node(
    core: &mut Core,
    slab: &mut Slab,
    root: u32,
    node: QNode,
    scratch: &mut EngineScratch,
) -> RunNode {
    // Relax: run state is built once per queue node, an op boundary.
    let _relax = crate::rt::AllocRelax::scope();
    match node {
        QNode::Cmd { vdev, cmd, index } => {
            core.tel.recorder.engine_stage(root, index, core.tick_index);
            let mut run =
                RunNode::Cmd { vdev, slot: NO_SLOT, cmd, index, state: CmdState::Waiting };
            try_install(core, slab, root, &mut run, scratch);
            run
        }
        QNode::Par(children) => {
            let mut runs = Vec::with_capacity(children.len());
            for c in children {
                runs.push(start_node(core, slab, root, c, scratch));
            }
            RunNode::Par { children: runs }
        }
        QNode::DelaySeg { ms, body } => RunNode::Delay {
            remaining: ms as u64 * 8,
            body: body.into(),
            current: None,
        },
    }
}

/// Attempts to install a waiting command on its device.
fn try_install(
    core: &mut Core,
    slab: &mut Slab,
    root: u32,
    run: &mut RunNode,
    scratch: &mut EngineScratch,
) {
    // Relax: command installation is an op boundary (one payload copy).
    let _relax = crate::rt::AllocRelax::scope();
    let RunNode::Cmd { vdev, slot, cmd, index, state } = run else { return };
    if *state != CmdState::Waiting {
        return;
    }
    let vid = vdev.0;
    let quantum = core.config.quantum_us;
    let Some(v) = core.vdevs.get_mut(&vid) else {
        // Device vanished: treat as done.
        *state = CmdState::Done;
        return;
    };
    if v.root != root {
        *state = CmdState::Done;
        return;
    }
    let i = slab.assign_dev(v, quantum);
    *slot = i as u32;
    if cmd.instantaneous() {
        let c = cmd.clone(); // rt-ok: one command-payload copy at install time, an op boundary
        apply_instant(core, slab, vid, &c);
        *state = CmdState::Done;
        emit_command_done(core, root, vid, *index);
        return;
    }
    // Durational: the device must be free.
    if slab.devs[i].op.is_some() {
        return; // stay Waiting
    }
    match make_op(core, slab, i, cmd, scratch) {
        Ok(Some(op)) => {
            slab.devs[i].op = Some(op);
            *state = CmdState::Running;
        }
        Ok(None) => {
            // Completed instantly.
            *state = CmdState::Done;
            emit_command_done(core, root, vid, *index);
        }
        Err(()) => {
            // Invalid command (bad sound id etc.): stop the queue.
            *state = CmdState::Done;
            stop_queue(core, slab, root, QueueStopReason::Error);
        }
    }
}

/// Builds the active operation for a durational command on the device in
/// slot `i`.
// rt-ok(fn): op construction runs once at command start, never in the steady-state loop
fn make_op(
    core: &mut Core,
    slab: &mut Slab,
    i: usize,
    cmd: &DeviceCommand,
    scratch: &mut EngineScratch,
) -> Result<Option<ActiveOp>, ()> {
    let quantum = core.config.quantum_us;
    let d = &mut slab.devs[i];
    let Some(v) = core.vdevs.get(&d.vid) else { return Err(()) };
    match cmd {
        DeviceCommand::Play(sound) => {
            // Only a player plays: a hardware device's rate is its
            // binding's, never a sound's.
            if d.class != DeviceClass::Player {
                return Err(());
            }
            let Some(s) = core.sounds.get(&sound.0) else { return Err(()) };
            // The player emits at the sound's native rate; wires adapt
            // toward the consuming device (paper §5.1: players convert
            // sound data to the output port type).
            let rate = s.stype.sample_rate;
            let sync_every = v.sync_every(rate);
            d.set_rate(rate, quantum);
            scratch.reserve(d.src[0].capacity());
            Ok(Some(ActiveOp::Play {
                sound: sound.0,
                pos: 0,
                started: false,
                underrun: 0,
                last_sync: 0,
                sync_every,
                pcm: None,
            }))
        }
        DeviceCommand::Record(sound, term) => {
            if d.class != DeviceClass::Recorder {
                return Err(());
            }
            // Device controls select the optional recorder behaviours the
            // paper lists as attributes (§5.1): AGC and pause compression.
            let control_on = |name: &str| {
                core.atoms
                    .lookup(name)
                    .and_then(|a| v.controls.get(&a))
                    .map(|val| !val.is_empty() && val[0] != 0)
                    .unwrap_or(false)
            };
            let (agc_on, compress_pauses) = (control_on("AGC"), control_on("PAUSE_COMPRESSION"));
            let Some(s) = core.sounds.get_mut(&sound.0) else { return Err(()) };
            s.reset_for_recording();
            let rate = s.stype.sample_rate;
            let pause = match term {
                RecordTermination::OnPause { threshold, min_silence_frames } => {
                    PauseDetector::new(*threshold, *min_silence_frames)
                }
                _ => PauseDetector::new(0, u64::MAX),
            };
            let agc = agc_on.then(|| Box::new(da_dsp::agc::Agc::new(rate, 16_000)));
            let sync_every = v.sync_every(rate);
            d.set_rate(rate, quantum);
            scratch.reserve(d.sink[0].capacity());
            // A play pinned to the old take must see the new one.
            unpin_plays(slab, sound.0);
            Ok(Some(ActiveOp::Record {
                sound: sound.0,
                frames: 0,
                term: *term,
                pause,
                skip: 0,
                started: false,
                hangup_seen: false,
                last_sync: 0,
                sync_every,
                agc,
                compress_pauses,
            }))
        }
        DeviceCommand::Dial(number) => {
            if d.class != DeviceClass::Telephone {
                return Err(());
            }
            Ok(Some(ActiveOp::Dial { number: number.clone(), issued: false }))
        }
        DeviceCommand::Answer => {
            if d.class != DeviceClass::Telephone {
                return Err(());
            }
            Ok(Some(ActiveOp::Answer))
        }
        DeviceCommand::SpeakText(text) => {
            let rendered = match &d.state {
                ClassState::Synth(s) => s.speak(text),
                _ => return Err(()),
            };
            Ok(Some(ActiveOp::Render { buf: rendered, pos: 0 }))
        }
        DeviceCommand::PlayNote(n) => {
            let rendered = match &d.state {
                ClassState::Music(m) => m.note(n.note, n.velocity, n.duration_ms),
                _ => return Err(()),
            };
            Ok(Some(ActiveOp::Render { buf: rendered, pos: 0 }))
        }
        DeviceCommand::SendDtmf(digits) => {
            if d.class != DeviceClass::Telephone {
                return Err(());
            }
            let buf = da_dsp::dtmf::dial_string(d.rate, digits, 12000);
            Ok(Some(ActiveOp::SendDtmf { buf, pos: 0 }))
        }
        _ => {
            // Non-durational commands never reach here.
            Ok(None)
        }
    }
}

/// Drops every play's pinned decode of `sound`, so its next step looks
/// the sound up again: the sound was deleted (the play then ends) or is
/// being re-recorded (the play then streams the new take).
pub fn unpin_plays(slab: &mut Slab, sound: u32) {
    for d in &mut slab.devs {
        if let Some(ActiveOp::Play { sound: s, pcm, .. }) = &mut d.op {
            if *s == sound {
                *pcm = None;
            }
        }
    }
}

/// Steps a running node within the tick budget (8 kHz frames); returns
/// the frames of budget consumed and whether a command failed in a way
/// that stops the queue.
fn step_node(
    core: &mut Core,
    slab: &mut Slab,
    root: u32,
    run: &mut RunNode,
    budget: u64,
    scratch: &mut EngineScratch,
) -> (u64, bool) {
    match run {
        RunNode::Cmd { .. } => {
            let waiting = matches!(run, RunNode::Cmd { state: CmdState::Waiting, .. });
            if waiting {
                try_install(core, slab, root, run, scratch);
            }
            let RunNode::Cmd { vdev, slot, index, state, .. } = run else { unreachable!() };
            if *state != CmdState::Running {
                return (0, false);
            }
            let vid = vdev.0;
            let idx = *index;
            let step = step_device_op(core, slab, vid, *slot as usize, budget, scratch);
            if step.done {
                *state = CmdState::Done;
                emit_command_done(core, root, vid, idx);
            }
            (step.consumed, step.failed)
        }
        RunNode::Par { children } => {
            let mut max_consumed = 0;
            let mut failed = false;
            for c in children.iter_mut() {
                if !c.done() {
                    let (used, f) = step_node(core, slab, root, c, budget, scratch);
                    max_consumed = max_consumed.max(used);
                    failed |= f;
                }
            }
            (max_consumed, failed)
        }
        RunNode::Delay { remaining, body, current } => {
            let mut used = 0;
            let mut failed = false;
            if *remaining > 0 {
                let wait = (*remaining).min(budget);
                *remaining -= wait;
                used += wait;
                if *remaining > 0 {
                    return (used, false);
                }
            }
            // Delay elapsed: run the body sequentially with the leftover
            // budget.
            let mut left = budget - used;
            loop { // rt-ok: bounded by the leftover tick budget, spent or broken each pass
                if current.is_none() {
                    match body.pop_front() {
                        Some(node) => {
                            let started = start_node(core, slab, root, node, scratch);
                            // Relax: op boundary, one box per node start.
                            *current = crate::rt::relaxed(|| Some(Box::new(started))) // rt-ok: one box per delay-body node start, an op boundary
                        }
                        None => break,
                    }
                }
                let cur = current.as_mut().expect("just set");
                let (step_used, f) = step_node(core, slab, root, cur, left, scratch);
                failed |= f;
                used += step_used;
                left = left.saturating_sub(step_used);
                if cur.done() {
                    *current = None;
                    if left == 0 {
                        break;
                    }
                } else {
                    break;
                }
            }
            (used, failed)
        }
    }
}

/// What one step of a device operation did.
struct Step {
    /// Budget consumed, in 8 kHz frames.
    consumed: u64,
    /// The operation completed (or was found gone).
    done: bool,
    /// The operation failed in a way that stops its queue (a dial that
    /// got busy).
    failed: bool,
}

impl Step {
    fn running(consumed: u64) -> Step {
        Step { consumed, done: false, failed: false }
    }

    fn done(consumed: u64) -> Step {
        Step { consumed, done: true, failed: false }
    }
}

/// Steps the active operation on the device `vid` in slot `i`.
fn step_device_op(
    core: &mut Core,
    slab: &mut Slab,
    vid: u32,
    i: usize,
    budget: u64,
    scratch: &mut EngineScratch,
) -> Step {
    let d = match slab.devs.get_mut(i) {
        // The device was destroyed (its slot reclaimed or reused).
        Some(d) if d.vid == vid => d,
        _ => return Step::done(0),
    };
    if d.paused {
        // Paused devices hold position but consume real time.
        return Step::running(budget);
    }
    let rate = d.rate.max(1) as u64;
    let demand = budget * rate / 8000;
    if matches!(d.op, Some(ActiveOp::Play { .. })) {
        return step_play(core, d, vid, demand, rate, scratch);
    }
    match &mut d.op {
        None | Some(ActiveOp::Play { .. }) => Step::done(0),
        Some(ActiveOp::Render { buf, pos }) => {
            let want = (demand as usize).min(buf.len() - *pos);
            let mut chunk = scratch.take_i16();
            chunk.extend_from_slice(&buf[*pos..*pos + want]);
            *pos += want;
            let finished = *pos >= buf.len();
            da_dsp::gain::apply(&mut chunk, d.gain_milli);
            scratch.ring_overflow += d.src[0].push_slice(&chunk) as u64;
            if finished {
                d.op = None;
            }
            scratch.put_i16(chunk);
            Step { consumed: want as u64 * 8000 / rate, done: finished, failed: false }
        }
        Some(ActiveOp::Record { started, skip, sound, .. }) => {
            if !*started {
                // Frames of this tick that elapsed before we started:
                // skip them so the recording begins exactly at the seam.
                let n8 = frames_this_tick(8000, core.config.quantum_us, core.tick_index) as u64;
                *started = true;
                *skip = (n8 - budget.min(n8)) * rate / 8000;
                let sid = *sound;
                core.send_event(
                    ResKey(1, vid),
                    Event::RecordStarted { vdev: VDeviceId(vid), sound: SoundId(sid) },
                );
                return Step::running(budget);
            }
            if record_should_stop(&d.op) {
                let op = d.op.take();
                finish_record(core, vid, op, RecordStopReason::Manual);
                Step::done(0)
            } else {
                Step::running(budget)
            }
        }
        Some(ActiveOp::Dial { number, issued }) => {
            let Some(HwBinding::Line(line)) = d.binding else {
                d.op = None;
                return Step::done(0);
            };
            if !*issued {
                {
                    // Relax: dialing starts a call — an op boundary; the
                    // PSTN copies the number and queues line events once
                    // per dial.
                    let _relax = crate::rt::AllocRelax::scope();
                    core.hw.pstn.off_hook(line);
                    core.hw.pstn.dial(line, number);
                    *issued = true;
                }
                core.send_event(
                    ResKey(1, vid),
                    Event::CallProgress {
                        device: ResourceId::VDevice(VDeviceId(vid)),
                        state: CallState::Dialing,
                        caller_id: None,
                    },
                );
                return Step::running(0);
            }
            match core.hw.pstn.state(line) {
                da_hw::pstn::LineState::Connected => {
                    d.op = None;
                    Step::done(0)
                }
                da_hw::pstn::LineState::HearingBusy => {
                    // Busy or no answer: the command fails and the queue
                    // stops with an error.
                    d.op = None;
                    Step { consumed: 0, done: true, failed: true }
                }
                _ => Step::running(budget),
            }
        }
        Some(ActiveOp::Answer) => {
            let Some(HwBinding::Line(line)) = d.binding else {
                d.op = None;
                return Step::done(0);
            };
            match core.hw.pstn.state(line) {
                da_hw::pstn::LineState::Ringing => {
                    // Relax: answering a call is an op boundary; the
                    // PSTN queues one Connected event per answer.
                    crate::rt::relaxed(|| core.hw.pstn.answer(line));
                    d.op = None;
                    core.send_event(
                        ResKey(1, vid),
                        Event::CallProgress {
                            device: ResourceId::VDevice(VDeviceId(vid)),
                            state: CallState::Connected,
                            caller_id: None,
                        },
                    );
                    Step::done(0)
                }
                da_hw::pstn::LineState::Connected => {
                    d.op = None;
                    Step::done(0)
                }
                _ => Step::running(budget),
            }
        }
        Some(ActiveOp::SendDtmf { buf, pos }) => {
            // Tones are overlaid onto the transmit path in the consume
            // phase; here we only track duration and handle the no-call
            // case (advance so the command cannot wedge the queue).
            let line_connected = match d.binding {
                Some(HwBinding::Line(l)) => {
                    core.hw.pstn.state(l) == da_hw::pstn::LineState::Connected
                }
                _ => false,
            };
            let want = (demand as usize).min(buf.len() - *pos);
            if !line_connected {
                *pos += want;
            }
            let finished = *pos >= buf.len();
            if finished {
                d.op = None;
            }
            Step { consumed: want as u64 * 8000 / rate, done: finished, failed: false }
        }
    }
}

/// Steps a play. A complete, content-addressed sound is pinned once
/// (its decode shared through the transcode cache, DESIGN.md §17), so
/// later steps copy from the pin without looking the sound up; a
/// streaming sound is looked up each tick until it completes.
fn step_play(
    core: &mut Core,
    d: &mut DevSlot,
    vid: u32,
    demand: u64,
    rate: u64,
    scratch: &mut EngineScratch,
) -> Step {
    let Some(ActiveOp::Play { sound: sid, pos: from, started: was_started, pcm, .. }) = &mut d.op
    else {
        return Step::done(0);
    };
    let (sid, from, was_started) = (*sid, *from, *was_started);
    let mut samples = scratch.take_i16();
    let complete = match pcm {
        Some((frames, pinned)) => {
            // Decode through the pin: a window served from the transcode
            // cache's entry, a slice copy rather than a transcode.
            core.tel.metrics.transcode_cache_hits_total.inc();
            let want = demand.min(frames.saturating_sub(from));
            let start = usize::try_from(from).unwrap_or(usize::MAX).min(pinned.len());
            let end = start.saturating_add(want as usize).min(pinned.len());
            samples.extend_from_slice(&pinned[start..end]);
            true
        }
        None => {
            let Some(snd) = core.sounds.get(&sid) else {
                scratch.put_i16(samples);
                d.op = None;
                return Step::done(0);
            };
            let avail = snd.len_frames();
            let want = demand.min(avail.saturating_sub(from));
            // Only real conversion work (the fallback decode or the
            // one-time cache build) is metered — a cache hit is a copy.
            let convert_ns = &mut scratch.meter.convert_ns;
            match core.store.pin_pcm(snd, convert_ns) {
                Some(pinned) => {
                    let start = usize::try_from(from).unwrap_or(usize::MAX).min(pinned.len());
                    let end = start.saturating_add(want as usize).min(pinned.len());
                    samples.extend_from_slice(&pinned[start..end]);
                    *pcm = Some((avail, pinned));
                }
                None => core.store.decode_window(snd, from, want, &mut samples, convert_ns),
            }
            snd.complete
        }
    };
    let got = samples.len() as u64;
    da_dsp::gain::apply(&mut samples, d.gain_milli);
    let mut missing = 0u64;
    let mut finished = false;
    // Budget consumed in real time; position only advances over data
    // actually played.
    let mut budget_frames = got;
    if got < demand {
        if complete {
            finished = true;
        } else {
            // Streaming underrun: substitute silence for the rest of the
            // tick and *wait* — the stream position holds so late data
            // still plays (paper §6.2: the client trades buffering
            // against latency; the server keeps the clock honest and
            // reports the starvation).
            missing = demand - got;
            samples.resize(samples.len() + missing as usize, 0);
            budget_frames = demand;
        }
    }
    let new_pos = from + got;
    scratch.ring_overflow += d.src[0].push_slice(&samples) as u64;
    scratch.put_i16(samples);
    let mut sync_pos = None;
    if let Some(ActiveOp::Play { pos, started, underrun, last_sync, sync_every, .. }) = &mut d.op {
        *pos = new_pos;
        *started = true;
        *underrun += missing;
        if new_pos.saturating_sub(*last_sync) >= *sync_every {
            *last_sync = new_pos;
            sync_pos = Some(new_pos);
        }
    }
    if finished {
        d.op = None;
    }
    if !was_started {
        core.send_event(
            ResKey(1, vid),
            Event::PlayStarted { vdev: VDeviceId(vid), sound: SoundId(sid) },
        );
    }
    if missing > 0 {
        core.tel.metrics.engine_underrun_frames_total.add(missing);
        core.send_event(
            ResKey(1, vid),
            Event::SoundUnderrun {
                vdev: VDeviceId(vid),
                sound: SoundId(sid),
                missing_frames: missing,
            },
        );
    }
    if let Some(p) = sync_pos {
        let dt = core.device_time;
        core.send_event(
            ResKey(1, vid),
            Event::SyncMark {
                vdev: VDeviceId(vid),
                sound: Some(SoundId(sid)),
                position: p,
                device_time: dt,
            },
        );
    }
    Step { consumed: budget_frames * 8000 / rate, done: finished, failed: false }
}

fn record_should_stop(op: &Option<ActiveOp>) -> bool {
    match op {
        Some(ActiveOp::Record { term, frames, pause, hangup_seen, .. }) => match term {
            RecordTermination::Manual => false,
            RecordTermination::MaxFrames(n) => frames >= n,
            RecordTermination::OnPause { .. } => pause.triggered(),
            RecordTermination::OnHangup => *hangup_seen,
        },
        _ => false,
    }
}

fn finish_record(core: &mut Core, vid: u32, op: Option<ActiveOp>, fallback: RecordStopReason) {
    // Relax: record finalization runs once per completed recording.
    let _relax = crate::rt::AllocRelax::scope();
    if let Some(ActiveOp::Record {
        sound, frames, term, pause, hangup_seen, compress_pauses, ..
    }) = op
    {
        let mut frames = frames;
        if let Some(s) = core.sounds.get_mut(&sound) {
            if compress_pauses && !s.data.is_empty() {
                // Paper §5.1: the recorder "can compress the recorded
                // audio by removing pauses". Keep 250 ms of each pause.
                let stype = s.stype;
                let pcm = s.decode_frames(0, s.len_frames());
                let max_pause = (stype.sample_rate / 4) as usize;
                let squeezed = da_dsp::silence::compress_pauses(&pcm, 300, max_pause);
                frames = squeezed.len() as u64;
                s.data = da_dsp::convert::encode_from_pcm16(
                    crate::sound::pcm_encoding(stype.encoding),
                    &squeezed,
                );
            }
            s.complete = true;
        }
        let reason = match term {
            RecordTermination::MaxFrames(n) if frames >= n => RecordStopReason::MaxFrames,
            RecordTermination::OnPause { .. } if pause.triggered() => {
                RecordStopReason::PauseDetected
            }
            RecordTermination::OnHangup if hangup_seen => RecordStopReason::Hangup,
            _ => fallback,
        };
        core.send_event(
            ResKey(1, vid),
            Event::RecordStopped {
                vdev: VDeviceId(vid),
                sound: SoundId(sound),
                reason,
                frames,
            },
        );
    }
}

fn emit_command_done(core: &mut Core, root: u32, vid: u32, index: u32) {
    // Stamp before the enqueue so the drain stamp can never precede it.
    core.tel.recorder.event_outbound(root, index);
    let at = core.device_time;
    core.send_event(
        ResKey(0, root),
        Event::CommandDone {
            loud: LoudId(root),
            vdev: VDeviceId(vid),
            index,
            at_frame: at,
        },
    );
}

/// Stops a queue with a reason, aborting running device operations.
pub fn stop_queue(core: &mut Core, slab: &mut Slab, root: u32, reason: QueueStopReason) {
    // Relax: queue stop is an op boundary (StopQueue or error path).
    let _relax = crate::rt::AllocRelax::scope();
    let rs = core.louds.get(&root).and_then(|l| l.slot);
    let running = rs.and_then(|i| slab.roots[i as usize].running.take());
    if let Some(run) = running {
        let mut devices = Vec::new();
        run.running_devices(&mut devices);
        for vid in devices {
            let op = core.vdevs.get(&vid.0).and_then(|v| v.slot).and_then(|i| {
                let d = &mut slab.devs[i as usize];
                d.clear_ports();
                d.op.take()
            });
            finish_record(core, vid.0, op, RecordStopReason::Manual);
        }
    }
    if let Some(q) = core.queue_mut(root) {
        // Stopping is the one transition legal from every state; the
        // `QueueStopped` event is emitted even when already stopped.
        q.typed().stop();
    }
    core.send_event(ResKey(0, root), Event::QueueStopped { loud: LoudId(root), reason });
}

// ---------------------------------------------------------------------------
// Continuous producers
// ---------------------------------------------------------------------------

fn produce_continuous(
    core: &mut Core,
    slab: &mut Slab,
    quantum: u64,
    tick: u64,
    plans: &PlanCache,
    scratch: &mut EngineScratch,
) {
    for &slot in &plans.producers {
        let d = &mut slab.devs[slot as usize];
        if d.paused {
            continue;
        }
        match (d.class, d.binding) {
            (DeviceClass::Input, Some(HwBinding::Microphone(m))) => {
                let n = frames_this_tick(d.rate, quantum, tick);
                let mut samples = scratch.take_i16();
                core.hw.microphones[m].pull_into(n, &mut samples);
                da_dsp::gain::apply(&mut samples, d.gain_milli);
                if let Some(port) = d.src.first_mut() {
                    scratch.ring_overflow += port.push_slice(&samples) as u64;
                }
                scratch.put_i16(samples);
            }
            (DeviceClass::Telephone, Some(HwBinding::Line(l))) => {
                let n = frames_this_tick(da_hw::pstn::LINE_RATE, quantum, tick);
                let mut samples = scratch.take_i16();
                core.hw.pstn.read_rx_into(l, n, &mut samples);
                // In-band DTMF detection on received audio.
                let digits = match &mut d.state {
                    ClassState::Telephone(t) => {
                        // Relax: digits materialize on keypresses only.
                        let _relax = crate::rt::AllocRelax::scope();
                        t.dtmf.push(&samples) // rt-ok: detector is buffer-reusing; returns digits only on a keypress
                    }
                    _ => Vec::new(),
                };
                if let Some(port) = d.src.first_mut() {
                    scratch.ring_overflow += port.push_slice(&samples) as u64;
                }
                scratch.put_i16(samples);
                for digit in digits {
                    core.send_event(
                        ResKey(1, d.vid),
                        Event::DtmfReceived {
                            device: ResourceId::VDevice(VDeviceId(d.vid)),
                            digit,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Wire routing
// ---------------------------------------------------------------------------

/// Routes one tree along its cached plan: intermediate devices process
/// sinks to sources in topological order, then each wired source port is
/// drained once and fanned out to its wires in stable (wire-id) order.
/// Whatever a device produced on an unwired port is discarded, so a
/// wire created later carries audio from that moment, not a backlog.
fn route_tree(
    slab: &mut Slab,
    plan: &RoutePlan,
    quantum: u64,
    tick: u64,
    scratch: &mut EngineScratch,
) {
    for dev in &plan.order {
        let src_slot = dev.slot as usize;
        // Intermediate devices transform sinks to sources first.
        process_intermediate(&mut slab.devs[src_slot], quantum, tick, scratch);
        for pp in &dev.ports {
            for pw in &pp.wires {
                let (src, dst) = pair_mut(&mut slab.devs, src_slot, pw.dst_slot as usize);
                let (src_rate, dst_rate) = (src.rate, dst.rate);
                let (a, b) = src.src[pp.port as usize].as_slices();
                let sink = &mut dst.sink[pw.dst_port as usize];
                let ws = &mut slab.wires[pw.slot as usize];
                if src_rate == dst_rate {
                    // Same-rate wires copy ring to ring; a rate change
                    // drops any stale resampler.
                    ws.bypass();
                    scratch.ring_overflow += (sink.push_slice(a) + sink.push_slice(b)) as u64;
                    continue;
                }
                let mut out = scratch.take_i16();
                da_dsp::meter::DspMeter::timed(&mut scratch.meter.resample_ns, || {
                    ws.resample_into(a, src_rate, dst_rate, &mut out);
                    ws.resample_into(b, src_rate, dst_rate, &mut out);
                });
                scratch.ring_overflow += sink.push_slice(&out) as u64;
                scratch.put_i16(out);
            }
        }
        for port in &mut slab.devs[src_slot].src {
            port.clear();
        }
    }
}

/// Adds up to `demand` samples from a sink ring into `acc`, scaled by
/// `pct` percent, using the ring's slices directly (no per-sample
/// pops). Returns how many samples were read.
fn accumulate_scaled(
    buf: &crate::vdevice::PortRing,
    demand: usize,
    pct: i32,
    acc: &mut [i32],
) -> usize {
    let take = buf.len().min(demand);
    let (a, b) = buf.as_slices();
    let from_a = take.min(a.len());
    for (slot, &s) in acc.iter_mut().zip(a[..from_a].iter()) {
        *slot += s as i32 * pct / 100;
    }
    for (slot, &s) in acc[from_a..].iter_mut().zip(b[..take - from_a].iter()) {
        *slot += s as i32 * pct / 100;
    }
    take
}

fn process_intermediate(d: &mut DevSlot, quantum: u64, tick: u64, scratch: &mut EngineScratch) {
    if d.paused {
        return;
    }
    let demand = frames_this_tick(d.rate, quantum, tick);
    // Destructure the slot so the class state, port rings and gain
    // borrow disjointly: no clones of mixer gains or crossbar routes.
    let DevSlot { state, sink, src, gain_milli, .. } = d;
    match state {
        ClassState::Mixer { gains } => {
            let mut mix = scratch.take_i32();
            mix.resize(demand, 0);
            for (port, pct) in gains.iter().enumerate() {
                if port >= sink.len() {
                    break;
                }
                let took = accumulate_scaled(&sink[port], demand, *pct as i32, &mut mix);
                sink[port].consume(took);
            }
            let mut out = scratch.take_i16();
            out.extend(mix.iter().map(|&s| s.clamp(i16::MIN as i32, i16::MAX as i32) as i16));
            da_dsp::gain::apply(&mut out, *gain_milli);
            if let Some(port) = src.first_mut() {
                scratch.ring_overflow += port.push_slice(&out) as u64;
            }
            scratch.put_i16(out);
            scratch.put_i32(mix);
        }
        ClassState::Crossbar { routes } => {
            // Several routes may tap one input, so inputs are read first
            // and drained only after every output is built. One pooled
            // accumulator serves all outputs in turn.
            let n_sinks = sink.len();
            let mut acc = scratch.take_i32();
            let mut out = scratch.take_i16();
            for (port, dst) in src.iter_mut().enumerate() {
                acc.clear();
                acc.resize(demand, 0);
                for &(i, o) in routes.iter() {
                    if o as usize != port || i as usize >= n_sinks {
                        continue;
                    }
                    accumulate_scaled(&sink[i as usize], demand, 100, &mut acc);
                }
                out.clear();
                out.extend(acc.iter().map(|&s| s.clamp(i16::MIN as i32, i16::MAX as i32) as i16));
                scratch.ring_overflow += dst.push_slice(&out) as u64;
            }
            for buf in sink.iter_mut() {
                buf.consume(demand);
            }
            scratch.put_i16(out);
            scratch.put_i32(acc);
        }
        ClassState::Dsp { effect } => {
            // The extension point for new signal-processing algorithms
            // (paper §5.1 leaves DSP commands unspecified; the EFFECT
            // device control selects behaviour).
            let take = sink.first().map(|b| b.len()).unwrap_or(0);
            if take > 0 && !src.is_empty() {
                let mut data = scratch.take_i16();
                sink[0].drain_into(take, &mut data);
                match effect {
                    crate::vdevice::DspEffect::PassThrough => {}
                    crate::vdevice::DspEffect::Echo(e) => e.process(&mut data),
                    crate::vdevice::DspEffect::LowPass(lp) => lp.process(&mut data),
                }
                da_dsp::gain::apply(&mut data, *gain_milli);
                scratch.ring_overflow += src[0].push_slice(&data) as u64;
                scratch.put_i16(data);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------------

fn consume(
    core: &mut Core,
    slab: &mut Slab,
    quantum: u64,
    tick: u64,
    plans: &PlanCache,
    scratch: &mut EngineScratch,
) {
    // Speaker accumulators persist in the scratch pool across ticks,
    // sized at plan build, so clearing them costs no allocation.
    let n_speakers = core.hw.speakers.len();
    for s in 0..n_speakers {
        let rate = core.hw.speakers[s].rate();
        let ch = core.hw.speakers[s].channels().max(1) as usize;
        let frames = frames_this_tick(rate, quantum, tick);
        scratch.speaker_fed[s] = false;
        scratch.speaker_acc[s].clear();
        scratch.speaker_acc[s].resize(frames * ch, 0);
    }

    for &slot in &plans.consumers {
        let d = &mut slab.devs[slot as usize];
        if d.paused {
            continue;
        }
        match (d.class, d.binding) {
            (DeviceClass::Output, Some(HwBinding::Speaker(s))) => {
                let ch = core.hw.speakers[s].channels().max(1) as usize;
                let frames = frames_this_tick(d.rate, quantum, tick);
                let had = d.sink[0].len();
                if had == 0 {
                    continue;
                }
                let mut data = scratch.take_i16();
                d.sink[0].drain_into(had.min(frames), &mut data);
                da_dsp::gain::apply(&mut data, d.gain_milli);
                scratch.speaker_fed[s] = true;
                // Mono sources fan out to every channel.
                let acc = &mut scratch.speaker_acc[s];
                for (i, &sample) in data.iter().enumerate() {
                    for c in 0..ch {
                        let idx = i * ch + c;
                        if idx < acc.len() {
                            acc[idx] += sample as i32;
                        }
                    }
                }
                scratch.put_i16(data);
            }
            (DeviceClass::Telephone, Some(HwBinding::Line(l))) => {
                let frames = frames_this_tick(da_hw::pstn::LINE_RATE, quantum, tick);
                let mut data = scratch.take_i16();
                d.sink[0].drain_into(frames, &mut data);
                // Overlay in-flight DTMF; the queue's step observes its
                // completion through `step_device_op`.
                if let Some(ActiveOp::SendDtmf { buf, pos }) = &mut d.op {
                    let want = frames.min(buf.len() - *pos);
                    let chunk = &buf[*pos..*pos + want];
                    da_dsp::meter::DspMeter::timed(&mut scratch.meter.mix_ns, || {
                        da_dsp::mix::mix_into(&mut data[..want], chunk, 100)
                    });
                    *pos += want;
                }
                // Line tx deque reaches steady capacity after warmup.
                crate::rt::relaxed(|| core.hw.pstn.write_tx(l, &data));
                scratch.put_i16(data);
            }
            (DeviceClass::Recorder, _) => {
                consume_recorder(core, d, quantum, tick, scratch);
            }
            (DeviceClass::SpeechRecognizer, _) => {
                if d.sink[0].is_empty() {
                    continue;
                }
                let mut data = scratch.take_i16();
                let all = d.sink[0].len();
                d.sink[0].drain_into(all, &mut data);
                let results = match &mut d.state {
                    ClassState::Recognizer(r) => {
                        // Relax: results materialize on word detection only.
                        let _relax = crate::rt::AllocRelax::scope();
                        r.push(&data) // rt-ok: results materialize only on word detection
                    }
                    _ => Vec::new(),
                };
                scratch.put_i16(data);
                for r in results {
                    core.send_event(
                        ResKey(1, d.vid),
                        Event::WordRecognized {
                            vdev: VDeviceId(d.vid),
                            word: r.word,
                            score: r.score,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    // Deliver accumulated audio to speakers.
    for s in 0..n_speakers {
        let acc = &scratch.speaker_acc[s];
        let data = &mut scratch.speaker_out;
        data.clear();
        data.extend(acc.iter().map(|&v| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16));
        let frames = data.len() as u64 / core.hw.speakers[s].channels().max(1) as u64;
        // Relax: the speaker's optional waveform-capture tap is test
        // instrumentation; rendering itself buffers nothing.
        crate::rt::relaxed(|| core.hw.speakers[s].render(data, scratch.speaker_fed[s], 0));
        core.stats.speaker_frames += frames;
    }
}

fn consume_recorder(
    core: &mut Core,
    d: &mut DevSlot,
    quantum: u64,
    tick: u64,
    scratch: &mut EngineScratch,
) {
    if d.op.is_none() {
        // Not recording: discard arriving audio so a later Record starts
        // from the seam, not from stale buffered input.
        d.sink[0].clear();
        return;
    }
    let demand = frames_this_tick(d.rate, quantum, tick);
    let take = d.sink[0].len().min(demand + 8); // drain small resampling leads too
    if take == 0 {
        return;
    }
    let mut data = scratch.take_i16();
    d.sink[0].drain_into(take, &mut data);
    let vid = d.vid;
    let Some(ActiveOp::Record {
        sound, skip, frames, term, agc, pause, last_sync, sync_every, ..
    }) = &mut d.op
    else {
        scratch.put_i16(data);
        return;
    };
    if *skip > 0 {
        let drop = (*skip as usize).min(data.len());
        data.drain(..drop);
        *skip -= drop as u64;
    }
    // MaxFrames terminations are sample-exact: clamp the chunk to the
    // remaining allowance.
    if let RecordTermination::MaxFrames(n) = term {
        let left = n.saturating_sub(*frames) as usize;
        data.truncate(left);
    }
    if let Some(agc) = agc {
        agc.process(&mut data);
    }
    let sid = *sound;
    let Some(s) = core.sounds.get_mut(&sid).filter(|_| !data.is_empty()) else {
        scratch.put_i16(data);
        return;
    };
    let mut encoded = scratch.take_u8();
    da_dsp::meter::DspMeter::timed(&mut scratch.meter.convert_ns, || {
        da_dsp::convert::encode_from_pcm16_into(pcm_encoding(s.stype.encoding), &data, &mut encoded)
    });
    // Accumulating encoded audio IS the recording; growth is the
    // operation itself, not an accident of the tick loop.
    crate::rt::relaxed(|| s.data.extend_from_slice(&encoded));
    scratch.put_u8(encoded);
    *frames += data.len() as u64;
    {
        // Relax: window buffer reaches steady capacity after warmup.
        let _relax = crate::rt::AllocRelax::scope();
        pause.push(&data); // rt-ok: pause detector reuses its window buffer; no per-tick growth
    }
    let reached_limit = matches!(term, RecordTermination::MaxFrames(n) if *frames >= *n);
    let mut sync_pos = None;
    if frames.saturating_sub(*last_sync) >= *sync_every {
        *last_sync = *frames;
        sync_pos = Some(*frames);
    }
    scratch.put_i16(data);
    if let Some(p) = sync_pos {
        let dt = core.device_time;
        core.send_event(
            ResKey(1, vid),
            Event::SyncMark {
                vdev: VDeviceId(vid),
                sound: Some(SoundId(sid)),
                position: p,
                device_time: dt,
            },
        );
    }
    if reached_limit {
        // Finish immediately so the frame count is exact; the queue
        // observes completion at its next step.
        let op = d.op.take();
        finish_record(core, vid, op, RecordStopReason::MaxFrames);
    }
}

// ---------------------------------------------------------------------------
// Immediate commands (paper §5.1 immediate mode)
// ---------------------------------------------------------------------------

/// Applies an instantaneous (or immediate-mode) command to a device,
/// through its slot (assigned if the device has none yet). Returns
/// `false` if the command does not apply to the device's class.
pub fn apply_instant(core: &mut Core, slab: &mut Slab, vid: u32, cmd: &DeviceCommand) -> bool {
    // Relax: instantaneous commands execute at op boundaries.
    let _relax = crate::rt::AllocRelax::scope();
    let quantum = core.config.quantum_us;
    let Some(v) = core.vdevs.get_mut(&vid) else { return false };
    let i = slab.assign_dev(v, quantum);
    let d = &mut slab.devs[i];
    match cmd {
        DeviceCommand::Stop => {
            let op = d.op.take();
            d.clear_ports();
            // A telephone Stop hangs up (paper §5.1 telephone commands).
            if let Some(HwBinding::Line(l)) = d.binding {
                core.hw.pstn.on_hook(l);
                finish_record(core, vid, op, RecordStopReason::Manual);
                core.send_event(
                    ResKey(1, vid),
                    Event::CallProgress {
                        device: ResourceId::VDevice(VDeviceId(vid)),
                        state: CallState::HungUp,
                        caller_id: None,
                    },
                );
            } else {
                finish_record(core, vid, op, RecordStopReason::Manual);
            }
            true
        }
        DeviceCommand::Pause => {
            d.paused = true;
            true
        }
        DeviceCommand::Resume => {
            d.paused = false;
            true
        }
        DeviceCommand::ChangeGain(g) => {
            d.gain_milli = *g;
            true
        }
        DeviceCommand::SetMixGain { input, percent } => match &mut d.state {
            ClassState::Mixer { gains } => {
                if let Some(g) = gains.get_mut(*input as usize) {
                    *g = (*percent).min(100);
                }
                true
            }
            _ => false,
        },
        DeviceCommand::SetTextLanguage(lang) => match &mut d.state {
            ClassState::Synth(s) => {
                s.set_language(lang);
                true
            }
            _ => false,
        },
        DeviceCommand::SetVoiceValues { rate_wpm, pitch_hz } => match &mut d.state {
            ClassState::Synth(s) => {
                s.set_values(*rate_wpm, *pitch_hz);
                true
            }
            _ => false,
        },
        DeviceCommand::SetExceptionList(list) => match &mut d.state {
            ClassState::Synth(s) => {
                s.set_exception_list(list);
                true
            }
            _ => false,
        },
        DeviceCommand::Train { word, template } => {
            let ClassState::Recognizer(r) = &mut d.state else { return false };
            let Some(s) = core.sounds.get(&template.0) else { return false };
            r.train(word, &s.decode_frames(0, s.len_frames()));
            true
        }
        DeviceCommand::SetVocabulary(words) => match &mut d.state {
            ClassState::Recognizer(r) => {
                r.set_vocabulary(words);
                true
            }
            _ => false,
        },
        DeviceCommand::AdjustContext(bias) => match &mut d.state {
            ClassState::Recognizer(r) => {
                r.adjust_context(*bias);
                true
            }
            _ => false,
        },
        DeviceCommand::SaveVocabulary(name) => {
            let blob = match &d.state {
                ClassState::Recognizer(r) => r.save(),
                _ => return false,
            };
            core.catalogs.insert(
                "vocabularies",
                name,
                da_proto::types::SoundType::TELEPHONE,
                blob,
            );
            true
        }
        DeviceCommand::SetVoice(voice) => match &mut d.state {
            ClassState::Music(m) => m.set_voice(voice),
            _ => false,
        },
        DeviceCommand::SetMusicState { tempo_bpm } => match &mut d.state {
            ClassState::Music(m) => {
                m.set_tempo(*tempo_bpm);
                true
            }
            _ => false,
        },
        DeviceCommand::SetRoutes(routes) => match &mut d.state {
            ClassState::Crossbar { routes: r } => {
                for route in routes {
                    if route.connected {
                        r.insert((route.input, route.output));
                    } else {
                        r.remove(&(route.input, route.output));
                    }
                }
                true
            }
            _ => false,
        },
        DeviceCommand::SendDtmf(digits) => {
            // Immediate DTMF: install or extend the overlay.
            if d.class != DeviceClass::Telephone {
                return false;
            }
            let tones = da_dsp::dtmf::dial_string(d.rate, digits, 12000);
            match &mut d.op {
                Some(ActiveOp::SendDtmf { buf, .. }) => buf.extend(tones),
                Some(_) => return false,
                None => d.op = Some(ActiveOp::SendDtmf { buf: tones, pos: 0 }),
            }
            true
        }
        // Queued-only commands are rejected by the dispatcher before this
        // point.
        _ => false,
    }
}
