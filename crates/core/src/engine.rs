//! The streaming engine.
//!
//! Advances all audio by one quantum per tick: remote parties and the
//! PSTN, then each active root LOUD's command queue (producing samples
//! from players/synthesizers), then the continuous producers (microphones
//! and telephone receive), the wire graph in topological order, and
//! finally the consumers (speakers, recorders, recognizers, telephone
//! transmit).
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
//!   stepped; every operation's position lives in its virtual device, so
//!   reactivation resumes exactly where deactivation paused.

use crate::core::{Core, ResKey};
use crate::plan::{DataPlane, EngineScratch, PlanCache, RoutePlan};
use crate::queue::{CmdState, QNode, RunNode};
use crate::sound::pcm_encoding;
use crate::vdevice::{ActiveOp, ClassState, HwBinding, VDev};
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
    }

    // 2. Network timers (ring timeout etc.). Relax: expiring timers
    //    queue human-timescale line events (busy, no-answer), not samples.
    crate::rt::relaxed(|| core.hw.pstn.tick(n8 as u64));

    // The data plane (cached plans + scratch buffers) is detached from
    // the core for the tick so its borrows never conflict with core
    // mutations. Nothing inside a tick changes topology, so the plans
    // stay valid for the whole tick.
    let mut plane = std::mem::take(&mut core.plane);
    core.tel.metrics.plan_cache_lookups_total.inc();
    let plan_started = std::time::Instant::now();
    // Relax: plan rebuild is the acknowledged slow path (topology epoch
    // bump only); steady-state ticks take the cached-plan early return.
    {
        let _relax = crate::rt::AllocRelax::scope();
        if plane.plans.ensure_fresh(core) {
            core.stats.plan_rebuilds += 1;
            core.tel.metrics.plan_cache_rebuilds_total.inc();
            core.tel.metrics.plan_build_us.record_duration_us(plan_started.elapsed());
        }
    }
    let DataPlane { plans, scratch } = &mut plane;

    // 3. Telephone line events fan out to the device LOUD and bound
    //    virtual devices.
    fan_out_line_events(core, plans);

    // 4. Command queues of active roots, in stack order.
    for i in 0..plans.active_roots.len() {
        step_queue(core, plans.active_roots[i], n8 as u64, scratch);
    }

    // 5. Continuous producers: microphones and telephone receive.
    produce_continuous(core, quantum, t, plans, scratch);

    // 6. Wires (and intermediate devices) in topological order per tree.
    for plan in &plans.routes {
        route_tree(core, plan, quantum, t, scratch);
    }

    // 7. Consumers: speakers, telephone transmit, recorders, recognizers.
    consume(core, quantum, t, plans, scratch);

    core.plane = plane;

    // Drain the per-tick DSP meter accumulated by the routing phases
    // into the leaf-timing histograms.
    let meter = core.plane.scratch.meter.take();
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


/// Appends samples to a port deque (or pooled staging buffer) under an
/// `AllocRelax` scope: these buffers reach steady capacity after warmup,
/// so steady-state extends never touch the allocator — the zero-alloc
/// suite pins that at exactly zero. Growth during warmup or after a
/// topology change is the justified exception.
fn port_extend(buf: &mut std::collections::VecDeque<i16>, samples: &[i16]) {
    let _relax = crate::rt::AllocRelax::scope();
    buf.extend(samples.iter().copied());
}

// ---------------------------------------------------------------------------
// Line events
// ---------------------------------------------------------------------------

// rt-ok(fn): call-progress fan-out runs per line event (human timescale), not per sample
fn fan_out_line_events(core: &mut Core, plans: &PlanCache) {
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
                for (_, v) in core.vdevs.iter_mut() {
                    if roots.contains(&v.root) {
                        if let Some(ActiveOp::Record { term, hangup_seen, .. }) = &mut v.op {
                            if matches!(term, RecordTermination::OnHangup) {
                                *hangup_seen = true;
                            }
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

fn step_queue(core: &mut Core, root: u32, budget_8k: u64, scratch: &mut EngineScratch) {
    let state = match core.queue_mut(root) {
        Some(q) => q.state(),
        None => return,
    };
    if state != QueueState::Started {
        return;
    }
    if let Some(q) = core.queue_mut(root) {
        q.relative_frames += budget_8k;
    }
    let mut budget = budget_8k;
    loop { // rt-ok: bounded by the tick budget; every iteration spends budget or breaks
        // Ensure something is running.
        let need_start = core
            .queue_mut(root)
            .map(|q| q.running.is_none() && !q.pending.is_empty())
            .unwrap_or(false);
        if need_start {
            let node = core.queue_mut(root).and_then(|q| q.pending.pop_front());
            if let Some(node) = node {
                let run = start_node(core, root, node, budget);
                if let Some(q) = core.queue_mut(root) {
                    q.running = Some(run);
                }
            }
        }
        let Some(q) = core.queue_mut(root) else { return };
        let Some(mut run) = q.running.take() else { return };
        let consumed = step_node(core, root, &mut run, budget, scratch);
        let done = run.done();
        let Some(q) = core.queue_mut(root) else { return };
        if !done {
            q.running = Some(run);
        }
        // A command failure (e.g. Dial hit a busy line) stops the queue.
        if core.queue_failures.contains(&root) {
            core.queue_failures.retain(|&r| r != root);
            stop_queue(core, root, QueueStopReason::Error);
            return;
        }
        if done {
            budget = budget.saturating_sub(consumed);
            if budget == 0 {
                return;
            }
            // Loop: start the successor within this tick (seamless).
            let Some(q) = core.queue_mut(root) else { return };
            if q.pending.is_empty() {
                return;
            }
        } else {
            return;
        }
    }
}

/// Starts a parsed node, returning its run state. `budget` is the 8 kHz
/// frame budget remaining in this tick (durational commands may begin
/// producing immediately).
// rt-ok(fn): node start allocates run state once per queue node, amortized over the op
fn start_node(core: &mut Core, root: u32, node: QNode, budget: u64) -> RunNode {
    // Relax: run state is built once per queue node, an op boundary.
    let _relax = crate::rt::AllocRelax::scope();
    match node {
        QNode::Cmd { vdev, cmd, index } => {
            core.tel.recorder.engine_stage(root, index, core.tick_index);
            let mut run = RunNode::Cmd { vdev, cmd, index, state: CmdState::Waiting };
            try_install(core, root, &mut run, budget);
            run
        }
        QNode::Par(children) => {
            let mut runs = Vec::with_capacity(children.len());
            for c in children {
                runs.push(start_node(core, root, c, budget));
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
fn try_install(core: &mut Core, root: u32, run: &mut RunNode, _budget: u64) {
    // Relax: command installation is an op boundary (one payload copy).
    let _relax = crate::rt::AllocRelax::scope();
    let RunNode::Cmd { vdev, cmd, index, state } = run else { return };
    if *state != CmdState::Waiting {
        return;
    }
    let vid = vdev.0;
    let Some(v) = core.vdevs.get(&vid) else {
        // Device vanished: treat as done.
        *state = CmdState::Done;
        return;
    };
    if v.root != root {
        *state = CmdState::Done;
        return;
    }
    if cmd.instantaneous() {
        let c = cmd.clone(); // rt-ok: one command-payload copy at install time, an op boundary
        apply_instant(core, vid, &c);
        *state = CmdState::Done;
        emit_command_done(core, root, vid, *index);
        return;
    }
    // Durational: the device must be free.
    if core.vdevs.get(&vid).map(|v| v.op.is_some()) == Some(true) {
        return; // stay Waiting
    }
    let op = make_op(core, vid, cmd);
    match op {
        Ok(Some(op)) => {
            if let Some(v) = core.vdevs.get_mut(&vid) {
                v.op = Some(op);
                v.abort_op = false;
            }
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
            stop_queue(core, root, QueueStopReason::Error);
        }
    }
}

/// Builds the active operation for a durational command.
// rt-ok(fn): op construction runs once at command start, never in the steady-state loop
fn make_op(core: &mut Core, vid: u32, cmd: &DeviceCommand) -> Result<Option<ActiveOp>, ()> {
    let Some(v) = core.vdevs.get(&vid) else { return Err(()) };
    match cmd {
        DeviceCommand::Play(sound) => {
            // Only a player plays: a hardware device's rate is its
            // binding's, never a sound's.
            if v.class != DeviceClass::Player {
                return Err(());
            }
            let Some(s) = core.sounds.get(&sound.0) else { return Err(()) };
            // The player emits at the sound's native rate; wires adapt
            // toward the consuming device (paper §5.1: players convert
            // sound data to the output port type).
            let rate = s.stype.sample_rate;
            let sid = sound.0;
            if let Some(v) = core.vdevs.get_mut(&vid) {
                v.rate = rate;
            }
            Ok(Some(ActiveOp::Play {
                sound: sid,
                pos: 0,
                started: false,
                underrun: 0,
                last_sync: 0,
            }))
        }
        DeviceCommand::Record(sound, term) => {
            if v.class != DeviceClass::Recorder {
                return Err(());
            }
            let Some(s) = core.sounds.get_mut(&sound.0) else { return Err(()) };
            s.reset_for_recording();
            let rate = s.stype.sample_rate;
            let pause = match term {
                RecordTermination::OnPause { threshold, min_silence_frames } => {
                    PauseDetector::new(*threshold, *min_silence_frames)
                }
                _ => PauseDetector::new(0, u64::MAX),
            };
            let sid = sound.0;
            let term = *term;
            // Device controls select the optional recorder behaviours the
            // paper lists as attributes (§5.1): AGC and pause compression.
            let control_on = |v: &VDev, name: &str| {
                core.atoms
                    .lookup(name)
                    .and_then(|a| v.controls.get(&a))
                    .map(|val| !val.is_empty() && val[0] != 0)
                    .unwrap_or(false)
            };
            let (agc, compress_pauses) = {
                let v = core.vdevs.get(&vid).expect("checked");
                let agc = if control_on(v, "AGC") {
                    Some(Box::new(da_dsp::agc::Agc::new(rate, 16_000)))
                } else {
                    None
                };
                (agc, control_on(v, "PAUSE_COMPRESSION"))
            };
            if let Some(v) = core.vdevs.get_mut(&vid) {
                v.rate = rate;
            }
            Ok(Some(ActiveOp::Record {
                sound: sid,
                frames: 0,
                term,
                pause,
                skip: 0,
                started: false,
                hangup_seen: false,
                last_sync: 0,
                agc,
                compress_pauses,
            }))
        }
        DeviceCommand::Dial(number) => {
            if v.class != DeviceClass::Telephone {
                return Err(());
            }
            Ok(Some(ActiveOp::Dial { number: number.clone(), issued: false }))
        }
        DeviceCommand::Answer => {
            if v.class != DeviceClass::Telephone {
                return Err(());
            }
            Ok(Some(ActiveOp::Answer))
        }
        DeviceCommand::SpeakText(text) => {
            let rendered = match &v.state {
                ClassState::Synth(s) => s.speak(text),
                _ => return Err(()),
            };
            Ok(Some(ActiveOp::Render { buf: rendered, pos: 0 }))
        }
        DeviceCommand::PlayNote(n) => {
            let rendered = match &v.state {
                ClassState::Music(m) => m.note(n.note, n.velocity, n.duration_ms),
                _ => return Err(()),
            };
            Ok(Some(ActiveOp::Render { buf: rendered, pos: 0 }))
        }
        DeviceCommand::SendDtmf(digits) => {
            if v.class != DeviceClass::Telephone {
                return Err(());
            }
            let buf = da_dsp::dtmf::dial_string(v.rate, digits, 12000);
            Ok(Some(ActiveOp::SendDtmf { buf, pos: 0 }))
        }
        _ => {
            // Non-durational commands never reach here.
            Ok(None)
        }
    }
}

/// Steps a running node within the tick budget (8 kHz frames); returns
/// frames of budget consumed.
fn step_node(
    core: &mut Core,
    root: u32,
    run: &mut RunNode,
    budget: u64,
    scratch: &mut EngineScratch,
) -> u64 {
    match run {
        RunNode::Cmd { .. } => {
            let waiting = matches!(run, RunNode::Cmd { state: CmdState::Waiting, .. });
            if waiting {
                try_install(core, root, run, budget);
            }
            let RunNode::Cmd { vdev, index, state, .. } = run else { unreachable!() };
            if *state != CmdState::Running {
                return 0;
            }
            let vid = vdev.0;
            let idx = *index;
            let (consumed, done) = step_device_op(core, vid, budget, scratch);
            if done {
                *state = CmdState::Done;
                emit_command_done(core, root, vid, idx);
            }
            consumed
        }
        RunNode::Par { children } => {
            let mut max_consumed = 0;
            for c in children.iter_mut() {
                if !c.done() {
                    let used = step_node(core, root, c, budget, scratch);
                    max_consumed = max_consumed.max(used);
                }
            }
            max_consumed
        }
        RunNode::Delay { remaining, body, current } => {
            let mut used = 0;
            if *remaining > 0 {
                let wait = (*remaining).min(budget);
                *remaining -= wait;
                used += wait;
                if *remaining > 0 {
                    return used;
                }
            }
            // Delay elapsed: run the body sequentially with the leftover
            // budget.
            let mut left = budget - used;
            loop { // rt-ok: bounded by the leftover tick budget, spent or broken each pass
                if current.is_none() {
                    match body.pop_front() {
                        Some(node) => {
                            {
                                // Relax: op boundary, one box per node start.
                                let _relax = crate::rt::AllocRelax::scope();
                                *current = Some(Box::new(start_node(core, root, node, left))) // rt-ok: one box per delay-body node start, an op boundary
                            }
                        }
                        None => break,
                    }
                }
                let cur = current.as_mut().expect("just set");
                let step_used = step_node(core, root, cur, left, scratch);
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
            used
        }
    }
}

/// A lightweight classification of the op on a device, snapshotted so the
/// mutable borrow of the device does not overlap other core accesses.
enum OpSnap {
    Play { sound: u32, pos: u64, started: bool },
    Render,
    Record { started: bool, sound: u32 },
    Dial { issued: bool },
    Answer,
    SendDtmf,
}

/// Steps the active operation on one device. Returns (budget consumed in
/// 8 kHz frames, completed). Queue-stopping failures (a dial that got
/// busy) are pushed onto `core.queue_failures`.
fn step_device_op(
    core: &mut Core,
    vid: u32,
    budget: u64,
    scratch: &mut EngineScratch,
) -> (u64, bool) {
    // Snapshot scalar device state first; all borrows are sequential.
    let (abort, paused, rate, gain, sync_every, binding, root) = {
        let Some(v) = core.vdevs.get(&vid) else { return (0, true) };
        (
            v.abort_op,
            v.paused,
            v.rate.max(1) as u64,
            v.gain_milli,
            v.sync_every(),
            v.binding,
            v.root,
        )
    };
    if abort {
        let op = {
            let v = core.vdevs.get_mut(&vid).expect("checked");
            v.abort_op = false;
            v.op.take()
        };
        finish_aborted_op(core, vid, op);
        return (0, true);
    }
    if paused {
        // Paused devices hold position but consume real time.
        return (budget, false);
    }
    let demand = budget * rate / 8000;
    let snap = {
        let Some(v) = core.vdevs.get(&vid) else { return (0, true) };
        match &v.op {
            None => return (0, true),
            Some(ActiveOp::Play { sound, pos, started, .. }) => {
                OpSnap::Play { sound: *sound, pos: *pos, started: *started }
            }
            Some(ActiveOp::Render { .. }) => OpSnap::Render,
            Some(ActiveOp::Record { started, sound, .. }) => {
                OpSnap::Record { started: *started, sound: *sound }
            }
            Some(ActiveOp::Dial { issued, .. }) => OpSnap::Dial { issued: *issued },
            Some(ActiveOp::Answer) => OpSnap::Answer,
            Some(ActiveOp::SendDtmf { .. }) => OpSnap::SendDtmf,
        }
    };
    match snap {
        OpSnap::Play { sound: sid, pos: from, started: was_started } => {
            let Some(snd) = core.sounds.get(&sid) else {
                if let Some(v) = core.vdevs.get_mut(&vid) {
                    v.op = None;
                }
                return (0, true);
            };
            let avail = snd.len_frames();
            let complete = snd.complete;
            let want = demand.min(avail.saturating_sub(from));
            let mut samples = scratch.take_i16();
            // Decode through the shared store: complete sounds hit the
            // transcode cache (one full decode ever, then slice copies —
            // DESIGN.md §17); streaming sounds fall back to a direct
            // windowed decode. Only real conversion work (the fallback
            // decode or the one-time cache build) is metered — a cache
            // hit is a copy, not a transcode.
            core.store.decode_window(snd, from, want, &mut samples, &mut scratch.meter.convert_ns);
            let got = samples.len() as u64;
            da_dsp::gain::apply(&mut samples, gain);
            let mut missing = 0u64;
            let mut finished = false;
            // Budget consumed in real time; position only advances over
            // data actually played.
            let mut budget_frames = got;
            if got < demand {
                if complete {
                    finished = true;
                } else {
                    // Streaming underrun: substitute silence for the rest
                    // of the tick and *wait* — the stream position holds
                    // so late data still plays (paper §6.2: the client
                    // trades buffering against latency; the server keeps
                    // the clock honest and reports the starvation).
                    missing = demand - got;
                    // Pooled scratch; capacity amortizes over underruns.
                    crate::rt::relaxed(|| samples.extend(std::iter::repeat_n(0, missing as usize)));
                    budget_frames = demand;
                }
            }
            let new_pos = from + got;
            let mut sync_pos = None;
            {
                let v = core.vdevs.get_mut(&vid).expect("checked");
                port_extend(&mut v.src_bufs[0], &samples);
                if let Some(ActiveOp::Play { pos, started, underrun, last_sync, .. }) =
                    v.op.as_mut()
                {
                    *pos = new_pos;
                    *started = true;
                    *underrun += missing;
                    if new_pos.saturating_sub(*last_sync) >= sync_every {
                        *last_sync = new_pos;
                        sync_pos = Some(new_pos);
                    }
                }
                if finished {
                    v.op = None;
                }
            }
            scratch.put_i16(samples);
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
            (budget_frames * 8000 / rate, finished)
        }
        OpSnap::Render => {
            let mut chunk = scratch.take_i16();
            let finished = {
                let v = core.vdevs.get_mut(&vid).expect("checked");
                let Some(ActiveOp::Render { buf, pos }) = v.op.as_mut() else {
                    scratch.put_i16(chunk);
                    return (0, true);
                };
                let want = (demand as usize).min(buf.len() - *pos);
                // Pooled scratch reaches steady capacity after warmup.
                crate::rt::relaxed(|| chunk.extend_from_slice(&buf[*pos..*pos + want]));
                *pos += want;
                *pos >= buf.len()
            };
            let want = chunk.len();
            da_dsp::gain::apply(&mut chunk, gain);
            {
                let v = core.vdevs.get_mut(&vid).expect("checked");
                port_extend(&mut v.src_bufs[0], &chunk);
                if finished {
                    v.op = None;
                }
            }
            scratch.put_i16(chunk);
            (want as u64 * 8000 / rate, finished)
        }
        OpSnap::Record { started, sound: sid } => {
            if !started {
                // Frames of this tick that elapsed before we started:
                // skip them so the recording begins exactly at the seam.
                let n8 = frames_this_tick(8000, core.config.quantum_us, core.tick_index) as u64;
                let skip_frames = (n8 - budget.min(n8)) * rate / 8000;
                {
                    let v = core.vdevs.get_mut(&vid).expect("checked");
                    if let Some(ActiveOp::Record { started, skip, .. }) = v.op.as_mut() {
                        *started = true;
                        *skip = skip_frames;
                    }
                }
                core.send_event(
                    ResKey(1, vid),
                    Event::RecordStarted { vdev: VDeviceId(vid), sound: SoundId(sid) },
                );
                return (budget, false);
            }
            let done = core.vdevs.get(&vid).map(record_should_stop).unwrap_or(true);
            if done {
                let op = core.vdevs.get_mut(&vid).and_then(|v| v.op.take());
                finish_record(core, vid, op, RecordStopReason::Manual);
                (0, true)
            } else {
                (budget, false)
            }
        }
        OpSnap::Dial { issued } => {
            let line = match binding {
                Some(HwBinding::Line(l)) => l,
                _ => {
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    return (0, true);
                }
            };
            if !issued {
                // Relax: dialing starts a call — an op boundary; the PSTN
                // copies the number and queues line events once per dial.
                let _relax = crate::rt::AllocRelax::scope();
                // Disjoint borrows: the number stays on the device while
                // the line dials it (no clone).
                let Core { vdevs, hw, .. } = core;
                if let Some(ActiveOp::Dial { number, issued }) =
                    vdevs.get_mut(&vid).and_then(|v| v.op.as_mut())
                {
                    hw.pstn.off_hook(line);
                    hw.pstn.dial(line, number);
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
                return (0, false);
            }
            match core.hw.pstn.state(line) {
                da_hw::pstn::LineState::Connected => {
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    (0, true)
                }
                da_hw::pstn::LineState::HearingBusy => {
                    // Busy or no answer: the command fails and the queue
                    // stops with an error.
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    {
                        // Relax: device-op failure is an error path.
                        let _relax = crate::rt::AllocRelax::scope();
                        core.queue_failures.push(root); // rt-ok: error path; capacity amortizes over rare failures
                    }
                    (0, true)
                }
                _ => (budget, false),
            }
        }
        OpSnap::Answer => {
            let line = match binding {
                Some(HwBinding::Line(l)) => l,
                _ => {
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    return (0, true);
                }
            };
            match core.hw.pstn.state(line) {
                da_hw::pstn::LineState::Ringing => {
                    // Relax: answering a call is an op boundary; the
                    // PSTN queues one Connected event per answer.
                    crate::rt::relaxed(|| core.hw.pstn.answer(line));
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    core.send_event(
                        ResKey(1, vid),
                        Event::CallProgress {
                            device: ResourceId::VDevice(VDeviceId(vid)),
                            state: CallState::Connected,
                            caller_id: None,
                        },
                    );
                    (0, true)
                }
                da_hw::pstn::LineState::Connected => {
                    if let Some(v) = core.vdevs.get_mut(&vid) {
                        v.op = None;
                    }
                    (0, true)
                }
                _ => (budget, false),
            }
        }
        OpSnap::SendDtmf => {
            // Tones are overlaid onto the transmit path in the consume
            // phase; here we only track duration and handle the no-call
            // case (advance so the command cannot wedge the queue).
            let line_connected = match binding {
                Some(HwBinding::Line(l)) => {
                    core.hw.pstn.state(l) == da_hw::pstn::LineState::Connected
                }
                _ => false,
            };
            let (want, finished) = {
                let v = core.vdevs.get_mut(&vid).expect("checked");
                let Some(ActiveOp::SendDtmf { buf, pos }) = v.op.as_mut() else {
                    return (0, true);
                };
                let want = (demand as usize).min(buf.len() - *pos);
                if !line_connected {
                    *pos += want;
                }
                let finished = *pos >= buf.len();
                if finished {
                    v.op = None;
                }
                (want, finished)
            };
            (want as u64 * 8000 / rate, finished)
        }
    }
}

fn record_should_stop(v: &VDev) -> bool {
    match &v.op {
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

fn finish_aborted_op(core: &mut Core, vid: u32, op: Option<ActiveOp>) {
    finish_record(core, vid, op, RecordStopReason::Manual);
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
pub fn stop_queue(core: &mut Core, root: u32, reason: QueueStopReason) {
    // Relax: queue stop is an op boundary (StopQueue or error path).
    let _relax = crate::rt::AllocRelax::scope();
    let running = core.queue_mut(root).and_then(|q| q.running.take());
    if let Some(run) = running {
        let mut devices = Vec::new();
        run.running_devices(&mut devices);
        for d in devices {
            let op = core.vdevs.get_mut(&d.0).and_then(|v| {
                v.clear_ports();
                v.op.take()
            });
            finish_aborted_op(core, d.0, op);
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
    quantum: u64,
    tick: u64,
    plans: &PlanCache,
    scratch: &mut EngineScratch,
) {
    for i in 0..plans.producers.len() {
        let vid = plans.producers[i];
        let Some(v) = core.vdevs.get(&vid) else { continue };
        if v.paused {
            continue;
        }
        match (v.class, v.binding) {
            (DeviceClass::Input, Some(HwBinding::Microphone(m))) => {
                let rate = v.rate;
                let gain = v.gain_milli;
                let n = frames_this_tick(rate, quantum, tick);
                let mut samples = scratch.take_i16();
                // Fills a pooled buffer; capacity amortizes after warmup.
                crate::rt::relaxed(|| core.hw.microphones[m].pull_into(n, &mut samples));
                da_dsp::gain::apply(&mut samples, gain);
                if let Some(v) = core.vdevs.get_mut(&vid) {
                    if !v.src_bufs.is_empty() {
                        port_extend(&mut v.src_bufs[0], &samples);
                    }
                }
                scratch.put_i16(samples);
            }
            (DeviceClass::Telephone, Some(HwBinding::Line(l))) => {
                let n = frames_this_tick(da_hw::pstn::LINE_RATE, quantum, tick);
                let mut samples = scratch.take_i16();
                // Fills a pooled buffer; capacity amortizes after warmup.
                crate::rt::relaxed(|| core.hw.pstn.read_rx_into(l, n, &mut samples));
                // In-band DTMF detection on received audio.
                let mut digits = Vec::new();
                if let Some(v) = core.vdevs.get_mut(&vid) {
                    if let ClassState::Telephone(t) = &mut v.state {
                        digits = {
                            // Relax: digits materialize on keypresses only.
                            let _relax = crate::rt::AllocRelax::scope();
                            t.dtmf.push(&samples) // rt-ok: detector is buffer-reusing; returns digits only on a keypress
                        };
                    }
                    if !v.src_bufs.is_empty() {
                        port_extend(&mut v.src_bufs[0], &samples);
                    }
                }
                scratch.put_i16(samples);
                for d in digits {
                    core.send_event(
                        ResKey(1, vid),
                        Event::DtmfReceived {
                            device: ResourceId::VDevice(VDeviceId(vid)),
                            digit: d,
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
fn route_tree(
    core: &mut Core,
    plan: &RoutePlan,
    quantum: u64,
    tick: u64,
    scratch: &mut EngineScratch,
) {
    for dev in &plan.order {
        let vid = dev.vid;
        // Intermediate devices transform sinks to sources first.
        process_intermediate(core, vid, quantum, tick, scratch);
        let src_rate = core.vdevs.get(&vid).map(|v| v.rate).unwrap_or(8000);
        for pp in &dev.ports {
            let mut samples = scratch.take_i16();
            match core.vdevs.get_mut(&vid) {
                Some(v) if (pp.port as usize) < v.src_bufs.len() => {
                    let buf = &mut v.src_bufs[pp.port as usize];
                    let (a, b) = buf.as_slices();
                    // Pooled scratch; capacity amortizes after warmup.
                    crate::rt::relaxed(|| {
                        samples.extend_from_slice(a);
                        samples.extend_from_slice(b);
                    });
                    buf.clear();
                }
                _ => {
                    scratch.put_i16(samples);
                    continue;
                }
            }
            for pw in &pp.wires {
                let dst_rate = core.vdevs.get(&pw.dst).map(|v| v.rate).unwrap_or(8000);
                // Same-rate wires skip the staging copy entirely; a rate
                // change drops any stale resampler, exactly as
                // `Wire::transfer` would.
                let mut staged = if src_rate == dst_rate {
                    None
                } else {
                    Some(scratch.take_i16())
                };
                match core.wires.get_mut(&pw.wire) {
                    Some(w) => match &mut staged {
                        None => w.resampler = None,
                        Some(out) => da_dsp::meter::DspMeter::timed(
                            &mut scratch.meter.resample_ns,
                            // Resamples into a pooled buffer; capacity
                            // amortizes after warmup (first transfer also
                            // boxes the wire's lazy resampler state).
                            || {
                                crate::rt::relaxed(|| {
                                    w.transfer_into(&samples, src_rate, dst_rate, out)
                                })
                            },
                        ),
                    },
                    None => {
                        if let Some(out) = staged {
                            scratch.put_i16(out);
                        }
                        continue;
                    }
                }
                if let Some(v) = core.vdevs.get_mut(&pw.dst) {
                    if (pw.dst_port as usize) < v.sink_bufs.len() {
                        let sink = &mut v.sink_bufs[pw.dst_port as usize];
                        match &staged {
                            None => port_extend(sink, &samples),
                            Some(out) => port_extend(sink, out),
                        }
                    }
                }
                if let Some(out) = staged {
                    scratch.put_i16(out);
                }
            }
            scratch.put_i16(samples);
        }
    }
}

/// Adds up to `demand` samples from a sink buffer into `acc`, scaled by
/// `pct` percent, using the deque's slices directly (no per-sample
/// pops). Returns how many samples were read.
fn accumulate_scaled(
    buf: &std::collections::VecDeque<i16>,
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

fn process_intermediate(
    core: &mut Core,
    vid: u32,
    quantum: u64,
    tick: u64,
    scratch: &mut EngineScratch,
) {
    let Some(v) = core.vdevs.get_mut(&vid) else { return };
    if v.paused {
        return;
    }
    let demand = frames_this_tick(v.rate, quantum, tick);
    // Destructure the device so the class state, port buffers and gain
    // borrow disjointly: no clones of mixer gains or crossbar routes.
    let VDev { state, sink_bufs, src_bufs, gain_milli, .. } = v;
    match state {
        ClassState::Mixer { gains } => {
            let mut mix = scratch.take_i32();
            // Pooled accumulator; capacity amortizes after warmup.
            crate::rt::relaxed(|| mix.resize(demand, 0));
            for (port, pct) in gains.iter().enumerate() {
                if port >= sink_bufs.len() {
                    break;
                }
                let took = accumulate_scaled(&sink_bufs[port], demand, *pct as i32, &mut mix);
                sink_bufs[port].drain(..took);
            }
            let mut out = scratch.take_i16();
            // Pooled staging; capacity amortizes after warmup.
            crate::rt::relaxed(|| {
                out.extend(mix.iter().map(|&s| s.clamp(i16::MIN as i32, i16::MAX as i32) as i16))
            });
            da_dsp::gain::apply(&mut out, *gain_milli);
            if !src_bufs.is_empty() {
                port_extend(&mut src_bufs[0], &out);
            }
            scratch.put_i16(out);
            scratch.put_i32(mix);
        }
        ClassState::Crossbar { routes } => {
            // Several routes may tap one input, so inputs are read first
            // and drained only after every output is built. One pooled
            // accumulator serves all outputs in turn.
            let n_sinks = sink_bufs.len();
            let mut acc = scratch.take_i32();
            let mut out = scratch.take_i16();
            for (port, src) in src_bufs.iter_mut().enumerate() {
                acc.clear();
                // Pooled accumulator; capacity amortizes after warmup.
                crate::rt::relaxed(|| acc.resize(demand, 0));
                for &(i, o) in routes.iter() {
                    if o as usize != port || i as usize >= n_sinks {
                        continue;
                    }
                    accumulate_scaled(&sink_bufs[i as usize], demand, 100, &mut acc);
                }
                out.clear();
                // Pooled staging; capacity amortizes after warmup.
                crate::rt::relaxed(|| {
                    out.extend(acc.iter().map(|&s| s.clamp(i16::MIN as i32, i16::MAX as i32) as i16))
                });
                port_extend(src, &out);
            }
            for buf in sink_bufs.iter_mut() {
                let take = buf.len().min(demand);
                buf.drain(..take);
            }
            scratch.put_i16(out);
            scratch.put_i32(acc);
        }
        ClassState::Dsp { effect } => {
            // The extension point for new signal-processing algorithms
            // (paper §5.1 leaves DSP commands unspecified; the EFFECT
            // device control selects behaviour).
            let take = sink_bufs.first().map(|b| b.len()).unwrap_or(0);
            if take > 0 && !src_bufs.is_empty() {
                let mut data = scratch.take_i16();
                let buf = &mut sink_bufs[0];
                let (a, b) = buf.as_slices();
                // Pooled scratch; capacity amortizes after warmup.
                crate::rt::relaxed(|| {
                    data.extend_from_slice(a);
                    data.extend_from_slice(b);
                });
                buf.clear();
                match effect {
                    crate::vdevice::DspEffect::PassThrough => {}
                    crate::vdevice::DspEffect::Echo(e) => e.process(&mut data),
                    crate::vdevice::DspEffect::LowPass(lp) => lp.process(&mut data),
                }
                da_dsp::gain::apply(&mut data, *gain_milli);
                port_extend(&mut src_bufs[0], &data);
                scratch.put_i16(data);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------------

fn consume(core: &mut Core, quantum: u64, tick: u64, plans: &PlanCache, scratch: &mut EngineScratch) {
    // Speaker accumulators persist in the scratch pool across ticks so
    // their capacity is paid once.
    let n_speakers = core.hw.speakers.len();
    // Speaker staging buffers reach steady capacity after warmup.
    {
        let _relax = crate::rt::AllocRelax::scope();
        scratch.speaker_acc.resize_with(n_speakers, Vec::new);
        scratch.speaker_fed.clear();
        scratch.speaker_fed.resize(n_speakers, false);
        for s in 0..n_speakers {
            let rate = core.hw.speakers[s].rate();
            let ch = core.hw.speakers[s].channels().max(1) as usize;
            let frames = frames_this_tick(rate, quantum, tick);
            scratch.speaker_acc[s].clear();
            scratch.speaker_acc[s].resize(frames * ch, 0);
        }
    }

    for i in 0..plans.consumers.len() {
        let vid = plans.consumers[i];
        let Some(v) = core.vdevs.get(&vid) else { continue };
        if v.paused {
            continue;
        }
        match (v.class, v.binding) {
            (DeviceClass::Output, Some(HwBinding::Speaker(s))) => {
                let rate = v.rate;
                let ch = core.hw.speakers[s].channels().max(1) as usize;
                let frames = frames_this_tick(rate, quantum, tick);
                let gain = v.gain_milli;
                let Some(v) = core.vdevs.get_mut(&vid) else { continue };
                let had = v.sink_bufs[0].len();
                if had == 0 {
                    continue;
                }
                let take = had.min(frames);
                let mut data = scratch.take_i16();
                let (a, b) = v.sink_bufs[0].as_slices();
                let from_a = take.min(a.len());
                // Pooled scratch; capacity amortizes after warmup.
                crate::rt::relaxed(|| {
                    data.extend_from_slice(&a[..from_a]);
                    data.extend_from_slice(&b[..take - from_a]);
                });
                v.sink_bufs[0].drain(..take);
                da_dsp::gain::apply(&mut data, gain);
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
                let Some(v) = core.vdevs.get_mut(&vid) else { continue };
                let mut data = scratch.take_i16();
                v.drain_sink_into(0, frames, &mut data);
                // Overlay in-flight DTMF.
                let mut dtmf_done = false;
                if let Some(ActiveOp::SendDtmf { buf, pos }) = &mut v.op {
                    let want = frames.min(buf.len() - *pos);
                    let chunk = &buf[*pos..*pos + want];
                    da_dsp::meter::DspMeter::timed(&mut scratch.meter.mix_ns, || {
                        da_dsp::mix::mix_into(&mut data[..want], chunk, 100)
                    });
                    *pos += want;
                    dtmf_done = *pos >= buf.len();
                }
                if dtmf_done {
                    // Leave op present but exhausted; the queue's step
                    // observes completion via step_device_op.
                }
                // Line tx deque reaches steady capacity after warmup.
                crate::rt::relaxed(|| core.hw.pstn.write_tx(l, &data));
                scratch.put_i16(data);
            }
            (DeviceClass::Recorder, _) => {
                consume_recorder(core, vid, quantum, tick, scratch);
            }
            (DeviceClass::SpeechRecognizer, _) => {
                let Some(v) = core.vdevs.get_mut(&vid) else { continue };
                if v.sink_bufs[0].is_empty() {
                    continue;
                }
                let mut data = scratch.take_i16();
                let (a, b) = v.sink_bufs[0].as_slices();
                // Pooled scratch; capacity amortizes after warmup.
                crate::rt::relaxed(|| {
                    data.extend_from_slice(a);
                    data.extend_from_slice(b);
                });
                v.sink_bufs[0].clear();
                let results = match &mut v.state {
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
                        ResKey(1, vid),
                        Event::WordRecognized {
                            vdev: VDeviceId(vid),
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
        // Pooled staging; capacity amortizes after warmup.
        crate::rt::relaxed(|| {
            data.extend(acc.iter().map(|&v| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16))
        });
        let frames = data.len() as u64 / core.hw.speakers[s].channels().max(1) as u64;
        // Relax: the speaker's optional waveform-capture tap is test
        // instrumentation; rendering itself buffers nothing.
        crate::rt::relaxed(|| core.hw.speakers[s].render(data, scratch.speaker_fed[s], 0));
        core.stats.speaker_frames += frames;
    }
}

fn consume_recorder(core: &mut Core, vid: u32, quantum: u64, tick: u64, scratch: &mut EngineScratch) {
    let Some(v) = core.vdevs.get_mut(&vid) else { return };
    if v.op.is_none() {
        // Not recording: discard arriving audio so a later Record starts
        // from the seam, not from stale buffered input.
        v.sink_bufs[0].clear();
        return;
    }
    let rate = v.rate;
    let demand = frames_this_tick(rate, quantum, tick);
    let avail = v.sink_bufs[0].len();
    let take = avail.min(demand + 8); // drain small resampling leads too
    if take == 0 {
        return;
    }
    let mut data = scratch.take_i16();
    {
        let (a, b) = v.sink_bufs[0].as_slices();
        let from_a = take.min(a.len());
        // Pooled scratch; capacity amortizes after warmup.
        crate::rt::relaxed(|| {
            data.extend_from_slice(&a[..from_a]);
            data.extend_from_slice(&b[..take - from_a]);
        });
    }
    v.sink_bufs[0].drain(..take);
    let (sid, sync_every) = {
        let sync_every = v.sync_every();
        match &mut v.op {
            Some(ActiveOp::Record { sound, skip, frames, term, agc, .. }) => {
                if *skip > 0 {
                    let drop = (*skip as usize).min(data.len());
                    data.drain(..drop);
                    *skip -= drop as u64;
                }
                // MaxFrames terminations are sample-exact: clamp the
                // chunk to the remaining allowance.
                if let RecordTermination::MaxFrames(n) = term {
                    let left = n.saturating_sub(*frames) as usize;
                    data.truncate(left);
                }
                if let Some(agc) = agc {
                    agc.process(&mut data);
                }
                (*sound, sync_every)
            }
            _ => {
                scratch.put_i16(data);
                return;
            }
        }
    };
    if data.is_empty() {
        scratch.put_i16(data);
        return;
    }
    let mut sync_pos = None;
    let stype = match core.sounds.get(&sid) {
        Some(s) => s.stype,
        None => {
            scratch.put_i16(data);
            return;
        }
    };
    let mut encoded = scratch.take_u8();
    da_dsp::meter::DspMeter::timed(&mut scratch.meter.convert_ns, || {
        // Encodes into a pooled buffer; capacity amortizes after warmup.
        crate::rt::relaxed(|| {
            da_dsp::convert::encode_from_pcm16_into(pcm_encoding(stype.encoding), &data, &mut encoded)
        })
    });
    if let Some(s) = core.sounds.get_mut(&sid) {
        // Accumulating encoded audio IS the recording; growth is the
        // operation itself, not an accident of the tick loop.
        crate::rt::relaxed(|| s.data.extend_from_slice(&encoded));
    }
    scratch.put_u8(encoded);
    let mut reached_limit = false;
    if let Some(v) = core.vdevs.get_mut(&vid) {
        if let Some(ActiveOp::Record { frames, pause, last_sync, term, .. }) = &mut v.op {
            *frames += data.len() as u64;
            {
            // Relax: window buffer reaches steady capacity after warmup.
            let _relax = crate::rt::AllocRelax::scope();
            pause.push(&data); // rt-ok: pause detector reuses its window buffer; no per-tick growth
        }
            if let RecordTermination::MaxFrames(n) = term {
                reached_limit = *frames >= *n;
            }
            if frames.saturating_sub(*last_sync) >= sync_every {
                *last_sync = *frames;
                sync_pos = Some(*frames);
            }
        }
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
        let op = core.vdevs.get_mut(&vid).and_then(|v| v.op.take());
        finish_record(core, vid, op, RecordStopReason::MaxFrames);
    }
}

// ---------------------------------------------------------------------------
// Immediate commands (paper §5.1 immediate mode)
// ---------------------------------------------------------------------------

/// Applies an instantaneous (or immediate-mode) command to a device.
/// Returns `false` if the command does not apply to the device's class.
// rt-ok(fn): instantaneous commands execute at op boundaries; clones copy command payloads once
pub fn apply_instant(core: &mut Core, vid: u32, cmd: &DeviceCommand) -> bool {
    // Relax: instantaneous commands execute at op boundaries.
    let _relax = crate::rt::AllocRelax::scope();
    let Some(v) = core.vdevs.get_mut(&vid) else { return false };
    match cmd {
        DeviceCommand::Stop => {
            let op = v.op.take();
            v.abort_op = false;
            v.clear_ports();
            // A telephone Stop hangs up (paper §5.1 telephone commands).
            if let Some(HwBinding::Line(l)) = v.binding {
                core.hw.pstn.on_hook(l);
                finish_aborted_op(core, vid, op);
                core.send_event(
                    ResKey(1, vid),
                    Event::CallProgress {
                        device: ResourceId::VDevice(VDeviceId(vid)),
                        state: CallState::HungUp,
                        caller_id: None,
                    },
                );
            } else {
                finish_aborted_op(core, vid, op);
            }
            true
        }
        DeviceCommand::Pause => {
            v.paused = true;
            true
        }
        DeviceCommand::Resume => {
            v.paused = false;
            true
        }
        DeviceCommand::ChangeGain(g) => {
            v.gain_milli = *g;
            true
        }
        DeviceCommand::SetMixGain { input, percent } => match &mut v.state {
            ClassState::Mixer { gains } => {
                if let Some(g) = gains.get_mut(*input as usize) {
                    *g = (*percent).min(100);
                }
                true
            }
            _ => false,
        },
        DeviceCommand::SetTextLanguage(lang) => match &mut v.state {
            ClassState::Synth(s) => {
                s.set_language(lang);
                true
            }
            _ => false,
        },
        DeviceCommand::SetVoiceValues { rate_wpm, pitch_hz } => match &mut v.state {
            ClassState::Synth(s) => {
                s.set_values(*rate_wpm, *pitch_hz);
                true
            }
            _ => false,
        },
        DeviceCommand::SetExceptionList(list) => match &mut v.state {
            ClassState::Synth(s) => {
                s.set_exception_list(list);
                true
            }
            _ => false,
        },
        DeviceCommand::Train { word, template } => {
            let tid = template.0;
            let word = word.clone();
            let samples = match core.sounds.get(&tid) {
                Some(s) => s.decode_frames(0, s.len_frames()),
                None => return false,
            };
            let Some(v) = core.vdevs.get_mut(&vid) else { return false };
            match &mut v.state {
                ClassState::Recognizer(r) => {
                    r.train(&word, &samples);
                    true
                }
                _ => false,
            }
        }
        DeviceCommand::SetVocabulary(words) => match &mut v.state {
            ClassState::Recognizer(r) => {
                r.set_vocabulary(words);
                true
            }
            _ => false,
        },
        DeviceCommand::AdjustContext(bias) => match &mut v.state {
            ClassState::Recognizer(r) => {
                r.adjust_context(*bias);
                true
            }
            _ => false,
        },
        DeviceCommand::SaveVocabulary(name) => {
            let blob = match &v.state {
                ClassState::Recognizer(r) => r.save(),
                _ => return false,
            };
            let name = name.clone();
            core.catalogs.insert(
                "vocabularies",
                &name,
                da_proto::types::SoundType::TELEPHONE,
                blob,
            );
            true
        }
        DeviceCommand::SetVoice(voice) => match &mut v.state {
            ClassState::Music(m) => m.set_voice(voice),
            _ => false,
        },
        DeviceCommand::SetMusicState { tempo_bpm } => match &mut v.state {
            ClassState::Music(m) => {
                m.set_tempo(*tempo_bpm);
                true
            }
            _ => false,
        },
        DeviceCommand::SetRoutes(routes) => match &mut v.state {
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
            if v.class != DeviceClass::Telephone {
                return false;
            }
            let tones = da_dsp::dtmf::dial_string(v.rate, digits, 12000);
            match &mut v.op {
                Some(ActiveOp::SendDtmf { buf, .. }) => buf.extend(tones),
                Some(_) => return false,
                None => v.op = Some(ActiveOp::SendDtmf { buf: tones, pos: 0 }),
            }
            true
        }
        // Queued-only commands are rejected by the dispatcher before this
        // point.
        _ => false,
    }
}
