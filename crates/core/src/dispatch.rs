//! Request dispatch.
//!
//! Decodes and executes one request at a time against the core. Requests
//! are asynchronous; replies are generated only for queries, and errors
//! are queued back to the client with the failing request's sequence
//! number (paper §4.1).

use crate::core::{res_key, Core, ResKey, ServerMsg};
use crate::engine;
use crate::loud::Loud;
use crate::queue::TypedQueue;
use crate::sound::Sound;
use crate::vdevice::VDev;
use crate::wire::Wire;
use da_proto::error::{ErrorCode, ProtoError};
use da_proto::event::Event;
use da_proto::ids::{ClientId, LoudId, ResourceId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{DeviceClass, PortDir, Property, QueueState, WireType};

type DispatchResult = Result<Option<Reply>, ProtoError>;

fn err(code: ErrorCode, value: u32, detail: impl Into<String>) -> ProtoError {
    ProtoError::new(code, value, detail)
}

/// Whether `id` is inside `client`'s allocated id range.
fn owns_id(client: ClientId, id: u32) -> bool {
    id >> 20 == client.0 && id & 0x000F_FFFF != 0
}

/// Executes one request for a client, sending any reply or error to the
/// client's channel.
pub fn dispatch(core: &mut Core, client: ClientId, seq: u32, request: Request) {
    let started = std::time::Instant::now();
    let op = request.opcode();
    core.tel.recorder.dispatch_begin(client.0, seq);
    let _span = da_telemetry::span!(core.tel.journal, "dispatch", client = client.0, opcode = op);
    let result = execute(core, client, seq, &request);
    core.tel.count_opcode(op as usize);
    core.tel.metrics.dispatch_requests_total.inc();
    core.tel.metrics.dispatch_slow_total.inc();
    if result.is_err() {
        core.tel.metrics.dispatch_errors_total.inc();
    }
    core.tel.metrics.dispatch_latency_us.record_duration_us(started.elapsed());
    // Fire-and-forget successes close their trace here; queries and
    // errors close at the reply/error drain, queued work at the
    // correlated CommandDone drain (DESIGN.md §15).
    let completes = !request.has_reply() && result.is_ok();
    core.tel.recorder.dispatch_done(client.0, seq, false, 0, completes);
    match result {
        Ok(Some(reply)) => core.send_to_client(client, ServerMsg::Reply(seq, reply)),
        Ok(None) => {
            if request.has_reply() {
                // Defensive: a query that produced no reply is a bug; keep
                // the client from deadlocking.
                core.send_to_client(
                    client,
                    ServerMsg::Error(seq, err(ErrorCode::Unimplemented, 0, "no reply produced")),
                );
            }
        }
        Err(e) => core.send_to_client(client, ServerMsg::Error(seq, e)),
    }
    // In debug builds every dispatch re-establishes the full structural
    // invariant set (paper §5); a handler that corrupts the structure
    // fails here, at the request that did it, not ticks later.
    #[cfg(debug_assertions)]
    if let Err(v) = crate::validate::check(core) {
        let dbg = format!("{request:?}");
        let name = dbg.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("?");
        panic!("protocol invariant violated after {name}: {v}");
    }
}

fn execute(core: &mut Core, client: ClientId, seq: u32, request: &Request) -> DispatchResult {
    match request {
        // ---- LOUDs ---------------------------------------------------------
        Request::CreateLoud { id, parent } => {
            if !owns_id(client, id.0) || core.louds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "loud id unavailable"));
            }
            let parent_raw = match parent {
                None => None,
                Some(p) => {
                    let pl = core
                        .louds
                        .get(&p.0)
                        .ok_or_else(|| err(ErrorCode::BadLoud, p.0, "parent loud"))?;
                    if pl.owner != client {
                        return Err(err(ErrorCode::BadAccess, p.0, "parent owned by another client"));
                    }
                    Some(p.0)
                }
            };
            core.louds.insert(id.0, Loud::new(*id, client, parent_raw));
            if let Some(p) = parent_raw {
                if let Some(pl) = core.louds.get_mut(&p) {
                    pl.children.push(id.0);
                }
            }
            Ok(None)
        }
        Request::DestroyLoud { id } => {
            let l = lookup_loud(core, *id)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            let was_root = l.is_root();
            core.destroy_loud(id.0);
            if was_root {
                core.recompute_activation();
            }
            Ok(None)
        }
        Request::MapLoud { id } => {
            let l = lookup_loud(core, *id)?;
            if !l.is_root() {
                return Err(err(ErrorCode::BadMatch, id.0, "only roots map"));
            }
            if l.mapped {
                return Ok(None);
            }
            // Audio-manager redirection (paper §5.8): when another client
            // holds the redirect, the map becomes a MapRequest event.
            let redirected = core
                .redirect_client
                .filter(|&mgr| mgr != client.0)
                .is_some();
            if redirected {
                core.pending_maps.push(id.0);
                core.send_manager_event(Event::MapRequest { loud: *id, client });
            } else {
                core.map_loud_now(id.0);
            }
            Ok(None)
        }
        Request::UnmapLoud { id } => {
            lookup_loud(core, *id)?;
            core.unmap_loud(id.0);
            Ok(None)
        }
        Request::RaiseLoud { id } => {
            let l = lookup_loud(core, *id)?;
            if !l.mapped {
                return Err(err(ErrorCode::NotMapped, id.0, "raise requires mapped loud"));
            }
            let redirected = core
                .redirect_client
                .filter(|&mgr| mgr != client.0)
                .is_some();
            if redirected {
                core.pending_raises.push(id.0);
                core.send_manager_event(Event::RaiseRequest { loud: *id, client });
            } else {
                core.raise_loud_now(id.0);
            }
            Ok(None)
        }
        Request::LowerLoud { id } => {
            let l = lookup_loud(core, *id)?;
            if !l.mapped {
                return Err(err(ErrorCode::NotMapped, id.0, "lower requires mapped loud"));
            }
            if let Some(pos) = core.active_stack.iter().position(|&r| r == id.0) {
                core.active_stack.remove(pos);
                core.active_stack.push(id.0);
                core.recompute_activation();
            }
            Ok(None)
        }
        Request::RequestActivate { id } => {
            let l = lookup_loud(core, *id)?;
            if !l.mapped {
                return Err(err(ErrorCode::NotMapped, id.0, "activate requires mapped loud"));
            }
            // Activation preference is expressed by stack position.
            core.raise_loud_now(id.0);
            Ok(None)
        }
        Request::RequestDeactivate { id } => {
            let l = lookup_loud(core, *id)?;
            if !l.mapped {
                return Err(err(ErrorCode::NotMapped, id.0, "deactivate requires mapped loud"));
            }
            if let Some(pos) = core.active_stack.iter().position(|&r| r == id.0) {
                core.active_stack.remove(pos);
                core.active_stack.push(id.0);
                core.recompute_activation();
            }
            Ok(None)
        }
        Request::QueryActiveStack => {
            let entries = core
                .active_stack
                .iter()
                .map(|&r| da_proto::reply::StackEntry {
                    loud: LoudId(r),
                    active: core.louds.get(&r).map(|l| l.active).unwrap_or(false),
                })
                .collect();
            Ok(Some(Reply::ActiveStack { entries }))
        }

        // ---- Virtual devices --------------------------------------------------
        Request::CreateVDevice { id, loud, class, attrs } => {
            if !owns_id(client, id.0) || core.vdevs.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "vdevice id unavailable"));
            }
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            // A hardware-backed class must have at least one matching
            // physical device, or the request can never be satisfied.
            if Core::needs_hardware(*class) {
                let any = (0..core.hw.device_count())
                    .any(|i| core.device_matches(i, *class, attrs));
                if !any {
                    return Err(err(
                        ErrorCode::DeviceBusy,
                        id.0,
                        "no physical device satisfies the attribute constraints",
                    ));
                }
            }
            let root = core.root_of(loud.0);
            let v = VDev::new(*id, client, loud.0, root, *class, attrs.clone());
            core.vdevs.insert(id.0, v);
            core.invalidate_plans();
            if let Some(l) = core.louds.get_mut(&loud.0) {
                l.vdevs.push(id.0);
            }
            // The root's activation memo is stale. If the tree is already
            // active, rebind now so the new device gets a binding too.
            let Some(r) = core.louds.get_mut(&root) else { return Ok(None) };
            r.dirty = true;
            if r.active {
                core.recompute_activation();
            }
            Ok(None)
        }
        Request::DestroyVDevice { id } => {
            let v = lookup_vdev(core, *id)?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            core.destroy_vdev(id.0);
            Ok(None)
        }
        Request::AugmentVDevice { id, attrs } => {
            let v = lookup_vdev(core, *id)?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            let class = v.class;
            let mut combined = v.attrs.clone();
            combined.extend(attrs.iter().cloned());
            if Core::needs_hardware(class) {
                let any =
                    (0..core.hw.device_count()).any(|i| core.device_matches(i, class, &combined));
                if !any {
                    return Err(err(
                        ErrorCode::BadMatch,
                        id.0,
                        "augmented constraints match no device",
                    ));
                }
            }
            let root = v.root;
            if let Some(v) = core.vdevs.get_mut(&id.0) {
                v.attrs = combined;
            }
            if let Some(r) = core.louds.get_mut(&root) {
                r.dirty = true;
            }
            core.recompute_activation();
            Ok(None)
        }
        Request::QueryVDeviceAttributes { id } => {
            let v = lookup_vdev(core, *id)?;
            let mapped_device = match v.binding {
                Some(crate::vdevice::HwBinding::Speaker(_))
                | Some(crate::vdevice::HwBinding::Microphone(_))
                | Some(crate::vdevice::HwBinding::Line(_)) => {
                    // Find the device-LOUD index for the binding.
                    let b = v.binding;
                    (0..core.hw.device_count())
                        .find(|&i| match (core.hw.slot(i), b) {
                            (
                                Some(da_hw::registry::HwSlot::Speaker(s)),
                                Some(crate::vdevice::HwBinding::Speaker(bs)),
                            ) => s == bs,
                            (
                                Some(da_hw::registry::HwSlot::Microphone(m)),
                                Some(crate::vdevice::HwBinding::Microphone(bm)),
                            ) => m == bm,
                            (
                                Some(da_hw::registry::HwSlot::Line(l)),
                                Some(crate::vdevice::HwBinding::Line(bl)),
                            ) => l == bl,
                            _ => false,
                        })
                        .map(|i| da_proto::ids::DeviceId(i as u32)) // cast-ok: device-LOUD slot index, bounded by physical device count
                }
                _ => None,
            };
            Ok(Some(Reply::VDeviceAttributes { attrs: v.attrs.clone(), mapped_device }))
        }
        Request::SetDeviceControl { id, name, value } => {
            let v = lookup_vdev(core, *id)?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            if core.atoms.name(*name).is_none() {
                return Err(err(ErrorCode::BadAtom, name.0, "unknown atom"));
            }
            // SYNC_INTERVAL is honoured as a control as well as a request.
            if core.atoms.name(*name) == Some("SYNC_INTERVAL") && value.len() == 4 {
                let frames = u32::from_le_bytes([value[0], value[1], value[2], value[3]]);
                if let Some(v) = core.vdevs.get_mut(&id.0) {
                    v.sync_interval = frames;
                }
            }
            // EFFECT selects the DSP device's algorithm: "none",
            // "echo:<delay_frames>:<feedback_milli>", "lowpass:<hz>".
            if core.atoms.name(*name) == Some("EFFECT") {
                let spec = String::from_utf8_lossy(value).to_string();
                let Some(v) = core.vdevs.get_mut(&id.0) else {
                    return Err(err(ErrorCode::BadDevice, id.0, "no such device"));
                };
                let rate = v.rate;
                if let crate::vdevice::ClassState::Dsp { effect } = &mut v.state {
                    let mut parts = spec.split(':');
                    *effect = match parts.next() {
                        Some("none") | Some("") => crate::vdevice::DspEffect::PassThrough,
                        Some("echo") => {
                            let delay: usize =
                                parts.next().and_then(|p| p.parse().ok()).unwrap_or(2000);
                            let fb: u32 =
                                parts.next().and_then(|p| p.parse().ok()).unwrap_or(500);
                            crate::vdevice::DspEffect::Echo(da_dsp::effects::Echo::new(
                                delay, fb,
                            ))
                        }
                        Some("lowpass") => {
                            let hz: f64 =
                                parts.next().and_then(|p| p.parse().ok()).unwrap_or(1000.0);
                            crate::vdevice::DspEffect::LowPass(
                                da_dsp::effects::LowPass::new(rate, hz),
                            )
                        }
                        _ => {
                            return Err(err(ErrorCode::BadValue, id.0, "unknown effect"));
                        }
                    };
                } else {
                    return Err(err(ErrorCode::BadMatch, id.0, "EFFECT applies to DSP devices"));
                }
            }
            if let Some(v) = core.vdevs.get_mut(&id.0) {
                v.controls.insert(*name, value.clone());
            }
            Ok(None)
        }
        Request::GetDeviceControl { id, name } => {
            let v = lookup_vdev(core, *id)?;
            Ok(Some(Reply::DeviceControl { value: v.controls.get(name).cloned() }))
        }

        // ---- Wires ---------------------------------------------------------------
        Request::CreateWire { id, src, src_port, dst, dst_port, wire_type } => {
            if !owns_id(client, id.0) || core.wires.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "wire id unavailable"));
            }
            let sv = lookup_vdev(core, *src)?;
            let dv = lookup_vdev(core, *dst)?;
            if sv.owner != client || dv.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "devices owned by another client"));
            }
            if src.0 == dst.0 {
                return Err(err(ErrorCode::BadMatch, id.0, "cannot wire a device to itself"));
            }
            if sv.root != dv.root {
                return Err(err(ErrorCode::BadMatch, id.0, "wire crosses LOUD trees"));
            }
            if !sv.has_port(PortDir::Source, *src_port) {
                return Err(err(ErrorCode::BadValue, u32::from(*src_port), "bad source port"));
            }
            if !dv.has_port(PortDir::Sink, *dst_port) {
                return Err(err(ErrorCode::BadValue, u32::from(*dst_port), "bad sink port"));
            }
            // Type check (paper §5.2): the declared wire type must admit
            // both endpoints' digital types. Software endpoints are
            // digital at their operating rate.
            let src_t = WireType::Digital(da_proto::types::SoundType {
                encoding: da_proto::types::Encoding::Pcm16,
                sample_rate: sv.rate,
                channels: 1,
            });
            let dst_t = WireType::Digital(da_proto::types::SoundType {
                encoding: da_proto::types::Encoding::Pcm16,
                sample_rate: dv.rate,
                channels: 1,
            });
            match wire_type {
                WireType::Any => {}
                WireType::Analog => {
                    return Err(err(
                        ErrorCode::BadMatch,
                        id.0,
                        "analog wires exist only in the device LOUD",
                    ));
                }
                t @ WireType::Digital(_) => {
                    // The wire carries the source's type; rate adaptation
                    // to the sink is the wire's job, so only the source
                    // must match a tightly specified wire.
                    if !t.admits(&src_t) && !t.admits(&dst_t) {
                        return Err(err(ErrorCode::BadMatch, id.0, "wire type mismatch"));
                    }
                }
            }
            // Reject cycles so the engine's topological routing is sound.
            if reaches(core, dst.0, src.0) {
                return Err(err(ErrorCode::BadMatch, id.0, "wire would create a cycle"));
            }
            // Hard-wired hardware constrains virtual wiring (paper §5.2):
            // when both endpoints are pinned to physical devices and the
            // source device has permanent connections, the requested path
            // must follow one of them.
            let pinned = |v: &VDev| {
                v.attrs.iter().find_map(|a| match a {
                    da_proto::types::Attribute::Device(d) => Some(d.0 as usize),
                    _ => None,
                })
            };
            if let (Some(pa), Some(pb)) = (pinned(sv), pinned(dv)) {
                let hard = &core.hw.spec().hard_wires;
                let a_constrained = hard.iter().any(|&(s, _, d, _)| s == pa || d == pa);
                let b_constrained = hard.iter().any(|&(s, _, d, _)| s == pb || d == pb);
                if a_constrained || b_constrained {
                    let allowed = hard.iter().any(|&(s, _, d, _)| s == pa && d == pb);
                    if !allowed {
                        return Err(err(
                            ErrorCode::BadMatch,
                            id.0,
                            "devices are hard-wired elsewhere; the requested path cannot exist",
                        ));
                    }
                }
            }
            let root = sv.root;
            core.wires
                .insert(id.0, Wire::new(*id, client, *src, *src_port, *dst, *dst_port, *wire_type));
            let _ = root;
            core.invalidate_plans();
            Ok(None)
        }
        Request::DestroyWire { id } => {
            let w = lookup_wire(core, *id)?;
            if w.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            core.wires.remove(&id.0);
            core.invalidate_plans();
            Ok(None)
        }
        Request::QueryWire { id } => {
            let w = lookup_wire(core, *id)?;
            Ok(Some(Reply::WireInfo {
                src: w.src,
                src_port: w.src_port,
                dst: w.dst,
                dst_port: w.dst_port,
                wire_type: w.wire_type,
            }))
        }
        Request::QueryDeviceWires { id } => {
            lookup_vdev(core, *id)?;
            let wires = core
                .wires
                .values()
                .filter(|w| w.src == *id || w.dst == *id)
                .map(|w| w.id)
                .collect();
            Ok(Some(Reply::DeviceWires { wires }))
        }

        // ---- Queues ---------------------------------------------------------------
        Request::Enqueue { loud, entries } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            if !l.is_root() {
                return Err(err(ErrorCode::BadLoud, loud.0, "queues live on root LOUDs"));
            }
            // Queued-only validation happens at execution; but commands
            // that can never be queued (none today) would be caught here.
            let cursors = core.queue_mut(loud.0).map(|q| {
                let first = q.entry_cursor();
                q.enqueue(entries.clone());
                (first, q.entry_cursor())
            });
            if let Some((first, after)) = cursors {
                if after > first {
                    // The trace now completes at the CommandDone drain
                    // for the first node parsed from this request.
                    core.tel.recorder.register_watch(loud.0, first, client.0, seq);
                }
            }
            Ok(None)
        }
        Request::Immediate { vdev, cmd } => {
            let v = lookup_vdev(core, *vdev)?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, vdev.0, "not owner"));
            }
            if !cmd.immediate_ok() {
                return Err(err(
                    ErrorCode::BadQueueMode,
                    vdev.0,
                    "command is queued-mode only",
                ));
            }
            if !engine::apply_instant(core, vdev.0, cmd) {
                return Err(err(ErrorCode::BadMatch, vdev.0, "command does not fit device class"));
            }
            Ok(None)
        }
        Request::StartQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            let root = loud.0;
            let prior = {
                let Some(q) = core.queue_mut(root) else {
                    return Err(err(ErrorCode::BadLoud, root, "not a root loud"));
                };
                let prior = q.state();
                match q.typed() {
                    TypedQueue::Stopped(t) => {
                        t.start();
                    }
                    // StartQueue on a client-paused queue acts as a resume.
                    TypedQueue::ClientPaused(t) => {
                        t.resume();
                    }
                    TypedQueue::Started(_) | TypedQueue::ServerPaused(_) => {}
                }
                prior
            };
            match prior {
                QueueState::Stopped => {
                    core.send_event(ResKey(0, root), Event::QueueStarted { loud: LoudId(root) });
                }
                QueueState::ClientPaused => {
                    unpause_devices(core, root);
                    core.send_event(ResKey(0, root), Event::QueueResumed { loud: LoudId(root) });
                }
                QueueState::Started | QueueState::ServerPaused => {}
            }
            Ok(None)
        }
        Request::StopQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            engine::stop_queue(core, loud.0, da_proto::event::QueueStopReason::ClientRequest);
            Ok(None)
        }
        Request::PauseQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            let root = loud.0;
            let running_devices = {
                let Some(q) = core.queue_mut(root) else {
                    return Err(err(ErrorCode::BadLoud, root, "not a root loud"));
                };
                if q.state() != QueueState::Started {
                    return Ok(None);
                }
                let mut devs = Vec::new();
                if let Some(run) = &q.running {
                    run.running_devices(&mut devs);
                }
                devs
            };
            // Unpausable commands stop the queue instead (paper §5.5).
            let unpausable = running_devices.iter().any(|d| {
                matches!(
                    core.vdevs.get(&d.0).and_then(|v| v.op.as_ref()),
                    Some(crate::vdevice::ActiveOp::Dial { .. })
                        | Some(crate::vdevice::ActiveOp::Answer)
                )
            });
            if unpausable {
                engine::stop_queue(core, root, da_proto::event::QueueStopReason::Unpausable);
                return Ok(None);
            }
            for d in &running_devices {
                if let Some(v) = core.vdevs.get_mut(&d.0) {
                    v.paused = true;
                }
            }
            if let Some(q) = core.queue_mut(root) {
                if let TypedQueue::Started(t) = q.typed() {
                    t.client_pause();
                }
            }
            core.send_event(
                ResKey(0, root),
                Event::QueuePaused { loud: LoudId(root), by_server: false },
            );
            Ok(None)
        }
        Request::ResumeQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            let root = loud.0;
            let resumed = {
                let Some(q) = core.queue_mut(root) else {
                    return Err(err(ErrorCode::BadLoud, root, "not a root loud"));
                };
                if let TypedQueue::ClientPaused(t) = q.typed() {
                    t.resume();
                    true
                } else {
                    false
                }
            };
            if resumed {
                unpause_devices(core, root);
                core.send_event(ResKey(0, root), Event::QueueResumed { loud: LoudId(root) });
            }
            Ok(None)
        }
        Request::FlushQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            if let Some(q) = core.queue_mut(loud.0) {
                q.flush();
            }
            Ok(None)
        }
        Request::QueryQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            let Some(q) = &l.queue else {
                return Err(err(ErrorCode::BadLoud, loud.0, "not a root loud"));
            };
            Ok(Some(Reply::QueueInfo {
                state: q.state(),
                pending: q.pending_len(),
                relative_frames: q.relative_frames,
            }))
        }

        // ---- Sounds ----------------------------------------------------------------
        Request::CreateSound { id, stype } => {
            if !owns_id(client, id.0) || core.sounds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable"));
            }
            if stype.sample_rate == 0 || stype.channels == 0 {
                return Err(err(ErrorCode::BadValue, id.0, "bad sound type"));
            }
            core.sounds.insert(id.0, Sound::new(*id, client, *stype));
            Ok(None)
        }
        Request::DeleteSound { id } => {
            let s = lookup_sound(core, *id)?;
            if s.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            core.sounds.remove(&id.0);
            core.properties.remove(&ResKey(2, id.0));
            core.purge_selections(ResKey(2, id.0));
            Ok(None)
        }
        Request::WriteSoundData { id, data, eof } => {
            let s = core
                .sounds
                .get_mut(&id.0)
                .ok_or_else(|| err(ErrorCode::BadSound, id.0, "no such sound"))?;
            if s.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            if s.complete {
                return Err(err(ErrorCode::BadMatch, id.0, "sound already complete"));
            }
            if s.len_bytes() + data.len() as u64 > da_proto::types::MAX_SOUND_BYTES {
                // Rejected before any allocation, mirroring the
                // connection plane's oversized-frame policy.
                core.tel.metrics.sounds_rejected_oversize_total.inc();
                return Err(err(ErrorCode::BadValue, id.0, "sound exceeds maximum size"));
            }
            if !s.append(data, *eof) {
                return Err(err(ErrorCode::BadMatch, id.0, "catalogue sounds are immutable"));
            }
            if s.complete {
                // Final block: intern the finished payload so identical
                // content across clients shares one allocation
                // (DESIGN.md §17).
                let (arc, hash) =
                    core.store.intern_payload(s.stype, std::mem::take(&mut s.data));
                s.shared = Some(arc);
                s.content_hash = Some(hash);
            }
            Ok(None)
        }
        Request::ReadSoundData { id, offset, len } => {
            let s = lookup_sound(core, *id)?;
            let bytes = s.bytes();
            let start = (*offset as usize).min(bytes.len());
            let end = start.saturating_add(*len as usize).min(bytes.len());
            Ok(Some(Reply::SoundData {
                data: bytes[start..end].to_vec(),
                // A streaming sound's tail is not the end: more data may
                // arrive until the `eof` block lands.
                at_end: s.complete && end == bytes.len(),
            }))
        }
        Request::QuerySound { id } => {
            let s = lookup_sound(core, *id)?;
            Ok(Some(Reply::SoundInfo {
                stype: s.stype,
                bytes: s.len_bytes(),
                frames: s.len_frames(),
                complete: s.complete,
            }))
        }
        Request::ListCatalog { catalog } => {
            Ok(Some(Reply::Catalog { names: core.catalogs.list(catalog) }))
        }
        Request::OpenCatalogSound { id, catalog, name } => {
            if !owns_id(client, id.0) || core.sounds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable"));
            }
            let cat = core
                .catalogs
                .get(catalog, name)
                .ok_or_else(|| err(ErrorCode::BadValue, id.0, "no such catalogue sound"))?;
            let sound = Sound::from_catalog(*id, client, cat);
            core.sounds.insert(id.0, sound);
            Ok(None)
        }

        // ---- Events -----------------------------------------------------------------
        Request::SelectEvents { target, mask } => {
            validate_target(core, *target)?;
            let key = res_key(*target);
            if let Some(cs) = core.clients.get_mut(&client.0) {
                if mask.0 == 0 {
                    cs.selections.remove(&key);
                } else {
                    cs.selections.insert(key, *mask);
                }
            }
            Ok(None)
        }
        Request::SetSyncInterval { vdev, interval_frames } => {
            let v = lookup_vdev(core, *vdev)?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, vdev.0, "not owner"));
            }
            if let Some(v) = core.vdevs.get_mut(&vdev.0) {
                v.sync_interval = *interval_frames;
            }
            Ok(None)
        }

        // ---- Atoms and properties ------------------------------------------------------
        Request::InternAtom { name } => {
            if name.is_empty() {
                return Err(err(ErrorCode::BadValue, 0, "empty atom name"));
            }
            let atom = core.intern(name);
            Ok(Some(Reply::Atom { atom }))
        }
        Request::GetAtomName { atom } => match core.atoms.name(*atom) {
            Some(n) => Ok(Some(Reply::AtomName { name: n.to_string() })),
            None => Err(err(ErrorCode::BadAtom, atom.0, "unknown atom")),
        },
        Request::ChangeProperty { target, name, type_, value } => {
            validate_target(core, *target)?;
            if core.atoms.name(*name).is_none() {
                return Err(err(ErrorCode::BadAtom, name.0, "unknown property atom"));
            }
            if core.atoms.name(*type_).is_none() {
                return Err(err(ErrorCode::BadAtom, type_.0, "unknown type atom"));
            }
            let key = res_key(*target);
            core.properties
                .entry(key)
                .or_default()
                .insert(name.0, Property { name: *name, type_: *type_, value: value.clone() });
            core.send_event(
                key,
                Event::PropertyNotify { target: *target, name: *name, deleted: false },
            );
            Ok(None)
        }
        Request::GetProperty { target, name } => {
            validate_target(core, *target)?;
            let key = res_key(*target);
            let property =
                core.properties.get(&key).and_then(|m| m.get(&name.0)).cloned();
            Ok(Some(Reply::Property { property }))
        }
        Request::DeleteProperty { target, name } => {
            validate_target(core, *target)?;
            let key = res_key(*target);
            let removed =
                core.properties.get_mut(&key).and_then(|m| m.remove(&name.0)).is_some();
            if removed {
                core.send_event(
                    key,
                    Event::PropertyNotify { target: *target, name: *name, deleted: true },
                );
            }
            Ok(None)
        }
        Request::ListProperties { target } => {
            validate_target(core, *target)?;
            let key = res_key(*target);
            let names = core
                .properties
                .get(&key)
                .map(|m| m.values().map(|p| p.name).collect())
                .unwrap_or_default();
            Ok(Some(Reply::PropertyList { names }))
        }

        // ---- Device LOUD and manager support ----------------------------------------------
        Request::QueryDeviceLoud => {
            let (devices, hard_wires) = core.device_loud();
            Ok(Some(Reply::DeviceLoud { devices, hard_wires }))
        }
        Request::SetRedirect { enable } => {
            if *enable {
                match core.redirect_client {
                    Some(mgr) if mgr != client.0 => {
                        // Only one audio manager at a time (paper §5.8).
                        return Err(err(
                            ErrorCode::BadAccess,
                            mgr,
                            "another client holds redirection",
                        ));
                    }
                    _ => core.redirect_client = Some(client.0),
                }
            } else if core.redirect_client == Some(client.0) {
                core.redirect_client = None;
                let pending: Vec<u32> = core.pending_maps.drain(..).collect();
                for loud in pending {
                    core.map_loud_now(loud);
                }
                let raises: Vec<u32> = core.pending_raises.drain(..).collect();
                for loud in raises {
                    core.raise_loud_now(loud);
                }
            }
            Ok(None)
        }
        Request::AllowMap { loud } => {
            if core.redirect_client != Some(client.0) {
                return Err(err(ErrorCode::BadAccess, loud.0, "not the audio manager"));
            }
            if let Some(pos) = core.pending_maps.iter().position(|&l| l == loud.0) {
                core.pending_maps.remove(pos);
                core.map_loud_now(loud.0);
            }
            Ok(None)
        }
        Request::AllowRaise { loud } => {
            if core.redirect_client != Some(client.0) {
                return Err(err(ErrorCode::BadAccess, loud.0, "not the audio manager"));
            }
            if let Some(pos) = core.pending_raises.iter().position(|&l| l == loud.0) {
                core.pending_raises.remove(pos);
                core.raise_loud_now(loud.0);
            }
            Ok(None)
        }

        // ---- Miscellaneous -------------------------------------------------------------------
        Request::GetServerInfo => Ok(Some(Reply::ServerInfo {
            vendor: core.config.vendor.clone(),
            protocol_major: da_proto::PROTOCOL_MAJOR,
            protocol_minor: da_proto::PROTOCOL_MINOR,
            device_time: core.device_time,
        })),
        Request::Sync => Ok(Some(Reply::Sync)),
        Request::QueryServerStats => Ok(Some(crate::telem::server_stats_reply(core))),
        Request::ListClients => Ok(Some(crate::telem::client_list_reply(core))),
        Request::QueryTraces { max } => Ok(Some(crate::telem::traces_reply(core, *max))),
    }
}

fn unpause_devices(core: &mut Core, root: u32) {
    let devices = {
        let Some(q) = core.queue_mut(root) else { return };
        let mut devs = Vec::new();
        if let Some(run) = &q.running {
            run.running_devices(&mut devs);
        }
        devs
    };
    for d in devices {
        if let Some(v) = core.vdevs.get_mut(&d.0) {
            v.paused = false;
        }
    }
}

fn lookup_loud(core: &Core, id: LoudId) -> Result<&Loud, ProtoError> {
    core.louds.get(&id.0).ok_or_else(|| err(ErrorCode::BadLoud, id.0, "no such loud"))
}

fn lookup_vdev(core: &Core, id: VDeviceId) -> Result<&VDev, ProtoError> {
    core.vdevs.get(&id.0).ok_or_else(|| err(ErrorCode::BadDevice, id.0, "no such device"))
}

fn lookup_wire(core: &Core, id: WireId) -> Result<&Wire, ProtoError> {
    core.wires.get(&id.0).ok_or_else(|| err(ErrorCode::BadWire, id.0, "no such wire"))
}

fn lookup_sound(core: &Core, id: SoundId) -> Result<&Sound, ProtoError> {
    core.sounds.get(&id.0).ok_or_else(|| err(ErrorCode::BadSound, id.0, "no such sound"))
}

fn validate_target(core: &Core, target: ResourceId) -> Result<(), ProtoError> {
    match target {
        ResourceId::Loud(id) => lookup_loud(core, id).map(|_| ()),
        ResourceId::VDevice(id) => lookup_vdev(core, id).map(|_| ()),
        ResourceId::Sound(id) => lookup_sound(core, id).map(|_| ()),
        ResourceId::Device(id) => {
            if (id.0 as usize) < core.hw.device_count() {
                Ok(())
            } else {
                Err(err(ErrorCode::BadDevice, id.0, "no such physical device"))
            }
        }
    }
}

/// Is `to` reachable from `from` along wires? Used for cycle rejection.
fn reaches(core: &Core, from: u32, to: u32) -> bool {
    let mut stack = vec![from];
    let mut seen = std::collections::HashSet::new();
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !seen.insert(v) {
            continue;
        }
        for w in core.wires.values() {
            if w.src.0 == v {
                stack.push(w.dst.0);
            }
        }
    }
    false
}

/// What the class of a device class enum is; kept for dispatch-time
/// validation extensions.
#[allow(dead_code)]
fn class_of(v: &VDev) -> DeviceClass {
    v.class
}
