//! Request dispatch.
//!
//! Executes one request at a time against the core. Requests are
//! asynchronous; replies are generated only for queries, and errors are
//! queued back to the client with the failing request's sequence number
//! (paper §4.1).
//!
//! [`dispatch`] runs a request under the write lock. `Cross` opcodes
//! (DESIGN.md §13) have their arms here; every other opcode runs its one
//! handler, [`fastpath::exec_shard`], over an exclusive view of every
//! shard. [`finish_dispatch`] accounts for and answers a request on both
//! paths.

use crate::core::{res_key, Core, ResKey, ServerMsg};
use crate::engine;
use crate::fastpath::{self, Handled, ShardView};
use crate::loud::Loud;
use crate::queue::TypedQueue;
use crate::sound::Sound;
use crate::vdevice::VDev;
use da_proto::error::{ErrorCode, ProtoError};
use da_proto::event::{Event, QueueStopReason};
use da_proto::ids::{ClientId, LoudId, SoundId, VDeviceId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::QueueState;
use std::time::{Duration, Instant};

/// A handler's answer: the reply, if the request has one, or the error.
pub(crate) type DispatchResult = Result<Option<Reply>, ProtoError>;

pub(crate) fn err(code: ErrorCode, value: u32, detail: impl Into<String>) -> ProtoError {
    ProtoError::new(code, value, detail)
}

/// Whether `id` is inside `client`'s allocated id range.
pub(crate) fn owns_id(client: ClientId, id: u32) -> bool {
    id >> 20 == client.0 && id & 0x000F_FFFF != 0
}

/// Executes one request for a client, sending any reply or error to the
/// client's channel.
pub fn dispatch(core: &mut Core, client: ClientId, seq: u32, request: Request) {
    let started = Instant::now();
    core.tel.recorder.dispatch_begin(client.0, seq);
    let op = request.opcode();
    let _span = da_telemetry::span!(core.tel.journal, "dispatch", client = client.0, opcode = op);
    let result = execute(core, client, seq, &request);
    finish_dispatch(core, client, seq, &request, result, started, None);
    #[cfg(debug_assertions)]
    check_invariants(core, &request);
}

/// Accounts for one executed request and sends its reply or error; the
/// tail of both dispatch paths. `stripe_wait` is the fast path's wait
/// for its stripe, `None` on the write-lock path.
pub(crate) fn finish_dispatch(
    core: &Core,
    client: ClientId,
    seq: u32,
    request: &Request,
    result: DispatchResult,
    started: Instant,
    stripe_wait: Option<Duration>,
) {
    let metrics = &core.tel.metrics;
    core.tel.count_opcode(request.opcode() as usize);
    metrics.dispatch_requests_total.inc();
    match stripe_wait {
        Some(_) => metrics.dispatch_fast_total.inc(),
        None => metrics.dispatch_slow_total.inc(),
    }
    if result.is_err() {
        metrics.dispatch_errors_total.inc();
    }
    metrics.dispatch_latency_us.record_duration_us(started.elapsed());
    // Fire-and-forget successes close their trace here; queries and
    // errors close at the reply/error drain, queued work at the
    // correlated CommandDone drain (DESIGN.md §15).
    let completes = !request.has_reply() && result.is_ok();
    let wait_us = stripe_wait.map_or(0, |w| w.as_micros() as u64); // cast-ok: stripe wait in µs, far below u64::MAX
    core.tel.recorder.dispatch_done(client.0, seq, stripe_wait.is_some(), wait_us, completes);
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
}

/// In debug builds every dispatch, on either path, re-establishes the
/// full structural invariant set (paper §5); a handler that corrupts the
/// structure fails here, at the request that did it, not ticks later.
#[cfg(debug_assertions)]
pub(crate) fn check_invariants(core: &Core, request: &Request) {
    if let Err(v) = crate::validate::check(core) {
        let dbg = format!("{request:?}");
        let name = dbg.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("?");
        panic!("protocol invariant violated after {name}: {v}");
    }
}

/// Runs one request under the write lock: a `Cross` opcode through its
/// arm here, any other through its shard handler.
fn execute(core: &mut Core, client: ClientId, seq: u32, request: &Request) -> DispatchResult {
    match request {
        // ---- LOUDs ---------------------------------------------------------
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
                let Some(d) = core.dev_slot_mut(id.0) else {
                    return Err(err(ErrorCode::BadDevice, id.0, "no such device"));
                };
                let rate = d.rate;
                if let crate::vdevice::ClassState::Dsp { effect } = &mut d.state {
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

        // ---- Queues ---------------------------------------------------------------
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
            if !core.with_slab(|core, slab| engine::apply_instant(core, slab, vdev.0, cmd)) {
                return Err(err(ErrorCode::BadMatch, vdev.0, "command does not fit device class"));
            }
            Ok(None)
        }
        Request::StopQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            core.with_slab(|core, slab| {
                engine::stop_queue(core, slab, loud.0, QueueStopReason::ClientRequest)
            });
            Ok(None)
        }
        Request::PauseQueue { loud } => {
            let l = lookup_loud(core, *loud)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            let root = loud.0;
            let Some(q) = core.queue_mut(root) else {
                return Err(err(ErrorCode::BadLoud, root, "not a root loud"));
            };
            if q.state() != QueueState::Started {
                return Ok(None);
            }
            let running_devices = running_devices(core, root);
            // Unpausable commands stop the queue instead (paper §5.5).
            let unpausable = running_devices.iter().any(|d| {
                matches!(
                    core.vdevs.get(&d.0).and_then(|v| core.dev_slot(v)?.op.as_ref()),
                    Some(crate::vdevice::ActiveOp::Dial { .. })
                        | Some(crate::vdevice::ActiveOp::Answer)
                )
            });
            if unpausable {
                core.with_slab(|core, slab| {
                    engine::stop_queue(core, slab, root, QueueStopReason::Unpausable)
                });
                return Ok(None);
            }
            set_paused(core, &running_devices, true);
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
        // ---- Sounds ----------------------------------------------------------------
        Request::DeleteSound { id } => {
            let s = lookup_sound(core, *id)?;
            if s.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            core.sounds.remove(&id.0);
            // A play pinned to the sound ends at its next step, exactly
            // as one looking it up would.
            engine::unpin_plays(&mut core.plane.slab, id.0);
            core.properties.remove(&ResKey(2, id.0));
            core.purge_selections(ResKey(2, id.0));
            Ok(None)
        }
        // ---- Events -----------------------------------------------------------------
        Request::SelectEvents { target, mask } => {
            {
                // SAFETY: until the view drops at the end of this block,
                // the sharded maps are reached only through it.
                let (c, view) = unsafe { ShardView::exclusive(core) };
                view.validate_target(c, *target)?;
            }
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

        // ---- Atoms and properties ------------------------------------------------------
        Request::InternAtom { name } => {
            if name.is_empty() {
                return Err(err(ErrorCode::BadValue, 0, "empty atom name"));
            }
            let atom = core.intern(name);
            Ok(Some(Reply::Atom { atom }))
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
        Request::QueryServerStats => Ok(Some(crate::telem::server_stats_reply(core))),
        Request::ListClients => Ok(Some(crate::telem::client_list_reply(core))),
        Request::QueryTraces { max } => Ok(Some(crate::telem::traces_reply(core, *max))),

        // ---- Every other opcode: its one handler, over every shard -------------
        _ => {
            // SAFETY: the handler reaches the sharded maps only through
            // the view, which is dropped before `core` is used again.
            let (c, mut view) = unsafe { ShardView::exclusive(core) };
            match fastpath::exec_shard(c, &mut view, client, seq, request)? {
                Handled::Done(reply) => Ok(reply),
                Handled::Rebind => {
                    drop(view);
                    core.recompute_activation();
                    Ok(None)
                }
                Handled::Unpause(root) => {
                    drop(view);
                    unpause_devices(core, root);
                    Ok(None)
                }
            }
        }
    }
}

/// The devices with commands running in root `root`'s queue.
fn running_devices(core: &Core, root: u32) -> Vec<VDeviceId> {
    let mut devs = Vec::new();
    if let Some(run) = core.running(root) {
        run.running_devices(&mut devs);
    }
    devs
}

/// Pauses or resumes `devices` through their slots.
fn set_paused(core: &mut Core, devices: &[VDeviceId], paused: bool) {
    for d in devices {
        if let Some(slot) = core.dev_slot_mut(d.0) {
            slot.paused = paused;
        }
    }
}

/// Resumes the devices running in root `root`'s queue.
fn unpause_devices(core: &mut Core, root: u32) {
    let devices = running_devices(core, root);
    set_paused(core, &devices, false);
}

fn lookup_loud(core: &Core, id: LoudId) -> Result<&Loud, ProtoError> {
    core.louds.get(&id.0).ok_or_else(|| err(ErrorCode::BadLoud, id.0, "no such loud"))
}

fn lookup_vdev(core: &Core, id: VDeviceId) -> Result<&VDev, ProtoError> {
    core.vdevs.get(&id.0).ok_or_else(|| err(ErrorCode::BadDevice, id.0, "no such device"))
}

fn lookup_sound(core: &Core, id: SoundId) -> Result<&Sound, ProtoError> {
    core.sounds.get(&id.0).ok_or_else(|| err(ErrorCode::BadSound, id.0, "no such sound"))
}
