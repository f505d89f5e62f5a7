//! Sharded fast-path dispatch (DESIGN.md §13).
//!
//! A request is *fast-eligible* when its opcode is on the whitelist
//! below and every resource id it references belongs to the requesting
//! client (`id >> 20 == client`). Such a request touches only the
//! client's own shard of the resource maps plus read-only global state,
//! so it dispatches under the core **read** lock + that shard's stripe
//! — concurrently with fast-path requests from clients on other shards.
//! Everything else (activation, destroys, manager redirection, event
//! selection, stats) punts to the global-write-lock slow path in
//! [`crate::dispatch`], which sees the exact single-lock world.
//!
//! The handlers here mirror the slow-path arms byte for byte in their
//! observable behaviour (same error codes, same events, same replies);
//! the debug-build invariant sweep after every fast dispatch and the
//! soak/model-check harnesses are the safety net for keeping them in
//! lockstep.
//!
//! Aliasing rule: handlers reach the sharded maps **only** through the
//! [`ShardView`] (never through `core.louds` etc. — mixing a `&` read
//! with the view's `&mut` on the same map is UB), and use `&Core` only
//! for state that is mutated exclusively under the write lock (clients,
//! selections, hardware, atoms, catalogs, config, device time) or is
//! atomic (`topology_gen`).

use crate::core::{Core, ResKey, ServerMsg};
use crate::loud::Loud;
use crate::shard::ShardMut;
use crate::queue::TypedQueue;
use crate::sound::Sound;
use crate::vdevice::VDev;
use crate::wire::Wire;
use da_proto::error::{ErrorCode, ProtoError};
use da_proto::event::Event;
use da_proto::ids::{ClientId, LoudId, ResourceId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{PortDir, Property, QueueState, WireType};
use parking_lot::RwLock;
use std::collections::HashMap;

type DispatchResult = Result<Option<Reply>, ProtoError>;

fn err(code: ErrorCode, value: u32, detail: impl Into<String>) -> ProtoError {
    ProtoError::new(code, value, detail)
}

/// Whether `id` is inside `client`'s allocated id range.
fn owns_id(client: ClientId, id: u32) -> bool {
    id >> 20 == client.0 && id & 0x000F_FFFF != 0
}

/// An own-client resource target (never a physical device).
fn own_target(client: ClientId, target: ResourceId) -> bool {
    match target {
        ResourceId::Loud(id) => owns_id(client, id.0),
        ResourceId::VDevice(id) => owns_id(client, id.0),
        ResourceId::Sound(id) => owns_id(client, id.0),
        ResourceId::Device(_) => false,
    }
}

/// What sharded state an opcode's handler touches — the proof obligation
/// behind the fast-path whitelist (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Touches only the requesting client's shard plus read-only global
    /// state: fast-eligible under read lock + one stripe.
    Own,
    /// Touches no sharded state at all and only read-only globals:
    /// fast-eligible trivially.
    Global,
    /// May touch other clients' shards or mutable global state (active
    /// stack, selections, hardware bindings, engine plans): must punt to
    /// the write-lock slow path.
    Cross,
}

/// Per-opcode shard footprint, one row per `Request` variant with the
/// reason the classification holds. The `xtask races` lint cross-checks
/// this table three ways: every variant has exactly one row, the
/// [`eligible`] whitelist is exactly the `Own`/`Global` rows, and the
/// [`exec_fast`] arm set matches the whitelist — so a handler added to
/// one place but not the others fails CI instead of silently punting or,
/// worse, running cross-shard work under a read lock.
pub const OPCODE_TOUCHES: &[(&str, Footprint, &str)] = &[
    ("CreateLoud", Footprint::Own, "new loud + own-shard parent link"),
    ("DestroyLoud", Footprint::Cross, "cascades into active stack, selections, engine plans"),
    ("MapLoud", Footprint::Cross, "active stack + activation recompute are global"),
    ("UnmapLoud", Footprint::Cross, "active stack + activation recompute are global"),
    ("RaiseLoud", Footprint::Cross, "restacks the global active stack"),
    ("LowerLoud", Footprint::Cross, "restacks the global active stack"),
    ("RequestActivate", Footprint::Cross, "activation walks every tree for preemption"),
    ("RequestDeactivate", Footprint::Cross, "activation walks every tree for preemption"),
    ("QueryActiveStack", Footprint::Cross, "reads the global active stack"),
    ("CreateVDevice", Footprint::Own, "own tree + own-shard root memo write; punts if tree active"),
    ("DestroyVDevice", Footprint::Cross, "may rebind hardware and rewrite engine plans"),
    ("AugmentVDevice", Footprint::Cross, "attribute change can force a hardware rebind"),
    ("QueryVDeviceAttributes", Footprint::Own, "own vdev + read-only hardware registry"),
    ("SetDeviceControl", Footprint::Cross, "drives physical device state"),
    ("GetDeviceControl", Footprint::Cross, "reads physical device state"),
    ("CreateWire", Footprint::Own, "both endpoints owned; cycle check stays in-shard"),
    ("DestroyWire", Footprint::Own, "own wire removal; plan cache invalidated atomically"),
    ("QueryWire", Footprint::Own, "reads one own-shard wire"),
    ("QueryDeviceWires", Footprint::Own, "a client's wire component lives in its shard"),
    ("Enqueue", Footprint::Own, "appends to the own root's queue"),
    ("Immediate", Footprint::Cross, "bypasses the queue into live engine state"),
    ("StartQueue", Footprint::Own, "own queue + own-shard device unpause"),
    ("StopQueue", Footprint::Cross, "tears down running entries via engine state"),
    ("PauseQueue", Footprint::Cross, "pauses running devices through the engine"),
    ("ResumeQueue", Footprint::Cross, "resumes running devices through the engine"),
    ("FlushQueue", Footprint::Cross, "cancels running entries via engine state"),
    ("QueryQueue", Footprint::Own, "reads the own root's queue"),
    ("CreateSound", Footprint::Own, "new own-shard sound"),
    ("DeleteSound", Footprint::Cross, "must check no queue on any shard references it"),
    ("WriteSoundData", Footprint::Own, "appends to an own-shard sound"),
    ("ReadSoundData", Footprint::Own, "reads an own-shard sound"),
    ("QuerySound", Footprint::Own, "reads an own-shard sound"),
    ("ListCatalog", Footprint::Global, "read-only catalog registry"),
    ("OpenCatalogSound", Footprint::Own, "new own-shard sound from the read-only catalog"),
    ("SelectEvents", Footprint::Cross, "selections live in global client state"),
    ("SetSyncInterval", Footprint::Own, "writes one own-shard vdev field"),
    ("InternAtom", Footprint::Cross, "mutates the global atom table"),
    ("GetAtomName", Footprint::Global, "read-only atom table"),
    ("ChangeProperty", Footprint::Own, "own-target property write + event fan-out"),
    ("GetProperty", Footprint::Own, "reads an own-target property"),
    ("DeleteProperty", Footprint::Own, "own-target property removal + event fan-out"),
    ("ListProperties", Footprint::Own, "reads own-target properties"),
    ("QueryDeviceLoud", Footprint::Cross, "walks the device LOUD (shard 0, shared)"),
    ("SetRedirect", Footprint::Cross, "installs the global manager redirect"),
    ("AllowMap", Footprint::Cross, "manager approval mutates the active stack"),
    ("AllowRaise", Footprint::Cross, "manager approval mutates the active stack"),
    ("GetServerInfo", Footprint::Global, "read-only config + device time"),
    ("Sync", Footprint::Global, "pure fence, no state"),
    ("QueryServerStats", Footprint::Cross, "aggregates telemetry across all clients"),
    ("ListClients", Footprint::Cross, "reads the global client table"),
    ("QueryTraces", Footprint::Cross, "snapshots the cross-client flight-recorder ring"),
];

/// Exclusive access to one shard's partition of every sharded map. Each
/// field is a [`ShardMut`] guard: in debug builds its lifetime is
/// registered with the borrow sanitizer, so any `&Core` read of the same
/// shard while the view is live panics instead of racing.
pub struct ShardView<'a> {
    pub louds: ShardMut<'a, u32, Loud>,
    pub vdevs: ShardMut<'a, u32, VDev>,
    pub wires: ShardMut<'a, u32, Wire>,
    pub sounds: ShardMut<'a, u32, Sound>,
    pub properties: ShardMut<'a, ResKey, HashMap<u32, Property>>,
}

impl<'a> ShardView<'a> {
    /// Builds the view over shard `shard`.
    ///
    /// # Safety
    ///
    /// The caller must hold the core lock in read mode and stripe
    /// `shard`, and must not access any of the five sharded maps on
    /// shard-`shard` keys through `&Core` while the view is live.
    pub unsafe fn new(core: &'a Core, shard: usize) -> ShardView<'a> {
        ShardView {
            louds: core.louds.shard_mut(shard),
            vdevs: core.vdevs.shard_mut(shard),
            wires: core.wires.shard_mut(shard),
            sounds: core.sounds.shard_mut(shard),
            properties: core.properties.shard_mut(shard),
        }
    }
}

/// Outcome of a fast-path attempt.
enum FastOutcome {
    /// Executed to completion (reply/error already determined).
    Done(DispatchResult),
    /// Needs the slow path; **no state was mutated**.
    Punt,
}

/// Is the request on the fast-path whitelist with every referenced id
/// inside the client's own id range?
fn eligible(client: ClientId, request: &Request) -> bool {
    match request {
        Request::CreateLoud { id, parent } => {
            owns_id(client, id.0) && parent.map(|p| owns_id(client, p.0)).unwrap_or(true)
        }
        Request::CreateVDevice { id, loud, .. } => {
            owns_id(client, id.0) && owns_id(client, loud.0)
        }
        Request::CreateWire { id, src, dst, .. } => {
            owns_id(client, id.0) && owns_id(client, src.0) && owns_id(client, dst.0)
        }
        Request::DestroyWire { id }
        | Request::QueryWire { id } => owns_id(client, id.0),
        Request::QueryDeviceWires { id }
        | Request::QueryVDeviceAttributes { id } => owns_id(client, id.0),
        Request::SetSyncInterval { vdev, .. } => owns_id(client, vdev.0),
        Request::Enqueue { loud, .. }
        | Request::StartQueue { loud }
        | Request::QueryQueue { loud } => owns_id(client, loud.0),
        Request::CreateSound { id, .. }
        | Request::OpenCatalogSound { id, .. }
        | Request::WriteSoundData { id, .. }
        | Request::ReadSoundData { id, .. }
        | Request::QuerySound { id } => owns_id(client, id.0),
        Request::ChangeProperty { target, .. }
        | Request::GetProperty { target, .. }
        | Request::DeleteProperty { target, .. }
        | Request::ListProperties { target } => own_target(client, *target),
        Request::ListCatalog { .. }
        | Request::GetAtomName { .. }
        | Request::GetServerInfo
        | Request::Sync => true,
        _ => false,
    }
}

/// Attempts the fast path. Returns `true` when the request was fully
/// handled (reply/error queued); `false` means nothing happened and the
/// caller must dispatch under the write lock.
pub fn try_dispatch(core: &RwLock<Core>, client: ClientId, seq: u32, request: &Request) -> bool {
    if !eligible(client, request) {
        return false;
    }
    let done = {
        let c = core.read();
        if c.shutting_down {
            return false;
        }
        let started = std::time::Instant::now();
        let op = request.opcode();
        c.tel.recorder.dispatch_begin(client.0, seq);
        let shard = (client.0 as usize) % c.stripes.len();
        let waited = std::time::Instant::now();
        let stripe = c.stripes.stripe(shard);
        let _stripe = stripe.lock();
        let shard_wait = waited.elapsed();
        c.tel.metrics.shard_lock_wait_us.record_duration_us(shard_wait);
        let held = std::time::Instant::now();
        let _span =
            da_telemetry::span!(c.tel.journal, "dispatch", client = client.0, opcode = op);
        let outcome = {
            // Debug builds tally allocations made by the fast-path
            // executor itself (readable via `rt::scope_allocs`); the
            // zero-alloc suite asserts pure opcodes tally zero.
            let _count = crate::rt::ScopedAllocGuard::count();
            // SAFETY: core read lock + stripe `shard` held; within this
            // block the sharded maps are accessed only through the view.
            let mut view = unsafe { ShardView::new(&c, shard) };
            exec_fast(&c, &mut view, client, seq, request)
        };
        let handled = match outcome {
            FastOutcome::Punt => false,
            FastOutcome::Done(result) => {
                c.tel.count_opcode(op as usize);
                c.tel.metrics.dispatch_requests_total.inc();
                c.tel.metrics.dispatch_fast_total.inc();
                if result.is_err() {
                    c.tel.metrics.dispatch_errors_total.inc();
                }
                c.tel.metrics.dispatch_latency_us.record_duration_us(started.elapsed());
                let completes = !request.has_reply() && result.is_ok();
                c.tel.recorder.dispatch_done(
                    client.0,
                    seq,
                    true,
                    shard_wait.as_micros() as u64, // cast-ok: stripe wait in µs, far below u64::MAX
                    completes,
                );
                match result {
                    Ok(Some(reply)) => c.send_to_client(client, ServerMsg::Reply(seq, reply)),
                    Ok(None) => {
                        if request.has_reply() {
                            c.send_to_client(
                                client,
                                ServerMsg::Error(
                                    seq,
                                    err(ErrorCode::Unimplemented, 0, "no reply produced"),
                                ),
                            );
                        }
                    }
                    Err(e) => c.send_to_client(client, ServerMsg::Error(seq, e)),
                }
                true
            }
        };
        c.tel.metrics.shard_lock_hold_us.record_duration_us(held.elapsed());
        handled
    };
    // Debug builds re-establish the full invariant set after every fast
    // dispatch, exactly like the slow path — under the write lock, so
    // the sweep sees a quiesced world.
    #[cfg(debug_assertions)]
    if done {
        let c = core.write();
        if let Err(v) = crate::validate::check(&c) {
            let dbg = format!("{request:?}");
            let name = dbg.split(|ch: char| !ch.is_alphanumeric()).next().unwrap_or("?");
            panic!("protocol invariant violated after fast-path {name}: {v}");
        }
    }
    done
}

/// The root of the LOUD tree containing `loud`, walking the view.
fn root_of(louds: &HashMap<u32, Loud>, loud: u32) -> u32 {
    let mut cur = loud;
    while let Some(l) = louds.get(&cur) {
        match l.parent {
            Some(p) => cur = p,
            None => return cur,
        }
    }
    cur
}

/// Is `to` reachable from `from` along this shard's wires? Complete for
/// own-client endpoints: wires always join two devices of one owner, so
/// the wire graph decomposes per client and a client's component lives
/// wholly inside its shard.
fn reaches(wires: &HashMap<u32, Wire>, from: u32, to: u32) -> bool {
    let mut stack = vec![from];
    let mut seen = std::collections::HashSet::new();
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !seen.insert(v) {
            continue;
        }
        for w in wires.values() {
            if w.src.0 == v {
                stack.push(w.dst.0);
            }
        }
    }
    false
}

/// A property/selection target must exist; fast-eligible targets are
/// always own-client, so the view is authoritative.
fn validate_target(view: &ShardView, core: &Core, target: ResourceId) -> Result<(), ProtoError> {
    match target {
        ResourceId::Loud(id) => view
            .louds
            .get(&id.0)
            .map(|_| ())
            .ok_or_else(|| err(ErrorCode::BadLoud, id.0, "no such loud")),
        ResourceId::VDevice(id) => view
            .vdevs
            .get(&id.0)
            .map(|_| ())
            .ok_or_else(|| err(ErrorCode::BadDevice, id.0, "no such device")),
        ResourceId::Sound(id) => view
            .sounds
            .get(&id.0)
            .map(|_| ())
            .ok_or_else(|| err(ErrorCode::BadSound, id.0, "no such sound")),
        ResourceId::Device(id) => {
            // Unreachable: device targets are never fast-eligible.
            let _ = core;
            Err(err(ErrorCode::BadDevice, id.0, "no such physical device"))
        }
    }
}

/// Executes one fast-eligible request against the client's shard.
fn exec_fast(
    core: &Core,
    view: &mut ShardView,
    client: ClientId,
    seq: u32,
    request: &Request,
) -> FastOutcome {
    use FastOutcome::{Done, Punt};
    match request {
        Request::CreateLoud { id, parent } => {
            if view.louds.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadIdChoice, id.0, "loud id unavailable")));
            }
            let parent_raw = match parent {
                None => None,
                Some(p) => {
                    let Some(pl) = view.louds.get(&p.0) else {
                        return Done(Err(err(ErrorCode::BadLoud, p.0, "parent loud")));
                    };
                    if pl.owner != client {
                        return Done(Err(err(
                            ErrorCode::BadAccess,
                            p.0,
                            "parent owned by another client",
                        )));
                    }
                    Some(p.0)
                }
            };
            view.louds.insert(id.0, Loud::new(*id, client, parent_raw));
            if let Some(p) = parent_raw {
                if let Some(pl) = view.louds.get_mut(&p) {
                    pl.children.push(id.0);
                }
            }
            Done(Ok(None))
        }

        Request::CreateVDevice { id, loud, class, attrs } => {
            if view.vdevs.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadIdChoice, id.0, "vdevice id unavailable")));
            }
            let Some(l) = view.louds.get(&loud.0) else {
                return Done(Err(err(ErrorCode::BadLoud, loud.0, "no such loud")));
            };
            if l.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, loud.0, "not owner")));
            }
            if Core::needs_hardware(*class) {
                let any =
                    (0..core.hw.device_count()).any(|i| core.device_matches(i, *class, attrs));
                if !any {
                    return Done(Err(err(
                        ErrorCode::DeviceBusy,
                        id.0,
                        "no physical device satisfies the attribute constraints",
                    )));
                }
            }
            let root = root_of(&view.louds, loud.0);
            // An already-active tree must rebind (recompute_activation),
            // which walks cross-shard state — punt before mutating.
            if view.louds.get(&root).map(|l| l.active) == Some(true) {
                return Punt;
            }
            let v = VDev::new(*id, client, loud.0, root, *class, attrs.clone());
            view.vdevs.insert(id.0, v);
            core.invalidate_plans();
            if let Some(l) = view.louds.get_mut(&loud.0) {
                l.vdevs.push(id.0);
            }
            // The root's activation memo is stale; the next walk
            // re-binds it (the root is own-shard, like its tree).
            if let Some(r) = view.louds.get_mut(&root) {
                r.dirty = true;
            }
            Done(Ok(None))
        }

        Request::QueryVDeviceAttributes { id } => {
            let Some(v) = view.vdevs.get(&id.0) else {
                return Done(Err(err(ErrorCode::BadDevice, id.0, "no such device")));
            };
            let mapped_device = match v.binding {
                Some(crate::vdevice::HwBinding::Speaker(_))
                | Some(crate::vdevice::HwBinding::Microphone(_))
                | Some(crate::vdevice::HwBinding::Line(_)) => {
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
            Done(Ok(Some(Reply::VDeviceAttributes { attrs: v.attrs.clone(), mapped_device })))
        }

        Request::SetSyncInterval { vdev, interval_frames } => {
            let Some(v) = view.vdevs.get_mut(&vdev.0) else {
                return Done(Err(err(ErrorCode::BadDevice, vdev.0, "no such device")));
            };
            if v.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, vdev.0, "not owner")));
            }
            v.sync_interval = *interval_frames;
            Done(Ok(None))
        }

        Request::CreateWire { id, src, src_port, dst, dst_port, wire_type } => {
            if view.wires.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadIdChoice, id.0, "wire id unavailable")));
            }
            let Some(sv) = view.vdevs.get(&src.0) else {
                return Done(Err(err(ErrorCode::BadDevice, src.0, "no such device")));
            };
            let Some(dv) = view.vdevs.get(&dst.0) else {
                return Done(Err(err(ErrorCode::BadDevice, dst.0, "no such device")));
            };
            if sv.owner != client || dv.owner != client {
                return Done(Err(err(
                    ErrorCode::BadAccess,
                    id.0,
                    "devices owned by another client",
                )));
            }
            if src.0 == dst.0 {
                return Done(Err(err(
                    ErrorCode::BadMatch,
                    id.0,
                    "cannot wire a device to itself",
                )));
            }
            if sv.root != dv.root {
                return Done(Err(err(ErrorCode::BadMatch, id.0, "wire crosses LOUD trees")));
            }
            if !sv.has_port(PortDir::Source, *src_port) {
                return Done(Err(err(
                    ErrorCode::BadValue,
                    u32::from(*src_port),
                    "bad source port",
                )));
            }
            if !dv.has_port(PortDir::Sink, *dst_port) {
                return Done(Err(err(
                    ErrorCode::BadValue,
                    u32::from(*dst_port),
                    "bad sink port",
                )));
            }
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
                    return Done(Err(err(
                        ErrorCode::BadMatch,
                        id.0,
                        "analog wires exist only in the device LOUD",
                    )));
                }
                t @ WireType::Digital(_) => {
                    if !t.admits(&src_t) && !t.admits(&dst_t) {
                        return Done(Err(err(ErrorCode::BadMatch, id.0, "wire type mismatch")));
                    }
                }
            }
            if reaches(&view.wires, dst.0, src.0) {
                return Done(Err(err(ErrorCode::BadMatch, id.0, "wire would create a cycle")));
            }
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
                        return Done(Err(err(
                            ErrorCode::BadMatch,
                            id.0,
                            "devices are hard-wired elsewhere; the requested path cannot exist",
                        )));
                    }
                }
            }
            view.wires
                .insert(id.0, Wire::new(*id, client, *src, *src_port, *dst, *dst_port, *wire_type));
            core.invalidate_plans();
            Done(Ok(None))
        }

        Request::DestroyWire { id } => {
            let Some(w) = view.wires.get(&id.0) else {
                return Done(Err(err(ErrorCode::BadWire, id.0, "no such wire")));
            };
            if w.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, id.0, "not owner")));
            }
            view.wires.remove(&id.0);
            core.invalidate_plans();
            Done(Ok(None))
        }

        Request::QueryWire { id } => {
            let Some(w) = view.wires.get(&id.0) else {
                return Done(Err(err(ErrorCode::BadWire, id.0, "no such wire")));
            };
            Done(Ok(Some(Reply::WireInfo {
                src: w.src,
                src_port: w.src_port,
                dst: w.dst,
                dst_port: w.dst_port,
                wire_type: w.wire_type,
            })))
        }

        Request::QueryDeviceWires { id } => {
            if !view.vdevs.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadDevice, id.0, "no such device")));
            }
            // Own-shard iteration is complete: any wire referencing this
            // device was created by — and is sharded with — its owner.
            let wires = view
                .wires
                .values()
                .filter(|w| w.src == *id || w.dst == *id)
                .map(|w| w.id)
                .collect();
            Done(Ok(Some(Reply::DeviceWires { wires })))
        }

        // ---- Queues -------------------------------------------------------
        Request::Enqueue { loud, entries } => {
            let Some(l) = view.louds.get_mut(&loud.0) else {
                return Done(Err(err(ErrorCode::BadLoud, loud.0, "no such loud")));
            };
            if l.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, loud.0, "not owner")));
            }
            if !l.is_root() {
                return Done(Err(err(ErrorCode::BadLoud, loud.0, "queues live on root LOUDs")));
            }
            if let Some(q) = l.queue.as_mut() {
                let first = q.entry_cursor();
                q.enqueue(entries.clone());
                if q.entry_cursor() > first {
                    // The trace now completes at the CommandDone drain
                    // for the first node parsed from this request.
                    core.tel.recorder.register_watch(loud.0, first, client.0, seq);
                }
            }
            Done(Ok(None))
        }

        Request::StartQueue { loud } => {
            let root = loud.0;
            let Some(l) = view.louds.get_mut(&root) else {
                return Done(Err(err(ErrorCode::BadLoud, root, "no such loud")));
            };
            if l.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, root, "not owner")));
            }
            let prior = {
                let Some(q) = l.queue.as_mut() else {
                    return Done(Err(err(ErrorCode::BadLoud, root, "not a root loud")));
                };
                let prior = q.state();
                match q.typed() {
                    TypedQueue::Stopped(t) => {
                        t.start();
                    }
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
                    // Unpause the queue's running devices (all in-tree,
                    // hence own-shard).
                    let devices = {
                        let Some(l) = view.louds.get(&root) else { return Done(Ok(None)) };
                        let mut devs = Vec::new();
                        if let Some(q) = &l.queue {
                            if let Some(run) = &q.running {
                                run.running_devices(&mut devs);
                            }
                        }
                        devs
                    };
                    for d in devices {
                        if let Some(v) = view.vdevs.get_mut(&d.0) {
                            v.paused = false;
                        }
                    }
                    core.send_event(ResKey(0, root), Event::QueueResumed { loud: LoudId(root) });
                }
                QueueState::Started | QueueState::ServerPaused => {}
            }
            Done(Ok(None))
        }

        Request::QueryQueue { loud } => {
            let Some(l) = view.louds.get(&loud.0) else {
                return Done(Err(err(ErrorCode::BadLoud, loud.0, "no such loud")));
            };
            let Some(q) = &l.queue else {
                return Done(Err(err(ErrorCode::BadLoud, loud.0, "not a root loud")));
            };
            Done(Ok(Some(Reply::QueueInfo {
                state: q.state(),
                pending: q.pending_len(),
                relative_frames: q.relative_frames,
            })))
        }

        // ---- Sounds -------------------------------------------------------
        Request::CreateSound { id, stype } => {
            if view.sounds.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable")));
            }
            if stype.sample_rate == 0 || stype.channels == 0 {
                return Done(Err(err(ErrorCode::BadValue, id.0, "bad sound type")));
            }
            view.sounds.insert(id.0, Sound::new(*id, client, *stype));
            Done(Ok(None))
        }

        Request::OpenCatalogSound { id, catalog, name } => {
            if view.sounds.contains_key(&id.0) {
                return Done(Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable")));
            }
            let Some(cat) = core.catalogs.get(catalog, name) else {
                return Done(Err(err(ErrorCode::BadValue, id.0, "no such catalogue sound")));
            };
            view.sounds.insert(id.0, Sound::from_catalog(*id, client, cat));
            Done(Ok(None))
        }

        Request::WriteSoundData { id, data, eof } => {
            let Some(s) = view.sounds.get_mut(&id.0) else {
                return Done(Err(err(ErrorCode::BadSound, id.0, "no such sound")));
            };
            if s.owner != client {
                return Done(Err(err(ErrorCode::BadAccess, id.0, "not owner")));
            }
            if s.complete {
                return Done(Err(err(ErrorCode::BadMatch, id.0, "sound already complete")));
            }
            if s.len_bytes() + data.len() as u64 > da_proto::types::MAX_SOUND_BYTES {
                // Rejected before any allocation, mirroring the
                // connection plane's oversized-frame policy.
                core.tel.metrics.sounds_rejected_oversize_total.inc();
                return Done(Err(err(ErrorCode::BadValue, id.0, "sound exceeds maximum size")));
            }
            if !s.append(data, *eof) {
                return Done(Err(err(
                    ErrorCode::BadMatch,
                    id.0,
                    "catalogue sounds are immutable",
                )));
            }
            if s.complete {
                // Final block: intern the finished payload so identical
                // content across clients shares one allocation
                // (DESIGN.md §17). The store is a leaf below the stripe.
                let (arc, hash) =
                    core.store.intern_payload(s.stype, std::mem::take(&mut s.data));
                s.shared = Some(arc);
                s.content_hash = Some(hash);
            }
            Done(Ok(None))
        }

        Request::ReadSoundData { id, offset, len } => {
            let Some(s) = view.sounds.get(&id.0) else {
                return Done(Err(err(ErrorCode::BadSound, id.0, "no such sound")));
            };
            let bytes = s.bytes();
            let start = (*offset as usize).min(bytes.len());
            let end = start.saturating_add(*len as usize).min(bytes.len());
            Done(Ok(Some(Reply::SoundData {
                data: bytes[start..end].to_vec(),
                // A streaming sound's tail is not the end: more data may
                // arrive until the `eof` block lands.
                at_end: s.complete && end == bytes.len(),
            })))
        }

        Request::QuerySound { id } => {
            let Some(s) = view.sounds.get(&id.0) else {
                return Done(Err(err(ErrorCode::BadSound, id.0, "no such sound")));
            };
            Done(Ok(Some(Reply::SoundInfo {
                stype: s.stype,
                bytes: s.len_bytes(),
                frames: s.len_frames(),
                complete: s.complete,
            })))
        }

        Request::ListCatalog { catalog } => {
            Done(Ok(Some(Reply::Catalog { names: core.catalogs.list(catalog) })))
        }

        // ---- Atoms & properties -------------------------------------------
        Request::GetAtomName { atom } => match core.atoms.name(*atom) {
            Some(n) => Done(Ok(Some(Reply::AtomName { name: n.to_string() }))),
            None => Done(Err(err(ErrorCode::BadAtom, atom.0, "unknown atom"))),
        },

        Request::ChangeProperty { target, name, type_, value } => {
            if let Err(e) = validate_target(view, core, *target) {
                return Done(Err(e));
            }
            if core.atoms.name(*name).is_none() {
                return Done(Err(err(ErrorCode::BadAtom, name.0, "unknown property atom")));
            }
            if core.atoms.name(*type_).is_none() {
                return Done(Err(err(ErrorCode::BadAtom, type_.0, "unknown type atom")));
            }
            let key = crate::core::res_key(*target);
            view.properties
                .entry(key)
                .or_default()
                .insert(name.0, Property { name: *name, type_: *type_, value: value.clone() });
            core.send_event(
                key,
                Event::PropertyNotify { target: *target, name: *name, deleted: false },
            );
            Done(Ok(None))
        }

        Request::GetProperty { target, name } => {
            if let Err(e) = validate_target(view, core, *target) {
                return Done(Err(e));
            }
            let key = crate::core::res_key(*target);
            let property = view.properties.get(&key).and_then(|m| m.get(&name.0)).cloned();
            Done(Ok(Some(Reply::Property { property })))
        }

        Request::DeleteProperty { target, name } => {
            if let Err(e) = validate_target(view, core, *target) {
                return Done(Err(e));
            }
            let key = crate::core::res_key(*target);
            let removed =
                view.properties.get_mut(&key).and_then(|m| m.remove(&name.0)).is_some();
            if removed {
                core.send_event(
                    key,
                    Event::PropertyNotify { target: *target, name: *name, deleted: true },
                );
            }
            Done(Ok(None))
        }

        Request::ListProperties { target } => {
            if let Err(e) = validate_target(view, core, *target) {
                return Done(Err(e));
            }
            let key = crate::core::res_key(*target);
            let names = view
                .properties
                .get(&key)
                .map(|m| m.values().map(|p| p.name).collect())
                .unwrap_or_default();
            Done(Ok(Some(Reply::PropertyList { names })))
        }

        // ---- Miscellaneous ------------------------------------------------
        Request::GetServerInfo => Done(Ok(Some(Reply::ServerInfo {
            vendor: core.config.vendor.clone(),
            protocol_major: da_proto::PROTOCOL_MAJOR,
            protocol_minor: da_proto::PROTOCOL_MINOR,
            device_time: core.device_time,
        }))),
        Request::Sync => Done(Ok(Some(Reply::Sync))),

        // Anything else on the whitelist is a bug in `eligible`; punt so
        // the slow path produces the authoritative answer.
        _ => Punt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServerConfig;
    use crossbeam::channel::unbounded;
    use da_proto::request::Request;

    fn rigged() -> (RwLock<Core>, ClientId, crossbeam::channel::Receiver<ServerMsg>) {
        let mut core = Core::new(ServerConfig { manual_ticks: true, ..ServerConfig::default() });
        let (tx, rx) = unbounded();
        let (client, _base, _mask) = core.add_client_with_counters(
            "fast".into(),
            tx,
            std::sync::Arc::new(da_telemetry::ConnCounters::default()),
        );
        (RwLock::new(core), client, rx)
    }

    #[test]
    fn own_client_create_loud_takes_fast_path() {
        let (core, client, rx) = rigged();
        let id = LoudId((client.0 << 20) | 1);
        let handled = try_dispatch(&core, client, 7, &Request::CreateLoud { id, parent: None });
        assert!(handled, "own-id CreateLoud must be fast-eligible");
        assert_eq!(core.read().tel.metrics.dispatch_fast_total.get(), 1);
        assert!(core.read().louds.contains_key(&id.0));
        // CreateLoud has no reply; nothing should have been sent.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn foreign_id_punts() {
        let (core, client, _rx) = rigged();
        let id = LoudId(((client.0 + 1) << 20) | 1);
        assert!(!try_dispatch(&core, client, 7, &Request::CreateLoud { id, parent: None }));
        assert_eq!(core.read().tel.metrics.dispatch_fast_total.get(), 0);
    }

    #[test]
    fn sync_gets_fast_reply() {
        let (core, client, rx) = rigged();
        assert!(try_dispatch(&core, client, 9, &Request::Sync));
        match rx.try_recv() {
            Ok(ServerMsg::Reply(9, Reply::Sync)) => {}
            other => panic!("expected Sync reply, got {other:?}"),
        }
    }
}
