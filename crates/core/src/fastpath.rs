//! Sharded dispatch (DESIGN.md §13): the one handler for every
//! fast-eligible opcode, and the read-lock fast path that runs it.
//!
//! A request is *fast-eligible* when its opcode is on the whitelist
//! below and every resource id it references belongs to the requesting
//! client (`id >> 20 == client`). Such a request touches only the
//! client's own shard of the resource maps plus read-only global state,
//! so it dispatches under the core **read** lock + that shard's stripe
//! — concurrently with fast-path requests from clients on other shards.
//! Everything else (activation, destroys, manager redirection, event
//! selection, stats) punts to the global-write-lock slow path in
//! [`crate::dispatch`].
//!
//! Each `Own`/`Global` opcode has exactly one handler, an arm of
//! [`exec_shard`], written against a [`ShardView`]. The fast path runs
//! it over a view of the client's shard; the write-lock path runs the
//! same arm over an exclusive view of every shard, which is what a
//! request naming another client's ids needs.
//!
//! Aliasing rule: handlers reach the sharded maps **only** through the
//! [`ShardView`] (never through `core.louds` etc. — mixing a `&` read
//! with the view's `&mut` on the same map is UB), and use `&Core` only
//! for state that is mutated exclusively under the write lock (clients,
//! selections, hardware, atoms, catalogs, config, device time, the
//! engine data plane) or is atomic (`topology_gen`).

use crate::core::{res_key, Core, ResKey};
use crate::dispatch::{err, finish_dispatch, owns_id};
use crate::loud::Loud;
use crate::queue::TypedQueue;
use crate::shard::MapView;
use crate::sound::Sound;
use crate::vdevice::{HwBinding, VDev};
use crate::wire::Wire;
use da_hw::registry::HwSlot;
use da_proto::error::{ErrorCode, ProtoError};
use da_proto::event::Event;
use da_proto::ids::{ClientId, DeviceId, LoudId, ResourceId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{PortDir, Property, SoundType, WireType};
use parking_lot::{MutexGuard, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::time::{Duration, Instant};

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
/// this table: every variant has exactly one row, the [`eligible`]
/// whitelist and the [`exec_shard`] arm set are exactly the
/// `Own`/`Global` rows, and `dispatch::execute`'s own arms are exactly
/// the `Cross` rows — so a handler added to one place but not the
/// others fails CI instead of silently punting or, worse, running
/// cross-shard work under a read lock.
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
    ("StartQueue", Footprint::Own, "own queue; a resume's device unpause punts to the write lock"),
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

/// Exclusive access to every sharded map, as the handlers see it: one
/// shard's partition (the fast path) or every shard (the write-lock
/// path), each key routed to its own shard. Each map field is a
/// [`MapView`] guard: in debug builds its lifetime is registered with
/// the borrow sanitizer, so any `&Core` read of a covered shard while
/// the view is live panics instead of racing, and a single-shard view
/// panics when asked for a key outside its shard.
///
/// There are two ways to build one, and each proves its own lock:
/// [`ShardView::striped`] takes a core read guard and locks the shard's
/// stripe itself, [`ShardView::exclusive`] takes `&mut Core`.
pub struct ShardView<'a> {
    pub louds: MapView<'a, u32, Loud>,
    pub vdevs: MapView<'a, u32, VDev>,
    pub wires: MapView<'a, u32, Wire>,
    pub sounds: MapView<'a, u32, Sound>,
    pub properties: MapView<'a, ResKey, HashMap<u32, Property>>,
    /// The stripe a single-shard view holds, with how long it waited
    /// for it; `None` for the exclusive form. Declared after the maps, so
    /// the stripe is released only once every map view has dropped.
    stripe: Option<(MutexGuard<'a, ()>, Duration)>,
}

impl<'a> ShardView<'a> {
    /// Builds the view over shard `only`, or over every shard for
    /// `None`, taking no lock. Private: [`striped`](Self::striped) and
    /// [`exclusive`](Self::exclusive) are the ways in.
    ///
    /// # Safety
    ///
    /// For one shard the caller must hold the core lock in read mode and
    /// that shard's stripe; for every shard, exclusive access to the
    /// core. Either way it must not access any of the five sharded maps
    /// through `&Core` while the view is live.
    unsafe fn new(core: &'a Core, only: Option<usize>) -> ShardView<'a> {
        ShardView {
            louds: core.louds.view_mut(only),
            vdevs: core.vdevs.view_mut(only),
            wires: core.wires.view_mut(only),
            sounds: core.sounds.view_mut(only),
            properties: core.properties.view_mut(only),
            stripe: None,
        }
    }

    /// The fast-path form: a view of shard `shard` under a core read
    /// guard. It locks that shard's stripe itself and holds it until the
    /// view drops, so a view without its stripe, with another shard's
    /// stripe, or with the stripe taken before the core lock cannot be
    /// written. The stripe wait goes to `shard_lock_wait_us` and stays
    /// readable through [`stripe_wait`](Self::stripe_wait). A thread
    /// holds one such view at a time: a second would take a second
    /// stripe, and two threads doing that in opposite orders deadlock.
    ///
    /// ```no_run
    /// use da_server::{core::Core, fastpath::ShardView, ServerConfig};
    /// let core = parking_lot::RwLock::new(Core::new(ServerConfig::default()));
    /// let guard = core.read();
    /// // SAFETY: the sharded maps are reached only through the view.
    /// let _view = unsafe { ShardView::striped(&guard, 0) };
    /// ```
    ///
    /// Under the write lock the exclusive form is the only view:
    ///
    /// ```compile_fail
    /// use da_server::{core::Core, fastpath::ShardView, ServerConfig};
    /// let core = parking_lot::RwLock::new(Core::new(ServerConfig::default()));
    /// let guard = core.write(); // ERROR below: expected `RwLockReadGuard`
    /// // SAFETY: the sharded maps are reached only through the view.
    /// let _view = unsafe { ShardView::striped(&guard, 0) };
    /// ```
    ///
    /// Nor can a single-shard view skip the stripe:
    ///
    /// ```compile_fail
    /// use da_server::{core::Core, fastpath::ShardView, ServerConfig};
    /// let core = parking_lot::RwLock::new(Core::new(ServerConfig::default()));
    /// let guard = core.read();
    /// // SAFETY: the sharded maps are reached only through the view.
    /// let _view = unsafe { ShardView::new(&guard, Some(0)) }; // ERROR: `new` is private
    /// ```
    ///
    /// # Safety
    ///
    /// The caller must not access any of the five sharded maps through
    /// `core` while the view is live.
    pub unsafe fn striped(core: &'a RwLockReadGuard<'_, Core>, shard: usize) -> ShardView<'a> {
        let core: &'a Core = core;
        let waited = Instant::now();
        let stripe = core.stripes.stripe(shard);
        let lock = stripe.lock();
        let wait = waited.elapsed();
        core.tel.metrics.shard_lock_wait_us.record_duration_us(wait);
        ShardView { stripe: Some((lock, wait)), ..ShardView::new(core, Some(shard)) }
    }

    /// The write-lock form: a view of every shard, returned with the
    /// shared core the handlers read global state through. The `&mut`
    /// proves nothing else can reach the core meanwhile.
    ///
    /// # Safety
    ///
    /// The caller must not access any of the five sharded maps through
    /// the returned `&Core` while the view is live.
    pub unsafe fn exclusive(core: &'a mut Core) -> (&'a Core, ShardView<'a>) {
        let core: &'a Core = core;
        (core, ShardView::new(core, None))
    }

    /// How long a single-shard view waited for its stripe; `None` for
    /// the exclusive form, which holds no stripe.
    pub fn stripe_wait(&self) -> Option<Duration> {
        self.stripe.as_ref().map(|&(_, wait)| wait)
    }

    fn loud(&self, id: u32) -> Result<&Loud, ProtoError> {
        self.louds.get(&id).ok_or_else(|| err(ErrorCode::BadLoud, id, "no such loud"))
    }

    fn loud_mut(&mut self, id: u32) -> Result<&mut Loud, ProtoError> {
        self.louds.get_mut(&id).ok_or_else(|| err(ErrorCode::BadLoud, id, "no such loud"))
    }

    fn vdev(&self, id: u32) -> Result<&VDev, ProtoError> {
        self.vdevs.get(&id).ok_or_else(|| err(ErrorCode::BadDevice, id, "no such device"))
    }

    fn wire(&self, id: u32) -> Result<&Wire, ProtoError> {
        self.wires.get(&id).ok_or_else(|| err(ErrorCode::BadWire, id, "no such wire"))
    }

    fn sound(&self, id: u32) -> Result<&Sound, ProtoError> {
        self.sounds.get(&id).ok_or_else(|| err(ErrorCode::BadSound, id, "no such sound"))
    }

    fn sound_mut(&mut self, id: u32) -> Result<&mut Sound, ProtoError> {
        self.sounds.get_mut(&id).ok_or_else(|| err(ErrorCode::BadSound, id, "no such sound"))
    }

    /// The root of the LOUD tree containing `loud`.
    fn root_of(&self, loud: u32) -> u32 {
        let mut cur = loud;
        while let Some(l) = self.louds.get(&cur) {
            match l.parent {
                Some(p) => cur = p,
                None => return cur,
            }
        }
        cur
    }

    /// Is `to` reachable from `from` along wires? Used for cycle
    /// rejection. A single-shard view is complete for own-client
    /// endpoints: wires always join two devices of one owner, so the
    /// wire graph decomposes per client and a client's component lives
    /// wholly inside its shard.
    fn reaches(&self, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = stack.pop() {
            if v == to {
                return true;
            }
            if !seen.insert(v) {
                continue;
            }
            for w in self.wires.values() {
                if w.src.0 == v {
                    stack.push(w.dst.0);
                }
            }
        }
        false
    }

    /// A property or selection target must exist.
    pub(crate) fn validate_target(
        &self,
        core: &Core,
        target: ResourceId,
    ) -> Result<(), ProtoError> {
        match target {
            ResourceId::Loud(id) => self.loud(id.0).map(drop),
            ResourceId::VDevice(id) => self.vdev(id.0).map(drop),
            ResourceId::Sound(id) => self.sound(id.0).map(drop),
            ResourceId::Device(id) if id.0 as usize >= core.hw.device_count() => {
                Err(err(ErrorCode::BadDevice, id.0, "no such physical device"))
            }
            ResourceId::Device(_) => Ok(()),
        }
    }
}

/// What a shard handler did with a request.
pub(crate) enum Handled {
    /// Executed; the reply, if any, is final.
    Done(Option<Reply>),
    /// The tree must re-bind at once, which takes the activation walk
    /// under the write lock. A single-shard view returns this before
    /// mutating anything, and the caller re-runs the request under the
    /// write lock; the exclusive view returns it once the request has
    /// executed (with no reply), and the caller runs the walk.
    Rebind,
    /// Root `root`'s queue resumed, so its running devices must unpause
    /// through their engine slots, which takes the write lock. A
    /// single-shard view returns this before mutating anything; the
    /// exclusive view returns it once the request has executed, and the
    /// caller unpauses.
    Unpause(u32),
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
        let started = Instant::now();
        c.tel.recorder.dispatch_begin(client.0, seq);
        let shard = (client.0 as usize) % c.stripes.len();
        // SAFETY: until the view is dropped below, the sharded maps are
        // reached only through it.
        let mut view = unsafe { ShardView::striped(&c, shard) };
        let held = Instant::now();
        let op = request.opcode();
        let _span = da_telemetry::span!(c.tel.journal, "dispatch", client = client.0, opcode = op);
        let handled = {
            // Debug builds tally allocations made by the handler itself
            // (readable via `rt::scope_allocs`); the zero-alloc suite
            // asserts pure opcodes tally zero.
            let _count = crate::rt::ScopedAllocGuard::count();
            exec_shard(&c, &mut view, client, seq, request)
        };
        let shard_wait = view.stripe_wait();
        // Releases the stripe: the tail below reads `&Core`.
        drop(view);
        c.tel.metrics.shard_lock_hold_us.record_duration_us(held.elapsed());
        let result = match handled {
            Ok(Handled::Rebind | Handled::Unpause(_)) => None,
            Ok(Handled::Done(reply)) => Some(Ok(reply)),
            Err(e) => Some(Err(e)),
        };
        let done = result.is_some();
        if let Some(result) = result {
            finish_dispatch(&c, client, seq, request, result, started, shard_wait);
        }
        done
    };
    // Debug builds re-establish the full invariant set after every fast
    // dispatch, exactly like the slow path — under the write lock, so
    // the sweep sees a quiesced world.
    #[cfg(debug_assertions)]
    if done {
        crate::dispatch::check_invariants(&core.write(), request);
    }
    done
}

/// Executes one `Own`/`Global` request against `view`: the one handler
/// for these opcodes, on both dispatch paths.
pub(crate) fn exec_shard(
    core: &Core,
    view: &mut ShardView,
    client: ClientId,
    seq: u32,
    request: &Request,
) -> Result<Handled, ProtoError> {
    use Handled::Done;
    match request {
        // ---- LOUDs and virtual devices ------------------------------------
        Request::CreateLoud { id, parent } => {
            if !owns_id(client, id.0) || view.louds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "loud id unavailable"));
            }
            if let Some(p) = parent {
                let pl = view
                    .louds
                    .get_mut(&p.0)
                    .ok_or_else(|| err(ErrorCode::BadLoud, p.0, "parent loud"))?;
                if pl.owner != client {
                    return Err(err(ErrorCode::BadAccess, p.0, "parent owned by another client"));
                }
                pl.children.push(id.0);
            }
            view.louds.insert(id.0, Loud::new(*id, client, parent.map(|p| p.0)));
            Ok(Done(None))
        }
        Request::CreateVDevice { id, loud, class, attrs } => {
            if !owns_id(client, id.0) || view.vdevs.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "vdevice id unavailable"));
            }
            if view.loud(loud.0)?.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            // A hardware-backed class must have at least one matching
            // physical device, or the request can never be satisfied.
            if Core::needs_hardware(*class)
                && !(0..core.hw.device_count()).any(|i| core.device_matches(i, *class, attrs))
            {
                return Err(err(
                    ErrorCode::DeviceBusy,
                    id.0,
                    "no physical device satisfies the attribute constraints",
                ));
            }
            let root = view.root_of(loud.0);
            // An active tree must re-bind so the new device gets a
            // binding too. That walks every tree, so a single-shard view
            // stops here, before mutating anything.
            let rebind = view.louds.get(&root).is_some_and(|r| r.active);
            if rebind && !view.louds.spans_all() {
                return Ok(Handled::Rebind);
            }
            view.vdevs.insert(id.0, VDev::new(*id, client, loud.0, root, *class, attrs.clone()));
            core.invalidate_plans();
            if let Some(l) = view.louds.get_mut(&loud.0) {
                l.vdevs.push(id.0);
            }
            // The root's activation memo is stale; the next walk re-binds
            // it (the root is in the tree's shard).
            if let Some(r) = view.louds.get_mut(&root) {
                r.dirty = true;
            }
            Ok(if rebind { Handled::Rebind } else { Done(None) })
        }
        Request::QueryVDeviceAttributes { id } => {
            let v = view.vdev(id.0)?;
            // The device-LOUD slot of a hardware binding.
            let mapped_device = (0..core.hw.device_count())
                .find(|&i| match (core.hw.slot(i), core.dev_slot(v).and_then(|d| d.binding)) {
                    (Some(HwSlot::Speaker(s)), Some(HwBinding::Speaker(b))) => s == b,
                    (Some(HwSlot::Microphone(m)), Some(HwBinding::Microphone(b))) => m == b,
                    (Some(HwSlot::Line(l)), Some(HwBinding::Line(b))) => l == b,
                    _ => false,
                })
                .map(|i| DeviceId(i as u32)); // cast-ok: device-LOUD slot index, bounded by physical device count
            Ok(Done(Some(Reply::VDeviceAttributes { attrs: v.attrs.clone(), mapped_device })))
        }
        Request::SetSyncInterval { vdev, interval_frames } => {
            let v = view
                .vdevs
                .get_mut(&vdev.0)
                .ok_or_else(|| err(ErrorCode::BadDevice, vdev.0, "no such device"))?;
            if v.owner != client {
                return Err(err(ErrorCode::BadAccess, vdev.0, "not owner"));
            }
            v.sync_interval = *interval_frames;
            Ok(Done(None))
        }

        // ---- Wires --------------------------------------------------------
        Request::CreateWire { id, src, src_port, dst, dst_port, wire_type } => {
            if !owns_id(client, id.0) || view.wires.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "wire id unavailable"));
            }
            let (sv, dv) = (view.vdev(src.0)?, view.vdev(dst.0)?);
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
            // an endpoint's digital type. Software endpoints are digital
            // at their operating rate.
            let digital = |rate| {
                WireType::Digital(SoundType {
                    encoding: da_proto::types::Encoding::Pcm16,
                    sample_rate: rate,
                    channels: 1,
                })
            };
            match wire_type {
                WireType::Any => {}
                WireType::Analog => {
                    return Err(err(
                        ErrorCode::BadMatch,
                        id.0,
                        "analog wires exist only in the device LOUD",
                    ));
                }
                // The wire carries the source's type; rate adaptation to
                // the sink is the wire's job, so only the source must
                // match a tightly specified wire.
                t @ WireType::Digital(_) => {
                    let (s_rate, d_rate) = (core.device_rate(sv), core.device_rate(dv));
                    if !t.admits(&digital(s_rate)) && !t.admits(&digital(d_rate)) {
                        return Err(err(ErrorCode::BadMatch, id.0, "wire type mismatch"));
                    }
                }
            }
            // Reject cycles so the engine's topological routing is sound.
            if view.reaches(dst.0, src.0) {
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
                if (a_constrained || b_constrained)
                    && !hard.iter().any(|&(s, _, d, _)| s == pa && d == pb)
                {
                    return Err(err(
                        ErrorCode::BadMatch,
                        id.0,
                        "devices are hard-wired elsewhere; the requested path cannot exist",
                    ));
                }
            }
            view.wires
                .insert(id.0, Wire::new(*id, client, *src, *src_port, *dst, *dst_port, *wire_type));
            core.invalidate_plans();
            Ok(Done(None))
        }
        Request::DestroyWire { id } => {
            if view.wire(id.0)?.owner != client {
                return Err(err(ErrorCode::BadAccess, id.0, "not owner"));
            }
            view.wires.remove(&id.0);
            core.invalidate_plans();
            Ok(Done(None))
        }
        Request::QueryWire { id } => {
            let w = view.wire(id.0)?;
            Ok(Done(Some(Reply::WireInfo {
                src: w.src,
                src_port: w.src_port,
                dst: w.dst,
                dst_port: w.dst_port,
                wire_type: w.wire_type,
            })))
        }
        Request::QueryDeviceWires { id } => {
            view.vdev(id.0)?;
            // A single-shard view sees every wire that matters: a wire
            // referencing this device was created by, and is sharded
            // with, its owner.
            let touches = |w: &&Wire| w.src == *id || w.dst == *id;
            let wires = view.wires.values().filter(touches).map(|w| w.id).collect();
            Ok(Done(Some(Reply::DeviceWires { wires })))
        }

        // ---- Queues -------------------------------------------------------
        Request::Enqueue { loud, entries } => {
            let l = view.loud_mut(loud.0)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, loud.0, "not owner"));
            }
            if !l.is_root() {
                return Err(err(ErrorCode::BadLoud, loud.0, "queues live on root LOUDs"));
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
            Ok(Done(None))
        }
        Request::StartQueue { loud } => {
            let root = loud.0;
            let exclusive = view.louds.spans_all();
            let l = view.loud_mut(root)?;
            if l.owner != client {
                return Err(err(ErrorCode::BadAccess, root, "not owner"));
            }
            let q = l.queue.as_mut();
            let q = q.ok_or_else(|| err(ErrorCode::BadLoud, root, "not a root loud"))?;
            match q.typed() {
                TypedQueue::Stopped(t) => {
                    t.start();
                    core.send_event(ResKey(0, root), Event::QueueStarted { loud: LoudId(root) });
                }
                // StartQueue on a client-paused queue acts as a resume,
                // whose running devices unpause in their engine slots.
                TypedQueue::ClientPaused(_) if !exclusive => return Ok(Handled::Unpause(root)),
                TypedQueue::ClientPaused(t) => {
                    t.resume();
                    core.send_event(ResKey(0, root), Event::QueueResumed { loud: LoudId(root) });
                    return Ok(Handled::Unpause(root));
                }
                TypedQueue::Started(_) | TypedQueue::ServerPaused(_) => {}
            }
            Ok(Done(None))
        }
        Request::QueryQueue { loud } => {
            let q = view.loud(loud.0)?.queue.as_ref();
            let q = q.ok_or_else(|| err(ErrorCode::BadLoud, loud.0, "not a root loud"))?;
            Ok(Done(Some(Reply::QueueInfo {
                state: q.state(),
                pending: q.pending_len(),
                relative_frames: q.relative_frames,
            })))
        }

        // ---- Sounds -------------------------------------------------------
        Request::CreateSound { id, stype } => {
            if !owns_id(client, id.0) || view.sounds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable"));
            }
            if stype.sample_rate == 0 || stype.channels == 0 {
                return Err(err(ErrorCode::BadValue, id.0, "bad sound type"));
            }
            view.sounds.insert(id.0, Sound::new(*id, client, *stype));
            Ok(Done(None))
        }
        Request::OpenCatalogSound { id, catalog, name } => {
            if !owns_id(client, id.0) || view.sounds.contains_key(&id.0) {
                return Err(err(ErrorCode::BadIdChoice, id.0, "sound id unavailable"));
            }
            let cat = core
                .catalogs
                .get(catalog, name)
                .ok_or_else(|| err(ErrorCode::BadValue, id.0, "no such catalogue sound"))?;
            view.sounds.insert(id.0, Sound::from_catalog(*id, client, cat));
            Ok(Done(None))
        }
        Request::WriteSoundData { id, data, eof } => {
            let s = view.sound_mut(id.0)?;
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
                // (DESIGN.md §17). The store is a leaf below the stripe.
                let (arc, hash) = core.store.intern_payload(s.stype, std::mem::take(&mut s.data));
                s.shared = Some(arc);
                s.content_hash = Some(hash);
            }
            Ok(Done(None))
        }
        Request::ReadSoundData { id, offset, len } => {
            let s = view.sound(id.0)?;
            let bytes = s.bytes();
            let start = (*offset as usize).min(bytes.len());
            let end = start.saturating_add(*len as usize).min(bytes.len());
            Ok(Done(Some(Reply::SoundData {
                data: bytes[start..end].to_vec(),
                // A streaming sound's tail is not the end: more data may
                // arrive until the `eof` block lands.
                at_end: s.complete && end == bytes.len(),
            })))
        }
        Request::QuerySound { id } => {
            let s = view.sound(id.0)?;
            Ok(Done(Some(Reply::SoundInfo {
                stype: s.stype,
                bytes: s.len_bytes(),
                frames: s.len_frames(),
                complete: s.complete,
            })))
        }
        Request::ListCatalog { catalog } => {
            Ok(Done(Some(Reply::Catalog { names: core.catalogs.list(catalog) })))
        }

        // ---- Atoms and properties -----------------------------------------
        Request::GetAtomName { atom } => match core.atoms.name(*atom) {
            Some(n) => Ok(Done(Some(Reply::AtomName { name: n.to_string() }))),
            None => Err(err(ErrorCode::BadAtom, atom.0, "unknown atom")),
        },
        Request::ChangeProperty { target, name, type_, value } => {
            view.validate_target(core, *target)?;
            if core.atoms.name(*name).is_none() {
                return Err(err(ErrorCode::BadAtom, name.0, "unknown property atom"));
            }
            if core.atoms.name(*type_).is_none() {
                return Err(err(ErrorCode::BadAtom, type_.0, "unknown type atom"));
            }
            let key = res_key(*target);
            view.properties
                .entry(key)
                .or_default()
                .insert(name.0, Property { name: *name, type_: *type_, value: value.clone() });
            core.send_event(
                key,
                Event::PropertyNotify { target: *target, name: *name, deleted: false },
            );
            Ok(Done(None))
        }
        Request::GetProperty { target, name } => {
            view.validate_target(core, *target)?;
            let property =
                view.properties.get(&res_key(*target)).and_then(|m| m.get(&name.0)).cloned();
            Ok(Done(Some(Reply::Property { property })))
        }
        Request::DeleteProperty { target, name } => {
            view.validate_target(core, *target)?;
            let key = res_key(*target);
            let removed = view.properties.get_mut(&key).and_then(|m| m.remove(&name.0)).is_some();
            if removed {
                core.send_event(
                    key,
                    Event::PropertyNotify { target: *target, name: *name, deleted: true },
                );
            }
            Ok(Done(None))
        }
        Request::ListProperties { target } => {
            view.validate_target(core, *target)?;
            let names = view
                .properties
                .get(&res_key(*target))
                .map(|m| m.values().map(|p| p.name).collect())
                .unwrap_or_default();
            Ok(Done(Some(Reply::PropertyList { names })))
        }

        // ---- Miscellaneous ------------------------------------------------
        Request::GetServerInfo => Ok(Done(Some(Reply::ServerInfo {
            vendor: core.config.vendor.clone(),
            protocol_major: da_proto::PROTOCOL_MAJOR,
            protocol_minor: da_proto::PROTOCOL_MINOR,
            device_time: core.device_time,
        }))),
        Request::Sync => Ok(Done(Some(Reply::Sync))),

        // `Cross` opcodes have their arms in `dispatch::execute`, and
        // `eligible` never admits them; `xtask races` checks both.
        _ => Err(err(ErrorCode::Unimplemented, 0, "no shard handler for this opcode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{ServerConfig, ServerMsg};
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

    /// `eligible` promises a single-shard view only ever sees keys of
    /// its own shard; in debug builds the view checks that promise.
    #[cfg(debug_assertions)]
    #[test]
    fn single_shard_view_refuses_keys_of_other_shards() {
        let (core, client, _rx) = rigged();
        let c = core.read();
        let shard = client.0 as usize % c.stripes.len();
        // SAFETY: the maps are reached only through the view.
        let view = unsafe { ShardView::striped(&c, shard) };
        assert!(view.louds.get(&((client.0 << 20) | 1)).is_none());
        let foreign = ((client.0 + 1) << 20) | 1;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.louds.get(&foreign).is_some()
        }))
        .expect_err("a key of another shard must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("shard view"), "unexpected panic: {msg}");
    }
}
