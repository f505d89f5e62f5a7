//! The engine data plane: the slot slab, route plans and scratch
//! buffers.
//!
//! The engine's steady state — audio flowing through an unchanging wire
//! graph — is by far the common case: topology mutations (creating
//! wires, mapping LOUDs, activation changes) happen at human speed while
//! ticks happen hundreds of times per second. This module holds
//! everything the tick loop would otherwise look up or recompute per
//! tick:
//!
//! - [`Slab`]: the streaming state of every device, wire and root LOUD
//!   in dense slots ([`DevSlot`], [`WireSlot`], [`RootSlot`]). Slots are
//!   assigned and reclaimed only under the core write lock — at plan
//!   build, at activation, or by a write-locked handler — and persist
//!   across plan rebuilds until their owner is destroyed, so §5.4 state
//!   restoration needs no special case. Owners point at their slot
//!   (`VDev::slot`, `Wire::slot`, `Loud::slot`); the tick holds only
//!   slot indices and hashes nothing.
//! - [`RoutePlan`]: per active root LOUD, the topological device order
//!   and, per source port, the resolved outgoing wire list, each device
//!   and wire resolved to its slot. Computed for all roots at once by
//!   the pure [`build_route_plans`], in one pass over the wire graph, so
//!   the validator and property tests can compare cached plans against
//!   a fresh recompute.
//! - [`PlanCache`]: the plans plus the other per-tick scans (hardware
//!   line slots, line→device bindings, the active producer and consumer
//!   slots), invalidated by [`Core::topology_gen`](crate::core::Core), a
//!   generation counter bumped on every topology mutation.
//! - [`EngineScratch`]: pooled sample buffers the engine threads through
//!   routing, mixing and consumption, reserved at plan build for the
//!   largest port ring so the steady-state tick makes no heap
//!   allocations.

use crate::core::Core;
use crate::queue::RunNode;
use crate::vdevice::{DevSlot, HwBinding, VDev};
use crate::wire::WireSlot;
use da_hw::pstn::LineId;
use da_proto::types::DeviceClass;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The slot index of an owner that has none yet.
pub const NO_SLOT: u32 = u32::MAX;

/// One outgoing wire, resolved to its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanWire {
    /// Wire resource id.
    pub wire: u32,
    /// The wire's slot.
    pub slot: u32,
    /// Destination device.
    pub dst: u32,
    /// The destination device's slot.
    pub dst_slot: u32,
    /// Destination sink port.
    pub dst_port: u8,
}

/// A source port with at least one outgoing wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPort {
    /// Source port index.
    pub port: u8,
    /// Outgoing wires in stable (wire-id) order.
    pub wires: Vec<PlanWire>,
}

/// One device at its topological position, with resolved fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDevice {
    /// Device resource id.
    pub vid: u32,
    /// The device's slot.
    pub slot: u32,
    /// Wired source ports only; what the device produces on any other
    /// port is discarded each tick.
    pub ports: Vec<PlanPort>,
}

/// The routing plan for one root LOUD: devices in topological order
/// (wires define the edges; cycles are prevented at `CreateWire`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutePlan {
    /// Devices in a deterministic topological order (smallest id first
    /// among ready devices).
    pub order: Vec<PlanDevice>,
}

/// An active root LOUD and the slot holding its running queue node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRoot {
    /// Root LOUD id.
    pub root: u32,
    /// The root's slot.
    pub slot: u32,
}

/// Computes the routing plan of every root LOUD in `roots` from the live
/// topology, returning the plans parallel to `roots`, with every device
/// and wire resolved to the slot its owner names. Pure and
/// deterministic: the plan cache stores its output, and the invariant
/// checker and property tests verify a cached plan is identical to a
/// fresh recompute.
///
/// One pass over the devices groups each under its cached tree root
/// (kept correct by invariant V2), and one pass over the wires collects
/// each edge under its source device's tree (V3: a wire never crosses
/// trees). After one sort of each, every tree is ordered over its own
/// contiguous run of devices and edges only, so a rebuild costs
/// O(devices + wires), up to the sorts' log factor, however many roots
/// are active.
// rt-ok(fn): plan computation is the acknowledged slow path; it runs only on topology
// change, and steady-state ticks reuse the cached plan (the zero-alloc test pins this)
pub fn build_route_plans(core: &Core, roots: &[u32]) -> Vec<RoutePlan> {
    let slot_of: HashMap<u32, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    // (tree slot, device id), sorted: each tree's devices are contiguous
    // and in id order, so index order breaks Kahn ties by smallest id.
    let mut devs: Vec<(usize, u32, u32)> = core
        .vdevs
        .values()
        .filter_map(|v| {
            slot_of.get(&v.root).map(|&tree| (tree, v.id.0, v.slot.unwrap_or(NO_SLOT)))
        })
        .collect();
    devs.sort_unstable();
    let index: HashMap<u32, usize> =
        devs.iter().enumerate().map(|(i, &(_, vid, _))| (vid, i)).collect();
    // Edges as (source index, source port, wire, wire slot, destination
    // index, destination port), sorted so each source's edges are
    // contiguous and per-port wire lists come out in wire-id order.
    let mut edges: Vec<(usize, u8, u32, u32, usize, u8)> = core
        .wires
        .values()
        .filter_map(|w| {
            let (src, dst) = (*index.get(&w.src.0)?, *index.get(&w.dst.0)?);
            let slot = w.slot.unwrap_or(NO_SLOT);
            // Endpoints in different trees violate V3; never plan them.
            (devs[src].0 == devs[dst].0).then_some((src, w.src_port, w.id.0, slot, dst, w.dst_port))
        })
        .collect();
    edges.sort_unstable();
    // Edges of source `i` are `edges[first[i]..first[i + 1]]`.
    let n = devs.len();
    let mut first = vec![0usize; n + 1];
    let mut indegree = vec![0u32; n];
    for &(src, _, _, _, dst, _) in &edges {
        first[src + 1] += 1;
        indegree[dst] += 1;
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    // Kahn's algorithm per tree, smallest ready index first.
    let mut plans = Vec::with_capacity(roots.len());
    let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut start = 0;
    for slot in 0..roots.len() {
        let end = start + devs[start..].iter().take_while(|d| d.0 == slot).count();
        ready.extend((start..end).filter(|&i| indegree[i] == 0).map(Reverse));
        let mut order = Vec::with_capacity(end - start);
        while let Some(Reverse(i)) = ready.pop() {
            let mut ports: Vec<PlanPort> = Vec::new();
            for &(_, src_port, wire, slot, dst, dst_port) in &edges[first[i]..first[i + 1]] {
                if ports.last().map(|p| p.port) != Some(src_port) {
                    ports.push(PlanPort { port: src_port, wires: Vec::new() });
                }
                ports
                    .last_mut()
                    .expect("just pushed")
                    .wires
                    .push(PlanWire {
                        wire,
                        slot,
                        dst: devs[dst].1,
                        dst_slot: devs[dst].2,
                        dst_port,
                    });
                indegree[dst] -= 1;
                if indegree[dst] == 0 {
                    ready.push(Reverse(dst));
                }
            }
            order.push(PlanDevice { vid: devs[i].1, slot: devs[i].2, ports });
        }
        plans.push(RoutePlan { order });
        start = end;
    }
    plans
}

/// Cached per-tick topology state, rebuilt only when the core's topology
/// generation moves.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Generation the cache was built at; `None` forces the first build.
    built_gen: Option<u64>,
    /// Active roots in stack order (the engine's iteration order).
    pub active_roots: Vec<PlanRoot>,
    /// Routing plan per active root, parallel to `active_roots`.
    pub routes: Vec<RoutePlan>,
    /// Hardware telephone lines: (device index, line id).
    pub line_slots: Vec<(usize, LineId)>,
    /// Devices bound to each line, parallel to `line_slots`.
    pub line_bound: Vec<Vec<u32>>,
    /// Slots of the continuous producers in active trees (the input and
    /// telephone devices the produce phase feeds), in device-id order.
    pub producers: Vec<u32>,
    /// Slots of the consumers in active trees (the output, telephone,
    /// recorder and recognizer devices the consume phase drains), in
    /// device-id order.
    pub consumers: Vec<u32>,
}

impl PlanCache {
    /// The topology generation this cache was built at, if it has been
    /// built. The invariant checker ([`crate::validate`]) uses this to
    /// verify a cache claiming to be current really matches a fresh
    /// recompute.
    pub fn built_generation(&self) -> Option<u64> {
        self.built_gen
    }

    /// The active roots in stack order, each with its slot, as a fresh
    /// resolve gives them.
    // rt-ok(fn): resolving runs at plan build only
    pub fn resolve_roots(core: &Core) -> Vec<PlanRoot> {
        core.active_stack
            .iter()
            .filter_map(|r| {
                let l = core.louds.get(r).filter(|l| l.active)?;
                Some(PlanRoot { root: *r, slot: l.slot.unwrap_or(NO_SLOT) })
            })
            .collect()
    }

    /// The producer and consumer slots of the active trees, as a fresh
    /// resolve gives them.
    // rt-ok(fn): resolving runs at plan build only
    pub fn resolve_endpoints(core: &Core, slab: &Slab) -> (Vec<u32>, Vec<u32>) {
        // Class is fixed at creation and bindings change only in
        // `Core::recompute_activation`, which invalidates this cache, so
        // the split stays valid until the next rebuild. `paused` can
        // change without a rebuild and stays a live check in the engine.
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for v in core.vdevs.values() {
            let Some(slot) = v.slot else { continue };
            let bound = slab.devs.get(slot as usize).is_some_and(|d| d.binding.is_some());
            if !bound || core.louds.get(&v.root).map(|l| l.active) != Some(true) {
                continue;
            }
            if is_producer(v.class) {
                producers.push((v.id.0, slot));
            }
            if is_consumer(v.class) {
                consumers.push((v.id.0, slot));
            }
        }
        producers.sort_unstable();
        consumers.sort_unstable();
        let slots = |l: Vec<(u32, u32)>| l.into_iter().map(|(_, s)| s).collect();
        (slots(producers), slots(consumers))
    }

    // rt-ok(fn): cache rebuild runs only when the topology epoch moved
    fn rebuild(&mut self, core: &Core, slab: &Slab) {
        self.active_roots = Self::resolve_roots(core);
        let roots: Vec<u32> = self.active_roots.iter().map(|r| r.root).collect();
        self.routes = build_route_plans(core, &roots);
        self.line_slots.clear();
        for i in 0..core.hw.device_count() {
            if let Some(da_hw::registry::HwSlot::Line(l)) = core.hw.slot(i) {
                self.line_slots.push((i, l));
            }
        }
        self.line_bound.clear();
        for &(_, line) in &self.line_slots {
            let mut bound: Vec<u32> = core
                .vdevs
                .values()
                .filter(|v| slab.dev(v).and_then(|d| d.binding) == Some(HwBinding::Line(line)))
                .map(|v| v.id.0)
                .collect();
            bound.sort_unstable();
            self.line_bound.push(bound);
        }
        (self.producers, self.consumers) = Self::resolve_endpoints(core, slab);
    }
}

/// Whether the engine's produce phase feeds devices of `class`.
pub fn is_producer(class: DeviceClass) -> bool {
    matches!(class, DeviceClass::Input | DeviceClass::Telephone)
}

/// Whether the engine's consume phase drains devices of `class`.
pub fn is_consumer(class: DeviceClass) -> bool {
    matches!(
        class,
        DeviceClass::Output
            | DeviceClass::Telephone
            | DeviceClass::Recorder
            | DeviceClass::SpeechRecognizer
    )
}

/// Reusable sample buffers for the tick loop. Buffers are taken, used
/// and put back cleared; [`EngineScratch::reserve`] sizes them for the
/// largest port ring at plan build and op install, so the steady-state
/// tick allocates nothing.
#[derive(Debug, Default)]
pub struct EngineScratch {
    i16_pool: Vec<Vec<i16>>,
    i32_pool: Vec<Vec<i32>>,
    u8_pool: Vec<Vec<u8>>,
    /// Samples every pooled buffer can hold without growing.
    reserved: usize,
    /// Per-speaker mix accumulators, kept across ticks.
    pub speaker_acc: Vec<Vec<i32>>,
    /// Whether any device fed each speaker this tick.
    pub speaker_fed: Vec<bool>,
    /// Clipped speaker output staging buffer.
    pub speaker_out: Vec<i16>,
    /// Per-tick DSP leaf timings, drained into telemetry at tick end.
    pub meter: da_dsp::meter::DspMeter,
    /// Samples dropped by port-ring overflow this tick, drained into
    /// `engine_ring_overflow_frames_total` at tick end.
    pub ring_overflow: u64,
}

/// Pooled buffers of each kind a tick holds at once, at most.
const POOLED: usize = 4;

impl EngineScratch {
    /// Takes a cleared `i16` buffer from the pool.
    pub fn take_i16(&mut self) -> Vec<i16> {
        self.i16_pool.pop().unwrap_or_default()
    }

    /// Returns an `i16` buffer to the pool, keeping its capacity.
    pub fn put_i16(&mut self, mut buf: Vec<i16>) {
        buf.clear();
        self.i16_pool.push(buf); // rt-ok: never beyond the POOLED buffers `reserve` placed
    }

    /// Takes a cleared `i32` buffer from the pool.
    pub fn take_i32(&mut self) -> Vec<i32> {
        self.i32_pool.pop().unwrap_or_default()
    }

    /// Returns an `i32` buffer to the pool, keeping its capacity.
    pub fn put_i32(&mut self, mut buf: Vec<i32>) {
        buf.clear();
        self.i32_pool.push(buf); // rt-ok: never beyond the POOLED buffers `reserve` placed
    }

    /// Takes a cleared byte buffer from the pool.
    pub fn take_u8(&mut self) -> Vec<u8> {
        self.u8_pool.pop().unwrap_or_default()
    }

    /// Returns a byte buffer to the pool, keeping its capacity.
    pub fn put_u8(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.u8_pool.push(buf); // rt-ok: never beyond the POOLED buffers `reserve` placed
    }

    /// Sizes the pools for a port ring of `ring` samples: anything a
    /// tick stages — one ring's content, one tick's demand, or a
    /// resampled ring — fits in twice that, and an encoded sample in
    /// two bytes. Grows only; runs at plan build and op install.
    pub fn reserve(&mut self, ring: usize) {
        let want = 2 * ring;
        if want <= self.reserved {
            return;
        }
        self.reserved = want;
        fn fill<T>(pool: &mut Vec<Vec<T>>, cap: usize) {
            pool.resize_with(POOLED.max(pool.len()), Vec::new);
            pool.reserve(POOLED);
            for b in pool.iter_mut() {
                b.reserve(cap);
            }
        }
        fill(&mut self.i16_pool, want);
        fill(&mut self.i32_pool, want);
        fill(&mut self.u8_pool, 2 * want);
    }

    /// Sizes the per-speaker accumulators for `speakers` of (rate,
    /// channels) under a `quantum_us` tick.
    fn reserve_speakers(&mut self, speakers: &[(u32, usize)], quantum_us: u64) {
        self.speaker_acc.resize_with(speakers.len(), Vec::new);
        self.speaker_fed.resize(speakers.len(), false);
        // Both are refilled from scratch every tick.
        self.speaker_out.clear();
        for (acc, &(rate, ch)) in self.speaker_acc.iter_mut().zip(speakers) {
            let samples = ((rate as u64 * quantum_us).div_ceil(1_000_000) as usize + 1) * ch;
            acc.clear();
            acc.reserve(samples);
            self.speaker_out.reserve(samples);
        }
    }
}

/// The running queue node of one root LOUD: the queue's engine-side
/// execution state, kept in a slot so stepping a root's queue takes one
/// map lookup (its state and pending nodes) however much it runs.
#[derive(Debug)]
pub struct RootSlot {
    /// The root LOUD holding this slot ([`RootSlot::FREE`] when vacant).
    pub root: u32,
    /// The node currently executing.
    pub running: Option<RunNode>,
}

impl RootSlot {
    /// The `root` of a vacant slot.
    pub const FREE: u32 = u32::MAX;
}

/// The dense slot storage of the data plane (see the module docs).
#[derive(Debug, Default)]
pub struct Slab {
    /// Device slots.
    pub devs: Vec<DevSlot>,
    /// Wire slots.
    pub wires: Vec<WireSlot>,
    /// Root LOUD slots.
    pub roots: Vec<RootSlot>,
    free_devs: Vec<u32>,
    free_wires: Vec<u32>,
    free_roots: Vec<u32>,
}

/// Takes a vacant index from `free`, or appends one to `slots`.
fn claim<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, fresh: T) -> u32 {
    match free.pop() {
        Some(i) => {
            slots[i as usize] = fresh;
            i
        }
        None => {
            slots.push(fresh); // rt-ok: a new slot, assigned at plan build or an op boundary
            (slots.len() - 1) as u32
        }
    }
}

/// Marks slot `i` as named by an owner.
fn name(named: &mut Vec<bool>, i: usize) {
    if named.len() <= i {
        named.resize(i + 1, false);
    }
    named[i] = true;
}

/// Frees every occupied slot of `slots` that no owner named.
fn reclaim<T>(
    slots: &mut [T],
    free: &mut Vec<u32>,
    named: &[bool],
    vacant: impl Fn(&T) -> bool,
    empty: impl Fn() -> T,
) {
    for (i, s) in slots.iter_mut().enumerate() {
        if !vacant(s) && !named.get(i).copied().unwrap_or(false) {
            *s = empty();
            free.push(i as u32); // rt-ok: slots are reclaimed at plan build only
        }
    }
}

impl Slab {
    /// The streaming state of `v`, if it has a slot.
    pub fn dev(&self, v: &VDev) -> Option<&DevSlot> {
        v.slot.and_then(|i| self.devs.get(i as usize))
    }

    /// The slot of `v`, assigning a fresh one if it has none. Callers
    /// hold the core write lock (or are the tick).
    pub fn assign_dev(&mut self, v: &mut VDev, quantum_us: u64) -> usize {
        if let Some(i) = v.slot {
            return i as usize;
        }
        let i = claim(&mut self.devs, &mut self.free_devs, DevSlot::new(v, quantum_us));
        v.slot = Some(i);
        i as usize
    }

    /// Gives every device, wire and root LOUD without a slot one, and
    /// reclaims every occupied slot no owner names: its owner was
    /// destroyed (or re-created under the same id, so it names none yet).
    fn resolve(&mut self, core: &mut Core) {
        let quantum = core.config.quantum_us;
        let mut named = Vec::new();
        for v in core.vdevs.values_mut() {
            name(&mut named, self.assign_dev(v, quantum));
        }
        let vacant = |d: &DevSlot| d.vid == DevSlot::FREE;
        reclaim(&mut self.devs, &mut self.free_devs, &named, vacant, DevSlot::vacant);
        named.clear();
        for w in core.wires.values_mut() {
            let i = *w.slot.get_or_insert_with(|| {
                claim(&mut self.wires, &mut self.free_wires, WireSlot::new(w.id.0))
            });
            name(&mut named, i as usize);
        }
        let vacant = |w: &WireSlot| w.wire == WireSlot::FREE;
        let empty = || WireSlot::new(WireSlot::FREE);
        reclaim(&mut self.wires, &mut self.free_wires, &named, vacant, empty);
        named.clear();
        for l in core.louds.values_mut().filter(|l| l.is_root()) {
            let i = *l.slot.get_or_insert_with(|| {
                let fresh = RootSlot { root: l.id.0, running: None };
                claim(&mut self.roots, &mut self.free_roots, fresh)
            });
            name(&mut named, i as usize);
        }
        let vacant = |r: &RootSlot| r.root == RootSlot::FREE;
        let empty = || RootSlot { root: RootSlot::FREE, running: None };
        reclaim(&mut self.roots, &mut self.free_roots, &named, vacant, empty);
    }

    /// The largest port ring of any occupied device slot.
    fn max_ring(&self) -> usize {
        self.devs
            .iter()
            .flat_map(|d| d.src.iter().chain(&d.sink))
            .map(|r| r.capacity())
            .max()
            .unwrap_or(0)
    }
}

/// The engine's persistent tick state: the slot slab, the plan cache and
/// the scratch pool. Detached from the core with `mem::take` for the
/// duration of a tick so its borrows never conflict with core mutations.
#[derive(Debug, Default)]
pub struct DataPlane {
    /// Cached topology.
    pub plans: PlanCache,
    /// Streaming state by slot.
    pub slab: Slab,
    /// Pooled buffers.
    pub scratch: EngineScratch,
}

impl DataPlane {
    /// Rebuilds the plans if the topology generation moved since the
    /// last build: gives every device, wire and root LOUD without a slot
    /// one, reclaims dead slots, resolves the plans to slots, and sizes
    /// the scratch pool. Returns whether a rebuild happened.
    // rt-ok(fn): the rebuild is the acknowledged slow path, run only on a topology epoch bump
    pub fn ensure_fresh(&mut self, core: &mut Core) -> bool {
        let gen = core.topology_gen.load(std::sync::atomic::Ordering::Relaxed);
        if self.plans.built_gen == Some(gen) {
            return false;
        }
        let slab = &mut self.slab;
        slab.resolve(core);
        self.plans.rebuild(core, slab);
        self.plans.built_gen = Some(gen);
        self.scratch.reserve(slab.max_ring());
        let speakers: Vec<(u32, usize)> = core
            .hw
            .speakers
            .iter()
            .map(|s| (s.rate(), s.channels().max(1) as usize))
            .collect();
        self.scratch.reserve_speakers(&speakers, core.config.quantum_us);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_keep_capacity() {
        let mut s = EngineScratch::default();
        let mut b = s.take_i16();
        b.extend_from_slice(&[1; 1000]);
        let cap = b.capacity();
        s.put_i16(b);
        let b = s.take_i16();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }
}
