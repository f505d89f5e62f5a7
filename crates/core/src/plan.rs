//! The cached engine data plane: route plans and scratch buffers.
//!
//! The engine's steady state — audio flowing through an unchanging wire
//! graph — is by far the common case: topology mutations (creating
//! wires, mapping LOUDs, activation changes) happen at human speed while
//! ticks happen hundreds of times per second. This module caches
//! everything the tick loop would otherwise recompute per tick:
//!
//! - [`RoutePlan`]: per active root LOUD, the topological device order
//!   and, per source port, the resolved outgoing wire list. Computed for
//!   all roots at once by the pure [`build_route_plans`], in one pass
//!   over the wire graph, so the validator and property tests can
//!   compare cached plans against a fresh recompute.
//! - [`PlanCache`]: the plans plus the other per-tick scans (hardware
//!   line slots, line→device bindings, the active producer and consumer
//!   lists), invalidated by [`Core::topology_gen`](crate::core::Core), a
//!   generation counter bumped on every topology mutation.
//! - [`EngineScratch`]: pooled sample buffers the engine threads through
//!   routing, mixing and consumption so the steady-state tick makes no
//!   heap allocations.

use crate::core::Core;
use crate::vdevice::HwBinding;
use da_hw::pstn::LineId;
use da_proto::types::DeviceClass;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// One outgoing wire, resolved to its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanWire {
    /// Wire resource id.
    pub wire: u32,
    /// Destination device.
    pub dst: u32,
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
    /// Wired source ports only; unwired ports are never drained.
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

/// Computes the routing plan of every root LOUD in `roots` from the live
/// topology, returning the plans parallel to `roots`. Pure and
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
    let mut devs: Vec<(usize, u32)> = core
        .vdevs
        .values()
        .filter_map(|v| slot_of.get(&v.root).map(|&slot| (slot, v.id.0)))
        .collect();
    devs.sort_unstable();
    let index: HashMap<u32, usize> =
        devs.iter().enumerate().map(|(i, &(_, vid))| (vid, i)).collect();
    // Edges as (source index, source port, wire, destination index,
    // destination port), sorted so each source's edges are contiguous
    // and per-port wire lists come out in wire-id order.
    let mut edges: Vec<(usize, u8, u32, usize, u8)> = core
        .wires
        .values()
        .filter_map(|w| {
            let (src, dst) = (*index.get(&w.src.0)?, *index.get(&w.dst.0)?);
            // Endpoints in different trees violate V3; never plan them.
            (devs[src].0 == devs[dst].0).then_some((src, w.src_port, w.id.0, dst, w.dst_port))
        })
        .collect();
    edges.sort_unstable();
    // Edges of source `i` are `edges[first[i]..first[i + 1]]`.
    let n = devs.len();
    let mut first = vec![0usize; n + 1];
    let mut indegree = vec![0u32; n];
    for &(src, _, _, dst, _) in &edges {
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
            for &(_, src_port, wire, dst, dst_port) in &edges[first[i]..first[i + 1]] {
                if ports.last().map(|p| p.port) != Some(src_port) {
                    ports.push(PlanPort { port: src_port, wires: Vec::new() });
                }
                ports
                    .last_mut()
                    .expect("just pushed")
                    .wires
                    .push(PlanWire { wire, dst: devs[dst].1, dst_port });
                indegree[dst] -= 1;
                if indegree[dst] == 0 {
                    ready.push(Reverse(dst));
                }
            }
            order.push(PlanDevice { vid: devs[i].1, ports });
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
    pub active_roots: Vec<u32>,
    /// Routing plan per active root, parallel to `active_roots`.
    pub routes: Vec<RoutePlan>,
    /// Hardware telephone lines: (device index, line id).
    pub line_slots: Vec<(usize, LineId)>,
    /// Devices bound to each line, parallel to `line_slots`.
    pub line_bound: Vec<Vec<u32>>,
    /// Continuous producers in active trees (the input and telephone
    /// devices the produce phase feeds), sorted by id.
    pub producers: Vec<u32>,
    /// Consumers in active trees (the output, telephone, recorder and
    /// recognizer devices the consume phase drains), sorted by id.
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

    /// Rebuilds the cache if the topology generation moved since the
    /// last build. Returns whether a rebuild happened.
    pub fn ensure_fresh(&mut self, core: &Core) -> bool {
        let gen = core.topology_gen.load(std::sync::atomic::Ordering::Relaxed);
        if self.built_gen == Some(gen) {
            return false;
        }
        self.rebuild(core);
        self.built_gen = Some(gen);
        true
    }

    // rt-ok(fn): cache rebuild runs only when `ensure_fresh` sees a topology epoch bump
    fn rebuild(&mut self, core: &Core) {
        self.active_roots.clear();
        self.active_roots.extend(
            core.active_stack
                .iter()
                .copied()
                .filter(|r| core.louds.get(r).map(|l| l.active) == Some(true)),
        );
        self.routes = build_route_plans(core, &self.active_roots);
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
                .filter(|v| v.binding == Some(HwBinding::Line(line)))
                .map(|v| v.id.0)
                .collect();
            bound.sort_unstable();
            self.line_bound.push(bound);
        }
        // Class is fixed at creation and bindings change only in
        // `Core::recompute_activation`, which invalidates this cache, so
        // the split stays valid until the next rebuild. `paused` can
        // change without a rebuild and stays a live check in the engine.
        self.producers.clear();
        self.consumers.clear();
        for v in core.vdevs.values() {
            if v.binding.is_none() || core.louds.get(&v.root).map(|l| l.active) != Some(true) {
                continue;
            }
            if is_producer(v.class) {
                self.producers.push(v.id.0);
            }
            if is_consumer(v.class) {
                self.consumers.push(v.id.0);
            }
        }
        self.producers.sort_unstable();
        self.consumers.sort_unstable();
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
/// and put back cleared; after warm-up their capacities stabilise and
/// the steady-state tick allocates nothing.
#[derive(Debug, Default)]
pub struct EngineScratch {
    i16_pool: Vec<Vec<i16>>,
    i32_pool: Vec<Vec<i32>>,
    u8_pool: Vec<Vec<u8>>,
    /// Per-speaker mix accumulators, kept across ticks.
    pub speaker_acc: Vec<Vec<i32>>,
    /// Whether any device fed each speaker this tick.
    pub speaker_fed: Vec<bool>,
    /// Clipped speaker output staging buffer.
    pub speaker_out: Vec<i16>,
    /// Per-tick DSP leaf timings, drained into telemetry at tick end.
    pub meter: da_dsp::meter::DspMeter,
}

impl EngineScratch {
    /// Takes a cleared `i16` buffer from the pool.
    pub fn take_i16(&mut self) -> Vec<i16> {
        self.i16_pool.pop().unwrap_or_default()
    }

    /// Returns an `i16` buffer to the pool, keeping its capacity.
    pub fn put_i16(&mut self, mut buf: Vec<i16>) {
        buf.clear();
        // Relax: the pool vector itself reaches steady capacity after warmup.
        let _relax = crate::rt::AllocRelax::scope();
        self.i16_pool.push(buf); // rt-ok: pool vector reaches steady capacity after warmup
    }

    /// Takes a cleared `i32` buffer from the pool.
    pub fn take_i32(&mut self) -> Vec<i32> {
        self.i32_pool.pop().unwrap_or_default()
    }

    /// Returns an `i32` buffer to the pool, keeping its capacity.
    pub fn put_i32(&mut self, mut buf: Vec<i32>) {
        buf.clear();
        // Relax: the pool vector itself reaches steady capacity after warmup.
        let _relax = crate::rt::AllocRelax::scope();
        self.i32_pool.push(buf); // rt-ok: pool vector reaches steady capacity after warmup
    }

    /// Takes a cleared byte buffer from the pool.
    pub fn take_u8(&mut self) -> Vec<u8> {
        self.u8_pool.pop().unwrap_or_default()
    }

    /// Returns a byte buffer to the pool, keeping its capacity.
    pub fn put_u8(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        // Relax: the pool vector itself reaches steady capacity after warmup.
        let _relax = crate::rt::AllocRelax::scope();
        self.u8_pool.push(buf); // rt-ok: pool vector reaches steady capacity after warmup
    }
}

/// The engine's persistent tick state: plan cache plus scratch pool.
/// Detached from the core with `mem::take` for the duration of a tick so
/// its borrows never conflict with core mutations.
#[derive(Debug, Default)]
pub struct DataPlane {
    /// Cached topology.
    pub plans: PlanCache,
    /// Pooled buffers.
    pub scratch: EngineScratch,
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
