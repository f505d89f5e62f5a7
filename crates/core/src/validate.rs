//! Full-structure invariant checker: the mechanical form of the
//! protocol's consistency rules (paper §5).
//!
//! [`check_all`] walks the whole [`Core`] and returns every violated
//! invariant; [`check`] returns the first. The invariant identifiers
//! (`V1` ...) match the "Invariants catalog" section of `DESIGN.md`.
//!
//! The checker runs in three roles:
//!
//! - after every dispatched request in debug builds (a `debug_assert!`
//!   style hook in [`crate::dispatch::dispatch`]), so any request
//!   handler that corrupts the structure fails loudly in tests;
//! - as the oracle of the model-checking property test
//!   (`crates/core/tests/proptest_validate.rs`), which drives arbitrary
//!   request sequences and asserts the structure stays consistent;
//! - in dedicated negative tests that seed a corrupt structure and
//!   assert the checker catches it.
//!
//! Everything checked here is a *structural* invariant — true between
//! any two dispatches regardless of timing. Creation-time-only rules
//! (e.g. a `Digital` wire type admitting an endpoint's rate, which can
//! legally drift when activation rebinds the endpoint's hardware rate)
//! are enforced in dispatch but deliberately not re-checked here.

use crate::core::{Claims, Core};
use crate::plan::{build_route_plans, PlanCache, NO_SLOT};
use crate::vdevice::HwBinding;
use da_hw::registry::HwSlot;
use da_proto::types::{PortDir, QueueState, WireType};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Catalog identifier (`V1` ... `V15`), matching DESIGN.md.
    pub invariant: &'static str,
    /// What exactly is inconsistent.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

fn violate(out: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    out.push(Violation { invariant, detail });
}

/// Checks every invariant; returns the first violation, if any.
pub fn check(core: &Core) -> Result<(), Violation> {
    match check_all(core).into_iter().next() {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

/// Checks every invariant and returns all violations.
pub fn check_all(core: &Core) -> Vec<Violation> {
    let mut out = Vec::new();
    check_loud_tree(core, &mut out);
    check_vdev_containment(core, &mut out);
    check_wires(core, &mut out);
    check_active_stack(core, &mut out);
    check_queues(core, &mut out);
    check_bindings(core, &mut out);
    check_plan_cache(core, &mut out);
    check_worklists(core, &mut out);
    check_queue_parser(core, &mut out);
    check_client_liveness(core, &mut out);
    check_sound_store(core, &mut out);
    check_activation_memo(core, &mut out);
    out
}

/// The root of a LOUD, walking parents with a cycle guard. Returns
/// `None` when the chain is broken or cyclic (already reported by V1).
fn root_of(core: &Core, mut id: u32) -> Option<u32> {
    let mut hops = 0usize;
    loop {
        let l = core.louds.get(&id)?;
        match l.parent {
            None => return Some(id),
            Some(p) => {
                hops += 1;
                if hops > core.louds.len() {
                    return None;
                }
                id = p;
            }
        }
    }
}

/// V1: the LOUD forest is a forest — parent and child pointers agree,
/// every LOUD has at most one parent, and parent chains are acyclic
/// (paper §5.4: LOUDs "form a tree").
fn check_loud_tree(core: &Core, out: &mut Vec<Violation>) {
    let mut child_seen: HashMap<u32, u32> = HashMap::new();
    for (&id, l) in &core.louds {
        if let Some(p) = l.parent {
            if p == id {
                violate(out, "V1", format!("loud {id} is its own parent"));
                continue;
            }
            match core.louds.get(&p) {
                None => violate(out, "V1", format!("loud {id} has dangling parent {p}")),
                Some(pl) => {
                    if !pl.children.contains(&id) {
                        violate(
                            out,
                            "V1",
                            format!("loud {id} has parent {p} but is not among its children"),
                        );
                    }
                }
            }
        }
        let mut dedup = HashSet::new();
        for &c in &l.children {
            if !dedup.insert(c) {
                violate(out, "V1", format!("loud {id} lists child {c} twice"));
                continue;
            }
            if let Some(prev) = child_seen.insert(c, id) {
                violate(
                    out,
                    "V1",
                    format!("loud {c} is a child of both {prev} and {id}"),
                );
            }
            match core.louds.get(&c) {
                None => violate(out, "V1", format!("loud {id} has dangling child {c}")),
                Some(cl) => {
                    if cl.parent != Some(id) {
                        violate(
                            out,
                            "V1",
                            format!(
                                "loud {id} lists child {c} whose parent is {:?}",
                                cl.parent
                            ),
                        );
                    }
                }
            }
        }
        if root_of(core, id).is_none() {
            violate(out, "V1", format!("loud {id} has a broken or cyclic parent chain"));
        }
    }
}

/// V2: every virtual device lives in an existing LOUD, the LOUD lists it
/// back, and its cached `root` matches the tree it is actually in
/// (paper §5.1, §5.4).
fn check_vdev_containment(core: &Core, out: &mut Vec<Violation>) {
    for (&id, v) in &core.vdevs {
        if id != v.id.0 {
            violate(out, "V2", format!("vdev key {id} != id field {}", v.id.0));
        }
        match core.louds.get(&v.loud) {
            None => violate(out, "V2", format!("vdev {id} in dangling loud {}", v.loud)),
            Some(l) => {
                if !l.vdevs.contains(&id) {
                    violate(
                        out,
                        "V2",
                        format!("vdev {id} not listed by its loud {}", v.loud),
                    );
                }
                if root_of(core, v.loud).is_some_and(|r| r != v.root) {
                    violate(
                        out,
                        "V2",
                        format!("vdev {id} caches root {} but its tree root differs", v.root),
                    );
                }
            }
        }
    }
    for (&id, l) in &core.louds {
        for &d in &l.vdevs {
            match core.vdevs.get(&d) {
                None => violate(out, "V2", format!("loud {id} lists dangling vdev {d}")),
                Some(v) => {
                    if v.loud != id {
                        violate(
                            out,
                            "V2",
                            format!("loud {id} lists vdev {d} which claims loud {}", v.loud),
                        );
                    }
                }
            }
        }
    }
}

/// V3 + V4 + V5: wires connect two distinct existing devices of the same
/// tree through valid ports (V3), carry a digital or unconstrained type —
/// analog wires exist only inside the hardware's device LOUD, never as
/// client resources (V4, paper §5.2/§5.9) — and the wire graph stays
/// acyclic so topological routing is sound (V5).
fn check_wires(core: &Core, out: &mut Vec<Violation>) {
    for (&id, w) in &core.wires {
        if id != w.id.0 {
            violate(out, "V3", format!("wire key {id} != id field {}", w.id.0));
        }
        let (src, dst) = (core.vdevs.get(&w.src.0), core.vdevs.get(&w.dst.0));
        match (src, dst) {
            (Some(s), Some(d)) => {
                if w.src.0 == w.dst.0 {
                    violate(out, "V3", format!("wire {id} connects vdev {} to itself", w.src.0));
                }
                if s.root != d.root {
                    violate(
                        out,
                        "V3",
                        format!("wire {id} crosses trees ({} -> {})", s.root, d.root),
                    );
                }
                if !s.has_port(PortDir::Source, w.src_port) {
                    violate(
                        out,
                        "V3",
                        format!("wire {id} uses bad source port {} on vdev {}", w.src_port, w.src.0),
                    );
                }
                if !d.has_port(PortDir::Sink, w.dst_port) {
                    violate(
                        out,
                        "V3",
                        format!("wire {id} uses bad sink port {} on vdev {}", w.dst_port, w.dst.0),
                    );
                }
            }
            _ => {
                violate(out, "V3", format!("wire {id} has a dangling endpoint"));
            }
        }
        match w.wire_type {
            WireType::Analog => violate(
                out,
                "V4",
                format!("wire {id} is analog; analog wires exist only in the device LOUD"),
            ),
            WireType::Digital(t) => {
                if t.sample_rate == 0 || t.channels == 0 {
                    violate(
                        out,
                        "V4",
                        format!(
                            "wire {id} has degenerate digital type ({} Hz, {} ch)",
                            t.sample_rate, t.channels
                        ),
                    );
                }
            }
            WireType::Any => {}
        }
    }
    // V5: DFS over the wire graph (edges src -> dst).
    let mut edges: HashMap<u32, Vec<u32>> = HashMap::new();
    for w in core.wires.values() {
        edges.entry(w.src.0).or_default().push(w.dst.0);
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut mark: HashMap<u32, u8> = HashMap::new();
    fn dfs(v: u32, edges: &HashMap<u32, Vec<u32>>, mark: &mut HashMap<u32, u8>) -> bool {
        match mark.get(&v).copied().unwrap_or(0) {
            1 => return false,
            2 => return true,
            _ => {}
        }
        mark.insert(v, 1);
        for &n in edges.get(&v).into_iter().flatten() {
            if !dfs(n, edges, mark) {
                return false;
            }
        }
        mark.insert(v, 2);
        true
    }
    let mut srcs: Vec<u32> = edges.keys().copied().collect();
    srcs.sort_unstable();
    for v in srcs {
        if !dfs(v, &edges, &mut mark) {
            violate(out, "V5", format!("wire graph has a cycle reachable from vdev {v}"));
            break;
        }
    }
}

/// V6: the active stack holds each mapped root exactly once, every entry
/// is an existing root LOUD, a root is mapped iff it is on the stack,
/// and only mapped LOUDs are active (paper §5.6: the activation stack
/// orders the mapped LOUDs).
fn check_active_stack(core: &Core, out: &mut Vec<Violation>) {
    let mut seen = HashSet::new();
    for &r in &core.active_stack {
        if !seen.insert(r) {
            violate(out, "V6", format!("root {r} appears twice on the active stack"));
        }
        match core.louds.get(&r) {
            None => violate(out, "V6", format!("active stack names dangling loud {r}")),
            Some(l) => {
                if l.parent.is_some() {
                    violate(out, "V6", format!("active stack names non-root loud {r}"));
                }
                if !l.mapped {
                    violate(out, "V6", format!("stacked root {r} is not mapped"));
                }
            }
        }
    }
    for (&id, l) in &core.louds {
        if l.parent.is_none() && l.mapped && !seen.contains(&id) {
            violate(out, "V6", format!("mapped root {id} missing from the active stack"));
        }
        if l.active && !l.mapped {
            violate(out, "V6", format!("loud {id} is active but not mapped"));
        }
    }
    // Manager redirection bookkeeping: deferred maps/raises exist only
    // while a manager is registered, and only for live roots (paper §6).
    if core.redirect_client.is_none()
        && (!core.pending_maps.is_empty() || !core.pending_raises.is_empty())
    {
        violate(out, "V6", "pending redirected maps without a manager".into());
    }
    for &r in core.pending_maps.iter().chain(core.pending_raises.iter()) {
        if !core.louds.contains_key(&r) {
            violate(out, "V6", format!("pending redirect names dangling loud {r}"));
        }
    }
}

/// V7 + V8: exactly the root LOUDs own command queues (paper §5.5: "Each
/// root LOUD owns a command queue"), and a server-paused queue implies a
/// deactivated root — the server pauses queues only on deactivation and
/// resumes them on reactivation.
fn check_queues(core: &Core, out: &mut Vec<Violation>) {
    for (&id, l) in &core.louds {
        let is_root = l.parent.is_none();
        if is_root && l.queue.is_none() {
            violate(out, "V7", format!("root loud {id} has no command queue"));
        }
        if !is_root && l.queue.is_some() {
            violate(out, "V7", format!("non-root loud {id} has a command queue"));
        }
        if let Some(q) = &l.queue {
            if q.state() == QueueState::ServerPaused && l.active {
                violate(
                    out,
                    "V8",
                    format!("queue of root {id} is server-paused while the root is active"),
                );
            }
        }
    }
}

/// V9: every hardware binding names a slot the registry actually has
/// (paper §5.9: activation assigns physical devices).
fn check_bindings(core: &Core, out: &mut Vec<Violation>) {
    let lines: HashSet<_> = (0..core.hw.device_count())
        .filter_map(|i| match core.hw.slot(i) {
            Some(HwSlot::Line(l)) => Some(l),
            _ => None,
        })
        .collect();
    for (&id, v) in &core.vdevs {
        match core.dev_slot(v).and_then(|d| d.binding) {
            Some(HwBinding::Speaker(i)) if i >= core.hw.speakers.len() => {
                violate(out, "V9", format!("vdev {id} bound to missing speaker {i}"));
            }
            Some(HwBinding::Microphone(i)) if i >= core.hw.microphones.len() => {
                violate(out, "V9", format!("vdev {id} bound to missing microphone {i}"));
            }
            Some(HwBinding::Line(l)) if !lines.contains(&l) => {
                violate(out, "V9", format!("vdev {id} bound to unknown line {l:?}"));
            }
            _ => {}
        }
    }
}

/// V11: deferred work-lists reference live root LOUDs. `pending_maps`
/// and `pending_raises` hold redirected requests awaiting an audio
/// manager's decision (paper §5.8). A destroyed LOUD must be purged
/// from both, or a later drain would act on a dangling id.
fn check_worklists(core: &Core, out: &mut Vec<Violation>) {
    let lists: [(&str, &[u32]); 2] =
        [("pending_maps", &core.pending_maps), ("pending_raises", &core.pending_raises)];
    for (name, list) in lists {
        for &r in list {
            match core.louds.get(&r) {
                None => violate(out, "V11", format!("{name} references destroyed loud {r}")),
                Some(l) if l.parent.is_some() => {
                    violate(out, "V11", format!("{name} references non-root loud {r}"));
                }
                Some(_) => {}
            }
        }
    }
}

/// V12: queue parser conservation (paper §5.5 brackets). The parser
/// consumes balanced `CoBegin`/`CoEnd` and `Delay`/`DelayEnd` units
/// greedily, so (a) an idle queue has no open brackets left, and (b) a
/// non-empty raw tail always begins with an opener still awaiting its
/// closer — anything parseable must already have been parsed.
fn check_queue_parser(core: &Core, out: &mut Vec<Violation>) {
    use da_proto::command::QueueEntry;
    for (&id, l) in &core.louds {
        let Some(q) = &l.queue else { continue };
        if q.idle() && q.open_depth() != 0 {
            violate(
                out,
                "V12",
                format!("idle queue of root {id} reports open bracket depth {}", q.open_depth()),
            );
        }
        if let Some(head) = q.raw_entries().next() {
            if !matches!(head, QueueEntry::CoBegin | QueueEntry::Delay { .. }) {
                violate(
                    out,
                    "V12",
                    format!("queue of root {id} left a parseable head entry {head:?} unparsed"),
                );
            }
        }
    }
}

/// V13: no state references a departed client. Every resource's owner
/// is a connected client, the audio-manager redirect names a connected
/// client, and every event selection and property table is keyed on a
/// resource that still exists. `Core::remove_client` must cascade —
/// destroying the departed client's trees, sounds and redirections and
/// sweeping survivors' selections — and this is the invariant that
/// catches any missed sweep (the original bug was a no-op
/// `selections.retain(|_, _| true)`).
fn check_client_liveness(core: &Core, out: &mut Vec<Violation>) {
    let live = |key: &crate::core::ResKey| match key.0 {
        0 => core.louds.contains_key(&key.1),
        1 => core.vdevs.contains_key(&key.1),
        2 => core.sounds.contains_key(&key.1),
        _ => (key.1 as usize) < core.hw.device_count(),
    };
    for (&id, l) in &core.louds {
        if !core.clients.contains_key(&l.owner.0) {
            violate(out, "V13", format!("loud {id} owned by departed client {}", l.owner.0));
        }
    }
    for (&id, v) in &core.vdevs {
        if !core.clients.contains_key(&v.owner.0) {
            violate(out, "V13", format!("vdev {id} owned by departed client {}", v.owner.0));
        }
    }
    for (&id, w) in &core.wires {
        if !core.clients.contains_key(&w.owner.0) {
            violate(out, "V13", format!("wire {id} owned by departed client {}", w.owner.0));
        }
    }
    for (&id, s) in &core.sounds {
        if !core.clients.contains_key(&s.owner.0) {
            violate(out, "V13", format!("sound {id} owned by departed client {}", s.owner.0));
        }
    }
    if let Some(mgr) = core.redirect_client {
        if !core.clients.contains_key(&mgr) {
            violate(out, "V13", format!("redirect held by departed client {mgr}"));
        }
    }
    for key in core.properties.keys() {
        if !live(key) {
            violate(
                out,
                "V13",
                format!("property table keyed on destroyed resource ({}, {})", key.0, key.1),
            );
        }
    }
    for (&cid, cs) in &core.clients {
        for key in cs.selections.keys() {
            if !live(key) {
                violate(
                    out,
                    "V13",
                    format!(
                        "client {cid} holds a selection on destroyed resource ({}, {})",
                        key.0, key.1
                    ),
                );
            }
        }
    }
}

/// V14: sound/store consistency (DESIGN.md §17). A sound holding a
/// shared payload has handed its private buffer to the store (`data`
/// empty) and is finalized (`complete`); a content hash exists only on
/// complete sounds — streaming content has no stable identity. Catches
/// any dispatch arm that interns early, forgets `mem::take`, or leaves
/// a stale hash after `reset_for_recording`.
fn check_sound_store(core: &Core, out: &mut Vec<Violation>) {
    for (&id, s) in &core.sounds {
        if s.shared.is_some() {
            if !s.data.is_empty() {
                violate(
                    out,
                    "V14",
                    format!("sound {id} holds both a shared payload and private data"),
                );
            }
            if !s.complete {
                violate(out, "V14", format!("sound {id} shares a payload while incomplete"));
            }
        }
        if s.content_hash.is_some() && !s.complete {
            violate(
                out,
                "V14",
                format!("incomplete sound {id} carries a content hash"),
            );
        }
    }
}

/// V10: the data plane is a fresh resolve. A plan cache claiming to be
/// built at the current topology generation holds exactly the active
/// roots, route plans, producers and consumers one fresh resolve gives —
/// every planned device, wire and root resolved to the slot its owner
/// names, which it must have — and the slab agrees with the owners:
/// every slot an owner names holds that owner (no duplicates), and every
/// occupied slot is one an owner names (none dangling). A stale generation is fine (the next tick
/// rebuilds); a *lying* generation is the bug class
/// `Core::invalidate_plans` exists to prevent.
fn check_plan_cache(core: &Core, out: &mut Vec<Violation>) {
    let plans = &core.plane.plans;
    let slab = &core.plane.slab;
    let gen = core.topology_gen.load(std::sync::atomic::Ordering::Relaxed);
    if plans.built_generation() != Some(gen) {
        return;
    }
    for v in core.vdevs.values() {
        if let Some(d) = v.slot.and_then(|i| slab.devs.get(i as usize)) {
            if d.vid == v.id.0 && (d.class != v.class || d.root != v.root) {
                violate(
                    out,
                    "V10",
                    format!("slot of vdev {} disagrees on its class or root", v.id.0),
                );
            }
        }
    }
    check_slots(
        out,
        "vdev",
        core.vdevs.values().map(|v| (v.id.0, v.slot)),
        slab.devs.iter().map(|d| d.vid),
        crate::vdevice::DevSlot::FREE,
    );
    check_slots(
        out,
        "wire",
        core.wires.values().map(|w| (w.id.0, w.slot)),
        slab.wires.iter().map(|w| w.wire),
        crate::wire::WireSlot::FREE,
    );
    check_slots(
        out,
        "root loud",
        core.louds.values().filter(|l| l.is_root()).map(|l| (l.id.0, l.slot)),
        slab.roots.iter().map(|r| r.root),
        crate::plan::RootSlot::FREE,
    );
    let expected_roots = PlanCache::resolve_roots(core);
    if plans.active_roots != expected_roots {
        violate(
            out,
            "V10",
            format!(
                "plan cache active roots {:?} != live {:?} at generation {}",
                plans.active_roots, expected_roots, gen
            ),
        );
        return;
    }
    let unslotted = expected_roots.iter().any(|r| r.slot == NO_SLOT)
        || plans.routes.iter().flat_map(|p| &p.order).any(|d| {
            d.slot == NO_SLOT
                || d.ports.iter().flat_map(|p| &p.wires).any(|w| w.slot == NO_SLOT)
        });
    if unslotted {
        violate(out, "V10", "a planned root, device or wire has no slot".into());
    }
    let roots: Vec<u32> = expected_roots.iter().map(|r| r.root).collect();
    let fresh = build_route_plans(core, &roots);
    if plans.routes.len() != fresh.len() {
        violate(
            out,
            "V10",
            format!(
                "plan cache holds {} route plans for {} active roots",
                plans.routes.len(),
                fresh.len()
            ),
        );
        return;
    }
    for ((cached, fresh), root) in plans.routes.iter().zip(&fresh).zip(&roots) {
        if cached != fresh {
            violate(
                out,
                "V10",
                format!("cached route plan for root {root} differs from a fresh recompute"),
            );
        }
    }
    if (plans.producers.clone(), plans.consumers.clone())
        != PlanCache::resolve_endpoints(core, slab)
    {
        violate(out, "V10", "cached producer or consumer slots differ from a fresh resolve".into());
    }
}

/// V10's slab half for one kind of owner: each slot index an owner
/// names is in range, held by that owner, and named by no other owner;
/// each occupied slot (`held` not `free`) is named by some owner.
fn check_slots(
    out: &mut Vec<Violation>,
    kind: &str,
    owners: impl Iterator<Item = (u32, Option<u32>)>,
    held: impl Iterator<Item = u32>,
    free: u32,
) {
    let held: Vec<u32> = held.collect();
    let mut claimed: HashMap<u32, u32> = HashMap::new();
    for (id, slot) in owners {
        let Some(i) = slot else { continue };
        match held.get(i as usize) {
            Some(&h) if h == id => {}
            Some(&h) => violate(out, "V10", format!("{kind} {id} points at slot {i}, held by {h}")),
            None => violate(out, "V10", format!("{kind} {id} points past the slab at slot {i}")),
        }
        if let Some(other) = claimed.insert(i, id) {
            violate(out, "V10", format!("{kind}s {other} and {id} share slot {i}"));
        }
    }
    for (i, &h) in held.iter().enumerate() {
        if h != free && !claimed.contains_key(&(i as u32)) {
            violate(out, "V10", format!("{kind} slot {i} holds {h} but no {kind} points at it"));
        }
    }
}

/// V15: the activation memo is consistent (DESIGN.md §5). Folding the
/// stored exit claims down the stack from no claims reproduces every
/// stacked root's stored entering claims, and every root the next walk
/// would skip (not `dirty`) holds exactly what a fresh trial bind under
/// those claims gives — the same `Core::trial_bind` the walk calls —
/// in its active flag, exit claims, bindings and hardware rates. A
/// mutation of a tree's binding inputs that forgets to set `dirty`
/// shows up here as a stale bind.
fn check_activation_memo(core: &Core, out: &mut Vec<Violation>) {
    let mut fold = Claims::default();
    for &r in &core.active_stack {
        let Some(l) = core.louds.get(&r) else { continue }; // V6 reports it
        if l.claims_in != fold {
            violate(
                out,
                "V15",
                format!(
                    "root {r} memoises entering claims {:?} but the roots above leave {fold:?}",
                    l.claims_in
                ),
            );
        }
        fold = l.claims_out;
        if l.dirty {
            continue;
        }
        let trial = core.trial_bind(r, l.claims_in);
        if trial.exit.is_some() != l.active || trial.exit.unwrap_or(l.claims_in) != l.claims_out {
            violate(
                out,
                "V15",
                format!(
                    "root {r} memoises active={} exit {:?} but a fresh trial bind gives {:?}",
                    l.active, l.claims_out, trial.exit
                ),
            );
            continue;
        }
        let stale_vdevs: Vec<u32> = match trial.exit {
            Some(_) => trial
                .bindings
                .iter()
                .filter(|&&(vid, b, rate)| {
                    core.vdevs.get(&vid).is_some_and(|v| {
                        let d = core.dev_slot(v);
                        d.and_then(|d| d.binding) != Some(b)
                            || (b != HwBinding::Software && d.map(|d| d.rate) != Some(rate))
                    })
                })
                .map(|&(vid, _, _)| vid)
                .collect(),
            None => trial
                .vdevs
                .iter()
                .copied()
                .filter(|vid| {
                    core.vdevs
                        .get(vid)
                        .is_some_and(|v| core.dev_slot(v).is_some_and(|d| d.binding.is_some()))
                })
                .collect(),
        };
        if !stale_vdevs.is_empty() {
            violate(
                out,
                "V15",
                format!("root {r} devices {stale_vdevs:?} differ from a fresh trial bind"),
            );
        }
    }
}
