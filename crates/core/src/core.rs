//! The server's central state: resources, clients, hardware, activation.
//!
//! One [`Core`] lives behind an `RwLock`. The connection plane's
//! event-loop I/O workers dispatch requests through it: own-shard
//! requests take the read lock plus their client's per-shard stripe
//! ([`crate::shard`], [`crate::fastpath`]), everything else the write
//! lock. The engine thread takes the write lock once per tick. (The
//! paper's prototype used finer-grained threads — §6.1 — but all of them
//! ultimately serialise on the shared device and resource state; a single
//! lock with a tick-quantum engine gives the same architecture its
//! deterministic reference implementation.)

use crate::atoms::AtomTable;
use crate::loud::Loud;
use crate::queue::{CommandQueue, TypedQueue};
use crate::shard::{ShardSet, ShardedMap, SHARDS};
use crate::sound::{Catalogs, Sound};
use crate::vdevice::{DevSlot, HwBinding, VDev};
use crate::wire::Wire;
use crossbeam::channel::{Sender, TrySendError};
use da_hw::registry::{DeviceKind, Hardware, HwSlot, HwSpec};
use da_proto::event::{Event, EventMask};
use da_proto::ids::{Atom, ClientId, DeviceId, ResourceId};
use da_proto::reply::Reply;
use da_proto::types::{Attribute, DeviceClass, Property, QueueState};
use da_proto::ProtoError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A message queued toward one client's writer thread.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// A reply to request `seq`.
    Reply(u32, Reply),
    /// An asynchronous event.
    Event(Event),
    /// An asynchronous error for request `seq`.
    Error(u32, ProtoError),
    /// The server is closing this connection, with the reason why.
    Shutdown(DisconnectReason),
}

/// Why the server is closing a connection (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The whole server is shutting down.
    ServerShutdown,
    /// The client stopped draining replies and its bounded outbound
    /// channel filled: after low-priority events were already dropped,
    /// a reply or error could not be queued.
    SlowClient,
}

/// Depth of each client's bounded outbound channel (frames of
/// reply/event/error backlog a client may accumulate before the
/// slow-client policy engages; DESIGN.md §12).
pub const CLIENT_CHANNEL_DEPTH: usize = 256;

/// Normalised key for event selections and properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResKey(pub u8, pub u32);

/// Converts a protocol resource id to a selection/property key.
pub fn res_key(r: ResourceId) -> ResKey {
    match r {
        ResourceId::Loud(id) => ResKey(0, id.0),
        ResourceId::VDevice(id) => ResKey(1, id.0),
        ResourceId::Sound(id) => ResKey(2, id.0),
        ResourceId::Device(id) => ResKey(3, id.0),
    }
}

/// Hardware claims accumulated down the active stack (paper §5.4,
/// §5.8): physical devices in use, devices held with `ExclusiveUse`,
/// and ambient domains held by `ExclusiveInput`/`ExclusiveOutput`.
/// Bitsets over device index and over the dense ambient-domain index of
/// [`Core::domain_bits`], so a claim set is a heap-free `Copy` value and
/// the activation walk compares two in four word compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Claims {
    /// Devices bound by some root above.
    pub used: u64,
    /// Devices bound with `ExclusiveUse`.
    pub exclusive: u64,
    /// Domains closed to further input devices.
    pub excl_in: u64,
    /// Domains closed to further output devices.
    pub excl_out: u64,
}

/// Most physical devices, and most distinct ambient domains, a hardware
/// spec may declare: one bit each in [`Claims`].
pub const MAX_CLAIM_BITS: usize = u64::BITS as usize;

/// Each device's ambient domains as a bitset over the dense index of
/// every domain the spec names. Fails, rather than truncating, when the
/// spec has more devices or domains than [`Claims`] has bits.
fn domain_bits(spec: &HwSpec) -> Result<Vec<u64>, String> {
    if spec.devices.len() > MAX_CLAIM_BITS {
        return Err(format!(
            "hardware spec declares {} physical devices; \
             activation supports at most {MAX_CLAIM_BITS}",
            spec.devices.len()
        ));
    }
    let mut domains: Vec<u32> =
        spec.devices.iter().flat_map(|d| d.domains.iter().copied()).collect();
    domains.sort_unstable();
    domains.dedup();
    if domains.len() > MAX_CLAIM_BITS {
        return Err(format!(
            "hardware spec names {} ambient domains; activation supports at most {MAX_CLAIM_BITS}",
            domains.len()
        ));
    }
    Ok(spec
        .devices
        .iter()
        .map(|d| {
            d.domains.iter().fold(0u64, |acc, dom| {
                acc | 1 << domains.binary_search(dom).expect("collected above")
            })
        })
        .collect())
}

/// One root's trial bind: what [`Core::trial_bind`] would make of it.
#[derive(Debug)]
pub(crate) struct TrialBind {
    /// Every device of the tree, in bind order.
    pub vdevs: Vec<u32>,
    /// On success, each device's binding and, for hardware bindings, the
    /// device rate (software devices keep their own).
    pub bindings: Vec<(u32, HwBinding, u32)>,
    /// The claims after the root, or `None` when some device found no
    /// free physical device (the root stays inactive and claims nothing).
    pub exit: Option<Claims>,
}

/// Per-connection client state held by the core.
#[derive(Debug)]
pub struct ClientState {
    /// Connection id.
    pub id: ClientId,
    /// Diagnostic name from setup.
    pub name: String,
    /// Channel to the client's writer thread.
    pub tx: Sender<ServerMsg>,
    /// Event selections: resource → mask.
    pub selections: HashMap<ResKey, EventMask>,
    /// Wire counters shared with the connection's reader/writer threads
    /// (per-client accounting for `ListClients`).
    pub counters: std::sync::Arc<da_telemetry::ConnCounters>,
    /// Set when the slow-client policy decides to evict this client;
    /// the connection's reader thread polls it and tears down.
    pub kicked: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// Wakes the I/O worker that owns this client's connection, so a
    /// message queued by the engine is flushed on the next pump rather
    /// than after an idle-park interval.
    pub waker: Option<ClientWaker>,
}

/// Wake callback for the I/O worker owning a client's connection
/// (newtype so [`ClientState`] can keep deriving `Debug`).
pub struct ClientWaker(pub da_proto::transport::Waker);

impl ClientWaker {
    fn wake(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for ClientWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientWaker")
    }
}

/// Aggregate engine statistics (the E3 CPU-fraction experiment reads
/// these).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Wall time spent inside tick processing.
    pub busy: Duration,
    /// Total frames delivered to all speakers.
    pub speaker_frames: u64,
    /// Wall time of the most recent tick.
    pub last_tick: Duration,
    /// Longest single tick observed.
    pub max_tick: Duration,
    /// Route-plan cache rebuilds (cache misses after topology changes).
    /// Stays flat across steady-state ticks.
    pub plan_rebuilds: u64,
    /// Tick index at which this snapshot was taken. `0` on the live
    /// struct inside the core; [`crate::server::ServerControl::stats`]
    /// stamps it so a copy can be dated against later ones.
    pub captured_at_tick: u64,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine pacing (virtual for tests/benches, real-time for live use).
    pub pacing: da_hw::clock::Pacing,
    /// Engine quantum in microseconds.
    pub quantum_us: u64,
    /// Hardware inventory.
    pub hw: HwSpec,
    /// TCP listen address (`None` disables the TCP listener).
    pub tcp_addr: Option<String>,
    /// When set, no engine thread is spawned; ticks are driven manually
    /// through `ServerControl::tick_n` (deterministic tests and benches).
    pub manual_ticks: bool,
    /// Vendor string reported at setup.
    pub vendor: String,
    /// Connection-plane event-loop worker threads (total I/O threads are
    /// O(this), never O(clients)).
    pub io_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pacing: da_hw::clock::Pacing::Virtual,
            quantum_us: 10_000,
            hw: HwSpec::desktop(),
            tcp_addr: None,
            manual_ticks: false,
            vendor: "desktop-audio reference server".to_string(),
            io_workers: 4,
        }
    }
}

/// The complete mutable server state.
pub struct Core {
    /// Configuration the server was started with.
    pub config: ServerConfig,
    /// Live hardware.
    pub hw: Hardware,
    /// Remote parties scripted by tests/benches, ticked by the engine.
    pub remote_parties: Vec<da_hw::pstn::RemoteParty>,
    /// Connected clients.
    pub clients: HashMap<u32, ClientState>,
    /// All LOUDs by raw id (sharded by owning client; DESIGN.md §13).
    pub louds: ShardedMap<u32, Loud>,
    /// All virtual devices by raw id (sharded).
    pub vdevs: ShardedMap<u32, VDev>,
    /// All wires by raw id (sharded).
    pub wires: ShardedMap<u32, Wire>,
    /// All sounds by raw id (sharded).
    pub sounds: ShardedMap<u32, Sound>,
    /// Server-side sound catalogues.
    pub catalogs: Catalogs,
    /// Content-addressed shared sound store and transcode cache
    /// (DESIGN.md §17). A leaf structure: interior-mutable behind its
    /// own mutex, ranked below the core lock and the stripes, usable
    /// from both dispatch paths and the engine tick.
    pub store: crate::store::SoundStore,
    /// Interned names.
    pub atoms: AtomTable,
    /// Properties by resource (sharded).
    pub properties: ShardedMap<ResKey, HashMap<u32, Property>>,
    /// Per-shard stripe locks for the fast dispatch path. Lock order:
    /// core → stripe, at most one stripe per thread.
    pub(crate) stripes: ShardSet,
    /// Mapped root LOUDs, top of stack first (paper §5.4).
    pub active_stack: Vec<u32>,
    /// Per physical device, its ambient domains as a [`Claims`] domain
    /// bitset. Built once from the immutable hardware spec.
    pub domain_bits: Vec<u64>,
    /// The audio manager connection holding redirection, if any.
    pub redirect_client: Option<u32>,
    /// Root LOUDs whose map request awaits manager approval.
    pub pending_maps: Vec<u32>,
    /// Root LOUDs whose raise request awaits manager approval.
    pub pending_raises: Vec<u32>,
    /// Device time: frames elapsed at the nominal 8 kHz rate.
    pub device_time: u64,
    /// Tick counter.
    pub tick_index: u64,
    /// Engine statistics.
    pub stats: EngineStats,
    /// Topology generation: bumped by every mutation that can change
    /// routing (wires, devices, LOUD structure, activation/bindings).
    /// The engine's plan cache rebuilds when this moves. Atomic so the
    /// read-locked fast path can bump it without the write lock.
    pub topology_gen: AtomicU64,
    /// The engine data plane: the slot slab holding every device's,
    /// wire's and root's streaming state, the cached route plans, and
    /// scratch buffers. Mutated only under the write lock.
    pub plane: crate::plan::DataPlane,
    /// Metrics registry, journal, and per-opcode dispatch counts.
    pub tel: crate::telem::ServerTelemetry,
    /// Next client id to hand out.
    pub next_client: u32,
    /// Set when the server is shutting down.
    pub shutting_down: bool,
}

impl Core {
    /// Creates the core from a configuration.
    ///
    /// # Panics
    ///
    /// When the hardware spec does not fit the activation bitsets
    /// ([`MAX_CLAIM_BITS`]); [`Core::try_new`] reports that as an error.
    pub fn new(config: ServerConfig) -> Self {
        Core::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the core from a configuration, or explains why the
    /// hardware spec cannot be served.
    pub fn try_new(config: ServerConfig) -> Result<Self, String> {
        let domain_bits = domain_bits(&config.hw)?;
        let hw = Hardware::new(config.hw.clone());
        let tel = crate::telem::ServerTelemetry::default();
        let catalogs = Catalogs::with_system_sounds();
        let store = crate::store::SoundStore::new(&tel.metrics);
        // Catalogue payloads are content-addressed from the start, so a
        // client upload of identical bytes dedupes against them.
        for cat in catalogs.sounds() {
            store.adopt(cat.hash, &cat.data);
        }
        Ok(Core {
            config,
            hw,
            remote_parties: Vec::new(),
            clients: HashMap::new(),
            louds: ShardedMap::new(SHARDS),
            vdevs: ShardedMap::new(SHARDS),
            wires: ShardedMap::new(SHARDS),
            sounds: ShardedMap::new(SHARDS),
            catalogs,
            store,
            atoms: AtomTable::new(),
            properties: ShardedMap::new(SHARDS),
            stripes: ShardSet::new(SHARDS),
            active_stack: Vec::new(),
            domain_bits,
            redirect_client: None,
            pending_maps: Vec::new(),
            pending_raises: Vec::new(),
            device_time: 0,
            tick_index: 0,
            stats: EngineStats::default(),
            topology_gen: AtomicU64::new(0),
            plane: crate::plan::DataPlane::default(),
            tel,
            next_client: 1,
            shutting_down: false,
        })
    }

    /// Marks the routing topology as changed: the engine rebuilds its
    /// cached route plans before the next tick. Cheap (a counter bump),
    /// so every mutation path calls it unconditionally. Shared-reference
    /// form so the read-locked fast path can also call it.
    pub fn invalidate_plans(&self) {
        self.topology_gen.fetch_add(1, Ordering::Relaxed);
    }

    // ---- clients -----------------------------------------------------------

    /// Registers a new client, returning its id and id range.
    pub fn add_client(&mut self, name: String, tx: Sender<ServerMsg>) -> (ClientId, u32, u32) {
        self.add_client_with_counters(name, tx, Default::default())
    }

    /// Registers a new client whose connection threads share `counters`.
    pub fn add_client_with_counters(
        &mut self,
        name: String,
        tx: Sender<ServerMsg>,
        counters: std::sync::Arc<da_telemetry::ConnCounters>,
    ) -> (ClientId, u32, u32) {
        let id = self.next_client;
        self.next_client += 1;
        let client = ClientId(id);
        self.clients.insert(
            id,
            ClientState {
                id: client,
                name,
                tx,
                selections: HashMap::new(),
                counters,
                kicked: Default::default(),
                waker: None,
            },
        );
        self.tel.metrics.clients_total.inc();
        self.tel.metrics.clients_connected.set(self.clients.len() as i64);
        // 20 bits of id space per client, X-style.
        let base = id << 20;
        let mask = 0x000F_FFFF;
        (client, base, mask)
    }

    /// Attaches the owning I/O worker's wake callback to a client, so
    /// outbound messages queued by other threads (engine, other
    /// clients' dispatches) get flushed promptly instead of waiting
    /// out the worker's idle park.
    pub fn attach_waker(&mut self, client: ClientId, waker: da_proto::transport::Waker) {
        if let Some(cs) = self.clients.get_mut(&client.0) {
            cs.waker = Some(ClientWaker(waker));
        }
    }

    /// Removes a client and destroys everything it owns.
    pub fn remove_client(&mut self, client: ClientId) {
        // Unmap and destroy the client's root LOUDs (which cascades).
        // One activation walk at the end covers every destroyed root.
        let roots: Vec<u32> = self
            .louds
            .values()
            .filter(|l| l.owner == client && l.is_root())
            .map(|l| l.id.0)
            .collect();
        for root in roots {
            self.destroy_loud(root);
        }
        // Sounds die with their owner — and so must their property
        // tables, which `DeleteSound` removes but a plain `retain` on
        // the sound map would leak.
        let dead_sounds: Vec<u32> = self
            .sounds
            .iter()
            .filter(|(_, s)| s.owner == client)
            .map(|(&id, _)| id)
            .collect();
        for id in dead_sounds {
            self.sounds.remove(&id);
            self.properties.remove(&ResKey(2, id));
        }
        if self.redirect_client == Some(client.0) {
            self.redirect_client = None;
            // Approve anything the departed manager was sitting on.
            let pending: Vec<u32> = self.pending_maps.drain(..).collect();
            for loud in pending {
                self.map_loud_now(loud);
            }
            let raises: Vec<u32> = self.pending_raises.drain(..).collect();
            for loud in raises {
                self.raise_loud_now(loud);
            }
        }
        self.clients.remove(&client.0);
        // Departed clients must leave no orphan partial traces or queue
        // watches behind (DESIGN.md §15).
        self.tel.recorder.purge_client(client.0);
        // Surviving clients may hold event selections keyed on the
        // resources that just died with the departed client; sweep them
        // so nothing references a destroyed id (invariant V13).
        for cs in self.clients.values_mut() {
            cs.selections.retain(|key, _| match key.0 {
                0 => self.louds.contains_key(&key.1),
                1 => self.vdevs.contains_key(&key.1),
                2 => self.sounds.contains_key(&key.1),
                _ => (key.1 as usize) < self.hw.device_count(),
            });
        }
        self.tel.metrics.clients_connected.set(self.clients.len() as i64);
        self.recompute_activation();
    }

    // ---- events ------------------------------------------------------------

    /// Sends an event to every client that selected its category on
    /// `key`.
    pub fn send_event(&self, key: ResKey, event: Event) {
        // Relax: events fire at op boundaries and call progress, and each
        // subscriber takes one payload copy — human-timescale work.
        let _relax = crate::rt::AllocRelax::scope();
        let cat = event.category();
        for cs in self.clients.values() {
            if let Some(mask) = cs.selections.get(&key) {
                if mask.contains(cat) {
                    self.queue_event(cs, event.clone()); // rt-ok: events fire at op boundaries and call progress, one copy per subscriber
                }
            }
        }
    }

    /// Sends an event to the audio manager (redirection holder).
    pub fn send_manager_event(&self, event: Event) {
        if let Some(mgr) = self.redirect_client {
            if let Some(cs) = self.clients.get(&mgr) {
                self.queue_event(cs, event);
            }
        }
    }

    /// Queues an event on one client's bounded channel. Events are the
    /// low-priority tier of the slow-client policy (DESIGN.md §12): a
    /// full channel drops the event (counted, never blocking — these
    /// sends run under the core lock, so blocking here would stall the
    /// engine for every other client).
    fn queue_event(&self, cs: &ClientState, event: Event) {
        match cs.tx.try_send(ServerMsg::Event(event)) {
            Ok(()) => {
                if let Some(w) = &cs.waker {
                    w.wake();
                }
            }
            Err(TrySendError::Full(_)) => {
                da_telemetry::ConnCounters::bump(&cs.counters.events_dropped, 1);
                self.tel.metrics.events_dropped_total.inc();
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Sends a message directly to one client regardless of selections.
    ///
    /// Replies and errors are the high-priority tier: a client whose
    /// channel is still full after events have been dropped is beyond
    /// coalescing, so it is marked for eviction (its reader thread
    /// polls the flag and tears the connection down with
    /// [`DisconnectReason::SlowClient`]). Never blocks: callers hold
    /// the core lock.
    pub fn send_to_client(&self, client: ClientId, msg: ServerMsg) {
        let Some(cs) = self.clients.get(&client.0) else { return };
        match msg {
            ServerMsg::Event(event) => self.queue_event(cs, event),
            ServerMsg::Shutdown(_) => {
                // Best-effort farewell; the connection is closing
                // either way.
                let _ = cs.tx.try_send(msg);
                if let Some(w) = &cs.waker {
                    w.wake();
                }
            }
            reply_or_error => {
                if let ServerMsg::Reply(seq, _) | ServerMsg::Error(seq, _) = &reply_or_error {
                    // Outbound stage stamp precedes the enqueue so the
                    // drain stamp can never come first (DESIGN.md §15).
                    self.tel.recorder.reply_outbound(client.0, *seq);
                }
                match cs.tx.try_send(reply_or_error) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        if !cs.kicked.swap(true, std::sync::atomic::Ordering::Relaxed) {
                            self.tel.metrics.clients_evicted_total.inc();
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
                // Wake even on the full/evicted path: the worker is the
                // one that notices `kicked` and sends the farewell.
                if let Some(w) = &cs.waker {
                    w.wake();
                }
            }
        }
    }

    // ---- resource helpers ----------------------------------------------------

    /// Collects every virtual device in the tree rooted at `root`.
    pub fn tree_vdevs(&self, root: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(lid) = stack.pop() {
            if let Some(l) = self.louds.get(&lid) {
                out.extend(&l.vdevs);
                stack.extend(&l.children);
            }
        }
        out
    }

    /// Removes every client's event selection on a resource being
    /// destroyed: no selection may outlive its resource (invariant
    /// V13), whether it dies by explicit destroy or owner disconnect.
    pub fn purge_selections(&mut self, key: ResKey) {
        for cs in self.clients.values_mut() {
            cs.selections.remove(&key);
        }
    }

    /// Destroys a LOUD subtree: children, devices, wires, queue. A
    /// destroyed root leaves the active stack; the caller runs the
    /// activation walk once it has destroyed everything it meant to.
    pub fn destroy_loud(&mut self, loud: u32) {
        if !self.louds.contains_key(&loud) {
            return;
        }
        // A dying root takes its queue with it: pending trace watches
        // on it can never resolve, so the recorder drops them now.
        self.tel.recorder.purge_root(loud);
        self.invalidate_plans();
        let l = self.louds.get(&loud).expect("checked above");
        let is_root = l.is_root();
        let parent = l.parent;
        let children = l.children.clone();
        let vdevs = l.vdevs.clone();
        for c in children {
            self.destroy_loud(c);
        }
        for v in vdevs {
            self.destroy_vdev(v);
        }
        if let Some(p) = parent {
            if let Some(pl) = self.louds.get_mut(&p) {
                pl.children.retain(|&c| c != loud);
            }
        }
        if is_root {
            self.active_stack.retain(|&r| r != loud);
            self.pending_maps.retain(|&r| r != loud);
            self.pending_raises.retain(|&r| r != loud);
        }
        self.properties.remove(&ResKey(0, loud));
        self.purge_selections(ResKey(0, loud));
        self.louds.remove(&loud);
    }

    /// Destroys a virtual device and its wires.
    pub fn destroy_vdev(&mut self, vdev: u32) {
        self.invalidate_plans();
        let wire_ids: Vec<u32> = self
            .wires
            .values()
            .filter(|w| w.src.0 == vdev || w.dst.0 == vdev)
            .map(|w| w.id.0)
            .collect();
        for w in wire_ids {
            self.wires.remove(&w);
        }
        if let Some(v) = self.vdevs.remove(&vdev) {
            // A telephone device that vanishes mid-call must not leave a
            // zombie call on the line. (Its slot is reclaimed at the next
            // plan build.)
            if let Some(HwBinding::Line(line)) = self.plane.slab.dev(&v).and_then(|d| d.binding) {
                self.hw.pstn.on_hook(line);
            }
            if let Some(l) = self.louds.get_mut(&v.loud) {
                l.vdevs.retain(|&d| d != vdev);
            }
            if let Some(r) = self.louds.get_mut(&v.root) {
                r.dirty = true;
            }
        }
        self.properties.remove(&ResKey(1, vdev));
        self.purge_selections(ResKey(1, vdev));
    }

    // ---- mapping: virtual → physical (paper §5.3) ---------------------------

    /// Does hardware device `idx` satisfy a virtual device request of
    /// `class` with `attrs`?
    pub fn device_matches(&self, idx: usize, class: DeviceClass, attrs: &[Attribute]) -> bool {
        let Some(spec) = self.hw.spec().devices.get(idx) else { return false };
        let kind_ok = matches!(
            (&spec.kind, class),
            (DeviceKind::Speaker { .. }, DeviceClass::Output)
                | (DeviceKind::Microphone { .. }, DeviceClass::Input)
                | (DeviceKind::PhoneLine { .. }, DeviceClass::Telephone)
        );
        if !kind_ok {
            return false;
        }
        for attr in attrs {
            let ok = match attr {
                Attribute::Device(DeviceId(id)) => *id as usize == idx,
                Attribute::Name(n) => &spec.name == n,
                Attribute::SampleRate(r) => match &spec.kind {
                    DeviceKind::Speaker { rate, .. } | DeviceKind::Microphone { rate } => {
                        rate == r
                    }
                    DeviceKind::PhoneLine { .. } => *r == da_hw::pstn::LINE_RATE,
                },
                Attribute::Channels(c) => match &spec.kind {
                    DeviceKind::Speaker { channels, .. } => channels == c,
                    _ => *c == 1,
                },
                Attribute::AmbientDomain(d) => spec.domains.contains(d),
                Attribute::PhoneNumber(n) => match &spec.kind {
                    DeviceKind::PhoneLine { number, .. } => number == n,
                    _ => false,
                },
                Attribute::CallerId(want) => match &spec.kind {
                    DeviceKind::PhoneLine { caller_id, .. } => caller_id == want,
                    _ => false,
                },
                // Exclusivity attributes constrain activation, not device
                // choice; capability attributes are satisfied by the
                // software implementations; encodings are converted.
                _ => true,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether a virtual-device class needs a physical device at all.
    pub fn needs_hardware(class: DeviceClass) -> bool {
        matches!(class, DeviceClass::Input | DeviceClass::Output | DeviceClass::Telephone)
    }

    // ---- activation (paper §5.4) ----------------------------------------------

    /// One root's trial bind (paper §5.4, §5.8): each device of the tree
    /// takes the first matching physical device that neither `entering`
    /// nor the tree's own earlier devices rule out. A pure function of
    /// the claims and the tree, which is what lets the walk memoise it.
    pub(crate) fn trial_bind(&self, root: u32, entering: Claims) -> TrialBind {
        let vdevs = self.tree_vdevs(root);
        let mut bindings = Vec::with_capacity(vdevs.len());
        let mut acc = entering;
        for &vid in &vdevs {
            let Some(v) = self.vdevs.get(&vid) else { continue };
            if !Self::needs_hardware(v.class) {
                bindings.push((vid, HwBinding::Software, 0));
                continue;
            }
            let has = |want: fn(&Attribute) -> bool| v.attrs.iter().any(want);
            let exclusive_use = has(|a| matches!(a, Attribute::ExclusiveUse));
            // Ambient-domain exclusion: an exclusive-input claim blocks
            // input devices sharing any of its domains; likewise output.
            let closed = match v.class {
                DeviceClass::Input => acc.excl_in,
                DeviceClass::Output => acc.excl_out,
                _ => 0,
            };
            let chosen = (0..self.hw.spec().devices.len()).find(|&idx| {
                let bit = 1u64 << idx;
                acc.exclusive & bit == 0
                    && !(exclusive_use && acc.used & bit != 0)
                    && self.domain_bits[idx] & closed == 0
                    && self.device_matches(idx, v.class, &v.attrs)
            });
            let Some(idx) = chosen else {
                return TrialBind { vdevs, bindings, exit: None };
            };
            let (binding, rate) = match self.hw.slot(idx) {
                Some(HwSlot::Speaker(s)) => (HwBinding::Speaker(s), self.hw.speakers[s].rate()),
                Some(HwSlot::Microphone(m)) => {
                    (HwBinding::Microphone(m), self.hw.microphones[m].rate())
                }
                Some(HwSlot::Line(l)) => (HwBinding::Line(l), da_hw::pstn::LINE_RATE),
                None => return TrialBind { vdevs, bindings, exit: None },
            };
            acc.used |= 1 << idx;
            if exclusive_use {
                acc.exclusive |= 1 << idx;
            }
            if has(|a| matches!(a, Attribute::ExclusiveInput)) {
                acc.excl_in |= self.domain_bits[idx];
            }
            if has(|a| matches!(a, Attribute::ExclusiveOutput)) {
                acc.excl_out |= self.domain_bits[idx];
            }
            bindings.push((vid, binding, rate));
        }
        TrialBind { vdevs, bindings, exit: Some(acc) }
    }

    /// Recomputes which mapped LOUDs are active, walking the stack from
    /// the top and activating every LOUD whose resource needs can be met
    /// ("The server activates as many LOUDs as it can at one time",
    /// paper §5.4).
    ///
    /// Memoised (DESIGN.md §5): a root that is not `dirty` and sees the
    /// same entering claims as at its last bind would bind exactly as
    /// before, so the walk carries its stored exit claims forward and
    /// touches nothing else. Only the other roots are trial-bound again.
    pub fn recompute_activation(&mut self) {
        let started = std::time::Instant::now();
        // Bindings and the active set feed the engine's cached plans;
        // any recompute may change them.
        self.invalidate_plans();
        let mut claims = Claims::default();
        let mut rebinds = 0u64;
        let mut transitions: Vec<(u32, bool)> = Vec::new();
        // Indexed rather than iterated: the body writes through `self`.
        for i in 0..self.active_stack.len() {
            let root = self.active_stack[i];
            let Some(l) = self.louds.get(&root) else { continue };
            if !l.dirty && l.claims_in == claims {
                claims = l.claims_out;
                continue;
            }
            rebinds += 1;
            let was_active = l.active;
            let entering = claims;
            let trial = self.trial_bind(root, entering);
            match trial.exit {
                Some(exit) => {
                    claims = exit;
                    let quantum = self.config.quantum_us;
                    for (vid, binding, rate) in trial.bindings {
                        if let Some(d) = self.dev_slot_mut(vid) {
                            d.binding = Some(binding);
                            if binding != HwBinding::Software {
                                d.set_rate(rate, quantum);
                            }
                        }
                    }
                }
                None => {
                    for vid in trial.vdevs {
                        let slot = self.vdevs.get(&vid).and_then(|v| v.slot);
                        if let Some(i) = slot {
                            self.plane.slab.devs[i as usize].binding = None;
                        }
                    }
                }
            }
            let active = trial.exit.is_some();
            if let Some(l) = self.louds.get_mut(&root) {
                l.active = active;
                l.claims_in = entering;
                l.claims_out = claims;
                l.dirty = false;
            }
            if active != was_active {
                transitions.push((root, active));
            }
        }
        // Queue state follows activation (paper §5.5: deactivation pauses
        // the queue; reactivation resumes a server-paused queue).
        for (root, activated) in &transitions {
            if let Some(l) = self.louds.get_mut(root) {
                if let Some(q) = &mut l.queue {
                    match q.typed() {
                        TypedQueue::ServerPaused(t) if *activated => {
                            t.reactivate();
                        }
                        TypedQueue::Started(t) if !*activated => {
                            t.server_pause();
                        }
                        _ => {}
                    }
                }
            }
        }
        for (root, activated) in transitions {
            let lid = da_proto::ids::LoudId(root);
            let event = if activated {
                Event::ActivateNotify { loud: lid }
            } else {
                Event::DeactivateNotify { loud: lid }
            };
            self.send_event(ResKey(0, root), event.clone());
            // Queue pause/resume notifications accompany the transition.
            if let Some(l) = self.louds.get(&root) {
                if let Some(q) = &l.queue {
                    if activated && q.state() == QueueState::Started {
                        self.send_event(ResKey(0, root), Event::QueueResumed { loud: lid });
                    } else if !activated && q.state() == QueueState::ServerPaused {
                        self.send_event(
                            ResKey(0, root),
                            Event::QueuePaused { loud: lid, by_server: true },
                        );
                    }
                }
            }
        }
        self.tel.metrics.activation_rebinds_total.add(rebinds);
        self.tel.metrics.activation_us.record_duration_us(started.elapsed());
    }

    /// Performs the actual map (after any manager redirection).
    pub fn map_loud_now(&mut self, root: u32) {
        let Some(l) = self.louds.get_mut(&root) else { return };
        if l.mapped {
            return;
        }
        l.mapped = true;
        l.dirty = true;
        self.active_stack.insert(0, root);
        self.send_event(ResKey(0, root), Event::MapNotify { loud: da_proto::ids::LoudId(root) });
        self.recompute_activation();
    }

    /// Performs the actual raise.
    pub fn raise_loud_now(&mut self, root: u32) {
        if let Some(pos) = self.active_stack.iter().position(|&r| r == root) {
            self.active_stack.remove(pos);
            self.active_stack.insert(0, root);
            self.recompute_activation();
        }
    }

    /// Unmaps a root LOUD.
    pub fn unmap_loud(&mut self, root: u32) {
        let Some(l) = self.louds.get_mut(&root) else { return };
        if !l.mapped {
            return;
        }
        l.mapped = false;
        l.active = false;
        if let Some(q) = &mut l.queue {
            if let TypedQueue::Started(t) = q.typed() {
                t.server_pause();
            }
        }
        self.active_stack.retain(|&r| r != root);
        self.send_event(ResKey(0, root), Event::UnmapNotify { loud: da_proto::ids::LoudId(root) });
        self.recompute_activation();
    }

    // ---- engine data plane -----------------------------------------------------

    /// The streaming state of `v`, if it has a slot yet. Outside the
    /// tick only (the tick detaches the data plane).
    pub fn dev_slot(&self, v: &VDev) -> Option<&DevSlot> {
        self.plane.slab.dev(v)
    }

    /// The streaming state of device `vid`, assigning it a slot if it has
    /// none. Write lock only, outside the tick.
    pub fn dev_slot_mut(&mut self, vid: u32) -> Option<&mut DevSlot> {
        let Core { vdevs, plane, config, .. } = self;
        let i = plane.slab.assign_dev(vdevs.get_mut(&vid)?, config.quantum_us);
        Some(&mut plane.slab.devs[i])
    }

    /// The operating rate of `v`: its slot's, or the attribute rate a
    /// fresh slot would start at.
    pub fn device_rate(&self, v: &VDev) -> u32 {
        self.dev_slot(v).map_or_else(|| v.initial_rate(), |d| d.rate)
    }

    /// The running queue node of root `root`, if any.
    pub fn running(&self, root: u32) -> Option<&crate::queue::RunNode> {
        let i = self.louds.get(&root)?.slot?;
        self.plane.slab.roots[i as usize].running.as_ref()
    }

    /// Runs `f` with the slot slab detached from the core, for the
    /// engine functions write-locked handlers share with the tick.
    pub fn with_slab<R>(&mut self, f: impl FnOnce(&mut Core, &mut crate::plan::Slab) -> R) -> R {
        let mut slab = std::mem::take(&mut self.plane.slab);
        let out = f(self, &mut slab);
        self.plane.slab = slab;
        out
    }

    // ---- queue access ----------------------------------------------------------

    /// The queue of a root LOUD.
    pub fn queue_mut(&mut self, root: u32) -> Option<&mut CommandQueue> {
        self.louds.get_mut(&root).and_then(|l| l.queue.as_mut())
    }

    // ---- device LOUD ------------------------------------------------------------

    /// Builds the device-LOUD description (paper §5.1: "a special LOUD
    /// tree ... encapsulates all of the available functions in every
    /// device controlled by the server").
    pub fn device_loud(&self) -> (Vec<da_proto::reply::PhysDeviceInfo>, Vec<da_proto::reply::HardWire>) {
        let mut devices = Vec::new();
        for (idx, spec) in self.hw.spec().devices.iter().enumerate() {
            let (class, mut attrs) = match &spec.kind {
                DeviceKind::Speaker { rate, channels } => (
                    DeviceClass::Output,
                    vec![
                        Attribute::SampleRate(*rate),
                        Attribute::Channels(*channels),
                    ],
                ),
                DeviceKind::Microphone { rate } => {
                    (DeviceClass::Input, vec![Attribute::SampleRate(*rate)])
                }
                DeviceKind::PhoneLine { number, caller_id } => (
                    DeviceClass::Telephone,
                    vec![
                        Attribute::PhoneNumber(number.clone()),
                        Attribute::PhoneLines(1),
                        Attribute::CallerId(*caller_id),
                        Attribute::SampleRate(da_hw::pstn::LINE_RATE),
                    ],
                ),
            };
            attrs.push(Attribute::Name(spec.name.clone()));
            devices.push(da_proto::reply::PhysDeviceInfo {
                id: DeviceId(idx as u32),
                class,
                attrs,
                domains: spec.domains.clone(),
            });
        }
        let hard_wires = self
            .hw
            .spec()
            .hard_wires
            .iter()
            .map(|&(s, sp, d, dp)| da_proto::reply::HardWire {
                src: DeviceId(s as u32),
                src_port: sp,
                dst: DeviceId(d as u32),
                dst_port: dp,
            })
            .collect();
        (devices, hard_wires)
    }

    // ---- atoms & properties --------------------------------------------------

    /// Interns an atom name.
    pub fn intern(&mut self, name: &str) -> Atom {
        self.atoms.intern(name)
    }
}
