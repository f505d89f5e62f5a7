//! Server telemetry: the metric registry, journal, and protocol
//! snapshots.
//!
//! Every metric name in the server is registered exactly once, here, in
//! [`ServerMetrics::new`] — `xtask lint` enforces that each
//! `counter!`/`gauge!`/`histogram!` name is unique, snake_case, and
//! listed in the DESIGN.md §10 catalog. Hot paths hold pre-registered
//! handles (relaxed atomics), never the registry lock.
//!
//! The registry is **per-core**, not process-global: tests and benches
//! run many servers concurrently in one process and must not
//! cross-contaminate each other's numbers.

use crate::core::Core;
use da_proto::reply::{
    ClientStatsData, CounterSample, GaugeSample, HistogramSample, Reply, ServerStatsData,
    TraceData, TraceStage, TraceStageSample,
};
use da_proto::request::Request;
use da_telemetry::{counter, gauge, histogram};
use da_telemetry::{ConnCounters, Counter, Gauge, Histogram, Journal, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Pre-registered handles for every server metric.
///
/// Grouped by subsystem; see DESIGN.md §10 for the catalog with
/// semantics and units.
#[derive(Clone)]
pub struct ServerMetrics {
    // -- dispatch ---------------------------------------------------------
    /// Requests dispatched (all opcodes).
    pub dispatch_requests_total: Counter,
    /// Dispatches that produced a protocol error.
    pub dispatch_errors_total: Counter,
    /// Wall time of one dispatch, in microseconds.
    pub dispatch_latency_us: Histogram,
    // -- engine -----------------------------------------------------------
    /// Engine ticks executed.
    pub engine_ticks_total: Counter,
    /// Wall time of one tick, in microseconds.
    pub engine_tick_us: Histogram,
    /// Ticks whose wall time exceeded the configured quantum.
    pub engine_tick_overruns_total: Counter,
    /// Frames of silence substituted because a playing stream starved.
    pub engine_underrun_frames_total: Counter,
    /// Tick phase wall times, in microseconds: line events (with the
    /// remote parties and network timers), command queues, continuous
    /// producers, wire routing, and consumers.
    pub engine_phase_line_us: Histogram,
    /// See [`ServerMetrics::engine_phase_line_us`].
    pub engine_phase_queues_us: Histogram,
    /// See [`ServerMetrics::engine_phase_line_us`].
    pub engine_phase_produce_us: Histogram,
    /// See [`ServerMetrics::engine_phase_line_us`].
    pub engine_phase_route_us: Histogram,
    /// See [`ServerMetrics::engine_phase_line_us`].
    pub engine_phase_consume_us: Histogram,
    /// Samples dropped because a port ring was full (its oldest samples
    /// make room; DESIGN.md §5).
    pub engine_ring_overflow_frames_total: Counter,
    // -- plan cache -------------------------------------------------------
    /// Route-plan cache consultations (one per tick).
    pub plan_cache_lookups_total: Counter,
    /// Route-plan cache rebuilds (misses after topology changes).
    pub plan_cache_rebuilds_total: Counter,
    /// Wall time of one cache rebuild, in microseconds.
    pub plan_build_us: Histogram,
    // -- activation -------------------------------------------------------
    /// Wall time of one activation walk, in microseconds.
    pub activation_us: Histogram,
    /// Stacked roots actually re-bound by activation walks (the rest
    /// reuse their memoised bind).
    pub activation_rebinds_total: Counter,
    // -- queues -----------------------------------------------------------
    /// Queue state transitions, summed over all queues (mirrored).
    pub queue_transitions_total: Counter,
    /// Entries accepted by `Enqueue`, summed over all queues (mirrored).
    pub queue_entries_enqueued_total: Counter,
    /// Pending entries across all live queues.
    pub queue_depth: Gauge,
    /// Active root LOUDs.
    pub active_roots: Gauge,
    // -- connections ------------------------------------------------------
    /// Currently connected clients.
    pub clients_connected: Gauge,
    /// Clients ever connected.
    pub clients_total: Counter,
    /// Request payload bytes received, all connections.
    pub wire_bytes_in_total: Counter,
    /// Reply/event/error payload bytes sent, all connections.
    pub wire_bytes_out_total: Counter,
    /// Request frames received, all connections.
    pub wire_frames_in_total: Counter,
    /// Reply/event/error frames sent, all connections.
    pub wire_frames_out_total: Counter,
    /// Events dropped because a client's bounded channel was full.
    pub events_dropped_total: Counter,
    /// Clients evicted by the slow-client policy.
    pub clients_evicted_total: Counter,
    // -- connection plane & sharding (DESIGN.md §13) ----------------------
    /// Requests dispatched on the sharded fast path (read lock + stripe).
    pub dispatch_fast_total: Counter,
    /// Requests dispatched on the global-write-lock slow path.
    pub dispatch_slow_total: Counter,
    /// Wait to acquire a shard stripe lock, in microseconds.
    pub shard_lock_wait_us: Histogram,
    /// Hold time of a shard stripe lock, in microseconds.
    pub shard_lock_hold_us: Histogram,
    /// Event-loop I/O worker threads in the connection plane.
    pub conn_plane_workers: Gauge,
    /// Connections currently owned by the plane, all workers.
    pub conn_plane_connections: Gauge,
    /// Connections owned by the most loaded worker.
    pub conn_worker_max_connections: Gauge,
    /// Busy share of the most loaded worker's loop, in permille.
    pub conn_plane_busy_permille: Gauge,
    /// Connections dropped because every I/O worker was gone.
    pub conn_plane_unplaced_total: Counter,
    /// Wall time of one worker loop iteration doing work, in
    /// microseconds.
    pub conn_worker_loop_us: Histogram,
    // -- hardware ---------------------------------------------------------
    /// Speaker-reported underrun frames, all speakers (mirrored).
    pub speaker_underrun_frames_total: Counter,
    // -- shared sound store & transcode cache (DESIGN.md §17) -------------
    /// Bytes of encoded sound payload interned in the shared store
    /// (each distinct content counted once, however many sounds bind it).
    pub store_bytes_shared: Gauge,
    /// Live interned payloads in the shared store.
    pub store_payloads: Gauge,
    /// Uploads finalized into an already-resident payload (zero-copy).
    pub store_dedupe_hits_total: Counter,
    /// Engine decode windows served from the transcode cache.
    pub transcode_cache_hits_total: Counter,
    /// Decode windows that had to build a cache entry (full decode).
    pub transcode_cache_misses_total: Counter,
    /// Transcode-cache entries evicted by the byte budget (LRU).
    pub transcode_cache_evictions_total: Counter,
    /// Estimated decode time avoided by cache hits, in microseconds.
    pub transcode_us_saved_total: Counter,
    /// `WriteSoundData` requests rejected for exceeding the max sound
    /// size, before any allocation.
    pub sounds_rejected_oversize_total: Counter,
    // -- dsp --------------------------------------------------------------
    /// Per-tick nanoseconds spent in encode/decode conversions.
    pub dsp_convert_ns: Histogram,
    /// Per-tick nanoseconds spent mixing.
    pub dsp_mix_ns: Histogram,
    /// Per-tick nanoseconds spent resampling.
    pub dsp_resample_ns: Histogram,
    // -- causal tracing (DESIGN.md §15) -----------------------------------
    /// Traces assembled to completion by the flight recorder.
    pub trace_completed_total: Counter,
    /// Partial traces discarded before completion (cap eviction, client
    /// removal, root teardown).
    pub trace_dropped_total: Counter,
    /// End-to-end wall time of one completed trace, in microseconds.
    pub trace_total_us: Histogram,
    /// Frame-reassembly-to-dispatch-start wait, in microseconds.
    pub trace_stage_ingress_us: Histogram,
    /// Dispatch execution time (start to end), in microseconds.
    pub trace_stage_dispatch_us: Histogram,
    /// Dispatch end to the engine tick that first services the queued
    /// action, in microseconds.
    pub trace_stage_engine_us: Histogram,
    /// Previous stage to outbound channel enqueue, in microseconds.
    pub trace_stage_outbound_us: Histogram,
    /// Outbound enqueue to writer drain, in microseconds.
    pub trace_stage_drain_us: Histogram,
}

impl ServerMetrics {
    /// Registers every server metric on `reg`.
    pub fn new(reg: &Registry) -> ServerMetrics {
        ServerMetrics {
            dispatch_requests_total: counter!(reg, "dispatch_requests_total"),
            dispatch_errors_total: counter!(reg, "dispatch_errors_total"),
            dispatch_latency_us: histogram!(reg, "dispatch_latency_us"),
            engine_ticks_total: counter!(reg, "engine_ticks_total"),
            engine_tick_us: histogram!(reg, "engine_tick_us"),
            engine_tick_overruns_total: counter!(reg, "engine_tick_overruns_total"),
            engine_underrun_frames_total: counter!(reg, "engine_underrun_frames_total"),
            engine_phase_line_us: histogram!(reg, "engine_phase_line_us"),
            engine_phase_queues_us: histogram!(reg, "engine_phase_queues_us"),
            engine_phase_produce_us: histogram!(reg, "engine_phase_produce_us"),
            engine_phase_route_us: histogram!(reg, "engine_phase_route_us"),
            engine_phase_consume_us: histogram!(reg, "engine_phase_consume_us"),
            engine_ring_overflow_frames_total: counter!(reg, "engine_ring_overflow_frames_total"),
            plan_cache_lookups_total: counter!(reg, "plan_cache_lookups_total"),
            plan_cache_rebuilds_total: counter!(reg, "plan_cache_rebuilds_total"),
            plan_build_us: histogram!(reg, "plan_build_us"),
            activation_us: histogram!(reg, "activation_us"),
            activation_rebinds_total: counter!(reg, "activation_rebinds_total"),
            queue_transitions_total: counter!(reg, "queue_transitions_total"),
            queue_entries_enqueued_total: counter!(reg, "queue_entries_enqueued_total"),
            queue_depth: gauge!(reg, "queue_depth"),
            active_roots: gauge!(reg, "active_roots"),
            clients_connected: gauge!(reg, "clients_connected"),
            clients_total: counter!(reg, "clients_total"),
            wire_bytes_in_total: counter!(reg, "wire_bytes_in_total"),
            wire_bytes_out_total: counter!(reg, "wire_bytes_out_total"),
            wire_frames_in_total: counter!(reg, "wire_frames_in_total"),
            wire_frames_out_total: counter!(reg, "wire_frames_out_total"),
            events_dropped_total: counter!(reg, "events_dropped_total"),
            clients_evicted_total: counter!(reg, "clients_evicted_total"),
            dispatch_fast_total: counter!(reg, "dispatch_fast_total"),
            dispatch_slow_total: counter!(reg, "dispatch_slow_total"),
            shard_lock_wait_us: histogram!(reg, "shard_lock_wait_us"),
            shard_lock_hold_us: histogram!(reg, "shard_lock_hold_us"),
            conn_plane_workers: gauge!(reg, "conn_plane_workers"),
            conn_plane_connections: gauge!(reg, "conn_plane_connections"),
            conn_worker_max_connections: gauge!(reg, "conn_worker_max_connections"),
            conn_plane_busy_permille: gauge!(reg, "conn_plane_busy_permille"),
            conn_plane_unplaced_total: counter!(reg, "conn_plane_unplaced_total"),
            conn_worker_loop_us: histogram!(reg, "conn_worker_loop_us"),
            speaker_underrun_frames_total: counter!(reg, "speaker_underrun_frames_total"),
            store_bytes_shared: gauge!(reg, "store_bytes_shared"),
            store_payloads: gauge!(reg, "store_payloads"),
            store_dedupe_hits_total: counter!(reg, "store_dedupe_hits_total"),
            transcode_cache_hits_total: counter!(reg, "transcode_cache_hits_total"),
            transcode_cache_misses_total: counter!(reg, "transcode_cache_misses_total"),
            transcode_cache_evictions_total: counter!(reg, "transcode_cache_evictions_total"),
            transcode_us_saved_total: counter!(reg, "transcode_us_saved_total"),
            sounds_rejected_oversize_total: counter!(reg, "sounds_rejected_oversize_total"),
            dsp_convert_ns: histogram!(reg, "dsp_convert_ns"),
            dsp_mix_ns: histogram!(reg, "dsp_mix_ns"),
            dsp_resample_ns: histogram!(reg, "dsp_resample_ns"),
            trace_completed_total: counter!(reg, "trace_completed_total"),
            trace_dropped_total: counter!(reg, "trace_dropped_total"),
            trace_total_us: histogram!(reg, "trace_total_us"),
            trace_stage_ingress_us: histogram!(reg, "trace_stage_ingress_us"),
            trace_stage_dispatch_us: histogram!(reg, "trace_stage_dispatch_us"),
            trace_stage_engine_us: histogram!(reg, "trace_stage_engine_us"),
            trace_stage_outbound_us: histogram!(reg, "trace_stage_outbound_us"),
            trace_stage_drain_us: histogram!(reg, "trace_stage_drain_us"),
        }
    }
}

/// Telemetry state owned by one [`Core`].
pub struct ServerTelemetry {
    /// The registry backing [`ServerTelemetry::metrics`].
    pub registry: Arc<Registry>,
    /// Pre-registered metric handles.
    pub metrics: ServerMetrics,
    /// The structured event journal (Info filter by default).
    pub journal: Arc<Journal>,
    /// The causal-tracing flight recorder (DESIGN.md §15). Shared with
    /// the connection-plane workers, which stamp ingress and drain
    /// stages without holding the core lock.
    pub recorder: Arc<FlightRecorder>,
    /// Per-opcode dispatch counts, indexed by request opcode. Atomic:
    /// the sharded fast path counts under the core *read* lock, where
    /// many dispatchers run at once.
    pub per_opcode: Vec<std::sync::atomic::AtomicU64>,
}

impl ServerTelemetry {
    /// Records one dispatch of `op` (relaxed; loads happen behind the
    /// write lock in [`server_stats_reply`]).
    pub fn count_opcode(&self, op: usize) {
        if let Some(slot) = self.per_opcode.get(op) {
            slot.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::new(&registry);
        let recorder = Arc::new(FlightRecorder::new(&metrics));
        ServerTelemetry {
            registry,
            metrics,
            journal: Arc::new(Journal::new(1024)),
            recorder,
            per_opcode: (0..Request::COUNT).map(|_| std::sync::atomic::AtomicU64::new(0)).collect(),
        }
    }
}

impl std::fmt::Debug for ServerTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTelemetry")
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

/// Refreshes registry metrics that mirror state tracked elsewhere:
/// queue counters (plain fields behind the core lock), queue depth,
/// active roots, and hardware lifetime stats.
pub fn refresh_mirrors(core: &mut Core) {
    let mut transitions = 0u64;
    let mut enqueued = 0u64;
    let mut depth = 0i64;
    for l in core.louds.values() {
        if let Some(q) = &l.queue {
            transitions += q.transitions;
            enqueued += q.enqueued_entries;
            depth += q.pending_len() as i64;
        }
    }
    let m = &core.tel.metrics;
    m.queue_transitions_total.mirror(transitions);
    m.queue_entries_enqueued_total.mirror(enqueued);
    m.queue_depth.set(depth);
    m.active_roots.set(core.plane.plans.active_roots.len() as i64);
    m.speaker_underrun_frames_total.mirror(core.hw.total_speaker_underruns());
    core.store.refresh_gauges();
}

/// Builds the `QueryServerStats` reply from the live core.
pub fn server_stats_reply(core: &mut Core) -> Reply {
    refresh_mirrors(core);
    let snap = core.tel.registry.snapshot();
    Reply::ServerStats {
        stats: ServerStatsData {
            captured_at_tick: core.tick_index,
            device_time: core.device_time,
            per_opcode: core
                .tel
                .per_opcode
                .iter()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .collect(),
            counters: snap
                .counters
                .into_iter()
                .map(|(name, value)| CounterSample { name, value })
                .collect(),
            gauges: snap
                .gauges
                .into_iter()
                .map(|(name, value)| GaugeSample { name, value })
                .collect(),
            histograms: snap
                .histograms
                .into_iter()
                .map(|(name, h)| HistogramSample {
                    name,
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets.to_vec(),
                })
                .collect(),
        },
    }
}

// ---- causal tracing: the flight recorder (DESIGN.md §15) -----------------

/// Most partial (in-flight) traces retained at once; beyond this the
/// oldest partial is evicted and counted in `trace_dropped_total`.
const PARTIAL_CAP: usize = 1024;
/// Completed traces retained in the ring; older completions rotate out
/// (rotation is normal operation, not a drop).
const RING_CAP: usize = 256;
/// Default ring-admission sampling: one completed trace in N.
const DEFAULT_SAMPLE_EVERY: u32 = 16;
/// Requests slower than this end-to-end always enter the ring,
/// regardless of sampling.
const DEFAULT_THRESHOLD_US: u64 = 5_000;

/// One in-flight trace, keyed by `(client, seq)`.
struct Partial {
    opcode: u8,
    fast_path: bool,
    shard_wait_us: u64,
    engine_tick: u64,
    /// Set once a queue watch is registered: completion then waits for
    /// the correlated `CommandDone` drain, not the dispatch end.
    watch_root: Option<u32>,
    /// Dispatch start (not a wire stage; feeds `trace_stage_ingress_us`).
    dispatch_begin_us: Option<u64>,
    /// Wire-stage stamps, indexed by [`TraceStage`] discriminant.
    stages: [Option<u64>; TraceStage::COUNT],
}

impl Partial {
    fn new(opcode: u8) -> Partial {
        Partial {
            opcode,
            fast_path: false,
            shard_wait_us: 0,
            engine_tick: 0,
            watch_root: None,
            dispatch_begin_us: None,
            stages: [None; TraceStage::COUNT],
        }
    }
}

/// A pending correlation from a queue root to the request that enqueued
/// onto it: queue nodes with `index >= first_index` (up to the next
/// watch's cursor) belong to request `(client, seq)`.
struct Watch {
    first_index: u32,
    client: u32,
    seq: u32,
}

struct RecorderInner {
    partials: HashMap<(u32, u32), Partial>,
    /// FIFO of partial keys for cap eviction; stale keys are skipped.
    order: VecDeque<(u32, u32)>,
    /// Queue watches by root LOUD id.
    watches: HashMap<u32, Vec<Watch>>,
    ring: VecDeque<TraceData>,
    sample_counter: u64,
}

/// The per-core flight recorder: assembles per-request stage stamps
/// into completed traces (DESIGN.md §15).
///
/// Stamps arrive from three concurrency domains — connection-plane
/// workers (ingress, drain), dispatchers under the core read or write
/// lock (dispatch, outbound), and the engine tick (engine, outbound) —
/// so the state sits behind its own leaf mutex with O(1) critical
/// sections. No recorder method ever takes the core lock or a stripe.
///
/// Every stamp is a no-op unless `ingress` created the partial first,
/// which keeps direct-dispatch harnesses (model check, fuzz, unit
/// rigs) out of the recorder entirely.
pub struct FlightRecorder {
    epoch: std::time::Instant,
    /// Kill switch: when false, `ingress` creates no partials, which
    /// makes every downstream stamp a no-op (overhead measurements).
    enabled: std::sync::atomic::AtomicBool,
    /// Ring-admission sampling period (1 = every completion).
    sample_every: std::sync::atomic::AtomicU32,
    /// Always-capture latency threshold, µs.
    threshold_us: std::sync::atomic::AtomicU64,
    /// Fast guard for the engine-side hooks: number of live watches.
    watch_count: std::sync::atomic::AtomicUsize,
    completed_total: Counter,
    dropped_total: Counter,
    total_us: Histogram,
    stage_ingress_us: Histogram,
    stage_dispatch_us: Histogram,
    stage_engine_us: Histogram,
    stage_outbound_us: Histogram,
    stage_drain_us: Histogram,
    inner: parking_lot::Mutex<RecorderInner>,
}

impl FlightRecorder {
    /// Builds a recorder recording per-stage figures into `metrics`.
    pub fn new(metrics: &ServerMetrics) -> FlightRecorder {
        FlightRecorder {
            epoch: std::time::Instant::now(),
            enabled: std::sync::atomic::AtomicBool::new(true),
            sample_every: std::sync::atomic::AtomicU32::new(DEFAULT_SAMPLE_EVERY),
            threshold_us: std::sync::atomic::AtomicU64::new(DEFAULT_THRESHOLD_US),
            watch_count: std::sync::atomic::AtomicUsize::new(0),
            completed_total: metrics.trace_completed_total.clone(),
            dropped_total: metrics.trace_dropped_total.clone(),
            total_us: metrics.trace_total_us.clone(),
            stage_ingress_us: metrics.trace_stage_ingress_us.clone(),
            stage_dispatch_us: metrics.trace_stage_dispatch_us.clone(),
            stage_engine_us: metrics.trace_stage_engine_us.clone(),
            stage_outbound_us: metrics.trace_stage_outbound_us.clone(),
            stage_drain_us: metrics.trace_stage_drain_us.clone(),
            inner: parking_lot::Mutex::new(RecorderInner {
                partials: HashMap::new(),
                order: VecDeque::new(),
                watches: HashMap::new(),
                ring: VecDeque::new(),
                sample_counter: 0,
            }),
        }
    }

    /// Microseconds since this recorder's epoch.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Reconfigures ring-admission sampling (tests and capacity runs).
    pub fn set_sampling(&self, every: u32, threshold_us: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.sample_every.store(every.max(1), Relaxed);
        self.threshold_us.store(threshold_us, Relaxed);
    }

    /// Turns tracing off (or back on) entirely; disabled, a request
    /// costs one relaxed load at ingress and nothing anywhere else.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Stage 0: a request frame finished reassembly and decoded.
    /// Creates the partial; every later stamp is a no-op without it.
    pub fn ingress(&self, client: u32, seq: u32, opcode: u8) {
        if !self.enabled.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        let at = self.now_us();
        let mut inner = self.inner.lock();
        if inner.partials.len() >= PARTIAL_CAP {
            self.evict_oldest(&mut inner);
        }
        let mut p = Partial::new(opcode);
        p.stages[TraceStage::Ingress as usize] = Some(at);
        if inner.partials.insert((client, seq), p).is_some() {
            // A reused (client, seq) key abandons the older partial.
            self.dropped_total.inc();
        } else {
            inner.order.push_back((client, seq));
        }
    }

    /// Dispatch is about to execute (fast or slow path). May run twice
    /// for one request when the fast path punts; the later stamp wins.
    pub fn dispatch_begin(&self, client: u32, seq: u32) {
        let at = self.now_us();
        let mut inner = self.inner.lock();
        if let Some(p) = inner.partials.get_mut(&(client, seq)) {
            p.dispatch_begin_us = Some(at);
        }
    }

    /// Stage 1: dispatch finished executing. `completes` closes the
    /// trace here — used for fire-and-forget requests that queue no
    /// work and send no reply or error.
    pub fn dispatch_done(
        &self,
        client: u32,
        seq: u32,
        fast_path: bool,
        shard_wait_us: u64,
        completes: bool,
    ) {
        let at = self.now_us();
        let mut inner = self.inner.lock();
        let Some(p) = inner.partials.get_mut(&(client, seq)) else { return };
        p.fast_path = fast_path;
        p.shard_wait_us = shard_wait_us;
        p.stages[TraceStage::Dispatch as usize] = Some(at);
        if completes && p.watch_root.is_none() {
            self.finalize(&mut inner, (client, seq));
        }
    }

    /// Correlates queue nodes `first_index..` on `root` with request
    /// `(client, seq)`; the trace then completes at the correlated
    /// `CommandDone` drain. No-op unless the partial exists.
    pub fn register_watch(&self, root: u32, first_index: u32, client: u32, seq: u32) {
        let mut inner = self.inner.lock(); // rt-ok: recorder mutex guards O(1) map updates, never held across I/O
        let Some(p) = inner.partials.get_mut(&(client, seq)) else { return };
        p.watch_root = Some(root);
        inner.watches.entry(root).or_default().push(Watch { first_index, client, seq });
        self.watch_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Stage 2: the engine started a queue node. Stamps the owning
    /// request's trace on the first node it services.
    pub fn engine_stage(&self, root: u32, index: u32, tick: u64) {
        if self.watch_count.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            return;
        }
        let at = self.now_us();
        let mut inner = self.inner.lock(); // rt-ok: recorder mutex guards O(1) map updates, never held across I/O
        let Some(key) = resolve_watch(&inner.watches, root, index) else { return };
        if let Some(p) = inner.partials.get_mut(&key) {
            let slot = &mut p.stages[TraceStage::Engine as usize];
            if slot.is_none() {
                *slot = Some(at);
                p.engine_tick = tick;
            }
        }
    }

    /// Stage 3 for queued work: the correlated `CommandDone` event is
    /// about to be enqueued to clients.
    pub fn event_outbound(&self, root: u32, index: u32) {
        if self.watch_count.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            return;
        }
        let at = self.now_us();
        let mut inner = self.inner.lock(); // rt-ok: recorder mutex guards O(1) map updates, never held across I/O
        let Some(key) = resolve_watch(&inner.watches, root, index) else { return };
        if let Some(p) = inner.partials.get_mut(&key) {
            let slot = &mut p.stages[TraceStage::Outbound as usize];
            if slot.is_none() {
                *slot = Some(at);
            }
        }
    }

    /// Stage 3 for replies and errors: the message is about to be
    /// enqueued on the client's channel.
    pub fn reply_outbound(&self, client: u32, seq: u32) {
        let at = self.now_us();
        let mut inner = self.inner.lock();
        if let Some(p) = inner.partials.get_mut(&(client, seq)) {
            let slot = &mut p.stages[TraceStage::Outbound as usize];
            if slot.is_none() {
                *slot = Some(at);
            }
        }
    }

    /// Stage 4 for replies and errors: the frame was encoded into the
    /// connection's write buffer. Completes the trace.
    pub fn drain_reply(&self, client: u32, seq: u32) {
        let at = self.now_us();
        let mut inner = self.inner.lock(); // rt-ok: recorder mutex guards O(1) map updates, never held across I/O
        let Some(p) = inner.partials.get_mut(&(client, seq)) else { return };
        p.stages[TraceStage::Drain as usize] = Some(at);
        self.finalize(&mut inner, (client, seq));
    }

    /// Stage 4 for queued work: a `CommandDone` frame was encoded into
    /// the *originating* client's write buffer. Completes the trace and
    /// retires the watch.
    pub fn drain_event(&self, root: u32, index: u32, conn_client: u32) {
        if self.watch_count.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            return;
        }
        let at = self.now_us();
        let mut inner = self.inner.lock(); // rt-ok: recorder mutex guards O(1) map updates, never held across I/O
        let Some(key) = resolve_watch(&inner.watches, root, index) else { return };
        if key.0 != conn_client {
            // Another subscriber drained the event first; the trace
            // waits for the originator's copy.
            return;
        }
        if let Some(p) = inner.partials.get_mut(&key) {
            // The event may have outrun the engine-side outbound stamp;
            // backfill so stage order stays total.
            let outbound = &mut p.stages[TraceStage::Outbound as usize];
            if outbound.is_none() {
                *outbound = Some(at);
            }
            p.stages[TraceStage::Drain as usize] = Some(at);
        }
        self.finalize(&mut inner, key);
    }

    /// Drops every partial and watch owned by a departing client.
    pub fn purge_client(&self, client: u32) {
        let mut inner = self.inner.lock();
        let keys: Vec<(u32, u32)> = inner
            .partials
            .keys()
            .filter(|(c, _)| *c == client)
            .copied()
            .collect();
        for key in keys {
            self.drop_partial(&mut inner, key);
        }
    }

    /// Drops watches (and their unfinished partials) on a root that is
    /// being destroyed: the queue dies, so no `CommandDone` will ever
    /// resolve them.
    pub fn purge_root(&self, root: u32) {
        if self.watch_count.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let keys: Vec<(u32, u32)> = inner
            .watches
            .get(&root)
            .map(|ws| ws.iter().map(|w| (w.client, w.seq)).collect())
            .unwrap_or_default();
        for key in keys {
            self.drop_partial(&mut inner, key);
        }
    }

    /// The `max` slowest retained traces, slowest first (ties newest
    /// first).
    pub fn snapshot(&self, max: u32) -> Vec<TraceData> {
        let inner = self.inner.lock();
        let mut traces: Vec<TraceData> = inner.ring.iter().rev().cloned().collect();
        drop(inner);
        traces.sort_by_key(|t| std::cmp::Reverse(t.total_us()));
        traces.truncate(max as usize);
        traces
    }

    /// Live partial-trace count (test observability).
    pub fn partial_count(&self) -> usize {
        self.inner.lock().partials.len()
    }

    /// Retained completed-trace count (test observability).
    pub fn ring_len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Live watch count (test observability).
    pub fn watch_len(&self) -> usize {
        self.watch_count.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn evict_oldest(&self, inner: &mut RecorderInner) {
        while let Some(key) = inner.order.pop_front() {
            if inner.partials.contains_key(&key) {
                self.drop_partial(inner, key);
                return;
            }
        }
    }

    /// Discards a partial without completing it.
    fn drop_partial(&self, inner: &mut RecorderInner, key: (u32, u32)) {
        let Some(p) = inner.partials.remove(&key) else { return };
        self.remove_watch(inner, &p, key);
        self.dropped_total.inc();
    }

    fn remove_watch(&self, inner: &mut RecorderInner, p: &Partial, key: (u32, u32)) {
        let Some(root) = p.watch_root else { return };
        if let Some(ws) = inner.watches.get_mut(&root) {
            let before = ws.len();
            ws.retain(|w| (w.client, w.seq) != key);
            let removed = before - ws.len();
            if ws.is_empty() {
                inner.watches.remove(&root);
            }
            if removed > 0 {
                self.watch_count.fetch_sub(removed, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Completes a trace: records per-stage histograms and, subject to
    /// sampling, admits it to the ring.
    fn finalize(&self, inner: &mut RecorderInner, key: (u32, u32)) {
        use std::sync::atomic::Ordering::Relaxed;
        let Some(p) = inner.partials.remove(&key) else { return };
        self.remove_watch(inner, &p, key);
        let stamped: Vec<(TraceStage, u64)> = (0..TraceStage::COUNT)
            .filter_map(|i| {
                let stage = TraceStage::from_u8(i as u8)?; // cast-ok: stage discriminant, < COUNT
                p.stages[i].map(|at| (stage, at))
            })
            .collect();
        let Some(&(_, first)) = stamped.first() else { return };
        let Some(&(_, last)) = stamped.last() else { return };
        let total = last.saturating_sub(first);
        self.completed_total.inc();
        self.total_us.record(total);
        let ingress = p.stages[TraceStage::Ingress as usize];
        let dispatch = p.stages[TraceStage::Dispatch as usize];
        if let (Some(i), Some(b)) = (ingress, p.dispatch_begin_us) {
            self.stage_ingress_us.record(b.saturating_sub(i));
        }
        if let (Some(b), Some(d)) = (p.dispatch_begin_us, dispatch) {
            self.stage_dispatch_us.record(d.saturating_sub(b));
        }
        let mut prev = dispatch.or(ingress);
        for (stage, at) in stamped.iter().copied() {
            match stage {
                TraceStage::Ingress | TraceStage::Dispatch => {}
                TraceStage::Engine => {
                    if let Some(pv) = prev {
                        self.stage_engine_us.record(at.saturating_sub(pv));
                    }
                    prev = Some(at);
                }
                TraceStage::Outbound => {
                    if let Some(pv) = prev {
                        self.stage_outbound_us.record(at.saturating_sub(pv));
                    }
                    prev = Some(at);
                }
                TraceStage::Drain => {
                    if let Some(pv) = prev {
                        self.stage_drain_us.record(at.saturating_sub(pv));
                    }
                    prev = Some(at);
                }
            }
        }
        inner.sample_counter += 1;
        let every = self.sample_every.load(Relaxed).max(1) as u64;
        let admit = inner.sample_counter.is_multiple_of(every)
            || total >= self.threshold_us.load(Relaxed);
        if !admit {
            return;
        }
        let trace = TraceData {
            client: da_proto::ids::ClientId(key.0),
            seq: key.1,
            opcode: p.opcode,
            fast_path: p.fast_path,
            shard_wait_us: p.shard_wait_us,
            engine_tick: p.engine_tick,
            stages: stamped
                .into_iter()
                .map(|(stage, at_us)| TraceStageSample { stage, at_us })
                .collect(),
        };
        if inner.ring.len() >= RING_CAP {
            inner.ring.pop_front();
        }
        inner.ring.push_back(trace);
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").finish_non_exhaustive()
    }
}

/// The watch owning queue node `index` on `root`: the one with the
/// greatest `first_index <= index`.
fn resolve_watch(
    watches: &HashMap<u32, Vec<Watch>>,
    root: u32,
    index: u32,
) -> Option<(u32, u32)> {
    watches
        .get(&root)?
        .iter()
        .filter(|w| w.first_index <= index)
        .max_by_key(|w| w.first_index)
        .map(|w| (w.client, w.seq))
}

/// Builds the `QueryTraces` reply from the flight recorder.
pub fn traces_reply(core: &Core, max: u32) -> Reply {
    Reply::Traces { traces: core.tel.recorder.snapshot(max) }
}

/// Builds the `ListClients` reply from the live core.
pub fn client_list_reply(core: &Core) -> Reply {
    let mut ids: Vec<u32> = core.clients.keys().copied().collect();
    ids.sort_unstable();
    let clients = ids
        .iter()
        .filter_map(|id| core.clients.get(id))
        .map(|cs| {
            let c = &cs.counters;
            ClientStatsData {
                client: cs.id,
                name: cs.name.clone(),
                requests: ConnCounters::load(&c.requests),
                replies: ConnCounters::load(&c.replies),
                events: ConnCounters::load(&c.events),
                errors: ConnCounters::load(&c.errors),
                bytes_in: ConnCounters::load(&c.bytes_in),
                bytes_out: ConnCounters::load(&c.bytes_out),
                louds: core.louds.values().filter(|l| l.owner == cs.id).count() as u32,
                vdevs: core.vdevs.values().filter(|v| v.owner == cs.id).count() as u32,
                wires: core.wires.values().filter(|w| w.owner == cs.id).count() as u32,
                sounds: core.sounds.values().filter(|s| s.owner == cs.id).count() as u32,
            }
        })
        .collect();
    Reply::ClientList { clients }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> FlightRecorder {
        let tel = ServerTelemetry::default();
        let r = FlightRecorder::new(&tel.metrics);
        r.set_sampling(1, u64::MAX); // record every completion, no threshold
        r
    }

    /// Full reply-path lifecycle for `(client, seq)`.
    fn drive_reply(r: &FlightRecorder, client: u32, seq: u32) {
        r.ingress(client, seq, 12);
        r.dispatch_begin(client, seq);
        r.dispatch_done(client, seq, true, 2, false);
        r.reply_outbound(client, seq);
        r.drain_reply(client, seq);
    }

    /// Full queued-work lifecycle: Enqueue with a watch on `root`.
    fn drive_queued(r: &FlightRecorder, client: u32, seq: u32, root: u32, index: u32) {
        r.ingress(client, seq, 12);
        r.dispatch_begin(client, seq);
        r.register_watch(root, index, client, seq);
        r.dispatch_done(client, seq, true, 0, false);
        r.engine_stage(root, index, 7);
        r.event_outbound(root, index);
        r.drain_event(root, index, client);
    }

    #[test]
    fn stage_stamps_are_monotone_and_gaps_sum_to_total() {
        let r = recorder();
        drive_reply(&r, 1, 1);
        drive_queued(&r, 1, 2, 40, 0);
        let traces = r.snapshot(8);
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(t.stages.len() >= 2, "trace has too few stages: {t:?}");
            let mut gap_sum = 0u64;
            for pair in t.stages.windows(2) {
                assert!(
                    pair[1].at_us >= pair[0].at_us,
                    "stamps out of order: {:?}",
                    t.stages
                );
                gap_sum += pair[1].at_us - pair[0].at_us;
            }
            assert_eq!(gap_sum, t.total_us(), "gaps must sum to the total");
        }
    }

    #[test]
    fn queued_trace_records_all_five_stages() {
        let r = recorder();
        drive_queued(&r, 3, 9, 17, 5);
        let traces = r.snapshot(1);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.stages.len(), TraceStage::COUNT);
        for (i, sample) in t.stages.iter().enumerate() {
            assert_eq!(sample.stage as usize, i);
        }
        assert_eq!(t.engine_tick, 7);
        assert!(t.fast_path);
        assert_eq!(r.partial_count(), 0);
        assert_eq!(r.watch_len(), 0);
    }

    #[test]
    fn ring_never_exceeds_bound_under_churn() {
        let r = recorder();
        for seq in 0..(RING_CAP as u32 * 4) {
            drive_reply(&r, 1, seq);
            assert!(r.ring_len() <= RING_CAP);
        }
        assert_eq!(r.ring_len(), RING_CAP);
        assert_eq!(r.partial_count(), 0);
        // Ring rotation is not a drop.
        assert_eq!(r.dropped_total.get(), 0);
    }

    #[test]
    fn partial_cap_evicts_oldest_in_flight_trace() {
        let r = recorder();
        for seq in 0..(PARTIAL_CAP as u32 + 16) {
            r.ingress(2, seq, 5);
        }
        assert_eq!(r.partial_count(), PARTIAL_CAP);
        assert_eq!(r.dropped_total.get(), 16);
        // The oldest 16 were evicted: their later stamps are no-ops.
        r.drain_reply(2, 0);
        assert_eq!(r.ring_len(), 0);
        // The newest survived and can still complete.
        r.drain_reply(2, PARTIAL_CAP as u32 + 15);
        assert_eq!(r.ring_len(), 1);
    }

    #[test]
    fn purge_client_leaves_no_orphan_partials_or_watches() {
        let r = recorder();
        r.ingress(1, 1, 12);
        r.register_watch(30, 0, 1, 1);
        r.ingress(1, 2, 5);
        r.ingress(2, 1, 12);
        r.register_watch(31, 0, 2, 1);
        r.purge_client(1);
        assert_eq!(r.partial_count(), 1);
        assert_eq!(r.watch_len(), 1);
        assert_eq!(r.dropped_total.get(), 2);
        // Client 2's queued trace still resolves end to end.
        r.engine_stage(31, 0, 1);
        r.event_outbound(31, 0);
        r.drain_event(31, 0, 2);
        assert_eq!(r.partial_count(), 0);
        assert_eq!(r.watch_len(), 0);
        assert_eq!(r.ring_len(), 1);
    }

    #[test]
    fn purge_root_drops_unresolvable_watched_traces() {
        let r = recorder();
        r.ingress(1, 1, 12);
        r.register_watch(9, 0, 1, 1);
        r.purge_root(9);
        assert_eq!(r.partial_count(), 0);
        assert_eq!(r.watch_len(), 0);
        assert_eq!(r.dropped_total.get(), 1);
    }

    #[test]
    fn sampling_admits_one_in_n_plus_threshold_hits() {
        let r = recorder();
        r.set_sampling(4, u64::MAX);
        for seq in 0..8 {
            drive_reply(&r, 1, seq);
        }
        assert_eq!(r.ring_len(), 2);
        assert_eq!(r.completed_total.get(), 8);
        // Threshold 0 admits everything regardless of the period.
        r.set_sampling(1_000_000, 0);
        drive_reply(&r, 1, 100);
        assert_eq!(r.ring_len(), 3);
    }

    #[test]
    fn snapshot_orders_slowest_first() {
        let r = recorder();
        drive_reply(&r, 1, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        // A slower request: stretch the drain stage.
        r.ingress(1, 2, 12);
        r.dispatch_begin(1, 2);
        r.dispatch_done(1, 2, false, 0, false);
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.reply_outbound(1, 2);
        r.drain_reply(1, 2);
        let traces = r.snapshot(8);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].seq, 2);
        assert!(traces[0].total_us() >= traces[1].total_us());
        assert!(!traces[0].fast_path);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = recorder();
        r.set_enabled(false);
        drive_reply(&r, 1, 1);
        assert_eq!(r.partial_count(), 0);
        assert_eq!(r.ring_len(), 0);
        assert_eq!(r.completed_total.get(), 0);
        r.set_enabled(true);
        drive_reply(&r, 1, 2);
        assert_eq!(r.ring_len(), 1);
    }

    #[test]
    fn stamps_without_ingress_are_no_ops() {
        let r = recorder();
        r.dispatch_begin(5, 1);
        r.dispatch_done(5, 1, true, 0, true);
        r.reply_outbound(5, 1);
        r.drain_reply(5, 1);
        r.register_watch(3, 0, 5, 1);
        assert_eq!(r.partial_count(), 0);
        assert_eq!(r.ring_len(), 0);
        assert_eq!(r.watch_len(), 0);
        assert_eq!(r.completed_total.get(), 0);
    }
}
