//! Fault-injected client churn against a live in-process server
//! (`cargo run -p xtask -- soak`).
//!
//! Many short Alib client sessions run a small scripted workload over a
//! [`FaultyDuplex`] transport — short reads, torn frames, byte
//! corruption, delayed writes, and hard mid-stream disconnects, all
//! from per-session seeded plans. The server must ride it out: after
//! every wave of sessions the soak asserts the full validate catalog
//! (V1–V15) over the live core, that a fault-free control connection
//! still gets answers, and that the engine keeps ticking. At the end,
//! every client must be gone from the core (no leaked LOUDs, queues,
//! sounds or selections; DESIGN.md §12).
//!
//! Sessions are deterministic individually (each one's fault schedule
//! comes from `seed` and its index); thread interleaving across a wave
//! is not, which is the point — the checker explores interleavings the
//! bounded model checker's single thread cannot.

use da_alib::{AlibError, Connection};
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::event::EventMask;
use da_proto::fault::{FaultKind, FaultPlan, FaultStats, FaultyDuplex};
use da_proto::ids::ResourceId;
use da_proto::types::{DeviceClass, Encoding, SoundType, WireType};
use da_server::core::ServerConfig;
use da_server::server::AudioServer;
use da_server::validate;
use std::sync::Arc;
use std::time::Duration;

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; session `i` injects faults from plan `seed ⊕ i`.
    pub seed: u64,
    /// Client sessions to run.
    pub sessions: usize,
    /// Sessions running concurrently per wave.
    pub concurrency: usize,
    /// Connection-plane I/O workers for the server under soak.
    pub workers: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig { seed: 0, sessions: 120, concurrency: 8, workers: 4 }
    }
}

/// What the soak observed.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Sessions attempted.
    pub sessions: usize,
    /// Sessions whose whole workload succeeded despite injected faults.
    pub completed_ok: usize,
    /// Sessions cut short by an injected fault (expected, by design).
    pub died_early: usize,
    /// Total injections per fault kind, in [`FaultKind::ALL`] order.
    pub fault_counts: [u64; 5],
    /// Events the server dropped on full client channels.
    pub events_dropped: u64,
    /// Clients the server evicted as slow.
    pub clients_evicted: u64,
    /// Engine ticks observed across the run (liveness witness).
    pub engine_ticks: u64,
    /// Anything that should have held and did not: validate violations,
    /// a stalled engine, a leaked client, an unresponsive server.
    pub violations: Vec<String>,
    /// Whether the server was built with the `ShardedMap` borrow
    /// sanitizer compiled in (debug builds). CI's debug soak step
    /// requires this, so the aliasing protocol is watched at runtime
    /// while the faults churn.
    pub sanitizer_active: bool,
}

impl SoakReport {
    /// Distinct fault kinds injected at least once.
    pub fn kinds_seen(&self) -> usize {
        self.fault_counts.iter().filter(|&&c| c > 0).count()
    }

    /// Total fault injections.
    pub fn total_faults(&self) -> u64 {
        self.fault_counts.iter().sum()
    }

    /// Whether the run satisfied every property it checks.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the soak: `sessions` fault-injected clients against one live
/// server, checked wave by wave.
pub fn soak(cfg: &SoakConfig) -> SoakReport {
    let mut report = SoakReport {
        sessions: cfg.sessions,
        sanitizer_active: da_server::shard::sanitizer_active(),
        ..Default::default()
    };
    let server = match AudioServer::start(ServerConfig {
        io_workers: cfg.workers.max(1),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("server failed to start: {e}"));
            return report;
        }
    };
    let control = server.control();
    let ticks_at_start = control.stats().ticks;

    let concurrency = cfg.concurrency.max(1);
    let mut session = 0usize;
    while session < cfg.sessions {
        let wave = concurrency.min(cfg.sessions - session);
        let mut joins = Vec::with_capacity(wave);
        let mut wave_stats: Vec<Arc<FaultStats>> = Vec::with_capacity(wave);
        for i in session..session + wave {
            let plan = FaultPlan::new(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let (duplex, stats) = FaultyDuplex::wrap(server.connect_pipe(), &plan);
            wave_stats.push(stats);
            joins.push(std::thread::spawn(move || run_session(duplex, i)));
        }
        for j in joins {
            match j.join() {
                Ok(true) => report.completed_ok += 1,
                Ok(false) => report.died_early += 1,
                Err(_) => report.violations.push("session thread panicked".into()),
            }
        }
        for stats in wave_stats {
            for kind in FaultKind::ALL {
                report.fault_counts[kind_slot(kind)] += stats.count(kind);
            }
        }
        session += wave;

        // Every wave's sessions have dropped their connections; their
        // reader threads notice within one poll interval. Wait for the
        // core to empty, then run the whole invariant catalog on it.
        if !control.run_until(Duration::from_secs(5), |c| c.clients.is_empty()) {
            let leaked = control.with_core(|c| c.clients.len());
            report.violations.push(format!(
                "{leaked} client(s) still registered after wave ending at session {session}"
            ));
        }
        let breaches = control.with_core(|c| validate::check_all(c));
        for b in breaches {
            report.violations.push(format!("after session {session}: {b}"));
        }
        // A fault-free control connection must still get answers: the
        // server survived the faults, not just outlived them.
        let mut probe = match Connection::establish(server.connect_pipe(), "soak-probe") {
            Ok(c) => c,
            Err(e) => {
                report.violations.push(format!("probe could not connect: {e}"));
                break;
            }
        };
        probe.timeout = Duration::from_secs(5);
        if let Err(e) = probe.sync() {
            report.violations.push(format!("probe sync failed after session {session}: {e}"));
            break;
        }
    }

    let ticks_at_end = control.stats().ticks;
    report.engine_ticks = ticks_at_end.saturating_sub(ticks_at_start);
    if cfg.sessions > 0 && report.engine_ticks == 0 {
        report.violations.push("engine made no progress across the soak".into());
    }
    let (dropped, evicted) = control.with_core(|c| {
        let snap = c.tel.registry.snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
        };
        (get("events_dropped_total"), get("clients_evicted_total"))
    });
    report.events_dropped = dropped;
    report.clients_evicted = evicted;
    server.shutdown();
    report
}

fn kind_slot(kind: FaultKind) -> usize {
    FaultKind::ALL.iter().position(|&k| k == kind).unwrap_or(0)
}

/// One scripted client session over a faulty transport. Returns whether
/// the whole workload survived. Injected faults legitimately abort it
/// anywhere — what they must never do is corrupt the server.
fn run_session(duplex: da_proto::transport::Duplex, index: usize) -> bool {
    let mut conn = match Connection::establish(duplex, &format!("soak-{index}")) {
        Ok(c) => c,
        Err(_) => return false,
    };
    // Tight deadline: a torn or lost reply should fail the session in
    // milliseconds, not stall the whole wave.
    conn.timeout = Duration::from_millis(250);
    let outcome = session_workload(&mut conn, index);
    // A third of the sessions vanish abruptly — queue running, events
    // selected, no teardown requests — exercising disconnect cleanup.
    // The others drop here too; the difference is how much server
    // state is live when the connection dies.
    outcome.is_ok()
}

fn session_workload(conn: &mut Connection, index: usize) -> Result<(), AlibError> {
    let loud = conn.create_loud(None)?;
    let player = conn.create_vdevice(loud, DeviceClass::Player, Vec::new())?;
    let out = conn.create_vdevice(loud, DeviceClass::Output, Vec::new())?;
    conn.create_wire(player, 0, out, 0, WireType::Any)?;
    conn.select_events(ResourceId::Loud(loud), EventMask::all())?;
    let stype = SoundType { encoding: Encoding::ULaw, sample_rate: 8000, channels: 1 };
    let sound = conn.upload_sound(stype, &[0x7Fu8; 800])?;
    conn.map_loud(loud)?;
    conn.enqueue(
        loud,
        vec![QueueEntry::Device { vdev: player, cmd: DeviceCommand::Play(sound) }],
    )?;
    conn.start_queue(loud)?;
    if index.is_multiple_of(3) {
        // Abrupt departure: maximum live state, zero teardown.
        return Ok(());
    }
    let atom = conn.intern_atom("SOAK")?;
    conn.change_property(ResourceId::Sound(sound), atom, atom, b"soak".to_vec())?;
    conn.sync()?;
    conn.stop_queue(loud)?;
    conn.destroy_loud(loud)?;
    conn.sync()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small soak must come back clean and must have injected at
    /// least one fault (the rates are low but 20 sessions give
    /// hundreds of opportunities).
    #[test]
    fn small_soak_is_clean() {
        let report = soak(&SoakConfig { seed: 7, sessions: 20, concurrency: 4, workers: 2 });
        assert!(report.clean(), "soak violations: {:?}", report.violations);
        assert_eq!(report.completed_ok + report.died_early, 20);
        assert!(report.total_faults() > 0, "no faults injected");
        assert!(report.engine_ticks > 0);
        // The test profile carries debug_assertions, so this soak ran
        // with the shard borrow sanitizer watching every access.
        assert_eq!(report.sanitizer_active, cfg!(debug_assertions));
    }

    /// A fault-free soak (quiet plans are not used here, but zero
    /// sessions still checks the scaffolding) reports cleanly.
    #[test]
    fn empty_soak_is_clean() {
        let report = soak(&SoakConfig { seed: 0, sessions: 0, concurrency: 4, workers: 1 });
        assert!(report.clean(), "soak violations: {:?}", report.violations);
        assert_eq!(report.sessions, 0);
    }
}
