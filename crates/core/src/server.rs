//! The audio server process: threads, connections, lifecycle.
//!
//! Mirrors the paper's thread architecture (§6.1) in spirit: a
//! **connection manager** accepts clients at a well-known port; a small
//! **connection plane** of event-loop I/O workers owns every client
//! connection (frame reassembly, dispatch, outbound draining — see
//! DESIGN.md §13), so total I/O threads are O(workers) rather than the
//! paper's two-threads-per-client; the **engine** thread steps devices
//! once per quantum. Virtual devices and data sources/sinks — separate
//! threads in the 1991 prototype — run as state machines inside the
//! engine tick, which makes the streaming guarantees deterministic.

use crate::connplane::ConnPlane;
use crate::core::{Core, ServerConfig};
use crate::engine;
use da_hw::clock::Pacer;
use da_proto::transport::{byte_pipe_pair, Duplex, TcpPoll};
use parking_lot::RwLock;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running audio server.
pub struct AudioServer {
    core: Arc<RwLock<Core>>,
    shutdown: Arc<AtomicBool>,
    engine: Option<std::thread::JoinHandle<()>>,
    listener: Option<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    plane: Option<ConnPlane>,
}

impl AudioServer {
    /// Starts a server with the given configuration.
    pub fn start(config: ServerConfig) -> std::io::Result<AudioServer> {
        let pacing = config.pacing;
        let quantum = config.quantum_us;
        let manual = config.manual_ticks;
        let io_workers = config.io_workers;
        let listen = config.tcp_addr.clone();
        // A hardware spec the activation bitsets cannot hold is refused
        // before anything starts.
        let core = Core::try_new(config)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let tcp = listen.map(|addr| TcpListener::bind(addr.as_str())).transpose()?;
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let core = Arc::new(RwLock::new(core));
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ConnPlane::start(&core, &shutdown, io_workers)?;

        // Engine thread (absent in manual-tick mode).
        let engine = if manual {
            None
        } else {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            Some(std::thread::Builder::new().name("da-engine".into()).spawn(move || {
                let mut pacer = Pacer::new(pacing, quantum);
                while !shutdown.load(Ordering::Relaxed) {
                    pacer.wait_tick();
                    {
                        let mut core = core.write();
                        engine::tick(&mut core);
                    }
                    // In virtual pacing give dispatch threads a chance at
                    // the lock.
                    std::thread::yield_now();
                }
            })?)
        };

        // Connection-manager thread ("a daemon at a well-known port that
        // detects incoming client connection requests", paper §6.1).
        // Accepted sockets are handed to the plane, not given threads.
        let listener = match tcp {
            None => None,
            Some(l) => {
                l.set_nonblocking(true)?;
                let shutdown = Arc::clone(&shutdown);
                let plane_tx = plane.injector();
                Some(std::thread::Builder::new().name("da-connmgr".into()).spawn(move || {
                    while !shutdown.load(Ordering::Relaxed) {
                        match l.accept() {
                            Ok((sock, _)) => {
                                if let Ok(poll) = TcpPoll::new(sock) {
                                    plane_tx.add(Box::new(poll));
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            Err(_) => break,
                        }
                    }
                })?)
            }
        };

        Ok(AudioServer { core, shutdown, engine, listener, tcp_addr, plane: Some(plane) })
    }

    /// The TCP address the server listens on, if TCP is enabled.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Opens an in-process connection, returning the client's duplex.
    pub fn connect_pipe(&self) -> Duplex {
        let (client_side, server_side) = byte_pipe_pair();
        if let Some(plane) = &self.plane {
            plane.add(Box::new(server_side));
        }
        client_side
    }

    /// Number of I/O worker threads in the connection plane.
    pub fn io_workers(&self) -> usize {
        self.plane.as_ref().map(|p| p.workers()).unwrap_or(0)
    }

    /// A control handle for tests, benches and embedded use.
    pub fn control(&self) -> ServerControl {
        ServerControl { core: Arc::clone(&self.core) }
    }

    /// Stops all threads and drops the server.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.core.write().shutting_down = true;
        if let Some(e) = self.engine.take() {
            let _ = e.join();
        }
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        if let Some(mut plane) = self.plane.take() {
            plane.join();
        }
    }
}

impl Drop for AudioServer {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Test/embedding control: look inside the running server.
#[derive(Clone)]
pub struct ServerControl {
    core: Arc<RwLock<Core>>,
}

impl ServerControl {
    /// Runs a closure against the locked core.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        f(&mut self.core.write())
    }

    /// Current device time (8 kHz frames since start).
    pub fn device_time(&self) -> u64 {
        self.core.read().device_time
    }

    /// Runs one request through the sharded fast path on the calling
    /// thread, bypassing the connection plane. Returns whether the fast
    /// path handled it (`false` punts to the slow path *without* running
    /// it). Lets tests measure `exec_shard` synchronously — the per-thread
    /// [`crate::rt::scope_allocs`] tally is only visible to the thread
    /// that dispatched.
    pub fn fast_dispatch(
        &self,
        client: da_proto::ids::ClientId,
        seq: u32,
        request: &da_proto::request::Request,
    ) -> bool {
        crate::fastpath::try_dispatch(&self.core, client, seq, request)
    }

    /// Engine statistics snapshot, stamped with the tick it was captured
    /// at so callers can tell two snapshots apart.
    pub fn stats(&self) -> crate::core::EngineStats {
        let core = self.core.read();
        let mut s = core.stats;
        s.captured_at_tick = core.tick_index;
        s
    }

    /// Adds a scripted remote party on a new external line; returns its
    /// index for [`ServerControl::with_party`].
    pub fn add_remote_party(&self, number: &str) -> usize {
        let mut core = self.core.write();
        let line = core.hw.add_external_line(number);
        core.remote_parties.push(da_hw::pstn::RemoteParty::new(line));
        core.remote_parties.len() - 1
    }

    /// Runs a closure against a remote party (and the PSTN).
    pub fn with_party<R>(
        &self,
        index: usize,
        f: impl FnOnce(&mut da_hw::pstn::RemoteParty, &mut da_hw::pstn::Pstn) -> R,
    ) -> R {
        let mut core = self.core.write();
        let core = &mut *core;
        f(&mut core.remote_parties[index], &mut core.hw.pstn)
    }

    /// Enables waveform capture on a speaker.
    pub fn set_speaker_capture(&self, speaker: usize, limit: usize) {
        self.core.write().hw.speakers[speaker].set_capture(limit);
    }

    /// Takes the captured waveform from a speaker.
    pub fn take_captured(&self, speaker: usize) -> Vec<i16> {
        self.core.write().hw.speakers[speaker].take_captured()
    }

    /// Speaker statistics.
    pub fn speaker_stats(&self, speaker: usize) -> da_hw::codec::SpeakerStats {
        self.core.read().hw.speakers[speaker].stats()
    }

    /// Injects audio into a microphone (as if the user spoke).
    pub fn speak_into_microphone(&self, mic: usize, samples: &[i16]) {
        self.core.write().hw.microphones[mic].inject(samples);
    }

    /// Polls `pred` against the core until it holds or `timeout` passes.
    /// Returns whether the predicate held.
    pub fn run_until(&self, timeout: Duration, mut pred: impl FnMut(&mut Core) -> bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            {
                let mut core = self.core.write();
                if pred(&mut core) {
                    return true;
                }
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    }

    /// Waits until device time reaches `frames` (8 kHz).
    pub fn wait_device_time(&self, frames: u64, timeout: Duration) -> bool {
        self.run_until(timeout, |c| c.device_time >= frames)
    }

    /// Runs `n` engine ticks synchronously (manual-tick servers).
    pub fn tick_n(&self, n: u64) {
        let mut core = self.core.write();
        for _ in 0..n {
            crate::engine::tick(&mut core);
        }
    }
}
