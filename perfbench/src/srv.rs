//! The server under test and the measurement window around it.
//!
//! Untraced runs use the production engine thread (`da-engine`, real-
//! time pacing). Traced runs start a manual-tick server and drive it
//! from the benchmark's own tick thread, also named `da-engine`, paced
//! on the same real-time schedule, so each `ServerControl::tick_n(1)`
//! can be timed without touching server code and the thread count
//! stays the same.

use crate::sampler::ThreadCpu;
use da_proto::reply::{Reply, ServerStatsData};
use da_server::{AudioServer, ServerConfig, ServerControl};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine quantum: the production 10 ms.
pub const QUANTUM_US: u64 = 10_000;

/// Device frames per second (device time runs at 8 kHz).
const DEVICE_RATE: f64 = 8000.0;

/// A running server plus, in traced runs, the benchmark's tick thread.
pub struct Srv {
    /// The server.
    pub server: AudioServer,
    /// Its control handle.
    pub control: ServerControl,
    ticker: Option<Ticker>,
}

impl Srv {
    /// Starts a server with `io_workers` I/O threads, listening on TCP
    /// loopback when `tcp`, with the benchmark driving its ticks when
    /// `traced`.
    pub fn start(tcp: bool, traced: bool, io_workers: usize) -> std::io::Result<Srv> {
        let config = ServerConfig {
            pacing: da_hw::clock::Pacing::RealTime,
            quantum_us: QUANTUM_US,
            tcp_addr: tcp.then(|| "127.0.0.1:0".to_string()),
            manual_ticks: traced,
            io_workers,
            ..ServerConfig::default()
        };
        let server = AudioServer::start(config)?;
        let control = server.control();
        let ticker = if traced {
            Some(Ticker::start(control.clone())?)
        } else {
            None
        };
        Ok(Srv {
            server,
            control,
            ticker,
        })
    }

    /// The TCP address, as `host:port`, when listening.
    pub fn tcp_addr(&self) -> Option<String> {
        self.server.tcp_addr().map(|a| a.to_string())
    }

    /// Device time in seconds.
    pub fn audio_s(&self) -> f64 {
        self.control.device_time() as f64 / DEVICE_RATE
    }

    /// The `QueryServerStats` reply, built by the server's own handler.
    pub fn stats(&self) -> ServerStatsData {
        match self.control.with_core(da_server::telem::server_stats_reply) {
            Reply::ServerStats { stats } => stats,
            _ => ServerStatsData::default(),
        }
    }

    /// Starts recording tick times (traced runs only).
    pub fn record_ticks(&self, on: bool) {
        if let Some(t) = &self.ticker {
            t.recording.store(on, Ordering::Relaxed);
        }
    }

    /// Stops the server, returning the recorded tick times in ns.
    pub fn stop(mut self) -> Vec<u64> {
        let ticks = self.ticker.take().map(Ticker::stop).unwrap_or_default();
        self.server.shutdown();
        ticks
    }
}

/// The benchmark's engine thread for manual-tick servers.
struct Ticker {
    stop: Arc<AtomicBool>,
    recording: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<u64>>>,
    handle: JoinHandle<()>,
}

impl Ticker {
    fn start(control: ServerControl) -> std::io::Result<Ticker> {
        let stop = Arc::new(AtomicBool::new(false));
        let recording = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (s, r, out) = (
            Arc::clone(&stop),
            Arc::clone(&recording),
            Arc::clone(&samples),
        );
        let handle = std::thread::Builder::new()
            .name("da-engine".into())
            .spawn(move || {
                // Deadline pacing, as the production pacer does: an overrun
                // is caught up back to back, so audio time tracks wall time.
                let quantum = Duration::from_micros(QUANTUM_US);
                let mut due = Instant::now();
                while !s.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due += quantum;
                    let t = Instant::now();
                    control.tick_n(1);
                    let ns = t.elapsed().as_nanos() as u64;
                    if r.load(Ordering::Relaxed) {
                        out.lock().expect("tick samples lock poisoned").push(ns);
                    }
                    std::thread::yield_now();
                }
            })?;
        Ok(Ticker {
            stop,
            recording,
            samples,
            handle,
        })
    }

    fn stop(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        if self.handle.join().is_err() {
            eprintln!("perfbench: tick thread panicked");
        }
        std::mem::take(&mut *self.samples.lock().expect("tick samples lock poisoned"))
    }
}

/// What the server and process looked like at one instant.
pub struct Snapshot {
    /// Wall clock.
    pub at: Instant,
    /// Device time, seconds.
    pub audio_s: f64,
    /// Per-thread CPU.
    pub cpu: ThreadCpu,
    /// Server counters and histograms.
    pub stats: ServerStatsData,
    /// CPU ticks stolen from the machine so far.
    pub steal: u64,
}

impl Snapshot {
    /// Takes a snapshot of `srv`.
    pub fn take(srv: &Srv) -> Snapshot {
        Snapshot {
            at: Instant::now(),
            audio_s: srv.audio_s(),
            cpu: ThreadCpu::sample(),
            stats: srv.stats(),
            steal: crate::sampler::steal_ticks(),
        }
    }
}

/// Slices a window is cut into.
pub const SLICES: usize = 10;

/// Slices the figures are pooled from: those the hypervisor stole the
/// least CPU time in. On a shared machine, stolen time stalls every
/// thread of the process at once and moves tails and rates far more than
/// any change to the server could; keeping the cleanest half of the
/// window keeps most of it out of the figures.
pub const CLEAN_SLICES: usize = 5;

/// Samples stamped with when they were taken.
pub type Series = Vec<(Instant, f64)>;

/// Opens the window and takes a snapshot at each slice boundary.
pub struct Clock {
    marks: Vec<Snapshot>,
    slice: Duration,
}

impl Clock {
    /// Opens a window of `seconds` on `srv`, recording its ticks.
    pub fn open(srv: &Srv, seconds: f64) -> Clock {
        srv.record_ticks(true);
        let slice = Duration::from_secs_f64(seconds / SLICES as f64);
        Clock {
            marks: vec![Snapshot::take(srv)],
            slice,
        }
    }

    fn next_at(&self) -> Instant {
        self.marks[0].at + self.slice * self.marks.len() as u32
    }

    /// Takes the snapshot of every boundary passed; true once the window
    /// has ended.
    pub fn poll(&mut self, srv: &Srv) -> bool {
        while self.marks.len() <= SLICES && Instant::now() >= self.next_at() {
            self.marks.push(Snapshot::take(srv));
        }
        self.marks.len() > SLICES
    }

    /// Sleeps through the window, then closes it.
    pub fn sleep_out(mut self, srv: &Srv) -> Window {
        while !self.poll(srv) {
            std::thread::sleep(self.next_at().saturating_duration_since(Instant::now()));
        }
        self.close(srv)
    }

    /// Closes the window, choosing the [`CLEAN_SLICES`] slices with the
    /// least stolen time.
    pub fn close(self, srv: &Srv) -> Window {
        srv.record_ticks(false);
        let steal: Vec<u64> = self
            .marks
            .windows(2)
            .map(|m| m[1].steal - m[0].steal)
            .collect();
        let mut clean: Vec<usize> = (0..steal.len()).collect();
        clean.sort_by_key(|&i| steal[i]);
        clean.truncate(CLEAN_SLICES);
        clean.sort_unstable();
        println!("steal ticks per slice: {steal:?}, figures from slices {clean:?}");
        Window {
            marks: self.marks,
            clean,
        }
    }
}

/// The measured window: snapshots at its start, slice boundaries and end.
pub struct Window {
    marks: Vec<Snapshot>,
    /// The slices figures are computed from.
    clean: Vec<usize>,
}

impl Window {
    fn start(&self) -> &Snapshot {
        &self.marks[0]
    }

    fn end(&self) -> &Snapshot {
        self.marks.last().expect("a window has snapshots")
    }

    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end().at - self.start().at).as_secs_f64()
    }

    /// Audio (device-time) seconds.
    pub fn audio_s(&self) -> f64 {
        self.end().audio_s - self.start().audio_s
    }

    /// CPU milliseconds of threads picked by name.
    pub fn cpu_ms(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.end().cpu.ns_since(&self.start().cpu, pick) as f64 / 1e6
    }

    /// CPU ms of the picked threads per audio second, over the clean
    /// slices.
    pub fn clean_cpu_ms_per_audio_s(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let m = &self.marks;
        let (cpu_ns, audio_s) = self.clean.iter().fold((0u64, 0.0), |(c, a), &i| {
            (
                c + m[i + 1].cpu.ns_since(&m[i].cpu, &pick),
                a + m[i + 1].audio_s - m[i].audio_s,
            )
        });
        cpu_ns as f64 / 1e6 / audio_s
    }

    /// The slice `at` falls in, if inside the window.
    fn slice_of(&self, at: Instant) -> Option<usize> {
        self.marks
            .windows(2)
            .position(|m| at >= m[0].at && at < m[1].at)
    }

    /// The values of `series` that fall in the clean slices.
    pub fn clean(&self, series: &[(Instant, f64)]) -> Vec<f64> {
        series
            .iter()
            .filter(|(at, _)| self.slice_of(*at).is_some_and(|i| self.clean.contains(&i)))
            .map(|&(_, v)| v)
            .collect()
    }

    /// Increase of a server counter.
    pub fn counter(&self, name: &str) -> u64 {
        let at = |s: &ServerStatsData| s.counter(name).unwrap_or(0);
        at(&self.end().stats).saturating_sub(at(&self.start().stats))
    }

    /// Per-bucket increase of a server histogram, with the increase of
    /// its sum.
    pub fn histogram(&self, name: &str) -> (Vec<u64>, u64) {
        let get = |s: &ServerStatsData| {
            s.histogram(name)
                .map(|h| (h.buckets.clone(), h.sum))
                .unwrap_or_default()
        };
        let (b1, s1) = get(&self.end().stats);
        let (b0, s0) = get(&self.start().stats);
        let buckets = b1
            .iter()
            .enumerate()
            .map(|(i, n)| n.saturating_sub(*b0.get(i).unwrap_or(&0)))
            .collect();
        (buckets, s1.saturating_sub(s0))
    }
}
