//! Server statistics presentation: the model behind `audiostat`.
//!
//! Fetches one [`ServerStatsData`]/[`ClientStatsData`] snapshot over a
//! connection and renders it as a top-style text table. Like the rest of
//! the toolkit this is mechanism, not policy: the rendering is a plain
//! `String`, usable from a terminal tool, a test, or a log line.

use da_alib::{AlibError, Connection};
use da_proto::reply::{ClientStatsData, HistogramSample, ServerStatsData};
use da_proto::request::Request;
use std::fmt::Write as _;

/// One captured snapshot of server and client statistics.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// The server's metric registry snapshot.
    pub server: ServerStatsData,
    /// Per-client connection accounting.
    pub clients: Vec<ClientStatsData>,
}

impl StatsSnapshot {
    /// Fetches a snapshot over `conn` (two round trips).
    pub fn fetch(conn: &mut Connection) -> Result<StatsSnapshot, AlibError> {
        let server = conn.query_server_stats()?;
        let clients = conn.list_clients()?;
        Ok(StatsSnapshot { server, clients })
    }

    /// Per-opcode dispatch counts as `(name, count)` pairs, non-zero
    /// rows only, sorted by descending count.
    pub fn opcode_counts(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = self
            .server
            .per_opcode
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(op, &n)| (Request::opcode_name(op as u8).unwrap_or("?"), n))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The engine tick-duration histogram, when the server recorded one.
    pub fn tick_histogram(&self) -> Option<&HistogramSample> {
        self.server.histogram("engine_tick_us")
    }

    /// Median tick duration in microseconds (upper bucket bound).
    pub fn tick_p50_us(&self) -> u64 {
        self.tick_histogram().map(|h| h.percentile(0.50)).unwrap_or(0)
    }

    /// 99th-percentile tick duration in microseconds.
    pub fn tick_p99_us(&self) -> u64 {
        self.tick_histogram().map(|h| h.percentile(0.99)).unwrap_or(0)
    }

    /// Plan-cache hit rate in [0, 1]: lookups that did not rebuild.
    /// `None` before the first tick.
    pub fn plan_cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.server.counter("plan_cache_lookups_total")?;
        if lookups == 0 {
            return None;
        }
        let rebuilds = self.server.counter("plan_cache_rebuilds_total").unwrap_or(0);
        Some(1.0 - rebuilds as f64 / lookups as f64)
    }

    /// Total request dispatches, split `(fast, slow)` between the
    /// sharded fast path and the global-lock slow path.
    pub fn dispatch_split(&self) -> (u64, u64) {
        (
            self.server.counter("dispatch_fast_total").unwrap_or(0),
            self.server.counter("dispatch_slow_total").unwrap_or(0),
        )
    }

    /// 95th-percentile shard-lock wait in microseconds (0 before any
    /// fast-path dispatch has been timed).
    pub fn lock_wait_p95_us(&self) -> u64 {
        self.server
            .histogram("shard_lock_wait_us")
            .map(|h| h.percentile(0.95))
            .unwrap_or(0)
    }

    /// Transcode-cache hit rate in [0, 1]. `None` before any decode has
    /// consulted the cache.
    pub fn transcode_hit_rate(&self) -> Option<f64> {
        let hits = self.server.counter("transcode_cache_hits_total").unwrap_or(0);
        let misses = self.server.counter("transcode_cache_misses_total").unwrap_or(0);
        let total = hits + misses;
        if total == 0 {
            return None;
        }
        Some(hits as f64 / total as f64)
    }

    /// Renders the snapshot as a top-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let s = &self.server;
        let _ = writeln!(
            out,
            "audiostat — tick {} · device time {} frames",
            s.captured_at_tick, s.device_time
        );
        let _ = writeln!(
            out,
            "engine: {} ticks · tick p50 {} us · p99 {} us · {} overruns",
            s.counter("engine_ticks_total").unwrap_or(0),
            self.tick_p50_us(),
            self.tick_p99_us(),
            s.counter("engine_tick_overruns_total").unwrap_or(0),
        );
        let phases: Vec<String> = ["line", "queues", "produce", "route", "consume"]
            .iter()
            .map(|name| {
                let p50 = s
                    .histogram(&format!("engine_phase_{name}_us"))
                    .map(|h| h.percentile(0.50))
                    .unwrap_or(0);
                format!("{name} {p50}")
            })
            .collect();
        let _ = writeln!(out, "phases: p50 us · {}", phases.join(" · "));
        match self.plan_cache_hit_rate() {
            Some(rate) => {
                let _ = writeln!(
                    out,
                    "plans:  {:.1}% cache hit ({} lookups, {} rebuilds) · {} active roots",
                    rate * 100.0,
                    s.counter("plan_cache_lookups_total").unwrap_or(0),
                    s.counter("plan_cache_rebuilds_total").unwrap_or(0),
                    s.gauge("active_roots").unwrap_or(0),
                );
            }
            None => {
                let _ = writeln!(out, "plans:  no lookups yet");
            }
        }
        let walks = s.histogram("activation_us");
        let _ = writeln!(
            out,
            "activ:  {} walks · p50 {} us · p99 {} us · {} roots re-bound",
            walks.map(|h| h.count).unwrap_or(0),
            walks.map(|h| h.percentile(0.50)).unwrap_or(0),
            walks.map(|h| h.percentile(0.99)).unwrap_or(0),
            s.counter("activation_rebinds_total").unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "wire:   {} frames / {} B in · {} frames / {} B out",
            s.counter("wire_frames_in_total").unwrap_or(0),
            s.counter("wire_bytes_in_total").unwrap_or(0),
            s.counter("wire_frames_out_total").unwrap_or(0),
            s.counter("wire_bytes_out_total").unwrap_or(0),
        );
        let (fast, slow) = self.dispatch_split();
        let _ = writeln!(
            out,
            "plane:  {} workers · {} conns (max {}/worker) · busy {}‰",
            s.gauge("conn_plane_workers").unwrap_or(0),
            s.gauge("conn_plane_connections").unwrap_or(0),
            s.gauge("conn_worker_max_connections").unwrap_or(0),
            s.gauge("conn_plane_busy_permille").unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "shard:  {} fast / {} slow dispatches · lock wait p95 {} us · {} events dropped · {} evictions",
            fast,
            slow,
            self.lock_wait_p95_us(),
            s.counter("events_dropped_total").unwrap_or(0),
            s.counter("clients_evicted_total").unwrap_or(0),
        );
        let hit_pct = match self.transcode_hit_rate() {
            Some(rate) => format!("{:.1}% transcode hit", rate * 100.0),
            None => "no transcodes yet".to_string(),
        };
        let _ = writeln!(
            out,
            "store:  {} payloads / {} B shared · {} dedupes · {hit_pct} · {} us saved",
            s.gauge("store_payloads").unwrap_or(0),
            s.gauge("store_bytes_shared").unwrap_or(0),
            s.counter("store_dedupe_hits_total").unwrap_or(0),
            s.counter("transcode_us_saved_total").unwrap_or(0),
        );

        let _ = writeln!(out);
        let _ = writeln!(out, "{:<28} {:>12}", "OPCODE", "DISPATCHED");
        for (name, count) in self.opcode_counts() {
            let _ = writeln!(out, "{name:<28} {count:>12}");
        }

        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<6} {:<16} {:>8} {:>8} {:>10} {:>10} {:>6}",
            "CLIENT", "NAME", "REQS", "REPLIES", "BYTES IN", "BYTES OUT", "RES"
        );
        for c in &self.clients {
            let resources = c.louds + c.vdevs + c.wires + c.sounds;
            let _ = writeln!(
                out,
                "{:<6} {:<16} {:>8} {:>8} {:>10} {:>10} {:>6}",
                c.client.0, c.name, c.requests, c.replies, c.bytes_in, c.bytes_out, resources
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_proto::ids::ClientId;
    use da_proto::reply::{CounterSample, GaugeSample};

    fn sample() -> StatsSnapshot {
        let mut per_opcode = vec![0u64; Request::COUNT];
        per_opcode[0] = 3; // CreateLoud
        per_opcode[48] = 1; // QueryServerStats
        StatsSnapshot {
            server: ServerStatsData {
                captured_at_tick: 7,
                device_time: 560,
                per_opcode,
                counters: vec![
                    CounterSample { name: "engine_ticks_total".into(), value: 7 },
                    CounterSample { name: "plan_cache_lookups_total".into(), value: 7 },
                    CounterSample { name: "plan_cache_rebuilds_total".into(), value: 1 },
                    CounterSample { name: "dispatch_fast_total".into(), value: 5 },
                    CounterSample { name: "dispatch_slow_total".into(), value: 2 },
                    CounterSample { name: "events_dropped_total".into(), value: 1 },
                    CounterSample { name: "clients_evicted_total".into(), value: 1 },
                    CounterSample { name: "store_dedupe_hits_total".into(), value: 2 },
                    CounterSample { name: "transcode_cache_hits_total".into(), value: 3 },
                    CounterSample { name: "transcode_cache_misses_total".into(), value: 1 },
                    CounterSample { name: "transcode_us_saved_total".into(), value: 12 },
                    CounterSample { name: "activation_rebinds_total".into(), value: 5 },
                ],
                gauges: vec![
                    GaugeSample { name: "active_roots".into(), value: 1 },
                    GaugeSample { name: "store_payloads".into(), value: 4 },
                    GaugeSample { name: "store_bytes_shared".into(), value: 4096 },
                    GaugeSample { name: "conn_plane_workers".into(), value: 2 },
                    GaugeSample { name: "conn_plane_connections".into(), value: 3 },
                    GaugeSample { name: "conn_worker_max_connections".into(), value: 2 },
                    GaugeSample { name: "conn_plane_busy_permille".into(), value: 41 },
                ],
                histograms: vec![
                    HistogramSample {
                        name: "engine_tick_us".into(),
                        count: 4,
                        sum: 40,
                        buckets: vec![0, 0, 0, 0, 4],
                    },
                    HistogramSample {
                        name: "activation_us".into(),
                        count: 3,
                        sum: 9,
                        buckets: vec![0, 0, 3],
                    },
                ],
            },
            clients: vec![ClientStatsData {
                client: ClientId(1),
                name: "probe".into(),
                requests: 4,
                replies: 2,
                events: 0,
                errors: 0,
                bytes_in: 40,
                bytes_out: 20,
                louds: 1,
                vdevs: 2,
                wires: 1,
                sounds: 1,
            }],
        }
    }

    #[test]
    fn derived_figures() {
        let snap = sample();
        assert_eq!(snap.opcode_counts()[0], ("CreateLoud", 3));
        assert_eq!(snap.tick_p50_us(), 15); // all samples in bucket 4: [8, 15]
        assert_eq!(snap.tick_p99_us(), 15);
        let rate = snap.plan_cache_hit_rate().expect("lookups recorded");
        assert!((rate - 6.0 / 7.0).abs() < 1e-9);
        assert_eq!(snap.dispatch_split(), (5, 2));
        let tr = snap.transcode_hit_rate().expect("transcodes recorded");
        assert!((tr - 0.75).abs() < 1e-9);
    }

    #[test]
    fn render_contains_key_rows() {
        let text = sample().render();
        assert!(text.contains("tick 7"));
        assert!(text.contains("CreateLoud"));
        assert!(text.contains("QueryServerStats"));
        assert!(text.contains("probe"));
        assert!(text.contains("cache hit"));
        assert!(text.contains("2 workers"));
        assert!(text.contains("5 fast / 2 slow"));
        assert!(text.contains("1 events dropped"));
        assert!(text.contains("1 evictions"));
        assert!(text.contains("4 payloads / 4096 B shared"));
        assert!(text.contains("75.0% transcode hit"));
        assert!(text.contains("12 us saved"));
        assert!(text.contains("3 walks · p50 3 us · p99 3 us · 5 roots re-bound"));
    }
}
