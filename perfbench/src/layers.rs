//! Per-layer metrics of a traced run.
//!
//! Three sources, all outside the server's code:
//!
//! - **Server counters and histograms**, read as counts through the
//!   `QueryServerStats` handler at the window's two ends.
//! - **Timed calls into each layer's public functions** on the
//!   workload's own inputs: the frames the traced run recorded (proto),
//!   its request script replayed on a fresh manual-tick server
//!   (dispatch), its tick loop (engine), and its sound payloads (store,
//!   DSP). Each timed call is a span measured from the benchmark.
//! - **The untraced run** of the same seed, for the engine thread's CPU
//!   and the tracing overhead (traced minus untraced).

use crate::sampler::is_io_thread;
use crate::stats::{bucket_percentile, median, percentile};
use crate::{metric, Cfg, Metric, Outcome};
use da_proto::codec::{WireReader, WireWriter};
use da_proto::event::Event;
use da_proto::ids::{ClientId, SoundId};
use da_proto::reply::Reply;
use da_proto::types::SoundType;
use da_proto::{WireRead, WireWrite};
use da_server::sound::{pcm_encoding, Sound};
use da_server::store::{content_hash, SoundStore};
use da_server::{AudioServer, ServerConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timed replay repeats until it has run at least this long.
const MIN_TIMED: Duration = Duration::from_millis(50);

/// Most 10 ms windows timed per payload.
const MAX_WINDOWS: usize = 500;

/// Nanoseconds per item of `f`, which handles `items` items per call,
/// repeating the call until [`MIN_TIMED`] has passed.
fn ns_per(items: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed() < MIN_TIMED {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / (calls * items.max(1)) as f64
}

/// The per-layer metrics for `workload`.
pub fn per_layer(workload: &str, cfg: &Cfg, untraced: &Outcome, traced: Outcome) -> Vec<Metric> {
    let w = &traced.window;
    let mut m = Vec::new();

    // proto
    let (encode_ns, decode_ns, bytes_per_request) = proto(&traced);
    m.push(metric("proto.encode_ns", encode_ns, "ns"));
    m.push(metric("proto.decode_ns", decode_ns, "ns"));
    m.push(metric("proto.bytes_per_request", bytes_per_request, "B"));

    // connplane
    let hist_p50 = |name: &str| bucket_percentile(&w.histogram(name).0, 0.5);
    m.push(metric(
        "connplane.cpu_ms_per_s",
        w.cpu_ms(is_io_thread) / w.wall_s(),
        "ms",
    ));
    m.push(metric(
        "connplane.ingress_us",
        hist_p50("trace_stage_ingress_us"),
        "us",
    ));
    m.push(metric(
        "connplane.drain_us",
        hist_p50("trace_stage_drain_us"),
        "us",
    ));
    m.push(metric(
        "connplane.events_dropped",
        w.counter("events_dropped_total") as f64,
        "count",
    ));
    m.push(metric(
        "connplane.evictions",
        w.counter("clients_evicted_total") as f64,
        "count",
    ));

    // dispatch
    let (fast_us, slow_us) = dispatch_replay(workload, cfg.seed);
    let (fast, slow) = (
        w.counter("dispatch_fast_total"),
        w.counter("dispatch_slow_total"),
    );
    m.push(metric("dispatch.fast_us", fast_us, "us"));
    m.push(metric("dispatch.slow_us", slow_us, "us"));
    m.push(metric(
        "dispatch.fast_share",
        fast as f64 / (fast + slow).max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "dispatch.lock_wait_us",
        hist_p50("shard_lock_wait_us"),
        "us",
    ));
    m.push(metric(
        "dispatch.errors",
        w.counter("dispatch_errors_total") as f64,
        "count",
    ));

    // engine
    let ticks_us: Vec<f64> = traced.ticks_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    println!("samples engine.tick_us: n={}", ticks_us.len());
    let (build_buckets, build_sum) = w.histogram("plan_build_us");
    let builds: u64 = build_buckets.iter().sum();
    let uw = &untraced.window;
    m.push(metric("engine.tick_us_p50", median(&ticks_us), "us"));
    m.push(metric(
        "engine.tick_us_p99",
        percentile(&ticks_us, 0.99),
        "us",
    ));
    m.push(metric(
        "engine.cpu_ms_per_audio_s",
        uw.cpu_ms(|n| n == "da-engine") / uw.audio_s(),
        "ms",
    ));
    m.push(metric(
        "engine.overruns",
        w.counter("engine_tick_overruns_total") as f64,
        "count",
    ));
    m.push(metric(
        "engine.plan_rebuilds",
        w.counter("plan_cache_rebuilds_total") as f64,
        "count",
    ));
    m.push(metric(
        "engine.plan_build_us",
        build_sum as f64 / builds.max(1) as f64,
        "us",
    ));

    // store
    let (hits, misses) = (
        w.counter("transcode_cache_hits_total"),
        w.counter("transcode_cache_misses_total"),
    );
    m.push(metric(
        "store.decode_window_ns",
        decode_window_ns(&traced.payloads),
        "ns",
    ));
    m.push(metric(
        "store.transcode_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    m.push(metric("store.intern_ns", intern_ns(&traced.payloads), "ns"));
    let dedupe = w.counter("store_dedupe_hits_total");
    m.push(metric(
        "store.dedupe_ratio",
        dedupe as f64 / traced.uploads.max(1) as f64,
        "ratio",
    ));

    // dsp, checked against the server's own per-tick histograms
    let (convert_ns, resample_ns, mix_ns) = dsp(&traced.payloads);
    m.push(metric("dsp.convert_ns", convert_ns, "ns"));
    m.push(metric("dsp.resample_ns", resample_ns, "ns"));
    m.push(metric("dsp.mix_ns", mix_ns, "ns"));
    for name in ["dsp_convert_ns", "dsp_resample_ns", "dsp_mix_ns"] {
        let (b, sum) = w.histogram(name);
        let n: u64 = b.iter().sum();
        println!(
            "server {name}: {} ns per tick over {n} ticks",
            sum as f64 / n.max(1) as f64
        );
    }

    // tracing overhead: traced minus untraced, as a share of untraced
    let (u_rps, t_rps) = (untraced.requests_per_s(), traced.requests_per_s());
    let (u_rtt, t_rtt) = (
        untraced.percentile("untraced rtt_p50_us", &untraced.rtt_us, 0.5),
        traced.percentile("traced rtt_p50_us", &traced.rtt_us, 0.5),
    );
    println!("untraced: requests_per_s {u_rps}, rtt_p50_us {u_rtt}");
    println!("traced:   requests_per_s {t_rps}, rtt_p50_us {t_rtt}");
    m.push(metric(
        "trace.requests_per_s_overhead_pct",
        100.0 * (u_rps - t_rps) / u_rps,
        "%",
    ));
    m.push(metric(
        "trace.rtt_p50_overhead_pct",
        100.0 * (t_rtt - u_rtt) / u_rtt,
        "%",
    ));
    m
}

/// ns per request encoded, ns per reply or event decoded, and payload
/// bytes per request (sequence number included), over the recording.
fn proto(o: &Outcome) -> (f64, f64, f64) {
    let rec = &o.recording;
    let encode_ns = ns_per(rec.requests.len(), || {
        for req in &rec.requests {
            let mut w = WireWriter::new();
            w.u32(0);
            req.write(&mut w);
            black_box(w.finish());
        }
    });
    let wire_bytes: usize = rec.requests.iter().map(|r| 4 + r.to_wire().len()).sum();
    let replies: Vec<_> = rec.replies.iter().map(|r| r.to_wire()).collect();
    let events: Vec<_> = rec.events.iter().map(|e| e.to_wire()).collect();
    let decode_ns = ns_per(replies.len() + events.len(), || {
        for r in &replies {
            black_box(Reply::read(&mut WireReader::new(r)).ok());
        }
        for e in &events {
            black_box(Event::from_wire(e).ok());
        }
    });
    println!(
        "samples proto: requests={}, replies={}, events={}",
        rec.requests.len(),
        replies.len(),
        events.len()
    );
    (
        encode_ns,
        decode_ns,
        wire_bytes as f64 / rec.requests.len().max(1) as f64,
    )
}

/// Mean µs per request on the fast path and on the slow path, replaying
/// the workload's request script on a fresh manual-tick server.
fn dispatch_replay(workload: &str, seed: u64) -> (f64, f64) {
    let config = ServerConfig {
        manual_ticks: true,
        io_workers: 1,
        ..ServerConfig::default()
    };
    let Ok(server) = AudioServer::start(config) else {
        return (f64::NAN, f64::NAN);
    };
    let control = server.control();
    let Ok(mut conn) = da_alib::Connection::establish(server.connect_pipe(), "replay") else {
        return (f64::NAN, f64::NAN);
    };
    let client = conn.setup().client;
    let script = {
        let mut id = || conn.alloc_id();
        match workload {
            "playback" => crate::playback::replay_script(seed, &mut id),
            "control" => crate::control::replay_script(seed, &mut id),
            _ => crate::transfer::replay_script(seed, &mut id),
        }
    };
    let (mut fast_ns, mut slow_ns, mut fast_n, mut slow_n) = (0u128, 0u128, 0u32, 0u32);
    for (i, req) in script.into_iter().enumerate() {
        let seq = i as u32 + 1;
        let t = Instant::now();
        if control.fast_dispatch(client, seq, &req) {
            fast_ns += t.elapsed().as_nanos();
            fast_n += 1;
        } else {
            let t = Instant::now();
            control.with_core(|core| da_server::dispatch::dispatch(core, client, seq, req));
            slow_ns += t.elapsed().as_nanos();
            slow_n += 1;
        }
        if i % 64 == 0 {
            // Keep the replies flowing out of the server.
            let _ = conn.poll_event();
        }
    }
    println!("samples dispatch replay: fast={fast_n}, slow={slow_n}");
    drop(conn);
    server.shutdown();
    (
        fast_ns as f64 / 1e3 / fast_n.max(1) as f64,
        slow_ns as f64 / 1e3 / slow_n.max(1) as f64,
    )
}

/// A complete, interned-style sound holding `data`.
fn sound(i: usize, stype: SoundType, data: &[u8]) -> Sound {
    let mut s = Sound::new(SoundId(i as u32 + 1), ClientId(1), stype);
    s.append(data, true);
    s.content_hash = Some(content_hash(stype, data));
    s
}

/// A fresh store with its own metric registry.
fn fresh_store() -> SoundStore {
    let metrics = da_server::telem::ServerMetrics::new(&da_telemetry::Registry::new());
    SoundStore::new(&metrics)
}

/// 10 ms window starts and length, in frames, over a sound.
fn windows(stype: SoundType, frames: u64) -> impl Iterator<Item = (u64, u64)> {
    let per = (stype.sample_rate / 100).max(1) as u64;
    (0..frames)
        .step_by(per as usize)
        .take(MAX_WINDOWS)
        .map(move |f| (f, per))
}

/// ns per 10 ms `SoundStore::decode_window`, sound by sound, each
/// sound's cache entry built before its windows are timed.
fn decode_window_ns(payloads: &[(SoundType, Vec<u8>)]) -> f64 {
    let store = fresh_store();
    let mut out = Vec::with_capacity(4096);
    let mut total_ns = 0u128;
    let mut total = 0usize;
    for (i, (stype, data)) in payloads.iter().enumerate() {
        let snd = sound(i, *stype, data);
        let mut unused = 0u64;
        out.clear();
        store.decode_window(&snd, 0, 1, &mut out, &mut unused);
        let wins: Vec<_> = windows(*stype, snd.len_frames()).collect();
        let ns = ns_per(wins.len(), || {
            for &(from, n) in &wins {
                out.clear();
                store.decode_window(&snd, from, n, &mut out, &mut unused);
                black_box(&out);
            }
        });
        total_ns += (ns * wins.len() as f64) as u128;
        total += wins.len();
    }
    total_ns as f64 / total.max(1) as f64
}

/// ns per `SoundStore::intern_payload`, replaying the payload sequence
/// with the workload's live window so duplicates dedupe as they did.
fn intern_ns(payloads: &[(SoundType, Vec<u8>)]) -> f64 {
    let mut timed = Duration::ZERO;
    let mut n = 0usize;
    let started = Instant::now();
    while n == 0 || started.elapsed() < MIN_TIMED {
        let store = fresh_store();
        let mut live = VecDeque::new();
        for (stype, data) in payloads {
            let copy = data.clone();
            let t = Instant::now();
            let interned = store.intern_payload(*stype, copy);
            timed += t.elapsed();
            n += 1;
            live.push_back(interned);
            if live.len() > 32 {
                live.pop_front();
            }
        }
        if payloads.is_empty() {
            break;
        }
    }
    timed.as_nanos() as f64 / n.max(1) as f64
}

/// ns per 10 ms window of `convert::decode_to_pcm16_into`,
/// `resample::resample` (to the other telephone-band rate) and
/// `mix::mix_into`, over the payloads.
fn dsp(payloads: &[(SoundType, Vec<u8>)]) -> (f64, f64, f64) {
    // Encoded byte windows and their decoded PCM, prepared untimed.
    let mut enc = Vec::new();
    let mut pcm = Vec::new();
    for (stype, data) in payloads {
        let frames = stype.frames_for_bytes(data.len() as u64).max(1);
        for (from, n) in windows(*stype, frames) {
            let a = (data.len() as u64 * from / frames) as usize;
            let b = (data.len() as u64 * (from + n) / frames).min(data.len() as u64) as usize;
            enc.push((pcm_encoding(stype.encoding), *stype, &data[a..b]));
        }
    }
    let mut out = Vec::with_capacity(4096);
    let convert = ns_per(enc.len(), || {
        for (e, _, bytes) in &enc {
            out.clear();
            da_dsp::convert::decode_to_pcm16_into(*e, bytes, &mut out);
            black_box(&out);
        }
    });
    for (e, stype, bytes) in &enc {
        let mut w = Vec::new();
        da_dsp::convert::decode_to_pcm16_into(*e, bytes, &mut w);
        pcm.push((stype.sample_rate, w));
    }
    let resample = ns_per(pcm.len(), || {
        for (rate, w) in &pcm {
            let to = if *rate == 8000 { 16_000 } else { 8000 };
            black_box(da_dsp::resample::resample(w, *rate, to));
        }
    });
    let mut acc = vec![0i16; 4096];
    let mix = ns_per(pcm.len(), || {
        for (_, w) in &pcm {
            let n = w.len().min(acc.len());
            da_dsp::mix::mix_into(&mut acc[..n], &w[..n], 50);
        }
        black_box(&acc);
    });
    (convert, resample, mix)
}
