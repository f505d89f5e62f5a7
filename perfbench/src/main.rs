//! `perfbench`: the desktop-audio server's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <playback|control|transfer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against a real `AudioServer` in this
//! process, checks its outputs, prints diagnostics, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the workload runs twice, untraced then traced, and the metrics are
//! the per-layer ones plus the tracing overhead. See `README.md`.

mod client;
mod control;
mod layers;
mod playback;
mod probe;
mod rng;
mod sampler;
mod srv;
mod stats;
mod transfer;

use client::{Recording, Tally};
use da_proto::types::SoundType;
use srv::{Series, Window};
use stats::{beyond, median, percentile, MIN_BEYOND};
use std::process::ExitCode;
use std::time::Instant;

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Drive the engine from the benchmark's tick thread and record
    /// frames for the per-layer replays.
    pub traced: bool,
    /// Set-ups per run; `setup_s` is their median and the last one's
    /// server is measured.
    pub setups: usize,
    /// Connection-plane I/O workers (at most the processor count).
    pub io_workers: usize,
}

/// Untimed run-in before the window opens.
pub const WARMUP: std::time::Duration = std::time::Duration::from_secs(1);

/// Everything one workload run measured.
pub struct Outcome {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Connect plus setup handshake, ms.
    pub connect_ms: Vec<f64>,
    /// Play request → `PlayStarted`, ms.
    pub play_start_ms: Series,
    /// Request → reply round trips, µs (which ones is per workload).
    pub rtt_us: Series,
    /// The closed loop's work: when each unit of it ended, the requests
    /// it completed, and the seconds it took (`control` leaves out its
    /// think time, the probe paces itself and counts wall time).
    pub work: Vec<(Instant, u64, f64)>,
    /// Uploads finalized in the window.
    pub uploads: u64,
    /// Server and process snapshots around the window.
    pub window: Window,
    /// Engine tick times in the window, ns (traced runs only).
    pub ticks_ns: Vec<u64>,
    /// Frames exchanged in the window (traced runs only).
    pub recording: Recording,
    /// The sound payloads the workload stores and plays, for the store
    /// and DSP replays.
    pub payloads: Vec<(SoundType, Vec<u8>)>,
    /// Workload-specific lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// CPU ms of the server's threads per second of audio.
    pub fn cpu_ms_per_audio_s(&self) -> f64 {
        self.window
            .clean_cpu_ms_per_audio_s(sampler::is_server_thread)
    }

    /// Closed-loop requests per busy second.
    pub fn requests_per_s(&self) -> f64 {
        let requests: Series = self.work.iter().map(|&(at, n, _)| (at, n as f64)).collect();
        let busy: Series = self.work.iter().map(|&(at, _, s)| (at, s)).collect();
        let sum = |s: &Series| self.window.clean(s).iter().sum::<f64>();
        sum(&requests) / sum(&busy)
    }

    /// The `q`-quantile of `series` over the clean slices, printing the
    /// sample count and how many samples lie beyond it.
    pub fn percentile(&self, name: &str, series: &Series, q: f64) -> f64 {
        let values = self.window.clean(series);
        let n = values.len();
        let tail = beyond(n, q);
        let flag = if q > 0.5 && tail < MIN_BEYOND {
            "  (too few samples beyond)"
        } else {
            ""
        };
        println!("samples {name}: n={n}, beyond={tail}{flag}");
        percentile(&values, q)
    }
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the deciles of a sample set.
fn deciles(name: &str, samples: &[f64]) {
    let d: Vec<String> = (1..10)
        .map(|i| format!("{:.3}", percentile(samples, i as f64 / 10.0)))
        .collect();
    println!(
        "deciles {name}: {}, max {:.3}",
        d.join(" "),
        percentile(samples, 1.0)
    );
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let values = |s: &Series| s.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    deciles("play_start_ms", &values(&o.play_start_ms));
    deciles("rtt_us", &values(&o.rtt_us));
    deciles("connect_ms", &o.connect_ms);
    let n = o.connect_ms.len();
    println!("samples connect_p50_ms: n={n}, beyond={}", beyond(n, 0.5));
    vec![
        metric("setup_s", median(&o.setup_s), "s"),
        metric(
            "play_start_p50_ms",
            o.percentile("play_start_p50_ms", &o.play_start_ms, 0.5),
            "ms",
        ),
        metric(
            "play_start_p75_ms",
            o.percentile("play_start_p75_ms", &o.play_start_ms, 0.75),
            "ms",
        ),
        metric(
            "rtt_p50_us",
            o.percentile("rtt_p50_us", &o.rtt_us, 0.5),
            "us",
        ),
        metric(
            "rtt_p95_us",
            o.percentile("rtt_p95_us", &o.rtt_us, 0.95),
            "us",
        ),
        metric("connect_p50_ms", median(&o.connect_ms), "ms"),
        metric("requests_per_s", o.requests_per_s(), "1/s"),
        metric("cpu_ms_per_audio_s", o.cpu_ms_per_audio_s(), "ms"),
        metric("rss_mb", sampler::peak_rss_mb(), "MB"),
    ]
}

/// Runs a workload, then counts what the server dropped in its window:
/// each dropped event and each evicted client is a failed operation.
fn run_workload(name: &str, cfg: &Cfg, tally: &Tally) -> Result<Outcome, String> {
    let out = match name {
        "playback" => playback::run(cfg, tally),
        "control" => control::run(cfg, tally),
        "transfer" => transfer::run(cfg, tally),
        other => Err(format!(
            "unknown workload {other:?} (playback, control, transfer)"
        )),
    }?;
    for (counter, what) in [
        ("events_dropped_total", "event"),
        ("clients_evicted_total", "client"),
    ] {
        let n = out.window.counter(counter);
        tally.attempt(n);
        for _ in 0..n {
            tally.fail(format!("server dropped an {what} ({counter})"));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    let w = &out.window;
    println!(
        "server cpu ms per audio s: engine {:.3}, io workers {:.3}, connmgr {:.3} (traced={})",
        w.cpu_ms(|n| n == "da-engine") / w.audio_s(),
        w.cpu_ms(sampler::is_io_thread) / w.audio_s(),
        w.cpu_ms(|n| n == "da-connmgr") / w.audio_s(),
        cfg.traced
    );
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setups: match (args.trace, args.workload.as_str()) {
            (true, _) => 1,
            (false, "playback") => 5,
            (false, _) => 51,
        },
        io_workers: nproc.min(4),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} io_workers={}",
        args.workload, cfg.seed, cfg.seconds, args.trace as u8, cfg.io_workers
    );
    let tally = Tally::default();
    let result = run_workload(&args.workload, &cfg, &tally).and_then(|untraced| {
        if !args.trace {
            return Ok(end_to_end(&untraced));
        }
        let traced = run_workload(
            &args.workload,
            &Cfg {
                traced: true,
                ..cfg
            },
            &tally,
        )?;
        Ok(layers::per_layer(&args.workload, &cfg, &untraced, traced))
    });
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (attempted, failed) = tally.counts();
    for f in tally.printed() {
        println!("FAILED: {f}");
    }
    println!(
        "failed_ratio = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
