//! Samplers read from `/proc`: CPU time per thread of this process
//! (`self/task/*/{comm,schedstat,stat}`), its peak resident set
//! (`self/status`), and CPU time the hypervisor stole (`stat`).

use std::collections::HashMap;

/// Clock ticks per second of the `stat` utime/stime fields (Linux
/// `USER_HZ`, fixed at 100 on every mainstream architecture).
const USER_HZ: u64 = 100;

/// One thread's name and CPU time so far.
#[derive(Debug, Clone)]
struct ThreadSample {
    comm: String,
    cpu_ns: u64,
}

/// CPU time of every thread of this process at one instant.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu {
    threads: HashMap<u32, ThreadSample>,
}

impl ThreadCpu {
    /// Samples `/proc/self/task`. Threads that exit while it is read are
    /// skipped; on systems without `/proc` the sample is empty.
    pub fn sample() -> ThreadCpu {
        let mut threads = HashMap::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return ThreadCpu { threads };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
                continue;
            };
            // schedstat has nanosecond resolution; stat's tick counts
            // are the fallback when the kernel lacks schedstats.
            let cpu_ns = std::fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat_ns(&s))
                .or_else(|| {
                    std::fs::read_to_string(path.join("stat"))
                        .ok()
                        .and_then(|s| parse_stat_ns(&s))
                });
            if let Some(cpu_ns) = cpu_ns {
                threads.insert(
                    tid,
                    ThreadSample {
                        comm: comm.trim_end().to_string(),
                        cpu_ns,
                    },
                );
            }
        }
        ThreadCpu { threads }
    }

    /// CPU nanoseconds spent since `earlier` by threads whose name
    /// satisfies `pick`. A thread absent from `earlier` counts in full.
    pub fn ns_since(&self, earlier: &ThreadCpu, pick: impl Fn(&str) -> bool) -> u64 {
        self.threads
            .iter()
            .filter(|(_, t)| pick(&t.comm))
            .map(|(tid, t)| {
                let before = earlier.threads.get(tid).map_or(0, |e| e.cpu_ns);
                t.cpu_ns.saturating_sub(before)
            })
            .sum()
    }
}

/// Whether a thread belongs to the audio server: the engine, the
/// connection-plane I/O workers and the connection manager.
pub fn is_server_thread(name: &str) -> bool {
    name == "da-engine" || name == "da-connmgr" || is_io_thread(name)
}

/// Whether a thread is a connection-plane I/O worker.
pub fn is_io_thread(name: &str) -> bool {
    name.starts_with("da-io-")
}

/// CPU nanoseconds from a `schedstat` line (its first field).
pub fn parse_schedstat_ns(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds (utime + stime) from a `stat` line. The command
/// name may hold spaces and parentheses, so fields are counted from the
/// last `)`: utime and stime are fields 14 and 15 of the line.
pub fn parse_stat_ns(s: &str) -> Option<u64> {
    let rest = &s[s.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Ticks the hypervisor has stolen from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`); 0 without `/proc`.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0)
}

/// The steal ticks from a `/proc/stat` file: the eighth value of the
/// aggregate `cpu` line.
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 without `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The `VmHWM` figure, in KiB, from a `status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fixtures() {
        assert_eq!(parse_schedstat_ns("123456789 1000 42\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
        let stat = "4242 (da-io-0) x) S 1 1 1 0 -1 4194368 10 0 0 0 7 3 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat_ns(stat), Some(100_000_000));
        assert_eq!(parse_stat_ns("no paren"), None);
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
        let stat = "cpu  226708 0 24019 1750298 2770 0 4344 5286 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(5286));
        assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn classifies_server_threads() {
        assert!(is_server_thread("da-engine"));
        assert!(is_server_thread("da-io-1"));
        assert!(is_server_thread("da-connmgr"));
        assert!(!is_server_thread("perfbench"));
        assert!(!is_io_thread("da-engine"));
    }

    #[test]
    fn thread_sampler_sees_a_named_busy_thread() {
        let before = ThreadCpu::sample();
        std::thread::Builder::new()
            .name("sampler-burn".into())
            .spawn(|| {
                let until = std::time::Instant::now() + std::time::Duration::from_millis(30);
                let mut x = 0u64;
                while std::time::Instant::now() < until {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                // Sample while the thread is still alive.
                ThreadCpu::sample()
            })
            .expect("spawn")
            .join()
            .map(|after| {
                let ns = after.ns_since(&before, |n| n == "sampler-burn");
                assert!(ns >= 10_000_000, "busy thread used only {ns} ns");
                assert_eq!(after.ns_since(&before, |n| n == "no-such-thread"), 0);
            })
            .expect("join");
    }

    #[test]
    fn peak_rss_rises_with_touched_memory() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= before + 16.0);
    }
}
