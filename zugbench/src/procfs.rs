//! Process and thread resource readings: CPU time and resident memory
//! from `/proc`, per-thread CPU time from `clock_gettime`, and the
//! filesystem a path lives on from `/proc/self/mountinfo`, and the bytes
//! a directory holds.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
pub const TICKS_PER_SEC: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may contain spaces
/// or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<(u64, u64)> {
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the name: state(3) ppid(4) … utime is field 14, stime 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value in kB of `key` (e.g. `VmHWM`) in `/proc/<pid>/status` text.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        if name != key {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User plus system CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (utime, stime) = parse_stat_ticks(&text).expect("parse /proc/self/stat");
    (utime + stime) as f64 / TICKS_PER_SEC
}

fn status_kb(key: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&text, key).unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// Reads the peak resident set size once, when the timed phase has
/// completed a fixed number of operations, so that the figure describes
/// a fixed amount of work instead of growing with throughput. Shared by
/// every load thread of a run.
#[derive(Debug)]
pub struct RssProbe {
    target: u64,
    done: std::sync::atomic::AtomicU64,
    peak_mb: std::sync::OnceLock<f64>,
}

impl RssProbe {
    /// A probe that reads `VmHWM` once `target` operations completed.
    pub fn new(target: u64) -> Self {
        RssProbe {
            target,
            done: std::sync::atomic::AtomicU64::new(0),
            peak_mb: std::sync::OnceLock::new(),
        }
    }

    /// Counts `ops` completed operations.
    pub fn add(&self, ops: u64) {
        // Relaxed: the counter publishes no other data.
        let before = self
            .done
            .fetch_add(ops, std::sync::atomic::Ordering::Relaxed);
        if before < self.target && before + ops >= self.target {
            self.peak_mb.get_or_init(peak_rss_mb);
        }
    }

    /// The reading, or `None` if the target was never reached.
    pub fn peak_mb(&self) -> Option<f64> {
        self.peak_mb.get().copied()
    }

    /// Operations the probe waits for.
    pub fn target(&self) -> u64 {
        self.target
    }
}

/// Current resident set size of this process in kB (`VmRSS`).
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The `total=` microseconds of the `some` line of a `/proc/pressure/*`
/// file.
pub fn parse_pressure_some_us(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("some "))?;
    line.split_whitespace()
        .find_map(|f| f.strip_prefix("total="))?
        .parse()
        .ok()
}

/// Host conditions at one instant: CPU time stolen by the hypervisor and
/// time tasks stalled on I/O, both machine-wide.
#[derive(Debug, Clone, Copy)]
pub struct HostSnapshot {
    steal: Option<(u64, u64)>,
    io_some_us: Option<u64>,
    at: std::time::Instant,
}

impl HostSnapshot {
    /// Reads the current counters (missing files leave gaps).
    pub fn now() -> Self {
        let read = |path| std::fs::read_to_string(path).ok();
        HostSnapshot {
            steal: read("/proc/stat").as_deref().and_then(parse_cpu_steal),
            io_some_us: read("/proc/pressure/io")
                .as_deref()
                .and_then(parse_pressure_some_us),
            at: std::time::Instant::now(),
        }
    }

    /// Share of CPU time stolen and share of wall time some task waited
    /// on I/O since `earlier`, as a context line.
    pub fn since(&self, earlier: &HostSnapshot) -> String {
        let steal = match (earlier.steal, self.steal) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.3}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "unknown".into(),
        };
        let wall_us = self.at.duration_since(earlier.at).as_micros().max(1) as f64;
        let io = match (earlier.io_some_us, self.io_some_us) {
            (Some(a), Some(b)) => format!("{:.3}", (b.saturating_sub(a)) as f64 / wall_us),
            _ => "unknown".into(),
        };
        format!("host during timed phase: cpu steal share {steal}, io-stall share {io}")
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and the clock
    // id is a constant the kernel defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo` (the longest mount point that prefixes it).
pub fn parse_mount_fs(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mount_point = Path::new(fields.get(4)?);
        // Optional fields end at "-", then fstype.
        let sep = fields.iter().position(|f| *f == "-")?;
        let fstype = fields.get(sep + 1)?;
        if path.starts_with(mount_point) {
            let depth = mount_point.components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, fstype.to_string()));
            }
        }
    }
    best.map(|(_, fs)| fs)
}

/// The filesystem type `path` lives on, or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|text| parse_mount_fs(&text, &path))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let text = "4242 (zug bench) (x) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 95 0 0 20 0 5 0 1000 100000 2000";
        assert_eq!(parse_stat_ticks(text), Some((731, 95)));
        assert_eq!(parse_stat_ticks("no parens here"), None);
        assert_eq!(parse_stat_ticks("1 (short) R 1 2"), None);
    }

    #[test]
    fn status_values_parse_in_kb() {
        let text = "Name:\tzugbench\nVmPeak:\t  500 kB\nVmHWM:\t   93184 kB\nVmRSS:\t 90000 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(93184));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(90000));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        // A key that only prefixes another must not match it.
        assert_eq!(parse_status_kb(text, "Vm"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_s() >= 0.0);
    }

    #[test]
    fn rss_probe_reads_once_at_its_target() {
        let probe = RssProbe::new(10);
        probe.add(9);
        assert_eq!(probe.peak_mb(), None);
        probe.add(5);
        let first = probe.peak_mb().expect("target crossed");
        assert!(first > 0.0);
        let _ballast = vec![1u8; 64 << 20];
        probe.add(100);
        assert_eq!(probe.peak_mb(), Some(first), "read only once");
        assert_eq!(probe.target(), 10);
    }

    #[test]
    fn steal_and_pressure_parse() {
        let stat = "cpu  100 5 50 800 20 1 2 22 0 0\ncpu0 50 2 25 400 10 1 1 11 0 0\n";
        assert_eq!(parse_cpu_steal(stat), Some((22, 1000)));
        assert_eq!(parse_cpu_steal("intr 5\n"), None);
        let pressure = "some avg10=9.69 avg60=13.02 avg300=8.57 total=85355316\n\
                        full avg10=5.53 avg60=6.97 avg300=4.78 total=54815369\n";
        assert_eq!(parse_pressure_some_us(pressure), Some(85355316));
        assert_eq!(parse_pressure_some_us("full total=3\n"), None);
    }

    #[test]
    fn mount_lookup_takes_the_longest_prefix() {
        let text = "22 1 253:0 / / rw,relatime shared:1 - ext4 /dev/vda rw\n\
                    30 22 0:26 / /tmp rw,nosuid - tmpfs tmpfs rw\n\
                    31 22 0:27 / /tmpdata rw - xfs /dev/vdb rw\n";
        assert_eq!(
            parse_mount_fs(text, Path::new("/tmp/x/y")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_mount_fs(text, Path::new("/home/a")).as_deref(),
            Some("ext4")
        );
        // Path components, not string prefixes: /tmpdata is not under /tmp.
        assert_eq!(
            parse_mount_fs(text, Path::new("/tmpdata/z")).as_deref(),
            Some("xfs")
        );
    }
}
