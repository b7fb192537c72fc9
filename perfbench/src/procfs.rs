//! Process accounting from `/proc/self`: CPU time and resident memory.
//!
//! CPU time is `utime + stime` of `/proc/self/stat` (fields 14 and 15, in
//! clock ticks), which covers every thread the process ever ran, including
//! the pipeline's exited workers. Peak memory uses the kernel's resettable
//! high-water mark: writing `5` to `/proc/self/clear_refs` sets `VmHWM` back
//! to the current `VmRSS`, so a later `VmHWM` is the peak of the region in
//! between.

use std::io;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on every
/// mainstream Linux architecture).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks, from the text of `/proc/<pid>/stat`.
pub fn cpu_ticks_of(stat: &str) -> Option<u64> {
    // Field 2 (the command name) is parenthesised and may contain spaces;
    // everything after its closing parenthesis is space-separated, starting
    // at field 3. utime is field 14, stime field 15.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line (`VmRSS`, `VmHWM`, ...) of `/proc/<pid>/status` text.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected format of {what}"))
}

/// CPU seconds this process has used so far, over all its threads.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = cpu_ticks_of(&stat).ok_or_else(|| malformed("/proc/self/stat"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// `(VmRSS, VmHWM)` of this process, in kB.
fn rss_and_peak_kb() -> io::Result<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let rss = status_kb(&status, "VmRSS").ok_or_else(|| malformed("VmRSS"))?;
    let hwm = status_kb(&status, "VmHWM").ok_or_else(|| malformed("VmHWM"))?;
    Ok((rss, hwm))
}

/// The resident-set peak of a region of code: the peak mark is reset when
/// the region starts, so [`PeakRss::finish`] reads the region's own peak.
pub struct PeakRss {
    start_kb: u64,
}

/// What [`PeakRss::finish`] read, in MB of 2^20 bytes.
pub struct Peak {
    /// The region's resident-set peak.
    pub peak_mb: f64,
    /// How far it rose above the resident set at the region's start.
    pub growth_mb: f64,
}

impl Peak {
    /// One line for the run's notes.
    pub fn describe(&self) -> String {
        format!(
            "resident-set peak of the timed region {:.2} MB, {:.2} MB above its start",
            self.peak_mb, self.growth_mb
        )
    }
}

impl PeakRss {
    /// Reset the peak mark and note the resident set.
    pub fn start() -> io::Result<PeakRss> {
        std::fs::write("/proc/self/clear_refs", "5")?;
        let (rss, _) = rss_and_peak_kb()?;
        Ok(PeakRss { start_kb: rss })
    }

    /// The peak since [`PeakRss::start`].
    pub fn finish(&self) -> io::Result<Peak> {
        let (_, hwm) = rss_and_peak_kb()?;
        Ok(Peak {
            peak_mb: hwm as f64 / 1024.0,
            growth_mb: hwm.saturating_sub(self.start_kb) as f64 / 1024.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let stat = "4242 (my prog) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 17 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(cpu_ticks_of(stat), Some(267));
        assert_eq!(cpu_ticks_of("4242 (x) S 1"), None);
        assert_eq!(cpu_ticks_of("no parenthesis at all"), None);
    }

    #[test]
    fn status_lines_parse_in_kilobytes() {
        let status = "Name:\tperfbench\nVmHWM:\t  20480 kB\nVmRSS:\t   1024 kB\nThreads:\t1\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(20_480));
        assert_eq!(status_kb(status, "VmRSS"), Some(1_024));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(status_kb(status, "Threads"), None, "not a kB line");
    }

    #[test]
    fn cpu_time_deltas_are_non_negative_and_grow_with_work() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let after = cpu_seconds().unwrap();
        assert!(after - before >= 0.02, "{before} -> {after}");
    }

    #[test]
    fn peak_sees_a_touched_allocation() {
        let region = PeakRss::start().unwrap();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        drop(block);
        let peak = region.finish().unwrap();
        assert!(peak.growth_mb >= 48.0, "peak grew only {} MB", peak.growth_mb);
        assert!(peak.peak_mb >= peak.growth_mb);
    }
}
