//! Process CPU time and host steal, read from `/proc`.
//!
//! `cpu_us_per_op` divides the process's user+system time by the ops
//! of a phase: it moves with work done, not with time spent waiting,
//! which is how a pricing gain is told from a lock gain.

use std::fs;

/// Clock ticks per second of the `/proc` tick counters. `USER_HZ` is
/// 100 on every Linux architecture this tree builds for; a std-only
/// program cannot ask `sysconf`.
pub const TICKS_PER_SECOND: u64 = 100;

/// User + system ticks of a `/proc/<pid>/stat` line. The command name
/// (field 2) is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_self_stat(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(steal, total)` ticks of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *values.get(7)?;
    Some((steal, values.iter().take(8).sum()))
}

/// CPU microseconds this process (all threads, exited ones included)
/// has used so far. Zero where `/proc` is not readable.
pub fn process_cpu_us() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_self_stat(&s))
        .map_or(0, |ticks| ticks * 1_000_000 / TICKS_PER_SECOND)
}

/// Host `(steal, total)` ticks so far. Zeros where unreadable.
pub fn host_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_stat(&s))
        .unwrap_or((0, 0))
}

/// Share of host CPU time stolen between two [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_stat_counts_from_the_last_parenthesis() {
        let plain = "8845 (cat) R 8837 8845 8837 0 -1 4194304 81 0 0 0 12 34 0 0 20 0 1 0 232451";
        assert_eq!(parse_self_stat(plain), Some(46));
        let nasty = "17 (a b) c) S 1 17 17 0 -1 0 0 0 0 0 250 50 0 0 20 0 9 0 1";
        assert_eq!(parse_self_stat(nasty), Some(300));
        assert_eq!(parse_self_stat("no parenthesis here"), None);
        assert_eq!(parse_self_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn host_stat_reads_steal_and_total() {
        let text = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\nintr 1\n";
        assert_eq!(parse_host_stat(text), Some((35, 1000)));
        assert_eq!(parse_host_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_host_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share((10, 1000), (14, 1200)), 0.02);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
    }

    #[test]
    fn live_readings_are_monotonic() {
        let a = process_cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() >= a);
        let (steal, total) = host_ticks();
        assert!(steal <= total);
    }
}
