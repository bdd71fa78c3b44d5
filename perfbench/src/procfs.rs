//! CPU time and resident-set readings from `/proc`.
//!
//! `utime`/`stime` in `/proc/<pid>/stat` count every thread of the
//! process, live or exited, in clock ticks. Linux reports them in
//! `USER_HZ`, which is 100 on every architecture it supports, so one
//! tick is 10 ms; a timed phase of seconds keeps the rounding below
//! 0.1%.

use std::fs;
use std::io;

const NANOS_PER_TICK: u64 = 10_000_000;

/// Which process to read: this one, or a child by pid.
#[derive(Clone, Copy, Debug)]
pub enum Proc {
    /// The benchmark's own process.
    Current,
    /// Another process, such as the daemon.
    Pid(u32),
}

impl Proc {
    fn path(self, file: &str) -> String {
        match self {
            Proc::Current => format!("/proc/self/{file}"),
            Proc::Pid(pid) => format!("/proc/{pid}/{file}"),
        }
    }

    /// User plus system CPU consumed so far, in nanoseconds.
    pub fn cpu_nanos(self) -> io::Result<u64> {
        let stat = fs::read_to_string(self.path("stat"))?;
        parse_cpu_ticks(&stat)
            .map(|ticks| ticks * NANOS_PER_TICK)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat line"))
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(self) -> io::Result<u64> {
        let status = fs::read_to_string(self.path("status"))?;
        parse_status_kib(&status, "VmHWM")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
    }

    /// Resets the peak resident set size to the current one, so the
    /// next [`Proc::peak_rss_kib`] reports only what happens after now.
    pub fn reset_peak_rss(self) -> io::Result<()> {
        fs::write(self.path("clear_refs"), "5")
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in KiB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_name_with_spaces_and_parens() {
        let stat = "4242 (stems serve) (x)) S 1 4242 4242 0 -1 4194304 9000 0 0 0 \
                    1234 56 0 0 20 0 3 0 777 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("no parens here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWMx: 5 kB", "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_available_for_this_process() {
        assert!(Proc::Current.cpu_nanos().is_ok());
        assert!(Proc::Current.peak_rss_kib().unwrap() > 0);
    }
}
