//! Process CPU time and peak resident set, read from `/proc/self`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this repo builds on; asking libc
/// would need a dependency the offline build does not have.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After `comm` comes field 3 (`state`); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_a_hostile_comm() {
        let stat = "4242 (tlb bench) x) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 19 0 0 20 0 2 0 100 200 300";
        assert_eq!(parse_cpu_seconds(stat), Some(7.5));
        assert_eq!(parse_cpu_seconds("no comm here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_kib_to_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   68448 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(68448.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}
