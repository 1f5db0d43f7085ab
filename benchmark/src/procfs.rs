//! What the benchmark reads from the kernel: CPU time and peak memory
//! of a process out of `/proc`, and the scheduler affinity calls that
//! pin the generator (and, by inheritance, every server it spawns) to
//! one CPU.

use std::io;

/// CPU time a process has consumed, in scheduler clock ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks spent in user mode.
    pub user: u64,
    /// Ticks spent in kernel mode.
    pub system: u64,
}

impl CpuTicks {
    pub fn total(&self) -> u64 {
        self.user + self.system
    }
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted
/// from the *last* `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let system = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, system })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`
/// into kilobytes.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn read_proc(pid: Option<u32>, file: &str) -> io::Result<String> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}"))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// CPU ticks of `pid` (`None` = this process).
pub fn cpu_ticks(pid: Option<u32>) -> io::Result<CpuTicks> {
    parse_stat(&read_proc(pid, "stat")?).ok_or_else(|| malformed("/proc/<pid>/stat"))
}

/// Peak resident set of `pid` in kilobytes.
pub fn vm_hwm_kb(pid: u32) -> io::Result<u64> {
    parse_vm_hwm_kb(&read_proc(Some(pid), "status")?)
        .ok_or_else(|| malformed("/proc/<pid>/status (no VmHWM)"))
}

// The handful of libc entry points the benchmark needs; `std` already
// links libc, and the workspace builds offline without the `libc` crate.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Words in the affinity mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Microseconds per `/proc` clock tick.
pub fn tick_us() -> f64 {
    // SAFETY: `sysconf` takes an integer selector and returns a value;
    // it touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    1e6 / if hz > 0 { hz as f64 } else { 100.0 }
}

/// Pins the calling process to the lowest CPU of its allowed set and
/// returns that CPU's number. Children spawned afterwards inherit the
/// mask. An error means the kernel refused; the caller runs unpinned
/// and says so.
pub fn pin_to_lowest_cpu() -> io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = lowest_set_bit(&mask).ok_or_else(|| malformed("affinity mask (empty)"))?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

fn lowest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let plain = "4242 (lotusx-serve) S 1 4242 4242 0 -1 4194304 913 0 0 0 \
                     187 23 0 0 20 0 3 0 9519 50000 700 18446744073709551615 1 1 0";
        assert_eq!(
            parse_stat(plain),
            Some(CpuTicks {
                user: 187,
                system: 23
            })
        );
        // A hostile command name: spaces and a `)` inside field 2.
        let tricky = "7 (a b) c (d) R 1 7 7 0 -1 0 1 2 3 4 55 66 0 0 20 0 1 0 1 1 1";
        assert_eq!(
            parse_stat(tricky),
            Some(CpuTicks {
                user: 55,
                system: 66
            })
        );
        assert_eq!(parse_stat("7 (x) R 1 2"), None, "too few fields");
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status =
            "Name:\tlotusx-serve\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_proc_entries_parse() {
        assert!(cpu_ticks(None).is_ok());
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
        assert!(tick_us() > 0.0);
    }

    #[test]
    fn lowest_bit() {
        assert_eq!(lowest_set_bit(&[0b1000, 0]), Some(3));
        assert_eq!(lowest_set_bit(&[0, 1]), Some(64));
        assert_eq!(lowest_set_bit(&[0, 0]), None);
    }
}
