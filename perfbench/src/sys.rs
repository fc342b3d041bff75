//! The few operating-system facilities the benchmark needs beyond `std`:
//! `ppoll(2)` for the single-threaded load generator, `prctl(2)` so child
//! servers die with the benchmark, and `/proc` reads for CPU time and
//! peak memory of itself and its child servers.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

/// Readable.
pub const POLLIN: i16 = 0x001;
/// Writable.
pub const POLLOUT: i16 = 0x004;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Watched descriptor.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Waits up to `timeout` (nanosecond resolution) for an event on `fds`.
///
/// # Errors
///
/// Returns the OS error, except `EINTR`, which counts as a timeout.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd structs and its length is passed as `nfds`;
    // `ts` lives across the call; a null sigmask means "leave the
    // signal mask alone", which ppoll(2) permits.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Makes the child that `command` spawns receive SIGTERM when this
/// process dies, so a benchmark killed from outside leaves no servers
/// behind (a normal exit shuts them down itself).
pub fn die_with_parent(command: &mut Command) {
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGTERM: c_ulong = 15;
    // SAFETY: the closure runs in the forked child before exec and only
    // calls prctl(2), which is async-signal-safe and touches no memory
    // of this process.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGTERM) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    const SC_CLK_TCK: c_int = 2;
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds consumed so far by process `pid`
/// (`"self"` for this process).
///
/// # Errors
///
/// Returns an error if the stat file cannot be read or parsed.
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat line"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat field"))
    };
    Ok((tick(11)? + tick(12)?) / clock_ticks())
}

/// CPU seconds consumed so far by every live thread of process `pid`,
/// from the nanosecond run times in `/proc/<pid>/task/*/schedstat`.
///
/// # Errors
///
/// Returns an error if the task directory cannot be read.
pub fn thread_cpu_seconds(pid: &str) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between listing and reading; it then counts 0.
        let stat = std::fs::read_to_string(task?.path().join("schedstat")).unwrap_or_default();
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Ok(ns as f64 / 1e9)
}

/// `(all, steal)` CPU time of the whole machine so far, in clock ticks,
/// from the first line of `/proc/stat`. Steal is time the hypervisor ran
/// something else while a virtual CPU of this machine wanted to run.
///
/// # Errors
///
/// Returns an error if `/proc/stat` cannot be read or parsed.
pub fn machine_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if fields.len() < 8 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short cpu line"));
    }
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    Ok((fields[..8].iter().sum(), fields[7]))
}

/// Steal above this share of the machine's CPU time marks a stretch of
/// a run as disturbed from outside the machine.
pub const STEAL_LIMIT_PCT: f64 = 5.0;

/// Measures the hypervisor steal over a stretch of a run.
pub struct StealMeter((u64, u64));

impl StealMeter {
    /// Starts measuring now.
    pub fn start() -> StealMeter {
        StealMeter(machine_ticks().unwrap_or((0, 0)))
    }

    /// Steal since the start, as a percentage of the machine's CPU time.
    pub fn pct(&self) -> f64 {
        let (all, steal) = machine_ticks().unwrap_or(self.0);
        100.0 * steal.saturating_sub(self.0 .1) as f64 / all.saturating_sub(self.0 .0).max(1) as f64
    }
}

/// A run's allowance for waiting on a quiet host: at most 5 s per
/// wait and 15 s in all, so a persistently busy host slows a run by a
/// bounded amount instead of stalling it.
pub struct QuietWait {
    left: Duration,
}

impl QuietWait {
    /// A fresh allowance.
    pub fn new() -> QuietWait {
        QuietWait {
            left: Duration::from_secs(15),
        }
    }

    /// Waits, in half-second probes, until a probe sees steal at or
    /// under [`STEAL_LIMIT_PCT`] or the allowance for this wait is spent.
    /// Returns the seconds waited. The benchmark measures a shared
    /// virtual machine; starting a timed stretch while another tenant
    /// holds the host's cores would measure that tenant.
    pub fn wait(&mut self) -> f64 {
        let max = self.left.min(Duration::from_secs(5));
        let start = std::time::Instant::now();
        while start.elapsed() < max {
            let meter = StealMeter::start();
            std::thread::sleep(Duration::from_millis(500));
            if meter.pct() <= STEAL_LIMIT_PCT {
                break;
            }
        }
        self.left = self.left.saturating_sub(start.elapsed());
        start.elapsed().as_secs_f64()
    }
}

/// Indices of the stretches to trust: those with steal at or under
/// [`STEAL_LIMIT_PCT`], or, when fewer than `min` are, the `min` with the
/// least steal (all of them if there are fewer).
pub fn quiet_indices(steal_pcts: &[f64], min: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal_pcts.len()).collect();
    order.sort_by(|&a, &b| steal_pcts[a].total_cmp(&steal_pcts[b]));
    let quiet = order
        .iter()
        .filter(|&&i| steal_pcts[i] <= STEAL_LIMIT_PCT)
        .count();
    order.truncate(quiet.max(min.min(steal_pcts.len())));
    order.sort_unstable();
    order
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// Returns an error if the status file cannot be read or lacks `VmHWM`.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// User + system CPU seconds of this process.
pub fn self_cpu_seconds() -> f64 {
    cpu_seconds("self").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbed_stretches_are_dropped_but_a_minimum_is_kept() {
        let limit = STEAL_LIMIT_PCT;
        assert_eq!(
            quiet_indices(&[1.0, limit + 1.0, 2.0, 0.5], 2),
            vec![0, 2, 3]
        );
        assert_eq!(
            quiet_indices(&[limit + 3.0, limit + 1.0, limit + 2.0], 2),
            vec![1, 2]
        );
        assert_eq!(quiet_indices(&[limit + 1.0], 3), vec![0]);
        assert!(quiet_indices(&[], 3).is_empty());
    }
}
