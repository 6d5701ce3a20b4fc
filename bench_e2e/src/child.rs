//! Child-process hygiene. Every `monet` the harness starts runs in its
//! own process group with a hard timeout, and its peak memory is
//! sampled while it runs. A group that outlives its deadline, or the harness itself (SIGINT, SIGTERM,
//! panic), is killed as a whole, so a `proc:<p>` supervisor never
//! leaves workers behind.
//!
//! The repository vendors no `libc` crate; like `mn_comm::sys`, this
//! declares the few POSIX calls it needs directly.

use std::os::unix::process::CommandExt;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is sampled: one small `/proc`
/// read, ≈ 0.2 % of one core.
const RSS_POLL: Duration = Duration::from_millis(10);

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs,
/// of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn _exit(code: i32) -> !;
}

/// Process groups of the children alive right now; 0 = free slot. Read
/// by the signal handler, so plain atomics and nothing else.
static LIVE_GROUPS: [AtomicI32; 8] = [const { AtomicI32::new(0) }; 8];

fn register_group(pgid: i32) {
    for slot in &LIVE_GROUPS {
        if slot
            .compare_exchange(0, pgid, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
    }
    // The harness runs at most a server and one batch child at a time.
    panic!("more than {} live child groups", LIVE_GROUPS.len());
}

fn unregister_group(pgid: i32) {
    for slot in &LIVE_GROUPS {
        if slot
            .compare_exchange(pgid, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
    }
}

fn kill_group(pgid: i32) {
    // SAFETY: kill(2) on a process group this harness created; a group
    // that is already gone makes it return -1, which is fine.
    unsafe { kill(-pgid, SIGKILL) };
}

/// Kill every registered child group (the panic and error paths, and
/// the signal handler: atomics and `kill(2)` only, so it is
/// async-signal-safe).
pub fn kill_live_groups() {
    for slot in &LIVE_GROUPS {
        let pgid = slot.load(Ordering::SeqCst);
        if pgid != 0 {
            kill_group(pgid);
        }
    }
}

extern "C" fn on_fatal_signal(_sig: i32) {
    kill_live_groups();
    // SAFETY: _exit(2) is async-signal-safe; 130 = the shell's code
    // for "interrupted".
    unsafe { _exit(130) }
}

/// Make SIGINT and SIGTERM take the children down with the harness.
pub fn install_signal_cleanup() {
    for sig in [SIGINT, SIGTERM] {
        // SAFETY: the handler only calls async-signal-safe functions
        // and reads atomics.
        unsafe { signal(sig, on_fatal_signal as *const () as usize) };
    }
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// True when the harness killed it at its deadline.
    pub timed_out: bool,
    /// Spawn → reaped.
    pub wall_s: f64,
    /// Share of the machine's CPU time over that interval that the
    /// hypervisor gave to someone else (see [`steal_jiffies`]).
    pub stolen_frac: f64,
    /// Peak resident set of the child, in MB: its `VmHWM`, sampled
    /// every [`RSS_POLL`] while it runs. `ru_maxrss` would be simpler
    /// but is not the child's own: a spawned child starts on its
    /// parent's memory image, and Linux folds that image's high-water
    /// mark into the child's `ru_maxrss` at `exec`, so it never reads
    /// below this harness's own peak. It is only the fallback for a
    /// child too short-lived to sample. For a `proc:<p>` run this is
    /// the supervisor alone.
    pub peak_rss_mb: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

/// A started child in its own process group, not yet reaped.
pub struct Running {
    // Held so the pipes (if any) stay open; never waited through std,
    // which would race `wait4`.
    child: Child,
    pgid: i32,
    started: Instant,
    steal_at_start: u64,
    reaped: bool,
}

/// Start `cmd` in a new process group and register it for clean-up.
pub fn spawn(cmd: &mut Command) -> std::io::Result<Running> {
    let started = Instant::now();
    let steal_at_start = steal_jiffies();
    let child = cmd.process_group(0).spawn()?;
    let pgid = child.id() as i32;
    register_group(pgid);
    Ok(Running {
        child,
        pgid,
        started,
        steal_at_start,
        reaped: false,
    })
}

impl Running {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's stdout pipe, when it was spawned with one.
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Block until the child exits or `timeout` passes; at the
    /// deadline the whole group is killed and the exit is marked
    /// `timed_out`.
    pub fn wait(mut self, timeout: Duration) -> Exit {
        let pgid = self.pgid;
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut status = 0i32;
        let mut usage = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_maxrss: 0,
            rest: [0; 13],
        };
        let (ret, (timed_out, polled_rss_mb)) = std::thread::scope(|scope| {
            let watchdog = scope.spawn(move || {
                // Between deadline checks, sample the child's own
                // high-water mark (see `Exit::peak_rss_mb`).
                let deadline = Instant::now() + timeout;
                let mut hwm: Option<f64> = None;
                loop {
                    match done_rx.recv_timeout(RSS_POLL) {
                        Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                            hwm = vm_hwm_mb(pgid as u32).or(hwm);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            kill_group(pgid);
                            return (true, hwm);
                        }
                        _ => return (false, hwm),
                    }
                }
            });
            // SAFETY: wait4(2) on our own child's pid with valid
            // out-pointers; std never waits on this child, so the pid
            // cannot have been reaped (and recycled) before this call.
            let ret = unsafe { wait4(pgid, &mut status, 0, &mut usage) };
            drop(done_tx);
            (ret, watchdog.join().expect("watchdog thread"))
        });
        let wall_s = self.started.elapsed().as_secs_f64();
        self.reaped = true;
        // The leader is gone; anything it left in its group goes too.
        kill_group(pgid);
        unregister_group(pgid);
        let code = if ret == pgid && status & 0x7f == 0 {
            Some((status >> 8) & 0xff)
        } else {
            None
        };
        Exit {
            code,
            timed_out,
            wall_s,
            stolen_frac: stolen_frac(self.steal_at_start, wall_s),
            peak_rss_mb: polled_rss_mb.unwrap_or(usage.ru_maxrss as f64 / 1024.0),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            // Abandoned on an error path: kill and reap so nothing
            // outlives the harness.
            kill_group(self.pgid);
            let _ = self.child.wait();
            unregister_group(self.pgid);
        }
    }
}

/// Spawn and wait in one step.
pub fn run(cmd: &mut Command, timeout: Duration) -> std::io::Result<Exit> {
    Ok(spawn(cmd)?.wait(timeout))
}

/// CPU time the hypervisor has taken from this (virtual) machine since
/// boot, in clock ticks: the `steal` column of `/proc/stat`. On the
/// 2-vCPU reference box a neighbour's burst stretches a learn two- to
/// ten-fold for tens of seconds; a timing taken then measures the
/// neighbour, so the harness marks such samples and keeps them out of
/// its medians. 0 where the kernel does not report steal.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Steal since `steal_before` as a share of the CPU time the machine
/// had in `wall_s` seconds (`USER_HZ` = 100 ticks per second and CPU).
pub fn stolen_frac(steal_before: u64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let ticks = wall_s * 100.0 * cpus as f64;
    if ticks <= 0.0 {
        return 0.0;
    }
    steal_jiffies().saturating_sub(steal_before) as f64 / ticks
}

/// Peak resident set (`VmHWM`) of a live process, in MB — for the
/// server, which is measured while it still runs.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_wall_clock_and_rss_are_collected() {
        let exit = run(
            Command::new("sh").args(["-c", "exit 7"]),
            Duration::from_secs(10),
        )
        .expect("spawn sh");
        assert_eq!(exit.code, Some(7));
        assert!(!exit.timed_out && !exit.success());
        assert!(exit.peak_rss_mb > 0.0 && exit.wall_s > 0.0);
        let ok = run(&mut Command::new("true"), Duration::from_secs(10)).expect("spawn true");
        assert!(ok.success());
    }

    #[test]
    fn a_child_past_its_deadline_is_killed_with_its_group() {
        // The shell starts a grandchild in the same group; both must
        // be gone when wait returns.
        let started = Instant::now();
        let exit = run(
            Command::new("sh").args(["-c", "sleep 30 & sleep 30"]),
            Duration::from_millis(200),
        )
        .expect("spawn sh");
        assert!(exit.timed_out && exit.code.is_none() && !exit.success());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn steal_is_a_monotone_counter_and_a_share_of_machine_time() {
        let before = steal_jiffies();
        assert!(steal_jiffies() >= before);
        // Nothing stolen since "now" over a positive interval, and no
        // division by a zero-length one.
        assert!(stolen_frac(steal_jiffies(), 1.0) < 0.5);
        assert_eq!(stolen_frac(u64::MAX, 1.0), 0.0);
        assert_eq!(stolen_frac(0, 0.0), 0.0);
    }

    #[test]
    fn vm_hwm_reads_this_process() {
        assert!(vm_hwm_mb(std::process::id()).expect("own status") > 0.0);
        assert_eq!(vm_hwm_mb(0x7fff_fff0), None);
    }
}
