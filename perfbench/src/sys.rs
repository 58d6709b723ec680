//! What the run reads from its environment: the thread's clocks and
//! machine counters from `/proc`, the checkout's git revision, and
//! file-system helpers for the run's work directory.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// The calling thread's clocks: on-CPU time and run-queue wait, which
/// together are the time it was running or ready to run. Neither counts
/// time the hypervisor stole from the VM (measured: the thread CPU clock
/// lags wall time by exactly the vCPU's steal) or time spent blocked in
/// I/O.
///
/// Run-queue wait comes from `/proc/thread-self/schedstat` (kept open, so
/// a reading is one seek and one read): the kernel charges a wait when the
/// thread gets a CPU back, inside the interval that waited. On-CPU time
/// comes from the thread CPU clock instead of schedstat's first field,
/// which only advances at scheduler ticks (every 4 ms on the reference
/// kernel) and at blocking points, so it hands a whole tick of earlier
/// work to whichever interval blocks next — a WAL append that fsyncs
/// showed three times its own wall time as busy.
pub struct ThreadClock {
    schedstat: File,
    buf: String,
}

impl ThreadClock {
    /// Opens the calling thread's clocks.
    ///
    /// # Errors
    ///
    /// Fails where the kernel provides either clock.
    pub fn open() -> Result<ThreadClock, String> {
        let schedstat = File::open("/proc/thread-self/schedstat")
            .map_err(|e| format!("opening /proc/thread-self/schedstat: {e}"))?;
        let mut clock = ThreadClock {
            schedstat,
            buf: String::with_capacity(64),
        };
        match (thread_cpu_ns(), clock.wait_ns()) {
            (Some(_), Some(_)) => Ok(clock),
            _ => Err("the thread CPU clock or run-queue wait is unreadable".into()),
        }
    }

    /// `(on-CPU ns, run-queue wait ns)` so far.
    pub fn read(&mut self) -> (u64, u64) {
        (thread_cpu_ns().unwrap_or(0), self.wait_ns().unwrap_or(0))
    }

    /// On-CPU plus run-queue wait so far, in nanoseconds: differences of
    /// two readings are the service time of what ran between them.
    pub fn service_ns(&mut self) -> u64 {
        let (busy, wait) = self.read();
        busy + wait
    }

    fn wait_ns(&mut self) -> Option<u64> {
        self.buf.clear();
        self.schedstat.seek(SeekFrom::Start(0)).ok()?;
        self.schedstat.read_to_string(&mut self.buf).ok()?;
        self.buf.split_whitespace().nth(1)?.parse().ok()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in nanoseconds.
fn thread_cpu_ns() -> Option<u64> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    (rc == 0).then(|| time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64)
}

/// Steal time of the whole machine so far, in seconds (the `steal` field
/// of `/proc/stat`, in USER_HZ = 100 ticks per second).
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The revision checked out in `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Copies the regular files of the flat directory `from` into a fresh
/// directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A directory removed, with everything in it, when dropped.
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    /// Creates `path` afresh.
    pub fn create(path: std::path::PathBuf) -> std::io::Result<WorkDir> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
