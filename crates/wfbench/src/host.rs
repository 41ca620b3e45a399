//! What the benchmark reads from the host: CPU time, memory
//! high-water mark, data-directory placement, and the footprint guard
//! that aborts a workload before page-touch costs pollute its numbers.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Peak RSS plus data directory may not exceed this. On the sandbox
/// this was sized on, touching memory past ≈2 GB costs ~30× more per
/// page, which once read as a throughput "cliff" in the engine.
pub const FOOTPRINT_LIMIT_BYTES: u64 = 1 << 30;

/// CPU time (user + system, all threads, exited ones included)
/// consumed by this process so far.
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, which is all the server's
    // epoll front end supports); the call writes it and keeps no
    // pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Confines every thread this process has now to the lowest CPU it
/// may run on (threads spawned later inherit that), and returns the
/// CPU's number.
///
/// A workload is measured on one core. With one shard and one reactor
/// the submit pipeline is serial — a second core adds no throughput —
/// but on a shared 2-vCPU host every hand-off between threads on
/// different vCPUs costs whatever the hypervisor's wake-up latency is
/// that minute: the same binary read a depth-1 p50 of 99 µs in one
/// run and 309 µs in the next. On one core a hand-off is a context
/// switch.
pub fn confine_to_one_cpu() -> std::io::Result<u32> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status")?;
    let allowed = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed:"))
        .and_then(|l| l.split_whitespace().nth(1)?.rsplit(',').next())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .filter(|mask| *mask != 0)
        .ok_or_else(|| std::io::Error::other("no Cpus_allowed in /proc/self/status"))?;
    let cpu = allowed.trailing_zeros();
    let mask = 1u64 << cpu;
    for task in std::fs::read_dir("/proc/self/task")? {
        let Some(tid) = task?
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `mask` outlives the call, which reads
        // `size_of::<u64>()` bytes from it and keeps no pointer.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
        if rc != 0 {
            let err = std::io::Error::last_os_error();
            // ESRCH: the thread exited between the listing and the call.
            if err.raw_os_error() != Some(3) {
                return Err(err);
            }
        }
    }
    Ok(cpu)
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

/// Current resident set (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The workload outgrew the footprint the sizing rules allow.
#[derive(Debug, PartialEq, Eq)]
pub struct FootprintExceeded {
    pub peak_rss_bytes: u64,
    pub data_dir_bytes: u64,
}

impl std::fmt::Display for FootprintExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "footprint_exceeded: peak RSS {} MiB + data dir {} MiB > {} MiB",
            self.peak_rss_bytes >> 20,
            self.data_dir_bytes >> 20,
            FOOTPRINT_LIMIT_BYTES >> 20
        )
    }
}

/// The guard itself, on explicit readings so it can be tested.
pub fn check_footprint(peak_rss_bytes: u64, data_dir_bytes: u64) -> Result<(), FootprintExceeded> {
    if peak_rss_bytes.saturating_add(data_dir_bytes) > FOOTPRINT_LIMIT_BYTES {
        Err(FootprintExceeded {
            peak_rss_bytes,
            data_dir_bytes,
        })
    } else {
        Ok(())
    }
}

/// File-system type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind.to_owned())
}

/// A scratch directory removed on drop. It lives beside the running
/// executable — inside Cargo's target directory, wherever that is for
/// this build, which is inside the checkout and already ignored —
/// because a benchmark run may write nowhere else. Which file system
/// that is gets recorded.
#[derive(Debug)]
pub struct Scratch {
    pub root: PathBuf,
    pub fs: String,
}

impl Scratch {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let root = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("the executable has no directory"))?
            .join("wfbench-data")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        let fs = fs_type(&std::fs::canonicalize(&root)?);
        Ok(Self { root, fs })
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copies the regular files and subdirectories of `from` into `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// `git rev-parse HEAD` of the working directory, with `-dirty` when
/// tracked files differ from it; `unrecorded` outside a repository
/// (the benchmark driver's checkouts are plain directories).
pub fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
            _ => head,
        },
        None => "unrecorded".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_guard_trips_on_a_fake_reading() {
        assert_eq!(check_footprint(600 << 20, 400 << 20), Ok(()));
        assert_eq!(check_footprint(1 << 30, 0), Ok(()));
        let err = check_footprint(900 << 20, 200 << 20).unwrap_err();
        assert_eq!(err.peak_rss_bytes, 900 << 20);
        assert!(err.to_string().starts_with("footprint_exceeded"));
        assert!(check_footprint(u64::MAX, 1).is_err());
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu() > before, "burned cycles, sum {x}");
        assert!(thread_cpu() > Duration::ZERO && thread_cpu() <= process_cpu());
        // Other tests allocate meanwhile: read the level before the peak.
        let rss = rss_bytes();
        assert!(rss > 0 && peak_rss_bytes() >= rss);
    }

    #[test]
    fn scratch_is_created_copied_and_removed() {
        let scratch = Scratch::create("unit").unwrap();
        let root = scratch.root.clone();
        let a = scratch.sub("a");
        std::fs::create_dir_all(a.join("nested")).unwrap();
        std::fs::write(a.join("x"), b"12345").unwrap();
        std::fs::write(a.join("nested/y"), b"678").unwrap();
        assert_eq!(dir_bytes(&a), 8);
        let b = scratch.sub("b");
        copy_dir(&a, &b).unwrap();
        assert_eq!(dir_bytes(&b), 8);
        assert!(!scratch.fs.is_empty());
        drop(scratch);
        assert!(!root.exists());
    }
}
