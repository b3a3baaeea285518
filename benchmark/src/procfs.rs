//! Readings from `/proc`: CPU nanoseconds from `schedstat`, peak
//! resident memory from `status`, and a child-process runner that polls
//! the child's memory high-water mark while it runs.

use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nanoseconds on CPU from the text of a `schedstat` file: its first
/// field. `None` when the text is not a schedstat line.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    let mut fields = text.split_ascii_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    // A schedstat line has exactly three counters; anything else is
    // not one (a truncated read, or a different file).
    let rest: Vec<&str> = fields.collect();
    (rest.len() == 2 && rest.iter().all(|f| f.parse::<u64>().is_ok())).then_some(on_cpu)
}

/// `VmHWM` (peak resident set) in KiB from the text of a `status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set of a live process in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// CPU nanoseconds per live thread of process `pid` (`"self"` for this
/// process), keyed by thread id.
pub fn task_cpu_ns(pid: &str) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        if let Some(ns) = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            out.insert(tid, ns);
        }
    }
    out
}

/// Sum of CPU nanoseconds over every live thread of process `pid`.
pub fn process_cpu_ns(pid: &str) -> u64 {
    task_cpu_ns(pid).values().sum()
}

/// Measures this process's CPU time over an interval, including threads
/// that start and exit inside it (a training worker pool). Exited
/// threads vanish from `/proc/self/task`, so a sampler thread records
/// every thread's latest reading every 2 ms; a thread loses at most its
/// last 2 ms of accounting. The sampler's own time is excluded.
pub struct CpuMeter {
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<HashMap<String, u64>>,
    baseline: HashMap<String, u64>,
}

impl CpuMeter {
    /// Takes the baseline and starts sampling.
    pub fn start() -> Self {
        let baseline = task_cpu_ns("self");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let me = std::fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()));
            let mut latest: HashMap<String, u64> = HashMap::new();
            loop {
                let done = flag.load(Ordering::SeqCst);
                for (tid, ns) in task_cpu_ns("self") {
                    if Some(&tid) != me.as_ref() {
                        latest.insert(tid, ns);
                    }
                }
                if done {
                    return latest;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        CpuMeter {
            stop,
            sampler,
            baseline,
        }
    }

    /// Stops sampling and returns the CPU time used since the start.
    pub fn stop(self) -> Duration {
        self.stop.store(true, Ordering::SeqCst);
        let latest = self.sampler.join().unwrap_or_default();
        let ns: u64 = latest
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(self.baseline.get(tid).copied().unwrap_or(0)))
            .sum();
        Duration::from_nanos(ns)
    }
}

/// One finished child process, as measured from outside.
#[derive(Debug)]
pub struct Measured {
    /// Spawn to exit.
    pub wall: Duration,
    /// How the child ended.
    pub status: ExitStatus,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Everything the child wrote to stderr.
    pub stderr: String,
    /// The child's `VmHWM` in KiB, polled every 20 ms while it ran
    /// (0 when it exited before the first poll).
    pub peak_rss_kb: u64,
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Runs `cmd` to completion, timing spawn to exit on a dedicated waiter
/// thread (so the poll interval does not round the wall time) and
/// polling the child's peak resident set meanwhile.
///
/// # Errors
///
/// The spawn failure, when the program cannot be started.
pub fn run_measured(cmd: &mut Command) -> std::io::Result<Measured> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let started = Instant::now();
    let mut child: Child = cmd.spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().map(drain);
    let stderr = child.stderr.take().map(drain);
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let _ = tx.send(Instant::now());
        status
    });
    let mut peak_rss_kb = 0;
    let ended = loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(at) => break at,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak_rss_kb = peak_rss_kb.max(kb);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break Instant::now(),
        }
    };
    let status = waiter
        .join()
        .map_err(|_| std::io::Error::other("child waiter panicked"))??;
    let text = |h: Option<JoinHandle<String>>| h.and_then(|h| h.join().ok()).unwrap_or_default();
    Ok(Measured {
        wall: ended - started,
        status,
        stdout: text(stdout),
        stderr: text(stderr),
        peak_rss_kb,
    })
}

/// Removes a scratch directory tree when dropped, so every exit path of
/// a run cleans up after itself.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    /// Creates `dir` (and its parents) fresh.
    ///
    /// # Errors
    ///
    /// The filesystem error when it cannot be created.
    pub fn create(dir: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        Ok(ScratchDir(dir.to_path_buf()))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(parse_schedstat("308327099 8069226 28\n"), Some(308_327_099));
        assert_eq!(parse_schedstat("0 63809 1"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 34"), None, "truncated line");
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tppm\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn this_process_reports_cpu_time() {
        let meter = CpuMeter::start();
        let worker = std::thread::spawn(|| {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed() < Duration::from_millis(30) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        let _ = worker.join();
        // The worker has exited; its time must still be counted.
        assert!(meter.stop() >= Duration::from_millis(20));
    }
}
