//! Reads the kernel's per-task accounting from `/proc`.
//!
//! CPU comes from `schedstat`: field 1 is time spent running, field 2 time
//! spent runnable but waiting for a CPU (both in nanoseconds).
//! `/proc/<pid>/schedstat` covers the main thread only, so process totals
//! sum `/proc/<pid>/task/*/schedstat` over every live thread.

use std::fs;
use std::io;

/// Running and run-queue-wait time of one or more tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cpu {
    /// Nanoseconds on a CPU (schedstat field 1).
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting (schedstat field 2).
    pub wait_ns: u64,
    /// Tasks summed.
    pub tasks: u64,
}

impl Cpu {
    /// Field-wise difference since `earlier` (saturating: a thread that
    /// exited in between takes its time with it).
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            tasks: self.tasks,
        }
    }
}

/// Parses one schedstat line (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(line: &str) -> Option<(u64, u64)> {
    let mut f = line.split_whitespace();
    let run = f.next()?.parse().ok()?;
    let wait = f.next()?.parse().ok()?;
    Some((run, wait))
}

/// Sums schedstat lines, one per task.
pub fn sum_schedstats<'a>(lines: impl IntoIterator<Item = &'a str>) -> Cpu {
    let mut cpu = Cpu::default();
    for (run, wait) in lines.into_iter().filter_map(parse_schedstat) {
        cpu.run_ns += run;
        cpu.wait_ns += wait;
        cpu.tasks += 1;
    }
    cpu
}

fn task_dirs(pid: u32) -> io::Result<Vec<std::path::PathBuf>> {
    let mut dirs: Vec<_> = fs::read_dir(format!("/proc/{pid}/task"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// CPU of every live thread of `pid`.
pub fn process_cpu(pid: u32) -> io::Result<Cpu> {
    let stats: Vec<String> = task_dirs(pid)?
        .iter()
        .filter_map(|d| fs::read_to_string(d.join("schedstat")).ok())
        .collect();
    Ok(sum_schedstats(stats.iter().map(String::as_str)))
}

/// CPU of the threads of `pid` whose name (`comm`) is `name`.
pub fn named_thread_cpu(pid: u32, name: &str) -> io::Result<Cpu> {
    let mut stats = Vec::new();
    for d in task_dirs(pid)? {
        let comm = fs::read_to_string(d.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            stats.extend(fs::read_to_string(d.join("schedstat")).ok());
        }
    }
    Ok(sum_schedstats(stats.iter().map(String::as_str)))
}

/// CPU of the calling thread.
pub fn this_thread_cpu() -> io::Result<Cpu> {
    let s = fs::read_to_string("/proc/thread-self/schedstat")?;
    Ok(sum_schedstats([s.as_str()]))
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
pub fn status_field(pid: u32, key: &str) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no {key} in status")))
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    Ok(status_field(pid, "VmHWM")? as f64 / 1024.0)
}

/// Parses the aggregate `cpu` line of `/proc/stat` into steal time in
/// nanoseconds (field 8, in USER_HZ ticks, which Linux fixes at 100).
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 10_000_000)
}

/// Time the hypervisor ran something else while this machine's CPUs had
/// work (all CPUs summed), in nanoseconds.
pub fn steal_ns() -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/stat")?;
    parse_steal(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no cpu line in /proc/stat"))
}

/// The kernel release and CPU model, for the layout line.
pub fn kernel_and_cpu() -> (String, String) {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (kernel, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn sums_every_task_line() {
        let cpu = sum_schedstats(["100 7 3\n", "250 1 9\n", "garbage\n", "50 2 1"]);
        assert_eq!(
            cpu,
            Cpu {
                run_ns: 400,
                wait_ns: 10,
                tasks: 3
            }
        );
    }

    fn burn(d: Duration) {
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < d {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn process_total_covers_threads_beyond_main() {
        // A helper thread burns CPU, reports its own schedstat, then stays
        // alive (parked on the barrier) while the process total is read.
        let pid = std::process::id();
        let done = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let (d, r) = (Arc::clone(&done), Arc::clone(&release));
        let helper = std::thread::spawn(move || {
            burn(Duration::from_millis(40));
            let own = this_thread_cpu().expect("thread schedstat");
            d.wait();
            r.wait();
            own
        });
        done.wait();
        let total = process_cpu(pid).expect("process schedstat");
        let main_only = sum_schedstats([fs::read_to_string(format!("/proc/{pid}/schedstat"))
            .expect("main schedstat")
            .as_str()]);
        release.wait();
        let own = helper.join().expect("helper thread");
        assert!(own.run_ns >= 20_000_000, "helper ran {} ns", own.run_ns);
        assert!(total.tasks >= 2);
        // The main thread's own file misses the helper's time entirely;
        // the task sum holds it (less a sliver: main was read later).
        let beyond_main = total.run_ns.saturating_sub(main_only.run_ns);
        assert!(beyond_main >= own.run_ns * 9 / 10, "{total:?} vs {own:?}");
    }

    #[test]
    fn steal_is_the_eighth_field() {
        let stat = "cpu  95940 0 10450 359981 857 0 507 7646 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(76_460_000_000));
        assert!(steal_ns().is_ok());
    }

    #[test]
    fn reads_status_fields() {
        let pid = std::process::id();
        assert!(status_field(pid, "Threads").unwrap() >= 1);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }
}
