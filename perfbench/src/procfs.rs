//! Linux `/proc` readers (process and thread CPU time, peak resident set,
//! host steal time, thread states by name) and thread CPU placement.
//! Parsers take the file text so they are testable without a live `/proc`.

use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// A CPU set as the kernel's affinity calls take it (1024 CPUs).
pub type CpuMask = [u64; 16];

/// The calling thread's allowed CPUs.
pub fn thread_affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`, which is a live local array of exactly that size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread (and threads it spawns later) to `mask`.
/// Placement only steadies timings, so failure is ignored.
pub fn set_thread_affinity(mask: &CpuMask) {
    // SAFETY: the kernel reads `size_of_val(mask)` bytes from `mask`, a
    // live array of exactly that size; no memory is written.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

/// A mask holding only the first (or, with `last`, the last) CPU allowed
/// by `allowed`; `None` if `allowed` is empty.
pub fn single_cpu(allowed: &CpuMask, last: bool) -> Option<CpuMask> {
    let cpus: Vec<usize> = (0..allowed.len() * 64)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let cpu = if last { cpus.last()? } else { cpus.first()? };
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    Some(mask)
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second, the unit of the CPU fields in `stat` files.
fn ticks_per_second() -> f64 {
    // SAFETY: sysconf takes an integer selector, touches no caller memory,
    // and returns -1 for an unknown selector, which is handled below.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Fields of a `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` line
/// that the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStat {
    /// Scheduler state letter (`R`, `S`, `D`, ...).
    pub state: char,
    /// User-mode CPU in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU in clock ticks.
    pub stime: u64,
}

/// Parses a `stat` line. The command name is parenthesised and may itself
/// contain spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_task_stat(text: &str) -> Option<TaskStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime 14, stime 15.
    Some(TaskStat {
        state: fields.first()?.chars().next()?,
        utime: fields.get(11)?.parse().ok()?,
        stime: fields.get(12)?.parse().ok()?,
    })
}

fn read_stat(path: &str) -> Option<TaskStat> {
    parse_task_stat(&fs::read_to_string(path).ok()?)
}

fn cpu_seconds(stat: TaskStat) -> f64 {
    (stat.utime + stat.stime) as f64 / ticks_per_second()
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_cpu_s() -> f64 {
    read_stat("/proc/self/stat").map_or(0.0, cpu_seconds)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    read_stat("/proc/thread-self/stat").map_or(0.0, cpu_seconds)
}

/// Parses the `VmHWM` line of a `status` file into bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm(&s))
        .map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Resets the peak-resident mark to the live resident set, so the next
/// [`peak_rss_mib`] reports only what follows. The allocator first hands
/// its free memory back to the kernel: heap freed by an earlier op or a
/// stopped daemon would otherwise stay resident and count towards the next
/// peak, or not, depending on which arena the next op's threads draw from
/// (a large world's peak read 595 or 725 MiB from run to run that way).
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists; it
    // touches no memory the program owns.
    let _ = unsafe { malloc_trim(0) };
    // Ignored on failure: the mark then keeps counting from process start,
    // which only overstates the peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    /// Sum of every state's ticks.
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest fields are already counted in user/nice.
    let counted = values.len().min(8);
    Some(HostTicks {
        total: values[..counted].iter().sum(),
        steal: values.get(7).copied().unwrap_or(0),
    })
}

/// The host's CPU tick counters now.
pub fn host_ticks() -> HostTicks {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_ticks(&s))
        .unwrap_or_default()
}

/// Share of host CPU time stolen between two readings.
pub fn steal_share(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Scheduler states of every thread of this process named `name`.
pub fn thread_states(name: &str) -> Vec<char> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter(|e| fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim_end() == name))
        .filter_map(|e| parse_task_stat(&fs::read_to_string(e.path().join("stat")).ok()?))
        .map(|s| s.state)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_stat_survives_parens_and_spaces_in_name() {
        let line = "4242 (we(ird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 42 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        let s = parse_task_stat(line).unwrap();
        assert_eq!(s.state, 'S');
        assert_eq!(s.utime, 731);
        assert_eq!(s.stime, 42);
    }

    #[test]
    fn task_stat_rejects_truncated_lines() {
        assert_eq!(parse_task_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_task_stat("no parens at all"), None);
    }

    #[test]
    fn live_process_stat_parses() {
        let text = fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_task_stat(&text).is_some());
        assert!(process_cpu_s() >= 0.0);
    }

    #[test]
    fn single_cpu_picks_the_first_or_last_allowed() {
        let mut allowed: CpuMask = [0; 16];
        allowed[0] = 0b1010;
        allowed[1] = 1;
        let first = single_cpu(&allowed, false).unwrap();
        assert_eq!(first[0], 0b10);
        let last = single_cpu(&allowed, true).unwrap();
        assert_eq!((last[0], last[1]), (0, 1));
        assert_eq!(single_cpu(&[0; 16], true), None);
        assert!(thread_affinity().is_some_and(|m| m.iter().any(|&w| w != 0)));
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn host_ticks_sum_the_first_eight_states() {
        let stat = "cpu  10 1 5 100 2 0 1 7 50 0\ncpu0 5 0 2 50 1 0 0 3 0 0\n";
        let t = parse_host_ticks(stat).unwrap();
        assert_eq!(t.total, 126);
        assert_eq!(t.steal, 7);
        let later = HostTicks {
            total: 226,
            steal: 32,
        };
        assert!((steal_share(t, later) - 0.25).abs() < 1e-12);
        assert_eq!(steal_share(t, t), 0.0);
    }

    #[test]
    fn named_threads_are_found() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("pb-probe".to_owned())
            .spawn(move || rx.recv())
            .unwrap();
        // The probe blocks on its channel, so once listed it is asleep.
        let mut states = thread_states("pb-probe");
        while states != ['S'] {
            std::thread::yield_now();
            states = thread_states("pb-probe");
        }
        tx.send(()).unwrap();
        h.join().unwrap().unwrap();
        assert!(thread_states("no-such-thread").is_empty());
    }
}
