//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU of the whole process so far, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let field = |i: usize| -> f64 {
        rest.split_whitespace().nth(i).and_then(|f| f.parse().ok()).expect("numeric stat field")
    };
    // utime and stime are fields 14 and 15 of stat, 12 and 13 after `)`.
    (field(11) + field(12)) * 1e3 / TICKS_PER_S
}

/// Ticks of the whole machine so far, as `(stolen, all)`: `stolen` is
/// time the hypervisor ran something else while a CPU of this machine
/// was ready to run, `all` every tick of every CPU.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat readable");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat starts with the cpu line")
        .split_whitespace()
        .map(|f| f.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already in user and nice).
    (fields[7], fields[..8].iter().sum())
}

/// Share of the machine's ticks since `since` (a [`machine_ticks`]
/// reading) that were stolen.
pub fn stolen_share(since: (u64, u64)) -> f64 {
    let now = machine_ticks();
    (now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_positive() {
        let before = cpu_ms();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_ms() - before >= 50.0, "100 ms of spinning shows as CPU time");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn stolen_ticks_are_a_share_of_all_ticks() {
        let (stolen, all) = machine_ticks();
        assert!(all > 0 && stolen <= all);
        assert!((0.0..=1.0).contains(&stolen_share((stolen, all))));
    }
}
