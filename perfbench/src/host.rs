//! Facts about the host: the fingerprint every record carries,
//! hypervisor steal, and pinning the process to one CPU.

/// CPUs this process may run on.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and how the numbers were taken.
pub struct Host {
    /// CPUs the benchmark ran on (1: it pins itself, see [`pin_to_one_cpu`]).
    pub nproc: usize,
    /// CPUs the process could use before pinning.
    pub host_nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Host {
    /// Reads the fingerprint of this process's host; `host_nproc` is the
    /// CPU count before pinning.
    pub fn detect(host_nproc: usize) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: available_cpus(),
            host_nproc,
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    pub(crate) fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"host_nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
            self.nproc,
            self.host_nproc,
            crate::report::quote(&self.cpu),
            crate::report::quote(self.rustc),
            crate::report::quote(self.profile)
        )
    }
}

/// Host-wide `(steal, total)` CPU ticks so far, from `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU. Call it before
/// any thread is spawned.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable cpu_set_t of `size` bytes; the
    // kernel writes at most `size` bytes into it.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..1024)
        .find(|&c| (allowed.0[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live cpu_set_t of `size` bytes; the kernel only
    // reads it.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}
