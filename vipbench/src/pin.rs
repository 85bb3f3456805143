//! Pin the benchmark process to one CPU.
//!
//! On a small virtual machine, a round trip between a client thread and a
//! server thread on two vCPUs waits for the hypervisor to run whichever
//! vCPU was woken, so every metric follows the neighbours' load: unpinned
//! kiosk runs on a two-vCPU guest ranged 6k–12.7k ops/s as hypervisor
//! steal ranged 6–21%. With client and server sharing one CPU, the same
//! runs hold within a few percent. The host record, measured before
//! pinning, still reports how much parallelism the machine offers.

use std::mem::size_of;

/// A `cpu_set_t` of 1024 CPUs, as glibc lays it out.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the affinity calls are refused (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: pid 0 names the calling thread, and the size passed is the
    // size of `allowed`, so the kernel writes only within it.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..16 * 64).find(|&i| allowed.0[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel reads `size_of::<CpuSet>()` bytes of
    // `one`, all of them initialised.
    if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    Some(cpu)
}
