//! CPU affinity of the calling thread (Linux `sched_{get,set}affinity`).
//!
//! The in-process workloads run one compute thread at a time: the caller
//! only waits while the single pool worker computes. Pinning both to one
//! vCPU keeps every hand-off on that vCPU, so a step never waits for the
//! hypervisor to run the other vCPU. Threads spawned after `set` inherit
//! the mask.

use std::io;

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    Ok((0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread to `cpus`.
pub fn set(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; WORDS];
    for &c in cpus {
        if c >= WORDS * 64 {
            return Err(format!("cpu {c} out of range"));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly `cpusetsize` bytes,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_restore_round_trip() {
        let all = allowed().unwrap();
        assert!(!all.is_empty());
        let last = *all.last().unwrap();
        std::thread::spawn(move || {
            set(&[last]).unwrap();
            assert_eq!(allowed().unwrap(), vec![last]);
            let inherited = std::thread::spawn(|| allowed().unwrap()).join().unwrap();
            assert_eq!(inherited, vec![last]);
        })
        .join()
        .unwrap();
        assert_eq!(allowed().unwrap(), all, "other threads keep their mask");
    }
}
