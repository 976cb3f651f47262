//! Timing on a host that is not ours alone.
//!
//! The benchmark runs on two cores of a shared host, and its neighbours
//! show in two ways, neither of them the program's doing.
//!
//! **The cores are taken away.** The hypervisor gives them to other
//! tenants for milliseconds at a time (`steal` in `/proc/stat`: at times
//! 30-40 % of the time the benchmark wanted to run), and how soon it wakes
//! the second core decides whether a short parallel section runs on two
//! cores or on one after the other (the same set-up read 0.28 s all
//! morning and 0.44 s all afternoon, on the wall clock). [`CpuClock`] is
//! the process's CPU-time clock, which counts what the program's threads
//! executed and stands still while they are off their cores. Every request
//! served in process, every set-up and every recovery is timed on it. For
//! a call that neither sleeps nor waits for I/O — the journal is written,
//! never synced — that is the wall-clock time the call takes on a core of
//! its own; for one that fans out (environment build) it is the work done,
//! however the host spread it. It cannot show a gain from running work in
//! parallel, and it cannot mistake the host's mood for one.
//!
//! **The memory system is shared.** Code bound by arithmetic is untouched
//! by the neighbours (a multiply-add chain reads within 3 % all day), but
//! code that misses the private cache — all of the planner, whose distance
//! matrix is past 2 MB on every workload but the smallest — runs 1.5x to
//! 2x slower while a neighbour is busy, in spells of seconds, and never
//! faster than on a quiet host.
//!
//! [`Probe`] reads that state directly: the time of a chain of dependent
//! loads over a buffer far larger than the private cache, so that every
//! load is served by the shared part of the memory system. A reading costs
//! a fraction of a millisecond and belongs to the harness, not to the
//! program under test, so it cannot move with a change to the program.
//! Readings taken beside a timed sample say how calm the host was when the
//! sample was taken; [`calmest`] keeps the samples of the calmest quarter.
//! The choice never looks at the samples themselves, so it does not favour
//! requests that happened to be cheap.

use std::hint::black_box;

use crate::rng::SplitMix64;

/// Slots of the chased buffer: 4 Mi x 4 B = 16 MiB, eight private caches.
const SLOTS: usize = 4 << 20;
/// Dependent loads per reading (~0.2 ms on a calm host; they touch 256 KiB
/// of the 2 MiB private cache).
const STEPS: usize = 4096;

/// The process's CPU-time clock (`CLOCK_PROCESS_CPUTIME_ID`): what all its
/// threads have executed. While a timing runs the harness has no thread of
/// its own at work (the wire cycles, which do, are on the wall clock).
pub struct CpuClock(u64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only target this package supports: it reads
    // /proc); the call writes it and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

impl CpuClock {
    pub fn now() -> CpuClock {
        CpuClock(process_cpu_ns())
    }

    /// Milliseconds the process's threads have been on a core since
    /// `now()`.
    pub fn elapsed_ms(&self) -> f64 {
        (process_cpu_ns() - self.0) as f64 / 1e6
    }
}

pub struct Probe {
    next: Vec<u32>,
    at: u32,
}

impl Probe {
    /// One random cycle through all slots (Sattolo's shuffle), so that no
    /// prefetcher can follow the chain.
    pub fn new() -> Probe {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut rng = SplitMix64::new(0x5EED_CA1A);
        for i in (1..SLOTS).rev() {
            next.swap(i, rng.below(i));
        }
        Probe { next, at: 0 }
    }

    /// Nanoseconds per dependent load, now (on the CPU clock: a core taken
    /// away mid-reading says nothing about the memory system).
    pub fn read(&mut self) -> f64 {
        let t0 = CpuClock::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        t0.elapsed_ms() * 1e6 / STEPS as f64
    }

    /// What the buffer adds to the process's resident set, in MB.
    pub fn resident_mb(&self) -> f64 {
        (self.next.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }
}

/// The samples whose probe reading is among the lowest `1 / share` of
/// them (at least one), in the order taken.
pub fn calmest(samples: &[(f64, f64)], share: usize) -> Vec<f64> {
    let mut readings: Vec<f64> = samples.iter().map(|&(_, reading)| reading).collect();
    readings.sort_by(f64::total_cmp);
    let Some(&limit) = readings.get(readings.len().div_ceil(share).saturating_sub(1)) else {
        return Vec::new();
    };
    samples
        .iter()
        .filter(|&&(_, reading)| reading <= limit)
        .map(|&(sample, _)| sample)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calmest_keeps_the_lowest_readings_whatever_the_samples() {
        // (sample, reading): the slow sample was taken on a calm host.
        let taken = [(9.0, 100.0), (1.0, 180.0), (2.0, 120.0), (3.0, 110.0)];
        assert_eq!(calmest(&taken, 4), vec![9.0]);
        assert_eq!(calmest(&taken, 2), vec![9.0, 3.0]);
        assert_eq!(calmest(&taken, 1).len(), 4);
        assert_eq!(calmest(&taken[..1], 4), vec![9.0]);
        assert!(calmest(&[], 4).is_empty());
    }

    /// Other tests run on other threads of this process and count too, so
    /// all that can be held here is that the clock moves with work.
    #[test]
    fn the_cpu_clock_moves_with_work() {
        let mut probe = Probe::new();
        let t0 = CpuClock::now();
        let reading = probe.read();
        let after_one = t0.elapsed_ms();
        probe.read();
        assert!(reading > 0.0 && after_one > 0.0 && t0.elapsed_ms() > after_one);
        assert_eq!(probe.resident_mb(), 16.0);
    }
}
