//! A fixed reference kernel that gauges the host's current speed.
//!
//! On a shared host the speed of a core drifts, over seconds to
//! minutes, by up to 2x as other tenants of the host load its caches
//! and memory bus. Thread CPU time drifts with it, so a rate in pages
//! per host second measures the neighbours as much as the simulator.
//! A pass of this kernel, timed beside each round, slows down with the
//! host, so the benchmark reports host time in *reference seconds*:
//! host seconds rescaled to a host that runs one pass in
//! [`REFERENCE_PASS_S`]. Most of the drift cancels. The kernel is the
//! benchmark's own code, so a change to the simulator moves the
//! rescaled times and not the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one pass on the reference host (about an unloaded
/// core of a shared 2-vCPU Xeon virtual machine).
pub const REFERENCE_PASS_S: f64 = 0.004;

/// Kernel runs per pass.
const SUB_PASSES: usize = 3;
/// Keys sorted per kernel run.
const SORT_LEN: usize = 150_000;
/// Words in the table the kernel updates at random: 32 MiB, more than
/// the last-level cache keeps for one core of a shared host.
const TABLE_LEN: usize = 1 << 22;
/// Random read-modify-writes per kernel run.
const TABLE_UPDATES: usize = 200_000;

/// `host_s` host seconds, measured beside passes of `pass_s`, in
/// reference seconds.
pub fn to_reference_s(host_s: f64, pass_s: f64) -> f64 {
    host_s * REFERENCE_PASS_S / pass_s
}

/// The kernel's buffers, allocated and touched once, so that a pass
/// takes no page faults. The table stays resident for the whole run:
/// [`Reference::RESIDENT_MIB`] of the process's peak memory are its.
pub struct Reference {
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Reference {
    /// Resident MiB the buffers hold.
    pub const RESIDENT_MIB: f64 = ((TABLE_LEN + SORT_LEN) * 8) as f64 / (1 << 20) as f64;

    /// Builds (and so touches) the buffers.
    pub fn new() -> Self {
        Reference {
            table: (0..TABLE_LEN as u64).collect(),
            keys: (0..SORT_LEN as u64).collect(),
        }
    }

    /// Host seconds one pass takes now: the fastest of [`SUB_PASSES`]
    /// back-to-back runs of the kernel, which drops an interrupt or a
    /// preemption that hits one of them.
    pub fn pass_s(&mut self) -> f64 {
        (0..SUB_PASSES)
            .map(|_| {
                let clock = Instant::now();
                black_box(kernel(&mut self.table, &mut self.keys));
                clock.elapsed()
            })
            .min()
            .expect("a pass runs the kernel at least once")
            .as_secs_f64()
    }
}

/// A sort, which slows down when the host slows the core (compute,
/// branches), then random updates to a table larger than the cache,
/// which slow down when it slows the caches and the memory bus; the
/// simulator feels both. Fixed inputs: every run does the same work.
fn kernel(table: &mut [u64], keys: &mut Vec<u64>) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    keys.clear();
    keys.extend((0..SORT_LEN).map(|_| next()));
    keys.sort_unstable();
    let mut acc = keys[SORT_LEN / 2];
    for _ in 0..TABLE_UPDATES {
        let i = next() as usize & (TABLE_LEN - 1);
        acc = acc.wrapping_add(table[i]);
        table[i] ^= acc;
    }
    acc
}
