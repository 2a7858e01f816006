//! A fixed calibration loop timed between passes.
//!
//! On a shared host the speed of the whole machine drifts by up to 2× over
//! minutes, which no median over one run can absorb. The loop does the
//! same work every time and calls nothing in wormsim, so a pass's time
//! over the loop's time next to it (`wall_rel`) follows the program and not
//! the host.

use std::collections::HashMap;
use std::time::{Duration, Instant};

const STEPS: u32 = 200_000;
const TABLE: usize = 1 << 18;

/// Runs the loop once: hashing, random access over a 1 MiB table and
/// data-dependent branches. Returns its host seconds and a checksum of the
/// work, the same on every call.
#[must_use]
pub fn run() -> (f64, u64) {
    let start = Instant::now();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut table = vec![0u32; TABLE];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x & 0xFFFF).or_default() += 1;
        let i = (x >> 20) as usize % TABLE;
        table[i] = table[i].wrapping_add(x as u32);
        if table[i] & 3 == 0 {
            acc = acc.wrapping_add(u64::from(table[(i * 7) % TABLE]));
        }
    }
    let checksum = std::hint::black_box(acc ^ counts.len() as u64);
    (start.elapsed().as_secs_f64(), checksum)
}

/// Mean seconds per loop over at least one loop and at least `budget`.
#[must_use]
pub fn mean_over(budget: Duration) -> f64 {
    let start = Instant::now();
    let mut loops = 0u32;
    let mut total = 0.0;
    while loops == 0 || start.elapsed() < budget {
        total += run().0;
        loops += 1;
    }
    total / f64::from(loops)
}
