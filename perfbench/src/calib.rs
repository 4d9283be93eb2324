//! The reference kernel: how fast the machine runs right now.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 1.5× over minutes as other tenants come and go, and a median
//! over one run cannot average out a drift that outlasts the run. So the
//! benchmark times this fixed kernel right before and right after every
//! repetition, in its own process, and reports the repetition's times
//! scaled to the kernel's reference speed (see `main.rs`). The kernel is
//! the benchmark's own code and calls nothing in the repository: a change
//! to the program moves the workloads' times and leaves the kernel's alone.
//!
//! What it does resembles what the workloads spend their time on: hash
//! maps that are filled with freshly allocated values and dropped, and the
//! transitive closure of small bit-matrix relations. Of the kernels tried,
//! the two together tracked the workloads' own slowdowns best (README,
//! Steadiness).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::measure::median;

/// The kernel's median time, in seconds, on the machine the README's
/// Steadiness section describes, measured as [`sample`] measures it.
pub const REFERENCE_S: f64 = 0.089;

/// Hash maps filled and dropped per kernel run.
const MAPS: u64 = 16_000;

/// Entries per hash map.
const ENTRIES: u64 = 32;

/// Relations closed per kernel run.
const CLOSURES: u64 = 60_000;

/// What [`kernel`] returns: it checks that the kernel did all its work.
const CHECKSUM: u64 = 61_492_169_119;

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }
}

/// Fills and drops `MAPS` hash maps of `ENTRIES` byte vectors each, of
/// random lengths below 48; returns the total length of what they held.
fn maps(rng: &mut Lcg) -> u64 {
    let mut total = 0u64;
    for _ in 0..MAPS {
        let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
        for j in 0..ENTRIES {
            let x = rng.next();
            map.insert(x >> 40, vec![j as u8; (x % 48) as usize]);
        }
        total += map.values().map(|v| v.len() as u64).sum::<u64>();
    }
    total
}

/// Closes `CLOSURES` random relations over 16 events (Warshall's
/// algorithm; row `i` holds the successors of event `i`); returns a sum
/// over the closed relations and their cycles.
fn closures(rng: &mut Lcg) -> u64 {
    let mut total = 0u64;
    for _ in 0..CLOSURES {
        let mut r = [0u16; 16];
        for row in &mut r {
            let x = rng.next();
            *row = ((x >> 33) as u16) & ((x >> 17) as u16);
        }
        for k in 0..16 {
            for i in 0..16 {
                if r[i] >> k & 1 == 1 {
                    r[i] |= r[k];
                }
            }
        }
        let cyclic = (0..16).filter(|&i| r[i] >> i & 1 == 1).count() as u64;
        total = total.wrapping_add(cyclic + r.iter().map(|&row| u64::from(row)).sum::<u64>());
    }
    total
}

/// One run of the kernel; returns a checksum of its results.
fn kernel() -> u64 {
    let mut rng = Lcg(0x2545_F491_4F6C_DD1D);
    let m = maps(&mut rng);
    m.wrapping_mul(31).wrapping_add(closures(&mut rng))
}

/// Runs the kernel `runs` times back to back and returns the median of
/// their wall-clock seconds. More runs sample the machine's speed over a
/// longer stretch, which suits longer repetitions.
pub fn sample(runs: usize) -> f64 {
    let times: Vec<f64> = (0..runs).map(|_| time_kernel()).collect();
    median(&times)
}

/// Runs the kernel once and returns its wall-clock seconds. Panics if the
/// kernel's result is not the known checksum.
fn time_kernel() -> f64 {
    let start = Instant::now();
    let sum = black_box(kernel());
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(sum, CHECKSUM, "the reference kernel computed a wrong result");
    seconds
}

