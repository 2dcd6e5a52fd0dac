//! Brings every core into use before threaded reps are timed.
//!
//! On the reference host, a 2-vCPU VM, the guest kernel can keep every newly
//! spawned thread on one vCPU for minutes while the other stays idle. A
//! 2-vproc rep then runs its two workers one after the other, and its wall
//! time is that of a 1-core machine. The state flips both ways and persists,
//! so the medians of whole runs fell into two groups about 40% apart.
//! Sustained load on two threads at once ends the state, and it stays ended
//! while the reps keep both cores busy. [`spread_threads`] applies that load
//! until two threads run in parallel.

use std::hint::black_box;
use std::time::Instant;

/// Spin iterations of one work unit; about 1 ms on the reference host.
const UNIT_ITERS: u64 = 4_000_000;

/// A round counts as parallel when its wall time is at most this share of
/// the sequential time of the same work (1.0 is perfect overlap; 2.0 on two
/// threads is none).
const PARALLEL_RATIO: f64 = 1.3;

/// Consecutive parallel rounds that end the warm-up.
const PARALLEL_ROUNDS: u32 = 3;

/// Work units per thread in one round (about 50 ms).
const ROUND_UNITS: u64 = 50;

/// What [`spread_threads`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Rounds run.
    pub rounds: u32,
    /// The last round's wall time over the sequential time of its work.
    pub ratio: f64,
    /// Whether the last [`PARALLEL_ROUNDS`] rounds ran in parallel.
    pub parallel: bool,
    /// Seconds spent.
    pub seconds: f64,
}

/// One work unit: a dependent chain of multiply-adds the compiler cannot
/// shorten.
fn unit() -> u64 {
    let mut x = black_box(1u64);
    for i in 0..UNIT_ITERS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box(x)
}

fn units(n: u64) -> u64 {
    (0..n).fold(0, |acc, _| acc ^ unit())
}

/// Runs rounds of `threads` spinning threads until [`PARALLEL_ROUNDS`]
/// rounds in a row overlap, or until `max_s` seconds have passed. Each
/// round is compared with the time one thread takes for one share of its
/// work, measured before every round so that a change of host speed does
/// not read as lost parallelism.
pub fn spread_threads(threads: usize, max_s: f64) -> Spread {
    let start = Instant::now();
    let mut spread = Spread {
        rounds: 0,
        ratio: 0.0,
        parallel: threads <= 1,
        seconds: 0.0,
    };
    let mut in_a_row = 0;
    while threads > 1 && start.elapsed().as_secs_f64() < max_s {
        let one = Instant::now();
        units(ROUND_UNITS);
        let one_s = one.elapsed().as_secs_f64();
        let round = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| units(ROUND_UNITS));
            }
        });
        spread.rounds += 1;
        spread.ratio = round.elapsed().as_secs_f64() / one_s;
        in_a_row = if spread.ratio <= PARALLEL_RATIO {
            in_a_row + 1
        } else {
            0
        };
        if in_a_row >= PARALLEL_ROUNDS {
            spread.parallel = true;
            break;
        }
    }
    spread.seconds = start.elapsed().as_secs_f64();
    spread
}
