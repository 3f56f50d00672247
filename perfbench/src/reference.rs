//! A fixed compute kernel that is the benchmark's own and never changes
//! with the program, timed beside every campaign to read the host's
//! current speed.
//!
//! On a shared host the same campaign runs up to half again as fast or
//! slow over minutes as neighbours come and go, and the kernel's rate
//! moves with it. A campaign's rate scaled by `NOMINAL / rate` therefore
//! keeps every change of the program (the kernel runs no program code)
//! while the host's drift largely cancels.

use std::time::Instant;

/// Kernel iterations per second per thread taken as the reference host
/// speed: the scale of the normalized rates. It is the kernel's typical
/// rate on a 2-vCPU AVX2 x86-64 VM, so normalized and raw rates read
/// alike there.
pub const NOMINAL: f64 = 140_000.0;

/// Seconds the kernel runs before each timed campaign.
pub const SLICE_S: f64 = 0.2;

const WORDS: usize = 2048;

/// One iteration: a xorshift stream folded into a 16 KB table through
/// data-dependent loads, so it is compute-bound and cache-resident.
fn iteration(table: &mut [u64; WORDS], state: &mut u64) {
    for i in 0..WORDS {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        table[i] = table[i].wrapping_add(u64::from(x.count_ones()) ^ table[(i * 7) % WORDS]);
    }
}

/// Runs the kernel on `threads` threads at once for `seconds` and returns
/// its mean rate in iterations per second per thread.
pub fn rate(threads: usize, seconds: f64) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut table = [0u64; WORDS];
                    let mut state = 0x9E37_79B9_7F4A_7C15 ^ t as u64;
                    let started = Instant::now();
                    let mut n = 0u64;
                    while started.elapsed().as_secs_f64() < seconds {
                        iteration(&mut table, &mut state);
                        n += 1;
                    }
                    std::hint::black_box(&table);
                    n as f64 / started.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference kernel thread panicked")).sum()
    });
    total / threads as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_positive_and_finite() {
        let r = rate(2, 0.02);
        assert!(r.is_finite() && r > 0.0, "{r}");
    }
}
