//! The host-speed reference: a fixed piece of work, independent of the
//! program under test, timed next to every measured pass.
//!
//! The host this benchmark was built on drifts in speed by a quarter and
//! more over minutes, across processes. A pass's time divided by the
//! mean of the reference times taken just before and just after it
//! cancels that drift; scaled by [`NOMINAL_S`] it reads as seconds on a
//! host where the reference takes that long.

use std::hint::black_box;
use std::time::Instant;

/// What the reference took on the host this benchmark was built on, in
/// its faster stretches: the scale of every normalized time.
pub const NOMINAL_S: f64 = 0.04;

/// Table size: 1 MiB of `u32`, so the walk mixes arithmetic with cache
/// traffic the way the simulation does.
const WORDS: usize = 1 << 18;
const STEPS: usize = 3_000_000;

pub struct Reference {
    table: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..WORDS as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }
}

impl Reference {
    /// Runs the reference once; returns its time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(walk(&mut self.table, STEPS));
        start.elapsed().as_secs_f64()
    }
}

/// A data-dependent pseudo-random walk that rewrites the cells it visits.
fn walk(table: &mut [u32], steps: usize) -> u64 {
    let n = table.len();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let (mut at, mut sum) = (0usize, 0u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        at = (at + table[at] as usize + (x as usize & 1023)) % n;
        table[at] = table[at].wrapping_mul(31).wrapping_add(x as u32);
        sum = sum.wrapping_add(u64::from(table[at]));
    }
    sum
}

/// `seconds` measured next to a reference that took `reference_s`, as
/// seconds on the nominal host.
pub fn normalize(seconds: f64, reference_s: f64) -> f64 {
    seconds * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_deterministic_and_scales_with_steps() {
        let fresh = || Reference::default().table;
        assert_eq!(walk(&mut fresh(), 1000), walk(&mut fresh(), 1000));
        assert_ne!(walk(&mut fresh(), 1000), walk(&mut fresh(), 1001));
    }

    #[test]
    fn normalize_scales_by_the_reference() {
        assert_eq!(normalize(1.0, NOMINAL_S), 1.0);
        assert_eq!(normalize(1.0, 2.0 * NOMINAL_S), 0.5);
    }
}
