//! The machine's pace, measured beside the work. On a shared host the
//! neighbours move the cost of a cache miss and the speed of a core from one
//! second to the next, and this program with them: the same code on the same
//! inputs runs 10–30 % apart from one minute to another. So a client slips a
//! fixed piece of work between its operations — copying a few pages picked
//! at random from an arena far larger than the cache, then a few passes of
//! word arithmetic over one page that stays in it — and a round's timings
//! are stated at a fixed pace, [`REFERENCE`], instead of at whatever pace
//! the machine had while the round ran. None of it calls into the measured
//! program or touches its memory, so no change to the program moves the
//! pace (README, "Steadiness").

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use setsig_pagestore::PAGE_SIZE;

use crate::gen::SplitMix64;
use crate::stats;

/// The arena the copies come from, in MiB: 32 times the L2 of the box the
/// benchmark was defined on, so a copy misses as a page read does.
pub const ARENA_MIB: usize = 64;
const ARENA_PAGES: usize = (ARENA_MIB << 20) / PAGE_SIZE;
/// Pages copied, and passes made over a page, per sample …
const REPEATS: usize = 8;
/// … and the least time between two samples: sampling takes about 5 % of a
/// round.
const GAP: Duration = Duration::from_micros(200);

/// ns per page copied and ns per pass over a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    pub copy_ns: f64,
    pub pass_ns: f64,
}

/// The pace every timing is stated at: about the median of the box the
/// benchmark was defined on.
pub const REFERENCE: Pace = Pace {
    copy_ns: 700.0,
    pass_ns: 550.0,
};

impl Pace {
    /// How much faster than the reference the machine was: a time measured
    /// at this pace, times this, is the time at the reference pace. Copying
    /// and arithmetic each count in full, which is what fits the timings
    /// here: a neighbour that slows the passes by 10 % slows a query by 20 %.
    pub fn speed(self) -> f64 {
        (REFERENCE.copy_ns / self.copy_ns) * (REFERENCE.pass_ns / self.pass_ns)
    }
}

fn arena() -> &'static [u8] {
    static ARENA: OnceLock<Vec<u8>> = OnceLock::new();
    ARENA.get_or_init(|| {
        // Written, not just reserved: every page is resident.
        (0..ARENA_PAGES * PAGE_SIZE).map(|i| i as u8).collect()
    })
}

/// Builds the arena now, so that the first round does not.
pub fn prepare() {
    arena();
}

/// One client's samples during one round.
pub struct Walker {
    arena: &'static [u8],
    rng: SplitMix64,
    page: Vec<u8>,
    acc: Vec<u64>,
    due: Instant,
    /// ns each sample's copies and passes took.
    copies: Vec<f64>,
    passes: Vec<f64>,
    /// Time spent sampling, which the wall clock of a round or a set-up
    /// must not count.
    pub spent: Duration,
}

impl Walker {
    pub fn new() -> Self {
        Walker {
            arena: arena(),
            rng: SplitMix64::new(0x9ace),
            page: vec![0; PAGE_SIZE],
            acc: vec![u64::MAX; PAGE_SIZE / 8],
            due: Instant::now(),
            copies: Vec::new(),
            passes: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Between two operations, `now` being the time just read: takes a
    /// sample if one is due.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.due {
            self.sample(now);
        }
    }

    /// `n` samples back to back, for work that cannot be interrupted: a
    /// set-up is sampled between its builds.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample(Instant::now());
        }
    }

    fn sample(&mut self, now: Instant) {
        // The first copy brings back what the operations since the last
        // sample pushed out of the cache, and is not timed.
        self.copy_a_page();
        let t = Instant::now();
        for _ in 0..REPEATS {
            self.copy_a_page();
        }
        self.copies.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let mut ones = 0u32;
        for pass in 0..REPEATS as u64 {
            for (a, w) in self.acc.iter_mut().zip(self.page.chunks_exact(8)) {
                let v = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ pass;
                *a = (*a & v) | (v >> 7);
                ones += a.count_ones();
            }
        }
        std::hint::black_box(ones);
        self.passes.push(t.elapsed().as_nanos() as f64);
        let took = now.elapsed();
        self.spent += took;
        self.due = now + took + GAP;
    }

    fn copy_a_page(&mut self) {
        let at = self.rng.below(ARENA_PAGES as u64) as usize * PAGE_SIZE;
        self.page.copy_from_slice(&self.arena[at..at + PAGE_SIZE]);
        std::hint::black_box(&mut self.page);
    }

    /// The pace over the round: the median sample of each kind. The
    /// reference pace where there was no sample.
    pub fn pace(&self) -> Pace {
        if self.copies.is_empty() {
            return REFERENCE;
        }
        Pace {
            copy_ns: stats::median(&self.copies) / REPEATS as f64,
            pass_ns: stats::median(&self.passes) / REPEATS as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walker_samples_when_due_and_books_the_time() {
        let mut walker = Walker::new();
        assert_eq!(walker.pace(), REFERENCE);
        let start = Instant::now();
        walker.tick(start);
        // The next sample is not due before the gap has passed.
        walker.tick(start);
        assert_eq!(walker.copies.len(), 1);
        std::thread::sleep(GAP);
        walker.tick(Instant::now());
        walker.burst(3);
        assert_eq!((walker.copies.len(), walker.passes.len()), (5, 5));
        assert!(walker.spent > Duration::ZERO);
        let pace = walker.pace();
        assert!(pace.copy_ns > 0.0 && pace.pass_ns > 0.0);
    }

    #[test]
    fn timings_scale_with_both_kinds_of_work() {
        assert_eq!(REFERENCE.speed(), 1.0);
        // Copies twice as slow, passes 10 % slower: a time measured then
        // counts for 1 / 2.2 of itself.
        let slow = Pace {
            copy_ns: 2.0 * REFERENCE.copy_ns,
            pass_ns: 1.1 * REFERENCE.pass_ns,
        };
        assert!((slow.speed() - 1.0 / 2.2).abs() < 1e-12);
    }
}
