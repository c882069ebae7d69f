//! Online health tests in the style of NIST SP 800-90B §4.4 —
//! continuous monitoring a production integration of D-RaNGe would run
//! in the memory controller firmware (the paper's Section 6.3 design
//! leaves room for exactly this between the sampling loop and the
//! request queue).
//!
//! * **Repetition count test**: detects a stuck source by counting
//!   consecutive identical samples.
//! * **Adaptive proportion test**: detects loss of entropy by counting
//!   occurrences of a sample value within a sliding window.
//!
//! [`HealthMonitor::screen`] is the one constructor of [`Screened`], and
//! a [`ScreenedQueue`] — the engine pool — accepts nothing else, so the
//! compiler holds the rule that no unscreened bit reaches a client.

use crate::bits::{BitBlock, BitQueue};

/// Cutoff calculator: for min-entropy `h` bits/sample and false-positive
/// probability `2^-w`, the repetition-count cutoff is `1 + ceil(w / h)`.
fn repetition_cutoff(h: f64, w: f64) -> u32 {
    1 + (w / h).ceil() as u32
}

/// Repetition count test (SP 800-90B §4.4.1) for a binary source.
#[derive(Debug, Clone)]
pub struct RepetitionCountTest {
    cutoff: u32,
    last: Option<bool>,
    run: u32,
    failures: u64,
    samples: u64,
}

impl RepetitionCountTest {
    /// A test for a source claiming `min_entropy` bits/sample with a
    /// false-positive probability of 2⁻²⁰ (the 800-90B default).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_entropy <= 1`.
    pub fn new(min_entropy: f64) -> Self {
        assert!(
            min_entropy > 0.0 && min_entropy <= 1.0,
            "binary min-entropy must be in (0,1], got {min_entropy}"
        );
        RepetitionCountTest {
            cutoff: repetition_cutoff(min_entropy, 20.0),
            last: None,
            run: 0,
            failures: 0,
            samples: 0,
        }
    }

    /// The cutoff in effect.
    pub fn cutoff(&self) -> u32 {
        self.cutoff
    }

    /// Feeds a sample; returns `false` if the health test fires.
    pub fn feed(&mut self, bit: bool) -> bool {
        self.samples += 1;
        if self.last == Some(bit) {
            self.run += 1;
        } else {
            self.last = Some(bit);
            self.run = 1;
        }
        if self.run >= self.cutoff {
            self.failures += 1;
            // Reset so a long stuck period fires repeatedly rather than
            // once.
            self.run = 0;
            self.last = None;
            false
        } else {
            true
        }
    }

    /// Number of times the test has fired.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Adaptive proportion test (SP 800-90B §4.4.2) for a binary source
/// with window 1024 and the standard cutoff for full-entropy claims.
#[derive(Debug, Clone)]
pub struct AdaptiveProportionTest {
    window: usize,
    cutoff: usize,
    reference: Option<bool>,
    count: usize,
    seen: usize,
    failures: u64,
}

impl AdaptiveProportionTest {
    /// Window size used by the standard (1024 for binary sources).
    pub const WINDOW: usize = 1024;

    /// A test with the SP 800-90B binary-source parameters: the first
    /// sample of each window is the reference; if it recurs more than
    /// `cutoff` times in the window the test fires. For min-entropy `h`
    /// the cutoff is the 2⁻²⁰ binomial tail of p = 2^(−h).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_entropy <= 1`.
    pub fn new(min_entropy: f64) -> Self {
        assert!(min_entropy > 0.0 && min_entropy <= 1.0);
        // Binomial tail bound: mean + 5.2 sigma approximates the 2^-20
        // quantile closely enough for monitoring purposes.
        let p = 2f64.powf(-min_entropy);
        let mean = p * Self::WINDOW as f64;
        let sd = (Self::WINDOW as f64 * p * (1.0 - p)).sqrt();
        let cutoff = (mean + 5.2 * sd).ceil() as usize;
        AdaptiveProportionTest {
            window: Self::WINDOW,
            cutoff: cutoff.min(Self::WINDOW),
            reference: None,
            count: 0,
            seen: 0,
            failures: 0,
        }
    }

    /// The cutoff in effect.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Feeds a sample; returns `false` if the health test fires.
    pub fn feed(&mut self, bit: bool) -> bool {
        match self.reference {
            None => {
                self.reference = Some(bit);
                self.count = 1;
                self.seen = 1;
                true
            }
            Some(r) => {
                self.seen += 1;
                if bit == r {
                    self.count += 1;
                }
                let fired = self.count > self.cutoff;
                if fired {
                    self.failures += 1;
                }
                if self.seen >= self.window || fired {
                    self.reference = None;
                }
                !fired
            }
        }
    }

    /// Number of times the test has fired.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// Per-test breakdown of health-test firings, so a tripping source can
/// be diagnosed: a rising repetition count points at a stuck cell, a
/// rising adaptive proportion at bias/entropy loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripCounts {
    /// Repetition count test (SP 800-90B §4.4.1) firings.
    pub repetition: u64,
    /// Adaptive proportion test (SP 800-90B §4.4.2) firings.
    pub adaptive: u64,
}

impl TripCounts {
    /// Firings across both tests.
    pub fn total(&self) -> u64 {
        self.repetition + self.adaptive
    }
}

impl std::ops::Sub for TripCounts {
    type Output = TripCounts;

    fn sub(self, rhs: TripCounts) -> TripCounts {
        TripCounts {
            repetition: self.repetition - rhs.repetition,
            adaptive: self.adaptive - rhs.adaptive,
        }
    }
}

/// Both continuous health tests bundled, as firmware would run them.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    rct: RepetitionCountTest,
    apt: AdaptiveProportionTest,
}

impl HealthMonitor {
    /// A monitor for a source claiming `min_entropy` bits/sample.
    pub fn new(min_entropy: f64) -> Self {
        HealthMonitor {
            rct: RepetitionCountTest::new(min_entropy),
            apt: AdaptiveProportionTest::new(min_entropy),
        }
    }

    /// Feeds one bit to both tests; `false` when either fires.
    pub fn feed(&mut self, bit: bool) -> bool {
        let a = self.rct.feed(bit);
        let b = self.apt.feed(bit);
        a && b
    }

    /// Feeds every bit of an iterator (e.g. a packed [`BitBlock`]'s
    /// bits, without unpacking to a slice first) and returns the
    /// per-test breakdown of the health failures it caused.
    pub fn feed_bits(&mut self, bits: impl Iterator<Item = bool>) -> TripCounts {
        let before = self.trip_counts();
        for b in bits {
            let _ = self.feed(b);
        }
        self.trip_counts() - before
    }

    /// Feeds every bit of `batch` to both tests. A batch that fires
    /// neither comes back [`Screened`]; otherwise the firings it caused
    /// come back and the batch is dropped.
    ///
    /// # Errors
    ///
    /// The per-test [`TripCounts`] when either test fired.
    pub fn screen(&mut self, batch: BitBlock) -> Result<Screened, TripCounts> {
        let trips = self.feed_bits(batch.iter());
        if trips.total() == 0 {
            Ok(Screened(batch))
        } else {
            Err(trips)
        }
    }

    /// Total failures across both tests.
    pub fn failures(&self) -> u64 {
        self.rct.failures() + self.apt.failures()
    }

    /// Repetition-count-test failures alone.
    pub fn repetition_failures(&self) -> u64 {
        self.rct.failures()
    }

    /// Adaptive-proportion-test failures alone.
    pub fn adaptive_failures(&self) -> u64 {
        self.apt.failures()
    }

    /// Cumulative per-test failure breakdown.
    pub fn trip_counts(&self) -> TripCounts {
        TripCounts {
            repetition: self.rct.failures(),
            adaptive: self.apt.failures(),
        }
    }
}

/// A batch that passed both health tests. Its field is private, so
/// [`HealthMonitor::screen`] is the only way to build one.
#[derive(Debug)]
pub struct Screened(BitBlock);

/// A FIFO of packed bits whose only way in is a [`Screened`] batch —
/// the engine pool that every `take_*` and every DRBG seed drains.
///
/// A raw batch does not compile:
///
/// ```compile_fail
/// use drange_core::bits::BitBlock;
/// use drange_core::health::{HealthMonitor, ScreenedQueue};
///
/// let batch = BitBlock::from_bools(&[true, false, false, true]);
/// let mut health = HealthMonitor::new(1.0);
/// let mut pool = ScreenedQueue::default();
/// pool.push(batch);
/// ```
///
/// The same code with the screen in between does:
///
/// ```
/// use drange_core::bits::BitBlock;
/// use drange_core::health::{HealthMonitor, ScreenedQueue};
///
/// let batch = BitBlock::from_bools(&[true, false, false, true]);
/// let mut health = HealthMonitor::new(1.0);
/// let mut pool = ScreenedQueue::default();
/// pool.push(health.screen(batch).expect("four bits fire neither test"));
/// ```
#[derive(Debug, Default)]
pub struct ScreenedQueue(BitQueue);

impl ScreenedQueue {
    /// Appends a screened batch (FIFO order preserved).
    pub fn push(&mut self, batch: Screened) {
        self.0.push_block(&batch.0);
    }

    /// Number of queued bits.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Pops up to `n` oldest bits (see [`BitQueue::pop_bools`]).
    pub(crate) fn pop_bools(&mut self, n: usize) -> Vec<bool> {
        self.0.pop_bools(n)
    }

    /// Pops the oldest 64 bits as one word (see [`BitQueue::pop_word`]).
    pub(crate) fn pop_word(&mut self) -> Option<u64> {
        self.0.pop_word()
    }

    /// Pops the oldest 8 bits as one byte (see [`BitQueue::pop_byte`]).
    pub(crate) fn pop_byte(&mut self) -> Option<u8> {
        self.0.pop_byte()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bits(n: usize, mut seed: u64) -> Vec<bool> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & 1 == 1
            })
            .collect()
    }

    #[test]
    fn cutoff_formula() {
        // Full entropy: cutoff 21 (1 + 20/1).
        assert_eq!(RepetitionCountTest::new(1.0).cutoff(), 21);
        // Half entropy: cutoff 41.
        assert_eq!(RepetitionCountTest::new(0.5).cutoff(), 41);
    }

    #[test]
    fn healthy_source_rarely_fires() {
        let mut m = HealthMonitor::new(0.95);
        let trips = m.feed_bits(random_bits(200_000, 7).into_iter());
        assert_eq!(
            trips.total(),
            0,
            "an ideal source must not trip health tests"
        );
    }

    #[test]
    fn stuck_source_fires_repetition_count() {
        let mut rct = RepetitionCountTest::new(1.0);
        let mut fired = false;
        for _ in 0..100 {
            fired |= !rct.feed(true);
        }
        assert!(fired);
        assert!(rct.failures() >= 1);
    }

    #[test]
    fn biased_source_fires_adaptive_proportion() {
        // 95% ones: the window count blows past the full-entropy cutoff.
        let bits: Vec<bool> = (0..50_000).map(|i| i % 20 != 0).collect();
        let mut apt = AdaptiveProportionTest::new(0.95);
        let mut fails = 0u64;
        for b in bits {
            if !apt.feed(b) {
                fails += 1;
            }
        }
        assert!(fails > 0, "strong bias must be detected");
    }

    #[test]
    fn alternating_source_passes_rct_but_is_not_stuck() {
        // 0101... never repeats, so RCT never fires (APT's reference
        // value occurs in exactly half the window: also no fire).
        let mut m = HealthMonitor::new(1.0);
        let trips = m.feed_bits((0..10_000).map(|i| i % 2 == 0));
        assert_eq!(trips.total(), 0);
    }

    #[test]
    fn monitor_counts_are_additive() {
        let mut m = HealthMonitor::new(1.0);
        let _ = m.feed_bits(std::iter::repeat_n(true, 1000));
        assert!(m.failures() > 0);
    }

    #[test]
    fn stuck_source_trips_split_by_test() {
        // An all-one stream fires both tests; the split must attribute
        // each firing to its test and sum back to the lump total.
        let mut m = HealthMonitor::new(1.0);
        let trips = m.feed_bits(std::iter::repeat_n(true, 5000));
        assert!(trips.repetition > 0, "stuck stream must fire the RCT");
        assert!(trips.adaptive > 0, "all-one windows must fire the APT");
        assert_eq!(trips.total(), m.failures());
        assert_eq!(m.repetition_failures(), trips.repetition);
        assert_eq!(m.adaptive_failures(), trips.adaptive);
        assert_eq!(m.trip_counts(), trips);
    }

    #[test]
    fn biased_source_trips_mostly_adaptive() {
        // 90% ones with period-10 breaks: runs stay below the RCT
        // cutoff (21) but the APT window count blows past its cutoff,
        // so the breakdown isolates the bias signal.
        let mut m = HealthMonitor::new(1.0);
        let trips = m.feed_bits((0..50_000).map(|i| i % 10 != 0));
        assert_eq!(trips.repetition, 0, "no run reaches the RCT cutoff");
        assert!(trips.adaptive > 0, "bias must fire the APT");
    }

    #[test]
    fn screen_agrees_with_feed_bits() {
        // A healthy batch comes back screened and queues bit for bit; a
        // biased one comes back as exactly the trips `feed_bits` counts.
        let healthy = random_bits(4096, 3);
        let biased: Vec<bool> = (0..2000).map(|i| i % 40 < 39).collect();
        let mut m = HealthMonitor::new(0.95);
        let mut pool = ScreenedQueue::default();
        pool.push(m.screen(BitBlock::from_bools(&healthy)).unwrap());
        assert_eq!(pool.pop_bools(healthy.len()), healthy);
        assert_eq!(pool.len(), 0);
        let mut oracle = HealthMonitor::new(0.95);
        let _ = oracle.feed_bits(healthy.into_iter());
        let want = oracle.feed_bits(biased.iter().copied());
        assert!(want.total() > 0, "39-of-40 ones must fire");
        let got = m.screen(BitBlock::from_bools(&biased)).unwrap_err();
        assert_eq!(got, want);
        assert_eq!(m.trip_counts(), oracle.trip_counts());
    }

    #[test]
    #[should_panic]
    fn zero_entropy_rejected() {
        let _ = RepetitionCountTest::new(0.0);
    }
}
