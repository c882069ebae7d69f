//! A DIEHARD-style battery (Marsaglia) — the other classical validation
//! suite the D-RaNGe paper names alongside NIST ("TRNGs are usually
//! validated using statistical tests such as NIST or DIEHARD",
//! Section 2.2).
//!
//! Implemented tests, each returning a [`TestResult`]:
//!
//! * **Birthday spacings** — duplicate spacings among random
//!   "birthdays" are Poisson; detects lattice structure.
//! * **Binary rank 6×8** — ranks of 6×8 GF(2) matrices against the
//!   exact distribution.
//! * **Runs up and down** — the count of monotone runs in a sequence
//!   of uniforms, normal approximation.
//! * **5-permutations** — uniformity of the 120 orderings of
//!   consecutive non-overlapping 5-tuples (a chi-square variant of
//!   Marsaglia's OPERM5; the overlapping original needs a singular
//!   covariance correction that adds nothing for this use).
//! * **Craps** — play craps; the win rate must match 244/495.
//! * **Parking lot** — crash rate of randomly parked cars in a square.
//! * **Minimum distance** — closest-pair distances of random points
//!   are exponential.
//! * **Count-the-1s** — 4-letter words from byte ones-counts follow
//!   the product distribution.
//! * **Sums of uniforms** — batch sums of 100 uniforms are normal.
//!
//! All tests consume 32-bit words drawn MSB-first from a [`Bits`]
//! stream via [`WordStream`].

use crate::bits::Bits;
use crate::error::StsError;
use crate::rank_gf2::rank_gf2;
use crate::result::TestResult;
use crate::special::{erfc, igamc};

/// Draws 32-bit words from a bit stream, MSB first.
#[derive(Debug)]
pub struct WordStream<'a> {
    bits: &'a Bits,
    pos: usize,
}

impl<'a> WordStream<'a> {
    /// A stream over `bits`.
    pub fn new(bits: &'a Bits) -> Self {
        WordStream { bits, pos: 0 }
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        (self.bits.len() - self.pos) / 32
    }

    /// The next 32-bit word, or `None` when exhausted.
    pub fn next_u32(&mut self) -> Option<u32> {
        if self.pos + 32 > self.bits.len() {
            return None;
        }
        let mut w = 0u32;
        for _ in 0..32 {
            w = (w << 1) | self.bits.bit(self.pos) as u32;
            self.pos += 1;
        }
        Some(w)
    }

    /// A uniform `f64` in `[0, 1)` from the next word.
    pub fn next_unit(&mut self) -> Option<f64> {
        self.next_u32().map(|w| w as f64 / 4_294_967_296.0)
    }

    fn require(&self, test: &'static str, words: usize) -> Result<(), StsError> {
        if self.remaining() < words {
            Err(StsError::InsufficientData {
                test,
                needed: words * 32,
                got: self.bits.len() - self.pos,
            })
        } else {
            Ok(())
        }
    }

    /// [`WordStream::next_u32`] with exhaustion as a typed error.
    fn take_u32(&mut self, test: &'static str) -> Result<u32, StsError> {
        self.next_u32().ok_or(StsError::InsufficientData {
            test,
            needed: 32,
            got: self.bits.len() - self.pos,
        })
    }

    /// [`WordStream::next_unit`] with exhaustion as a typed error.
    fn take_unit(&mut self, test: &'static str) -> Result<f64, StsError> {
        self.take_u32(test).map(|w| w as f64 / 4_294_967_296.0)
    }
}

/// Birthday spacings: `trials` rounds of 512 birthdays in a 2²⁴-day
/// year; the number of duplicated spacings per round is Poisson(2).
/// Chi-square over the Poisson histogram.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when the stream has fewer
/// than `trials * 512` words.
pub fn birthday_spacings(bits: &Bits, trials: usize) -> Result<TestResult, StsError> {
    const M: usize = 512; // birthdays per trial
    const DAY_BITS: u32 = 24;
    let mut stream = WordStream::new(bits);
    stream.require("birthday_spacings", trials * M)?;

    let lambda = (M as f64).powi(3) / (4.0 * 2f64.powi(DAY_BITS as i32)); // = 2.0
                                                                          // Histogram of duplicate counts, binned 0..=7+.
    let mut hist = [0u64; 8];
    for _ in 0..trials {
        let mut days: Vec<u32> = (0..M)
            .map(|_| {
                stream
                    .take_u32("birthday_spacings")
                    .map(|w| w >> (32 - DAY_BITS))
            })
            .collect::<Result<_, _>>()?;
        days.sort_unstable();
        let mut spacings: Vec<u32> = days.windows(2).map(|w| w[1] - w[0]).collect();
        spacings.sort_unstable();
        let duplicates = spacings.windows(2).filter(|w| w[0] == w[1]).count();
        hist[duplicates.min(7)] += 1;
    }
    // Expected Poisson(lambda) probabilities for bins 0..6 and 7+.
    let mut chi2 = 0.0;
    let mut dof = 0usize;
    let mut p_acc = 0.0;
    let mut p_k = (-lambda).exp();
    for (k, &count) in hist.iter().enumerate() {
        let p = if k == 7 { 1.0 - p_acc } else { p_k };
        if k < 7 {
            p_acc += p_k;
            p_k *= lambda / (k as f64 + 1.0);
        }
        let expect = trials as f64 * p;
        if expect >= 1.0 {
            chi2 += (count as f64 - expect) * (count as f64 - expect) / expect;
            dof += 1;
        }
    }
    let p = igamc((dof.saturating_sub(1)).max(1) as f64 / 2.0, chi2 / 2.0);
    Ok(TestResult::single("diehard_birthday_spacings", p))
}

/// Exact rank distribution of a random 6×8 GF(2) matrix:
/// P(rank = 6), P(rank = 5), P(rank ≤ 4).
pub const RANK_6X8_P: [f64; 3] = [0.773_118_0, 0.217_439_0, 0.009_443_0];

/// Binary rank test on 6×8 matrices (each matrix uses 48 bits = 1.5
/// words; we draw 6 bytes from words for simplicity).
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when fewer than `matrices`
/// can be drawn.
pub fn rank_6x8(bits: &Bits, matrices: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    stream.require("diehard_rank_6x8", matrices * 2)?;
    let mut counts = [0u64; 3];
    for _ in 0..matrices {
        let a = stream.take_u32("diehard_rank_6x8")?;
        let b = stream.take_u32("diehard_rank_6x8")?;
        // Six 8-bit rows from the 64 drawn bits.
        let rows: Vec<u64> = (0..6)
            .map(|i| {
                let bits48 = ((a as u64) << 32) | b as u64;
                (bits48 >> (8 * i)) & 0xFF
            })
            .collect();
        match rank_gf2(&rows, 8) {
            6 => counts[0] += 1,
            5 => counts[1] += 1,
            _ => counts[2] += 1,
        }
    }
    let mut chi2 = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let expect = matrices as f64 * RANK_6X8_P[i];
        chi2 += (c as f64 - expect) * (c as f64 - expect) / expect;
    }
    let p = igamc(1.0, chi2 / 2.0); // 2 degrees of freedom
    Ok(TestResult::single("diehard_rank_6x8", p))
}

/// Runs up and down: the total number of monotone runs among `n`
/// uniforms is asymptotically normal with mean `(2n−1)/3` and variance
/// `(16n−29)/90`.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] for short streams.
pub fn runs_up_down(bits: &Bits, n: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    stream.require("diehard_runs_up_down", n)?;
    let values: Vec<u32> = (0..n)
        .map(|_| stream.take_u32("diehard_runs_up_down"))
        .collect::<Result<_, _>>()?;
    let mut runs = 1u64;
    for i in 2..n {
        let prev_up = values[i - 1] > values[i - 2];
        let up = values[i] > values[i - 1];
        if up != prev_up {
            runs += 1;
        }
    }
    let nf = n as f64;
    let mean = (2.0 * nf - 1.0) / 3.0;
    let var = (16.0 * nf - 29.0) / 90.0;
    let z = (runs as f64 - mean) / var.sqrt();
    let p = erfc(z.abs() / std::f64::consts::SQRT_2);
    Ok(TestResult::single("diehard_runs_up_down", p))
}

/// 5-permutations: consecutive non-overlapping 5-tuples of words fall
/// into one of 120 orderings, uniformly. Chi-square with 119 degrees
/// of freedom.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when fewer than `tuples`
/// 5-tuples can be drawn, and [`StsError::NotApplicable`] if any tuple
/// contains equal words (probability ~2⁻²⁷ per tuple; retry rather
/// than bias the ordering).
pub fn permutations5(bits: &Bits, tuples: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    stream.require("diehard_permutations5", tuples * 5)?;
    let mut counts = vec![0u64; 120];
    for _ in 0..tuples {
        let vals: Vec<u32> = (0..5)
            .map(|_| stream.take_u32("diehard_permutations5"))
            .collect::<Result<_, _>>()?;
        // Lehmer code of the tuple's ordering.
        let mut code = 0usize;
        for i in 0..5 {
            if (i + 1..5).any(|j| vals[j] == vals[i]) {
                return Err(StsError::NotApplicable {
                    test: "diehard_permutations5",
                    reason: "tie within a 5-tuple".into(),
                });
            }
            let smaller = (i + 1..5).filter(|&j| vals[j] < vals[i]).count();
            code = code * (5 - i) + smaller;
        }
        counts[code] += 1;
    }
    let expect = tuples as f64 / 120.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| (c as f64 - expect) * (c as f64 - expect) / expect)
        .sum();
    let p = igamc(119.0 / 2.0, chi2 / 2.0);
    Ok(TestResult::single("diehard_permutations5", p))
}

/// The exact probability of winning a game of craps.
pub const CRAPS_WIN_P: f64 = 244.0 / 495.0;

/// Craps: play `games` games; the win count must be binomial with
/// p = 244/495. Normal-approximation z-test.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] if the stream runs out of
/// dice throws mid-game (budget: ~16 words per game is ample).
pub fn craps(bits: &Bits, games: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    // A game needs two dice per throw; games average ~3.4 throws.
    stream.require("diehard_craps", games * 10)?;
    let throw = |stream: &mut WordStream| -> Option<u32> {
        let d1 = stream.next_u32()? % 6 + 1;
        let d2 = stream.next_u32()? % 6 + 1;
        Some(d1 + d2)
    };
    let mut wins = 0u64;
    for _ in 0..games {
        let first = throw(&mut stream).ok_or(StsError::InsufficientData {
            test: "diehard_craps",
            needed: games * 10 * 32,
            got: bits.len(),
        })?;
        match first {
            7 | 11 => wins += 1,
            2 | 3 | 12 => {}
            point => loop {
                let t = throw(&mut stream).ok_or(StsError::InsufficientData {
                    test: "diehard_craps",
                    needed: games * 10 * 32,
                    got: bits.len(),
                })?;
                if t == point {
                    wins += 1;
                    break;
                }
                if t == 7 {
                    break;
                }
            },
        }
    }
    let n = games as f64;
    let z = (wins as f64 - n * CRAPS_WIN_P) / (n * CRAPS_WIN_P * (1.0 - CRAPS_WIN_P)).sqrt();
    let p = erfc(z.abs() / std::f64::consts::SQRT_2);
    Ok(TestResult::single("diehard_craps", p))
}

/// Expected parked-car count of the parking-lot test (Marsaglia).
pub const PARKING_MEAN: f64 = 3523.0;
/// Standard deviation of the parked-car count.
pub const PARKING_SD: f64 = 21.9;

/// Parking lot: attempt to "park" 12000 points in a 100x100 square
/// with unit exclusion distance; the number parked is normal with the
/// Marsaglia constants above.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when fewer than 24000 words
/// are available.
pub fn parking_lot(bits: &Bits) -> Result<TestResult, StsError> {
    const ATTEMPTS: usize = 12_000;
    let mut stream = WordStream::new(bits);
    stream.require("diehard_parking_lot", ATTEMPTS * 2)?;
    // Spatial hash with 10x10 buckets over the 100x100 square: the
    // exclusion radius is 1, so only neighboring buckets matter.
    const GRID: usize = 10;
    let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); GRID * GRID];
    let mut parked = 0u64;
    for _ in 0..ATTEMPTS {
        let x = stream.take_unit("diehard_parking_lot")? * 100.0;
        let y = stream.take_unit("diehard_parking_lot")? * 100.0;
        let bx = ((x / 10.0) as usize).min(GRID - 1);
        let by = ((y / 10.0) as usize).min(GRID - 1);
        let mut ok = true;
        'scan: for nx in bx.saturating_sub(1)..=(bx + 1).min(GRID - 1) {
            for ny in by.saturating_sub(1)..=(by + 1).min(GRID - 1) {
                for &(px, py) in &buckets[nx * GRID + ny] {
                    // Marsaglia uses the Linfinity-style "crash" when both
                    // coordinate gaps are below 1.
                    if (px - x).abs() < 1.0 && (py - y).abs() < 1.0 {
                        ok = false;
                        break 'scan;
                    }
                }
            }
        }
        if ok {
            buckets[bx * GRID + by].push((x, y));
            parked += 1;
        }
    }
    let z = (parked as f64 - PARKING_MEAN) / PARKING_SD;
    let p = erfc(z.abs() / std::f64::consts::SQRT_2);
    Ok(TestResult::single("diehard_parking_lot", p))
}

/// Minimum distance: `rounds` rounds of `n` points in a 10000-square;
/// the minimum squared pairwise distance is exponential with mean
/// `area / (C(n,2) * pi)`; the transformed values must be uniform
/// (chi-square over ten bins).
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when the stream is too short.
pub fn minimum_distance(bits: &Bits, rounds: usize, n: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    stream.require("diehard_minimum_distance", rounds * n * 2)?;
    let side = 10_000.0f64;
    let pairs = (n * (n - 1) / 2) as f64;
    let mean = side * side / (pairs * std::f64::consts::PI);
    let mut hist = [0u64; 10];
    for _ in 0..rounds {
        let mut pts: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                Ok((
                    stream.take_unit("diehard_minimum_distance")? * side,
                    stream.take_unit("diehard_minimum_distance")? * side,
                ))
            })
            .collect::<Result<_, StsError>>()?;
        // Closest pair by x-sweep.
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut best = f64::INFINITY;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let dx = pts[j].0 - pts[i].0;
                if dx * dx >= best {
                    break;
                }
                let dy = pts[j].1 - pts[i].1;
                let d2 = dx * dx + dy * dy;
                if d2 < best {
                    best = d2;
                }
            }
        }
        let u = 1.0 - (-best / mean).exp();
        hist[((u * 10.0) as usize).min(9)] += 1;
    }
    let expect = rounds as f64 / 10.0;
    let chi2: f64 = hist
        .iter()
        .map(|&c| (c as f64 - expect) * (c as f64 - expect) / expect)
        .sum();
    let p = igamc(4.5, chi2 / 2.0);
    Ok(TestResult::single("diehard_minimum_distance", p))
}

/// Letter probabilities of the count-the-1s mapping: a byte maps to a
/// letter by its ones count bucketed {0-2, 3, 4, 5, 6-8}.
pub const LETTER_P: [f64; 5] = [
    37.0 / 256.0,
    56.0 / 256.0,
    70.0 / 256.0,
    56.0 / 256.0,
    37.0 / 256.0,
];

/// Count-the-1s (stream variant, non-overlapping words): bytes become
/// five-valued letters by ones count; non-overlapping 4-letter words
/// must follow the product distribution (chi-square over 625 cells).
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when fewer than `words4 * 4`
/// bytes are available.
pub fn count_the_ones(bits: &Bits, words4: usize) -> Result<TestResult, StsError> {
    let needed_bits = words4 * 4 * 8;
    if bits.len() < needed_bits {
        return Err(StsError::InsufficientData {
            test: "diehard_count_the_ones",
            needed: needed_bits,
            got: bits.len(),
        });
    }
    let letter = |byte: u32| -> usize {
        match byte.count_ones() {
            0..=2 => 0,
            3 => 1,
            4 => 2,
            5 => 3,
            _ => 4,
        }
    };
    let mut counts = vec![0u64; 625];
    let mut pos = 0usize;
    let mut next_byte = || -> u32 {
        let mut b = 0u32;
        for _ in 0..8 {
            b = (b << 1) | bits.bit(pos) as u32;
            pos += 1;
        }
        b
    };
    for _ in 0..words4 {
        let mut idx = 0usize;
        for _ in 0..4 {
            idx = idx * 5 + letter(next_byte());
        }
        counts[idx] += 1;
    }
    let mut chi2 = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let (a, b, cc, d) = (i / 125, (i / 25) % 5, (i / 5) % 5, i % 5);
        let pw = LETTER_P[a] * LETTER_P[b] * LETTER_P[cc] * LETTER_P[d];
        let expect = words4 as f64 * pw;
        chi2 += (c as f64 - expect) * (c as f64 - expect) / expect;
    }
    let p = igamc(624.0 / 2.0, chi2 / 2.0);
    Ok(TestResult::single("diehard_count_the_ones", p))
}

/// Sums of 100 consecutive uniforms (non-overlapping): each sum is
/// normal with mean 50 and variance 100/12; the sum of squared z-scores
/// over `batches` batches is chi-square with `batches` dof.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] when fewer than
/// `batches * 100` words are available.
pub fn sums_of_uniforms(bits: &Bits, batches: usize) -> Result<TestResult, StsError> {
    let mut stream = WordStream::new(bits);
    stream.require("diehard_sums", batches * 100)?;
    let sd = (100.0f64 / 12.0).sqrt();
    let mut chi2 = 0.0;
    for _ in 0..batches {
        let s: f64 = (0..100)
            .map(|_| stream.take_unit("diehard_sums"))
            .sum::<Result<f64, _>>()?;
        let z = (s - 50.0) / sd;
        chi2 += z * z;
    }
    let p = igamc(batches as f64 / 2.0, chi2 / 2.0);
    Ok(TestResult::single("diehard_sums", p))
}

/// Runs the whole battery with sizes scaled to the stream length.
///
/// # Errors
///
/// Propagates the first insufficient-data error (a 4 Mb stream runs
/// everything comfortably).
pub fn battery(bits: &Bits) -> Result<Vec<TestResult>, StsError> {
    let words = bits.len() / 32;
    // Allocate the word budget across the nine tests.
    let trials = (words / 9 / 512).max(20);
    let matrices = (words / 9 / 2).clamp(100, 40_000);
    let n_runs = (words / 9).clamp(1_000, 50_000);
    let tuples = (words / 9 / 5).clamp(120 * 5, 20_000);
    let games = (words / 9 / 10).clamp(200, 20_000);
    let rounds = (words / 9 / 2000).clamp(10, 50);
    let word4s = (words / 9).clamp(12_000, 60_000);
    let batches = (words / 9 / 100).clamp(20, 200);
    Ok(vec![
        birthday_spacings(bits, trials)?,
        rank_6x8(bits, matrices)?,
        runs_up_down(bits, n_runs)?,
        permutations5(bits, tuples)?,
        craps(bits, games)?,
        parking_lot(bits)?,
        minimum_distance(bits, rounds, 1000)?,
        count_the_ones(bits, word4s)?,
        sums_of_uniforms(bits, batches)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::rng_bits;

    fn stream() -> Bits {
        rng_bits(4_200_000, 0xD1E_4A2D)
    }

    #[test]
    fn battery_passes_on_ideal_stream() {
        let bits = stream();
        let results = battery(&bits).unwrap();
        assert_eq!(results.len(), 9);
        for r in &results {
            assert!(r.passed(1e-4), "{} p = {}", r.name(), r.min_p());
        }
    }

    #[test]
    fn clustered_points_fail_parking_and_distance() {
        // Top bits stuck at zero: points cluster in a corner strip.
        let mut state = 7u64;
        let bits = Bits::from_fn(2_000_000, |i| {
            if i % 32 == 0 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            // Zero the top 8 bits of every word.
            if i % 32 < 8 {
                false
            } else {
                (state >> (31 - (i % 32))) & 1 == 1
            }
        });
        let park = parking_lot(&bits).unwrap();
        assert!(
            !park.passed(1e-4),
            "clustered points crash more: p = {}",
            park.min_p()
        );
        let dist = minimum_distance(&bits, 20, 1000).unwrap();
        assert!(
            !dist.passed(1e-4),
            "clustered points sit closer: p = {}",
            dist.min_p()
        );
    }

    #[test]
    fn biased_bytes_fail_count_the_ones() {
        let bits = Bits::from_fn(2_000_000, |i| i % 3 == 0); // ~33% ones
        let r = count_the_ones(&bits, 15_000).unwrap();
        assert!(!r.passed(1e-4));
    }

    #[test]
    fn shifted_uniforms_fail_sums() {
        // Force the top bit set: every uniform is >= 0.5.
        let mut state = 3u64;
        let bits = Bits::from_fn(1_000_000, |i| {
            if i % 32 == 0 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            }
            i % 32 == 0 || (state >> (31 - (i % 32))) & 1 == 1
        });
        let r = sums_of_uniforms(&bits, 100).unwrap();
        assert!(r.min_p() < 1e-10);
    }

    #[test]
    fn letter_probabilities_sum_to_one() {
        assert!((LETTER_P.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_probabilities_sum_to_one() {
        let s: f64 = RANK_6X8_P.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn constant_stream_fails_birthday() {
        let bits = Bits::from_fn(2_000_000, |_| false);
        let r = birthday_spacings(&bits, 100).unwrap();
        assert!(r.min_p() < 1e-10, "all-equal birthdays must fail");
    }

    #[test]
    fn sawtooth_generator_fails_permutations() {
        // A counter-like generator: consecutive words ascend except at
        // wraparound, so one of the 120 orderings dominates.
        let mut state = 12345u32;
        let bits = Bits::from_fn(3_000_000, |i| {
            if i % 32 == 0 {
                state = state.wrapping_add(0x0100_0001);
            }
            (state >> (31 - (i % 32))) & 1 == 1
        });
        let r = permutations5(&bits, 10_000);
        match r {
            Ok(res) => {
                assert!(!res.passed(1e-4), "sawtooth must fail: p = {}", res.min_p())
            }
            Err(StsError::NotApplicable { .. }) => {} // ties: also a detection
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn biased_dice_fail_craps() {
        // 75% ones biases the dice sum upward.
        let bits = Bits::from_fn(3_000_000, |i| i % 4 != 0);
        let r = craps(&bits, 5_000).unwrap();
        assert!(!r.passed(1e-4));
    }

    #[test]
    fn monotone_stream_fails_runs() {
        // Ever-increasing values -> a single run.
        let mut counter = 0u32;
        let bits = Bits::from_fn(1_000_000, |i| {
            if i % 32 == 0 {
                counter += 1;
            }
            (counter >> (31 - (i % 32))) & 1 == 1
        });
        let r = runs_up_down(&bits, 20_000).unwrap();
        assert!(r.min_p() < 1e-10);
    }

    #[test]
    fn word_stream_draws_msb_first() {
        let bits = Bits::from_bytes_msb(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04]);
        let mut s = WordStream::new(&bits);
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_u32(), Some(0xDEADBEEF));
        assert_eq!(s.next_u32(), Some(0x01020304));
        assert_eq!(s.next_u32(), None);
    }

    #[test]
    fn insufficient_data_is_reported() {
        let bits = Bits::from_fn(1000, |i| i % 2 == 0);
        assert!(matches!(
            birthday_spacings(&bits, 100),
            Err(StsError::InsufficientData { .. })
        ));
        assert!(matches!(
            craps(&bits, 1000),
            Err(StsError::InsufficientData { .. })
        ));
    }
}
