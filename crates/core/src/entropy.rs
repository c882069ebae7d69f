//! Entropy estimators used for RNG-cell qualification and reporting.
//!
//! The paper approximates per-cell Shannon entropy by counting 3-bit
//! symbols over a 1000-bit sample stream (Section 6.1), and reports the
//! minimum binary Shannon entropy across RNG cells (0.9507 in Section
//! 7.1).

/// Binary Shannon entropy of a one-probability `p`, in bits.
///
/// `H(p) = -p log2 p - (1-p) log2 (1-p)`; 0 at p ∈ {0, 1}, 1 at p = 1/2.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binary_entropy(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Shannon entropy (bits per symbol) of a discrete distribution given by
/// counts; zero-count symbols contribute nothing.
pub fn entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Min-entropy (bits per symbol) of a distribution given by counts:
/// `-log2 max_i p_i`.
pub fn min_entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    if total == 0 || max == 0 {
        return 0.0;
    }
    -((max as f64 / total as f64).log2())
}

/// Counts non-overlapping `symbol_bits`-bit symbols in a bit stream.
///
/// Trailing bits that do not fill a symbol are dropped.
///
/// # Panics
///
/// Panics if `symbol_bits` is 0 or greater than 16.
pub fn symbol_counts(stream: &[bool], symbol_bits: usize) -> Vec<u64> {
    assert!(
        (1..=16).contains(&symbol_bits),
        "symbol_bits must be 1..=16"
    );
    let mut counts = vec![0u64; 1usize << symbol_bits];
    for chunk in stream.chunks_exact(symbol_bits) {
        let mut v = 0usize;
        for &b in chunk {
            v = (v << 1) | usize::from(b);
        }
        counts[v] += 1;
    }
    counts
}

/// Counts *overlapping* `symbol_bits`-bit symbols (a sliding window),
/// giving `len - symbol_bits + 1` samples — the counting convention of
/// the RNG-cell identification step: with only 1000 reads per cell, the
/// sliding window extracts enough symbol samples for the ±10 %
/// criterion to have reasonable statistical power.
///
/// # Panics
///
/// Panics if `symbol_bits` is 0 or greater than 16.
pub fn symbol_counts_overlapping(stream: &[bool], symbol_bits: usize) -> Vec<u64> {
    assert!(
        (1..=16).contains(&symbol_bits),
        "symbol_bits must be 1..=16"
    );
    let mut counts = vec![0u64; 1usize << symbol_bits];
    if stream.len() < symbol_bits {
        return counts;
    }
    let mask = (1usize << symbol_bits) - 1;
    let mut window = 0usize;
    for &b in &stream[..symbol_bits] {
        window = (window << 1) | usize::from(b);
    }
    counts[window] += 1;
    for &b in &stream[symbol_bits..] {
        window = ((window << 1) | usize::from(b)) & mask;
        counts[window] += 1;
    }
    counts
}

/// The paper's RNG-cell criterion (Section 6.1): every possible
/// `symbol_bits`-bit symbol occurs within `tolerance` (relative) of the
/// expected uniform count, over a sliding window.
pub fn symbols_uniform(stream: &[bool], symbol_bits: usize, tolerance: f64) -> bool {
    let counts = symbol_counts_overlapping(stream, symbol_bits);
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return false;
    }
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .all(|&c| (c as f64 - expected).abs() <= tolerance * expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_entropy_extremes() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-15);
        // Symmetry.
        assert!((binary_entropy(0.3) - binary_entropy(0.7)).abs() < 1e-15);
    }

    #[test]
    fn paper_min_entropy_value() {
        // Section 7.1: minimum entropy 0.9507 corresponds to a bias of
        // about 0.63/0.37.
        let h = binary_entropy(0.633);
        assert!((h - 0.9507).abs() < 5e-3, "H = {h}");
    }

    #[test]
    fn entropy_from_counts_uniform_is_log2_n() {
        assert!((entropy_from_counts(&[5, 5, 5, 5]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_from_counts(&[7, 0, 0, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[]), 0.0);
    }

    #[test]
    fn min_entropy_bounds_shannon() {
        let counts = [10, 20, 30, 40];
        assert!(min_entropy_from_counts(&counts) <= entropy_from_counts(&counts));
        assert_eq!(min_entropy_from_counts(&[0, 0]), 0.0);
    }

    #[test]
    fn symbol_counts_basic() {
        // Stream 011 010 1(dropped): symbols 3 and 2.
        let stream = [false, true, true, false, true, false, true];
        let c = symbol_counts(&stream, 3);
        assert_eq!(c.iter().sum::<u64>(), 2);
        assert_eq!(c[0b011], 1);
        assert_eq!(c[0b010], 1);
    }

    #[test]
    fn overlapping_counts_slide_by_one() {
        // Stream 0110: windows 011, 110.
        let stream = [false, true, true, false];
        let c = symbol_counts_overlapping(&stream, 3);
        assert_eq!(c.iter().sum::<u64>(), 2);
        assert_eq!(c[0b011], 1);
        assert_eq!(c[0b110], 1);
        // Shorter than the window: zero symbols.
        assert_eq!(symbol_counts_overlapping(&[true], 3).iter().sum::<u64>(), 0);
    }

    #[test]
    fn uniform_symbols_accept_good_random_stream() {
        // SplitMix64-derived bits: i.i.d.-quality randomness.
        let mut state = 0xABCD_1234u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        };
        // The criterion is a harsh filter; over several seeds, a clear
        // majority of ideal streams of 4000 bits should qualify.
        let mut passed = 0;
        for _ in 0..10 {
            let stream: Vec<bool> = (0..4000).map(|_| next()).collect();
            if symbols_uniform(&stream, 3, 0.10) {
                passed += 1;
            }
        }
        assert!(passed >= 5, "only {passed}/10 ideal streams passed");
    }

    #[test]
    fn uniform_symbols_reject_constant_stream() {
        let stream = vec![true; 999];
        assert!(!symbols_uniform(&stream, 3, 0.10));
        assert!(!symbols_uniform(&[], 3, 0.10));
    }

    #[test]
    fn uniform_symbols_reject_biased_stream() {
        // 70% ones i.i.d.-ish via a fixed pattern of 7 ones / 3 zeros.
        let stream: Vec<bool> = (0..990).map(|i| i % 10 < 7).collect();
        assert!(!symbols_uniform(&stream, 3, 0.10));
    }

    #[test]
    #[should_panic(expected = "symbol_bits")]
    fn bad_symbol_bits_panics() {
        let _ = symbol_counts(&[true], 0);
    }
}
