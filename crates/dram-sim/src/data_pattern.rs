//! The 40 data patterns of the paper's data-pattern-dependence study
//! (Section 5.2): solid 1s, checkered, row stripe, column stripe, 16
//! walking-1s, and the inverses of all 20.

/// Period of the walking patterns (WALK1/WALK0 have 16 phases each).
pub const WALK_PERIOD: usize = 16;

/// A background data pattern written to a DRAM region under test.
///
/// A pattern defines the bit stored at every `(row, bitline)` coordinate.
/// Pattern choice matters because adjacent bitlines and the cell's own
/// stored charge shift the sensing margin (the paper's data pattern
/// dependence, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPattern {
    /// All cells store 1.
    Solid1,
    /// All cells store 0 (inverse of [`DataPattern::Solid1`]).
    Solid0,
    /// Checkerboard: bit = (row + bitline) parity.
    Checkered,
    /// Inverted checkerboard.
    CheckeredInv,
    /// Alternating rows of 1s and 0s (even rows 1).
    RowStripe,
    /// Alternating rows of 0s and 1s (even rows 0).
    RowStripeInv,
    /// Alternating bitlines of 1s and 0s (even bitlines 1).
    ColStripe,
    /// Alternating bitlines of 0s and 1s (even bitlines 0).
    ColStripeInv,
    /// A single walking 1 every 16 bitlines; phase in `0..16`.
    Walk1(u8),
    /// A single walking 0 every 16 bitlines; phase in `0..16`.
    Walk0(u8),
}

impl DataPattern {
    /// All 40 patterns of the paper's study, in a stable order.
    pub fn all_40() -> Vec<DataPattern> {
        let mut v = vec![
            DataPattern::Solid1,
            DataPattern::Solid0,
            DataPattern::Checkered,
            DataPattern::CheckeredInv,
            DataPattern::RowStripe,
            DataPattern::RowStripeInv,
            DataPattern::ColStripe,
            DataPattern::ColStripeInv,
        ];
        for k in 0..WALK_PERIOD as u8 {
            v.push(DataPattern::Walk1(k));
        }
        for k in 0..WALK_PERIOD as u8 {
            v.push(DataPattern::Walk0(k));
        }
        v
    }

    /// The bit this pattern stores at `(row, bitline)`.
    #[inline]
    pub fn bit(&self, row: usize, bitline: usize) -> bool {
        match *self {
            DataPattern::Solid1 => true,
            DataPattern::Solid0 => false,
            DataPattern::Checkered => (row + bitline).is_multiple_of(2),
            DataPattern::CheckeredInv => (row + bitline) % 2 == 1,
            DataPattern::RowStripe => row.is_multiple_of(2),
            DataPattern::RowStripeInv => row % 2 == 1,
            DataPattern::ColStripe => bitline.is_multiple_of(2),
            DataPattern::ColStripeInv => bitline % 2 == 1,
            DataPattern::Walk1(k) => bitline % WALK_PERIOD == k as usize,
            DataPattern::Walk0(k) => bitline % WALK_PERIOD != k as usize,
        }
    }

    /// The 64-bit word this pattern stores at `(row, col)` for a device
    /// with `word_bits` bits per word.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is zero or exceeds 64.
    pub fn word(&self, row: usize, col: usize, word_bits: usize) -> u64 {
        assert!((1..=64).contains(&word_bits), "word_bits must be 1..=64");
        let mut w = 0u64;
        for bit in 0..word_bits {
            if self.bit(row, col * word_bits + bit) {
                w |= 1u64 << bit;
            }
        }
        w
    }

    /// The bitwise inverse of this pattern.
    pub fn inverse(&self) -> DataPattern {
        match *self {
            DataPattern::Solid1 => DataPattern::Solid0,
            DataPattern::Solid0 => DataPattern::Solid1,
            DataPattern::Checkered => DataPattern::CheckeredInv,
            DataPattern::CheckeredInv => DataPattern::Checkered,
            DataPattern::RowStripe => DataPattern::RowStripeInv,
            DataPattern::RowStripeInv => DataPattern::RowStripe,
            DataPattern::ColStripe => DataPattern::ColStripeInv,
            DataPattern::ColStripeInv => DataPattern::ColStripe,
            DataPattern::Walk1(k) => DataPattern::Walk0(k),
            DataPattern::Walk0(k) => DataPattern::Walk1(k),
        }
    }
}

impl std::fmt::Display for DataPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DataPattern::Solid1 => write!(f, "SOLID1"),
            DataPattern::Solid0 => write!(f, "SOLID0"),
            DataPattern::Checkered => write!(f, "CHECKERED"),
            DataPattern::CheckeredInv => write!(f, "CHECKERED_INV"),
            DataPattern::RowStripe => write!(f, "ROWSTRIPE"),
            DataPattern::RowStripeInv => write!(f, "ROWSTRIPE_INV"),
            DataPattern::ColStripe => write!(f, "COLSTRIPE"),
            DataPattern::ColStripeInv => write!(f, "COLSTRIPE_INV"),
            DataPattern::Walk1(k) => write!(f, "WALK1[{k}]"),
            DataPattern::Walk0(k) => write!(f, "WALK0[{k}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_40_patterns() {
        let all = DataPattern::all_40();
        assert_eq!(all.len(), 40);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 40, "patterns must be distinct");
    }

    #[test]
    fn every_pattern_has_its_inverse_in_the_set() {
        let all = DataPattern::all_40();
        let set: std::collections::HashSet<_> = all.iter().copied().collect();
        for p in &all {
            assert!(set.contains(&p.inverse()), "{p} inverse missing");
            assert_eq!(p.inverse().inverse(), *p);
        }
    }

    #[test]
    fn inverse_flips_every_bit() {
        for p in DataPattern::all_40() {
            for row in 0..4 {
                for bl in 0..40 {
                    assert_ne!(
                        p.bit(row, bl),
                        p.inverse().bit(row, bl),
                        "{p} at ({row},{bl})"
                    );
                }
            }
        }
    }

    #[test]
    fn walking_one_has_one_hot_per_period() {
        for k in 0..WALK_PERIOD as u8 {
            let p = DataPattern::Walk1(k);
            let ones: usize = (0..WALK_PERIOD).filter(|&bl| p.bit(0, bl)).count();
            assert_eq!(ones, 1);
            assert!(p.bit(0, k as usize));
        }
    }

    #[test]
    fn word_packs_bits_lsb_first() {
        // ColStripe: even bitlines are 1. Word 0 bits 0,2,4... -> 0x5555...
        let w = DataPattern::ColStripe.word(0, 0, 64);
        assert_eq!(w, 0x5555_5555_5555_5555);
        let w = DataPattern::ColStripeInv.word(0, 0, 64);
        assert_eq!(w, 0xAAAA_AAAA_AAAA_AAAA);
        // Solid1 with narrow word keeps only low bits.
        assert_eq!(DataPattern::Solid1.word(3, 9, 8), 0xFF);
    }

    #[test]
    fn checkered_alternates_with_row() {
        assert_ne!(
            DataPattern::Checkered.word(0, 0, 64),
            DataPattern::Checkered.word(1, 0, 64)
        );
        assert_eq!(
            DataPattern::Checkered.word(0, 0, 64),
            DataPattern::Checkered.word(2, 0, 64)
        );
    }

    #[test]
    #[should_panic(expected = "word_bits")]
    fn word_rejects_oversized_word() {
        let _ = DataPattern::Solid1.word(0, 0, 65);
    }

    #[test]
    fn display_is_unique() {
        let names: std::collections::HashSet<String> = DataPattern::all_40()
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(names.len(), 40);
    }
}
