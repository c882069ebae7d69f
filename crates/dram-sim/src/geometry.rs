//! Device geometry and cell addressing.
//!
//! A device is a set of banks; a bank is a grid of rows × columns of
//! 64-bit *DRAM words* (the access granularity of a READ burst, Section
//! 2.1.3 of the paper); each row belongs to a *subarray* of 512 or 1024
//! rows sharing local sense amplifiers (footnote 2 of the paper). A
//! *bitline* is one bit position across a row: bit `b` of column `c` sits
//! on bitline `c * word_bits + b`, which is the column-stripe axis of the
//! paper's Figure 4.

use crate::error::{DramError, Result};

/// Shape of one simulated DRAM device (one rank's worth of banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of banks in the device.
    pub banks: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Columns (64-bit DRAM words) per row.
    pub cols: usize,
    /// Bits per DRAM word. The paper's devices transfer 64-byte cache
    /// lines; we model the 64-bit word the failure analysis uses.
    pub word_bits: usize,
    /// Rows per subarray (512 for manufacturers A and B, 1024 for C).
    pub subarray_rows: usize,
}

impl Geometry {
    /// A compact geometry that keeps full-device characterization fast
    /// while preserving every structural property the paper measures:
    /// 8 banks × 1024 rows × 16 words (= 1024 bitlines, matching the
    /// 1024 × 1024 cell array of Figure 4).
    pub fn lpddr4_compact(subarray_rows: usize) -> Self {
        Geometry {
            banks: 8,
            rows: 1024,
            cols: 16,
            word_bits: 64,
            subarray_rows,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when any dimension is zero,
    /// `word_bits` exceeds 64, or `subarray_rows` does not divide `rows`.
    pub fn validate(&self) -> Result<()> {
        if self.banks == 0 || self.rows == 0 || self.cols == 0 || self.word_bits == 0 {
            return Err(DramError::InvalidConfig(
                "geometry dimensions must be nonzero".into(),
            ));
        }
        if self.word_bits > 64 {
            return Err(DramError::InvalidConfig(format!(
                "word_bits {} exceeds the u64 storage word",
                self.word_bits
            )));
        }
        if self.subarray_rows == 0 || !self.rows.is_multiple_of(self.subarray_rows) {
            return Err(DramError::InvalidConfig(format!(
                "subarray_rows {} must divide rows {}",
                self.subarray_rows, self.rows
            )));
        }
        Ok(())
    }

    /// Bitlines per row (`cols * word_bits`).
    #[inline]
    pub fn bitlines(&self) -> usize {
        self.cols * self.word_bits
    }

    /// Number of subarrays per bank.
    #[inline]
    pub fn subarrays(&self) -> usize {
        self.rows / self.subarray_rows
    }

    /// Subarray index of a row.
    #[inline]
    pub fn subarray_of(&self, row: usize) -> usize {
        row / self.subarray_rows
    }

    /// Row index within its subarray (distance from the local sense
    /// amplifiers, in the paper's row-gradient sense).
    #[inline]
    pub fn row_in_subarray(&self, row: usize) -> usize {
        row % self.subarray_rows
    }

    /// Total cells per bank.
    #[inline]
    pub fn cells_per_bank(&self) -> usize {
        self.rows * self.cols * self.word_bits
    }

    /// Total DRAM words per bank.
    #[inline]
    pub fn words_per_bank(&self) -> usize {
        self.rows * self.cols
    }

    /// The bitline index of `(col, bit)`.
    #[inline]
    pub fn bitline_of(&self, col: usize, bit: usize) -> usize {
        col * self.word_bits + bit
    }

    /// Iterator over every word address in one bank, column-major
    /// (the access order of the paper's Algorithm 1, Lines 4-5).
    pub fn words_col_major(&self, bank: usize) -> impl Iterator<Item = WordAddr> + '_ {
        let rows = self.rows;
        (0..self.cols).flat_map(move |col| (0..rows).map(move |row| WordAddr { bank, row, col }))
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::lpddr4_compact(512)
    }
}

/// Address of one DRAM word (the READ/WRITE granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordAddr {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (word) index within the row.
    pub col: usize,
}

impl WordAddr {
    /// Constructs a word address.
    pub fn new(bank: usize, row: usize, col: usize) -> Self {
        WordAddr { bank, row, col }
    }

    /// The address of bit `bit` within this word.
    pub fn cell(&self, bit: usize) -> CellAddr {
        CellAddr {
            bank: self.bank,
            row: self.row,
            col: self.col,
            bit,
        }
    }
}

/// Address of a single DRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellAddr {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (word) index within the row.
    pub col: usize,
    /// Bit index within the word.
    pub bit: usize,
}

impl CellAddr {
    /// Constructs a cell address.
    pub fn new(bank: usize, row: usize, col: usize, bit: usize) -> Self {
        CellAddr {
            bank,
            row,
            col,
            bit,
        }
    }

    /// The word containing this cell.
    pub fn word(&self) -> WordAddr {
        WordAddr {
            bank: self.bank,
            row: self.row,
            col: self.col,
        }
    }
}

impl From<CellAddr> for WordAddr {
    fn from(c: CellAddr) -> Self {
        c.word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_figure4_scale() {
        let g = Geometry::default();
        g.validate().unwrap();
        assert_eq!(g.bitlines(), 1024);
        assert_eq!(g.rows, 1024);
        assert_eq!(g.subarrays(), 2);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut g = Geometry::default();
        g.word_bits = 65;
        assert!(g.validate().is_err());
        let mut g = Geometry::default();
        g.subarray_rows = 300; // does not divide 1024
        assert!(g.validate().is_err());
        let mut g = Geometry::default();
        g.banks = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn subarray_indexing() {
        let g = Geometry::lpddr4_compact(512);
        assert_eq!(g.subarray_of(0), 0);
        assert_eq!(g.subarray_of(511), 0);
        assert_eq!(g.subarray_of(512), 1);
        assert_eq!(g.row_in_subarray(600), 88);
    }

    #[test]
    fn bitline_mapping_is_injective() {
        let g = Geometry::default();
        let mut seen = std::collections::HashSet::new();
        for col in 0..g.cols {
            for bit in 0..g.word_bits {
                assert!(seen.insert(g.bitline_of(col, bit)));
            }
        }
        assert_eq!(seen.len(), g.bitlines());
    }

    #[test]
    fn col_major_iteration_order() {
        let g = Geometry {
            banks: 1,
            rows: 3,
            cols: 2,
            word_bits: 8,
            subarray_rows: 3,
        };
        let order: Vec<_> = g.words_col_major(0).collect();
        // Column-order: all rows of col 0, then all rows of col 1.
        assert_eq!(order[0], WordAddr::new(0, 0, 0));
        assert_eq!(order[1], WordAddr::new(0, 1, 0));
        assert_eq!(order[2], WordAddr::new(0, 2, 0));
        assert_eq!(order[3], WordAddr::new(0, 0, 1));
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn cell_word_round_trip() {
        let c = CellAddr::new(2, 10, 3, 17);
        let w = c.word();
        assert_eq!(w.cell(17), c);
        assert_eq!(WordAddr::from(c), w);
    }
}
