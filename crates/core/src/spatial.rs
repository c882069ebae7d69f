//! Spatial-structure inference from failure profiles.
//!
//! Section 5.1 of the paper *infers* the DRAM subarray architecture
//! from the failure bitmap: "we hypothesize that these contiguous
//! regions reveal the DRAM subarray architecture as a result of
//! variation across the local sense amplifiers". This module implements
//! that inference: given a [`FailureProfile`], it recovers the failing
//! bit-columns, clusters rows into subarray-like segments by the
//! similarity of their failing-column sets, and quantifies the
//! within-segment row gradient — without access to the device's ground
//! truth.

use std::collections::BTreeSet;

use crate::profiler::FailureProfile;

/// A contiguous row segment with a consistent failing-column set (the
/// inferred subarray).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredSegment {
    /// First row of the segment (inclusive).
    pub start_row: usize,
    /// One past the last row of the segment.
    pub end_row: usize,
    /// Failing bitline indices characteristic of the segment.
    pub columns: Vec<usize>,
}

impl InferredSegment {
    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.end_row - self.start_row
    }
}

/// Result of the spatial analysis of one bank.
#[derive(Debug, Clone)]
pub struct SpatialAnalysis {
    /// Inferred row segments (subarray candidates), ascending by row.
    pub segments: Vec<InferredSegment>,
    /// Pearson-style correlation between within-segment row position
    /// and per-row failure count, averaged over segments — positive
    /// when far-from-sense-amp rows fail more (the paper's gradient).
    pub row_gradient_correlation: f64,
}

/// Infers spatial structure from a profile's bank bitmap.
///
/// `window` controls the row-block granularity of the segmentation
/// (32 is a good default for 512/1024-row subarrays); `min_jaccard`
/// is the failing-column-set similarity threshold below which a new
/// segment is opened.
pub fn analyze(
    profile: &FailureProfile,
    bank: usize,
    word_bits: usize,
    window: usize,
    min_jaccard: f64,
) -> SpatialAnalysis {
    let bitmap = profile.bitmap(bank, word_bits);
    let rows = bitmap.len();
    let window = window.max(1).min(rows.max(1));

    // Failing-column sets per row block.
    let block_columns: Vec<BTreeSet<usize>> = (0..rows / window)
        .map(|b| {
            let mut cols = BTreeSet::new();
            for row in &bitmap[b * window..(b + 1) * window] {
                for (c, &marked) in row.iter().enumerate() {
                    if marked {
                        cols.insert(c);
                    }
                }
            }
            cols
        })
        .collect();

    // Greedy segmentation on Jaccard similarity of adjacent blocks.
    let mut segments: Vec<InferredSegment> = Vec::new();
    let mut seg_start_block = 0usize;
    let mut seg_cols: BTreeSet<usize> = block_columns.first().cloned().unwrap_or_default();
    for (b, cols) in block_columns.iter().enumerate().skip(1) {
        if jaccard(&seg_cols, cols) < min_jaccard {
            segments.push(InferredSegment {
                start_row: seg_start_block * window,
                end_row: b * window,
                columns: seg_cols.iter().copied().collect(),
            });
            seg_start_block = b;
            seg_cols = cols.clone();
        } else {
            seg_cols.extend(cols.iter().copied());
        }
    }
    if !block_columns.is_empty() {
        segments.push(InferredSegment {
            start_row: seg_start_block * window,
            end_row: (rows / window) * window,
            columns: seg_cols.iter().copied().collect(),
        });
    }

    // Row gradient: correlation of (row position within segment,
    // failures in row), averaged over segments that have failures.
    let mut correlations = Vec::new();
    for seg in &segments {
        let counts: Vec<f64> = (seg.start_row..seg.end_row)
            .map(|r| bitmap[r].iter().filter(|&&m| m).count() as f64)
            .collect();
        if counts.iter().sum::<f64>() == 0.0 || counts.len() < 4 {
            continue;
        }
        let xs: Vec<f64> = (0..counts.len()).map(|i| i as f64).collect();
        correlations.push(pearson(&xs, &counts));
    }
    let row_gradient_correlation = if correlations.is_empty() {
        0.0
    } else {
        correlations.iter().sum::<f64>() / correlations.len() as f64
    };

    SpatialAnalysis {
        segments,
        row_gradient_correlation,
    }
}

fn jaccard(a: &BTreeSet<usize>, b: &BTreeSet<usize>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{ProfileSpec, Profiler};
    use dram_sim::{DeviceConfig, Manufacturer};
    use memctrl::MemoryController;

    fn profile() -> (MemoryController, FailureProfile) {
        let mut ctrl = MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(31)
                .with_noise_seed(32),
        );
        let p = Profiler::new(&mut ctrl)
            .run(ProfileSpec::default().with_iterations(25))
            .unwrap();
        (ctrl, p)
    }

    #[test]
    fn recovers_the_subarray_boundary() {
        let (ctrl, p) = profile();
        let analysis = analyze(&p, 0, 64, 32, 0.2);
        // The default device has 512-row subarrays in a 1024-row bank:
        // expect a small number of segments with a boundary at row 512.
        assert!(
            (2..=6).contains(&analysis.segments.len()),
            "segments: {:?}",
            analysis.segments.len()
        );
        let boundaries: Vec<usize> = analysis.segments.iter().map(|s| s.start_row).collect();
        assert!(
            boundaries.iter().any(|&b| (480..=544).contains(&b)),
            "a boundary near row 512 must be found: {boundaries:?}"
        );
        let _ = ctrl;
    }

    #[test]
    fn segments_tile_the_bank() {
        let (_ctrl, p) = profile();
        let analysis = analyze(&p, 0, 64, 32, 0.2);
        let mut expected_start = 0;
        for seg in &analysis.segments {
            assert_eq!(seg.start_row, expected_start);
            assert!(seg.rows() > 0);
            expected_start = seg.end_row;
        }
        assert_eq!(expected_start, 1024);
    }

    #[test]
    fn gradient_is_positive() {
        let (_ctrl, p) = profile();
        let analysis = analyze(&p, 0, 64, 32, 0.2);
        assert!(
            analysis.row_gradient_correlation > 0.2,
            "gradient correlation {}",
            analysis.row_gradient_correlation
        );
    }

    #[test]
    fn segments_report_failing_columns() {
        let (ctrl, p) = profile();
        let analysis = analyze(&p, 0, 64, 32, 0.2);
        for seg in &analysis.segments {
            for &col in &seg.columns {
                assert!(col < 1024);
            }
            // Columns match the device's weak-bitline ground truth for
            // the corresponding subarray (subset relation: profiling
            // may miss rarely-failing bitlines).
            let sub = seg.start_row / 512;
            let truth = ctrl.device().variation().weak_bitlines(0, sub.min(1));
            let hits = seg.columns.iter().filter(|c| truth.contains(c)).count();
            if !seg.columns.is_empty() {
                assert!(
                    hits * 2 >= seg.columns.len(),
                    "most inferred columns are true weak bitlines"
                );
            }
        }
    }

    #[test]
    fn helpers_behave() {
        let a: BTreeSet<usize> = [1, 2, 3].into_iter().collect();
        let b: BTreeSet<usize> = [2, 3, 4].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&BTreeSet::new(), &BTreeSet::new()), 1.0);
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
