//! Process-variation model: fixed-at-manufacturing-time latent
//! parameters for every sense amplifier, bitline, and cell.
//!
//! Bitline/sense-amp strengths are materialized (they are few), while
//! per-cell parameters are derived on demand from a counter-based hash of
//! the device seed and the cell coordinates (they are many). Both are
//! deterministic functions of the seed — the model's analogue of the
//! paper's observation that a cell's activation-failure probability is
//! fully determined at manufacturing time (Section 5.4).

use crate::geometry::{CellAddr, Geometry};
use crate::manufacturer::PhysicsProfile;
use crate::math::{cell_key, gauss_for_key, splitmix64, to_unit_f64, unit_for_key};

/// Salt values for the independent per-cell latent fields.
mod salt {
    pub(super) const EPS: u64 = 0x01;
    pub(super) const COUPL_L: u64 = 0x02;
    pub(super) const COUPL_R: u64 = 0x03;
    pub(super) const CHARGE: u64 = 0x04;
    pub(super) const TEMP: u64 = 0x05;
    pub(super) const STRENGTH: u64 = 0x06;
    pub(super) const WEAK_PICK: u64 = 0x07;
    pub(super) const WEAK_COUNT: u64 = 0x08;
    pub(super) const CLUSTER: u64 = 0x09;
}

/// Materialized per-bitline sense-amp drive strengths with the weak
/// subset marked (the "weaker local sense amplifiers" of Section 5.1).
#[derive(Debug, Clone)]
pub struct VariationMap {
    geometry: Geometry,
    subarrays: usize,
    /// Drive strength per `(bank, subarray, bitline)`, row-major.
    strengths: Vec<f32>,
    /// Weak flag per `(bank, subarray, bitline)`.
    weak: Vec<bool>,
}

impl VariationMap {
    /// Builds the strength map for a device with the given seed.
    ///
    /// Subarray structure comes from `geometry.subarray_rows` (the device
    /// configuration is responsible for aligning it with the profile).
    pub fn build(seed: u64, geometry: Geometry, profile: &PhysicsProfile) -> Self {
        let subarrays = geometry.subarrays().max(1);
        let bitlines = geometry.bitlines();
        let n = geometry.banks * subarrays * bitlines;
        let mut strengths = vec![0f32; n];
        let mut weak = vec![false; n];

        for bank in 0..geometry.banks {
            for sub in 0..subarrays {
                let base = (bank * subarrays + sub) * bitlines;
                // Strong strengths for every bitline.
                for bl in 0..bitlines {
                    let k = cell_key(seed, salt::STRENGTH, bank as u64, sub as u64, bl as u64, 0);
                    strengths[base + bl] =
                        (profile.strong_mean + profile.strong_sd * gauss_for_key(k)) as f32;
                }
                // Poisson-distributed number of weak bitlines, scaled to
                // the geometry's bitline count.
                let lambda = profile.weak_per_1024_bitlines * bitlines as f64 / 1024.0;
                let count_key = cell_key(seed, salt::WEAK_COUNT, bank as u64, sub as u64, 0, 0);
                let count = poisson_for_key(count_key, lambda).min(bitlines as u64) as usize;
                // Pick distinct weak bitlines. Weak bitlines cluster:
                // with some probability a pick also weakens its
                // immediate neighbors (shared-contact defects), which
                // produces the multi-RNG-cell words of Figure 7.
                let mut picked = 0usize;
                let mut attempt = 0u64;
                let mark_weak =
                    |weak: &mut Vec<bool>, strengths: &mut Vec<f32>, bl: usize, key: u64| -> bool {
                        if weak[base + bl] {
                            return false;
                        }
                        weak[base + bl] = true;
                        let s = profile.weak_mean + profile.weak_sd * gauss_for_key(key);
                        strengths[base + bl] = s.max(profile.weak_floor) as f32;
                        true
                    };
                while picked < count && attempt < 64 * count as u64 + 64 {
                    let k = cell_key(seed, salt::WEAK_PICK, bank as u64, sub as u64, attempt, 0);
                    let bl = (splitmix64(k) % bitlines as u64) as usize;
                    attempt += 1;
                    if !mark_weak(&mut weak, &mut strengths, bl, splitmix64(k)) {
                        continue;
                    }
                    picked += 1;
                    // Clustered neighbors (do not count against `count`).
                    let u1 = to_unit_f64(splitmix64(k ^ 0x11));
                    if u1 < profile.weak_neighbor1_p && bl + 1 < bitlines {
                        mark_weak(&mut weak, &mut strengths, bl + 1, splitmix64(k ^ 0x22));
                    }
                    let u2 = to_unit_f64(splitmix64(k ^ 0x33));
                    if u2 < profile.weak_neighbor2_p && bl + 2 < bitlines {
                        mark_weak(&mut weak, &mut strengths, bl + 2, splitmix64(k ^ 0x44));
                    }
                }
                // Cluster defect sites: a group of adjacent bitlines with
                // near-metastable strength (Figure 7's 3-4-RNG-cell words).
                let site_key = cell_key(seed, salt::CLUSTER, bank as u64, sub as u64, 0, 0);
                let sites = poisson_for_key(site_key, profile.cluster_sites_per_subarray);
                for s in 0..sites {
                    let k = cell_key(seed, salt::CLUSTER, bank as u64, sub as u64, s + 1, 1);
                    let width = profile.cluster_width.max(1).min(bitlines);
                    let start = (splitmix64(k) % (bitlines - width + 1) as u64) as usize;
                    for (j, bl) in (start..start + width).enumerate() {
                        weak[base + bl] = true;
                        let g = gauss_for_key(splitmix64(k ^ (j as u64 + 0x55)));
                        let v = profile.cluster_strength_mean + profile.cluster_strength_sd * g;
                        strengths[base + bl] = v.max(profile.weak_floor) as f32;
                    }
                }
            }
        }

        VariationMap {
            geometry,
            subarrays,
            strengths,
            weak,
        }
    }

    #[inline]
    fn index(&self, bank: usize, sub: usize, bitline: usize) -> usize {
        (bank * self.subarrays + sub) * self.geometry.bitlines() + bitline
    }

    /// Number of subarrays per bank in this map.
    #[inline]
    pub fn subarrays(&self) -> usize {
        self.subarrays
    }

    /// Drive strength of a bitline's sense amplifier in a subarray.
    #[inline]
    pub fn strength(&self, bank: usize, sub: usize, bitline: usize) -> f64 {
        self.strengths[self.index(bank, sub, bitline)] as f64
    }

    /// Whether the bitline is one of the weak (failure-prone) ones.
    #[inline]
    pub fn is_weak(&self, bank: usize, sub: usize, bitline: usize) -> bool {
        self.weak[self.index(bank, sub, bitline)]
    }

    /// The weak bitline indices of one subarray, ascending.
    pub fn weak_bitlines(&self, bank: usize, sub: usize) -> Vec<usize> {
        let bitlines = self.geometry.bitlines();
        (0..bitlines)
            .filter(|&bl| self.is_weak(bank, sub, bl))
            .collect()
    }
}

/// Deterministic Poisson sample (Knuth's algorithm) for a key.
fn poisson_for_key(key: u64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    let mut state = key;
    loop {
        state = splitmix64(state.wrapping_add(0x9E37_79B9));
        p *= to_unit_f64(state).max(1e-300);
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

/// Per-cell fixed latent parameters, derived on demand.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellLatents {
    /// Fixed margin offset in volts (manufacturing variation).
    pub eps_v: f64,
    /// Coupling weight to the left-adjacent bitline, volts (≥ 0).
    pub coupl_left_v: f64,
    /// Coupling weight to the right-adjacent bitline, volts (≥ 0).
    pub coupl_right_v: f64,
    /// Charge-orientation preference, volts (signed).
    pub charge_pref_v: f64,
    /// Temperature-sensitivity multiplier (mean 1; can be negative).
    pub temp_sens: f64,
}

/// Derives the latent parameters of one cell.
pub fn cell_latents(seed: u64, profile: &PhysicsProfile, cell: CellAddr) -> CellLatents {
    let (b, r, c, i) = (
        cell.bank as u64,
        cell.row as u64,
        cell.col as u64,
        cell.bit as u64,
    );
    let g = |s: u64| {
        gauss_for_key(cell_key(
            seed,
            s,
            b,
            r,
            c.wrapping_mul(64).wrapping_add(i),
            0,
        ))
    };
    CellLatents {
        eps_v: profile.cell_sd_v * g(salt::EPS),
        coupl_left_v: (profile.adj_coupling_v + profile.adj_coupling_sd_v * g(salt::COUPL_L))
            .max(0.0),
        coupl_right_v: (profile.adj_coupling_v + profile.adj_coupling_sd_v * g(salt::COUPL_R))
            .max(0.0),
        charge_pref_v: profile.charge_delta_v + profile.charge_pref_sd_v * g(salt::CHARGE),
        temp_sens: 1.0 + profile.temp_sens_sd * g(salt::TEMP),
    }
}

/// Deterministic uniform draw in `[0,1)` for a cell and salt — used by
/// the retention and startup models.
pub fn cell_uniform(seed: u64, salt: u64, cell: CellAddr) -> f64 {
    let (b, r, c, i) = (
        cell.bank as u64,
        cell.row as u64,
        cell.col as u64,
        cell.bit as u64,
    );
    unit_for_key(cell_key(
        seed,
        salt,
        b,
        r,
        c.wrapping_mul(64).wrapping_add(i),
        1,
    ))
}

/// Deterministic standard-normal draw for a cell and salt.
pub fn cell_gauss(seed: u64, salt: u64, cell: CellAddr) -> f64 {
    let (b, r, c, i) = (
        cell.bank as u64,
        cell.row as u64,
        cell.col as u64,
        cell.bit as u64,
    );
    gauss_for_key(cell_key(
        seed,
        salt,
        b,
        r,
        c.wrapping_mul(64).wrapping_add(i),
        2,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manufacturer::Manufacturer;

    fn map() -> VariationMap {
        let g = Geometry::default();
        VariationMap::build(1234, g, &Manufacturer::A.profile())
    }

    #[test]
    fn deterministic_across_builds() {
        let a = map();
        let b = map();
        assert_eq!(a.strength(0, 0, 5), b.strength(0, 0, 5));
        assert_eq!(a.weak_bitlines(3, 1), b.weak_bitlines(3, 1));
    }

    #[test]
    fn different_seeds_differ() {
        let g = Geometry::default();
        let p = Manufacturer::A.profile();
        let a = VariationMap::build(1, g, &p);
        let b = VariationMap::build(2, g, &p);
        assert_ne!(a.weak_bitlines(0, 0), b.weak_bitlines(0, 0));
    }

    #[test]
    fn weak_counts_are_plausible() {
        let m = map();
        let g = Geometry::default();
        let mut total = 0usize;
        let mut subarrays_with_weak = 0usize;
        for bank in 0..g.banks {
            for sub in 0..m.subarrays() {
                let w = m.weak_bitlines(bank, sub).len();
                total += w;
                if w > 0 {
                    subarrays_with_weak += 1;
                }
            }
        }
        let per_sub = total as f64 / (g.banks * m.subarrays()) as f64;
        // Poisson(7) primaries plus clustered neighbors (~×1.55) plus
        // ~1 cluster site of width 4 per subarray: expect roughly 15.
        assert!(
            per_sub > 6.0 && per_sub < 25.0,
            "mean weak per subarray {per_sub}"
        );
        assert!(
            subarrays_with_weak >= g.banks,
            "most subarrays have weak bitlines"
        );
    }

    #[test]
    fn weak_bitlines_are_weaker_than_strong() {
        let m = map();
        let weak = m.weak_bitlines(0, 0);
        if let Some(&bl) = weak.first() {
            let strong_bl = (0..1024).find(|b| !m.is_weak(0, 0, *b)).unwrap();
            assert!(m.strength(0, 0, bl) < m.strength(0, 0, strong_bl));
        }
        // Strong strengths cluster near the profile mean.
        let p = Manufacturer::A.profile();
        let s = m.strength(0, 0, (0..1024).find(|b| !m.is_weak(0, 0, *b)).unwrap());
        assert!((s - p.strong_mean).abs() < 6.0 * p.strong_sd);
    }

    #[test]
    fn subarray_weak_sets_are_independent() {
        let m = map();
        // Figure 4: different subarrays have different failing columns.
        // With 1024 bitlines and ~7 weak each, identical sets would be
        // astronomically unlikely.
        let a = m.weak_bitlines(0, 0);
        let b = m.weak_bitlines(0, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn latents_are_deterministic_and_spread() {
        let p = Manufacturer::A.profile();
        let c = CellAddr::new(0, 10, 3, 7);
        let l1 = cell_latents(99, &p, c);
        let l2 = cell_latents(99, &p, c);
        assert_eq!(l1, l2);
        let other = cell_latents(99, &p, CellAddr::new(0, 10, 3, 8));
        assert_ne!(l1, other);
        assert!(l1.coupl_left_v >= 0.0 && l1.coupl_right_v >= 0.0);
    }

    #[test]
    fn poisson_mean_is_close() {
        let lambda = 7.0;
        let n = 20_000u64;
        let mut sum = 0u64;
        for i in 0..n {
            sum += poisson_for_key(splitmix64(i), lambda);
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.15, "poisson mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        assert_eq!(poisson_for_key(42, 0.0), 0);
        assert_eq!(poisson_for_key(42, -1.0), 0);
    }
}
