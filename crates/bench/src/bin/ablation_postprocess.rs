//! Ablation — post-processing cost (paper Section 2.2).
//!
//! The paper notes D-RaNGe's RNG cells need no post-processing, while
//! standard de-biasing stages cost "up to 80 %" of throughput. This
//! ablation measures the von Neumann corrector's cost on D-RaNGe output
//! and on artificially biased streams, and the SHA-256 conditioning
//! rate for comparison.

use dram_sim::{DeviceConfig, Manufacturer};
use drange_bench::{pipeline, Scale};
use drange_core::{DRange, DRangeConfig, VonNeumann};
use trng_baselines::Sha256;

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(40_000, 400_000);
    println!("== Ablation: post-processing throughput cost ==\n");

    let (ctrl, catalog) = pipeline(
        DeviceConfig::new(Manufacturer::B)
            .with_seed(88)
            .with_noise_seed(89),
        8,
        scale.pick(256, 1024),
        30,
        1000,
    );
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let raw = trng.bits(n).expect("bits");
    let raw_bps = trng.stats().throughput_bps();
    let ones = raw.iter().filter(|&&b| b).count() as f64 / raw.len() as f64;
    println!(
        "raw D-RaNGe stream: {} bits, ones fraction {ones:.4}",
        raw.len()
    );
    println!("raw throughput: {:.2} Mb/s (device time)\n", raw_bps / 1e6);

    // Von Neumann on the (already unbiased) D-RaNGe output.
    let mut vn = VonNeumann::new();
    let corrected = vn.correct(&raw);
    println!(
        "von Neumann on D-RaNGe output: {} -> {} bits (efficiency {:.3}; ideal unbiased source: 0.25)",
        raw.len(),
        corrected.len(),
        vn.efficiency()
    );
    println!(
        "effective throughput after correction: {:.2} Mb/s ({:.0}% cost)",
        raw_bps * vn.efficiency() / 1e6,
        (1.0 - vn.efficiency()) * 100.0
    );

    // Von Neumann on a biased source (what the paper's "up to 80%" is
    // about): p = 0.8 bias.
    let mut state = 0x1234u64;
    let biased: Vec<bool> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            !(state >> 33).is_multiple_of(5) // 80% ones
        })
        .collect();
    let mut vn2 = VonNeumann::new();
    let corrected2 = vn2.correct(&biased);
    println!(
        "\nvon Neumann on an 80/20 biased source: {} -> {} bits (efficiency {:.3}, {:.0}% cost)",
        biased.len(),
        corrected2.len(),
        vn2.efficiency(),
        (1.0 - vn2.efficiency()) * 100.0
    );

    // SHA-256 conditioning: 2:1 compression of the raw stream.
    let bytes: Vec<u8> = raw
        .chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
        .collect();
    let mut out_bits = 0usize;
    for block in bytes.chunks(64) {
        let _ = Sha256::digest(block);
        out_bits += 256;
    }
    let ratio = out_bits as f64 / (bytes.len() * 8) as f64;
    println!(
        "\nSHA-256 conditioning (512 -> 256 bits): rate ratio {ratio:.2} ({:.0}% cost)",
        (1.0 - ratio.min(1.0)) * 100.0
    );
    println!("\npaper: RNG cells are unbiased, so D-RaNGe skips post-processing entirely;");
    println!("de-biasing costs up to 80% of throughput on biased sources");
}
