//! DIEHARD-style battery on D-RaNGe output — the paper names DIEHARD
//! as the alternative validation suite (Section 2.2); this bench runs
//! the five-test battery on a multi-megabit aggregated stream.

use dram_sim::Manufacturer;
use drange_bench::{pipeline, Scale};
use drange_core::{DRange, DRangeConfig};
use nist_sts::{diehard, Bits};

fn main() {
    let scale = Scale::from_args();
    let stream_bits = scale.pick(4_200_000, 12_000_000);
    println!("== DIEHARD-style battery on D-RaNGe output ==\n");

    for m in Manufacturer::ALL {
        let (ctrl, catalog) = pipeline(
            dram_sim::DeviceConfig::new(m)
                .with_seed(0xD1E + m as u64)
                .with_noise_seed(m as u64),
            8,
            scale.pick(256, 1024),
            30,
            1000,
        );
        if catalog.is_empty() {
            continue;
        }
        let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
        let raw = trng.bits(stream_bits).expect("bits");
        let bits = Bits::from_bools(raw);
        println!("manufacturer {m} ({} bits):", stream_bits);
        match diehard::battery(&bits) {
            Ok(results) => {
                for r in &results {
                    println!(
                        "  {:<30} p = {:.4}  {}",
                        r.name(),
                        r.min_p(),
                        if r.passed(1e-4) { "PASS" } else { "FAIL" }
                    );
                }
            }
            Err(e) => println!("  battery not applicable: {e}"),
        }
        println!();
    }
    println!("paper context: \"TRNGs are usually validated using statistical tests");
    println!("such as NIST or DIEHARD\" (Section 2.2)");
}
