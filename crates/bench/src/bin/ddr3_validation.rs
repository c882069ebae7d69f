//! Section 4 — DDR3 cross-validation.
//!
//! The paper verifies its LPDDR4 observations on 4 DDR3 devices from a
//! single manufacturer via SoftMC. This bench runs the full pipeline on
//! 4 simulated DDR3 devices (DDR3-1600 timing, 13.75 ns datasheet
//! tRCD) and checks that activation failures, RNG cells, and balanced
//! random output all carry over.

use dram_sim::{DeviceConfig, DramStandard, Manufacturer};
use drange_bench::{mbps, Scale};
use drange_core::throughput::catalog_throughput_bps;
use drange_core::{DRange, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RngCellCatalog};
use memctrl::MemoryController;
use nist_sts::Bits;

fn main() {
    let scale = Scale::from_args();
    let rows = scale.pick(256, 1024);
    println!("== Section 4: DDR3 cross-validation (4 devices, one manufacturer) ==\n");

    for dev in 0..4u64 {
        let config = DeviceConfig::new(Manufacturer::A)
            .with_standard(DramStandard::Ddr3)
            .with_seed(4000 + dev)
            .with_noise_seed(40 + dev);
        let mut ctrl = MemoryController::from_config(config);
        let timing = ctrl.device().timing();
        // Reduce proportionally below the DDR3 datasheet tRCD.
        let reduced = 10.0;
        let profile = Profiler::new(&mut ctrl)
            .run(
                ProfileSpec {
                    banks: (0..8).collect(),
                    rows: 0..rows,
                    ..ProfileSpec::default()
                }
                .with_trcd_ns(reduced)
                .with_iterations(30),
            )
            .expect("profiling succeeds");
        let catalog = RngCellCatalog::identify(
            &mut ctrl,
            &profile,
            IdentifySpec {
                trcd_ns: reduced,
                ..IdentifySpec::default()
            },
        )
        .expect("identification succeeds");
        let tput = catalog_throughput_bps(&catalog, timing, reduced, 8, 8);

        let mut line = format!(
            "device {dev}: {} failing cells, {} RNG cells, Eq.(1) throughput {}",
            profile.unique_failures(),
            catalog.len(),
            mbps(tput),
        );
        if !catalog.is_empty() {
            let mut trng = DRange::new(
                ctrl,
                &catalog,
                DRangeConfig {
                    trcd_ns: reduced,
                    ..DRangeConfig::default()
                },
            )
            .expect("plan");
            let raw = trng.bits(scale.pick(20_000, 200_000)).expect("bits");
            let bits = Bits::from_bools(raw);
            let monobit = nist_sts::monobit::test(&bits).expect("monobit");
            let runs = nist_sts::runs::test(&bits).expect("runs");
            line.push_str(&format!(
                ", monobit p = {:.3}, runs p = {:.3}",
                monobit.p_values()[0],
                runs.p_values()[0]
            ));
        }
        println!("{line}");
    }
    println!("\npaper: the DDR3 devices show the same activation-failure behavior,");
    println!("demonstrating D-RaNGe works across DRAM generations");
}
