//! Firmware randomness service — the paper's Section 6.3 deployment:
//! applications file REQUESTs and RECEIVE random bytes from the queue
//! the memory-controller firmware keeps topped up, with SP 800-90B-style
//! online health tests screening the stream.
//!
//! ```sh
//! cargo run --release --example secure_service
//! ```

use d_range::dram_sim::{DeviceConfig, Manufacturer};
use d_range::drange::{
    DRange, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RandomnessService, RngCellCatalog,
    ServiceConfig,
};
use d_range::memctrl::MemoryController;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctrl =
        MemoryController::from_config(DeviceConfig::new(Manufacturer::A).with_seed(0x5E21));
    let profile = Profiler::new(&mut ctrl).run(
        ProfileSpec {
            banks: (0..8).collect(),
            rows: 0..192,
            cols: 0..16,
            ..ProfileSpec::default()
        }
        .with_iterations(25),
    )?;
    let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())?;
    let trng = DRange::new(ctrl, &catalog, DRangeConfig::default())?;
    let service =
        RandomnessService::with_sources_telemetry(vec![trng], ServiceConfig::default(), None)?;

    // Applications file requests...
    let tls_key = service.request(32)?;
    let dh_nonce = service.request(16)?;
    let session_salt = service.request(8)?;
    println!(
        "filed 3 requests ({} outstanding)",
        service.outstanding_requests()
    );

    // ...and collect their bytes from the queue the firmware keeps
    // topped up whenever DRAM bandwidth is available.
    for (name, id) in [
        ("TLS key", tls_key),
        ("DH nonce", dh_nonce),
        ("salt", session_salt),
    ] {
        let bytes = service.wait_receive(id)?;
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        println!("{name:<8}: {hex}");
    }
    println!(
        "queue holds {} ready bits; health tests discarded {} bits",
        service.queued_bits(),
        service.discarded_bits()
    );

    let stats = service.shutdown();
    println!(
        "\nengine: {} bits harvested ({} discarded), {:.1} Mb/s of device time",
        stats.harvested_bits,
        stats.discarded_bits,
        stats.aggregate_device_bps() / 1e6
    );
    Ok(())
}
