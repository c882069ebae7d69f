//! Integration: the firmware randomness service (Section 6.3) and the
//! combined TRNG (Section 8.4) running on the full stack.

use d_range::baselines::retention_trng::RetentionRegion;
use d_range::baselines::CombinedTrng;
use d_range::dram_sim::{DeviceConfig, Manufacturer};
use d_range::drange::{
    DRange, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RandomnessService, RngCellCatalog,
    ServiceConfig,
};
use d_range::memctrl::MemoryController;
use d_range::nist_sts::second_level::SecondLevelReport;

fn pipeline(seed: u64, banks: usize) -> (MemoryController, RngCellCatalog) {
    let mut ctrl = MemoryController::from_config(
        DeviceConfig::new(Manufacturer::B)
            .with_seed(seed)
            .with_noise_seed(seed ^ 0x33),
    );
    let profile = Profiler::new(&mut ctrl)
        .run(
            ProfileSpec {
                banks: (0..banks).collect(),
                rows: 0..160,
                cols: 0..16,
                ..ProfileSpec::default()
            }
            .with_iterations(25),
        )
        .expect("profiling succeeds");
    let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())
        .expect("identification succeeds");
    (ctrl, catalog)
}

#[test]
fn service_fulfills_interleaved_requests() {
    let (ctrl, catalog) = pipeline(0x51C3, 8);
    let trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    // A small pool bounds the background prefill, keeping the
    // zero-discard assertion over a short, seed-fixed stream stretch.
    let config = ServiceConfig {
        queue_capacity: 4096,
        low_watermark: 512,
        ..Default::default()
    };
    let service = RandomnessService::with_sources_telemetry(vec![trng], config, None).expect("svc");

    let ids: Vec<_> = (1..=5)
        .map(|i| service.request(i * 8).expect("req"))
        .collect();
    assert_eq!(service.outstanding_requests(), 5);
    // Collected out of filing order: each id carries its own length.
    for (i, id) in ids.into_iter().enumerate().rev() {
        let bytes = service.wait_receive(id).expect("serve");
        assert_eq!(bytes.len(), (i + 1) * 8);
    }
    assert_eq!(service.outstanding_requests(), 0);
    assert_eq!(
        service.discarded_bits(),
        0,
        "healthy device discards nothing"
    );
}

#[test]
fn service_output_is_statistically_plausible() {
    let (ctrl, catalog) = pipeline(0xB17E, 8);
    let trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let service =
        RandomnessService::with_sources_telemetry(vec![trng], ServiceConfig::default(), None)
            .expect("svc");
    let id = service.request(4096).expect("req");
    let bytes = service.wait_receive(id).expect("serve");
    let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
    let n = (bytes.len() * 8) as f64;
    let z = (ones as f64 - n / 2.0) / (n / 4.0).sqrt();
    assert!(z.abs() < 4.5, "service bytes balanced (z = {z})");
}

#[test]
fn service_serves_concurrent_clients() {
    // Four client threads file and collect interleaved requests
    // against one shared service: every id must resolve exactly once
    // with a buffer of the requested length, and no bytes may leak
    // between clients.
    let (ctrl, catalog) = pipeline(0x7A11, 8);
    let trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let service =
        RandomnessService::with_sources_telemetry(vec![trng], ServiceConfig::default(), None)
            .expect("svc");

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for client in 0..4usize {
            let service = &service;
            clients.push(scope.spawn(move || {
                let mut total = 0usize;
                for round in 0..5usize {
                    let len = 8 + 4 * client + round;
                    let id = service.request(len).expect("req");
                    let bytes = service.wait_receive(id).expect("serve");
                    assert_eq!(bytes.len(), len);
                    assert!(
                        service.wait_receive(id).is_err(),
                        "an id resolves exactly once"
                    );
                    total += len;
                }
                total
            }));
        }
        let total: usize = clients.into_iter().map(|c| c.join().expect("client")).sum();
        assert_eq!(service.outstanding_requests(), 0);
        let stats = service.stats();
        assert_eq!(stats.served_bits, (total * 8) as u64);
    });
}

#[test]
fn combined_trng_streams_and_reports() {
    let (ctrl, catalog) = pipeline(0xC0B1, 7);
    let mut combined = CombinedTrng::new(
        ctrl,
        &catalog,
        RetentionRegion {
            bank: 7,
            rows: 0..96,
        },
        40.0,
    )
    .expect("combined");
    combined.idle(41.0);
    let bits = combined.bits(8_000).expect("bits");
    assert_eq!(bits.len(), 8_000);
    let s = combined.stats();
    assert!(s.drange_bits > 0);
    // Total contributions at least cover the request.
    assert!(s.drange_bits + s.retention_bits >= 8_000);
}

#[test]
fn second_level_analysis_accepts_drange_pvalues() {
    // Run monobit over many short windows of one stream: the p-values
    // must be uniform and the passing proportion within the NIST band.
    let (ctrl, catalog) = pipeline(0x2ED, 8);
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let mut p_values = Vec::new();
    for _ in 0..60 {
        let raw = trng.bits(2_000).expect("bits");
        let bits = d_range::nist_sts::Bits::from_bools(raw.into_iter());
        p_values.push(
            d_range::nist_sts::monobit::test(&bits)
                .expect("monobit")
                .p_values()[0],
        );
    }
    let report = SecondLevelReport::analyze(0.01, &p_values);
    assert!(report.acceptable(), "{report}");
}
