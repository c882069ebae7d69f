//! End-to-end integration: the full D-RaNGe pipeline
//! (profile → identify → sample → statistical validation) across the
//! workspace crates.

use d_range::dram_sim::{DataPattern, DeviceConfig, Manufacturer, WordAddr};
use d_range::drange::{DRange, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RngCellCatalog};
use d_range::memctrl::MemoryController;
use d_range::nist_sts::{self, Bits};

fn build_pipeline(seed: u64) -> (MemoryController, RngCellCatalog) {
    let mut ctrl = MemoryController::from_config(
        DeviceConfig::new(Manufacturer::A)
            .with_seed(seed)
            .with_noise_seed(seed ^ 0xFF),
    );
    let profile = Profiler::new(&mut ctrl)
        .run(
            ProfileSpec {
                banks: (0..8).collect(),
                rows: 0..256,
                cols: 0..16,
                ..ProfileSpec::default()
            }
            .with_iterations(30),
        )
        .expect("profiling succeeds");
    let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())
        .expect("identification succeeds");
    (ctrl, catalog)
}

/// The served catalog: the characterization perfbench runs before it
/// serves (and `drange-serve --source sim` at its default device seed,
/// there under OS noise) — Manufacturer A, device seed 1,
/// characterization noise seed 1, the default profiling and
/// identification specs. A change to any layer under identification
/// that moves a cell or a noise draw moves this catalog.
#[test]
fn served_catalog_is_pinned() {
    let mut ctrl = MemoryController::from_config(
        DeviceConfig::new(Manufacturer::A)
            .with_seed(1)
            .with_noise_seed(1),
    );
    let profile = Profiler::new(&mut ctrl)
        .run(ProfileSpec::default())
        .expect("profiling succeeds");
    let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())
        .expect("identification succeeds");
    assert_eq!(catalog.len(), 1481);
    assert_eq!(
        catalog.best_words(0, 2),
        vec![
            (WordAddr::new(0, 723, 14), vec![6, 7, 8, 9]),
            (WordAddr::new(0, 109, 6), vec![22, 52, 53]),
        ]
    );
}

#[test]
fn pipeline_produces_statistically_random_bits() {
    let (ctrl, catalog) = build_pipeline(0xE2E);
    assert!(!catalog.is_empty(), "RNG cells identified");
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let raw = trng.bits(120_000).expect("bits");
    let bits = Bits::from_bools(raw.into_iter());
    // The fast NIST subset that applies at 120 kb.
    assert!(
        nist_sts::monobit::test(&bits).unwrap().passed(1e-4),
        "monobit"
    );
    assert!(
        nist_sts::block_frequency::test(&bits).unwrap().passed(1e-4),
        "block freq"
    );
    assert!(nist_sts::runs::test(&bits).unwrap().passed(1e-4), "runs");
    assert!(
        nist_sts::longest_run::test(&bits).unwrap().passed(1e-4),
        "longest run"
    );
    assert!(
        nist_sts::serial::test(&bits).unwrap().passed(1e-4),
        "serial"
    );
    assert!(
        nist_sts::cumulative_sums::test(&bits).unwrap().passed(1e-4),
        "cusum"
    );
    assert!(
        nist_sts::matrix_rank::test(&bits).unwrap().passed(1e-4),
        "rank"
    );
    assert!(
        nist_sts::approximate_entropy::test(&bits)
            .unwrap()
            .passed(1e-4),
        "apen"
    );
}

#[test]
fn identified_cells_are_stable_across_reidentification() {
    // Section 5.4: manufacturing variation is fixed, so re-identifying
    // under identical conditions finds a strongly overlapping set.
    let (mut ctrl, first) = build_pipeline(0x51AB);
    let profile = Profiler::new(&mut ctrl)
        .run(
            ProfileSpec {
                banks: (0..8).collect(),
                rows: 0..256,
                cols: 0..16,
                ..ProfileSpec::default()
            }
            .with_iterations(30),
        )
        .expect("profiling succeeds");
    let second = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())
        .expect("identification succeeds");
    let a: std::collections::HashSet<_> = first.cells().into_iter().collect();
    let b: std::collections::HashSet<_> = second.cells().into_iter().collect();
    let overlap = a.intersection(&b).count() as f64;
    // The ±10% symbol filter is itself noisy, but the underlying cell
    // set is fixed: expect substantial overlap.
    let denom = a.len().min(b.len()).max(1) as f64;
    assert!(
        overlap / denom > 0.3,
        "overlap {overlap} of {} / {}",
        a.len(),
        b.len()
    );
}

#[test]
fn sampling_does_not_corrupt_unrelated_memory() {
    let (mut ctrl, catalog) = build_pipeline(0xDA7A);
    // Fill a bystander region with a known pattern.
    let bystander_rows = 300..320;
    for row in bystander_rows.clone() {
        for bank in 0..8 {
            ctrl.device_mut()
                .fill_row(bank, row, DataPattern::Checkered);
        }
    }
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let _ = trng.bits(10_000).expect("bits");
    let ctrl = trng.into_controller();
    for row in bystander_rows {
        for bank in 0..8 {
            for col in 0..16 {
                let got = ctrl.device().peek(WordAddr::new(bank, row, col)).unwrap();
                assert_eq!(
                    got,
                    DataPattern::Checkered.word(row, col, 64),
                    "bystander row {row} bank {bank} col {col} intact"
                );
            }
        }
    }
}

#[test]
fn two_devices_produce_independent_streams() {
    let (ctrl_a, cat_a) = build_pipeline(0xAAAA);
    let (ctrl_b, cat_b) = build_pipeline(0xBBBB);
    let mut ta = DRange::new(ctrl_a, &cat_a, DRangeConfig::default()).expect("plan a");
    let mut tb = DRange::new(ctrl_b, &cat_b, DRangeConfig::default()).expect("plan b");
    let a = ta.bits(4096).expect("bits a");
    let b = tb.bits(4096).expect("bits b");
    let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64;
    assert!((agree - 0.5).abs() < 0.06, "cross-device agreement {agree}");
}

#[test]
fn trcd_register_is_restored_after_every_stage() {
    let (ctrl, catalog) = build_pipeline(0x7E57);
    assert_eq!(ctrl.trcd_ns(), 18.0, "after profile+identify");
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let _ = trng.bits(1000).expect("bits");
    assert_eq!(
        trng.controller().registers().trcd_ns(),
        18.0,
        "after sampling"
    );
}

#[test]
fn throughput_model_and_measurement_agree() {
    use d_range::drange::throughput::catalog_throughput_bps;
    let (ctrl, catalog) = build_pipeline(0x3A3A);
    let timing = ctrl.device().timing();
    let modeled = catalog_throughput_bps(&catalog, timing, 10.0, 8, 8);
    let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("plan");
    let _ = trng.bits(50_000).expect("bits");
    let measured = trng.stats().throughput_bps();
    // The Eq.(1) model ignores restore-write variation and tRCD
    // register switching, so allow a factor-3 band.
    let ratio = modeled / measured;
    assert!(
        (0.33..3.0).contains(&ratio),
        "modeled {modeled} vs measured {measured} (ratio {ratio})"
    );
}
