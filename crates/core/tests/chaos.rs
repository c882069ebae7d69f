//! Chaos-tier integration test: environmental fault injection against
//! the self-healing RNG-cell lifecycle.
//!
//! The scenario mirrors a hostile deployment window for a DRAM TRNG:
//! a 20 °C thermal shock with a ramp back to baseline, accelerated
//! aging on well over 5 % of the RNG-cell population, and a handful of
//! transiently stuck cells. The lifecycle must quarantine the affected
//! cells through its statistical monitors, re-characterize them after
//! backoff, reinstate the cells whose fault cleared, permanently retire
//! the worn-out ones, and keep producing bits that still pass a NIST
//! smoke screen — all within a bounded number of batches and without
//! entering degraded mode.
//!
//! Run by the `chaos-smoke` CI job and, at full scale, by the nightly
//! workflow.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dram_sim::{select_fraction, CellAddr, DeviceConfig, EnvSchedule, Manufacturer};
use drange_core::telemetry::MetricsRegistry;
use drange_core::{
    resilient_channel_sources, DRange, DRangeConfig, EngineConfig, HarvestEngine, IdentifySpec,
    LifecycleConfig, ProfileSpec, Profiler, ResilientDRange, RngCellCatalog,
};
use memctrl::MemoryController;
use nist_sts::Bits;

fn device_config() -> DeviceConfig {
    DeviceConfig::new(Manufacturer::A)
        .with_seed(42)
        .with_noise_seed(4242)
}

/// Profiling and identification are deterministic for fixed seeds, so
/// the catalog is built once and shared across the chaos tests.
fn catalog() -> &'static RngCellCatalog {
    static CATALOG: OnceLock<RngCellCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut ctrl = MemoryController::from_config(device_config());
        let profile = Profiler::new(&mut ctrl)
            .run(
                ProfileSpec {
                    banks: (0..8).collect(),
                    rows: 0..128,
                    cols: 0..16,
                    ..ProfileSpec::default()
                }
                .with_iterations(25),
            )
            .unwrap();
        RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default()).unwrap()
    })
}

/// Lifecycle tuning for the chaos tier: the run-length cutoff stays
/// high enough that honest cells essentially never trip (a run of 24
/// identical bits has probability ~2^-23 per bit), while injected
/// stuck-at and heavy-wear faults trip deterministically within 24
/// batches.
fn chaos_lifecycle() -> LifecycleConfig {
    // max_strikes 4 tolerates one premature re-characterization: a cell
    // whose pre-fault bits happened to match the stuck value trips its
    // run monitor early, so the first recheck can land while the
    // transient fault is still active — the doubled backoff then pushes
    // the next recheck past the fault's clearing instead of retiring a
    // healable cell. Persistently worn cells still retire after three
    // failed rechecks.
    LifecycleConfig {
        stuck_run_cutoff: 24,
        bias_window: 64,
        backoff_batches: 8,
        max_strikes: 4,
        ..LifecycleConfig::default()
    }
}

#[test]
fn chaos_schedule_quarantines_reinstates_and_retires() {
    let r = ResilientDRange::new(
        MemoryController::from_config(device_config()),
        catalog(),
        DRangeConfig::default(),
        chaos_lifecycle(),
    )
    .unwrap();
    let active = r.generator().active_cells();

    // Accelerated aging on >5 % of the population: the wear is
    // persistent, so these cells must end up retired. The seeded draw
    // is per-cell Bernoulli, so top it up deterministically to the 5 %
    // floor — the catalog (and with it the draw count) shifts with the
    // noise stream.
    let mut aged = select_fraction(0xC0FFEE, &active, 0.08);
    let min_aged = (active.len().div_ceil(20)).max(2);
    for c in &active {
        if aged.len() >= min_aged {
            break;
        }
        if !aged.contains(c) {
            aged.push(*c);
        }
    }
    assert!(
        aged.len() * 20 >= active.len() && !aged.is_empty(),
        "aging must cover at least 5% of {} cells, got {}",
        active.len(),
        aged.len()
    );
    // Transient stuck-at faults that the schedule later clears: these
    // cells must be quarantined and then reinstated.
    let transient: Vec<CellAddr> = active
        .iter()
        .copied()
        .filter(|c| !aged.contains(c))
        .take(3)
        .collect();
    assert_eq!(transient.len(), 3);

    // One schedule step is applied per harvested batch. The thermal
    // excursion is deliberately shorter than the statistical windows
    // (it must not trip anyone); the stuck-at faults clear before
    // their victims' re-characterization at trip + backoff, while the
    // wear never clears.
    let schedule = EnvSchedule::new(0xC0FFEE)
        .shock(20.0)
        .hold(2)
        .ramp(-20.0, 4)
        .stuck_at(&transient, true)
        .age_cells(&aged, 10.0)
        .hold(24)
        .clear_stuck(&transient)
        .hold(26);
    let mut r = r.with_schedule(schedule);

    let want_retired = aged.len() as u64;
    loop {
        let _ = r.next_batch().unwrap();
        let s = r.lifecycle_stats();
        if s.reinstated_cells >= 3 && s.retired_cells >= want_retired {
            break;
        }
        assert!(
            r.batches() < 3_000,
            "chaos scenario failed to converge: {s:?}"
        );
    }

    let stats = r.lifecycle_stats();
    assert!(
        stats.quarantine_events >= want_retired + 3,
        "every faulted cell must have been quarantined: {stats:?}"
    );
    assert!(stats.reinstated_cells >= 3, "{stats:?}");
    assert!(stats.retired_cells >= want_retired, "{stats:?}");
    assert!(
        stats.recharacterizations >= stats.reinstated_cells + stats.retired_cells,
        "every verdict requires a re-characterization: {stats:?}"
    );
    assert!(
        !stats.degraded,
        "retiring 8% of cells must not degrade the generator: {stats:?}"
    );

    let faults = r.fault_stats();
    assert!(faults.temperature_events >= 1, "{faults:?}");
    assert!(faults.cells_aged >= aged.len() as u64, "{faults:?}");
    assert!(faults.cells_stuck >= transient.len() as u64, "{faults:?}");

    // Post-recovery smoke screen: the surviving population still
    // produces bits that pass first-level NIST tests.
    let mut stream = Vec::with_capacity(24_000);
    while stream.len() < 24_000 {
        stream.extend(r.next_batch().unwrap().iter());
    }
    let bits = Bits::from_bools(stream);
    let monobit = nist_sts::monobit::test(&bits).unwrap();
    assert!(
        monobit.passed(1e-4),
        "post-recovery monobit p={}",
        monobit.min_p()
    );
    let runs = nist_sts::runs::test(&bits).unwrap();
    assert!(runs.passed(1e-4), "post-recovery runs p={}", runs.min_p());
    let final_stats = r.lifecycle_stats();
    assert_eq!(
        final_stats.retired_cells, stats.retired_cells,
        "recovery must be stable: no further retirements while harvesting"
    );
}

/// Extracts the value of the first Prometheus sample line whose name
/// and label set match every given fragment.
fn sample_value(text: &str, fragments: &[&str]) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| fragments.iter().all(|f| l.contains(f)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn lifecycle_series_reach_prometheus_export() {
    // A probe generator (same seeds, same catalog) exposes the harvest
    // plan so the schedule can target real planned cells.
    let probe = DRange::new(
        MemoryController::from_config(device_config()),
        catalog(),
        DRangeConfig::default(),
    )
    .unwrap();
    let victims: Vec<CellAddr> = probe.active_cells().into_iter().take(2).collect();
    drop(probe);

    let schedule = EnvSchedule::new(7)
        .shock(20.0)
        .stuck_at(&victims, true)
        .hold(200);
    let registry = MetricsRegistry::new();
    let sources = resilient_channel_sources(
        &device_config(),
        catalog(),
        &DRangeConfig::default(),
        &chaos_lifecycle(),
        Some(&schedule),
        1,
        Some(&registry),
    )
    .unwrap();
    let engine = HarvestEngine::spawn(sources, EngineConfig::default(), Some(&registry)).unwrap();

    // The stuck victims trip their run-length monitors after
    // `stuck_run_cutoff` batches; quarantine and the subsequent
    // re-characterization must surface in the Prometheus export.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let text = registry.render_prometheus();
        let quarantines = sample_value(
            &text,
            &["drange_lifecycle_events_total", "event=\"quarantine\""],
        );
        let rechecks = sample_value(
            &text,
            &["drange_lifecycle_events_total", "event=\"recharacterize\""],
        );
        let live = sample_value(&text, &["drange_lifecycle_cells", "state=\"live\""]);
        let stuck = sample_value(&text, &["drange_injected_faults_total", "kind=\"stuck\""]);
        let degraded = sample_value(&text, &["drange_degraded"]);
        if quarantines.unwrap_or(0.0) >= 1.0
            && rechecks.unwrap_or(0.0) >= 1.0
            && live.unwrap_or(0.0) >= 1.0
            && stuck.unwrap_or(0.0) >= victims.len() as f64
            && degraded == Some(0.0)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "lifecycle series never appeared in the export:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = engine.shutdown();
    let lc = stats
        .lifecycle
        .expect("resilient sources report lifecycle stats");
    assert!(lc.quarantine_events >= 1);
    let faults = stats.faults.expect("fault stats flow through");
    assert!(faults.cells_stuck >= victims.len() as u64);
    assert!(!stats.is_degraded());

    // `stats()` and the export read the same cells, so after shutdown
    // they agree on every quantity they share.
    let text = registry.render_prometheus();
    let exported = |fragments: &[&str]| -> u64 {
        let v = sample_value(&text, fragments)
            .unwrap_or_else(|| panic!("no sample {fragments:?} in:\n{text}"));
        v as u64
    };
    let w = ["worker=\"0\""];
    let per_worker =
        |name: &'static str, label: &'static str| -> u64 { exported(&[name, label, w[0]]) };
    assert_eq!(stats.workers.len(), 1);
    assert_eq!(
        exported(&["drange_worker_harvested_bits_total", w[0]]),
        stats.harvested_bits
    );
    assert_eq!(
        exported(&["drange_worker_discarded_bits_total", w[0]]),
        stats.discarded_bits
    );
    assert_eq!(
        exported(&["drange_worker_batches_total", w[0]]),
        stats.workers[0].batches
    );
    let trips = "drange_health_trips_total";
    assert_eq!(
        per_worker(trips, "test=\"repetition\""),
        stats.repetition_trips
    );
    assert_eq!(per_worker(trips, "test=\"adaptive\""), stats.adaptive_trips);
    let reads = "drange_cache_reads_total";
    assert_eq!(per_worker(reads, "kind=\"skip\""), stats.cache_skip_reads);
    assert_eq!(per_worker(reads, "kind=\"hit\""), stats.cache_hit_reads);
    assert_eq!(
        per_worker(reads, "kind=\"resolve\""),
        stats.cache_resolve_reads
    );
    assert_eq!(exported(&["drange_served_bits_total"]), stats.served_bits);
    let cells = "drange_lifecycle_cells";
    assert_eq!(per_worker(cells, "state=\"live\""), lc.live_cells);
    assert_eq!(
        per_worker(cells, "state=\"quarantined\""),
        lc.quarantined_cells
    );
    assert_eq!(per_worker(cells, "state=\"retired\""), lc.retired_cells);
    assert_eq!(exported(&["drange_degraded", w[0]]), u64::from(lc.degraded));
    let events = "drange_lifecycle_events_total";
    assert_eq!(
        per_worker(events, "event=\"quarantine\""),
        lc.quarantine_events
    );
    assert_eq!(
        per_worker(events, "event=\"reinstate\""),
        lc.reinstated_cells
    );
    assert_eq!(per_worker(events, "event=\"promote\""), lc.promoted_words);
    assert_eq!(
        per_worker(events, "event=\"recharacterize\""),
        lc.recharacterizations
    );
    let injected = "drange_injected_faults_total";
    assert_eq!(
        per_worker(injected, "kind=\"temperature\""),
        faults.temperature_events
    );
    assert_eq!(
        per_worker(injected, "kind=\"noise\""),
        faults.noise_bias_events
    );
    assert_eq!(per_worker(injected, "kind=\"aging\""), faults.cells_aged);
    assert_eq!(per_worker(injected, "kind=\"stuck\""), faults.cells_stuck);
}
