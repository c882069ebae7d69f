//! The served stack: the one recipe that turns a simulated DRAM device
//! into the [`RandomnessService`] that `drange-serve` serves and the
//! repository benchmark measures (DESIGN.md §5g).
//!
//! Characterization senses under the constant
//! [`CHARACTERIZATION_NOISE_SEED`], so a device seed names one catalog:
//! identification noise alone moves a catalog between 6 and 8 bits per
//! Algorithm 2 pass. The builder times its steps with the wall clock;
//! it runs once, before serving, so it is off the `instant-hot-path`
//! lint list.

use std::time::{Duration, Instant};

use dram_sim::{DeviceConfig, Manufacturer};
use drange_core::telemetry::MetricsRegistry;
use drange_core::{
    channel_sources, DRangeConfig, DrbgConfig, IdentifySpec, ProfileSpec, Profiler,
    RandomnessService, Result, RngCellCatalog, ServiceConfig,
};
use memctrl::MemoryController;

/// Noise seed of the profiling and identification controller.
pub const CHARACTERIZATION_NOISE_SEED: u64 = 1;

/// What a served stack varies. [`StackSpec::default`] is what
/// `drange-serve` serves without flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackSpec {
    /// Manufacturing seed of the simulated device (process variation;
    /// `drange-serve --seed`).
    pub device_seed: u64,
    /// Noise seed the harvest channels derive their streams from, one
    /// offset per channel; `None` senses OS-seeded noise.
    pub harvest_noise_seed: Option<u64>,
    /// Simulated DRAM channels, each harvested by its own engine
    /// worker.
    pub channels: usize,
    /// Engine pool capacity in bits. The pool refills below a
    /// sixteenth of it.
    pub pool_bits: usize,
    /// Whether the service builds the ChaCha20 DRBG `fast` tier.
    pub conditioning: bool,
}

impl Default for StackSpec {
    fn default() -> Self {
        StackSpec {
            device_seed: 1,
            harvest_noise_seed: None,
            channels: 2,
            pool_bits: 1 << 16,
            conditioning: true,
        }
    }
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupTimes {
    /// [`Profiler::run`].
    pub profile: Duration,
    /// [`RngCellCatalog::identify`].
    pub identify: Duration,
    /// [`channel_sources`] and the service's spawn.
    pub spawn: Duration,
}

/// A built stack: the running service and what it was built from.
#[derive(Debug)]
pub struct SimStack {
    /// The service, its engine workers already harvesting.
    pub service: RandomnessService,
    /// The identified RNG cells every channel samples.
    pub catalog: RngCellCatalog,
    /// The harvest-side device configuration; channel `i` senses it at
    /// noise-seed offset `i`.
    pub device: DeviceConfig,
    /// How long each set-up step took.
    pub times: SetupTimes,
}

impl SimStack {
    /// Characterizes the device, builds the channels and spawns the
    /// service, registering the service's metrics and tracer in
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Propagates profiling and identification failures, a catalog the
    /// sampling plan cannot use, and [`RandomnessService`]'s rejection
    /// of the spec (no channels, a pool too small for a DRBG seed).
    pub fn build(spec: &StackSpec, registry: &MetricsRegistry) -> Result<SimStack> {
        let t0 = Instant::now();
        let base = DeviceConfig::new(Manufacturer::A).with_seed(spec.device_seed);
        let mut ctrl = MemoryController::from_config(
            base.clone().with_noise_seed(CHARACTERIZATION_NOISE_SEED),
        );
        let profile = Profiler::new(&mut ctrl).run(ProfileSpec::default())?;
        let t1 = Instant::now();
        let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())?;
        let t2 = Instant::now();

        let device = match spec.harvest_noise_seed {
            Some(seed) => base.with_noise_seed(seed),
            None => base,
        };
        let sources = channel_sources(&device, &catalog, &DRangeConfig::default(), spec.channels)?;
        let config = ServiceConfig {
            queue_capacity: spec.pool_bits,
            low_watermark: spec.pool_bits / 16,
            min_entropy: 0.9,
            drbg: spec.conditioning.then(DrbgConfig::default),
        };
        let service = RandomnessService::with_sources_telemetry(sources, config, Some(registry))?;
        let t3 = Instant::now();
        Ok(SimStack {
            service,
            catalog,
            device,
            times: SetupTimes {
                profile: t1 - t0,
                identify: t2 - t1,
                spawn: t3 - t2,
            },
        })
    }
}
