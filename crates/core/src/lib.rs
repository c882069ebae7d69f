//! # drange-core — D-RaNGe: DRAM-based true random number generation
//!
//! Reproduction of the mechanism of *"D-RaNGe: Using Commodity DRAM
//! Devices to Generate True Random Numbers with Low Latency and High
//! Throughput"* (Kim et al., HPCA 2019) on the [`dram_sim`] /
//! [`memctrl`] substrate.
//!
//! The pipeline has three stages:
//!
//! 1. **Profile** ([`Profiler`], Algorithm 1): scan a DRAM region with
//!    a reduced `tRCD` to measure each cell's activation-failure
//!    probability.
//! 2. **Identify** ([`RngCellCatalog`], Section 6.1): read candidate
//!    cells ~1000 times and keep those whose output has uniform 3-bit
//!    symbol statistics (±10 %) — the RNG cells.
//! 3. **Sample** ([`DRange`], Algorithm 2): continuously harvest the
//!    RNG cells of the two densest words per bank, restoring data after
//!    every read. [`DRange`] serves words and bytes through fallible
//!    methods and [`DRangeReader`] ([`std::io::Read`]).
//!
//! Supporting modules provide the throughput model of Equation (1)
//! ([`throughput`]), the 64-bit latency analysis ([`latency`]), entropy
//! estimators ([`entropy`]), the data-pattern-dependence study
//! ([`dpd`]), and a von Neumann post-processor ([`postprocess`]).
//!
//! For serving many client threads, the [`engine`] module runs one
//! sampling loop per simulated channel on its own worker thread behind
//! a watermarked, health-screened bit pool ([`HarvestEngine`]), and
//! [`RandomnessService`] layers the firmware REQUEST/RECEIVE interface
//! of Section 6.3 on top of it. The [`drbg`] module adds the
//! cryptographic conditioning tier: per-shard ChaCha20 DRBGs
//! continuously reseeded from the screened pool with entropy-credit
//! accounting, serving the `fast` QoS tier at rates decoupled from
//! harvest throughput (DESIGN.md §5k).
//!
//! ## Example
//!
//! ```rust,no_run
//! use dram_sim::{DeviceConfig, Manufacturer};
//! use memctrl::MemoryController;
//! use drange_core::{DRange, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RngCellCatalog};
//!
//! # fn main() -> drange_core::Result<()> {
//! let mut ctrl = MemoryController::from_config(
//!     DeviceConfig::new(Manufacturer::A).with_seed(1),
//! );
//! let profile = Profiler::new(&mut ctrl).run(ProfileSpec::default())?;
//! let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())?;
//! let mut trng = DRange::new(ctrl, &catalog, DRangeConfig::default())?;
//! let random = trng.next_word()?;
//! # let _ = random;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod calibrate;
pub mod channel;
pub mod dpd;
pub mod drbg;
pub mod engine;
pub mod entropy;
pub mod error;
pub mod estimators;
pub mod health;
pub mod identify;
pub mod latency;
pub mod lifecycle;
pub mod postprocess;
pub mod profiler;
pub mod puf;
pub mod sampler;
pub mod service;
pub mod spatial;
pub mod stream;
pub mod sync;
pub mod throughput;

pub use bits::{BitBlock, BitQueue};
pub use channel::BatchChannel;
pub use drange_telemetry as telemetry;
pub use drbg::{CreditLedger, DrbgConfig, DrbgFarm, DrbgStats, SeedSource};
pub use engine::{
    channel_sources, resilient_channel_sources, EngineConfig, EngineStats, HarvestEngine,
    HarvestSource, WorkerStats,
};
pub use error::{DrangeError, Result};
pub use health::{HealthMonitor, TripCounts};
pub use identify::{CatalogSet, IdentifySpec, RngCellCatalog};
pub use latency::LatencyScenario;
pub use lifecycle::{LifecycleConfig, LifecycleStats, ResilientDRange};
pub use postprocess::VonNeumann;
pub use profiler::{FailureProfile, ProfileSpec, Profiler};
pub use sampler::{DRange, DRangeConfig, SampleStats};
pub use service::{RandomnessService, RequestId, ServiceConfig};
pub use stream::{DRangeReader, EngineReader};
