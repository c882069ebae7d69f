//! Harvest sources for serving without a full DRAM simulation.
//!
//! The server is source-agnostic — production deployments wrap the
//! simulated DRAM channels ([`drange_core::channel_sources`]) — but
//! integration tests and CI smoke runs need sources that are fast,
//! deterministic, and scriptable:
//!
//! * [`PrngHarvestSource`] — a splitmix64 bit firehose whose output
//!   passes the engine's health screening, for measuring the *server*
//!   rather than the simulated device.
//! * [`ScriptedSource`] — the same firehose behind a [`ScriptedState`]
//!   handle that can throttle harvesting (to force pool underruns) and
//!   raise the degraded flag (to drive `/healthz` and the
//!   `X-Drange-Degraded` header) from the test thread.

use std::sync::Arc;
use std::time::Duration;

use drange_core::engine::HarvestSource;
use drange_core::lifecycle::LifecycleStats;
use drange_core::sync::Flag;
use drange_core::{BitBlock, Result};

/// Bits per harvested batch for the PRNG sources. Small enough that a
/// throttled source refills slowly, large enough to amortize the
/// engine's per-batch bookkeeping.
const BATCH_BITS: usize = 4096;

/// splitmix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic uniform bit source (splitmix64), one batch of
/// `BATCH_BITS` (4096) per harvest call.
#[derive(Debug)]
pub struct PrngHarvestSource {
    state: u64,
}

impl PrngHarvestSource {
    /// Creates a source from a seed; distinct seeds give independent
    /// streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        PrngHarvestSource { state: seed }
    }

    fn batch(&mut self) -> BitBlock {
        let mut block = BitBlock::with_capacity(BATCH_BITS);
        for _ in 0..BATCH_BITS / 64 {
            block.push_bits(splitmix(&mut self.state), 64);
        }
        block
    }
}

impl HarvestSource for PrngHarvestSource {
    fn harvest_batch(&mut self) -> Result<BitBlock> {
        Ok(self.batch())
    }
}

/// Shared control handle for [`ScriptedSource`]: the test side raises
/// latches, the harvesting side observes them on its next batch. Both
/// latches are one-way ([`Flag`]) — the scripted scenarios only ever
/// escalate (healthy → throttled, healthy → degraded), which keeps the
/// handle free of raw atomics.
#[derive(Debug, Default)]
pub struct ScriptedState {
    throttle: Flag,
    degraded: Flag,
}

impl ScriptedState {
    /// Creates a handle with nothing raised.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(ScriptedState::default())
    }

    /// From now on, every harvested batch costs `ScriptedSource`'s
    /// configured delay — the pool refills slower than clients drain
    /// it, forcing underruns.
    pub fn throttle(&self) {
        self.throttle.raise();
    }

    /// From now on, the source reports a degraded cell population.
    pub fn degrade(&self) {
        self.degraded.raise();
    }
}

/// A [`PrngHarvestSource`] with scriptable throttling and degradation.
#[derive(Debug)]
pub struct ScriptedSource {
    prng: PrngHarvestSource,
    state: Arc<ScriptedState>,
    throttle_delay: Duration,
}

impl ScriptedSource {
    /// Creates a source observing `state`. While the throttle latch is
    /// raised, each batch takes at least `throttle_delay`.
    #[must_use]
    pub fn new(seed: u64, state: Arc<ScriptedState>, throttle_delay: Duration) -> Self {
        ScriptedSource {
            prng: PrngHarvestSource::new(seed),
            state,
            throttle_delay,
        }
    }
}

impl HarvestSource for ScriptedSource {
    fn harvest_batch(&mut self) -> Result<BitBlock> {
        if self.state.throttle.is_raised() {
            std::thread::sleep(self.throttle_delay);
        }
        self.prng.harvest_batch()
    }

    fn lifecycle_stats(&self) -> Option<LifecycleStats> {
        Some(LifecycleStats {
            live_cells: 64,
            degraded: self.state.degraded.is_raised(),
            ..LifecycleStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_batches_are_full_and_distinct() {
        let mut s = PrngHarvestSource::new(7);
        let a = s.harvest_batch().unwrap();
        let b = s.harvest_batch().unwrap();
        assert_eq!(a.len(), BATCH_BITS);
        assert_eq!(b.len(), BATCH_BITS);
        assert_ne!(a.words(), b.words(), "consecutive batches must differ");
    }

    #[test]
    fn prng_bits_are_roughly_balanced() {
        let mut s = PrngHarvestSource::new(99);
        let block = s.harvest_batch().unwrap();
        let ones: usize = block.iter().filter(|&b| b).count();
        let frac = ones as f64 / block.len() as f64;
        assert!(
            (0.4..=0.6).contains(&frac),
            "splitmix output should pass health screening, got ones fraction {frac}"
        );
    }

    #[test]
    fn scripted_source_reports_degradation() {
        let state = ScriptedState::new();
        let src = ScriptedSource::new(1, Arc::clone(&state), Duration::from_millis(1));
        assert!(!src.lifecycle_stats().unwrap().degraded);
        state.degrade();
        assert!(src.lifecycle_stats().unwrap().degraded);
    }
}
