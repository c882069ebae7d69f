//! Stream adapters: consume the generator through standard interfaces.
//!
//! [`DRange`] serves words and bytes through its fallible
//! [`DRange::next_word`] and [`DRange::try_fill`]; this module adds
//! [`std::io::Read`] adapters (so the TRNG can back anything that reads
//! bytes — `io::copy`, buffered readers, encoders) and an infinite
//! byte iterator. [`EngineReader`] is the multi-channel counterpart:
//! it drains a shared [`HarvestEngine`], so the bytes come from all
//! worker channels with harvesting overlapped across reads.

use std::io::{self, Read};

use drange_telemetry::Histogram;

use crate::engine::HarvestEngine;
use crate::sampler::DRange;

/// A [`Read`] adapter over a [`DRange`] generator.
///
/// Every `read` fills the whole buffer with fresh random bytes;
/// the stream never reaches EOF.
#[derive(Debug)]
pub struct DRangeReader {
    trng: DRange,
}

impl DRangeReader {
    /// Wraps a generator.
    pub fn new(trng: DRange) -> Self {
        DRangeReader { trng }
    }

    /// Returns the wrapped generator.
    pub fn into_inner(self) -> DRange {
        self.trng
    }

    /// Borrow of the wrapped generator (stats access).
    pub fn get_ref(&self) -> &DRange {
        &self.trng
    }
}

impl Read for DRangeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.trng.try_fill(buf).map_err(io::Error::other)?;
        Ok(buf.len())
    }
}

/// A [`Read`] adapter over a [`HarvestEngine`].
///
/// Blocks until the engine's workers have screened enough bits, then
/// fills the whole buffer; oversized reads are served in pool-capacity
/// chunks. The stream never reaches EOF, but a read fails once the
/// engine has stopped (all workers retired).
#[derive(Debug)]
pub struct EngineReader {
    engine: HarvestEngine,
    read_ns: Histogram,
}

impl EngineReader {
    /// Wraps an engine. When the engine exports into a registry, whole
    /// `read` latency is recorded there as the
    /// `drange_reader_read_latency_ns` histogram.
    pub fn new(engine: HarvestEngine) -> Self {
        let read_ns = engine.registry().map_or_else(Histogram::noop, |reg| {
            reg.histogram("drange_reader_read_latency_ns", &[])
        });
        EngineReader { engine, read_ns }
    }

    /// Returns the wrapped engine.
    pub fn into_inner(self) -> HarvestEngine {
        self.engine
    }

    /// Borrow of the wrapped engine (stats access).
    pub fn get_ref(&self) -> &HarvestEngine {
        &self.engine
    }
}

impl Read for EngineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = self.read_ns.start();
        let max_chunk = (self.engine.config().queue_capacity / 8).max(1);
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = (buf.len() - filled).min(max_chunk);
            let bytes = self.engine.take_bytes(n).map_err(io::Error::other)?;
            buf[filled..filled + n].copy_from_slice(&bytes);
            filled += n;
        }
        self.read_ns.observe_since(t0);
        Ok(filled)
    }
}

/// An iterator of random bytes, unbounded while the device is
/// healthy.
///
/// Created by [`bytes`]; ends (`None`) on a device error (use
/// [`DRange::try_fill`] to observe the cause).
#[derive(Debug)]
pub struct Bytes {
    trng: DRange,
}

impl Iterator for Bytes {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        let mut b = [0u8; 1];
        // The stream ends if the device fails — iterators cannot
        // surface errors, and callers needing the cause should use
        // `DRange::try_fill` directly.
        self.trng.try_fill(&mut b).ok()?;
        Some(b[0])
    }
}

/// An infinite random-byte iterator over a generator.
pub fn bytes(trng: DRange) -> Bytes {
    Bytes { trng }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{IdentifySpec, RngCellCatalog};
    use crate::profiler::{ProfileSpec, Profiler};
    use crate::sampler::DRangeConfig;
    use dram_sim::{DeviceConfig, Manufacturer};
    use memctrl::MemoryController;

    fn trng() -> DRange {
        let mut ctrl = MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(42)
                .with_noise_seed(4243),
        );
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
        let catalog =
            RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default()).unwrap();
        DRange::new(ctrl, &catalog, DRangeConfig::default()).unwrap()
    }

    #[test]
    fn reader_fills_buffers_of_any_size() {
        let mut r = DRangeReader::new(trng());
        let mut small = [0u8; 3];
        assert_eq!(r.read(&mut small).unwrap(), 3);
        let mut large = vec![0u8; 4096];
        assert_eq!(r.read(&mut large).unwrap(), 4096);
        let distinct: std::collections::HashSet<u8> = large.iter().copied().collect();
        assert!(
            distinct.len() > 100,
            "4 KiB of random bytes covers most values"
        );
    }

    #[test]
    fn reader_works_with_io_copy() {
        let r = DRangeReader::new(trng());
        let mut sink = Vec::new();
        std::io::copy(&mut r.take(1024), &mut sink).unwrap();
        assert_eq!(sink.len(), 1024);
    }

    #[test]
    fn reader_round_trips_inner() {
        let r = DRangeReader::new(trng());
        assert_eq!(r.get_ref().stats().bits, 0);
        let inner = r.into_inner();
        assert_eq!(inner.stats().bits, 0);
    }

    #[test]
    fn engine_reader_spans_multiple_pool_refills() {
        use crate::engine::{EngineConfig, HarvestEngine};

        let config = EngineConfig {
            queue_capacity: 1 << 10,
            low_watermark: 1 << 6,
            ..EngineConfig::default()
        };
        let engine = HarvestEngine::spawn(vec![trng()], config, None).unwrap();
        let mut r = EngineReader::new(engine);
        // 1 KiB = 8192 bits, far beyond the 1024-bit pool: the read is
        // served in chunks across several refills.
        let mut buf = vec![0u8; 1024];
        assert_eq!(r.read(&mut buf).unwrap(), 1024);
        let distinct: std::collections::HashSet<u8> = buf.iter().copied().collect();
        assert!(
            distinct.len() > 100,
            "1 KiB of random bytes covers most values"
        );
        let stats = r.into_inner().shutdown();
        assert_eq!(stats.served_bits, 8192);
    }

    #[test]
    fn engine_reader_records_read_latency() {
        use crate::engine::{EngineConfig, HarvestEngine, HarvestSource};
        use crate::error::Result;

        #[derive(Debug)]
        struct PrngSource {
            state: u64,
        }
        impl HarvestSource for PrngSource {
            fn harvest_batch(&mut self) -> Result<crate::bits::BitBlock> {
                Ok((0..128)
                    .map(|_| {
                        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = self.state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        (z ^ (z >> 31)) & 1 == 1
                    })
                    .collect())
            }
        }

        let registry = drange_telemetry::MetricsRegistry::new();
        let config = EngineConfig {
            queue_capacity: 1 << 12,
            low_watermark: 1 << 8,
            ..EngineConfig::default()
        };
        let engine =
            HarvestEngine::spawn(vec![PrngSource { state: 77 }], config, Some(&registry)).unwrap();
        let mut r = EngineReader::new(engine);
        let mut buf = vec![0u8; 64];
        r.read_exact(&mut buf).unwrap();
        r.read_exact(&mut buf).unwrap();
        let text = registry.render_prometheus();
        assert!(
            text.contains("drange_reader_read_latency_ns_count 2"),
            "{text}"
        );
        r.into_inner().shutdown();
    }

    #[test]
    fn byte_iterator_streams() {
        let mut it = bytes(trng());
        let first: Vec<u8> = it.by_ref().take(64).collect();
        let second: Vec<u8> = it.take(64).collect();
        assert_eq!(first.len(), 64);
        assert_ne!(first, second, "consecutive draws differ");
    }
}
