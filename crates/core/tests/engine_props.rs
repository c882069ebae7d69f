//! Property-based tests (proptest) of the harvesting engine's bit
//! accounting: whatever mix of healthy and stuck channels the engine
//! runs over, and however clients interleave their requests, every
//! harvested bit must end up queued, served, or discarded — none lost,
//! none duplicated into two places.

use drange_core::{BitBlock, EngineConfig, HarvestEngine, HarvestSource};
use proptest::prelude::*;

/// Scripted harvest source: either a deterministic healthy PRNG stream
/// (splitmix64) or a stuck all-zero channel that the health monitors
/// reject.
#[derive(Debug)]
enum ScriptedSource {
    Prng { state: u64, batch: usize },
    Stuck { batch: usize },
}

impl ScriptedSource {
    fn next_bit(state: &mut u64) -> bool {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    }
}

impl HarvestSource for ScriptedSource {
    fn harvest_batch(&mut self) -> drange_core::Result<BitBlock> {
        match self {
            ScriptedSource::Prng { state, batch } => {
                Ok((0..*batch).map(|_| Self::next_bit(state)).collect())
            }
            ScriptedSource::Stuck { batch } => Ok((0..*batch).map(|_| false).collect()),
        }
    }
}

fn small_config() -> EngineConfig {
    EngineConfig {
        queue_capacity: 1 << 11,
        low_watermark: 1 << 7,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `queued + served + discarded == harvested` after a graceful
    /// shutdown, for arbitrary channel mixes and request sequences.
    #[test]
    fn accounting_always_balances(
        healthy in 1usize..4,
        stuck in 0usize..3,
        batch in 32usize..200,
        requests in proptest::collection::vec(1usize..64, 0..12),
        seed in any::<u64>(),
    ) {
        let sources: Vec<ScriptedSource> = (0..healthy)
            .map(|i| ScriptedSource::Prng { state: seed ^ i as u64, batch })
            .chain((0..stuck).map(|_| ScriptedSource::Stuck { batch }))
            .collect();
        let engine = HarvestEngine::spawn(sources, small_config(), None).unwrap();
        let mut served_bytes = 0usize;
        for &r in &requests {
            let bytes = engine.take_bytes(r).unwrap();
            prop_assert_eq!(bytes.len(), r);
            served_bytes += r;
        }
        let stats = engine.shutdown();
        prop_assert_eq!(stats.in_flight_bits, 0, "nothing in flight after the join");
        prop_assert_eq!(stats.served_bits, (served_bytes * 8) as u64);
        prop_assert_eq!(
            stats.harvested_bits,
            stats.queued_bits as u64 + stats.served_bits + stats.discarded_bits,
            "bit accounting must balance: {:?}", stats
        );
    }

    /// The same invariant under concurrent clients: random request
    /// sequences split across threads still account for every bit.
    #[test]
    fn accounting_balances_under_interleaving(
        requests in proptest::collection::vec(1usize..48, 2..16),
        seed in any::<u64>(),
    ) {
        let sources: Vec<ScriptedSource> = (0..2)
            .map(|i| ScriptedSource::Prng { state: seed ^ i as u64, batch: 96 })
            .collect();
        let engine = HarvestEngine::spawn(sources, small_config(), None).unwrap();
        let total_bytes: usize = requests.iter().sum();
        std::thread::scope(|scope| {
            let mid = requests.len() / 2;
            for half in [&requests[..mid], &requests[mid..]] {
                let engine = &engine;
                scope.spawn(move || {
                    for &r in half {
                        let bytes = engine.take_bytes(r).unwrap();
                        assert_eq!(bytes.len(), r);
                    }
                });
            }
        });
        let stats = engine.shutdown();
        prop_assert_eq!(stats.in_flight_bits, 0);
        prop_assert_eq!(stats.served_bits, (total_bytes * 8) as u64);
        prop_assert_eq!(
            stats.harvested_bits,
            stats.queued_bits as u64 + stats.served_bits + stats.discarded_bits
        );
    }
}
