//! Property-based tests (proptest) of the conditioning tier's policy
//! invariants: however generates, prediction-resistant generates,
//! health trips, and pool starvation interleave, the farm must (a)
//! credit entropy **only** for health-screened bits actually drawn
//! from the pool, (b) refuse to reseed across an interval that saw an
//! RCT/APT trip while never refusing to *serve*, and (c) force a pool
//! draw on every successful prediction-resistant generate.
//!
//! The tests run a reference model of the reseed policy next to the
//! real [`DrbgFarm`] (one shard, so the interleave is sequential) and
//! require their observable counters to agree exactly.

use std::cell::Cell;
use std::time::Duration;

use drange_core::drbg::{DrbgConfig, DrbgFarm, SeedSource};
use drange_core::{DrangeError, Result, TripCounts};
use proptest::prelude::*;

/// One step of the scripted client/environment interleave.
#[derive(Debug, Clone)]
enum Op {
    /// A fast generate of `1..=64` bytes.
    Gen(usize),
    /// A prediction-resistant generate of `1..=64` bytes.
    GenPr(usize),
    /// A zero-byte generate (must be a complete no-op).
    GenZero,
    /// The health monitors trip `1..=3` more times.
    Trip(u64),
    /// Toggle pool starvation (draws return `Ok(None)` while on).
    SetStarved(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..65).prop_map(Op::Gen),
        2 => (1usize..65).prop_map(Op::GenPr),
        1 => Just(Op::GenZero),
        2 => (1u64..4).prop_map(Op::Trip),
        1 => any::<bool>().prop_map(Op::SetStarved),
    ]
}

/// A deterministic pool stand-in with scriptable trips and starvation.
struct ScriptedPool {
    draws: Cell<u64>,
    trips: Cell<u64>,
    starved: Cell<bool>,
}

impl ScriptedPool {
    fn new() -> Self {
        ScriptedPool {
            draws: Cell::new(0),
            trips: Cell::new(0),
            starved: Cell::new(false),
        }
    }
}

impl SeedSource for ScriptedPool {
    fn draw_seed(&self, bytes: usize, _timeout: Duration) -> Result<Option<Vec<u8>>> {
        if self.starved.get() {
            return Ok(None);
        }
        let i = self.draws.get() + 1;
        self.draws.set(i);
        Ok(Some(
            (0..bytes)
                .map(|j| (i as u8).wrapping_add(j as u8))
                .collect(),
        ))
    }

    fn trip_counts(&self) -> TripCounts {
        TripCounts {
            repetition: self.trips.get(),
            adaptive: 0,
        }
    }
}

/// The reference model of one shard's reseed policy — a direct
/// transcription of DESIGN.md §5k's decision rule, kept independent of
/// the implementation under test.
#[derive(Debug, Default)]
struct Model {
    instantiated: bool,
    since_reseed: u64,
    last_trips: Option<u64>,
    generates: u64,
    reseeds: u64,
    blocked_health: u64,
    blocked_starved: u64,
    draws: u64,
    credited_bits: u64,
    spent_bits: u64,
}

enum ModelReseed {
    Done,
    BlockedHealth,
    Starved,
}

impl Model {
    fn reseed(&mut self, trips: u64, starved: bool, seed_bits: u64) -> ModelReseed {
        if let Some(last) = self.last_trips {
            if trips != last {
                self.last_trips = Some(trips);
                self.blocked_health += 1;
                return ModelReseed::BlockedHealth;
            }
        }
        self.last_trips = Some(trips);
        if starved {
            self.blocked_starved += 1;
            return ModelReseed::Starved;
        }
        self.draws += 1;
        self.credited_bits += seed_bits;
        self.since_reseed = 0;
        self.instantiated = true;
        self.reseeds += 1;
        ModelReseed::Done
    }

    /// Models one generate; returns whether the farm must serve it.
    fn generate(
        &mut self,
        pr: bool,
        bytes: u64,
        trips: u64,
        starved: bool,
        interval: u64,
        seed_bits: u64,
    ) -> std::result::Result<(), ModelReseed> {
        let required = !self.instantiated || pr;
        if required || self.since_reseed >= interval {
            match self.reseed(trips, starved, seed_bits) {
                ModelReseed::Done => {}
                blocked if required => return Err(blocked),
                _ => {}
            }
        }
        self.generates += 1;
        self.since_reseed += 1;
        let available = self.credited_bits - self.spent_bits;
        self.spent_bits += (bytes * 8).min(available);
        Ok(())
    }
}

fn one_shard_farm(reseed_interval: u64, seed_bytes: usize) -> DrbgFarm {
    DrbgFarm::new(
        DrbgConfig {
            shards: 1,
            reseed_interval,
            seed_bytes,
            ..DrbgConfig::default()
        },
        1,
        None,
    )
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The farm and the reference model agree on every observable
    /// counter for arbitrary interleavings, and entropy credits never
    /// exceed the health-screened bits actually drawn from the pool.
    #[test]
    fn farm_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        interval in 1u64..5,
        seed_bytes in prop_oneof![Just(16usize), Just(32), Just(48)],
    ) {
        let farm = one_shard_farm(interval, seed_bytes);
        let pool = ScriptedPool::new();
        let mut model = Model::default();
        let seed_bits = seed_bytes as u64 * 8;

        for op in &ops {
            match op {
                Op::Trip(n) => pool.trips.set(pool.trips.get() + n),
                Op::SetStarved(on) => pool.starved.set(*on),
                Op::GenZero => {
                    prop_assert_eq!(farm.generate(&pool, 0).unwrap(), Vec::<u8>::new());
                    prop_assert_eq!(farm.generate_pr(&pool, 0).unwrap(), Vec::<u8>::new());
                }
                Op::Gen(bytes) | Op::GenPr(bytes) => {
                    let pr = matches!(op, Op::GenPr(_));
                    let expected = model.generate(
                        pr,
                        *bytes as u64,
                        pool.trips.get(),
                        pool.starved.get(),
                        interval,
                        seed_bits,
                    );
                    let got = if pr {
                        farm.generate_pr(&pool, *bytes)
                    } else {
                        farm.generate(&pool, *bytes)
                    };
                    match expected {
                        Ok(()) => {
                            let out = got.unwrap();
                            prop_assert_eq!(out.len(), *bytes, "short generate");
                        }
                        Err(ModelReseed::BlockedHealth) => {
                            prop_assert!(
                                matches!(got, Err(DrangeError::Unhealthy(_))),
                                "expected Unhealthy, got {:?}", got
                            );
                        }
                        Err(ModelReseed::Starved | ModelReseed::Done) => {
                            prop_assert!(
                                matches!(got, Err(DrangeError::Engine(_))),
                                "expected Engine (starved), got {:?}", got
                            );
                        }
                    }
                }
            }
        }

        let stats = farm.stats();
        prop_assert_eq!(stats.generates, model.generates);
        prop_assert_eq!(stats.reseeds, model.reseeds);
        prop_assert_eq!(stats.reseeds_blocked_health, model.blocked_health);
        prop_assert_eq!(stats.reseeds_blocked_starved, model.blocked_starved);
        prop_assert_eq!(stats.entropy_credited_bits, model.credited_bits);
        prop_assert_eq!(stats.entropy_spent_bits, model.spent_bits);
        // The core soundness claim: every credited bit is a
        // health-screened bit that actually left the pool.
        prop_assert_eq!(stats.entropy_credited_bits, pool.draws.get() * seed_bits);
        prop_assert!(stats.entropy_spent_bits <= stats.entropy_credited_bits);
    }

    /// While the trip counter keeps moving, no seed is ever drawn —
    /// and serving an already-instantiated shard never fails.
    #[test]
    fn reseeds_stay_blocked_while_trips_keep_moving(
        rounds in 1usize..20,
        interval in 1u64..3,
    ) {
        let farm = one_shard_farm(interval, 32);
        let pool = ScriptedPool::new();
        farm.generate(&pool, 8).unwrap();
        let draws_after_instantiation = pool.draws.get();
        for round in 0..rounds {
            pool.trips.set(pool.trips.get() + 1 + round as u64 % 2);
            let out = farm.generate(&pool, 8).unwrap();
            prop_assert_eq!(out.len(), 8, "serving must never block on health");
        }
        prop_assert_eq!(
            pool.draws.get(), draws_after_instantiation,
            "a moving trip counter must starve the reseed path of draws"
        );
    }

    /// Every successful prediction-resistant generate performs exactly
    /// one fresh pool draw, no matter the interval position.
    #[test]
    fn prediction_resistance_always_draws(
        warmup in 0usize..6,
        pr_calls in 1usize..8,
        interval in 2u64..6,
    ) {
        let farm = one_shard_farm(interval, 32);
        let pool = ScriptedPool::new();
        for _ in 0..warmup {
            farm.generate(&pool, 4).unwrap();
        }
        let before = pool.draws.get();
        for _ in 0..pr_calls {
            farm.generate_pr(&pool, 4).unwrap();
        }
        prop_assert_eq!(
            pool.draws.get() - before,
            pr_calls as u64,
            "each PR generate must draw exactly once"
        );
    }
}
