//! Known-answer tests for the conditioning tier (the CI `drbg-kat`
//! job).
//!
//! Two fixture families live under `tests/vectors/`:
//!
//! * `chacha20_keystream.txt` / `chacha20_encrypt.txt` — RFC 8439's
//!   own test vectors (§2.3.2, appendix A.1, §2.4.2), checked
//!   bit-exactly against [`drange_core::drbg::chacha`]. These pin the
//!   primitive against the published standard.
//! * `drbg_generate.txt` — a generate/reseed known-answer chain for
//!   the DRBG itself over a scripted seed source: instantiate,
//!   steady-state generates, an interval reseed *blocked by a health
//!   trip* (output must continue from the unreseeded key), the
//!   unblocked reseed one generate later, and a prediction-resistant
//!   generate. Self-generated once and committed, so any change to the
//!   ratchet, the absorb step, the credit policy, or the reseed
//!   decision order shows up as a bit mismatch here.
//!
//! Every assertion compares lowercase hex strings, so a failure
//! message shows the actual bytes directly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Duration;

use drange_core::drbg::{chacha, DrbgConfig, DrbgFarm, SeedSource};
use drange_core::{Result, TripCounts};

const KEYSTREAM_VECTORS: &str = include_str!("vectors/chacha20_keystream.txt");
const ENCRYPT_VECTORS: &str = include_str!("vectors/chacha20_encrypt.txt");
const DRBG_VECTORS: &str = include_str!("vectors/drbg_generate.txt");

fn from_hex(s: &str) -> Vec<u8> {
    assert!(s.len() % 2 == 0, "odd hex length in fixture: {s:?}");
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex byte"))
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a fixture file into records: `key = value` lines, records
/// separated by blank lines, `#` comments ignored.
fn parse_records(text: &str) -> Vec<BTreeMap<String, String>> {
    let mut records = Vec::new();
    let mut current = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            if !current.is_empty() {
                records.push(std::mem::take(&mut current));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .expect("fixture line must be `key = value`");
        current.insert(k.trim().to_string(), v.trim().to_string());
    }
    if !current.is_empty() {
        records.push(current);
    }
    records
}

fn field<'a>(record: &'a BTreeMap<String, String>, key: &str) -> &'a str {
    record
        .get(key)
        .unwrap_or_else(|| panic!("fixture record missing `{key}`"))
}

#[test]
fn chacha20_keystream_vectors_are_bit_exact() {
    let records = parse_records(KEYSTREAM_VECTORS);
    assert!(
        records.len() >= 2,
        "expected at least two keystream vectors"
    );
    for record in &records {
        let key: [u8; 32] = from_hex(field(record, "key"))
            .try_into()
            .expect("32-byte key");
        let nonce: [u8; 12] = from_hex(field(record, "nonce"))
            .try_into()
            .expect("12-byte nonce");
        let counter: u32 = field(record, "counter").parse().expect("counter");
        let expected = field(record, "keystream");
        let mut out = vec![0u8; expected.len() / 2];
        chacha::keystream(&key, counter, &nonce, &mut out);
        assert_eq!(
            to_hex(&out),
            *expected,
            "keystream mismatch (counter {counter})"
        );
    }
}

#[test]
fn chacha20_encryption_vector_is_bit_exact() {
    let records = parse_records(ENCRYPT_VECTORS);
    assert_eq!(records.len(), 1, "expected exactly one encryption vector");
    let record = &records[0];
    let key: [u8; 32] = from_hex(field(record, "key"))
        .try_into()
        .expect("32-byte key");
    let nonce: [u8; 12] = from_hex(field(record, "nonce"))
        .try_into()
        .expect("12-byte nonce");
    let counter: u32 = field(record, "counter").parse().expect("counter");
    let plaintext = from_hex(field(record, "plaintext"));
    let expected = field(record, "ciphertext");

    let mut data = plaintext.clone();
    chacha::xor_keystream(&key, counter, &nonce, &mut data);
    assert_eq!(to_hex(&data), *expected, "ciphertext mismatch");
    // Decryption is the same operation.
    chacha::xor_keystream(&key, counter, &nonce, &mut data);
    assert_eq!(data, plaintext, "decrypt must round-trip");
}

/// A fully deterministic seed source for the DRBG chain: draw `i`
/// (1-based) returns 32 bytes of value `i`; the test scripts the trip
/// counter between steps.
struct FixedSeed {
    draws: Cell<u64>,
    trips: Cell<u64>,
}

impl FixedSeed {
    fn new() -> Self {
        FixedSeed {
            draws: Cell::new(0),
            trips: Cell::new(0),
        }
    }
}

impl SeedSource for FixedSeed {
    fn draw_seed(&self, bytes: usize, _timeout: Duration) -> Result<Option<Vec<u8>>> {
        let i = self.draws.get() + 1;
        self.draws.set(i);
        Ok(Some(vec![i as u8; bytes]))
    }

    fn trip_counts(&self) -> TripCounts {
        TripCounts {
            repetition: self.trips.get(),
            adaptive: 0,
        }
    }
}

/// Runs the scripted generate/reseed chain and returns the five
/// 32-byte outputs (hex) plus the farm for stats assertions.
fn run_drbg_chain() -> (Vec<String>, DrbgFarm, FixedSeed) {
    let farm = DrbgFarm::new(
        DrbgConfig {
            shards: 1,
            reseed_interval: 2,
            seed_bytes: 32,
            ..DrbgConfig::default()
        },
        1,
        None,
    )
    .expect("valid config");
    let src = FixedSeed::new();
    let mut outputs = Vec::new();
    // Step 1: instantiate (draw #1) + generate.
    outputs.push(to_hex(&farm.generate(&src, 32).expect("step 1")));
    // Step 2: steady state, no reseed due.
    outputs.push(to_hex(&farm.generate(&src, 32).expect("step 2")));
    // Step 3: interval reseed due, but the health monitors tripped
    // since the last decision — reseed blocked, output continues from
    // the unreseeded (ratcheted) key.
    src.trips.set(1);
    outputs.push(to_hex(&farm.generate(&src, 32).expect("step 3")));
    // Step 4: trips quiet since the step-3 decision — the reseed
    // proceeds (draw #2).
    outputs.push(to_hex(&farm.generate(&src, 32).expect("step 4")));
    // Step 5: prediction resistance forces a reseed (draw #3).
    outputs.push(to_hex(&farm.generate_pr(&src, 32).expect("step 5")));
    (outputs, farm, src)
}

#[test]
fn drbg_generate_reseed_chain_is_bit_exact() {
    let records = parse_records(DRBG_VECTORS);
    assert_eq!(records.len(), 1, "expected one DRBG chain record");
    let record = &records[0];
    let (outputs, farm, src) = run_drbg_chain();
    for (i, out) in outputs.iter().enumerate() {
        let key = format!("step{}", i + 1);
        assert_eq!(out, field(record, &key), "DRBG output mismatch at {key}");
    }
    // The chain's side effects are part of the known answer.
    let stats = farm.stats();
    assert_eq!(stats.generates, 5);
    assert_eq!(stats.reseeds, 3, "instantiate + unblocked + PR");
    assert_eq!(stats.reseeds_blocked_health, 1, "step 3 was blocked");
    assert_eq!(stats.reseeds_blocked_starved, 0);
    assert_eq!(stats.entropy_credited_bits, 3 * 256);
    assert_eq!(src.draws.get(), 3, "exactly three pool draws");
}

#[test]
fn drbg_outputs_are_pairwise_distinct() {
    let (outputs, _, _) = run_drbg_chain();
    for i in 0..outputs.len() {
        for j in i + 1..outputs.len() {
            assert_ne!(outputs[i], outputs[j], "steps {i} and {j} repeat output");
        }
    }
}

/// The acceptance-pinned behavior: a health trip blocks reseeding but
/// never serving, and a required reseed (prediction resistance) under
/// a trip is an explicit `Unhealthy` error.
#[test]
fn reseed_blocked_on_health_trip_never_blocks_serving() {
    let farm = DrbgFarm::new(
        DrbgConfig {
            shards: 1,
            reseed_interval: 1,
            seed_bytes: 32,
            ..DrbgConfig::default()
        },
        1,
        None,
    )
    .expect("valid config");
    let src = FixedSeed::new();
    farm.generate(&src, 16).expect("instantiate");
    let draws_before = src.draws.get();
    // Trips move before every following decision: reseeds stay blocked
    // (interval 1 makes one due on every generate), serving never is.
    for round in 0..5u64 {
        src.trips.set(round + 1);
        let out = farm.generate(&src, 16).expect("serving continues");
        assert_eq!(out.len(), 16);
    }
    assert_eq!(src.draws.get(), draws_before, "no seed drawn while tripped");
    let stats = farm.stats();
    assert_eq!(stats.reseeds_blocked_health, 5);
    assert_eq!(stats.reseeds, 1, "only the instantiation reseeded");
    // Prediction resistance under a trip is an error, not silent reuse.
    src.trips.set(99);
    let err = farm.generate_pr(&src, 16).unwrap_err();
    assert!(
        matches!(err, drange_core::DrangeError::Unhealthy(_)),
        "expected Unhealthy, got {err:?}"
    );
}
