//! Model checks for the DRBG farm's reseed/generate shard handoff.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p drange-core --test
//! loom_drbg`. A [`drange_core::DrbgFarm`] shard is a mutex around
//! `(key, credit)`, and the farm's event counts are atomic cells bumped
//! inside that critical section; its two safety claims are:
//!
//! 1. **Key erasure is atomic.** Every generate reads the key, derives
//!    `(next_key, output)` from it, and writes the next key back in
//!    one critical section (`src/drbg/mod.rs`: `generate_inner`). Two
//!    concurrent generates must therefore never observe the same key —
//!    i.e. never emit the same output.
//! 2. **Credit never runs ahead of entropy.** A reseed credits the
//!    ledger in the same critical section that absorbs the seed, and a
//!    generate spends in the same critical section that ratchets, so
//!    no observer (`stats()`) can ever see `spent > credited`.
//!
//! The models restate both claims over `loomlite`'s mutex, plus a
//! failing variant for each that re-introduces the tempting refactor
//! (splitting the critical section) and shows the checker catching it.
//! The model and `src/drbg/mod.rs` must be kept in sync by hand.

#![cfg(loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use loomlite::sync::atomic::{AtomicU64, Ordering};
use loomlite::sync::{Arc, Mutex};
use loomlite::{thread, Builder};

/// Abstract stand-in for one shard: the ChaCha key collapses to a
/// `u64`, the keystream PRF to splitmix64 — all that matters for the
/// handoff is that distinct keys give distinct outputs.
struct Shard {
    key: u64,
    credited: u64,
    spent: u64,
}

/// A one-shard farm: the shard mutex plus the farm's generate cell.
struct Farm {
    shard: Mutex<Shard>,
    generates: AtomicU64,
}

fn farm() -> Farm {
    Farm {
        shard: Mutex::new(Shard {
            key: 0x5EED,
            credited: 0,
            spent: 0,
        }),
        generates: AtomicU64::new(0),
    }
}

/// The abstract ratchet: `output` is a function of the pre-ratchet key
/// alone, so two generates that saw the same key produce the same
/// output — exactly the fault the key-erasure claim excludes.
fn ratchet(key: u64) -> (u64, u64) {
    let next = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x6364_1362_2384_6793);
    (next, key ^ 0xD1B5_4A32_D192_ED03)
}

/// Mirrors `generate_inner`'s critical section: ratchet and spend
/// under one lock acquisition.
fn generate(farm: &Farm, bytes: u64) -> u64 {
    let mut s = farm.shard.lock().expect("model lock");
    let (next, out) = ratchet(s.key);
    s.key = next;
    farm.generates.fetch_add(1, Ordering::SeqCst);
    let available = s.credited - s.spent;
    s.spent += (bytes * 8).min(available);
    out
}

/// The tempting refactor the checker must reject: read the key, drop
/// the lock "while the keystream computes", write the next key back in
/// a second acquisition. Fast, and fatally wrong.
fn generate_split_lock(farm: &Farm, bytes: u64) -> u64 {
    let key = {
        let s = farm.shard.lock().expect("model lock");
        s.key
    };
    let (next, out) = ratchet(key);
    let mut s = farm.shard.lock().expect("model lock");
    s.key = next;
    farm.generates.fetch_add(1, Ordering::SeqCst);
    let available = s.credited - s.spent;
    s.spent += (bytes * 8).min(available);
    out
}

/// Mirrors `reseed_shard`'s success path: absorb and credit under the
/// same lock acquisition.
fn reseed(farm: &Farm, seed: u64, bits: u64) {
    let mut s = farm.shard.lock().expect("model lock");
    s.key ^= seed;
    s.credited += bits;
}

/// Key erasure under every schedule: three concurrent generates on one
/// shard always emit pairwise-distinct outputs, and each mints exactly
/// one generate.
#[test]
fn concurrent_generates_never_repeat_output() {
    let bounded = Builder {
        preemption_bound: Some(2),
        max_iterations: None,
    };
    bounded.check(|| {
        let farm = Arc::new(farm());
        let a = thread::spawn({
            let farm = Arc::clone(&farm);
            move || generate(&farm, 16)
        });
        let b = thread::spawn({
            let farm = Arc::clone(&farm);
            move || generate(&farm, 16)
        });
        let c = generate(&farm, 16);
        let a = a.join().expect("generate thread a");
        let b = b.join().expect("generate thread b");
        assert!(
            a != b && a != c && b != c,
            "two generates observed the same key: {a:#x} {b:#x} {c:#x}"
        );
        assert_eq!(
            farm.generates.load(Ordering::SeqCst),
            3,
            "every generate must be minted once"
        );
    });
}

/// The failing variant: with the ratchet split across two lock
/// acquisitions, some schedule lets two generates read the same key
/// and emit identical output — the checker must find it.
#[test]
fn split_lock_ratchet_loses_key_erasure() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loomlite::model(|| {
            let farm = Arc::new(farm());
            let a = thread::spawn({
                let farm = Arc::clone(&farm);
                move || generate_split_lock(&farm, 16)
            });
            let b = generate_split_lock(&farm, 16);
            let a = a.join().expect("generate thread");
            assert_ne!(a, b, "repeated DRBG output");
        });
    }));
    let message = result
        .expect_err("the split-lock ratchet must fail the model check")
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("repeated DRBG output"),
        "expected the duplicate-output assertion, got: {message}"
    );
}

/// Credit soundness under every schedule: a reseed crediting 256 bits
/// races two generates spending; however they interleave, an observer
/// taking the lock (as `stats()` does) never sees `spent > credited`,
/// and the final ledger balances.
#[test]
fn credit_never_runs_ahead_of_the_reseed() {
    let bounded = Builder {
        preemption_bound: Some(2),
        max_iterations: None,
    };
    bounded.check(|| {
        let farm = Arc::new(farm());
        let reseeder = thread::spawn({
            let farm = Arc::clone(&farm);
            move || reseed(&farm, 0xFEED_FACE, 256)
        });
        let spender = thread::spawn({
            let farm = Arc::clone(&farm);
            move || generate(&farm, 64)
        });
        // The observer: every lock acquisition must see a sound ledger.
        {
            let s = farm.shard.lock().expect("model lock");
            assert!(
                s.spent <= s.credited,
                "observer saw spent {} > credited {}",
                s.spent,
                s.credited
            );
        }
        let _ = generate(&farm, 64);
        reseeder.join().expect("reseed thread");
        spender.join().expect("spender thread");
        let s = farm.shard.lock().expect("model lock");
        assert!(s.spent <= s.credited, "final ledger unsound");
        assert_eq!(s.credited, 256);
        assert_eq!(farm.generates.load(Ordering::SeqCst), 2);
    });
}
