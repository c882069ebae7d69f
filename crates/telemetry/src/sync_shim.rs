//! cfg(loom)-switched concurrency imports.
//!
//! Every atomic and mutex used by this crate's lock-free internals is
//! imported through this module. A normal build re-exports the `std`
//! primitives unchanged; a `--cfg loom` build substitutes the
//! [`loomlite`] model-checking shims so the `tests/loom_*.rs` suites
//! can exhaustively explore interleavings of the registry and
//! histogram protocols.
//!
//! Keeping the switch in one module (rather than scattering
//! `#[cfg(loom)]` through the crate) is also what lets `cargo xtask
//! lint`'s `no-raw-atomics` rule treat this crate as the single
//! sanctioned home of atomic-ordering decisions.

#[cfg(loom)]
pub(crate) use loomlite::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
pub(crate) use loomlite::sync::{Arc, Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::{Arc, Mutex, MutexGuard};
