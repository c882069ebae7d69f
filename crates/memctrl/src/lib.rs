//! # memctrl — command-level DRAM memory-controller model
//!
//! D-RaNGe runs "fully within the memory controller" (paper Section 6.3):
//! a firmware routine programs a reduced `tRCD` into the controller's
//! timing registers, drives the ACT/RD/WR/PRE command stream of
//! Algorithm 2, and reads the failing bits back. This crate provides
//! that controller for the [`dram_sim`] device model:
//!
//! * [`TimingRegisters`] — the software-visible timing registers,
//!   including the programmable `tRCD` the mechanism relies on.
//! * [`CommandScheduler`] — issues commands at the earliest legal clock
//!   edge under the JEDEC inter-command constraints (tRRD, tFAW, tCCD,
//!   tRAS, tRP, tRTP, tWR, tWTR, bus occupancy) and accounts cycles,
//!   playing the role Ramulator plays in the paper's throughput and
//!   energy evaluations.
//! * [`MemoryController`] — binds a scheduler to a [`dram_sim::DramDevice`],
//!   records command traces for the energy model, and exposes the
//!   high-level operations the D-RaNGe algorithms are written in.
//! * [`workloads`] — synthetic SPEC CPU2006-like memory-intensity
//!   profiles for the idle-bandwidth interference study (Section 7.3).
//!
//! ## Example
//!
//! ```rust
//! use dram_sim::{DeviceConfig, Manufacturer};
//! use memctrl::MemoryController;
//!
//! # fn main() -> memctrl::Result<()> {
//! let mut ctrl = MemoryController::from_config(
//!     DeviceConfig::new(Manufacturer::A).with_seed(1).with_noise_seed(2),
//! );
//! ctrl.set_trcd_ns(10.0); // violate the datasheet: induce failures
//! ctrl.act(0, 7)?;
//! let word = ctrl.rd(0, 7, 3)?;
//! ctrl.pre(0)?;
//! ctrl.reset_trcd();
//! let _ = word;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod controller;
pub mod error;
pub mod registers;
pub mod schedule;
pub mod workloads;

pub use controller::MemoryController;
pub use error::{MemError, Result};
pub use registers::TimingRegisters;
pub use schedule::CommandScheduler;
pub use workloads::WorkloadProfile;
