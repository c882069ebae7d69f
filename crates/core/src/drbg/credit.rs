//! Entropy-credit accounting for the DRBG tier (the SP 800-90C-style
//! ledger behind `drange_drbg_entropy_credits_total`).
//!
//! Every bit that reaches a DRBG seed was drawn from the engine's
//! shared pool, and the pool only ever holds health-screened bits: its
//! only way in is a [`crate::health::Screened`] batch, which only
//! [`crate::health::HealthMonitor::screen`] builds, so the compiler
//! holds the invariant. The ledger therefore credits exactly
//! the bits drawn at reseed time: *credits can never exceed the
//! health-fed bits the engine produced* (pinned by the
//! `drbg_props` proptests).
//!
//! Generates spend credit bit-for-bit against the output until the
//! balance is exhausted; output beyond the balance is still
//! cryptographically conditioned (the ChaCha20 ratchet) but no longer
//! backed one-to-one by fresh physical entropy — the spread between
//! `credited` and `spent` is the honest measure of how far ahead of
//! the harvester the fast tier is running.

/// A single shard's entropy ledger. Plain data — the owning shard
/// state already lives behind the shard mutex, so no atomics are
/// needed here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditLedger {
    /// Total health-screened bits ever credited by reseeds.
    credited: u64,
    /// Total output bits that consumed credit (saturating at
    /// `credited`: spending stops when the balance is empty).
    spent: u64,
}

impl CreditLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CreditLedger::default()
    }

    /// Credits `bits` freshly drawn, health-screened seed bits.
    /// Saturates instead of wrapping: a ledger that has absorbed
    /// `u64::MAX` bits of entropy has long stopped being informative,
    /// but it must not wrap into an apparently tiny balance.
    pub fn credit(&mut self, bits: u64) {
        self.credited = self.credited.saturating_add(bits);
    }

    /// Spends up to `bits` of credit against generated output and
    /// returns the amount actually covered. The balance clamps at
    /// zero: output beyond the balance is served (availability is the
    /// DRBG tier's contract) but is visibly uncovered.
    pub fn spend(&mut self, bits: u64) -> u64 {
        let covered = bits.min(self.available());
        self.spent = self.spent.saturating_add(covered);
        covered
    }

    /// Unspent entropy credit, in bits.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.credited.saturating_sub(self.spent)
    }

    /// Total bits ever credited.
    #[must_use]
    pub fn total_credited(&self) -> u64 {
        self.credited
    }

    /// Total output bits that were covered by credit.
    #[must_use]
    pub fn total_spent(&self) -> u64 {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate_and_spend_saturates() {
        let mut l = CreditLedger::new();
        assert_eq!(l.available(), 0);
        l.credit(256);
        assert_eq!(l.available(), 256);
        assert_eq!(l.spend(100), 100);
        assert_eq!(l.available(), 156);
        // Over-spending covers only the remaining balance.
        assert_eq!(l.spend(1000), 156);
        assert_eq!(l.available(), 0);
        assert_eq!(l.spend(1), 0, "an empty ledger covers nothing");
        assert_eq!(l.total_credited(), 256);
        assert_eq!(l.total_spent(), 256);
    }

    #[test]
    fn spent_never_exceeds_credited() {
        let mut l = CreditLedger::new();
        l.spend(u64::MAX);
        assert_eq!(l.total_spent(), 0);
        l.credit(64);
        l.spend(u64::MAX);
        assert_eq!(l.total_spent(), 64);
        assert!(l.total_spent() <= l.total_credited());
    }

    #[test]
    fn credit_saturates_instead_of_wrapping() {
        let mut l = CreditLedger::new();
        l.credit(u64::MAX);
        l.credit(u64::MAX);
        assert_eq!(l.total_credited(), u64::MAX);
        assert_eq!(l.available(), u64::MAX);
    }
}
