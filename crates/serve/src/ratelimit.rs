//! Per-client token-bucket rate limiting, keyed by peer IP.
//!
//! Each client address owns a bucket holding up to `burst` tokens,
//! refilled continuously at `rate_per_sec`. A request spends one
//! token; an empty bucket means `429 Too Many Requests` with a
//! `Retry-After` telling the client when one token will have refilled.
//!
//! The clock is passed in by the caller ([`RateLimiter::check_at`])
//! so the policy is a pure state machine and deterministically
//! testable. The server passes `Instant::now()`: the bucket needs the
//! wall clock even when the span clock is off, so that read carries
//! the serve path's one `instant-hot-path` waiver.

use std::collections::HashMap;
use std::net::IpAddr;
use std::time::{Duration, Instant};

use drange_core::sync::Mutex;

/// Bucket table size at which fully-refilled (idle) entries are
/// evicted, bounding memory under address churn.
const PRUNE_AT: usize = 4096;

/// Token-bucket policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Sustained requests per second granted to each client address.
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may burst above the rate.
    pub burst: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            rate_per_sec: 100.0,
            burst: 200.0,
        }
    }
}

/// Outcome of admitting one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// A token was spent; serve the request.
    Admitted,
    /// Bucket empty; retry after the embedded delay.
    Limited {
        /// Time until one token will have refilled.
        retry_after: Duration,
    },
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The per-IP token-bucket table.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateLimitConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter with the given policy. A non-positive rate or
    /// burst is clamped to a minimal working policy rather than
    /// dividing by zero.
    #[must_use]
    pub fn new(config: RateLimitConfig) -> Self {
        let config = RateLimitConfig {
            rate_per_sec: config.rate_per_sec.max(1e-6),
            burst: config.burst.max(1.0),
        };
        RateLimiter {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Admits or limits one request from `client` at time `now`.
    pub fn check_at(&self, client: IpAddr, now: Instant) -> Admission {
        let mut buckets = self.buckets.lock();
        if buckets.len() >= PRUNE_AT && !buckets.contains_key(&client) {
            let (rate, burst) = (self.config.rate_per_sec, self.config.burst);
            buckets.retain(|_, b| {
                let refilled = b.tokens + now.duration_since(b.refilled_at).as_secs_f64() * rate;
                refilled < burst
            });
        }
        let bucket = buckets.entry(client).or_insert(Bucket {
            tokens: self.config.burst,
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.config.rate_per_sec).min(self.config.burst);
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Admission::Admitted
        } else {
            let deficit = 1.0 - bucket.tokens;
            Admission::Limited {
                retry_after: Duration::from_secs_f64(deficit / self.config.rate_per_sec),
            }
        }
    }

    /// Number of tracked client addresses (for tests and metrics).
    #[must_use]
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn burst_then_limited_then_refilled() {
        let rl = RateLimiter::new(RateLimitConfig {
            rate_per_sec: 10.0,
            burst: 2.0,
        });
        let t0 = Instant::now();
        assert_eq!(rl.check_at(ip(1), t0), Admission::Admitted);
        assert_eq!(rl.check_at(ip(1), t0), Admission::Admitted);
        let Admission::Limited { retry_after } = rl.check_at(ip(1), t0) else {
            panic!("third instant request must be limited");
        };
        // One token refills in 1/rate = 100 ms.
        assert!(retry_after <= Duration::from_millis(100));
        let later = t0 + Duration::from_millis(150);
        assert_eq!(rl.check_at(ip(1), later), Admission::Admitted);
    }

    #[test]
    fn clients_are_independent() {
        let rl = RateLimiter::new(RateLimitConfig {
            rate_per_sec: 1.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        assert_eq!(rl.check_at(ip(1), t0), Admission::Admitted);
        assert!(matches!(rl.check_at(ip(1), t0), Admission::Limited { .. }));
        assert_eq!(
            rl.check_at(ip(2), t0),
            Admission::Admitted,
            "a hot neighbor must not starve another client"
        );
    }

    #[test]
    fn tokens_cap_at_burst() {
        let rl = RateLimiter::new(RateLimitConfig {
            rate_per_sec: 1000.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        let much_later = t0 + Duration::from_secs(3600);
        assert_eq!(rl.check_at(ip(1), t0), Admission::Admitted);
        assert_eq!(rl.check_at(ip(1), much_later), Admission::Admitted);
        assert!(
            matches!(rl.check_at(ip(1), much_later), Admission::Limited { .. }),
            "an idle hour must refill to burst, not to rate*3600"
        );
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let rl = RateLimiter::new(RateLimitConfig {
            rate_per_sec: 0.0,
            burst: -3.0,
        });
        let t0 = Instant::now();
        assert_eq!(rl.check_at(ip(9), t0), Admission::Admitted);
        assert!(matches!(rl.check_at(ip(9), t0), Admission::Limited { .. }));
    }
}
