//! Seeded exponential backoff and the retryability taxonomy.
//!
//! Backoff delays are a pure function of `(policy seed, request id,
//! attempt)` — no wall clock, no thread timing — so a replay of the
//! same workload produces the same retry schedule, and tests can pin
//! schedules exactly. Delays grow ×2 per attempt with deterministic
//! jitter in `[0.5, 1.0]` of the exponential step, hard-capped at
//! `cap`.

use std::time::Duration;
use sw_dgemm::gen::SplitMix64;
use sw_dgemm::DgemmError;

/// Retry policy of one service: how many attempts a request gets and
/// how long workers back off between them.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// First retry's nominal delay (attempt 1).
    pub base: Duration,
    /// Hard ceiling on any single delay.
    pub cap: Duration,
    /// Total attempts per request (first try included); 1 disables
    /// retries.
    pub max_attempts: u32,
    /// Seed folded with the request id into the jitter.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            max_attempts: 3,
            seed: 0x5eed_0bac_c0ff_ee01,
        }
    }
}

impl BackoffPolicy {
    /// The delay before the given retry (`attempt` is 1-based: the
    /// delay taken *before* attempt N+1, after attempt N failed).
    /// Deterministic in `(seed, request_id, attempt)`.
    pub fn delay(&self, request_id: u64, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        let base = self.base.as_nanos().max(1) as u64;
        // base · 2^(attempt-1), saturating well before overflow.
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(32));
        let mut rng = SplitMix64::new(
            self.seed ^ request_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt),
        );
        let frac = 0.5 + 0.5 * rng.next_f64();
        let jittered = (exp as f64 * frac) as u64;
        Duration::from_nanos(jittered).min(self.cap)
    }

    /// The full retry schedule a request would see if every attempt
    /// failed: the delays before attempts 2..=max_attempts.
    pub fn schedule(&self, request_id: u64) -> Vec<Duration> {
        (1..self.max_attempts)
            .map(|a| self.delay(request_id, a))
            .collect()
    }
}

/// Whether an error class is worth another attempt (possibly on a
/// different core group). Transient memory faults, wedged meshes, and
/// uncorrected ABFT mismatches are environment-attributable and
/// retryable; malformed requests and cancellations are not — retrying
/// them wastes capacity on a deterministic outcome.
pub fn is_retryable(err: &DgemmError) -> bool {
    match err {
        DgemmError::Mem(_) | DgemmError::MeshDeadlock { .. } | DgemmError::AbftMismatch { .. } => {
            true
        }
        DgemmError::BadParams(_) | DgemmError::BadDims(_) | DgemmError::Cancelled { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
            max_attempts: 6,
            seed: 42,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = policy();
        assert_eq!(p.schedule(7), p.schedule(7));
        // Distinct requests get decorrelated jitter.
        assert_ne!(p.schedule(7), p.schedule(8));
        // A different seed moves every request's schedule.
        let q = BackoffPolicy { seed: 43, ..p };
        assert_ne!(p.schedule(7), q.schedule(7));
    }

    #[test]
    fn delays_grow_and_respect_the_cap() {
        let p = policy();
        let sched = p.schedule(3);
        assert_eq!(sched.len() as u32, p.max_attempts - 1);
        for d in &sched {
            assert!(*d <= p.cap, "delay {d:?} exceeds cap {:?}", p.cap);
            assert!(*d >= p.base / 2, "jitter floor is half the step");
        }
        // The exponential trend holds until the cap bites: attempt 5's
        // nominal step (1.6 ms) still fits under the 5 ms cap, so the
        // last delay must exceed the first (16× step vs ≤2× jitter).
        assert!(sched[sched.len() - 1] > sched[0]);
        // And a tiny cap flattens everything.
        let tight = BackoffPolicy {
            cap: Duration::from_micros(80),
            ..p
        };
        for d in tight.schedule(3) {
            assert!(d <= Duration::from_micros(80));
        }
    }

    #[test]
    fn retryability_taxonomy() {
        use sw_dgemm::DgemmError as E;
        assert!(is_retryable(&E::Mem(sw_dgemm::MemError::Transient {
            what: String::new()
        })));
        assert!(is_retryable(&E::MeshDeadlock {
            coord: (0, 0),
            summary: String::new()
        }));
        assert!(is_retryable(&E::AbftMismatch {
            block: (0, 0, 0),
            attempts: 4,
            detail: String::new()
        }));
        assert!(!is_retryable(&E::BadDims(String::new())));
        assert!(!is_retryable(&E::BadParams(String::new())));
        assert!(!is_retryable(&E::Cancelled { deadline: true }));
    }
}
