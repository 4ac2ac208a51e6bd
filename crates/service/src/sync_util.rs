//! Poison-tolerant locking.
//!
//! A panic while holding a `Mutex` poisons it; the default `lock().expect()`
//! idiom then turns one contained solver panic into a panic cascade across
//! every thread that later touches the same lock. The service's shared state
//! (metrics counters, cache shards, singleflight tables, result slots) is
//! always left in a consistent state between individual mutations, so the
//! right response to poison is to keep going with the inner value.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `now + d` without the panic `Instant` addition reserves for
/// unrepresentable sums: a pathological duration (`Duration::MAX` grace
/// periods, timeouts parsed from config) clamps to the farthest
/// representable deadline instead of aborting the thread that armed it.
pub(crate) fn saturating_deadline(now: Instant, d: Duration) -> Instant {
    let mut d = d;
    loop {
        if let Some(t) = now.checked_add(d) {
            return t;
        }
        // Halving converges on the largest representable offset quickly
        // (the loop runs at most ~64 times, and only on overflow).
        d /= 2;
    }
}

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait_timeout`] with the same poison recovery as
/// [`lock_recover`]. Callers re-check their predicate and their own
/// deadline on return, so the timed-out flag is not surfaced.
pub(crate) fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: std::time::Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, _)) => g,
        Err(e) => e.into_inner().0,
    }
}

/// Holds the crate's fail-point lock (see [`fp_lock`]); disarms every site
/// on drop, even when the test panics.
#[cfg(test)]
pub(crate) struct FpGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

#[cfg(test)]
impl Drop for FpGuard {
    fn drop(&mut self) {
        krsp_failpoint::clear();
    }
}

/// Serializes this crate's unit tests that arm fail points, or that solve
/// through a site another test arms: the registry is process-global, so a
/// site armed by one test would fire inside a concurrent test's solve.
/// Starts from a clean registry.
#[cfg(test)]
pub(crate) fn fp_lock() -> FpGuard {
    static FP_LOCK: Mutex<()> = Mutex::new(());
    let guard = lock_recover(&FP_LOCK);
    krsp_failpoint::clear();
    FpGuard(guard)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn saturating_deadline_clamps_instead_of_panicking() {
        let now = Instant::now();
        assert_eq!(
            saturating_deadline(now, Duration::from_secs(5)),
            now + Duration::from_secs(5)
        );
        // `now + Duration::MAX` would panic; the clamp must not, and must
        // still land in the future.
        let far = saturating_deadline(now, Duration::MAX);
        assert!(far > now + Duration::from_secs(3600));
    }

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(7u32);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 8);
    }
}
