//! Cooperative cancellation checked at chunk boundaries.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, cloneable cancellation token.
///
/// Workers never interrupt a chunk in flight — they consult the token
/// *between* chunks, so cancellation degrades a run into a well-formed
/// partial result (with explicit coverage accounting by the caller)
/// instead of tearing it down.
///
/// Three triggers, combinable:
///
/// * manual — [`CancelToken::cancel`];
/// * wall-clock — [`CancelToken::with_deadline`] trips once the
///   deadline has passed;
/// * countdown — [`CancelToken::countdown`] trips after a fixed number
///   of [`CancelToken::is_cancelled`] checks. Deterministic for
///   sequential runs, which is how the kill/resume property tests
///   enumerate "interrupt at every possible point".
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    /// The wall-clock budget `deadline` was set with, for
    /// [`CancelToken::restarted`].
    budget: Option<Duration>,
    /// Remaining checks before the countdown trips; negative = disabled.
    countdown: AtomicI64,
    /// The countdown the token started with; negative = disabled.
    checks: i64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner::new(None, -1)
    }
}

impl Inner {
    fn new(budget: Option<Duration>, checks: i64) -> Self {
        Inner {
            flag: AtomicBool::new(false),
            deadline: budget.map(|b| Instant::now() + b),
            budget,
            countdown: AtomicI64::new(checks),
            checks,
        }
    }
}

impl CancelToken {
    /// A token that never trips until [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips once `deadline` has elapsed (measured from
    /// now).
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken(Arc::new(Inner::new(Some(deadline), -1)))
    }

    /// A token that trips once the absolute `deadline` instant has
    /// passed. This is the per-request form used by long-lived servers:
    /// the deadline clock starts when the request is *received*, not
    /// when a worker finally dequeues it, so time spent waiting in a
    /// bounded session queue counts against the budget.
    #[must_use]
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken(Arc::new(Inner::new(
            Some(deadline.saturating_duration_since(Instant::now())),
            -1,
        )))
    }

    /// A token that trips after `checks` calls to
    /// [`CancelToken::is_cancelled`] (each check consumes one tick).
    #[must_use]
    pub fn countdown(checks: u64) -> Self {
        CancelToken(Arc::new(Inner::new(
            None,
            i64::try_from(checks).unwrap_or(i64::MAX),
        )))
    }

    /// A fresh, untripped token with the budget this one started with:
    /// the same deadline length measured again from now, and the same
    /// countdown. A manual [`CancelToken::cancel`] is not carried over,
    /// so a token without a deadline or countdown restarts as one that
    /// never trips on its own. A run that a deadline cut uses it to
    /// bound a follow-up step over the completed prefix.
    #[must_use]
    pub fn restarted(&self) -> Self {
        CancelToken(Arc::new(Inner::new(self.0.budget, self.0.checks)))
    }

    /// Trips the token manually. Idempotent.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once any trigger has fired. Consumes one
    /// countdown tick per call (when a countdown is configured).
    pub fn is_cancelled(&self) -> bool {
        if self.0.flag.load(Ordering::SeqCst) {
            return true;
        }
        if let Some(deadline) = self.0.deadline {
            if Instant::now() >= deadline {
                self.cancel();
                return true;
            }
        }
        // fetch_sub saturates logically: once negative-by-decrement it
        // stays cancelled via the flag, so wrap-around is unreachable.
        let remaining = self.0.countdown.load(Ordering::SeqCst);
        if remaining >= 0 && self.0.countdown.fetch_sub(1, Ordering::SeqCst) <= 0 {
            self.cancel();
            return true;
        }
        false
    }

    /// Peeks at the cancelled state without consuming a countdown tick.
    #[must_use]
    pub fn is_cancelled_peek(&self) -> bool {
        self.0.flag.load(Ordering::SeqCst)
            || self
                .0
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_trips() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.clone().is_cancelled(), "clones share state");
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled_peek());
    }

    #[test]
    fn absolute_deadline_counts_queue_time() {
        let t = CancelToken::with_deadline_at(Instant::now());
        assert!(t.is_cancelled(), "a deadline in the past trips at once");
        let t = CancelToken::with_deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn restarted_token_keeps_the_budget_not_the_trip() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert!(t.restarted().is_cancelled(), "a zero budget restarts spent");
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.cancel();
        let r = t.restarted();
        assert!(!r.is_cancelled(), "the restarted deadline is an hour away");
        assert!(r.0.deadline.is_some());
        let t = CancelToken::countdown(1);
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled());
        let r = t.restarted();
        assert!(!r.is_cancelled());
        assert!(r.is_cancelled(), "the countdown restarts at 1");
        let t = CancelToken::new();
        t.cancel();
        assert!(!t.restarted().is_cancelled_peek());
    }

    #[test]
    fn countdown_trips_after_n_checks() {
        let t = CancelToken::countdown(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "fourth check observes the trip");
        assert!(t.is_cancelled(), "and it latches");
    }

    #[test]
    fn countdown_zero_trips_on_first_check() {
        let t = CancelToken::countdown(0);
        assert!(t.is_cancelled());
    }

    #[test]
    fn peek_does_not_consume_ticks() {
        let t = CancelToken::countdown(1);
        for _ in 0..10 {
            assert!(!t.is_cancelled_peek());
        }
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled());
    }
}
