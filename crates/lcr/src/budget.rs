//! Indexing time budgets.
//!
//! The paper limits every indexing run to eight hours (§6.1, Table 2:
//! "the indexing processes are limited within eight hours") — the
//! traditional landmark method exceeds it on all but the smallest dataset.
//! [`Budget`] reproduces that cap at configurable scale: index builders
//! poll it and abort with [`BudgetExceeded`] when the deadline passes.

use std::fmt;
use std::time::{Duration, Instant};

/// A wall-clock budget for an indexing run.
#[derive(Clone, Debug)]
pub struct Budget {
    start: Instant,
    limit: Option<Duration>,
    /// Poll every `check_mask + 1` ticks to keep `Instant::now` off the
    /// hot path (checking time costs a vsyscall).
    ticks: u64,
}

/// Raised when an indexing run exceeds its budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// How long the run had when it was cut off.
    pub limit: Duration,
    /// How far the run had progressed, as reported by the builder.
    pub progress: String,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "indexing exceeded its {:?} budget ({})", self.limit, self.progress)
    }
}

impl std::error::Error for BudgetExceeded {}

impl Budget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        Budget { start: Instant::now(), limit: None, ticks: 0 }
    }

    /// A budget expiring `limit` from now.
    pub fn with_limit(limit: Duration) -> Self {
        Budget { start: Instant::now(), limit: Some(limit), ticks: 0 }
    }

    /// Cheap periodic check; call from inner loops. Returns an error once
    /// the deadline has passed (checked every 1024 calls).
    #[inline]
    pub(crate) fn tick(&mut self, progress: impl Fn() -> String) -> Result<(), BudgetExceeded> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & 0x3FF != 0 {
            return Ok(());
        }
        self.check(progress)
    }

    /// Unconditional check.
    pub fn check(&self, progress: impl Fn() -> String) -> Result<(), BudgetExceeded> {
        if let Some(limit) = self.limit {
            if self.start.elapsed() > limit {
                return Err(BudgetExceeded { limit, progress: progress() });
            }
        }
        Ok(())
    }

    /// Elapsed time since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let mut b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.tick(|| "p".into()).is_ok());
        }
        assert!(b.check(|| "p".into()).is_ok());
    }

    #[test]
    fn expired_budget_errors() {
        let b = Budget::with_limit(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let err = b.check(|| "at step 3".into()).unwrap_err();
        assert_eq!(err.limit, Duration::ZERO);
        assert!(err.to_string().contains("at step 3"));
    }

    #[test]
    fn tick_polls_sparsely() {
        let mut b = Budget::with_limit(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        // The first 1023 ticks skip the clock; the 1024th checks.
        let mut failed = false;
        for _ in 0..2048 {
            if b.tick(String::new).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }

    #[test]
    fn elapsed_moves_forward() {
        let b = Budget::unlimited();
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.elapsed() >= Duration::from_millis(1));
    }
}
