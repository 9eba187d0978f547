//! The open-loop pacer: operations are due on a fixed schedule whether
//! or not the system keeps up, and each is timed from when it was *due*,
//! so a stall is charged to every operation it delays.
//!
//! The pacer works on offsets from the start of the run, in nanoseconds,
//! and never reads a clock itself; the caller supplies the readings.

/// A fixed-rate schedule.
#[derive(Debug)]
pub struct Pacer {
    period_ns: u64,
    next: u64,
}

/// What one paced operation cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Paced {
    /// Acknowledgement time minus due time: what a user who asked on
    /// schedule waited.
    pub latency_ns: u64,
    /// Send time minus due time: how late the generator itself ran.
    pub lag_ns: u64,
}

impl Pacer {
    /// A schedule of `rate_per_s` operations per second.
    pub fn new(rate_per_s: u64) -> Pacer {
        Pacer { period_ns: 1_000_000_000 / rate_per_s.max(1), next: 0 }
    }

    /// When the next operation is due.
    pub fn due_ns(&self) -> u64 {
        self.next * self.period_ns
    }

    /// How long to sleep at `now_ns` before sending; zero when the
    /// schedule has already passed (the backlog is sent back to back,
    /// never dropped).
    pub fn wait_ns(&self, now_ns: u64) -> u64 {
        self.due_ns().saturating_sub(now_ns)
    }

    /// Gives up on the operation now due (it is reported as failed).
    pub fn skip(&mut self) {
        self.next += 1;
    }

    /// Accounts the operation sent at `sent_ns` and acknowledged at
    /// `acked_ns`, and moves the schedule on.
    pub fn complete(&mut self, sent_ns: u64, acked_ns: u64) -> Paced {
        let due = self.due_ns();
        self.next += 1;
        Paced { latency_ns: acked_ns.saturating_sub(due), lag_ns: sent_ns.saturating_sub(due) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_and_lag_is_accounted() {
        let mut p = Pacer::new(100); // every 10 ms
        assert_eq!((p.due_ns(), p.wait_ns(0)), (0, 0));
        // On time: sent at due, acked 1 ms later.
        assert_eq!(p.complete(0, 1_000_000), Paced { latency_ns: 1_000_000, lag_ns: 0 });
        // Second is due at 10 ms; at 4 ms the generator must wait 6 ms.
        assert_eq!((p.due_ns(), p.wait_ns(4_000_000)), (10_000_000, 6_000_000));
        // A 25 ms stall: the operation goes out 15 ms late and its 2 ms of
        // service is reported as 17 ms from when it was due.
        assert_eq!(
            p.complete(25_000_000, 27_000_000),
            Paced { latency_ns: 17_000_000, lag_ns: 15_000_000 }
        );
        // The third was due at 20 ms — already past at 27 ms, so no wait,
        // and the stall is charged to it too (open loop: nothing is
        // dropped, the schedule does not slip).
        assert_eq!((p.due_ns(), p.wait_ns(27_000_000)), (20_000_000, 0));
        assert_eq!(
            p.complete(27_000_000, 28_000_000),
            Paced { latency_ns: 8_000_000, lag_ns: 7_000_000 }
        );
        // Caught up: the fourth waits for its slot again.
        assert_eq!(p.wait_ns(28_000_000), 2_000_000);
    }
}
