//! Open-loop pacing: op `i` is due at `start + i / rate`, whatever
//! happened to earlier ops. Latency runs from the due time, so a stall in
//! the generator or the system under test is charged to every op that
//! waited behind it, not hidden by issuing late.

use std::time::Duration;

/// Fixed-rate schedule of due times.
#[derive(Debug, Clone)]
pub struct Pacer {
    start: Duration,
    period_ns: f64,
    next: u64,
}

impl Pacer {
    /// Ops at `rate` per second, the first due at `start`.
    pub fn new(start: Duration, rate: f64) -> Pacer {
        assert!(rate > 0.0, "rate must be positive");
        Pacer {
            start,
            period_ns: 1e9 / rate,
            next: 0,
        }
    }

    /// When op `i` is due.
    pub fn due(&self, i: u64) -> Duration {
        self.start + Duration::from_nanos((i as f64 * self.period_ns).round() as u64)
    }

    /// Ops due by `now` and not yet handed out, as an index range.
    pub fn take_due(&mut self, now: Duration) -> std::ops::Range<u64> {
        let first = self.next;
        while self.due(self.next) <= now {
            self.next += 1;
        }
        first..self.next
    }

    /// When the next op not yet handed out is due.
    pub fn next_due(&self) -> Duration {
        self.due(self.next)
    }
}

/// Latency of an op answered at `finished` that was due at `due`.
pub fn due_latency(due: Duration, finished: Duration) -> Duration {
    finished.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Duration {
        Duration::from_secs_f64(x / 1e3)
    }

    #[test]
    fn schedule_is_fixed_by_rate_not_by_progress() {
        let mut p = Pacer::new(ms(100.0), 1000.0);
        assert_eq!(p.take_due(ms(99.0)), 0..0);
        assert_eq!(p.take_due(ms(100.0)), 0..1);
        // The generator stalls for 10 ms: the backlog comes due at once
        // and keeps its original due times.
        assert_eq!(p.take_due(ms(110.5)), 1..11);
        assert_eq!(p.due(5), ms(105.0));
        assert_eq!(p.next_due(), ms(111.0));
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        let p = Pacer::new(Duration::ZERO, 1000.0);
        // Op 10 was due at 10 ms, issued late at 12 ms after a stall, and
        // answered 0.2 ms after issue: it waited 2.2 ms, not 0.2 ms.
        let lat = due_latency(p.due(10), ms(12.2));
        assert!((lat.as_secs_f64() * 1e3 - 2.2).abs() < 1e-9);
        // An answer can never precede its due time.
        assert_eq!(due_latency(ms(5.0), ms(4.0)), Duration::ZERO);
    }
}
