//! Simulated execution clock with per-category time attribution.
//!
//! The MOD paper (Fig 2, Fig 9) breaks workload execution time into three
//! buckets: time spent *flushing* (clwb issue plus sfence stalls, including
//! flushes of log entries), time spent *logging* (building log entries),
//! and everything else. [`SimClock`] accumulates simulated nanoseconds into
//! those buckets; the active bucket for non-flush costs is selected by a
//! tag stack so STM code can mark its log-maintenance sections.

/// Attribution bucket for simulated time.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum TimeCategory {
    /// Compute and memory-access time not otherwise attributed.
    Other,
    /// Cacheline flush issue and fence stall time.
    Flush,
    /// Log construction and maintenance time (PM-STM only).
    Log,
}

/// Breakdown of accumulated simulated time, in nanoseconds.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Nanoseconds in [`TimeCategory::Other`].
    pub other_ns: f64,
    /// Nanoseconds in [`TimeCategory::Flush`].
    pub flush_ns: f64,
    /// Nanoseconds in [`TimeCategory::Log`].
    pub log_ns: f64,
}

impl TimeBreakdown {
    /// Total simulated nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.other_ns + self.flush_ns + self.log_ns
    }

    /// Fraction of total time spent in flushing; 0 when total is 0.
    pub fn flush_fraction(&self) -> f64 {
        let t = self.total_ns();
        if t == 0.0 {
            0.0
        } else {
            self.flush_ns / t
        }
    }

    /// Fraction of total time spent in logging; 0 when total is 0.
    pub fn log_fraction(&self) -> f64 {
        let t = self.total_ns();
        if t == 0.0 {
            0.0
        } else {
            self.log_ns / t
        }
    }

    /// Element-wise difference `self - earlier` (for per-span accounting).
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            other_ns: self.other_ns - earlier.other_ns,
            flush_ns: self.flush_ns - earlier.flush_ns,
            log_ns: self.log_ns - earlier.log_ns,
        }
    }
}

/// Simulated clock. All latency charges from the PM substrate land here.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    breakdown: TimeBreakdown,
    tags: Vec<TimeCategory>,
}

impl SimClock {
    /// Creates a clock at time zero with an empty tag stack.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// The accumulated per-category breakdown.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// The category non-flush charges currently attribute to.
    pub fn current_tag(&self) -> TimeCategory {
        *self.tags.last().unwrap_or(&TimeCategory::Other)
    }

    /// Pushes an attribution tag; non-flush charges go to `cat` until the
    /// matching [`SimClock::pop_tag`].
    pub fn push_tag(&mut self, cat: TimeCategory) {
        self.tags.push(cat);
    }

    /// Pops the most recent attribution tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag stack is empty (unbalanced push/pop is a logic
    /// error in the caller).
    pub fn pop_tag(&mut self) {
        self.tags
            .pop()
            .expect("SimClock::pop_tag on empty tag stack");
    }

    /// Advances the clock by `ns`, attributed to the current tag.
    pub fn advance(&mut self, ns: f64) {
        self.advance_as(self.current_tag(), ns);
    }

    /// Advances the clock by `ns`, attributed explicitly to `cat`
    /// regardless of the tag stack (used for flush/fence charges).
    pub fn advance_as(&mut self, cat: TimeCategory, ns: f64) {
        debug_assert!(ns >= 0.0, "negative time charge");
        match cat {
            TimeCategory::Other => self.breakdown.other_ns += ns,
            TimeCategory::Flush => self.breakdown.flush_ns += ns,
            TimeCategory::Log => self.breakdown.log_ns += ns,
        }
    }

    /// Advances the clock so that [`SimClock::now_ns`] is at least `t`,
    /// charging the gap (if any) to `cat`. Used to synchronize worker-handle
    /// clocks at shared events like a pipelined batch fence: a handle
    /// that arrives early stalls until the event time.
    pub fn sync_to_ns(&mut self, t: f64, cat: TimeCategory) {
        let gap = t - self.now_ns();
        if gap > 0.0 {
            self.advance_as(cat, gap);
        }
    }

    /// Resets the clock to zero, keeping the tag stack.
    pub fn reset(&mut self) {
        self.breakdown = TimeBreakdown::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tag_is_other() {
        let mut c = SimClock::new();
        c.advance(10.0);
        assert_eq!(c.breakdown().other_ns, 10.0);
        assert_eq!(c.now_ns(), 10.0);
    }

    #[test]
    fn tags_route_charges() {
        let mut c = SimClock::new();
        c.push_tag(TimeCategory::Log);
        c.advance(5.0);
        c.pop_tag();
        c.advance(2.0);
        assert_eq!(c.breakdown().log_ns, 5.0);
        assert_eq!(c.breakdown().other_ns, 2.0);
    }

    #[test]
    fn nested_tags() {
        let mut c = SimClock::new();
        c.push_tag(TimeCategory::Log);
        c.push_tag(TimeCategory::Other);
        c.advance(1.0);
        c.pop_tag();
        c.advance(1.0);
        c.pop_tag();
        assert_eq!(c.breakdown().other_ns, 1.0);
        assert_eq!(c.breakdown().log_ns, 1.0);
    }

    #[test]
    fn advance_as_ignores_tag() {
        let mut c = SimClock::new();
        c.push_tag(TimeCategory::Log);
        c.advance_as(TimeCategory::Flush, 7.0);
        assert_eq!(c.breakdown().flush_ns, 7.0);
        assert_eq!(c.breakdown().log_ns, 0.0);
    }

    #[test]
    fn fractions() {
        let b = TimeBreakdown {
            other_ns: 27.0,
            flush_ns: 64.0,
            log_ns: 9.0,
        };
        assert!((b.flush_fraction() - 0.64).abs() < 1e-12);
        assert!((b.log_fraction() - 0.09).abs() < 1e-12);
        assert_eq!(TimeBreakdown::default().flush_fraction(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let a = TimeBreakdown {
            other_ns: 1.0,
            flush_ns: 2.0,
            log_ns: 3.0,
        };
        let b = TimeBreakdown {
            other_ns: 5.0,
            flush_ns: 7.0,
            log_ns: 3.5,
        };
        let d = b.since(&a);
        assert_eq!(d.other_ns, 4.0);
        assert_eq!(d.flush_ns, 5.0);
        assert_eq!(d.log_ns, 0.5);
    }

    #[test]
    #[should_panic(expected = "empty tag stack")]
    fn unbalanced_pop_panics() {
        SimClock::new().pop_tag();
    }
}
