//! The simulation driver: a clock plus an event queue.
//!
//! The engine is deliberately minimal (in the spirit of smoltcp's
//! "simplicity and robustness" design goals): the application owns its world
//! state and defines one event enum; the engine owns time. Handlers receive
//! `&mut Scheduler<E>` so they can schedule follow-up events, which sidesteps
//! the usual borrow-checker fights of callback-based DES designs without any
//! `Rc<RefCell>` or trait-object machinery.

use crate::queue::{EventQueue, EventToken};
use crate::time::{SimDuration, SimTime};

/// Clock plus pending-event queue for one simulation run.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    delivered: u64,
    scheduled: u64,
    cancelled: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at time zero.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: 0,
            scheduled: 0,
            cancelled: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total number of events ever scheduled, on the heap and the monotone
    /// lane together (delivered, cancelled and still-pending alike). A pure
    /// function of the delivered sequence, so it is safe to report in
    /// deterministic telemetry; moving an event kind to the lane leaves it
    /// unchanged.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of [`cancel`](Scheduler::cancel) calls. Cancellation is
    /// lazy in the queue, but callers only cancel tokens they still hold,
    /// so this equals the number of events removed before delivery.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of pending events, on the heap and the monotone lane
    /// together.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — delivering events out of causal order
    /// would silently corrupt every downstream statistic, so this is a
    /// programming error worth failing loudly on.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(at >= self.now, "scheduled event at {at} before current time {}", self.now);
        self.scheduled += 1;
        self.queue.push(at, event)
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.scheduled += 1;
        self.queue.push(self.now + delay, event)
    }

    /// Schedules `event` at `at` in the queue's *front lane*: among events
    /// at the same instant it is delivered before every
    /// [`schedule_at`]/[`schedule_after`] event, regardless of insertion
    /// order (front-lane events stay FIFO among themselves). Streaming
    /// drivers use this to feed trace arrivals one at a time while
    /// reproducing the delivery order of a run that pre-scheduled every
    /// arrival up front (arrivals then held the lowest sequence numbers, so
    /// they always beat simultaneous timers).
    ///
    /// [`schedule_at`]: Scheduler::schedule_at
    /// [`schedule_after`]: Scheduler::schedule_after
    pub fn schedule_front(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(at >= self.now, "scheduled event at {at} before current time {}", self.now);
        self.scheduled += 1;
        self.queue.push_front(at, event)
    }

    /// Schedules `event` at `at` in the queue's *monotone lane*, an O(1)
    /// FIFO beside the heap for events whose schedule times never decrease
    /// (e.g. a fixed-period tick rescheduled at `now + period`). The event
    /// is delivered exactly where a [`schedule_at`] at the same moment
    /// would deliver it. It returns no token: lane events cannot be
    /// cancelled.
    ///
    /// # Panics
    /// Panics if `at` is before the current time or before the lane's last
    /// scheduled time.
    ///
    /// [`schedule_at`]: Scheduler::schedule_at
    pub fn schedule_monotone(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduled event at {at} before current time {}", self.now);
        self.scheduled += 1;
        self.queue.push_monotone(at, event);
    }

    /// Cancels a pending event (no-op if already delivered/cancelled).
    pub fn cancel(&mut self, token: EventToken) {
        self.cancelled += 1;
        self.queue.cancel(token);
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        self.next_event_until(SimTime::from_millis(u64::MAX))
    }

    /// [`next_event`](Scheduler::next_event), for an event due at or before
    /// `end` only.
    fn next_event_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop_until(end)?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.delivered += 1;
        Some((t, e))
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs the event loop until the queue drains or the clock passes `end`,
    /// popping once per delivered event ([`EventQueue::pop_until`]).
    ///
    /// Events timestamped exactly at `end` are still delivered; the first
    /// event strictly after `end` is left in the queue and the clock is
    /// advanced to `end`. The handler may schedule further events.
    pub fn run_until<W>(
        &mut self,
        world: &mut W,
        end: SimTime,
        mut handler: impl FnMut(&mut Self, &mut W, SimTime, E),
    ) {
        while let Some((t, e)) = self.next_event_until(end) {
            handler(self, world, t, e);
        }
        if self.now < end {
            self.now = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), Ev::Tick(1));
        s.schedule_after(SimDuration::from_secs(1), Ev::Tick(0));
        let (t0, e0) = s.next_event().unwrap();
        assert_eq!((t0, e0), (SimTime::from_secs(1), Ev::Tick(0)));
        assert_eq!(s.now(), SimTime::from_secs(1));
        let (t1, _) = s.next_event().unwrap();
        assert_eq!(t1, SimTime::from_secs(3));
        assert_eq!(s.delivered(), 2);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), Ev::Stop);
        s.next_event();
        s.schedule_at(SimTime::from_secs(1), Ev::Stop);
    }

    #[test]
    fn schedule_front_wins_ties_against_earlier_normal_events() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2), Ev::Tick(1));
        s.schedule_front(SimTime::from_secs(2), Ev::Tick(0));
        let (_, first) = s.next_event().unwrap();
        assert_eq!(first, Ev::Tick(0), "front lane delivered first at the tie");
        let (_, second) = s.next_event().unwrap();
        assert_eq!(second, Ev::Tick(1));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn monotone_schedule_in_the_past_panics() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), Ev::Stop);
        s.next_event();
        s.schedule_monotone(SimTime::from_secs(1), Ev::Stop);
    }

    #[test]
    fn run_until_respects_horizon_and_allows_rescheduling() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 0);
        let mut seen = Vec::new();
        s.run_until(&mut seen, SimTime::from_secs(5), |s, seen, t, n| {
            seen.push((t.as_secs(), n));
            // Periodic self-rescheduling, the common pattern for samplers.
            s.schedule_after(SimDuration::from_secs(2), n + 1);
        });
        // Events at 1, 3, 5 delivered; the one at 7 stays pending.
        assert_eq!(seen, vec![(1, 0), (3, 1), (5, 2)]);
        assert_eq!(s.now(), SimTime::from_secs(5));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 7);
        let mut world = ();
        s.run_until(&mut world, SimTime::from_secs(100), |_, _, _, _| {});
        assert_eq!(s.now(), SimTime::from_secs(100));
    }

    #[test]
    fn cancelled_events_are_not_delivered() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let tok = s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_at(SimTime::from_secs(2), 2);
        s.cancel(tok);
        let mut seen = Vec::new();
        s.run_until(&mut seen, SimTime::from_hours(1), |_, seen, _, n| seen.push(n));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn scheduled_and_cancelled_counters_track_every_lane() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_after(SimDuration::from_secs(2), 2);
        let tok = s.schedule_front(SimTime::from_secs(3), 3);
        s.schedule_monotone(SimTime::from_secs(4), 4);
        assert_eq!(s.scheduled(), 4);
        assert_eq!(s.pending(), 4, "monotone-lane events count as pending");
        assert_eq!(s.cancelled(), 0);
        s.cancel(tok);
        assert_eq!(s.cancelled(), 1);
        let mut world = ();
        s.run_until(&mut world, SimTime::from_hours(1), |_, _, _, _| {});
        assert_eq!(s.delivered(), 3);
        // scheduled = delivered + cancelled + pending-at-horizon (0 here).
        assert_eq!(s.scheduled(), s.delivered() + s.cancelled());
    }
}
