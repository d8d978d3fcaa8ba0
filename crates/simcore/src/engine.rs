//! The simulation driver: a clock plus the pending events.
//!
//! The engine is deliberately minimal (in the spirit of smoltcp's
//! "simplicity and robustness" design goals): the application owns its world
//! state and defines one event enum; the engine owns time. Handlers receive
//! `&mut Scheduler<E>` so they can schedule follow-up events, which sidesteps
//! the usual borrow-checker fights of callback-based DES designs without any
//! `Rc<RefCell>` or trait-object machinery.
//!
//! Pending events sit in one of two kinds of store, and every entry in
//! either carries a `(time, lane, seq)` rank (see the [`queue`](crate::queue)
//! module for the order and the entry layout):
//!
//! * a binary heap of ranked entries with their payloads in a slab, for
//!   events scheduled in any time order with [`Scheduler::schedule_at`].
//!   Cancellation is O(1) and eager about payloads: [`Scheduler::cancel`]
//!   drops the payload immediately and bumps the slot's generation, so the
//!   heap entry is recognized as stale and *purged* when it surfaces (pop
//!   or peek). Nothing dead accumulates for the lifetime of the run; a
//!   drain-time debug assertion proves every cancelled entry is reaped.
//! * FIFO *lanes* of `(time, key, event)` for event streams whose schedule
//!   times never decrease: the front lane ([`Scheduler::schedule_front`])
//!   and [`MONOTONE_LANES`] monotone lanes
//!   ([`Scheduler::schedule_monotone`]), such as a fixed-period tick that
//!   always reschedules itself at `now + period`. Every push draws its key
//!   from the same sequence counter as a heap push, so a lane entry ranks
//!   exactly where the same event would rank in the heap. Because both
//!   times and keys only grow along a FIFO, each lane stays sorted with
//!   O(1) push and pop; a push before its lane's tail panics. Lane events
//!   carry no token and cannot be cancelled.
//!
//! The scheduler caches each lane's head rank and the lowest of them, so a
//! pop compares one heap head with one cached lane head, whatever the
//! number of lanes, and delivers whichever ranks lower: the order a
//! heap-only queue would give. Only a lane push onto an empty lane or a
//! lane pop touches the cache.
//!
//! [`Scheduler::run_until`] pops once per delivered event: one
//! heap-head/lane-head comparison decides both which head goes next and
//! whether it is still inside the horizon, where a `peek_time` followed by a
//! pop would compare the heads twice.
//!
//! The work tallies are read off this state rather than kept beside it: the
//! sequence counter is the number of events ever scheduled, and the events
//! delivered are those scheduled minus the pending and the cancelled ones.

use crate::queue::{pack, Entry, EventToken, Slot, LANE_FRONT, LANE_NORMAL};
use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// The number of monotone lanes beside the front lane; the `lane` argument
/// of [`Scheduler::schedule_monotone`] is below it.
pub const MONOTONE_LANES: usize = 2;

/// FIFO lanes in all: the front lane at index 0, monotone lane `i` at
/// `1 + i`.
const FIFOS: usize = 1 + MONOTONE_LANES;

/// Packed rank of an empty lane (or heap): above every real rank, since a
/// key never reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// Clock plus pending events for one simulation run, delivered in
/// `(time, lane, insertion order)` order (see the module docs).
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The FIFO lanes, each ascending in `(time, key)` front to back.
    fifos: [VecDeque<(SimTime, u64, E)>; FIFOS],
    /// Packed rank of each FIFO's head, [`EMPTY`] for an empty FIFO.
    heads: [u128; FIFOS],
    /// The lowest of `heads` and the FIFO that holds it.
    best: (u128, usize),
    /// The next sequence number: the count of events ever scheduled.
    next_seq: u64,
    /// Scheduled − delivered − cancelled: the deliverable entries.
    live: usize,
    /// Cancelled entries whose stale heap entry has not surfaced yet.
    cancelled_unpurged: usize,
    /// Stale entries reaped so far.
    cancelled_purged: u64,
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
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            fifos: std::array::from_fn(|_| VecDeque::new()),
            heads: [EMPTY; FIFOS],
            best: (EMPTY, 0),
            next_seq: 0,
            live: 0,
            cancelled_unpurged: 0,
            cancelled_purged: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.next_seq - self.live as u64 - self.cancelled()
    }

    /// Total number of events ever scheduled, on the heap and the lanes
    /// together (delivered, cancelled and still-pending alike). A pure
    /// function of the delivered sequence, so it is safe to report in
    /// deterministic telemetry; moving an event kind to a lane leaves it
    /// unchanged.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events removed by [`cancel`](Scheduler::cancel)
    /// before delivery. Cancelling a delivered or already-cancelled token
    /// removes nothing and is not counted.
    pub fn cancelled(&self) -> u64 {
        self.cancelled_purged + self.cancelled_unpurged as u64
    }

    /// Number of pending events, on the heap and the lanes together.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Schedules `event` at the absolute time `at`. Returns a token usable
    /// with [`cancel`](Scheduler::cancel).
    ///
    /// # Panics
    /// Panics if `at` is in the past — delivering events out of causal order
    /// would silently corrupt every downstream statistic, so this is a
    /// programming error worth failing loudly on.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        self.assert_not_past(at);
        let key = self.next_key(LANE_NORMAL);
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.slots[s as usize];
                debug_assert!(cell.event.is_none(), "free slot must be empty");
                cell.event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot { generation: 0, event: Some(event) });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(Entry { time: at, key, slot, generation });
        self.live += 1;
        EventToken { slot, generation }
    }

    /// Schedules `event` at `at` in the *front lane*: among events at the
    /// same instant it is delivered before every [`schedule_at`] and
    /// [`schedule_monotone`] event, regardless of insertion order
    /// (front-lane events stay FIFO among themselves). Streaming drivers
    /// use this to feed trace arrivals one at a time while reproducing the
    /// delivery order of a run that pre-scheduled every arrival up front
    /// (arrivals then held the lowest sequence numbers, so they always beat
    /// simultaneous timers). The lane is an O(1) FIFO, so its times must
    /// not decrease, and it returns no token: front-lane events cannot be
    /// cancelled.
    ///
    /// # Panics
    /// Panics if `at` is before the current time or before the front
    /// lane's last pending time.
    ///
    /// [`schedule_at`]: Scheduler::schedule_at
    /// [`schedule_monotone`]: Scheduler::schedule_monotone
    pub fn schedule_front(&mut self, at: SimTime, event: E) {
        self.push_fifo(0, LANE_FRONT, at, event);
    }

    /// Schedules `event` at `at` in monotone lane `lane`, an O(1) FIFO
    /// beside the heap for one stream of events whose schedule times never
    /// decrease (e.g. a fixed-period tick rescheduled at `now + period`).
    /// The event is delivered exactly where a [`schedule_at`] at the same
    /// moment would deliver it. It returns no token: lane events cannot be
    /// cancelled.
    ///
    /// # Panics
    /// Panics if `lane` is not below [`MONOTONE_LANES`], or if `at` is
    /// before the current time or before the lane's last pending time.
    ///
    /// [`schedule_at`]: Scheduler::schedule_at
    pub fn schedule_monotone(&mut self, lane: usize, at: SimTime, event: E) {
        assert!(lane < MONOTONE_LANES, "monotone lane {lane} of {MONOTONE_LANES}");
        self.push_fifo(1 + lane, LANE_NORMAL, at, event);
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(at >= self.now, "scheduled event at {at} before current time {}", self.now);
    }

    /// Draws the next sequence number and packs it with `lane` into a key.
    #[inline]
    fn next_key(&mut self, lane: u8) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << 63, "sequence space exhausted");
        ((lane as u64) << 63) | seq
    }

    /// Appends `event` to FIFO `fifo` with a key in `lane`, keeping the
    /// head caches current.
    fn push_fifo(&mut self, fifo: usize, lane: u8, at: SimTime, event: E) {
        self.assert_not_past(at);
        if let Some(&(tail, _, _)) = self.fifos[fifo].back() {
            assert!(at >= tail, "lane push at {at} before its tail at {tail}");
        }
        let key = self.next_key(lane);
        if self.fifos[fifo].is_empty() {
            let rank = pack(at, key);
            self.heads[fifo] = rank;
            if rank < self.best.0 {
                self.best = (rank, fifo);
            }
        }
        self.fifos[fifo].push_back((at, key, event));
        self.live += 1;
    }

    /// Pops the head of FIFO `fifo` and refreshes the head caches.
    #[inline]
    fn pop_fifo(&mut self, fifo: usize) -> (SimTime, E) {
        let (time, _, event) = self.fifos[fifo].pop_front().expect("lane head exists");
        self.heads[fifo] = self.fifos[fifo].front().map_or(EMPTY, |&(t, key, _)| pack(t, key));
        self.best = (self.heads[0], 0);
        for k in 1..FIFOS {
            if self.heads[k] < self.best.0 {
                self.best = (self.heads[k], k);
            }
        }
        (time, event)
    }

    /// Cancels a pending heap event. Cancelling an already-delivered or
    /// already-cancelled event is a no-op (the token's generation no longer
    /// matches). The payload is dropped immediately; the stale heap entry
    /// is purged when it next surfaces in a pop or [`peek_time`], so no
    /// dead state outlives the drain.
    ///
    /// [`peek_time`]: Scheduler::peek_time
    pub fn cancel(&mut self, token: EventToken) {
        if let Some(cell) = self.slots.get_mut(token.slot as usize) {
            if cell.generation == token.generation && cell.event.is_some() {
                cell.event = None;
                cell.generation = cell.generation.wrapping_add(1);
                self.live -= 1;
                self.cancelled_unpurged += 1;
            }
        }
    }

    /// Packed rank of the earliest live heap entry ([`EMPTY`] when there
    /// is none), purging stale heads on the way.
    #[inline]
    fn heap_head(&mut self) -> u128 {
        while let Some(entry) = self.heap.peek().copied() {
            if self.slots[entry.slot as usize].generation == entry.generation {
                return pack(entry.time, entry.key);
            }
            self.heap.pop();
            self.free.push(entry.slot);
            self.cancelled_unpurged -= 1;
            self.cancelled_purged += 1;
        }
        EMPTY
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        self.next_event_until(SimTime::from_millis(u64::MAX))
    }

    /// [`next_event`](Scheduler::next_event), for an event due at or before
    /// `end` only; a later event stays queued.
    fn next_event_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let heap = self.heap_head();
        let (lane, fifo) = self.best;
        let (t, e) = if lane < heap {
            if unpack_time(lane) > end {
                return None;
            }
            self.pop_fifo(fifo)
        } else if heap != EMPTY {
            if unpack_time(heap) > end {
                return None;
            }
            let entry = self.heap.pop().expect("heap head exists");
            let cell = &mut self.slots[entry.slot as usize];
            let event = cell.event.take().expect("live slot holds its event");
            cell.generation = cell.generation.wrapping_add(1);
            self.free.push(entry.slot);
            (entry.time, event)
        } else {
            // A drained queue must have reaped every cancellation — the
            // guarantee that long horizons accumulate no dead state.
            debug_assert_eq!(
                self.cancelled_unpurged, 0,
                "drained queue left cancelled entries unpurged"
            );
            return None;
        };
        debug_assert!(t >= self.now);
        self.live -= 1;
        self.now = t;
        Some((t, e))
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let next = self.heap_head().min(self.best.0);
        (next != EMPTY).then(|| unpack_time(next))
    }

    /// Runs the event loop until the queue drains or the clock passes `end`,
    /// popping once per delivered event.
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

/// The time half of a packed rank.
#[inline]
fn unpack_time(rank: u128) -> SimTime {
    SimTime::from_millis((rank >> 64) as u64)
}

#[cfg(test)]
impl<E> Scheduler<E> {
    /// Stale (cancelled-then-surfaced) heap entries reaped so far.
    pub(crate) fn cancelled_purged(&self) -> u64 {
        self.cancelled_purged
    }

    /// Slab cells ever allocated, live and free.
    pub(crate) fn slab_len(&self) -> usize {
        self.slots.len()
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
        s.schedule_at(SimTime::from_secs(1), Ev::Tick(0));
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
        s.schedule_monotone(0, SimTime::from_secs(1), Ev::Stop);
    }

    #[test]
    fn run_until_respects_horizon_and_allows_rescheduling() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 0);
        let mut seen = Vec::new();
        s.run_until(&mut seen, SimTime::from_secs(5), |s, seen, t, n| {
            seen.push((t.as_secs(), n));
            // Periodic self-rescheduling, the common pattern for samplers.
            s.schedule_at(t + crate::SimDuration::from_secs(2), n + 1);
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
        let tok = s.schedule_at(SimTime::from_secs(2), 2);
        s.schedule_front(SimTime::from_secs(3), 3);
        s.schedule_monotone(0, SimTime::from_secs(4), 4);
        s.schedule_monotone(1, SimTime::from_secs(4), 5);
        assert_eq!(s.scheduled(), 5);
        assert_eq!(s.pending(), 5, "lane events count as pending");
        assert_eq!(s.cancelled(), 0);
        s.cancel(tok);
        assert_eq!(s.cancelled(), 1);
        let mut world = ();
        s.run_until(&mut world, SimTime::from_hours(1), |_, _, _, _| {});
        assert_eq!(s.delivered(), 4);
        // scheduled = delivered + cancelled + pending-at-horizon (0 here).
        assert_eq!(s.scheduled(), s.delivered() + s.cancelled());
    }
}
