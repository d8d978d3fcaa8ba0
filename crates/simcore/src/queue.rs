//! Pending-event queue with stable FIFO ordering among simultaneous events.
//!
//! Determinism requirement: two events scheduled for the same instant must be
//! delivered in the order they were scheduled, on every run. Every entry
//! therefore carries a monotonically increasing sequence number used as a
//! tie-breaker.
//!
//! Entries additionally carry a two-value *lane*: [`EventQueue::push_front`]
//! places an event in the front lane, delivered before every normal-lane
//! event at the same instant regardless of insertion order (within each
//! lane, FIFO still holds). Streaming drivers need this to schedule trace
//! arrivals one at a time while reproducing the delivery order of a run
//! that pre-scheduled all arrivals first (and therefore gave them the
//! lowest sequence numbers). Lane and sequence pack into one `u64` key
//! (`lane << 63 | seq`), so the total order is a plain `(time, key)`
//! comparison.
//!
//! Entries are 24-byte `(time, key, slot)` records in a `BinaryHeap`; event
//! payloads live in a slab indexed by `slot`, so sift operations move small
//! Copy records regardless of the event type's size.
//!
//! Cancellation is O(1) and eager about payloads: [`EventQueue::cancel`]
//! drops the event payload immediately and bumps the slot's generation so
//! the heap entry is recognized as stale and *purged* when it surfaces
//! (pop or peek). Nothing accumulates for the lifetime of the run — the
//! historical implementation kept every cancelled-but-unpopped sequence
//! number in a `HashSet` forever (and hashed on every pop); the slab
//! generation check replaces the per-pop hashing, and
//! [`EventQueue::cancelled_purged`] plus a drain-time debug assertion
//! prove every cancelled entry is reaped.
//!
//! Beside the heap sits a *monotone lane*: a FIFO of `(time, key, event)`
//! for events whose schedule times never decrease, such as a fixed-period
//! tick that always reschedules itself at `now + period`. Its keys come
//! from the same sequence counter and carry the normal-lane bit, so a lane
//! entry ranks exactly where the same event would rank in the heap.
//! Because both times and keys only grow along the FIFO, it stays sorted
//! with O(1) push and pop; [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] deliver whichever of the two heads ranks
//! lower by `(time, key)`, which is the order a heap-only queue would
//! give. [`EventQueue::push_monotone`] panics on an out-of-order push.
//! Lane events carry no token and cannot be cancelled.
//!
//! A bounded event loop pops through [`EventQueue::pop_until`]: one
//! heap-head/lane-head comparison per delivered event decides both which
//! head goes next and whether it is still inside the horizon, where a
//! `peek_time` followed by `pop` would compare the heads twice.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    generation: u32,
}

/// Delivery lane: front-lane entries beat normal-lane entries scheduled for
/// the same instant.
const LANE_FRONT: u8 = 0;
const LANE_NORMAL: u8 = 1;

/// A scheduled heap entry: 24 bytes, `Copy`, payload-free
/// (the event itself lives in the slab at `slot`). `key` packs
/// `(lane << 63) | seq`, so ascending `(time, key)` is exactly the
/// `(time, lane, seq)` delivery order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    key: u64,
    slot: u32,
    generation: u32,
}

impl Entry {
    #[inline]
    fn rank(&self) -> (SimTime, u64) {
        (self.time, self.key)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // Reversed: BinaryHeap is a max-heap, we want the earliest
    // (time, key) out first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// One slab cell: the event payload while scheduled, plus a generation
/// stamp that invalidates stale tokens and heap entries in O(1).
struct Slot<E> {
    generation: u32,
    event: Option<E>,
}

/// Priority queue of simulation events ordered by `(time, lane, insertion
/// order)` (see the module docs).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// The monotone lane, ascending in `(time, key)` front to back.
    lane: VecDeque<(SimTime, u64, E)>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Scheduled − delivered − cancelled: the deliverable entries.
    live: usize,
    /// Cancelled entries whose stale heap entry has not surfaced yet.
    cancelled_unpurged: usize,
    /// Stale entries reaped so far (see [`EventQueue::cancelled_purged`]).
    cancelled_purged: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            cancelled_unpurged: 0,
            cancelled_purged: 0,
        }
    }

    /// Schedules `event` at `time`. Returns a token usable with [`cancel`].
    ///
    /// [`cancel`]: EventQueue::cancel
    pub fn push(&mut self, time: SimTime, event: E) -> EventToken {
        self.push_lane(time, LANE_NORMAL, event)
    }

    /// Schedules `event` at `time` in the front lane: among entries at the
    /// same instant it is delivered before every [`push`]ed entry, however
    /// early that entry was scheduled. Multiple front-lane entries at one
    /// instant stay FIFO among themselves.
    ///
    /// [`push`]: EventQueue::push
    pub fn push_front(&mut self, time: SimTime, event: E) -> EventToken {
        self.push_lane(time, LANE_FRONT, event)
    }

    /// Schedules `event` at `time` in the monotone lane. It ranks exactly
    /// as a [`push`] at the same moment would, but costs an O(1) FIFO
    /// append instead of a heap sift. The event cannot be cancelled.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the lane's last entry: the FIFO is
    /// only sorted while its times never decrease.
    ///
    /// [`push`]: EventQueue::push
    pub fn push_monotone(&mut self, time: SimTime, event: E) {
        if let Some(&(tail, _, _)) = self.lane.back() {
            assert!(time >= tail, "monotone lane push at {time} before its tail at {tail}");
        }
        let key = self.next_key(LANE_NORMAL);
        self.lane.push_back((time, key, event));
        self.live += 1;
    }

    /// Draws the next sequence number and packs it with `lane` into a key.
    #[inline]
    fn next_key(&mut self, lane: u8) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << 63, "sequence space exhausted");
        ((lane as u64) << 63) | seq
    }

    fn push_lane(&mut self, time: SimTime, lane: u8, event: E) -> EventToken {
        let key = self.next_key(lane);
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
        self.heap.push(Entry { time, key, slot, generation });
        self.live += 1;
        EventToken { slot, generation }
    }

    /// Cancels a previously scheduled event. Cancelling an already-delivered
    /// or already-cancelled event is a no-op (the token's generation no
    /// longer matches). The payload is dropped immediately; the stale
    /// heap entry is purged when it next surfaces in [`pop`] or
    /// [`peek_time`], so no dead state outlives the drain.
    ///
    /// [`pop`]: EventQueue::pop
    /// [`peek_time`]: EventQueue::peek_time
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

    /// Reaps one stale heap entry: frees its slab slot and counts the
    /// purge.
    #[inline]
    fn purge_stale(&mut self, entry: Entry) {
        self.free.push(entry.slot);
        self.cancelled_unpurged -= 1;
        self.cancelled_purged += 1;
    }

    /// Rank of the earliest live heap entry, purging stale heads on the way.
    #[inline]
    fn heap_head(&mut self) -> Option<(SimTime, u64)> {
        while let Some(entry) = self.heap.peek().copied() {
            if self.slots[entry.slot as usize].generation == entry.generation {
                return Some(entry.rank());
            }
            self.heap.pop();
            self.purge_stale(entry);
        }
        None
    }

    /// Removes and returns the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_millis(u64::MAX))
    }

    /// Removes and returns the earliest non-cancelled event if it is due at
    /// or before `end`; a later event stays queued. Equivalent to
    /// `peek_time` followed by `pop`, with one head comparison instead of
    /// two.
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let heap = self.heap_head();
        match self.lane.front() {
            Some(&(time, key, _)) if heap.is_none_or(|h| (time, key) < h) => {
                if time > end {
                    return None;
                }
                let (time, _, event) = self.lane.pop_front().expect("lane head exists");
                self.live -= 1;
                Some((time, event))
            }
            _ => match heap {
                Some((time, _)) if time <= end => {
                    let entry = self.heap.pop().expect("heap head exists");
                    let cell = &mut self.slots[entry.slot as usize];
                    let event = cell.event.take().expect("live slot holds its event");
                    cell.generation = cell.generation.wrapping_add(1);
                    self.free.push(entry.slot);
                    self.live -= 1;
                    Some((entry.time, event))
                }
                Some(_) => None,
                None => {
                    // A drained queue must have reaped every cancellation —
                    // the guarantee that long horizons accumulate no dead
                    // state.
                    debug_assert_eq!(
                        self.cancelled_unpurged, 0,
                        "drained queue left cancelled entries unpurged"
                    );
                    None
                }
            },
        }
    }

    /// Time of the earliest pending (non-cancelled) event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let lane = self.lane.front().map(|&(time, key, _)| (time, key));
        self.heap_head().into_iter().chain(lane).min().map(|(time, _)| time)
    }

    /// Number of deliverable (scheduled, not delivered, not cancelled)
    /// events, heap and monotone lane together.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no deliverable event remains.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stale (cancelled-then-surfaced) heap entries reaped so far —
    /// observability for the no-dead-state guarantee; a fully drained queue
    /// has purged exactly as many entries as were cancelled before
    /// delivery.
    pub fn cancelled_purged(&self) -> u64 {
        self.cancelled_purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "b");
        q.push(t(1), "a");
        q.push(t(9), "c");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(5), "b")));
        assert_eq!(q.pop(), Some((t(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn front_lane_beats_simultaneous_normal_entries() {
        let mut q = EventQueue::new();
        q.push(t(5), "normal-early");
        q.push(t(5), "normal-late");
        // Scheduled last, still delivered first at the shared instant.
        q.push_front(t(5), "front-a");
        q.push_front(t(5), "front-b");
        q.push(t(1), "earlier-time");
        assert_eq!(q.pop(), Some((t(1), "earlier-time")));
        assert_eq!(q.pop(), Some((t(5), "front-a")));
        assert_eq!(q.pop(), Some((t(5), "front-b")));
        assert_eq!(q.pop(), Some((t(5), "normal-early")));
        assert_eq!(q.pop(), Some((t(5), "normal-late")));
    }

    #[test]
    fn monotone_lane_ranks_by_schedule_order_against_the_heap() {
        let mut q = EventQueue::new();
        q.push(t(5), "heap-before");
        q.push_monotone(t(5), "lane");
        q.push(t(5), "heap-after");
        q.push_front(t(5), "front");
        q.push_monotone(t(6), "lane-later");
        q.push(t(1), "heap-earliest");
        assert_eq!(q.len(), 6, "lane entries count as pending");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), "heap-earliest")));
        // The front lane beats a simultaneous monotone-lane event.
        assert_eq!(q.pop(), Some((t(5), "front")));
        assert_eq!(q.pop(), Some((t(5), "heap-before")));
        // A lane event beats a later-scheduled simultaneous heap event.
        assert_eq!(q.pop(), Some((t(5), "lane")));
        assert_eq!(q.pop(), Some((t(5), "heap-after")));
        assert_eq!(q.peek_time(), Some(t(6)));
        assert_eq!(q.pop(), Some((t(6), "lane-later")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "before its tail")]
    fn out_of_order_monotone_push_panics() {
        let mut q = EventQueue::new();
        q.push_monotone(t(5), 0u8);
        q.push_monotone(t(4), 1u8);
    }

    #[test]
    fn cancellation_skips_entry() {
        let mut q = EventQueue::new();
        let tok = q.push(t(1), "dead");
        q.push(t(2), "alive");
        q.cancel(tok);
        assert_eq!(q.pop(), Some((t(2), "alive")));
        assert_eq!(q.pop(), None);
        // The drain purged the stale entry (and the debug assertion inside
        // pop verified nothing was left behind).
        assert_eq!(q.cancelled_purged(), 1);
    }

    #[test]
    fn cancel_twice_and_cancel_delivered_are_noops() {
        let mut q = EventQueue::new();
        let tok = q.push(t(1), 1u8);
        assert_eq!(q.pop(), Some((t(1), 1)));
        q.cancel(tok); // already delivered
        q.push(t(2), 2);
        assert_eq!(q.pop(), Some((t(2), 2)));
        let tok2 = q.push(t(3), 3);
        q.cancel(tok2);
        q.cancel(tok2); // already cancelled
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let tok1 = q.push(t(1), 1u8);
        let tok2 = q.push(t(2), 2u8);
        q.push(t(3), 3u8);
        q.cancel(tok1);
        q.cancel(tok2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_purged(), 2);
    }

    #[test]
    fn len_accounts_for_pending_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u8);
        q.push(t(2), 2u8);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_reused_and_tokens_stay_unique() {
        let mut q = EventQueue::new();
        // Schedule/deliver repeatedly: the slab must not grow past the peak
        // occupancy, and recycled slots must not resurrect old tokens.
        let mut stale: Vec<EventToken> = Vec::new();
        for round in 0..50u64 {
            let tok = q.push(t(round), round);
            assert_eq!(q.pop(), Some((t(round), round)));
            stale.push(tok);
            for s in &stale {
                q.cancel(*s); // all no-ops: delivered long ago
            }
        }
        assert_eq!(q.slots.len(), 1, "one live event at a time needs one slot");
        assert_eq!(q.cancelled_purged(), 0);
    }
}
