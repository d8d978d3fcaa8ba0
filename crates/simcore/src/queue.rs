//! The pending-event records a [`Scheduler`] keeps, and the order it
//! delivers them in.
//!
//! Determinism requirement: two events scheduled for the same instant must be
//! delivered in the order they were scheduled, on every run. Every entry
//! therefore carries a monotonically increasing sequence number used as a
//! tie-breaker.
//!
//! Entries additionally carry a two-value *lane*:
//! [`Scheduler::schedule_front`] places an event in the front lane,
//! delivered before every other event at the same instant regardless of
//! insertion order (within each lane, FIFO still holds). Lane and
//! sequence pack into one `u64` key (`lane << 63 | seq`), so the total
//! order is a plain `(time, key)` comparison. Heap entries and monotone-lane
//! entries ([`Scheduler::schedule_monotone`]) carry the normal-lane bit
//! alike; only the front lane's FIFO holds front-lane keys.
//!
//! Heap entries are 24-byte `(time, key, slot)` `Entry` records; event
//! payloads live in a slab of `Slot`s indexed by `slot`, so sift
//! operations move small Copy records regardless of the event type's size.
//! A slot's generation stamp makes cancellation O(1): [`Scheduler::cancel`]
//! drops the payload and bumps the generation, and the stale heap entry is
//! purged when it surfaces. FIFO-lane entries hold their payload inline and
//! need no slot, since they cannot be cancelled.
//!
//! [`Scheduler`]: crate::Scheduler
//! [`Scheduler::schedule_front`]: crate::Scheduler::schedule_front
//! [`Scheduler::schedule_monotone`]: crate::Scheduler::schedule_monotone
//! [`Scheduler::cancel`]: crate::Scheduler::cancel

use crate::time::SimTime;
use std::cmp::Ordering;

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// Delivery lane: front-lane entries beat normal-lane entries scheduled for
/// the same instant.
pub(crate) const LANE_FRONT: u8 = 0;
pub(crate) const LANE_NORMAL: u8 = 1;

/// A scheduled heap entry: 24 bytes, `Copy`, payload-free
/// (the event itself lives in the slab at `slot`). `key` packs
/// `(lane << 63) | seq`, so ascending `(time, key)` is exactly the
/// `(time, lane, seq)` delivery order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) time: SimTime,
    pub(crate) key: u64,
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl Entry {
    #[inline]
    pub(crate) fn rank(&self) -> (SimTime, u64) {
        (self.time, self.key)
    }
}

/// `(time, key)` packed into one `u128`, so ranks compare in one
/// branch-free step: ascending packed ranks are the delivery order.
#[inline]
pub(crate) fn pack(time: SimTime, key: u64) -> u128 {
    ((time.as_millis() as u128) << 64) | key as u128
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
pub(crate) struct Slot<E> {
    pub(crate) generation: u32,
    pub(crate) event: Option<E>,
}

#[cfg(test)]
mod tests {
    use crate::engine::MONOTONE_LANES;
    use crate::{EventToken, Scheduler, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule_at(t(5), "b");
        q.schedule_at(t(1), "a");
        q.schedule_at(t(9), "c");
        assert_eq!(q.next_event(), Some((t(1), "a")));
        assert_eq!(q.next_event(), Some((t(5), "b")));
        assert_eq!(q.next_event(), Some((t(9), "c")));
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = Scheduler::new();
        for i in 0..100 {
            q.schedule_at(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.next_event(), Some((t(7), i)));
        }
    }

    #[test]
    fn front_lane_beats_simultaneous_normal_entries() {
        let mut q = Scheduler::new();
        q.schedule_at(t(5), "normal-early");
        q.schedule_at(t(5), "normal-late");
        // Scheduled last, still delivered first at the shared instant.
        q.schedule_front(t(5), "front-a");
        q.schedule_front(t(5), "front-b");
        q.schedule_at(t(1), "earlier-time");
        assert_eq!(q.next_event(), Some((t(1), "earlier-time")));
        assert_eq!(q.next_event(), Some((t(5), "front-a")));
        assert_eq!(q.next_event(), Some((t(5), "front-b")));
        assert_eq!(q.next_event(), Some((t(5), "normal-early")));
        assert_eq!(q.next_event(), Some((t(5), "normal-late")));
    }

    #[test]
    fn monotone_lane_ranks_by_schedule_order_against_the_heap() {
        let mut q = Scheduler::new();
        q.schedule_at(t(5), "heap-before");
        q.schedule_monotone(0, t(5), "lane");
        q.schedule_at(t(5), "heap-after");
        q.schedule_front(t(5), "front");
        q.schedule_monotone(1, t(5), "other-lane");
        q.schedule_monotone(0, t(6), "lane-later");
        q.schedule_at(t(1), "heap-earliest");
        assert_eq!(q.pending(), 7, "lane entries count as pending");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.next_event(), Some((t(1), "heap-earliest")));
        // The front lane beats a simultaneous monotone-lane event.
        assert_eq!(q.next_event(), Some((t(5), "front")));
        assert_eq!(q.next_event(), Some((t(5), "heap-before")));
        // A lane event beats a later-scheduled simultaneous heap event,
        // and the two monotone lanes rank by schedule order too.
        assert_eq!(q.next_event(), Some((t(5), "lane")));
        assert_eq!(q.next_event(), Some((t(5), "heap-after")));
        assert_eq!(q.next_event(), Some((t(5), "other-lane")));
        assert_eq!(q.peek_time(), Some(t(6)));
        assert_eq!(q.next_event(), Some((t(6), "lane-later")));
        assert_eq!(q.next_event(), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "before its tail")]
    fn out_of_order_monotone_push_panics() {
        let mut q = Scheduler::new();
        q.schedule_monotone(0, t(5), 0u8);
        q.schedule_monotone(0, t(4), 1u8);
    }

    #[test]
    #[should_panic(expected = "before its tail")]
    fn out_of_order_push_on_the_second_monotone_lane_panics() {
        let mut q = Scheduler::new();
        q.schedule_monotone(0, t(1), 0u8);
        q.schedule_monotone(1, t(5), 1u8);
        q.schedule_monotone(1, t(4), 2u8);
    }

    #[test]
    #[should_panic(expected = "before its tail")]
    fn out_of_order_front_push_panics() {
        let mut q = Scheduler::new();
        q.schedule_front(t(5), 0u8);
        q.schedule_front(t(4), 1u8);
    }

    #[test]
    fn lanes_are_ordered_only_against_their_own_tail() {
        let mut q = Scheduler::new();
        q.schedule_monotone(0, t(9), "late-lane");
        // Each lane checks only its own tail: earlier pushes on the other
        // lanes are fine, and an empty lane takes any time from now on.
        q.schedule_monotone(1, t(3), "early-lane");
        q.schedule_front(t(2), "front");
        assert_eq!(q.next_event(), Some((t(2), "front")));
        q.schedule_front(t(2), "front-again");
        assert_eq!(q.next_event(), Some((t(2), "front-again")));
        assert_eq!(q.next_event(), Some((t(3), "early-lane")));
        assert_eq!(q.next_event(), Some((t(9), "late-lane")));
    }

    #[test]
    #[should_panic(expected = "monotone lane 2 of 2")]
    fn monotone_lane_past_the_last_panics() {
        let mut q = Scheduler::new();
        q.schedule_monotone(MONOTONE_LANES, t(1), 0u8);
    }

    #[test]
    fn cancellation_skips_entry() {
        let mut q = Scheduler::new();
        let tok = q.schedule_at(t(1), "dead");
        q.schedule_at(t(2), "alive");
        q.cancel(tok);
        assert_eq!(q.next_event(), Some((t(2), "alive")));
        assert_eq!(q.next_event(), None);
        // The drain purged the stale entry (and the debug assertion inside
        // the pop verified nothing was left behind).
        assert_eq!(q.cancelled_purged(), 1);
    }

    #[test]
    fn cancel_twice_and_cancel_delivered_are_noops() {
        let mut q = Scheduler::new();
        let tok = q.schedule_at(t(1), 1u8);
        assert_eq!(q.next_event(), Some((t(1), 1)));
        q.cancel(tok); // already delivered
        q.schedule_at(t(2), 2);
        assert_eq!(q.next_event(), Some((t(2), 2)));
        let tok2 = q.schedule_at(t(3), 3);
        q.cancel(tok2);
        q.cancel(tok2); // already cancelled
        assert_eq!(q.pending(), 0);
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut q = Scheduler::new();
        let tok1 = q.schedule_at(t(1), 1u8);
        let tok2 = q.schedule_at(t(2), 2u8);
        q.schedule_at(t(3), 3u8);
        q.cancel(tok1);
        q.cancel(tok2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.pending(), 1);
        assert_eq!(q.cancelled_purged(), 2);
    }

    #[test]
    fn len_accounts_for_pending_cancellations() {
        let mut q = Scheduler::new();
        let a = q.schedule_at(t(1), 1u8);
        q.schedule_at(t(2), 2u8);
        assert_eq!(q.pending(), 2);
        q.cancel(a);
        assert_eq!(q.pending(), 1);
        q.next_event();
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn slab_slots_are_reused_and_tokens_stay_unique() {
        let mut q = Scheduler::new();
        // Schedule/deliver repeatedly: the slab must not grow past the peak
        // occupancy, and recycled slots must not resurrect old tokens.
        let mut stale: Vec<EventToken> = Vec::new();
        for round in 0..50u64 {
            let tok = q.schedule_at(t(round), round);
            assert_eq!(q.next_event(), Some((t(round), round)));
            stale.push(tok);
            for s in &stale {
                q.cancel(*s); // all no-ops: delivered long ago
            }
        }
        assert_eq!(q.slab_len(), 1, "one live event at a time needs one slot");
        assert_eq!(q.cancelled_purged(), 0);
    }
}
