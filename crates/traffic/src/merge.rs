//! Packed binary-heap k-way merge: the merge core of [`crate::FlowStream`].
//!
//! A classic k-way merge keeps a `BinaryHeap` of `(key, lane)` pairs and
//! pays a pop and a push per merged element. [`PackedHeap`] keeps the same
//! heap but packs each entry into one `u64`: `key << shift | lane`, where
//! `shift` is the lane-index width. Because every lane index fits in
//! `shift` bits, the packed integer orders exactly like the pair
//! `(key, lane)` — one register compare per sift rung, and entries half the
//! size of a `(SimTime, usize)` pair. `cargo bench -p insomnia-bench --bench
//! streaming` measures it against the unpacked `BinaryHeap` merge
//! (`merge/binary_heap` vs `merge/packed_heap`).
//!
//! Ordering contract: lane `i` ranks by `(key, i)`, so equal keys resolve
//! to the lowest lane index — exactly the tie-break a *stable* sort by key
//! over lane-major input produces, which is what lets [`crate::FlowStream`]
//! reproduce the eager generator's stable flow sort flow-for-flow.

use insomnia_simcore::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Key for an exhausted lane: later than every real key.
/// [`PackedHeap::winner_key`] returning this means every lane is exhausted.
pub const EXHAUSTED: SimTime = SimTime::from_millis(u64::MAX);

/// Packed sentinel for an exhausted lane: compares after every real packed
/// entry.
const PACKED_EXHAUSTED: u64 = u64::MAX;

/// Min-heap over packed `(key, lane)` `u64` entries. Exhausted lanes are
/// simply absent (never re-pushed), so an empty heap means every lane has
/// drained. Keys must stay below `2^(64 − ⌈log₂ k⌉)` milliseconds
/// (debug-asserted) — a horizon of centuries even at 10⁸ lanes — so the
/// packed representation is exact.
///
/// [`PackedHeap::update`] is only valid for the *current winner* (it pops
/// the top and reinserts), which is exactly the only update a k-way merge
/// ever makes.
#[derive(Debug, Clone)]
pub struct PackedHeap {
    /// Min-heap of live packed entries (`Reverse` flips `BinaryHeap`'s
    /// max-order).
    heap: BinaryHeap<Reverse<u64>>,
    /// Lane-index mask (`k_pad − 1`, with `k_pad` the lane count rounded
    /// up to a power of two).
    mask: u64,
    /// Bit width of a lane index within a packed entry.
    shift: u32,
}

impl PackedHeap {
    /// Builds the heap over the given initial lane keys; [`EXHAUSTED`]
    /// lanes start absent. At least one lane is required.
    pub fn new(keys: &[SimTime]) -> PackedHeap {
        assert!(!keys.is_empty(), "a merge needs at least one lane");
        let k_pad = keys.len().next_power_of_two();
        let shift = k_pad.trailing_zeros();
        let heap = keys
            .iter()
            .enumerate()
            .filter(|&(_, &key)| key != EXHAUSTED)
            .map(|(i, &key)| Reverse(pack_entry(key, i as u32, shift)))
            .collect();
        PackedHeap { heap, mask: k_pad as u64 - 1, shift }
    }

    /// The current winning lane (lowest `(key, lane)` rank). Meaningful
    /// only while [`PackedHeap::winner_key`] is not [`EXHAUSTED`].
    #[inline]
    pub fn winner(&self) -> usize {
        self.heap.peek().map_or(0, |&Reverse(e)| (e & self.mask) as usize)
    }

    /// The winner's key; [`EXHAUSTED`] means every lane has drained.
    #[inline]
    pub fn winner_key(&self) -> SimTime {
        self.heap.peek().map_or(EXHAUSTED, |&Reverse(e)| unpack_key(e, self.shift))
    }

    /// Replaces the *current winner* `w`'s key: pops the top entry and
    /// reinserts it under `key`, or retires the lane on [`EXHAUSTED`].
    #[inline]
    pub fn update(&mut self, w: usize, key: SimTime) {
        debug_assert_eq!(w, self.winner(), "only the winner can be updated");
        self.heap.pop();
        if key != EXHAUSTED {
            self.heap.push(Reverse(pack_entry(key, w as u32, self.shift)));
        }
    }
}

/// Packs `(key, lane)` so that `u64` order equals the pair's lexicographic
/// order; [`EXHAUSTED`] maps to the all-ones sentinel.
#[inline]
fn pack_entry(key: SimTime, lane: u32, shift: u32) -> u64 {
    let ms = key.as_millis();
    if ms >= (PACKED_EXHAUSTED >> shift) {
        debug_assert_eq!(key, EXHAUSTED, "key overflows the packed-entry range");
        return PACKED_EXHAUSTED;
    }
    (ms << shift) | u64::from(lane)
}

/// Inverse of [`pack_entry`] for the key half.
#[inline]
fn unpack_key(packed: u64, shift: u32) -> SimTime {
    if packed == PACKED_EXHAUSTED {
        EXHAUSTED
    } else {
        SimTime::from_millis(packed >> shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drains the heap over per-lane sorted runs, feeding each lane's
    /// successor on every pop.
    fn drain(lanes: &[Vec<u64>]) -> Vec<(u64, usize)> {
        let mut pos = vec![0usize; lanes.len()];
        let keys: Vec<SimTime> =
            lanes.iter().map(|l| l.first().map_or(EXHAUSTED, |&ms| t(ms))).collect();
        let mut heap = PackedHeap::new(&keys);
        let mut out = Vec::new();
        while heap.winner_key() != EXHAUSTED {
            let w = heap.winner();
            out.push((lanes[w][pos[w]], w));
            pos[w] += 1;
            heap.update(w, lanes[w].get(pos[w]).map_or(EXHAUSTED, |&ms| t(ms)));
        }
        out
    }

    /// Reference: stable sort by key over lane-major order.
    fn stable_sort(lanes: &[Vec<u64>]) -> Vec<(u64, usize)> {
        let mut expect: Vec<(u64, usize)> = Vec::new();
        for (lane, run) in lanes.iter().enumerate() {
            expect.extend(run.iter().map(|&ms| (ms, lane)));
        }
        expect.sort_by_key(|&(ms, _)| ms);
        expect
    }

    #[test]
    fn merges_sorted_lanes_like_a_stable_sort() {
        let lanes = vec![vec![1, 4, 4, 9], vec![2, 4, 8], vec![], vec![0, 4, 10, 11, 12], vec![4]];
        assert_eq!(drain(&lanes), stable_sort(&lanes), "equal keys must pop in lane order");
    }

    #[test]
    fn single_lane_and_power_of_two_padding_work() {
        assert_eq!(drain(&[vec![3, 5, 7]]), vec![(3, 0), (5, 0), (7, 0)]);
        // 3 lanes pad to a 2-bit lane field; the unused index must never win.
        let merged = drain(&[vec![5], vec![1, 6], vec![2]]);
        assert_eq!(merged, vec![(1, 1), (2, 2), (5, 0), (6, 1)]);
    }

    #[test]
    fn all_lanes_exhausted_reports_exhausted_winner() {
        let heap = PackedHeap::new(&[EXHAUSTED, EXHAUSTED, EXHAUSTED]);
        assert_eq!(heap.winner_key(), EXHAUSTED);
    }

    #[test]
    fn heap_merges_random_lanes_like_a_stable_sort() {
        use insomnia_simcore::SimRng;
        let mut rng = SimRng::new(0x6d65_7267);
        for trial in 0..60 {
            // k spans 1..=512, so both narrow and wide merges (shards below
            // and above 256 clients) see randomized traffic; short lanes +
            // small key steps force heavy cross-lane ties (the tie-break is
            // the risky part).
            let k = 1 + rng.range_u64(0, 512) as usize;
            let lanes: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let n = rng.range_u64(0, 12) as usize;
                    let mut key = rng.range_u64(0, 8);
                    (0..n)
                        .map(|_| {
                            key += rng.range_u64(0, 3);
                            key
                        })
                        .collect()
                })
                .collect();
            assert_eq!(drain(&lanes), stable_sort(&lanes), "trial {trial}, k {k}");
        }
    }

    #[test]
    fn heap_backend_handles_empty_and_exhausted_lanes() {
        // Mixed live/empty lanes: empty lanes start absent and never win.
        let lanes = vec![vec![5], vec![], vec![1, 6], vec![2]];
        assert_eq!(drain(&lanes), vec![(1, 2), (2, 3), (5, 0), (6, 2)]);
    }

    #[test]
    fn long_single_lane_runs_hand_off_exactly() {
        // Lane 0 emits a long tight run while lane 1 waits far in the
        // future; the handoff at the end must still be exact.
        let lanes = vec![(0..1_000u64).collect::<Vec<_>>(), vec![1_000, 1_001]];
        let merged = drain(&lanes);
        assert_eq!(merged.len(), 1_002);
        assert!(merged[..1_000].iter().enumerate().all(|(i, &(ms, l))| ms == i as u64 && l == 0));
        assert_eq!(&merged[1_000..], &[(1_000, 1), (1_001, 1)]);
    }
}
