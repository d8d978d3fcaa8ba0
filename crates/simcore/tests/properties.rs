//! Property-based tests of the simulation engine's invariants.

use insomnia_simcore::{
    par_fold_grouped, Cdf, EventToken, OnlineTimeHist, QuantileSketch, Scheduler, SimDuration,
    SimRng, SimTime, TimeWeighted, Welford,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The historical pooled-sort quantile rule every exact answer must match.
fn exact_quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

const PROBE_QS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0];

/// The handler of the scheduler's `run_until` loops below: it records each
/// delivery and answers every fourth original event with a heap follow-up
/// 0–2 ms later, so events land exactly at the loop's `end` mid-run.
/// [`Model::run_until`] mirrors it.
fn record_and_follow(
    s: &mut Scheduler<usize>,
    out: &mut Vec<(SimTime, usize)>,
    t: SimTime,
    id: usize,
) {
    out.push((t, id));
    if let Some(dt) = follow_up(id) {
        s.schedule_at(t + dt, id + 1_000);
    }
}

/// The follow-up delay [`record_and_follow`] answers `id` with, if any.
fn follow_up(id: usize) -> Option<SimDuration> {
    (id < 1_000 && id.is_multiple_of(4)).then(|| SimDuration::from_millis(id as u64 % 3))
}

/// Lane bits of the model's keys: the front lane ranks before the heap and
/// the monotone lanes, which share one bit.
const FRONT: u8 = 0;
const NORMAL: u8 = 1;

/// An independent model of the scheduler's contract: pending events in a
/// `BTreeMap` keyed by `(time, lane bit, seq)`, one sequence counter for
/// every schedule call whatever its store, and cancellation as removal.
#[derive(Default)]
struct Model {
    now: SimTime,
    seq: u64,
    pending: BTreeMap<(SimTime, u8, u64), usize>,
    delivered: u64,
    cancelled: u64,
}

impl Model {
    /// Schedules `id` and returns its key (the model's cancel token).
    fn push(&mut self, at: SimTime, lane: u8, id: usize) -> (SimTime, u8, u64) {
        let key = (at, lane, self.seq);
        self.seq += 1;
        self.pending.insert(key, id);
        key
    }

    fn cancel(&mut self, key: (SimTime, u8, u64)) {
        if self.pending.remove(&key).is_some() {
            self.cancelled += 1;
        }
    }

    /// Delivers the lowest-ranked event if it is due at or before `end`.
    fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, usize)> {
        let (&key, _) = self.pending.first_key_value()?;
        if key.0 > end {
            return None;
        }
        let id = self.pending.remove(&key).expect("first key exists");
        self.now = key.0;
        self.delivered += 1;
        Some((key.0, id))
    }

    /// `Scheduler::run_until` with [`record_and_follow`] as the handler.
    fn run_until(&mut self, end: SimTime, out: &mut Vec<(SimTime, usize)>) {
        while let Some((t, id)) = self.pop_until(end) {
            out.push((t, id));
            if let Some(dt) = follow_up(id) {
                self.push(t + dt, NORMAL, id + 1_000);
            }
        }
        self.now = self.now.max(end);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(t, _, _), _)| t)
    }
}

/// One step of a random schedule against the scheduler and the model: a
/// heap push, a front-lane push, a push on monotone lane 0 or 1, a cancel
/// of any heap token ever issued (pending, delivered or cancelled), a
/// bounded `run_until`, or one pop. Lane pushes go to `tail + dt`, where
/// `tail` is the lane's last push or the clock if later, so each lane's
/// times never decrease (the generator constraint of the FIFO lanes).
/// Millisecond steps of 0..3 make ties between every store, and events
/// exactly at `end`, common.
struct Harness {
    s: Scheduler<usize>,
    model: Model,
    tokens: Vec<(EventToken, (SimTime, u8, u64))>,
    tails: [SimTime; 3],
    next_id: usize,
}

impl Harness {
    fn new() -> Self {
        Harness {
            s: Scheduler::new(),
            model: Model::default(),
            tokens: Vec::new(),
            tails: [SimTime::ZERO; 3],
            next_id: 0,
        }
    }

    fn step(&mut self, kind: u8, dt: u64, pick: u64) {
        let dt = SimDuration::from_millis(dt);
        let at = self.s.now() + dt;
        let id = self.next_id;
        match kind {
            0 => {
                let tok = self.s.schedule_at(at, id);
                self.tokens.push((tok, self.model.push(at, NORMAL, id)));
                self.next_id += 1;
            }
            1..=3 => {
                let lane = (kind - 1) as usize;
                let at = self.tails[lane].max(self.s.now()) + dt;
                self.tails[lane] = at;
                if lane == 0 {
                    self.s.schedule_front(at, id);
                    self.model.push(at, FRONT, id);
                } else {
                    self.s.schedule_monotone(lane - 1, at, id);
                    self.model.push(at, NORMAL, id);
                }
                self.next_id += 1;
            }
            4 if !self.tokens.is_empty() => {
                let (tok, key) = self.tokens[(pick % self.tokens.len() as u64) as usize];
                self.s.cancel(tok);
                self.model.cancel(key);
            }
            5 => {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                self.s.run_until(&mut got, at, record_and_follow);
                self.model.run_until(at, &mut want);
                prop_assert_eq!(got, want);
                prop_assert_eq!(self.s.now(), at, "the clock ends at `end`");
            }
            _ => {
                let far = SimTime::from_millis(u64::MAX);
                prop_assert_eq!(self.s.next_event(), self.model.pop_until(far));
            }
        }
        self.check();
    }

    /// The scheduler's clock, next time and tallies against the model's.
    fn check(&mut self) {
        prop_assert_eq!(self.s.now(), self.model.now);
        prop_assert_eq!(self.s.peek_time(), self.model.peek_time());
        prop_assert_eq!(self.s.pending(), self.model.pending.len());
        prop_assert_eq!(self.s.scheduled(), self.model.seq);
        prop_assert_eq!(self.s.delivered(), self.model.delivered);
        prop_assert_eq!(self.s.cancelled(), self.model.cancelled);
    }

    /// Pops everything left, one event at a time, against the model.
    fn drain(&mut self) {
        loop {
            let next = self.s.next_event();
            prop_assert_eq!(next, self.model.pop_until(SimTime::from_millis(u64::MAX)));
            self.check();
            if next.is_none() {
                return;
            }
        }
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, and simultaneous
    /// events preserve insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.next_event() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for simultaneous events");
                }
            }
            last = Some((t, i));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = Scheduler::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_millis(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, tok) in &tokens {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*tok);
            } else {
                expect.push(*i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.next_event() {
            got.push(i);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// The scheduler delivers exactly what an independent `BTreeMap`
    /// model keyed by `(time, lane bit, seq)` delivers, over a random
    /// interleaving of heap, front-lane and two monotone-lane pushes,
    /// cancels, single pops and bounded `run_until` drains whose handler
    /// schedules follow-ups, and its clock, next time and tallies agree
    /// after every step and through the final drain.
    #[test]
    fn monotone_lane_matches_heap_only_reference(
        ops in prop::collection::vec((0u8..7, 0u64..3, any::<u64>()), 1..300),
    ) {
        let mut h = Harness::new();
        for &(kind, dt, pick) in &ops {
            h.step(kind, dt, pick);
        }
        h.drain();
    }

    /// The tallies (`scheduled`, `delivered`, `cancelled`, `pending`) match
    /// the model's under heavy cancellation: half the steps cancel a random
    /// heap token (pending, delivered or already cancelled), and the clock
    /// only moves through bounded `run_until` drains.
    #[test]
    fn scheduler_tallies_match_shadow_counts(
        ops in prop::collection::vec((0u8..6, 0u64..3, any::<u64>()), 1..300),
        cancels in prop::collection::vec(any::<u64>(), 300),
    ) {
        let mut h = Harness::new();
        for (i, &(kind, dt, pick)) in ops.iter().enumerate() {
            h.step(kind, dt, pick);
            h.step(4, 0, cancels[i]);
        }
        // Every pending event is due within 1 s of the clock: one bounded
        // drain that far empties both sides.
        h.step(5, 1_000, 0);
        prop_assert_eq!(h.s.pending(), 0);
    }

    /// Welford matches the naive two-pass computation.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// Splitting samples arbitrarily and merging gives the same moments.
    #[test]
    fn welford_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7);
    }

    /// A time-weighted signal's integral is additive over segmentation and
    /// bounded by span × max value.
    #[test]
    fn time_weighted_integral_bounds(
        segs in prop::collection::vec((1u64..10_000, 0f64..100.0), 1..50),
    ) {
        let mut tw = TimeWeighted::new(0, segs[0].1);
        let mut t = 0u64;
        let mut manual = 0.0;
        let mut max_v: f64 = 0.0;
        for &(dt, v) in &segs {
            // current value applies for dt ms, then switches to v
            let cur = tw.value();
            manual += cur * dt as f64 / 1_000.0;
            max_v = max_v.max(cur);
            t += dt;
            tw.set(t, v);
        }
        prop_assert!((tw.integral() - manual).abs() < 1e-6 * (1.0 + manual));
        prop_assert!(tw.integral() <= max_v * t as f64 / 1_000.0 + 1e-9);
    }

    /// CDFs are monotone with range [0, 1] and consistent quantiles.
    #[test]
    fn cdf_monotone_and_consistent(xs in prop::collection::vec(-1e5f64..1e5, 1..300)) {
        let cdf = Cdf::from_samples(xs.clone());
        let probes: Vec<f64> = vec![-1e6, -10.0, 0.0, 10.0, 1e6];
        let mut last = 0.0;
        for p in probes {
            let f = cdf.fraction_leq(p);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        // The q-quantile has at least fraction q of mass at or below it.
        for q in [0.1, 0.5, 0.9] {
            let v = cdf.quantile(q).unwrap();
            prop_assert!(cdf.fraction_leq(v) >= q - 1e-9);
        }
    }

    /// pick_weighted only ever returns indices with strictly positive weight.
    #[test]
    fn pick_weighted_respects_support(
        weights in prop::collection::vec(0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            if let Some(i) = rng.pick_weighted(weights.iter().copied()) {
                prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
            } else {
                prop_assert!(weights.iter().all(|&w| w <= 0.0));
            }
        }
    }

    /// merge(a, b) answers exactly like a sketch over a ∪ b, at any cutoff
    /// regime (always-exact, mixed, always-bucketed) and in either merge
    /// order.
    #[test]
    fn sketch_merge_equals_union_sketch(
        xs in prop::collection::vec(0f64..5_000.0, 1..400),
        split in 0usize..400,
        cutoff in 0usize..500,
    ) {
        let split = split % xs.len();
        let mut union = QuantileSketch::new(cutoff);
        let mut a = QuantileSketch::new(cutoff);
        let mut b = QuantileSketch::new(cutoff);
        for (i, &x) in xs.iter().enumerate() {
            union.push(x);
            if i < split { a.push(x) } else { b.push(x) }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.count(), union.count());
        prop_assert_eq!(ab.is_exact(), union.is_exact());
        for &q in &PROBE_QS {
            prop_assert_eq!(ab.quantile(q), union.quantile(q), "merge != union at q={}", q);
            prop_assert_eq!(ba.quantile(q), union.quantile(q), "merge order changed q={}", q);
        }
    }

    /// Bucket-mode quantiles stay within the advertised relative error of
    /// the exact pooled sort; exact mode reproduces it bit-for-bit.
    #[test]
    fn sketch_quantile_error_is_bounded(
        xs in prop::collection::vec(1e-3f64..100_000.0, 2..500),
    ) {
        let mut streamed = QuantileSketch::new(0);
        let mut exact = QuantileSketch::new(usize::MAX);
        for &x in &xs {
            streamed.push(x);
            exact.push(x);
        }
        let bound = QuantileSketch::relative_error_bound();
        for &q in &PROBE_QS {
            let truth = exact_quantile(&xs, q);
            prop_assert_eq!(exact.quantile(q), Some(truth), "exact mode must match the sort rule");
            let est = streamed.quantile(q).unwrap();
            prop_assert!(
                (est - truth).abs() <= bound * truth.abs(),
                "q={}: sketch {} vs exact {} (bound {})", q, est, truth, bound
            );
        }
    }

    /// `exact_quantiles` (one selection per distinct rank) answers exactly
    /// what a sort and index answers: heavy ties (values from a handful of
    /// levels or drawn freely), a single sample, `q` of exactly 0 and 1,
    /// repeated and unsorted `qs`.
    #[test]
    fn exact_quantiles_match_sort_and_index(
        draws in prop::collection::vec((0u8..2, 0u8..6, 0f64..1_000.0), 1..200),
        qs in prop::collection::vec((0u8..4, 0f64..1.0), 1..12),
    ) {
        let xs: Vec<f64> = draws
            .iter()
            .map(|&(free, level, x)| if free == 0 { level as f64 * 0.25 } else { x })
            .collect();
        let qs: Vec<f64> = qs
            .iter()
            .map(|&(kind, q)| match kind {
                0 => 0.0,
                1 => 1.0,
                _ => q,
            })
            .collect();
        let got = QuantileSketch::exact_quantiles(xs.clone(), &qs);
        let want: Vec<Option<f64>> = qs.iter().map(|&q| Some(exact_quantile(&xs, q))).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            QuantileSketch::exact_quantiles(vec![xs[0]], &qs),
            vec![Some(xs[0]); qs.len()]
        );
    }

    /// Within a shard, quantiles cannot depend on the order completions
    /// arrive in — forwards, backwards, or arbitrarily rotated streams
    /// answer identically.
    #[test]
    fn sketch_is_insertion_order_independent(
        xs in prop::collection::vec(0f64..10_000.0, 1..300),
        rotate in 0usize..300,
        cutoff in 0usize..350,
    ) {
        let rotate = rotate % xs.len();
        let mut forward = QuantileSketch::new(cutoff);
        let mut backward = QuantileSketch::new(cutoff);
        let mut rotated = QuantileSketch::new(cutoff);
        for &x in &xs {
            forward.push(x);
        }
        for &x in xs.iter().rev() {
            backward.push(x);
        }
        for &x in xs[rotate..].iter().chain(&xs[..rotate]) {
            rotated.push(x);
        }
        for &q in &PROBE_QS {
            prop_assert_eq!(forward.quantile(q), backward.quantile(q));
            prop_assert_eq!(forward.quantile(q), rotated.quantile(q));
        }
    }

    /// Splitting the per-gateway population arbitrarily and merging the
    /// two histograms answers exactly like one histogram over the union,
    /// in either merge order — the property that makes the driver's
    /// shard-fold independent of scheduling.
    #[test]
    fn online_hist_merge_is_order_invariant(
        xs in prop::collection::vec(0f64..90_000.0, 1..400),
        split in 0usize..400,
        cutoff in 0usize..500,
    ) {
        let split = split % xs.len();
        let whole = OnlineTimeHist::from_samples(&xs, cutoff);
        let a = OnlineTimeHist::from_samples(&xs[..split], cutoff);
        let b = OnlineTimeHist::from_samples(&xs[split..], cutoff);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.gateways(), whole.gateways());
        prop_assert_eq!(ab.is_exact(), whole.is_exact());
        prop_assert!((ab.sum_s() - whole.sum_s()).abs() <= 1e-9 * (1.0 + whole.sum_s()));
        for &q in &PROBE_QS {
            prop_assert_eq!(ab.quantile(q), whole.quantile(q), "merge != whole at q={}", q);
            prop_assert_eq!(ba.quantile(q), whole.quantile(q), "merge order changed q={}", q);
        }
        // Exact-mode merges keep positional per-gateway samples:
        // concatenation in call order, i.e. shard order.
        if ab.is_exact() {
            prop_assert_eq!(ab.per_gateway(), Some(&xs[..]));
        } else {
            prop_assert_eq!(ab.per_gateway(), None);
        }
    }

    /// par_fold_grouped folds every group's results in strict listed index
    /// order at any worker count: over a random number of groups and a
    /// random interleaving of them (every group's indices climbing along
    /// the plan — the subsequence property), a non-commutative per-group
    /// fold (an order-sensitive running hash plus an online histogram)
    /// produces byte-identical state at 1 and 8 threads.
    #[test]
    fn par_fold_is_thread_count_invariant(
        values in prop::collection::vec(0u64..1_000_000, 1..150),
        groups in 1usize..7,
        seed in any::<u64>(),
    ) {
        // Position `pos` goes to a random group as that group's next index.
        let mut rng = SimRng::new(seed);
        let mut next = vec![0usize; groups];
        let plan: Vec<(usize, usize)> = values
            .iter()
            .map(|_| {
                let g = rng.below(groups as u64) as usize;
                next[g] += 1;
                (g, next[g] - 1)
            })
            .collect();
        let run = |threads: usize| {
            let mut order = vec![Vec::new(); groups];
            let mut hash = vec![0u64; groups];
            let mut hist: Vec<OnlineTimeHist> = (0..groups).map(|_| OnlineTimeHist::new(64)).collect();
            par_fold_grouped(
                &plan,
                threads,
                |pos| values[pos],
                |g, index, v| {
                    order[g].push(index);
                    hash[g] = hash[g].wrapping_mul(0x0100_0000_01b3).wrapping_add(v);
                    hist[g].record((v % 86_400) as f64);
                },
            );
            (order, hash, hist)
        };
        let (o1, h1, hist1) = run(1);
        let (o8, h8, hist8) = run(8);
        for (g, order) in o1.iter().enumerate() {
            prop_assert_eq!(order, &(0..next[g]).collect::<Vec<_>>(), "group {} must walk 0..n", g);
        }
        prop_assert_eq!(o1, o8, "fold order depended on thread count");
        prop_assert_eq!(h1, h8, "fold order leaked thread count into the accumulators");
        for (a, b) in hist1.iter().zip(&hist8) {
            prop_assert_eq!(a.gateways(), b.gateways());
            prop_assert_eq!(a.sum_s(), b.sum_s());
            for &q in &PROBE_QS {
                prop_assert_eq!(a.quantile(q), b.quantile(q));
            }
        }
    }

    /// below(n) is always in range and deterministic per seed.
    #[test]
    fn rng_below_in_range(n in 1u64..1_000_000, seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..20 {
            let x = a.below(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.below(n));
        }
    }
}
