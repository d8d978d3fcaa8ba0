//! Property-based tests of the simulation engine's invariants.

use insomnia_simcore::{
    par_fold_grouped, Cdf, OnlineTimeHist, QuantileSketch, Scheduler, SimDuration, SimRng, SimTime,
    TimeWeighted, Welford,
};
use proptest::prelude::*;

/// The historical pooled-sort quantile rule every exact answer must match.
fn exact_quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

const PROBE_QS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0];

/// The handler both `run_until` loops below share: it records each
/// delivery and answers every fourth original event with a follow-up 0–2 ms
/// later, so events land exactly at the loop's `end` mid-run.
fn record_and_follow(
    s: &mut Scheduler<usize>,
    out: &mut Vec<(SimTime, usize)>,
    t: SimTime,
    id: usize,
) {
    out.push((t, id));
    if id < 1_000 && id.is_multiple_of(4) {
        s.schedule_at(t + SimDuration::from_millis(id as u64 % 3), id + 1_000);
    }
}

/// `Scheduler::run_until`'s loop as it was before it popped with one head
/// comparison per event: peek the next time, then pop. The byte-identity reference for the
/// one-lookup loop (the clock is left at the last delivery, not `end`).
fn peek_then_pop_until(s: &mut Scheduler<usize>, end: SimTime, out: &mut Vec<(SimTime, usize)>) {
    loop {
        match s.peek_time() {
            Some(t) if t <= end => {
                let (t, id) = s.next_event().expect("peeked event exists");
                record_and_follow(s, out, t, id);
            }
            _ => break,
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

    /// The monotone lane is invisible in the delivered order: a random
    /// interleaving of heap pushes (normal and front lane), monotone-lane
    /// pushes at nondecreasing times, cancellations of heap tokens and
    /// deliveries yields the same `(time, event)` sequence and the same
    /// counts as a reference scheduler that puts every monotone push on
    /// the heap with `schedule_at`. Bounded runs go through `run_until` on
    /// one side and the old peek-then-pop loop on the reference, with
    /// handlers that schedule follow-ups. Millisecond steps of 0..3 make
    /// ties between all three lanes, and events exactly at `end`, common.
    #[test]
    fn monotone_lane_matches_heap_only_reference(
        ops in prop::collection::vec((0u8..6, 0u64..3, any::<u64>()), 1..300),
    ) {
        let mut lane: Scheduler<usize> = Scheduler::new();
        let mut reference: Scheduler<usize> = Scheduler::new();
        let mut tokens = Vec::new();
        let mut lane_tail = SimTime::ZERO;
        let step = SimDuration::from_millis;
        for (id, &(kind, dt, pick)) in ops.iter().enumerate() {
            let at = lane.now() + step(dt);
            match kind {
                0 => tokens.push((lane.schedule_at(at, id), reference.schedule_at(at, id))),
                1 => tokens.push((lane.schedule_front(at, id), reference.schedule_front(at, id))),
                2 => {
                    lane_tail = lane_tail.max(lane.now()) + step(dt);
                    lane.schedule_monotone(lane_tail, id);
                    reference.schedule_at(lane_tail, id);
                }
                3 if !tokens.is_empty() => {
                    let (a, b) = tokens[(pick % tokens.len() as u64) as usize];
                    lane.cancel(a);
                    reference.cancel(b);
                }
                5 => {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    lane.run_until(&mut got, at, record_and_follow);
                    peek_then_pop_until(&mut reference, at, &mut want);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(lane.now(), at, "the clock ends at `end`");
                }
                _ => prop_assert_eq!(lane.next_event(), reference.next_event()),
            }
            prop_assert_eq!(lane.pending(), reference.pending());
            prop_assert_eq!(lane.peek_time(), reference.peek_time());
        }
        loop {
            let next = lane.next_event();
            prop_assert_eq!(next, reference.next_event());
            prop_assert_eq!(lane.pending(), reference.pending());
            if next.is_none() {
                break;
            }
        }
        prop_assert_eq!(lane.scheduled(), reference.scheduled());
        prop_assert_eq!(lane.cancelled(), reference.cancelled());
        prop_assert_eq!(lane.delivered(), reference.delivered());
    }

    /// The scheduler's tallies match shadow counts kept beside it, after
    /// every step of a random mix of heap, front-lane and monotone-lane
    /// schedules, cancels (of pending, delivered and already-cancelled
    /// tokens alike) and bounded `run_until` drains.
    #[test]
    fn scheduler_tallies_match_shadow_counts(
        ops in prop::collection::vec((0u8..5, 0u64..3, any::<u64>()), 1..300),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        // Every token ever issued, and whether its event is still pending.
        let mut tokens = Vec::new();
        let mut pending_token: Vec<bool> = Vec::new();
        let (mut scheduled, mut delivered, mut cancelled, mut pending) = (0u64, 0u64, 0u64, 0usize);
        let mut lane_tail = SimTime::ZERO;
        let step = SimDuration::from_millis;
        for &(kind, dt, pick) in &ops {
            let at = s.now() + step(dt);
            match kind {
                0 | 1 => {
                    let id = tokens.len();
                    tokens.push(if kind == 0 {
                        s.schedule_at(at, id)
                    } else {
                        s.schedule_front(at, id)
                    });
                    pending_token.push(true);
                    scheduled += 1;
                    pending += 1;
                }
                2 => {
                    lane_tail = lane_tail.max(s.now()) + step(dt);
                    s.schedule_monotone(lane_tail, usize::MAX);
                    scheduled += 1;
                    pending += 1;
                }
                3 if !tokens.is_empty() => {
                    let i = (pick % tokens.len() as u64) as usize;
                    s.cancel(tokens[i]);
                    if std::mem::replace(&mut pending_token[i], false) {
                        cancelled += 1;
                        pending -= 1;
                    }
                }
                _ => {
                    let mut got = Vec::new();
                    s.run_until(&mut got, at, |_, got, _, id| got.push(id));
                    for id in got {
                        if id != usize::MAX {
                            prop_assert!(std::mem::replace(&mut pending_token[id], false));
                        }
                        delivered += 1;
                        pending -= 1;
                    }
                }
            }
            prop_assert_eq!(s.scheduled(), scheduled);
            prop_assert_eq!(s.delivered(), delivered);
            prop_assert_eq!(s.cancelled(), cancelled);
            prop_assert_eq!(s.pending(), pending);
        }
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
                |g, step, v| {
                    order[g].push(step.index);
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
