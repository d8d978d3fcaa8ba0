//! Statistics primitives: streaming moments, time-weighted signals,
//! histograms with explicit bin edges, empirical CDFs, and the streaming
//! quantile sketch behind million-flow completion metrics.
//!
//! These are the building blocks behind every number the harness reports:
//! energy = time-integral of power ([`TimeWeighted::integral`]), Fig. 4 is a
//! [`Histogram`] with the paper's custom gap bins, Fig. 9 is a pair of
//! [`Cdf`]s, completion-time quantiles at 10⁶-client scale come from a
//! [`QuantileSketch`], and so on.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance via Welford's algorithm (numerically stable).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
    }
}

/// A piecewise-constant signal tracked over simulated time.
///
/// Feed it `(time, new_value)` change points; it accumulates
/// `∫ value · dt`, which gives both the time-weighted average and, when the
/// value is a power in watts and time is in seconds, an energy in joules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_t_ms: u64,
    value: f64,
    integral_value_seconds: f64,
    started_ms: u64,
}

impl TimeWeighted {
    /// Starts tracking at `t0_ms` with the given initial value.
    pub fn new(t0_ms: u64, initial: f64) -> Self {
        TimeWeighted {
            last_t_ms: t0_ms,
            value: initial,
            integral_value_seconds: 0.0,
            started_ms: t0_ms,
        }
    }

    /// Records a change of value at time `t_ms` (milliseconds). Times must be
    /// non-decreasing.
    pub fn set(&mut self, t_ms: u64, value: f64) {
        self.advance(t_ms);
        self.value = value;
    }

    /// Advances the clock without changing the value.
    pub fn advance(&mut self, t_ms: u64) {
        debug_assert!(t_ms >= self.last_t_ms, "time went backwards");
        let dt_s = (t_ms - self.last_t_ms) as f64 / 1_000.0;
        self.integral_value_seconds += self.value * dt_s;
        self.last_t_ms = t_ms;
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// `∫ value · dt` in value·seconds up to the last `set`/`advance` call.
    pub fn integral(&self) -> f64 {
        self.integral_value_seconds
    }

    /// Time-weighted average over the observed window (0 if no time elapsed).
    pub fn average(&self) -> f64 {
        let span_s = (self.last_t_ms - self.started_ms) as f64 / 1_000.0;
        if span_s <= 0.0 {
            0.0
        } else {
            self.integral_value_seconds / span_s
        }
    }
}

/// Histogram over explicit, contiguous bin edges plus an overflow bin.
///
/// Bin `i` covers `[edges[i], edges[i+1])`; values `>= last edge` land in the
/// overflow bin and values `< first edge` in an underflow bin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<f64>, // weights, so gap histograms can weight by duration
    underflow: f64,
    overflow: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending edges (at least two).
    ///
    /// # Panics
    /// Panics if fewer than two edges are supplied or they are not strictly
    /// ascending.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least one bin");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let nbins = edges.len() - 1;
        Histogram { edges, counts: vec![0.0; nbins], underflow: 0.0, overflow: 0.0 }
    }

    /// Creates `n` uniform bins over `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo);
        let step = (hi - lo) / n as f64;
        Histogram::new((0..=n).map(|i| lo + step * i as f64).collect())
    }

    /// Adds a value with weight 1.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Adds a value with an explicit weight (e.g. a gap weighted by its
    /// duration, as in the paper's Fig. 4 "fraction of idle time").
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        if x < self.edges[0] {
            self.underflow += w;
            return;
        }
        if x >= *self.edges.last().expect("non-empty edges") {
            self.overflow += w;
            return;
        }
        // Binary search for the bin: first edge > x, minus one.
        let idx = match self.edges.binary_search_by(|e| e.partial_cmp(&x).expect("finite")) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += w;
    }

    /// Total weight including under/overflow.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum::<f64>() + self.underflow + self.overflow
    }

    /// Weight in the overflow bin.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Per-bin weights.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Per-bin fraction of the total weight (empty histogram gives zeros).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total <= 0.0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|c| c / total).collect()
    }

    /// Overflow fraction of the total weight.
    pub fn overflow_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.overflow / total
        }
    }

    /// Bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Human-readable labels like `"0-1"`, `"1-2"`, …, `">60"`.
    pub fn labels(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.edges.windows(2).map(|w| format!("{:.0}-{:.0}", w[0], w[1])).collect();
        out.push(format!(">{:.0}", self.edges.last().expect("non-empty")));
        out
    }
}

/// Empirical cumulative distribution function built from samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (non-finite samples are dropped).
    pub fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite after retain"));
        Cdf { sorted: xs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`; 0 for an empty CDF.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Quantile by nearest-rank, `q` clamped to `[0,1]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[idx - 1])
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// `(x, F(x))` points suitable for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted.iter().enumerate().map(|(i, &x)| (x, (i + 1) as f64 / n as f64)).collect()
    }
}

/// Smallest positive value the sketch's log buckets resolve, seconds.
///
/// The simulation clock is millisecond-granular, so completion times are
/// either exactly zero or at least 1 ms; everything below `BUCKET_X0` lands
/// in the dedicated zero bucket and is reported as `0.0` (exactly).
const BUCKET_X0: f64 = 1e-3;

/// Log-bucket resolution: buckets per doubling. `2^(1/64)` growth bounds
/// the relative quantile error at `2^(1/128) - 1 ≈ 0.55 %`.
const BUCKETS_PER_DOUBLING: f64 = 64.0;

/// Largest bucket index the sketch will allocate: covers values up to
/// `BUCKET_X0 · 2^(MAX_BUCKET/64)` ≈ 10⁷ s (115 days — far beyond any
/// simulation horizon); larger values clamp into the top bucket.
const MAX_BUCKET: usize = 2_127;

/// Rank of quantile `q` among `count > 0` ascending samples:
/// `round((count − 1) · q)`, `q` clamped to `[0, 1]`.
fn quantile_rank(count: u64, q: f64) -> u64 {
    ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64
}

/// A deterministic streaming quantile sketch for completion times.
///
/// Below a configurable sample-count `cutoff` the sketch stores the raw
/// samples and answers quantiles *exactly* (identical to sorting the pooled
/// samples); past the cutoff it spills into fixed logarithmic buckets with
/// a guaranteed relative error of at most [`QuantileSketch::relative_error_bound`].
/// Memory is `O(min(count, cutoff) + buckets)` — a mega-city run with 10⁸
/// flows holds ~2 k bucket counters instead of 10⁸ `f64`s.
///
/// Two sketches merge ([`QuantileSketch::merge`]) into exactly the sketch
/// that would have seen the union of their samples, regardless of insertion
/// or merge order — the property that makes per-shard accumulation and
/// cross-repetition pooling deterministic at any thread count.
///
/// Non-finite and negative samples are dropped, like [`Cdf::from_samples`].
///
/// The wire form is the exact private state (cutoff, count, exact samples
/// or null once spilled, bucket counters), so a deserialized sketch keeps
/// absorbing and merging bit-for-bit where the serialized one stopped:
/// checkpointed `(rep × shard)` folds rely on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    cutoff: usize,
    count: u64,
    /// `Some` while in exact mode (`count <= cutoff`); `None` once spilled.
    exact: Option<Vec<f64>>,
    /// Log-bucket counters, allocated lazily on spill. Index 0 counts
    /// values `< BUCKET_X0` (reported as 0.0); index `i ≥ 1` covers
    /// `[BUCKET_X0 · g^(i-1), BUCKET_X0 · g^i)` with `g = 2^(1/64)`.
    buckets: Vec<u64>,
}

impl QuantileSketch {
    /// Creates an empty sketch that stays exact up to `cutoff` samples
    /// (`cutoff = 0` streams into buckets from the first sample).
    pub fn new(cutoff: usize) -> Self {
        QuantileSketch { cutoff, count: 0, exact: Some(Vec::new()), buckets: Vec::new() }
    }

    /// The exact-mode sample-count threshold.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Samples absorbed (finite, non-negative ones only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True while quantiles are computed from raw samples (no error).
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// Worst-case relative error of a bucket-mode quantile for values in
    /// `[BUCKET_X0, 10⁷]` (exact-mode queries have zero error).
    pub fn relative_error_bound() -> f64 {
        2f64.powf(0.5 / BUCKETS_PER_DOUBLING) - 1.0
    }

    /// Bucket index of a positive finite value.
    fn bucket_of(x: f64) -> usize {
        if x < BUCKET_X0 {
            return 0;
        }
        let idx = 1 + ((x / BUCKET_X0).log2() * BUCKETS_PER_DOUBLING).floor() as usize;
        idx.min(MAX_BUCKET)
    }

    /// Representative value of a bucket: the geometric midpoint of its
    /// edges (zero for the sub-millisecond bucket).
    fn representative(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        BUCKET_X0 * 2f64.powf((idx as f64 - 0.5) / BUCKETS_PER_DOUBLING)
    }

    fn bucket_add(&mut self, idx: usize, n: u64) {
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Converts exact samples (if any) into bucket counts.
    fn spill(&mut self) {
        if let Some(samples) = self.exact.take() {
            for x in samples {
                self.bucket_add(Self::bucket_of(x), 1);
            }
        }
    }

    /// Adds a sample. Dropped when non-finite or negative.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        self.count += 1;
        match &mut self.exact {
            Some(samples) if samples.len() < self.cutoff => samples.push(x),
            Some(_) => {
                self.spill();
                self.bucket_add(Self::bucket_of(x), 1);
            }
            None => self.bucket_add(Self::bucket_of(x), 1),
        }
    }

    /// Merges another sketch into this one. The result is identical to a
    /// sketch that absorbed both sample streams, in any order; the
    /// effective cutoff is the smaller of the two.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.cutoff = self.cutoff.min(other.cutoff);
        self.count += other.count;
        let stays_exact =
            self.exact.is_some() && other.exact.is_some() && self.count <= self.cutoff as u64;
        if stays_exact {
            self.exact
                .as_mut()
                .expect("exact mode")
                .extend_from_slice(other.exact.as_ref().expect("exact mode"));
            return;
        }
        self.spill();
        match &other.exact {
            Some(samples) => {
                for &x in samples {
                    self.bucket_add(Self::bucket_of(x), 1);
                }
            }
            None => {
                for (idx, &n) in other.buckets.iter().enumerate() {
                    if n > 0 {
                        self.bucket_add(idx, n);
                    }
                }
            }
        }
    }

    /// Quantiles at each `q ∈ [0, 1]` of `qs` (one sort for the whole
    /// batch in exact mode). `None` entries when the sketch is empty.
    ///
    /// The rank rule is `round((count − 1) · q)` over the ascending
    /// samples — exactly the pooled-sort rule the batch runner's JSONL has
    /// always used, so exact-mode sketches reproduce its bytes.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        if self.count == 0 {
            return vec![None; qs.len()];
        }
        match &self.exact {
            Some(samples) => Self::exact_quantiles(samples.clone(), qs),
            None => qs
                .iter()
                .map(|&q| {
                    let target = quantile_rank(self.count, q);
                    let mut seen = 0u64;
                    for (idx, &n) in self.buckets.iter().enumerate() {
                        seen += n;
                        if seen > target {
                            return Some(Self::representative(idx));
                        }
                    }
                    // Rank beyond the counters can only happen on an
                    // internally inconsistent sketch; clamp to the top.
                    Some(Self::representative(self.buckets.len().saturating_sub(1)))
                })
                .collect(),
        }
    }

    /// Exact quantiles of raw finite samples under the same rank rule as
    /// [`QuantileSketch::quantiles`] — for callers that hold their samples
    /// elsewhere (sorts `samples`; `None` entries when it is empty).
    pub fn exact_quantiles(mut samples: Vec<f64>, qs: &[f64]) -> Vec<Option<f64>> {
        if samples.is_empty() {
            return vec![None; qs.len()];
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        qs.iter().map(|&q| Some(samples[quantile_rank(samples.len() as u64, q) as usize])).collect()
    }

    /// Single-quantile convenience over [`QuantileSketch::quantiles`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantiles(&[q])[0]
    }

    /// The raw samples while the sketch is exact, **in insertion order**
    /// (merges append the other sketch's samples in call order); `None`
    /// once spilled into buckets.
    ///
    /// Wrappers whose insertion order is meaningful — e.g.
    /// [`OnlineTimeHist`], which pushes per-gateway values in gateway
    /// order — use this to recover positional samples for exact-mode
    /// cross-run pairing.
    pub fn samples(&self) -> Option<&[f64]> {
        self.exact.as_deref()
    }
}

/// A mergeable histogram of per-gateway online (powered) seconds — the
/// streaming replacement for concatenating one `f64` per gateway across
/// every shard of a metro-scale world.
///
/// Thin flow-aware wrapper over [`QuantileSketch`] (same log buckets, same
/// exact-below-cutoff promise, same order-invariant merge) plus an exact
/// running sum for the mean. While the gateway count stays at or below the
/// cutoff the raw per-gateway samples survive in **record/merge order** —
/// gateway order within a shard, shard order within a run — so exact-mode
/// consumers (the Fig. 9b fairness pairing) can still join gateways
/// positionally across schemes. Past the cutoff only the `O(buckets)`
/// counters remain and quantiles carry the sketch's ≤ 0.55 % relative
/// error.
///
/// Online times are finite and non-negative by construction (a meter over
/// a simulated day); [`OnlineTimeHist::record`] debug-asserts that. The
/// wire form is the inner sketch plus the exact running sum: everything a
/// resumed fold needs to keep merging bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineTimeHist {
    sketch: QuantileSketch,
    sum_s: f64,
}

impl OnlineTimeHist {
    /// An empty histogram, exact up to `cutoff` gateways (`0` = stream
    /// into buckets from the first gateway).
    pub fn new(cutoff: usize) -> Self {
        OnlineTimeHist { sketch: QuantileSketch::new(cutoff), sum_s: 0.0 }
    }

    /// Builds a histogram from per-gateway seconds, in slice order.
    pub fn from_samples(online_s: &[f64], cutoff: usize) -> Self {
        let mut h = OnlineTimeHist::new(cutoff);
        for &s in online_s {
            h.record(s);
        }
        h
    }

    /// Records one gateway's online seconds.
    pub fn record(&mut self, online_s: f64) {
        debug_assert!(
            online_s.is_finite() && online_s >= 0.0,
            "online time must be a finite non-negative duration, got {online_s}"
        );
        self.sketch.push(online_s);
        self.sum_s += online_s;
    }

    /// Merges another histogram into this one (append order for exact-mode
    /// samples, commutative-up-to-bits otherwise — property-tested).
    pub fn merge(&mut self, other: &OnlineTimeHist) {
        self.sketch.merge(&other.sketch);
        self.sum_s += other.sum_s;
    }

    /// Gateways recorded.
    pub fn gateways(&self) -> u64 {
        self.sketch.count()
    }

    /// Sum of all online seconds (exact in both tiers).
    pub fn sum_s(&self) -> f64 {
        self.sum_s
    }

    /// Mean online seconds per gateway; `None` for an empty histogram.
    pub fn mean_s(&self) -> Option<f64> {
        if self.gateways() == 0 {
            None
        } else {
            Some(self.sum_s / self.gateways() as f64)
        }
    }

    /// True while quantiles are exact (raw samples below the cutoff).
    pub fn is_exact(&self) -> bool {
        self.sketch.is_exact()
    }

    /// Quantiles of the per-gateway online time, seconds; `None` entries
    /// when no gateway was recorded. Same rank rule as
    /// [`QuantileSketch::quantiles`].
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        self.sketch.quantiles(qs)
    }

    /// Single quantile, seconds.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// Per-gateway online seconds in record/merge order while exact;
    /// `None` once the histogram spilled into buckets.
    pub fn per_gateway(&self) -> Option<&[f64]> {
        self.sketch.samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_average_and_integral() {
        // 10 W for 10 s, then 0 W for 30 s: avg 2.5 W, integral 100 J.
        let mut p = TimeWeighted::new(0, 10.0);
        p.set(10_000, 0.0);
        p.advance(40_000);
        assert!((p.integral() - 100.0).abs() < 1e-9);
        assert!((p.average() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_zero_span() {
        let p = TimeWeighted::new(5_000, 3.0);
        assert_eq!(p.average(), 0.0);
        assert_eq!(p.integral(), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(vec![0.0, 1.0, 2.0, 5.0]);
        h.add(0.5); // bin 0
        h.add(1.0); // bin 1 (left-closed)
        h.add(4.99); // bin 2
        h.add(5.0); // overflow
        h.add(-1.0); // underflow
        assert_eq!(h.counts(), &[1.0, 1.0, 1.0]);
        assert_eq!(h.overflow(), 1.0);
        assert_eq!(h.total(), 5.0);
        let f = h.fractions();
        assert!((f[0] - 0.2).abs() < 1e-12);
        assert!((h.overflow_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_weighted_adds() {
        let mut h = Histogram::uniform(0.0, 10.0, 2);
        h.add_weighted(1.0, 3.0);
        h.add_weighted(7.0, 1.0);
        assert_eq!(h.counts(), &[3.0, 1.0]);
        assert_eq!(h.labels(), vec!["0-5", "5-10", ">10"]);
    }

    #[test]
    #[should_panic(expected = "edges must ascend")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new(vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn cdf_quantiles_and_fractions() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(4.0));
        assert!((cdf.fraction_leq(2.0) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_leq(0.5) - 0.0).abs() < 1e-12);
        assert!((cdf.fraction_leq(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.5), Some(2.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0)); // clamped nearest-rank
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::from_samples(vec![f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn sketch_is_exact_below_cutoff() {
        let mut s = QuantileSketch::new(100);
        for x in [3.0, 1.0, 2.0, 4.0] {
            s.push(x);
        }
        assert!(s.is_exact());
        assert_eq!(s.count(), 4);
        // round((4-1)*q) ranks: q=0.5 -> rank 2 -> 3.0.
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
    }

    #[test]
    fn sketch_reproduces_the_pooled_sort_rule() {
        // The batch runner's historical rule: sort, index round((n-1)*q).
        let xs: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 1_000) as f64 / 7.0).collect();
        let mut s = QuantileSketch::new(10_000);
        let mut sorted = xs.clone();
        for &x in &xs {
            s.push(x);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile(q), Some(sorted[idx]), "q = {q}");
        }
    }

    #[test]
    fn sketch_spills_past_cutoff_within_error_bound() {
        let mut s = QuantileSketch::new(16);
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.01).collect();
        for &x in &xs {
            s.push(x);
        }
        assert!(!s.is_exact(), "10k samples past a 16-sample cutoff");
        assert_eq!(s.count(), 10_000);
        let bound = QuantileSketch::relative_error_bound();
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let exact = xs[((xs.len() - 1) as f64 * q).round() as usize];
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() / exact <= bound,
                "q {q}: {est} vs {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn sketch_zero_cutoff_streams_immediately() {
        let mut s = QuantileSketch::new(0);
        s.push(1.0);
        assert!(!s.is_exact());
        assert_eq!(s.count(), 1);
        let est = s.quantile(0.5).unwrap();
        assert!((est - 1.0).abs() / 1.0 <= QuantileSketch::relative_error_bound());
    }

    #[test]
    fn sketch_handles_zero_and_garbage_samples() {
        let mut s = QuantileSketch::new(0);
        s.push(0.0); // sub-millisecond bucket, reported exactly
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(-1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(QuantileSketch::new(4).quantile(0.5), None, "empty sketch");
    }

    #[test]
    fn sketch_merge_equals_union() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 131) % 499) as f64 * 0.037 + 0.001).collect();
        for cutoff in [0usize, 100, 10_000] {
            let mut union = QuantileSketch::new(cutoff);
            let mut a = QuantileSketch::new(cutoff);
            let mut b = QuantileSketch::new(cutoff);
            for (i, &x) in xs.iter().enumerate() {
                union.push(x);
                if i % 3 == 0 {
                    a.push(x);
                } else {
                    b.push(x);
                }
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab.count(), union.count());
            assert_eq!(ab.is_exact(), union.is_exact(), "cutoff {cutoff}");
            for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
                assert_eq!(ab.quantile(q), union.quantile(q), "cutoff {cutoff} q {q}");
                assert_eq!(ba.quantile(q), union.quantile(q), "merge order, cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn sketch_merge_spills_when_union_exceeds_cutoff() {
        let mut a = QuantileSketch::new(10);
        let mut b = QuantileSketch::new(10);
        for i in 0..7 {
            a.push(1.0 + i as f64);
            b.push(10.0 + i as f64);
        }
        assert!(a.is_exact() && b.is_exact());
        a.merge(&b);
        assert!(!a.is_exact(), "14 pooled samples exceed the 10-sample cutoff");
        assert_eq!(a.count(), 14);
    }

    #[test]
    fn sketch_exposes_exact_samples_in_insertion_order() {
        let mut s = QuantileSketch::new(8);
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.samples(), Some(&[3.0, 1.0, 2.0][..]));
        let mut other = QuantileSketch::new(8);
        other.push(9.0);
        s.merge(&other);
        assert_eq!(s.samples(), Some(&[3.0, 1.0, 2.0, 9.0][..]), "merge appends in call order");
        for x in 0..10 {
            s.push(x as f64);
        }
        assert_eq!(s.samples(), None, "spilled sketches hold no raw samples");
    }

    #[test]
    fn online_hist_is_exact_below_the_cutoff() {
        let h = OnlineTimeHist::from_samples(&[3_600.0, 0.0, 7_200.0], 100);
        assert!(h.is_exact());
        assert_eq!(h.gateways(), 3);
        assert_eq!(h.sum_s(), 10_800.0);
        assert_eq!(h.mean_s(), Some(3_600.0));
        assert_eq!(h.per_gateway(), Some(&[3_600.0, 0.0, 7_200.0][..]));
        // round((3-1)*0.5) = rank 1 of [0, 3600, 7200].
        assert_eq!(h.quantile(0.5), Some(3_600.0));
        assert_eq!(h.quantile(0.0), Some(0.0));
        let empty = OnlineTimeHist::new(4);
        assert_eq!(empty.mean_s(), None);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn online_hist_streams_past_the_cutoff_within_error_bound() {
        let xs: Vec<f64> = (0..5_000).map(|i| ((i * 977) % 4_999) as f64 * 17.3).collect();
        let mut h = OnlineTimeHist::new(0);
        for &x in &xs {
            h.record(x);
        }
        assert!(!h.is_exact());
        assert_eq!(h.per_gateway(), None);
        assert_eq!(h.gateways(), 5_000);
        assert!((h.sum_s() - xs.iter().sum::<f64>()).abs() < 1e-6, "sum stays exact");
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bound = QuantileSketch::relative_error_bound();
        for q in [0.25, 0.5, 0.9, 0.99] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let est = h.quantile(q).unwrap();
            assert!((est - exact).abs() <= bound * exact + 1e-12, "q {q}: {est} vs {exact}");
        }
    }

    #[test]
    fn online_hist_merge_concatenates_exact_samples_and_spills_like_union() {
        let mut a = OnlineTimeHist::from_samples(&[10.0, 20.0], 16);
        let b = OnlineTimeHist::from_samples(&[5.0], 16);
        a.merge(&b);
        assert_eq!(a.per_gateway(), Some(&[10.0, 20.0, 5.0][..]), "shard order preserved");
        assert_eq!(a.sum_s(), 35.0);

        // Past the cutoff the merge equals the union sketch at any order.
        let xs: Vec<f64> = (0..300).map(|i| ((i * 53) % 299) as f64 + 0.5).collect();
        let mut union = OnlineTimeHist::new(64);
        let mut left = OnlineTimeHist::new(64);
        let mut right = OnlineTimeHist::new(64);
        for (i, &x) in xs.iter().enumerate() {
            union.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert!(!lr.is_exact());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(lr.quantile(q), union.quantile(q), "q {q}");
            assert_eq!(rl.quantile(q), union.quantile(q), "merge order, q {q}");
        }
        assert_eq!(lr.gateways(), union.gateways());
    }

    #[test]
    fn sketch_and_hist_wire_forms_roundtrip_in_both_tiers() {
        // Exact tier: raw samples (insertion order) survive the roundtrip.
        let mut exact = QuantileSketch::new(8);
        for x in [3.5, 0.0, 1e-4, 7.25, 2.0] {
            exact.push(x);
        }
        assert_eq!(
            serde_json::to_string(&exact).unwrap(),
            r#"{"cutoff":8,"count":5,"exact":[3.5,0.0,0.0001,7.25,2.0],"buckets":[]}"#
        );
        let back = QuantileSketch::from_value(&exact.to_value()).expect("roundtrip");
        assert_eq!(back.cutoff(), exact.cutoff());
        assert_eq!(back.count(), exact.count());
        assert_eq!(back.samples(), exact.samples());

        // Bucket tier: counters and the spilled state survive, and the
        // rebuilt sketch keeps merging identically to the original.
        let mut spilled = QuantileSketch::new(4);
        for i in 0..40 {
            spilled.push(((i * 31) % 37) as f64 + 0.125);
        }
        assert!(!spilled.is_exact());
        let mut small = QuantileSketch::new(1);
        for x in [0.0, 5e-4, 1e-3, 1.01e-3] {
            small.push(x);
        }
        assert_eq!(
            serde_json::to_string(&small).unwrap(),
            r#"{"cutoff":1,"count":4,"exact":null,"buckets":[2,2]}"#
        );
        let mut back = QuantileSketch::from_value(&spilled.to_value()).expect("roundtrip");
        assert_eq!(back.count(), spilled.count());
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(back.quantile(q), spilled.quantile(q), "q {q}");
        }
        let mut more = QuantileSketch::new(4);
        more.push(1e6);
        back.merge(&more);
        let mut direct = spilled.clone();
        direct.merge(&more);
        assert_eq!(back.quantile(1.0), direct.quantile(1.0));

        // Histogram wraps the sketch plus an exact sum.
        let hist = OnlineTimeHist::from_samples(&[10.0, 0.5, 86_400.0], 16);
        assert_eq!(
            serde_json::to_string(&hist).unwrap(),
            r#"{"sketch":{"cutoff":16,"count":3,"exact":[10.0,0.5,86400.0],"buckets":[]},"sum_s":86410.5}"#
        );
        let back = OnlineTimeHist::from_value(&hist.to_value()).expect("roundtrip");
        assert_eq!(back.per_gateway(), hist.per_gateway());
        assert_eq!(back.sum_s(), hist.sum_s());
        assert_eq!(back.gateways(), hist.gateways());
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_samples((0..100).map(|i| ((i * 37) % 100) as f64).collect());
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().expect("non-empty").1 - 1.0).abs() < 1e-12);
    }
}
