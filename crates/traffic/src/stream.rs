//! Streaming trace generation: lazy, arrival-ordered flow synthesis.
//!
//! [`crate::crawdad::generate_eager`] materializes every [`FlowRecord`] of
//! the day and sorts them — fine for the paper's 272-client building,
//! but a 10⁷-client metro day is ~10⁹ flow records, and a driver that
//! consumes arrivals in order never needs them all at once. A
//! [`FlowStream`] yields the *same flows in the same order* one at a time,
//! holding only O(clients) cursor state:
//!
//! * **Setup pass** (`FlowStream::new`): replays exactly the draws the
//!   eager generator makes on the master RNG — the home shuffle, then per
//!   client its personality, presence sessions and every burst draw — but
//!   stores only each client's first batch of flows. Those are drawn in
//!   full straight into the client's cursor buffer (the cursor's initial
//!   refill, so no later pass regenerates them); the pass then *snapshots
//!   the RNG* (xoshiro256** state, 40 bytes) as the cursor's resume point
//!   and runs through the rest of the client's burst draws, counting
//!   flows. Advancing the master through every burst draw is what keeps
//!   client `c + 1`'s personality bit-identical to the eager path. Past
//!   the first batch the pass consumes the identical *raw* draws but
//!   skips the transcendental burst-size math
//!   (`crawdad::draw_burst_skip`): sizes never steer control flow, so
//!   only the branch selectors and gap draws need their full arithmetic.
//! * **Replay** (`next_flow`): each client cursor regenerates its bursts
//!   lazily from its snapshot — a *batch* at a time (default
//!   [`FlowStream::DEFAULT_BATCH`], tunable via
//!   [`FlowStream::with_batch`]) so the RNG state and session table stay
//!   cache-hot across consecutive draws — and a **k-way merge** over the
//!   per-client head flows (a packed binary heap, `merge::PackedHeap`)
//!   yields them in global arrival order.
//!
//! Equivalence to the eager generator is exact, not approximate: per
//! client, bursts replay the identical draw sequence from the identical
//! RNG state, and the merge's `(start, client)` ordering reproduces
//! the eager path's *stable* sort by start (ties broken by client index,
//! then by generation order within a client — precisely the pre-sort
//! vector order). Property tests in `tests/properties.rs` assert
//! flow-for-flow equality across configs, seeds, diurnal shapes, surge
//! windows and batch sizes.

use crate::crawdad::{
    draw_burst, draw_burst_skip, draw_sessions, CrawdadConfig, Personality, SurgeWindow,
};
use crate::diurnal::DiurnalProfile;
use crate::flow::FlowRecord;
use crate::gaps::{GapModel, GapThresholds};
use crate::ids::{ApId, ClientId};
use crate::merge::{PackedHeap, EXHAUSTED};
use crate::session::Session;
use crate::trace::Trace;
use insomnia_simcore::{SimDuration, SimRng, SimTime};
use std::sync::{Arc, OnceLock};

/// Largest stream (in flows) [`FlowStream::enable_replay_cache`] will
/// memoize. At 24 bytes per [`FlowRecord`] the cap bounds one shard's
/// recording at ~24 MiB — dense-metro shards sit far below it, giga/tera
/// shards far above (they keep the pure O(clients) path and never pay a
/// byte for the cache).
pub const REPLAY_CACHE_MAX_FLOWS: usize = 1 << 20;

/// Burst-replay position of one client: which session it is in and when its
/// next candidate burst fires. Split from [`ClientCursor`] so the setup
/// pass can drive the same state machine against the master RNG.
#[derive(Debug, Clone, Copy)]
struct CursorState {
    /// Index of the current session in the stream's session list.
    sess_pos: usize,
    /// One past the client's last session.
    sess_end: usize,
    /// Next candidate burst time; valid while `entered`.
    t: SimTime,
    /// Whether the session at `sess_pos` has drawn its opening offset yet.
    entered: bool,
}

impl CursorState {
    fn new(sess_pos: usize, sess_end: usize) -> CursorState {
        CursorState { sess_pos, sess_end, t: SimTime::ZERO, entered: false }
    }
}

/// One client's resumable burst generator: a 40-byte RNG snapshot, a replay
/// position, and a small buffer of regenerated-but-unyielded flows — the
/// whole reason trace memory is O(clients × batch), not O(flows).
#[derive(Debug, Clone)]
struct ClientCursor {
    rng: SimRng,
    personality: Personality,
    state: CursorState,
    /// Flows regenerated by the last refill, yielded from `pos` on.
    buf: Vec<FlowRecord>,
    pos: usize,
}

impl ClientCursor {
    /// Regenerates up to `batch` flows into the buffer; returns how many
    /// the replay produced (0 = the client is exhausted).
    fn refill(&mut self, shared: &Shared, sessions: &[Session], batch: usize) -> u64 {
        self.buf.clear();
        self.pos = 0;
        while self.buf.len() < batch {
            match shared.step(sessions, self.personality, &mut self.state, &mut self.rng) {
                Some(f) => self.buf.push(f),
                None => break,
            }
        }
        self.buf.len() as u64
    }

    /// Arrival time of the buffered head flow, or [`EXHAUSTED`].
    fn head_start(&self) -> SimTime {
        self.buf.get(self.pos).map_or(EXHAUSTED, |f| f.start)
    }
}

/// The parts of the generator shared by every cursor.
#[derive(Clone)]
struct Shared {
    gap_model: GapModel,
    /// Cumulative mixture thresholds of `gap_model`, precomputed once so
    /// the per-burst gap draw compares against constants
    /// ([`GapModel::thresholds`] pins bit-identity with the uncached path).
    cum: GapThresholds,
    surge: Option<SurgeWindow>,
    profile: DiurnalProfile,
}

impl Shared {
    /// Replays one step of the eager generator's burst loop: draws (and
    /// returns) the flow at the current candidate time, or crosses into the
    /// next session. The draw sequence — session-opening offset, burst
    /// kind/size, diurnal-scaled gap — is the exact sequence
    /// `crawdad::generate_bursts` makes, which is what keeps the replayed
    /// stream and the setup pass bit-identical to the eager path.
    #[inline]
    fn step(
        &self,
        sessions: &[Session],
        personality: Personality,
        state: &mut CursorState,
        rng: &mut SimRng,
    ) -> Option<FlowRecord> {
        loop {
            if !state.entered {
                if state.sess_pos == state.sess_end {
                    return None;
                }
                self.enter_session(sessions, state, rng);
            }
            let sess = sessions[state.sess_pos];
            if state.t < sess.end {
                let (kind, bytes) = draw_burst(personality, rng);
                let flow = FlowRecord { client: sess.client, start: state.t, bytes, kind };
                self.advance_gap(state, rng);
                return Some(flow);
            }
            state.entered = false;
            state.sess_pos += 1;
        }
    }

    /// The setup-pass twin of [`Shared::step`]: consumes the identical raw
    /// draws (so the master RNG lands on the identical position) but skips
    /// the burst-size math and builds no flow — it only reports whether a
    /// flow would have been emitted.
    #[inline]
    fn step_skip(
        &self,
        sessions: &[Session],
        personality: Personality,
        state: &mut CursorState,
        rng: &mut SimRng,
    ) -> bool {
        loop {
            if !state.entered {
                if state.sess_pos == state.sess_end {
                    return false;
                }
                self.enter_session(sessions, state, rng);
            }
            let sess = sessions[state.sess_pos];
            if state.t < sess.end {
                draw_burst_skip(personality, rng);
                self.advance_gap(state, rng);
                return true;
            }
            state.entered = false;
            state.sess_pos += 1;
        }
    }

    /// First burst shortly after the session opens (association, DHCP,
    /// sync) — drawn even when the session is too short to fit a burst,
    /// exactly like the eager loop.
    #[inline]
    fn enter_session(&self, sessions: &[Session], state: &mut CursorState, rng: &mut SimRng) {
        let start = sessions[state.sess_pos].start;
        state.t = start + SimDuration::from_secs_f64(rng.range_f64(0.5, 5.0));
        state.entered = true;
    }

    /// Advances the candidate time by one diurnal-scaled gap. The gap draw
    /// *does* steer control flow (it decides whether the next burst fits
    /// the session), so both passes compute it in full.
    #[inline]
    fn advance_gap(&self, state: &mut CursorState, rng: &mut SimRng) {
        let mut intensity = self.profile.weight_at(state.t).clamp(0.05, 1.0);
        if let Some(s) = self.surge {
            if s.contains(state.t) {
                intensity *= s.intensity.max(0.0);
            }
        }
        state.t += self.gap_model.sample_with(&self.cum, rng, intensity.max(0.05));
    }
}

/// Deterministic work counters of a [`FlowStream`]: how much lazy
/// regeneration and k-way merging the replay has done so far. Every field
/// is a pure function of the flows pulled (refill accounting runs a batch
/// ahead of the yield point, but the drained totals are exact), so the
/// counts are identical at any thread count and safe to report in
/// deterministic telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Lazy burst regenerations: replay steps that produced a flow from a
    /// cursor's RNG snapshot (one per flow primed or refilled).
    pub refills: u64,
    /// Merge winner pops (one per yielded flow).
    pub merge_pops: u64,
    /// Merge-entry insertions: one per flow entering a cursor buffer
    /// (initial priming plus every batched refill), kept numerically
    /// identical to the historical per-flow heap re-push over a full drain.
    pub heap_pushes: u64,
}

/// A resumable, arrival-ordered flow generator over one CRAWDAD-like day.
///
/// Construction costs one full pass of RNG draws (it must position the
/// master stream exactly where the eager generator would leave it): the
/// first `batch` flows of every client in full, the rest with the size
/// math skipped. It retains only O(clients × batch) state; iteration
/// replays each client's remaining bursts on demand — a batch at a
/// time — and merges them by `(start, client)`
/// through a packed binary heap. The yielded sequence is flow-for-flow identical
/// to [`crate::crawdad::generate_eager`]'s `flows` vector, and
/// [`FlowStream::total_flows`] is known before the first flow is pulled —
/// which is how driver-side accounting (`CompletionStats::new`) sizes
/// itself without a materialized trace.
///
/// `Clone` snapshots the whole replay position (cursors, buffers,
/// merge heap), so the world-prototype cache and tests can re-drain one
/// prebuilt stream.
#[derive(Clone)]
pub struct FlowStream {
    horizon: SimTime,
    n_aps: usize,
    home: Vec<ApId>,
    sessions: Vec<Session>,
    cursors: Vec<ClientCursor>,
    /// Merge over the per-client buffered head-flow starts (a client
    /// leaves it once drained). Lane index = client index, so ties
    /// reproduce the eager stable sort.
    merge: PackedHeap,
    /// Flows regenerated per cursor refill (the batched-refill knob).
    batch: usize,
    shared: Shared,
    total_flows: usize,
    yielded: usize,
    stats: StreamStats,
    /// First-drain recording shared by every clone: once a full drain
    /// completes with the replay cache enabled, later drains (of any
    /// clone) index into it by `yielded` instead of re-running the
    /// generation math. Empty unless [`FlowStream::enable_replay_cache`]
    /// was called.
    replay: Arc<OnceLock<Vec<FlowRecord>>>,
    /// This instance's in-progress recording (cache enabled, nothing
    /// published yet). Cloning mid-drain carries the prefix along, so any
    /// lineage that drains to exhaustion publishes a complete recording.
    recording: Option<Vec<FlowRecord>>,
}

impl FlowStream {
    /// Default flows regenerated per cursor refill: enough to amortize the
    /// refill call and keep the per-client RNG cache-hot, small enough
    /// that buffered-flow memory (`clients × batch` records) stays
    /// negligible next to the cursors themselves.
    pub const DEFAULT_BATCH: usize = 8;

    /// Runs the setup pass: advances `rng` through every draw the eager
    /// generator makes (leaving it in the identical final state) while
    /// priming per-client burst cursors with their first batch instead of
    /// storing every flow.
    pub fn new(cfg: &CrawdadConfig, rng: &mut SimRng) -> FlowStream {
        Self::with_batch(cfg, rng, Self::DEFAULT_BATCH)
    }

    /// [`FlowStream::new`] with an explicit refill batch size (≥ 1). The
    /// yielded sequence is byte-identical at every batch size
    /// (property-tested); the knob trades per-flow refill overhead against
    /// buffered-flow memory.
    pub fn with_batch(cfg: &CrawdadConfig, rng: &mut SimRng, batch: usize) -> FlowStream {
        assert!(batch >= 1, "refill batch must be at least 1");
        assert!(cfg.n_clients > 0 && cfg.n_aps > 0);
        assert!(cfg.gap_model.is_normalized(), "gap mixture must sum to 1");
        let shared = Shared {
            cum: cfg.gap_model.thresholds(),
            gap_model: cfg.gap_model.clone(),
            surge: cfg.surge,
            profile: cfg.profile.profile(),
        };

        let mut home: Vec<ApId> =
            (0..cfg.n_clients).map(|i| ApId::from_index(i % cfg.n_aps)).collect();
        rng.shuffle(&mut home);

        let mut sessions: Vec<Session> = Vec::new();
        let mut cursors: Vec<ClientCursor> = Vec::with_capacity(cfg.n_clients);
        let mut heads = Vec::with_capacity(cfg.n_clients);
        let mut stats = StreamStats::default();
        let mut total_flows = 0usize;

        for c in 0..cfg.n_clients {
            let personality = Personality::draw(cfg, rng);
            let sess_pos = sessions.len();
            draw_sessions(cfg, &shared.profile, ClientId::from_index(c), rng, &mut sessions);
            // The cursor starts from the master at the head of this
            // client's burst segment and primes its first batch; the
            // master resumes after that batch and burns the rest of the
            // segment's draws (size math skipped — the raw draw sequence
            // is what positions the next client's personality on the
            // right stream offset).
            let mut cur = ClientCursor {
                rng: rng.clone(),
                personality,
                state: CursorState::new(sess_pos, sessions.len()),
                buf: Vec::new(),
                pos: 0,
            };
            let n = cur.refill(&shared, &sessions, batch);
            rng.clone_from(&cur.rng);
            total_flows += n as usize;
            let mut scratch = cur.state;
            while shared.step_skip(&sessions, personality, &mut scratch, rng) {
                total_flows += 1;
            }
            stats.refills += n;
            stats.heap_pushes += n;
            heads.push(cur.head_start());
            cursors.push(cur);
        }

        let merge = PackedHeap::new(&heads);
        FlowStream {
            horizon: cfg.horizon,
            n_aps: cfg.n_aps,
            home,
            sessions,
            cursors,
            merge,
            batch,
            shared,
            total_flows,
            yielded: 0,
            stats,
            replay: Arc::new(OnceLock::new()),
            recording: None,
        }
    }

    /// Opts this stream — and every clone taken from it — into the
    /// **repetition replay cache**: the first complete drain records the
    /// merged flow sequence, and every later drain replays the recording
    /// instead of re-running the per-flow generation math. That is the
    /// repetition re-run's win: every repetition of a shard drives the
    /// identical trace, so only the first should pay to synthesize it.
    ///
    /// Returns `false` (and does nothing) when the stream is too large for
    /// the cap ([`REPLAY_CACHE_MAX_FLOWS`]) or already partially drained
    /// (a mid-sequence recording could never be replayed from flow 0).
    /// Replayed drains yield byte-identical flows but do no refill or
    /// merge work, so [`FlowStream::stats`] stops advancing on them.
    pub fn enable_replay_cache(&mut self) -> bool {
        if self.total_flows > REPLAY_CACHE_MAX_FLOWS || self.yielded > 0 {
            return false;
        }
        if self.recording.is_none() && self.replay.get().is_none() {
            self.recording = Some(Vec::new());
        }
        true
    }

    /// Whether a completed first drain has published its recording (i.e.
    /// further drains of this stream's clones replay instead of regenerate).
    pub fn replay_cached(&self) -> bool {
        self.replay.get().is_some()
    }

    /// The shuffled client → home-AP assignment (what topology builders
    /// consume; available without pulling a single flow).
    pub fn home(&self) -> &[ApId] {
        &self.home
    }

    /// Presence sessions of every client, in client order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of APs in the generated day.
    pub fn n_aps(&self) -> usize {
        self.n_aps
    }

    /// Observation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total flows the stream will yield — counted during the setup pass,
    /// known before the first pull.
    pub fn total_flows(&self) -> usize {
        self.total_flows
    }

    /// Flows not yet yielded.
    pub fn remaining(&self) -> usize {
        self.total_flows - self.yielded
    }

    /// The configured refill batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Replay-work counters accumulated so far (deterministic).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Yields the next flow in arrival order (ties: client index, then the
    /// client's own generation order — the eager stable sort's order).
    pub fn next_flow(&mut self) -> Option<FlowRecord> {
        // A published recording serves every clone by plain index — the
        // sequence is identical across clones, so `yielded` is exactly the
        // next flow's position. For streams that never enabled the cache
        // this is a single relaxed-ish atomic load per flow.
        if let Some(done) = self.replay.get() {
            let flow = done.get(self.yielded).copied();
            self.yielded += usize::from(flow.is_some());
            return flow;
        }
        if self.merge.winner_key() == EXHAUSTED {
            // A full drain with recording enabled publishes here; clones
            // racing to publish are harmless (first `set` wins, the rest
            // recorded the identical sequence).
            if let Some(rec) = self.recording.take() {
                debug_assert_eq!(rec.len(), self.total_flows);
                let _ = self.replay.set(rec);
            }
            return None;
        }
        let w = self.merge.winner();
        self.stats.merge_pops += 1;
        let cur = &mut self.cursors[w];
        let flow = cur.buf[cur.pos];
        debug_assert_eq!(flow.start, self.merge.winner_key());
        cur.pos += 1;
        // Successor key without the refill detour when the buffer still has
        // flows — the common case (batch − 1 in batch), and the record is
        // already on the cache line the pop just touched.
        let next_key = if cur.pos < cur.buf.len() {
            cur.buf[cur.pos].start
        } else {
            let n = cur.refill(&self.shared, &self.sessions, self.batch);
            self.stats.refills += n;
            self.stats.heap_pushes += n;
            cur.head_start()
        };
        self.merge.update(w, next_key);
        self.yielded += 1;
        if let Some(rec) = &mut self.recording {
            rec.push(flow);
        }
        Some(flow)
    }

    /// Drains the stream into a materialized [`Trace`] — the eager
    /// generator's output, already arrival-sorted.
    pub fn collect_trace(mut self) -> Trace {
        let mut flows = Vec::with_capacity(self.remaining());
        while let Some(f) = self.next_flow() {
            flows.push(f);
        }
        let trace = Trace {
            horizon: self.horizon,
            n_aps: self.n_aps,
            home: self.home,
            flows,
            sessions: self.sessions,
        };
        debug_assert!(trace.validate().is_ok());
        trace
    }
}

impl Iterator for FlowStream {
    type Item = FlowRecord;

    fn next(&mut self) -> Option<FlowRecord> {
        self.next_flow()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl std::fmt::Debug for FlowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowStream")
            .field("n_clients", &self.cursors.len())
            .field("n_aps", &self.n_aps)
            .field("total_flows", &self.total_flows)
            .field("yielded", &self.yielded)
            .field("batch", &self.batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawdad::generate_eager;

    fn cfg() -> CrawdadConfig {
        CrawdadConfig { n_clients: 68, n_aps: 10, ..CrawdadConfig::default() }
    }

    #[test]
    fn stream_matches_eager_generate_flow_for_flow() {
        let mut rng_a = SimRng::new(42);
        let eager = generate_eager(&cfg(), &mut rng_a);
        let mut rng_b = SimRng::new(42);
        let stream = FlowStream::new(&cfg(), &mut rng_b);
        assert_eq!(stream.home(), &eager.home[..]);
        assert_eq!(stream.sessions(), &eager.sessions[..]);
        assert_eq!(stream.total_flows(), eager.flows.len());
        let streamed = stream.collect_trace();
        assert_eq!(streamed.flows, eager.flows);
        // The setup pass leaves the master RNG exactly where eager did.
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn yielded_flows_are_arrival_sorted_and_counted() {
        let mut rng = SimRng::new(7);
        let mut stream = FlowStream::new(&cfg(), &mut rng);
        let total = stream.total_flows();
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(f) = stream.next_flow() {
            assert!(f.start >= last, "arrival order violated");
            last = f.start;
            n += 1;
            assert_eq!(stream.remaining(), total - n);
        }
        assert_eq!(n, total);
    }

    #[test]
    fn every_batch_size_yields_the_same_flows() {
        let reference = FlowStream::with_batch(&cfg(), &mut SimRng::new(21), 1).collect_trace();
        for batch in [2usize, 3, 8, 64, 1 << 20] {
            let mut rng = SimRng::new(21);
            let t = FlowStream::with_batch(&cfg(), &mut rng, batch).collect_trace();
            assert_eq!(t.flows, reference.flows, "batch {batch} diverged");
        }
    }

    #[test]
    fn stats_count_every_refill_pop_and_push() {
        let eager = generate_eager(&cfg(), &mut SimRng::new(11));
        let mut per_client = vec![0u64; cfg().n_clients];
        for f in &eager.flows {
            per_client[f.client.index()] += 1;
        }
        let total = eager.flows.len() as u64;
        for batch in [1usize, 8, 1 << 20] {
            let mut stream = FlowStream::with_batch(&cfg(), &mut SimRng::new(11), batch);
            assert_eq!(stream.total_flows() as u64, total);
            // Setup primes exactly each client's first batch.
            let primed: u64 = per_client.iter().map(|&n| n.min(batch as u64)).sum();
            assert_eq!(stream.stats().heap_pushes, primed, "batch {batch}");
            assert_eq!(stream.stats().refills, primed, "batch {batch}");
            assert_eq!(stream.stats().merge_pops, 0);
            while stream.next_flow().is_some() {}
            let s = stream.stats();
            // One pop and one regeneration per flow; every buffered flow popped.
            assert_eq!(s.merge_pops, total);
            assert_eq!(s.refills, total);
            assert_eq!(s.heap_pushes, total);
        }
    }

    #[test]
    fn replay_cache_serves_identical_flows_without_rework() {
        let mut rng = SimRng::new(5);
        let mut proto = FlowStream::new(&cfg(), &mut rng);
        assert!(proto.enable_replay_cache());
        assert!(!proto.replay_cached(), "nothing recorded before a drain");

        let first: Vec<FlowRecord> = proto.clone().collect();
        assert_eq!(first.len(), proto.total_flows());
        assert!(proto.replay_cached(), "a full clone drain publishes");

        let mut replayed = proto.clone();
        let stats_before = replayed.stats();
        let mut second = Vec::new();
        while let Some(f) = replayed.next_flow() {
            second.push(f);
        }
        assert_eq!(second, first, "replayed drain must be byte-identical");
        assert_eq!(replayed.stats(), stats_before, "replay does no merge work");
        assert_eq!(replayed.remaining(), 0);
    }

    #[test]
    fn replay_cache_refuses_partially_drained_streams() {
        let mut rng = SimRng::new(5);
        let mut stream = FlowStream::new(&cfg(), &mut rng);
        stream.next_flow();
        assert!(!stream.enable_replay_cache());
        // The refusal leaves the stream fully functional.
        let n = 1 + stream.count();
        let total = FlowStream::new(&cfg(), &mut SimRng::new(5)).total_flows();
        assert_eq!(n, total);
    }

    #[test]
    fn clone_taken_mid_recording_still_publishes_a_complete_drain() {
        let mut rng = SimRng::new(5);
        let mut proto = FlowStream::new(&cfg(), &mut rng);
        assert!(proto.enable_replay_cache());
        let mut head = Vec::new();
        for _ in 0..100 {
            head.push(proto.next_flow().expect("more than 100 flows"));
        }
        let forked = proto.clone();
        let tail: Vec<FlowRecord> = forked.collect();
        assert!(proto.replay_cached(), "the fork drained to exhaustion");
        let full: Vec<FlowRecord> = head.into_iter().chain(tail).collect();
        let eager: Vec<FlowRecord> = FlowStream::new(&cfg(), &mut SimRng::new(5)).collect();
        assert_eq!(full, eager);
    }

    #[test]
    fn clone_resumes_from_the_snapshot_position() {
        let mut rng = SimRng::new(33);
        let mut stream = FlowStream::new(&cfg(), &mut rng);
        for _ in 0..500 {
            stream.next_flow();
        }
        let forked = stream.clone();
        let rest_a: Vec<FlowRecord> = stream.collect();
        let rest_b: Vec<FlowRecord> = forked.collect();
        assert_eq!(rest_a, rest_b);
    }
}
