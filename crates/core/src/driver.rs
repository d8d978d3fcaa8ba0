//! The trace-driven simulation driver (§5.1's methodology).
//!
//! One [`run_single_source_threads`] call simulates one 24-hour day of one
//! scheme over one arrival feed + topology, producing per-second metric
//! series, per-flow completion times, per-gateway online times and the
//! energy breakdown. A scheme run repeats it `cfg.repetitions` times over
//! every shard of a [`ShardedWorld`] with independent algorithmic randomness
//! and averages the series, exactly as the paper averages its 10 runs: each
//! `(repetition × shard)` day is one [`run_scheme_task`], and a
//! [`SchemeFolder`] absorbs them in task order into the [`SchemeResult`].
//! The batch runner (`insomnia-scenarios`) is the one scheduler of those
//! tasks, for the CLI and the figure harness alike.
//!
//! A [`ShardedWorld`] is the one handle on a world: its config, master
//! seed, shard plan (computed once) and, when shared, one prototype slot
//! per shard. A task reads its config and seed from the world and claims
//! its shard's prototype there, so every consumer of a prototype runs the
//! same config by construction. [`ShardedWorld::build_shard`] is the one
//! world-build recipe: tasks stream the shard it builds, and the figure
//! harness, the testbed and the tests collect that stream into a [`Trace`].
//!
//! Event zoo: flow arrivals from the trace; flow departures from the
//! processor-sharing engine; gateway wake completions; SoI idle checks;
//! multi-doze descent ticks; BH2 per-terminal decision epochs; the Optimal
//! scheme's per-minute re-solves; and the metric sampler. The simulation
//! starts with every gateway asleep.

use crate::bh2::{decide, Bh2Decision, VisibleGateway};
use crate::completion::CompletionStats;
use crate::config::{ScenarioConfig, TopologyKind};
use crate::flows::{ActiveFlow, FlowEngine};
use crate::optimal::{solve, SolverInput};
use crate::schemes::{Aggregation, FabricKind, SchemeSpec, SleepPolicy};
use insomnia_access::{
    Dslam, EnergyBreakdown, Fabric, FixedFabric, FullFabric, Gateway, GwState, KSwitchFabric,
    PowerLadder,
};
use insomnia_simcore::{
    par_fold_grouped, EventToken, OnlineTimeHist, Scheduler, SimDuration, SimRng, SimTime,
};
use insomnia_telemetry::RunCounters;
use insomnia_traffic::{FlowRecord, FlowStream, Trace};
use insomnia_wireless::{
    binomial_topology, overlap_topology, shard_spans, LoadWindow, ShardSpan, Topology,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, OnceLock};

/// Simulation events.
///
/// Trace arrivals are *not* pre-scheduled: exactly one `Arrival` event (the
/// next flow of the arrival cursor) is pending at any time, in the
/// scheduler's front lane so it still beats simultaneous timers the way the
/// historical pre-scheduled arrivals (lowest sequence numbers) did. The
/// pending events are therefore O(active flows + timers + 1) instead of
/// O(total trace flows). Arrivals, BH2 ticks ([`BH2_LANE`]) and samples
/// ([`SAMPLE_LANE`]) are each scheduled in time order, so they ride the
/// scheduler's O(1) FIFO lanes; only departures, wake-dones, idle checks,
/// doze ticks and Optimal ticks enter its heap.
/// Index payloads are `u32`, not `usize`: the event queue's slab stores one
/// payload per live slot, so halving the widest variant (departure: 24 → 16
/// bytes with padding) trims every queue slot — and the enum's spare
/// discriminant values give `Option<Ev>` a niche, so the slab's
/// cancelled/vacant marker costs no extra word either.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The arrival held in `World::next_arrival` fires.
    Arrival,
    /// The earliest departure on a gateway (stale if `gen` mismatches).
    Departure { gw: u32, gen: u64 },
    /// A gateway finished booting + resyncing.
    WakeDone { gw: u32 },
    /// SoI idle-timeout check for a gateway.
    IdleCheck { gw: u32 },
    /// Multi-doze descent: the current doze level's dwell elapsed.
    DozeTick { gw: u32 },
    /// BH2 decision epoch for a terminal.
    Bh2Tick { client: u32 },
    /// Optimal scheme re-solve.
    OptimalTick,
    /// Metric sampling.
    Sample,
}

/// The scheduler's monotone lane of [`Ev::Bh2Tick`]s.
const BH2_LANE: usize = 0;
/// The scheduler's monotone lane of [`Ev::Sample`]s.
const SAMPLE_LANE: usize = 1;

// The compaction above is load-bearing for queue-slab memory at 10^8-flow
// scale; fail the build if a payload regression widens the enum again.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);
const _: () = assert!(std::mem::size_of::<Option<Ev>>() == std::mem::size_of::<Ev>());

/// Arrivals pulled from the [`ArrivalSource`] per batch. The event queue
/// still holds exactly one `Arrival` (the buffer head); batching only
/// amortizes the source hop — which, for a streaming source, means one
/// cache-warm regeneration burst instead of an evicted-state pull per
/// flow. Consumption order is unchanged, so results are byte-identical at
/// any batch size. 32 flows is a 1 KiB buffer — big enough to amortize
/// paging the stream's scattered cursor state back in, small enough that
/// one refill burst does not evict the event loop's own working set (256
/// measurably did; 64 measured no better than 32).
const ARRIVAL_BATCH: usize = 32;

/// Where the driver pulls trace arrivals from: a borrowed, pre-materialized
/// flow vector (the classic path) or an owned streaming generator that
/// synthesizes flows in arrival order with O(clients) state (the path that
/// never materializes a shard's trace at all). Both yield `(trace index,
/// flow)` pairs in arrival order and know the total flow count up front —
/// which is how [`CompletionStats`] sizes itself without `trace.flows`.
pub enum ArrivalSource<'a> {
    /// Iterate a materialized, arrival-sorted flow slice.
    Slice(&'a [FlowRecord]),
    /// Drain a streaming generator (boxed: a stream is two orders of
    /// magnitude larger than the slice variant's fat pointer).
    Stream(Box<FlowStream>),
}

impl ArrivalSource<'_> {
    fn total_flows(&self) -> usize {
        match self {
            ArrivalSource::Slice(flows) => flows.len(),
            ArrivalSource::Stream(s) => s.total_flows(),
        }
    }

    /// Next flow in arrival order; `idx` is its position in the (possibly
    /// never-materialized) trace-flow order.
    fn next(&mut self, idx: usize) -> Option<FlowRecord> {
        match self {
            ArrivalSource::Slice(flows) => flows.get(idx).copied(),
            ArrivalSource::Stream(s) => s.next_flow(),
        }
    }
}

/// A flow waiting for its gateway to finish waking.
#[derive(Debug, Clone, Copy)]
struct PendingFlow {
    trace_idx: usize,
    client: usize,
    arrival: SimTime,
    bytes: u64,
}

/// Version of the serialized task-result wire form shipped across the
/// process boundary: checkpoint sidecars embed it in their manifest and
/// refuse to resume from a mismatching schema, and the upcoming
/// distributed shard fan-out will version its worker records the same
/// way. Bump whenever [`RunResult`] (or anything it embeds —
/// [`CompletionStats`], sketches, counters) changes shape.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Diagnostic counters of one run (wake causes and BH2 decision mix) —
/// the observability needed to understand a scheme's equilibrium.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriverStats {
    /// Gateway wakes because a flow arrived with no online alternative.
    pub wakes_stranded_arrival: u64,
    /// Gateway wakes triggered by BH2 return-home decisions.
    pub wakes_return_home: u64,
    /// Gateway wakes by the Optimal re-solve.
    pub wakes_optimal: u64,
    /// BH2 decisions: hitch-hike to another gateway.
    pub bh2_moves: u64,
    /// BH2 decisions: return home due to overload (load > high).
    pub bh2_returns_overload: u64,
    /// BH2 decisions: return home due to backup shortage.
    pub bh2_returns_backup: u64,
    /// BH2 decisions: stay.
    pub bh2_stays: u64,
}

/// Metrics of one simulated day.
///
/// The serialized form (versioned by [`CHECKPOINT_SCHEMA_VERSION`]) is the
/// complete task payload: a deserialized `RunResult` folds into
/// [`SchemeFolder`]'s accumulators bit-for-bit like the original, so
/// checkpoint replay and remote workers produce byte-identical aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Sampling period in seconds.
    pub sample_period_s: f64,
    /// Powered (online + waking) gateways at each sample.
    pub powered_gateways: Vec<f64>,
    /// Awake line cards at each sample.
    pub awake_cards: Vec<f64>,
    /// User-side power draw at each sample, watts.
    pub user_power_w: Vec<f64>,
    /// ISP-side power draw at each sample, watts.
    pub isp_power_w: Vec<f64>,
    /// Energy breakdown over the whole day.
    pub energy: EnergyBreakdown,
    /// Completion-time accounting: the raw per-flow samples while the run's
    /// flow count fits under `cfg.completion_cutoff`, a streaming quantile
    /// sketch past it (none complete when the scheme does not simulate
    /// flows, e.g. Optimal).
    pub completion: CompletionStats,
    /// Powered seconds per gateway (Fig. 9b fairness input).
    pub gateway_online_s: Vec<f64>,
    /// Wake cycles per gateway.
    pub wake_counts: Vec<u64>,
    /// Wake-cause and decision counters.
    pub stats: DriverStats,
    /// Scheduler events delivered during the run (telemetry; equals
    /// `counters.delivered()`).
    pub events: u64,
    /// Deterministic work counters of the run — per-kind delivered events,
    /// cancellations, heap traffic, peak pending events and active flows,
    /// flow totals and streaming-generator work. A pure function of the
    /// delivered sequence, byte-identical at any thread count.
    pub counters: RunCounters,
}

/// The mutable state of one run, handed to every event handler. Once its
/// buffers reach their peak sizes the handlers allocate nothing (see the
/// scratch fields), and `Scheduler::run_until` hands them one event per
/// queue lookup.
struct World<'a> {
    cfg: &'a ScenarioConfig,
    spec: SchemeSpec,
    topo: &'a Topology,
    gateways: Vec<Gateway>,
    dslam: Dslam,
    engine: FlowEngine,
    /// Per-gateway carried-bytes window (BH2's load estimate). Only BH2
    /// reads it, so it is empty — neither allocated nor fed — under every
    /// other aggregation.
    gw_load: Vec<LoadWindow>,
    /// Arrival feed (slice cursor or flow stream), in arrival order.
    arrivals: ArrivalSource<'a>,
    /// Pulled-but-not-yet-fired arrivals as `(trace index, flow)`, oldest
    /// at `arrival_head`. Pulls hit the source [`ARRIVAL_BATCH`] at a time:
    /// a streaming source regenerates flows through cursor state that the
    /// event loop would otherwise evict between single pulls, so batching
    /// keeps the regeneration as cache-hot as a standalone drain. Only the
    /// buffer's *head* is ever scheduled, so the event queue still holds at
    /// most one `Arrival`. Optimal never reads it: its demand sweep ran in
    /// [`precompute_optimal_plan`].
    arrival_buf: Vec<(usize, FlowRecord)>,
    /// Index of the oldest unconsumed arrival in `arrival_buf`.
    arrival_head: usize,
    /// Trace index the next [`ArrivalSource::next`] pull will receive.
    arrival_idx: usize,
    /// Gateway each client routes *new* flows through.
    route: Vec<usize>,
    /// Clients that decided to return home and wait for its wake.
    return_pending: Vec<bool>,
    /// Per home gateway, the clients whose `return_pending` flipped on
    /// since its last wake completed. An entry whose flag was cleared since
    /// (a later BH2 move) is stale and skipped when the list drains.
    return_waiters: Vec<Vec<u32>>,
    /// Flows parked at a waking gateway (drained in place on wake, so each
    /// list keeps its capacity).
    pending: Vec<Vec<PendingFlow>>,
    /// Outstanding idle-check token per gateway.
    idle_token: Vec<Option<EventToken>>,
    /// Outstanding doze-descent token per gateway (multi-doze only; a wake
    /// cancels it, so a delivered tick always finds the gateway sleeping).
    doze_token: Vec<Option<EventToken>>,
    /// Last flow arrival routed through each gateway (adaptive-SOI's gap
    /// observations; `None` before the first arrival).
    arr_last: Vec<Option<SimTime>>,
    /// Smoothed inter-arrival gap per gateway, milliseconds (adaptive-SOI;
    /// 0 = no gap observed yet).
    gap_ewma_ms: Vec<f64>,
    /// Draw of the deepest doze level, watts — the sampler's sleeping-draw
    /// term (equals the legacy `gateway_sleep_w` for binary ladders).
    sleep_draw_w: f64,
    /// Pending departure event per gateway; superseded ones are cancelled
    /// (they were delivered-and-discarded no-ops before), keeping at most
    /// one live departure entry per busy gateway in the heap.
    departure_token: Vec<Option<EventToken>>,
    /// Pre-solved Optimal plan: the gateways each re-solve tick wants
    /// online, indexed by tick number (empty for every other scheme). The
    /// solves run *before* the event loop on a thread fan-out — see
    /// [`precompute_optimal_plan`] — or once per shard for every Optimal
    /// consumer of a shared [`ShardedWorld`].
    optimal_plan: OptimalPlan,
    /// Index of the next [`Ev::OptimalTick`] into `optimal_plan`.
    optimal_tick_idx: usize,
    /// Arrived-but-not-completed flows (engine + wake-parked).
    active_flows: usize,
    /// Σ|ΔW| over every change of the user + ISP draw, watts: the
    /// transition term of [`series_energy_bound`], summed where the draw
    /// changes (gateway wakes, sleeps and doze descents, and full-switch
    /// repacks).
    transitions_w: f64,
    /// Per-kind delivered/cancelled tallies and the pending-event and
    /// active-flow peaks (the rest of [`RunCounters`] is filled from the
    /// scheduler and arrival source at finalize).
    counters: RunCounters,
    /// Reused scratch buffers, empty between handler calls: with these the
    /// steady-state event handlers allocate nothing (the flow engine keeps
    /// its own). `completed` receives a departure's finished flows;
    /// `visible` the online gateways a BH2 epoch sees; `handoff` the
    /// `(gateway, weight)` targets of a BH2 hand-off; `want` the gateways
    /// an Optimal tick keeps online.
    completed: Vec<ActiveFlow>,
    visible: Vec<VisibleGateway>,
    handoff: Vec<(usize, f64)>,
    want: Vec<bool>,
    completion: CompletionStats,
    powered_series: Vec<f64>,
    cards_series: Vec<f64>,
    user_w_series: Vec<f64>,
    isp_w_series: Vec<f64>,
    stats: DriverStats,
    rng: SimRng,
}

impl World<'_> {
    fn n_gateways(&self) -> usize {
        self.gateways.len()
    }

    fn is_optimal(&self) -> bool {
        self.spec.aggregation == Aggregation::Optimal
    }

    /// Deposits carried bytes on a gateway's meters and refreshes its SoI
    /// activity timestamp.
    fn deposit(&mut self, t: SimTime, gw: usize, bytes: f64) {
        if bytes > 0.0 {
            if let Some(load) = self.gw_load.get_mut(gw) {
                load.add(t.as_millis(), bytes.round() as u64);
            }
            self.gateways[gw].on_traffic(t);
        }
    }

    /// Advances flows on `gw`, recomputes rates, reschedules the departure
    /// event, and arms the idle check when the gateway drained.
    ///
    /// The previous departure event (if any) is cancelled rather than left
    /// to fire as a generation-mismatch no-op: discarding it changes no
    /// delivered behaviour but caps the heap at one departure entry per
    /// busy gateway — the invariant behind the O(active) heap bound.
    fn resync_gateway(&mut self, s: &mut Scheduler<Ev>, t: SimTime, gw: usize) {
        if let Some(tok) = self.departure_token[gw].take() {
            // The token slot only holds undelivered events (delivery takes
            // it first), so every cancel here removes a live heap entry —
            // making this count deterministic despite the queue's lazy
            // cancellation.
            self.counters.cancelled_departures += 1;
            s.cancel(tok);
        }
        let next = self.engine.recompute(gw, t, self.cfg.backhaul_bps);
        if let Some(when) = next {
            self.departure_token[gw] = Some(s.schedule_at(
                when,
                Ev::Departure { gw: gw as u32, gen: self.engine.generation(gw) },
            ));
        } else if self.spec.sleep_enabled() && !self.is_optimal() {
            let timeout = self.gateways[gw].idle_timeout();
            self.arm_idle_check(s, gw, t + timeout);
        }
    }

    /// The oldest unconsumed arrival, pulling the next batch from the
    /// source if the buffer has drained.
    fn peek_arrival(&mut self) -> Option<(usize, FlowRecord)> {
        if self.arrival_head == self.arrival_buf.len() {
            self.arrival_buf.clear();
            self.arrival_head = 0;
            while self.arrival_buf.len() < ARRIVAL_BATCH {
                match self.arrivals.next(self.arrival_idx) {
                    Some(f) => {
                        self.arrival_buf.push((self.arrival_idx, f));
                        self.arrival_idx += 1;
                    }
                    None => break,
                }
            }
        }
        self.arrival_buf.get(self.arrival_head).copied()
    }

    /// Consumes the oldest unconsumed arrival.
    fn take_arrival(&mut self) -> Option<(usize, FlowRecord)> {
        let head = self.peek_arrival();
        if head.is_some() {
            self.arrival_head += 1;
        }
        head
    }

    /// Schedules the following arrival's (single, front-lane) event.
    fn schedule_next_arrival(&mut self, s: &mut Scheduler<Ev>) {
        if let Some((_, f)) = self.peek_arrival() {
            s.schedule_front(f.start, Ev::Arrival);
        }
    }

    fn arm_idle_check(&mut self, s: &mut Scheduler<Ev>, gw: usize, at: SimTime) {
        if let Some(tok) = self.idle_token[gw].take() {
            self.counters.cancelled_idle_checks += 1;
            s.cancel(tok);
        }
        self.idle_token[gw] = Some(s.schedule_at(at.max(s.now()), Ev::IdleCheck { gw: gw as u32 }));
    }

    /// Arms the next doze-descent tick for a freshly-slept (or
    /// just-descended) gateway. A no-op outside the multi-doze policy and
    /// at the ladder's deepest level.
    fn arm_doze(&mut self, s: &mut Scheduler<Ev>, gw: usize) {
        if self.spec.sleep != SleepPolicy::MultiDoze || !self.gateways[gw].can_descend() {
            return;
        }
        debug_assert!(self.doze_token[gw].is_none(), "sleep entry cannot race a pending tick");
        let dwell = self.gateways[gw].ladder().dwell(self.gateways[gw].doze_level());
        self.doze_token[gw] = Some(s.schedule_at(s.now() + dwell, Ev::DozeTick { gw: gw as u32 }));
    }

    /// Cancels a pending doze-descent tick (the gateway is waking; its doze
    /// depth is frozen so [`Gateway::begin_wake`] charges the right
    /// latency).
    fn cancel_doze(&mut self, s: &mut Scheduler<Ev>, gw: usize) {
        if let Some(tok) = self.doze_token[gw].take() {
            self.counters.cancelled_doze_ticks += 1;
            s.cancel(tok);
        }
    }

    /// The DSLAM's line-card and modem draw, watts (the shelf's is
    /// constant).
    fn isp_draw_w(&self) -> f64 {
        self.dslam.awake_cards() as f64 * self.cfg.power.line_card_w
            + self.dslam.active_lines() as f64 * self.cfg.power.isp_modem_w
    }

    /// Gateway `gw`'s draw plus the DSLAM's variable draw, watts: the part
    /// of the user + ISP draw a transition of `gw` can change.
    fn draw_w(&self, gw: usize) -> f64 {
        self.gateways[gw].current_draw_w() + self.isp_draw_w()
    }

    /// Starts waking sleeping gateway `gw`: cancels its doze descent,
    /// powers its DSL line on and schedules the `WakeDone`. With
    /// [`sleep_gateway`](Self::sleep_gateway) the one place a line changes
    /// power mid-run, which keeps the DSLAM's active lines equal to the
    /// powered gateways (asserted at every sample).
    fn wake_gateway(&mut self, s: &mut Scheduler<Ev>, t: SimTime, gw: usize) {
        self.cancel_doze(s, gw);
        let before = self.draw_w(gw);
        let done = self.gateways[gw].begin_wake(t).expect("sleeping gateway wakes");
        self.dslam.line_powering_on(t, gw);
        self.transitions_w += (self.draw_w(gw) - before).abs();
        s.schedule_at(done, Ev::WakeDone { gw: gw as u32 });
    }

    /// Puts `gw` to sleep if [`Gateway::try_sleep`] allows it, then powers
    /// its DSL line off and arms the doze descent.
    fn sleep_gateway(&mut self, s: &mut Scheduler<Ev>, t: SimTime, gw: usize) {
        let before = self.draw_w(gw);
        if self.gateways[gw].try_sleep(t) {
            self.dslam.line_powering_off(t, gw);
            self.transitions_w += (self.draw_w(gw) - before).abs();
            self.arm_doze(s, gw);
        }
    }

    /// Moves sleeping `gw` one doze level deeper and arms the next descent
    /// (a no-op at the deepest level).
    fn descend_gateway(&mut self, s: &mut Scheduler<Ev>, t: SimTime, gw: usize) {
        let before = self.gateways[gw].current_draw_w();
        if self.gateways[gw].descend(t).is_some() {
            self.transitions_w += (self.gateways[gw].current_draw_w() - before).abs();
            self.arm_doze(s, gw);
        }
    }

    /// Feeds one flow arrival on `gw` into the adaptive-SOI gap estimator
    /// and retunes the gateway's idle timeout: `gain ×` the smoothed
    /// inter-arrival gap, clamped to the configured bounds. Bursty gateways
    /// grow a long fuse; quiet ones sleep sooner.
    fn observe_arrival_gap(&mut self, now: SimTime, gw: usize) {
        let a = self.cfg.adaptive;
        let prev = self.arr_last[gw].replace(now);
        let Some(prev) = prev else { return };
        let gap_ms = (now - prev).as_millis() as f64;
        let e = &mut self.gap_ewma_ms[gw];
        *e = if *e > 0.0 { a.alpha * gap_ms + (1.0 - a.alpha) * *e } else { gap_ms };
        let target = SimDuration::from_millis((a.gain * *e).round() as u64)
            .max(a.min_timeout)
            .min(a.max_timeout);
        self.gateways[gw].set_idle_timeout(target);
    }

    /// Starts a flow on an online gateway or parks it at a waking one
    /// (waking the gateway first if needed).
    fn start_or_queue(&mut self, s: &mut Scheduler<Ev>, t: SimTime, gw: usize, f: PendingFlow) {
        match self.gateways[gw].state() {
            GwState::Online => {
                let wireless =
                    self.topo.rate_bps(f.client, gw).expect("routed gateway must be in range");
                let moved = self.engine.advance(gw, t);
                self.deposit(t, gw, moved);
                self.engine.add(t, gw, f.client, f.trace_idx, f.arrival, f.bytes, wireless);
                self.gateways[gw].on_traffic(t);
                self.resync_gateway(s, t, gw);
            }
            GwState::Sleeping => {
                self.wake_gateway(s, t, gw);
                self.stats.wakes_stranded_arrival += 1;
                self.pending[gw].push(f);
            }
            GwState::Waking => {
                self.pending[gw].push(f);
            }
        }
    }

    /// Picks the gateway a new flow of `client` should use, per the scheme.
    fn route_new_flow(&mut self, now: SimTime, client: usize) -> usize {
        let home = self.topo.home_of(client);
        match self.spec.aggregation {
            Aggregation::HomeOnly => home,
            Aggregation::Optimal => unreachable!("optimal does not simulate flows"),
            Aggregation::Bh2 { .. } => {
                let cur = self.route[client];
                if self.gateways[cur].is_online() {
                    return cur;
                }
                // Smooth hand-off: the current gateway slept while we were
                // idle; move to a usable online gateway in range (weighted
                // by load, like the epoch rule) or fall back to waking home.
                let now_ms = now.as_millis();
                let cands = &mut self.handoff;
                for link in self.topo.reachable(client) {
                    let g = link.gateway;
                    if g != cur && self.gateways[g].is_online() {
                        let load = self.gw_load[g].load_fraction(now_ms, self.cfg.backhaul_bps);
                        if load < self.cfg.bh2.high_threshold {
                            // Small floor keeps zero-load gateways pickable.
                            cands.push((g, load.max(1e-3)));
                        }
                    }
                }
                let gw = match self.rng.pick_weighted(cands.iter().map(|&(_, w)| w)) {
                    Some(i) => cands[i].0,
                    None => home,
                };
                cands.clear();
                self.route[client] = gw;
                gw
            }
        }
    }

    /// Marks `client` as waiting for its (waking) home gateway, queueing
    /// it on the home's waiter list unless it already waits.
    fn await_return(&mut self, client: usize, home: usize) {
        if !std::mem::replace(&mut self.return_pending[client], true) {
            self.return_waiters[home].push(client as u32);
        }
    }

    fn sample_index(&self, t: SimTime) -> usize {
        (t.as_millis() / self.cfg.sample_period.as_millis()) as usize
    }
}

/// Simulates one day of one scheme over one arrival feed and topology —
/// a materialized trace (`ArrivalSource::Slice(&trace.flows)`) or a
/// [`FlowStream`] that never materializes one; both yield byte-identical
/// runs (asserted by `tests/streaming.rs`). Deterministic in `(cfg, spec,
/// arrivals, topo, rng)`. `solve_threads` caps the Optimal scheme's
/// pre-solve fan-out (every other scheme ignores it); the fan-out is
/// index-addressed and the event loop consumes its outputs strictly in
/// tick order, so the result is byte-identical at any `solve_threads` —
/// asserted by `tests/determinism.rs` at 1 vs 8.
pub fn run_single_source_threads(
    cfg: &ScenarioConfig,
    spec: SchemeSpec,
    arrivals: ArrivalSource<'_>,
    topo: &Topology,
    rng: SimRng,
    solve_threads: usize,
) -> RunResult {
    run_single(cfg, spec, arrivals, topo, rng, None, solve_threads)
}

/// [`run_single_source_threads`] with an optional Optimal plan solved
/// beforehand over the same `(cfg, topo, arrivals)`; `None` solves it here.
/// Every other scheme ignores `plan`.
fn run_single(
    cfg: &ScenarioConfig,
    spec: SchemeSpec,
    mut arrivals: ArrivalSource<'_>,
    topo: &Topology,
    mut rng: SimRng,
    plan: Option<OptimalPlan>,
    solve_threads: usize,
) -> RunResult {
    cfg.validate().expect("validated config");
    let n_gw = topo.n_gateways();
    let horizon = cfg.horizon();
    let t0 = SimTime::ZERO;

    // Optimal migrates instantly: model with zero timers (§5.1 calls it
    // "certainly infeasible in practice ... a useful upper bound").
    let is_optimal = spec.aggregation == Aggregation::Optimal;
    let idle_timeout = if is_optimal { SimDuration::ZERO } else { cfg.idle_timeout };
    // Resolve the power-state ladder: an explicit `power_states` config
    // wins; otherwise multi-doze synthesizes the default three-level
    // ladder and every other policy gets the binary on/off degenerate
    // case — the exact arithmetic the pre-ladder goldens pin.
    let ladder = {
        let base = match (&cfg.power_states, spec.sleep) {
            (Some(l), _) => l.clone(),
            (None, SleepPolicy::MultiDoze) => PowerLadder::default_doze(&cfg.power, cfg.wake_time),
            (None, _) => PowerLadder::binary(cfg.power.gateway_sleep_w, cfg.wake_time),
        };
        if is_optimal {
            base.with_zero_wake()
        } else {
            base
        }
    };
    // Multi-doze enters the shallowest level and descends on dwell ticks;
    // every other policy drops straight to the deepest (for the binary
    // ladder the two coincide).
    let sleep_entry = if spec.sleep == SleepPolicy::MultiDoze { 0 } else { ladder.deepest() };
    let sleep_draw_w = ladder.watts(ladder.deepest());
    let initial = if spec.sleep_enabled() { GwState::Sleeping } else { GwState::Online };
    let gateways: Vec<Gateway> = (0..n_gw)
        .map(|_| {
            Gateway::with_ladder(
                t0,
                initial,
                idle_timeout,
                ladder.clone(),
                sleep_entry,
                cfg.power.gateway_on_w,
            )
        })
        .collect();

    let fabric = match spec.fabric {
        FabricKind::Fixed => Fabric::Fixed(FixedFabric::new(
            cfg.dslam.n_cards,
            insomnia_access::random_mapping(
                n_gw,
                cfg.dslam.n_cards,
                cfg.dslam.ports_per_card,
                &mut rng,
            ),
        )),
        FabricKind::KSwitch => Fabric::KSwitch(KSwitchFabric::new(
            n_gw,
            cfg.dslam.n_cards,
            cfg.dslam.ports_per_card,
            cfg.k_switch,
            &mut rng,
        )),
        FabricKind::Full => {
            Fabric::Full(FullFabric::new(n_gw, cfg.dslam.n_cards, cfg.dslam.ports_per_card))
        }
    };
    let mut dslam = Dslam::new(t0, cfg.dslam, cfg.power, fabric, n_gw);
    if !spec.sleep_enabled() {
        for gw in 0..n_gw {
            dslam.line_powering_on(t0, gw);
        }
    }

    // Optimal's re-solve inputs are a pure function of the arrival prefix:
    // the scheme never simulates flows, so every solve is computable before
    // the event loop runs. The pre-pass sweeps the run's own arrival source
    // (the loop never reads it) and fans the pure solves out across
    // threads. The event loop then consumes the plan strictly by tick
    // index, so the wake/sleep application order — and every downstream
    // byte — is independent of `solve_threads`. A plan handed in was
    // solved the same way over the same `(cfg, topo, arrivals)`.
    let optimal_plan = match (is_optimal, plan) {
        (false, _) => OptimalPlan::default(),
        (true, Some(plan)) => plan,
        (true, None) => Arc::new(precompute_optimal_plan(cfg, topo, &mut arrivals, solve_threads)),
    };

    let n_samples = (horizon.as_millis() / cfg.sample_period.as_millis()) as usize;
    let total_flows = arrivals.total_flows();
    let mut world = World {
        cfg,
        spec,
        topo,
        gateways,
        dslam,
        engine: FlowEngine::new(n_gw),
        gw_load: match spec.aggregation {
            Aggregation::Bh2 { .. } => {
                (0..n_gw).map(|_| LoadWindow::new(cfg.bh2.load_window.as_millis())).collect()
            }
            _ => Vec::new(),
        },
        arrivals,
        arrival_buf: Vec::with_capacity(ARRIVAL_BATCH),
        arrival_head: 0,
        arrival_idx: 0,
        route: (0..topo.n_clients()).map(|c| topo.home_of(c)).collect(),
        return_pending: vec![false; topo.n_clients()],
        return_waiters: vec![Vec::new(); n_gw],
        optimal_plan,
        optimal_tick_idx: 0,
        pending: vec![Vec::new(); n_gw],
        idle_token: vec![None; n_gw],
        doze_token: vec![None; n_gw],
        arr_last: vec![None; n_gw],
        gap_ewma_ms: vec![0.0; n_gw],
        sleep_draw_w,
        departure_token: vec![None; n_gw],
        active_flows: 0,
        transitions_w: 0.0,
        counters: RunCounters::default(),
        completed: Vec::new(),
        visible: Vec::new(),
        handoff: Vec::new(),
        want: Vec::new(),
        completion: CompletionStats::new(total_flows, cfg.completion_cutoff),
        powered_series: vec![0.0; n_samples],
        cards_series: vec![0.0; n_samples],
        user_w_series: vec![0.0; n_samples],
        isp_w_series: vec![0.0; n_samples],
        stats: DriverStats::default(),
        rng,
    };

    let mut sched: Scheduler<Ev> = Scheduler::new();
    // Prime the arrival cursor: every scheme but Optimal fires it as
    // front-lane `Arrival` events one at a time.
    if !is_optimal {
        world.schedule_next_arrival(&mut sched);
        if let Aggregation::Bh2 { .. } = spec.aggregation {
            // BH2 ticks ride a monotone lane of the scheduler, which must be
            // fed in time order. Draw the offsets in client order (the RNG
            // stream is unchanged) and push them sorted; the stable sort
            // keeps client order within a tie, so every tick keeps the
            // rank its old client-order heap push gave it.
            let mut first: Vec<(SimTime, u32)> = (0..topo.n_clients() as u32)
                .map(|c| {
                    let offset = world.rng.below(cfg.bh2.epoch.as_millis().max(1));
                    (t0 + SimDuration::from_millis(offset), c)
                })
                .collect();
            first.sort_by_key(|&(at, _)| at);
            for (at, client) in first {
                sched.schedule_monotone(BH2_LANE, at, Ev::Bh2Tick { client });
            }
        }
    } else {
        sched.schedule_at(t0, Ev::OptimalTick);
    }
    sched.schedule_monotone(SAMPLE_LANE, t0, Ev::Sample);

    sched.run_until(&mut world, horizon, |s, w, now, ev| handle(s, w, now, ev));
    debug_assert_eq!(
        world.optimal_tick_idx,
        world.optimal_plan.len(),
        "pre-solved tick count must match delivered OptimalTicks"
    );

    // Finalize meters and assemble the breakdown.
    for g in &mut world.gateways {
        g.finish(horizon);
    }
    world.dslam.finish(horizon);
    let energy = EnergyBreakdown {
        user_j: world.gateways.iter().map(|g| g.energy_j()).sum(),
        modems_j: world.dslam.modems_energy_j(),
        cards_j: world.dslam.cards_energy_j(),
        shelf_j: world.dslam.shelf_energy_j(),
    };
    // The meters against the sampled series, in release builds too
    // (O(samples) per run; see `series_energy_bound`).
    let period_s = cfg.sample_period.as_secs_f64();
    let series_j = period_s
        * world.user_w_series.iter().zip(&world.isp_w_series).map(|(u, i)| u + i).sum::<f64>();
    let max_w = n_gw as f64 * (cfg.power.gateway_on_w.max(ladder.watts(0)) + cfg.power.isp_modem_w)
        + cfg.dslam.n_cards as f64 * cfg.power.line_card_w
        + cfg.power.shelf_w;
    let tail_s = horizon.as_secs_f64() - n_samples as f64 * period_s;
    let bound = series_energy_bound(period_s, world.transitions_w, max_w, tail_s, energy.total_j());
    assert!(
        (series_j - energy.total_j()).abs() <= bound,
        "metered energy {} J vs sampled series {series_j} J: off by more than the {bound} J bound",
        energy.total_j()
    );
    // Finalize the deterministic counters: per-kind tallies accumulated in
    // `handle`, the rest read from the scheduler, arrival source and
    // completion ledger.
    let mut counters = world.counters;
    counters.heap_pushes = sched.scheduled();
    counters.flows_total = total_flows as u64;
    counters.flows_completed = world.completion.completed();
    if let ArrivalSource::Stream(stream) = &world.arrivals {
        let s = stream.stats();
        counters.stream_refills = s.refills;
        counters.merge_pops = s.merge_pops;
    }
    debug_assert_eq!(counters.delivered(), sched.delivered(), "every delivered event counted");
    debug_assert_eq!(counters.cancelled(), sched.cancelled(), "every cancel site counted");
    let gateway_online_s: Vec<f64> = world.gateways.iter().map(|g| g.online_seconds()).collect();
    // Conservation laws, checked in release builds too (O(gateways) per
    // run; a violation panics the task, which the batch runner reports as
    // a failed task): every arrival completed or is still active at the
    // horizon; flow-simulating schemes fire every trace flow as an arrival
    // and Optimal fires none; no gateway is online past the horizon (the
    // online meter sums one f64 term per state interval, hence a 10⁻⁹
    // relative rounding slack).
    assert_eq!(
        counters.arrivals,
        counters.flows_completed + world.active_flows as u64,
        "arrivals = completed + active at the horizon"
    );
    assert_eq!(
        counters.arrivals,
        if is_optimal { 0 } else { counters.flows_total },
        "arrivals vs trace flows"
    );
    assert!(
        gateway_online_s.iter().all(|&s| s <= horizon.as_secs_f64() * (1.0 + 1e-9)),
        "a gateway was online longer than the horizon"
    );
    // Every wake started either completed or is still in flight.
    let wake_counts: Vec<u64> = world.gateways.iter().map(|g| g.wake_count()).collect();
    assert_eq!(
        wake_counts.iter().sum::<u64>(),
        counters.wake_dones
            + world.gateways.iter().filter(|g| g.state() == GwState::Waking).count() as u64,
        "wakes = wake-dones + gateways still waking at the horizon"
    );
    RunResult {
        sample_period_s: cfg.sample_period.as_secs_f64(),
        powered_gateways: world.powered_series,
        awake_cards: world.cards_series,
        user_power_w: world.user_w_series,
        isp_power_w: world.isp_w_series,
        energy,
        completion: world.completion,
        gateway_online_s,
        wake_counts,
        stats: world.stats,
        events: sched.delivered(),
        counters,
    }
}

/// How far a run's metered energy may lie from its sampled series,
/// joules: `P·Σ|ΔW_i| + W_max·(H − n·P) + 10⁻⁹·E`.
///
/// The meters integrate the user + ISP draw W(t) exactly over the horizon
/// H: E = ∫₀ᴴ W(t) dt. The sampler records one value per period P at
/// t = k·P for k < n = ⌊H/P⌋, and the series energy is S = P·Σₖ Wₖ. Every
/// change of W is a step ΔW_i at one instant, made by a gateway wake,
/// sleep or doze descent or a full-switch repack (`transitions_w` is
/// Σ|ΔW_i| over them). Charge each step to the period whose sample
/// precedes it (a step at k·P delivered after the sample belongs to period
/// k). Within period k, W(t) − Wₖ is the sum of that period's steps up to
/// t, so |∫ₖₚ⁽ᵏ⁺¹⁾ᴾ W dt − P·Wₖ| ≤ P·Σ_{i ∈ k}|ΔW_i|; summed over the
/// periods that is at most P·Σ|ΔW_i|. The tail [n·P, H) has no sample;
/// there 0 ≤ W ≤ W_max, the draw with every gateway, modem and line card
/// on, so the tail adds at most W_max·(H − n·P). The last term absorbs
/// floating-point rounding in the meters' and the series' sums, relative
/// to the metered energy E (`metered_j`).
fn series_energy_bound(
    period_s: f64,
    transitions_w: f64,
    max_w: f64,
    tail_s: f64,
    metered_j: f64,
) -> f64 {
    period_s * transitions_w + max_w * tail_s + 1e-9 * metered_j
}

fn handle(s: &mut Scheduler<Ev>, w: &mut World<'_>, now: SimTime, ev: Ev) {
    // Heap-occupancy telemetry: count the event being handled plus what is
    // still queued. With streaming arrivals this peaks at O(active flows +
    // timers + 1), which `tests/streaming.rs` asserts.
    w.counters.peak_heap = w.counters.peak_heap.max(s.pending() as u64 + 1);
    match ev {
        Ev::Arrival => {
            w.counters.arrivals += 1;
            let (idx, f) = w.take_arrival().expect("a scheduled arrival is pending");
            let client = f.client.index();
            let gw = w.route_new_flow(now, client);
            if w.spec.sleep == SleepPolicy::Adaptive {
                w.observe_arrival_gap(now, gw);
            }
            w.active_flows += 1;
            w.counters.peak_active_flows = w.counters.peak_active_flows.max(w.active_flows as u64);
            w.start_or_queue(
                s,
                now,
                gw,
                PendingFlow { trace_idx: idx, client, arrival: now, bytes: f.bytes },
            );
            w.schedule_next_arrival(s);
        }
        Ev::Departure { gw, gen } => {
            w.counters.departures += 1;
            let gw = gw as usize;
            w.departure_token[gw] = None;
            // Superseded departures are cancelled at resync time, so a
            // delivered event always carries the current generation; this
            // check is defense in depth for a determinism-critical
            // invariant, not the staleness mechanism.
            if gen != w.engine.generation(gw) {
                debug_assert!(false, "cancelled departure reached delivery");
                return;
            }
            let moved = w.engine.advance(gw, now);
            w.deposit(now, gw, moved);
            w.engine.take_completed(gw, &mut w.completed);
            for done in w.completed.drain(..) {
                w.active_flows -= 1;
                w.completion.record(done.trace_idx, (now - done.arrival).as_secs_f64());
            }
            w.resync_gateway(s, now, gw);
        }
        Ev::WakeDone { gw } => {
            w.counters.wake_dones += 1;
            let gw = gw as usize;
            w.gateways[gw].complete_wake(now);
            // Clients that were waiting to return to this home gateway.
            let mut waiters = std::mem::take(&mut w.return_waiters[gw]);
            for c in waiters.drain(..) {
                let c = c as usize;
                if w.return_pending[c] {
                    w.route[c] = gw;
                    w.return_pending[c] = false;
                }
            }
            w.return_waiters[gw] = waiters;
            debug_assert!(
                (0..w.return_pending.len())
                    .all(|c| !w.return_pending[c] || w.topo.home_of(c) != gw),
                "a client homed at gateway {gw} still waits after its wake"
            );
            for f in w.pending[gw].drain(..) {
                let wireless = w.topo.rate_bps(f.client, gw).expect("pending flow client in range");
                w.engine.add(now, gw, f.client, f.trace_idx, f.arrival, f.bytes, wireless);
            }
            w.gateways[gw].on_traffic(now);
            w.resync_gateway(s, now, gw);
        }
        Ev::IdleCheck { gw } => {
            w.counters.idle_checks += 1;
            let gw = gw as usize;
            w.idle_token[gw] = None;
            if !w.gateways[gw].is_online() {
                return;
            }
            if w.engine.n_on(gw) > 0 || !w.pending[gw].is_empty() {
                let timeout = w.gateways[gw].idle_timeout();
                w.arm_idle_check(s, gw, now + timeout);
                return;
            }
            let deadline = w.gateways[gw].idle_deadline();
            if now >= deadline {
                w.sleep_gateway(s, now, gw);
            } else {
                w.arm_idle_check(s, gw, deadline);
            }
        }
        Ev::DozeTick { gw } => {
            w.counters.doze_ticks += 1;
            let gw = gw as usize;
            w.doze_token[gw] = None;
            // Wakes cancel the pending tick, so a delivered one always
            // finds the gateway still sleeping at the level that armed it.
            w.descend_gateway(s, now, gw);
        }
        Ev::Bh2Tick { client } => {
            w.counters.bh2_ticks += 1;
            // `now` never decreases and the epoch is fixed, so the
            // reschedules arrive in time order: a monotone lane holds them.
            s.schedule_monotone(BH2_LANE, now + w.cfg.bh2.epoch, Ev::Bh2Tick { client });
            bh2_epoch(s, w, now, client as usize);
        }
        Ev::OptimalTick => {
            // One ILP solve per delivered tick.
            w.counters.optimal_solves += 1;
            optimal_tick(s, w, now);
            if now + w.cfg.optimal_period < w.cfg.horizon() {
                s.schedule_at(now + w.cfg.optimal_period, Ev::OptimalTick);
            }
        }
        Ev::Sample => {
            w.counters.samples += 1;
            // Keep load windows fresh on busy gateways so BH2 sees current
            // loads even mid-transfer. Only the engine's busy list is swept,
            // and its order is free: `advance(gw)` touches only `gw`'s flows
            // and `deposit(gw)` only `gw_load[gw]` and `gateways[gw]`, and
            // neither adds or removes a flow, so the list is stable here.
            debug_assert!(
                {
                    let mut busy: Vec<usize> =
                        w.engine.busy().iter().map(|&g| g as usize).collect();
                    busy.sort_unstable();
                    busy.into_iter().eq((0..w.n_gateways()).filter(|&g| w.engine.n_on(g) > 0))
                },
                "busy-gateway list diverged from the per-gateway flow recount"
            );
            for k in 0..w.engine.busy().len() {
                let gw = w.engine.busy()[k] as usize;
                let moved = w.engine.advance(gw, now);
                w.deposit(now, gw, moved);
            }
            let idx = w.sample_index(now);
            if idx < w.powered_series.len() {
                // `wake_gateway` powers a gateway's line on and
                // `sleep_gateway` powers it off, so the DSLAM's active lines
                // (one modem each) are the powered gateways.
                let powered = w.dslam.active_lines();
                debug_assert_eq!(
                    powered,
                    w.gateways.iter().filter(|g| g.is_powered()).count(),
                    "powered gateways diverged from active DSLAM lines"
                );
                let cards = w.dslam.awake_cards();
                w.powered_series[idx] = powered as f64;
                w.cards_series[idx] = cards as f64;
                // Multi-doze sleepers draw level-dependent watts, so sum
                // per-gateway; every other policy keeps the legacy
                // closed form (same f64s, same summation order — the
                // byte-identity the goldens pin).
                w.user_w_series[idx] = if w.spec.sleep == SleepPolicy::MultiDoze {
                    debug_assert!(
                        w.gateways.iter().all(|g| {
                            (w.sleep_draw_w..=w.cfg.power.gateway_on_w)
                                .contains(&g.current_draw_w())
                        }),
                        "a gateway draws outside [deepest doze level, on] watts"
                    );
                    w.gateways.iter().map(|g| g.current_draw_w()).sum()
                } else {
                    powered as f64 * w.cfg.power.gateway_on_w
                        + (w.n_gateways() - powered) as f64 * w.sleep_draw_w
                };
                w.isp_w_series[idx] = w.cfg.power.shelf_w
                    + cards as f64 * w.cfg.power.line_card_w
                    + powered as f64 * w.cfg.power.isp_modem_w;
            }
            // One pending sample at a time, each a period after the last:
            // the sample lane's times only grow.
            let next = now + w.cfg.sample_period;
            if next < w.cfg.horizon() {
                s.schedule_monotone(SAMPLE_LANE, next, Ev::Sample);
            }
        }
    }
}

/// One BH2 decision epoch for one terminal (§3.1).
fn bh2_epoch(s: &mut Scheduler<Ev>, w: &mut World<'_>, now: SimTime, client: usize) {
    let Aggregation::Bh2 { backup } = w.spec.aggregation else {
        return;
    };
    let home = w.topo.home_of(client);
    let cur = w.route[client];
    if !w.gateways[cur].is_online() {
        // Current gateway slept while we were idle; nothing to decide now —
        // the next flow arrival performs the hand-off.
        return;
    }
    let now_ms = now.as_millis();
    let cur_load = w.gw_load[cur].load_fraction(now_ms, w.cfg.backhaul_bps);
    for link in w.topo.reachable(client) {
        let g = link.gateway;
        if g != cur && w.gateways[g].is_online() {
            let load = w.gw_load[g].load_fraction(now_ms, w.cfg.backhaul_bps);
            w.visible.push(VisibleGateway { gateway: g, load });
        }
    }
    let mut params = w.cfg.bh2;
    params.backup = backup;
    let decision = decide(&params, cur == home, cur_load, &w.visible, &mut w.rng);
    w.visible.clear();
    match decision {
        Bh2Decision::Stay => {
            w.stats.bh2_stays += 1;
        }
        Bh2Decision::MoveTo(g) => {
            w.stats.bh2_moves += 1;
            w.route[client] = g;
            w.return_pending[client] = false;
        }
        Bh2Decision::ReturnHome => {
            if cur_load > params.high_threshold {
                w.stats.bh2_returns_overload += 1;
            } else {
                w.stats.bh2_returns_backup += 1;
            }
            match w.gateways[home].state() {
                GwState::Online => {
                    w.route[client] = home;
                    w.return_pending[client] = false;
                }
                GwState::Sleeping => {
                    // Wake home; keep routing through the remote until it is
                    // operative (§5.1).
                    w.wake_gateway(s, now, home);
                    w.stats.wakes_return_home += 1;
                    w.await_return(client, home);
                }
                GwState::Waking => {
                    w.await_return(client, home);
                }
            }
        }
    }
}

/// Builds one re-solve's [`SolverInput`] from the demand windows at `now`
/// (§5.1: demands from the last minute of the trace).
fn optimal_solver_input(
    cfg: &ScenarioConfig,
    topo: &Topology,
    client_load: &mut [LoadWindow],
    now: SimTime,
) -> SolverInput {
    let now_ms = now.as_millis();
    let usable = cfg.q_max_utilization * cfg.backhaul_bps;
    let mut demands = Vec::new();
    let mut reach = Vec::new();
    for c in 0..topo.n_clients() {
        // Offered bytes over the window can momentarily exceed what a line
        // can carry (a bulk burst lands in one minute); the carried rate is
        // physically capped, so clip demands at the usable capacity to keep
        // Eq. (1) feasible — such a user simply occupies a gateway alone.
        let d = client_load[c].rate_bps(now_ms).min(usable);
        if d > 0.0 {
            demands.push(d);
            reach.push(topo.reachable(c).iter().map(|l| (l.gateway, l.rate_bps)).collect());
        }
    }
    let n_gw = topo.n_gateways();
    let capacity = vec![usable; n_gw];
    SolverInput::new(demands, reach, n_gw, capacity, 0).expect("well-formed solver input")
}

/// Pre-solves every Optimal re-solve tick before the event loop runs.
///
/// Optimal never simulates flows, so the demand windows feeding each
/// re-solve depend only on the arrival prefix up to the tick time — never
/// on gateway state, RNG draws or solver outputs. This is the scheme's one
/// demand sweep: it drains `arrivals` up to the first flow past the last
/// tick, snapshots one [`SolverInput`] per tick, and fans the (pure) solves
/// out over at most `threads` workers as one in-order [`par_fold_grouped`]
/// group — plan entry `k` is tick `k`'s online set regardless of which
/// worker produced it, so the plan is byte-identical at any thread count.
///
/// Tick times mirror the scheduling rule exactly: the first tick fires at
/// `t = 0`, and each delivered tick schedules a successor only while
/// `now + optimal_period < horizon`.
fn precompute_optimal_plan(
    cfg: &ScenarioConfig,
    topo: &Topology,
    arrivals: &mut ArrivalSource<'_>,
    threads: usize,
) -> Vec<Vec<usize>> {
    let horizon = cfg.horizon();
    let mut ticks = vec![SimTime::ZERO];
    let mut t = SimTime::ZERO + cfg.optimal_period;
    while t < horizon {
        ticks.push(t);
        t += cfg.optimal_period;
    }

    let mut client_load: Vec<LoadWindow> =
        (0..topo.n_clients()).map(|_| LoadWindow::new(cfg.optimal_period.as_millis())).collect();
    let mut idx = 0usize;
    let mut next = arrivals.next(idx);
    let mut inputs = Vec::with_capacity(ticks.len());
    for &tick in &ticks {
        while let Some(f) = next {
            if f.start > tick {
                break;
            }
            client_load[f.client.index()].add(f.start.as_millis(), f.bytes);
            idx += 1;
            next = arrivals.next(idx);
        }
        inputs.push(optimal_solver_input(cfg, topo, &mut client_load, tick));
    }
    let tasks: Vec<(usize, usize)> = (0..inputs.len()).map(|i| (0, i)).collect();
    let mut plan = Vec::with_capacity(inputs.len());
    par_fold_grouped(
        &tasks,
        threads,
        |i| solve(&inputs[i]).online,
        |_, _, online| plan.push(online),
    );
    plan
}

/// One Optimal re-solve tick (§5.1): apply the pre-solved plan (see
/// [`precompute_optimal_plan`]), instant migration, full-switch repack.
fn optimal_tick(s: &mut Scheduler<Ev>, w: &mut World<'_>, now: SimTime) {
    // Consume the pre-solved plan strictly by tick index.
    let tick = w.optimal_tick_idx;
    w.optimal_tick_idx += 1;
    let n_gw = w.n_gateways();
    w.want.clear();
    w.want.resize(n_gw, false);
    for &g in &w.optimal_plan[tick] {
        w.want[g] = true;
    }
    for gw in 0..n_gw {
        match (w.want[gw], w.gateways[gw].state()) {
            (true, GwState::Sleeping) => {
                w.wake_gateway(s, now, gw);
                w.stats.wakes_optimal += 1;
            }
            (false, GwState::Online) => w.sleep_gateway(s, now, gw),
            _ => {}
        }
    }
    let before = w.isp_draw_w();
    w.dslam.repack_full_switch(now);
    w.transitions_w += (w.isp_draw_w() - before).abs();
}

/// Averaged results of all repetitions of one scheme, built by
/// [`SchemeFolder::finish`].
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// The scheme.
    pub spec: SchemeSpec,
    /// Sampling period, seconds.
    pub sample_period_s: f64,
    /// Mean powered gateways per sample (summed over shards).
    pub powered_gateways: Vec<f64>,
    /// Mean awake cards per sample (summed over shards).
    pub awake_cards: Vec<f64>,
    /// Mean user-side power per sample, W (summed over shards).
    pub user_power_w: Vec<f64>,
    /// Mean ISP-side power per sample, W (summed over shards).
    pub isp_power_w: Vec<f64>,
    /// Mean energy breakdown over the day.
    pub energy: EnergyBreakdown,
    /// Per-repetition completion accounting, shards merged in shard order
    /// within each repetition (per-flow vectors retained only under the
    /// scenario's `completion_cutoff` — the Fig. 9a pairing input).
    pub completion: Vec<CompletionStats>,
    /// Per-repetition per-gateway online-time accounting, shards absorbed
    /// in shard order within each repetition. While the gateway count sits
    /// under the scenario's `online_cutoff` the raw positional samples
    /// survive (gateway `g` of shard `s` at `s`'s gateway offset + `g` —
    /// the Fig. 9b pairing input); past it only the log-bucket histogram
    /// remains, `O(buckets)` per repetition instead of one `f64` per
    /// gateway.
    pub online_time: Vec<OnlineTimeHist>,
    /// Mean wake cycles per gateway per day.
    pub mean_wake_count: f64,
    /// Deterministic work counters, merged over every `(repetition ×
    /// shard)` task (order-invariant — byte-identical at any thread
    /// count; `counters.delivered()` is the scheduler events delivered).
    pub counters: RunCounters,
    /// Wall-clock the deterministic in-order folder spent absorbing task
    /// results and finishing, milliseconds; the batch runner adds the
    /// time of building the job's record (scheduling-dependent; sidecar
    /// telemetry only, never the result JSONL).
    pub fold_ms: f64,
    /// Per-shard aggregates, in shard order (one entry for unsharded runs).
    pub shard_summaries: Vec<ShardSummary>,
}

/// Per-shard aggregate of one scheme run (averaged over repetitions).
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Clients simulated in the shard.
    pub n_clients: usize,
    /// Gateways in the shard.
    pub n_gateways: usize,
    /// Trace flows of the shard.
    pub n_flows: usize,
    /// Mean energy over the day, joules.
    pub energy_j: f64,
    /// Mean powered gateways over the day.
    pub mean_gateways: f64,
    /// Mean wake cycles per gateway per day.
    pub mean_wake_count: f64,
}

impl SchemeResult {
    /// Mean total power per sample, W.
    pub fn total_power_w(&self) -> Vec<f64> {
        self.user_power_w.iter().zip(&self.isp_power_w).map(|(u, i)| u + i).collect()
    }

    /// Pools the completion accounting of every repetition — the input to
    /// the JSONL tail quantiles. Exact (byte-identical to sorting the
    /// pooled per-flow samples) while the pooled flow count stays under
    /// the scenario's `completion_cutoff`.
    pub fn pooled_completion(&self) -> CompletionStats {
        CompletionStats::pooled(&self.completion)
    }

    /// Pools the online-time histograms of every repetition, in repetition
    /// order — the input to the JSONL online-time quantile grid. Exact
    /// while the pooled gateway count stays under the scenario's
    /// `online_cutoff`.
    pub fn pooled_online(&self) -> OnlineTimeHist {
        let mut iter = self.online_time.iter();
        let Some(first) = iter.next() else {
            return OnlineTimeHist::new(0);
        };
        let mut out = first.clone();
        for h in iter {
            out.merge(h);
        }
        out
    }
}

/// Builds the client↔gateway reachability graph for one (shard's) home
/// assignment — the topology half of [`ShardedWorld::build_shard`].
fn build_topology(
    cfg: &ScenarioConfig,
    home: &[usize],
    n_gateways: usize,
    rng: &mut SimRng,
) -> Topology {
    match cfg.topology {
        TopologyKind::Overlap => {
            overlap_topology(home, n_gateways, cfg.mean_networks_in_range, cfg.channel, rng)
        }
        TopologyKind::Binomial => {
            binomial_topology(home, n_gateways, cfg.mean_networks_in_range, cfg.channel, rng)
        }
    }
    .expect("valid scenario topology")
}

/// One scenario's world: `cfg.shards` independent DSLAM neighborhoods,
/// each a `(Trace, Topology)` pair with local client/gateway indices.
///
/// Per shard only its span (planned once, here) and, on a
/// [`shared`](Self::shared) world, its prototype slot are stored: each
/// `(repetition × shard)` task builds its shard *inside the worker* —
/// streaming the trace, never materializing flows — and drops it on
/// completion, so peak RSS is O(worker threads × shard), not O(world).
/// Shard builds are index-addressed pure functions of `(config, seed,
/// shard)` ([`build_shard`](Self::build_shard)).
///
/// A shared world's slot hands out one refcounted prototype per shard and
/// counts down its consumers (the repetitions of one run, or every scheme
/// × repetition of a batch world), dropping its own reference at the last
/// [`claim`](Self::claim) or [`skip`](Self::skip). Under the batch
/// runner's shard-major schedule a shard's consumers run consecutively, so
/// at most O(worker threads) prototypes are ever live.
pub struct ShardedWorld {
    cfg: ScenarioConfig,
    seed: u64,
    /// Each shard's slice of the population, from [`shard_spans`].
    spans: Vec<ShardSpan>,
    /// One prototype slot per shard on a shared world; empty otherwise.
    slots: Vec<Mutex<ProtoSlot>>,
}

impl ShardedWorld {
    /// An unshared world: shard `s` is built on demand (and dropped after
    /// use) by whichever worker runs it, via the streaming generator. The
    /// config must validate; population counts are answered from it
    /// without building anything.
    pub fn lazy(cfg: &ScenarioConfig, seed: u64) -> Self {
        Self::shared(cfg, seed, 1)
    }

    /// A world whose shards are each consumed exactly
    /// `consumers_per_shard` times, sharing one prototype per shard; below
    /// two consumers it is [`lazy`](Self::lazy).
    pub fn shared(cfg: &ScenarioConfig, seed: u64, consumers_per_shard: usize) -> Self {
        cfg.validate().expect("validated config");
        let spans = shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards)
            .expect("validated shard split");
        let slots = if consumers_per_shard < 2 {
            Vec::new()
        } else {
            let slot = || Mutex::new(ProtoSlot { proto: None, remaining: consumers_per_shard });
            (0..spans.len()).map(|_| slot()).collect()
        };
        ShardedWorld { cfg: cfg.clone(), seed, spans, slots }
    }

    /// The scenario config every task of this world runs.
    pub fn cfg(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The world's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.spans.len()
    }

    /// Total clients across shards.
    pub fn n_clients(&self) -> usize {
        self.cfg.trace.n_clients
    }

    /// Total gateways across shards.
    pub fn n_gateways(&self) -> usize {
        self.cfg.trace.n_aps
    }

    /// Claims shard `shard`'s prototype for one task. Take it exactly once
    /// per task — outside any retry loop — so the refcount stays exact:
    /// the slot's own reference drops with the last claim, leaving the
    /// in-flight claims as the only owners. An unshared world's claim holds
    /// nothing, and its task builds its own shard.
    pub fn claim(&self, shard: usize) -> ProtoClaim {
        let proto = self.slots.get(shard).map(|slot| {
            let mut slot = slot.lock().expect("proto slot lock");
            let proto = slot.proto.get_or_insert_with(Default::default).clone();
            slot.release();
            proto
        });
        ProtoClaim { proto, built: false }
    }

    /// Releases one consumer's claim without touching the prototype — the
    /// checkpoint-replay path, where a resumed task never simulates. Keeps
    /// the refcount exact so a partially resumed run still frees each
    /// shard's prototype at its true last consumer.
    pub fn skip(&self, shard: usize) {
        if let Some(slot) = self.slots.get(shard) {
            slot.lock().expect("proto slot lock").release();
        }
    }

    /// Builds shard `shard` from the master seed: its trace as an
    /// unconsumed [`FlowStream`] (O(clients) state; collect it for a
    /// materialized [`Trace`]), its topology, and the wall-clock of the
    /// topology build, milliseconds — the one world-build recipe (the
    /// paper uses one trace and one topology per world; randomness lives
    /// in the algorithms).
    ///
    /// A one-shard world draws its trace from `master.fork("trace")` and
    /// its topology from `master.fork("topology")`; with more shards,
    /// shard `s` draws from `master.fork_idx("shard-trace", s)` /
    /// `fork_idx("shard-topology", s)` over its span-sized population, so
    /// shards are decorrelated and each is independent of how many others
    /// exist or who builds them. `tests/streaming.rs` pins the collected
    /// trace to the eager generator's on those forks.
    pub fn build_shard(&self, shard: usize) -> (FlowStream, Topology, f64) {
        let master = SimRng::new(self.seed);
        let span = self.spans[shard];
        let mut shard_trace = self.cfg.trace.clone();
        shard_trace.n_clients = span.n_clients;
        shard_trace.n_aps = span.n_gateways;
        let (mut trace_rng, mut topo_rng) = if self.spans.len() == 1 {
            (master.fork("trace"), master.fork("topology"))
        } else {
            (
                master.fork_idx("shard-trace", shard as u64),
                master.fork_idx("shard-topology", shard as u64),
            )
        };
        let stream = FlowStream::new(&shard_trace, &mut trace_rng);
        let topo_start = std::time::Instant::now();
        let home: Vec<usize> = stream.home().iter().map(|ap| ap.index()).collect();
        let topo = build_topology(&self.cfg, &home, shard_trace.n_aps, &mut topo_rng);
        (stream, topo, topo_start.elapsed().as_secs_f64() * 1e3)
    }
}

/// The one live repetition accumulator of the shard fold: shard runs of
/// repetition `r` are absorbed in shard order (series summed sample-wise,
/// energies summed, completion sketches and online-time histograms
/// `absorb()`ed/`record()`ed in shard order — the exact arithmetic order
/// of the historical collect-then-merge, so results are bit-identical),
/// then the finalized repetition's series are added into the folder's
/// running sums, its other products pushed, and the accumulator dropped.
/// At most one `RepAccum` is alive at a time; nothing O(total gateways)
/// or O(rep × shard) survives a task's fold.
struct RepAccum {
    series: SeriesSums,
    energy: EnergyBreakdown,
    completion: CompletionStats,
    online: OnlineTimeHist,
    wake_total: u64,
}

impl RepAccum {
    /// Starts a repetition from shard 0's run (vectors moved, not copied).
    fn start(mut run: RunResult, online_cutoff: usize) -> RepAccum {
        let mut online = OnlineTimeHist::new(online_cutoff);
        for &s in &run.gateway_online_s {
            online.record(s);
        }
        RepAccum {
            series: SeriesSums::take(&mut run),
            energy: run.energy,
            completion: run.completion,
            online,
            wake_total: run.wake_counts.iter().sum(),
        }
    }

    /// Absorbs the next shard's run, in shard order.
    fn absorb(&mut self, mut run: RunResult) {
        self.series.add(&SeriesSums::take(&mut run));
        self.energy = self.energy.plus(&run.energy);
        self.completion.absorb(run.completion);
        for &s in &run.gateway_online_s {
            self.online.record(s);
        }
        self.wake_total += run.wake_counts.iter().sum::<u64>();
    }
}

/// A run's four per-sample series (powered gateways, awake cards, user
/// and ISP watts), summed sample-wise across shards and then across
/// repetitions.
struct SeriesSums {
    powered: Vec<f64>,
    cards: Vec<f64>,
    user_w: Vec<f64>,
    isp_w: Vec<f64>,
}

impl SeriesSums {
    /// Moves the four series out of `run`.
    fn take(run: &mut RunResult) -> SeriesSums {
        SeriesSums {
            powered: std::mem::take(&mut run.powered_gateways),
            cards: std::mem::take(&mut run.awake_cards),
            user_w: std::mem::take(&mut run.user_power_w),
            isp_w: std::mem::take(&mut run.isp_power_w),
        }
    }

    fn each_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [&mut self.powered, &mut self.cards, &mut self.user_w, &mut self.isp_w]
    }

    /// Adds `other` sample by sample.
    fn add(&mut self, other: &SeriesSums) {
        let others = [&other.powered, &other.cards, &other.user_w, &other.isp_w];
        for (acc, v) in self.each_mut().into_iter().zip(others) {
            debug_assert_eq!(acc.len(), v.len(), "misaligned series");
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
    }
}

/// Per-shard scalar aggregates of the fold — the `O(shards)` state behind
/// [`ShardSummary`]; repetitions accumulate in repetition order (the fold
/// is repetition-major), matching the historical summation order.
#[derive(Clone, Copy, Default)]
struct ShardAccum {
    n_flows: usize,
    energy_j: f64,
    mean_gateways: f64,
    mean_wake_count: f64,
}

/// Optimal's pre-solved plan: the gateways each re-solve tick wants online,
/// indexed by tick number.
type OptimalPlan = Arc<Vec<Vec<usize>>>;

/// One shard's shared world prototype, built lazily by whichever consumer
/// reaches each cell first and shared by every other.
#[derive(Default)]
struct ShardCells {
    /// The stream (replay cache enabled, recording pre-published) plus
    /// topology; consumers clone the stream.
    world: OnceLock<(FlowStream, Topology)>,
    /// Optimal's plan over `world`, solved by the shard's first Optimal
    /// consumer. The plan is a pure function of the config, the topology
    /// and the arrival stream — never of the RNG — so the world's one
    /// config keys it by the shard alone.
    optimal_plan: OnceLock<OptimalPlan>,
}

/// A shard's cells, refcounted across its consumers.
type ShardProto = Arc<ShardCells>;

/// One shard's prototype slot on a shared [`ShardedWorld`].
struct ProtoSlot {
    proto: Option<ShardProto>,
    remaining: usize,
}

impl ProtoSlot {
    /// Counts one consumer off; the last one drops the slot's reference.
    fn release(&mut self) {
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            self.proto = None;
        }
    }
}

/// One task's claim on its shard's prototype ([`ShardedWorld::claim`]). It
/// records whether any attempt holding it built the prototype — sticky
/// across retries, since a builder attempt that panics after the build
/// never returns — and writes the task's one build-or-hit attribution. On
/// an unshared world it holds nothing.
pub struct ProtoClaim {
    proto: Option<ShardProto>,
    built: bool,
}

impl ProtoClaim {
    /// Adds the task's prototype use to `counters`: a build if any of its
    /// attempts built the prototype, else a hit; nothing on an unshared
    /// world. Per-task attribution is scheduling-dependent (whoever
    /// reaches the cell first builds), but the totals are exact: one build
    /// per shard, every other consumer a hit.
    pub fn attribute(&self, counters: &mut RunCounters) {
        if self.proto.is_none() {
            return;
        }
        if self.built {
            counters.proto_cache_builds += 1;
        } else {
            counters.proto_cache_hits += 1;
        }
    }
}

/// The deterministic in-order fold state of one scheme run: absorbs
/// `(repetition × shard)` task results **strictly in task order**
/// (repetition-major, shard-minor) and finalizes into a [`SchemeResult`].
///
/// The batch runner keeps one folder per job and feeds them all from a
/// single interleaved worker pool. Absorb order defines the bytes — the
/// arithmetic is exactly the historical collect-then-merge, so aggregates
/// are bit-identical at any thread count and under any task interleaving
/// that preserves per-job order. [`finish`](Self::finish) is the one
/// constructor of a [`SchemeResult`].
pub struct SchemeFolder {
    spec: SchemeSpec,
    reps: usize,
    online_cutoff: usize,
    sample_period_s: f64,
    n_gateways: usize,
    /// The world's shard plan, copied so absorbs stay O(1).
    spans: Vec<ShardSpan>,
    shard_acc: Vec<ShardAccum>,
    rep_acc: Option<RepAccum>,
    /// The finished repetitions' series, summed in repetition order;
    /// `finish` divides by the repetition count.
    series: Option<SeriesSums>,
    energy: EnergyBreakdown,
    completions: Vec<CompletionStats>,
    online_time: Vec<OnlineTimeHist>,
    wakes: f64,
    counters: RunCounters,
    fold_ms: f64,
}

impl SchemeFolder {
    /// A folder for one scheme run over `world`.
    pub fn new(cfg: &ScenarioConfig, spec: SchemeSpec, world: &ShardedWorld) -> SchemeFolder {
        SchemeFolder {
            spec,
            reps: cfg.repetitions,
            online_cutoff: cfg.online_cutoff,
            sample_period_s: cfg.sample_period.as_secs_f64(),
            n_gateways: world.n_gateways(),
            spans: world.spans.clone(),
            shard_acc: vec![ShardAccum::default(); world.n_shards()],
            rep_acc: None,
            series: None,
            energy: EnergyBreakdown::default(),
            completions: Vec::new(),
            online_time: Vec::new(),
            wakes: 0.0,
            counters: RunCounters::default(),
            fold_ms: 0.0,
        }
    }

    /// Total `(repetition × shard)` tasks this folder expects.
    pub fn n_tasks(&self) -> usize {
        self.reps * self.spans.len()
    }

    /// Absorbs task `index`'s result. Must be called exactly once per task,
    /// strictly in increasing `index` order.
    pub fn absorb(&mut self, index: usize, run: RunResult) {
        let fold_start = std::time::Instant::now();
        let n_shards = self.spans.len();
        let (rep, sh) = (index / n_shards, index % n_shards);

        // Counters merge order-invariantly (sums and maxes), so the total
        // is byte-identical at any thread count even though the fold
        // itself runs in task order.
        self.counters.merge(&run.counters);
        self.counters.fold_absorptions += 1;

        // Per-shard scalar summaries, accumulated in repetition order.
        let sa = &mut self.shard_acc[sh];
        let shard_gateways = self.spans[sh].n_gateways;
        if rep == 0 {
            // Every repetition drives the same shard trace; read the flow
            // count from the run so the world never has to materialize (or
            // regenerate) one just to count it.
            sa.n_flows = run.completion.total_flows() as usize;
        }
        sa.energy_j += run.energy.total_j();
        sa.mean_gateways +=
            run.powered_gateways.iter().sum::<f64>() / run.powered_gateways.len().max(1) as f64;
        sa.mean_wake_count +=
            run.wake_counts.iter().sum::<u64>() as f64 / shard_gateways.max(1) as f64;

        // The repetition merge proper: shard 0 starts the accumulator,
        // later shards absorb in shard order, the last shard finalizes.
        if let Some(acc) = self.rep_acc.as_mut() {
            acc.absorb(run);
        } else {
            self.rep_acc = Some(RepAccum::start(run, self.online_cutoff));
        }
        if sh == n_shards - 1 {
            let acc = self.rep_acc.take().expect("repetition in progress");
            match &mut self.series {
                Some(sums) => sums.add(&acc.series),
                None => self.series = Some(acc.series),
            }
            self.energy = self.energy.plus(&acc.energy);
            self.completions.push(acc.completion);
            self.online_time.push(acc.online);
            self.wakes += acc.wake_total as f64 / self.n_gateways as f64;
        }
        self.fold_ms += fold_start.elapsed().as_secs_f64() * 1e3;
    }

    /// Finalizes the averaged [`SchemeResult`] after the last absorb.
    pub fn finish(self) -> SchemeResult {
        let finish_start = std::time::Instant::now();
        let k = self.reps as f64;
        let shard_summaries: Vec<ShardSummary> = (self.shard_acc.into_iter().zip(self.spans))
            .map(|(sa, span)| ShardSummary {
                n_clients: span.n_clients,
                n_gateways: span.n_gateways,
                n_flows: sa.n_flows,
                energy_j: sa.energy_j / k,
                mean_gateways: sa.mean_gateways / k,
                mean_wake_count: sa.mean_wake_count / k,
            })
            .collect();

        // Dividing the running sums gives `average_runs`'s values exactly:
        // the series are non-negative, so its `0.0 +` first term is exact.
        let mut series = self.series.expect("at least one finished repetition");
        for v in series.each_mut() {
            for x in v.iter_mut() {
                *x /= k;
            }
        }
        SchemeResult {
            spec: self.spec,
            sample_period_s: self.sample_period_s,
            powered_gateways: series.powered,
            awake_cards: series.cards,
            user_power_w: series.user_w,
            isp_power_w: series.isp_w,
            energy: EnergyBreakdown {
                user_j: self.energy.user_j / k,
                modems_j: self.energy.modems_j / k,
                cards_j: self.energy.cards_j / k,
                shelf_j: self.energy.shelf_j / k,
            },
            completion: self.completions,
            online_time: self.online_time,
            mean_wake_count: self.wakes / k,
            counters: self.counters,
            fold_ms: self.fold_ms + finish_start.elapsed().as_secs_f64() * 1e3,
            shard_summaries,
        }
    }
}

/// Wall-clock of one task's world build, milliseconds (scheduling-dependent;
/// both 0 for a prototype-cache hit).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskSetup {
    /// The whole world build: stream setup plus topology.
    pub setup_ms: f64,
    /// The topology part of `setup_ms`.
    pub topology_ms: f64,
}

/// Runs one attempt of `(repetition × shard)` task `i` of the scheme run
/// `(spec, world)`, where `i = rep * n_shards + shard`, under the world's
/// config and seed. Returns the task's result and its world-build
/// wall-clock ([`TaskSetup`]).
///
/// Repetition `r` of shard `s` draws from `SimRng::new(seed).fork_idx("rep",
/// r).fork_idx("shard", s)` (the `"shard"` fork skipped for one-shard
/// worlds, which keeps `shards = 1` byte-identical to the pre-shard
/// driver). The stream depends on nothing else — never the attempt — so a
/// retried attempt is byte-identical, and results absorbed into a
/// [`SchemeFolder`] strictly in `i` order are the same whatever ran them.
///
/// The shard is built here, in the worker, streaming, and dropped on
/// return. On a shared world (every consumer of a shard drives the
/// identical trace: the world-build RNG forks depend only on `(seed,
/// shard)`), the first consumer to reach the `claim`'s cell builds the
/// stream once — replay cache enabled, its recording published up front
/// by draining a throwaway clone — and every other consumer clones the
/// prototype and replays the recording instead of re-running the setup
/// pass. The up-front drain keeps each consumer's own stream work counters
/// deterministic: no consumer ever races the recording's publication. The
/// shard's first Optimal consumer likewise solves Optimal's plan once for
/// every later one (later repetitions and retried attempts). An unshared
/// world's tasks (the giga/tera smokes' single-consumer worlds) keep the
/// build-and-drop path and solve their own plan.
pub fn run_scheme_task(
    spec: SchemeSpec,
    world: &ShardedWorld,
    i: usize,
    claim: &mut ProtoClaim,
) -> (RunResult, TaskSetup) {
    let cfg = world.cfg();
    let n_shards = world.n_shards();
    let (rep, sh) = (i / n_shards, i % n_shards);
    // Forks are id-based and non-mutating, so re-deriving the master per
    // task reproduces a whole-run pool's streams exactly.
    let rep_rng = SimRng::new(world.seed).fork_idx("rep", rep as u64);
    let rng = if n_shards == 1 { rep_rng } else { rep_rng.fork_idx("shard", sh as u64) };
    // Tasks already saturate the worker pool, so the per-run Optimal
    // pre-solve fan-out is pinned to one thread here: parallelism lives at
    // exactly one level, never nested (the result is byte-identical either
    // way).
    let single = move |arrivals: ArrivalSource<'_>, topo: &Topology, plan: Option<OptimalPlan>| {
        run_single(cfg, spec, arrivals, topo, rng, plan, 1)
    };
    let setup_start = std::time::Instant::now();
    let Some(proto) = &claim.proto else {
        let (stream, topo, topology_ms) = world.build_shard(sh);
        let setup = TaskSetup { setup_ms: setup_start.elapsed().as_secs_f64() * 1e3, topology_ms };
        return (single(ArrivalSource::Stream(Box::new(stream)), &topo, None), setup);
    };
    let mut built_topology_ms = None;
    let (stream_proto, topo) = proto.world.get_or_init(|| {
        let (mut s, t, topology_ms) = world.build_shard(sh);
        built_topology_ms = Some(topology_ms);
        if s.enable_replay_cache() {
            // Publish the recording before any consumer runs: drain a
            // throwaway clone so every consumer — this one included —
            // replays.
            let mut probe = s.clone();
            while probe.next_flow().is_some() {}
        }
        (s, t)
    });
    // A panicking init leaves the cell empty (OnceLock does not poison), so
    // a retried builder rebuilds safely; hits attribute zero setup — the one
    // real build is the only setup span of the shard.
    claim.built |= built_topology_ms.is_some();
    let setup = match built_topology_ms {
        Some(topology_ms) => {
            TaskSetup { setup_ms: setup_start.elapsed().as_secs_f64() * 1e3, topology_ms }
        }
        None => TaskSetup::default(),
    };
    // Optimal's plan is shared the same way, solved after `setup` is taken
    // so its time counts toward the task's event loop. The solving task's
    // pre-pass drains its own stream clone, which its event loop never
    // reads. A panicking solve leaves this cell empty too, and the retry
    // re-solves.
    let mut arrivals = ArrivalSource::Stream(Box::new(stream_proto.clone()));
    let plan = (spec.aggregation == Aggregation::Optimal).then(|| {
        let solve = || Arc::new(precompute_optimal_plan(cfg, topo, &mut arrivals, 1));
        Arc::clone(proto.optimal_plan.get_or_init(solve))
    });
    (single(arrivals, topo, plan), setup)
}

/// Compile-time guarantee that everything a batch job needs can cross
/// thread boundaries (worker threads borrow these).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScenarioConfig>();
    assert_send_sync::<SchemeSpec>();
    assert_send_sync::<Trace>();
    assert_send_sync::<Topology>();
    assert_send_sync::<ShardedWorld>();
    assert_send_sync::<SchemeResult>();
    assert_send_sync::<RunResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::smoke();
        cfg.trace.horizon = SimTime::from_hours(3);
        cfg.repetitions = 1;
        cfg
    }

    /// One day over a materialized trace.
    fn run_slice(
        cfg: &ScenarioConfig,
        spec: SchemeSpec,
        trace: &Trace,
        topo: &Topology,
        rng: SimRng,
    ) -> RunResult {
        run_single_source_threads(cfg, spec, ArrivalSource::Slice(&trace.flows), topo, rng, 1)
    }

    /// A whole `spec` run over the world `(cfg, seed)`, as the batch runner
    /// runs one job: each task claims its shard of a world shared by the
    /// run's repetitions, and results fold in task order.
    fn run_shared(cfg: &ScenarioConfig, spec: SchemeSpec, seed: u64) -> SchemeResult {
        let world = &ShardedWorld::shared(cfg, seed, cfg.repetitions);
        fold_tasks(spec, world, |i| claimed_task(spec, world, i))
    }

    /// Task `i` of `spec` over `world`, claimed and attributed the way the
    /// batch runner runs one.
    fn claimed_task(spec: SchemeSpec, world: &ShardedWorld, i: usize) -> RunResult {
        let mut claim = world.claim(i % world.n_shards());
        let (mut run, _) = run_scheme_task(spec, world, i, &mut claim);
        claim.attribute(&mut run.counters);
        run
    }

    /// Folds a `spec` run over `world` task by task, the way a crash-safe
    /// runner drives core: `task(i)` yields task `i`'s result, which is
    /// absorbed in task order.
    fn fold_tasks(
        spec: SchemeSpec,
        world: &ShardedWorld,
        mut task: impl FnMut(usize) -> RunResult,
    ) -> SchemeResult {
        let mut folder = SchemeFolder::new(world.cfg(), spec, world);
        for i in 0..folder.n_tasks() {
            folder.absorb(i, task(i));
        }
        folder.finish()
    }

    #[test]
    fn every_scheme_conserves_flows_and_bounds_online_time() {
        let cfg = ScenarioConfig::smoke();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let horizon_s = cfg.horizon().as_secs_f64();
        for spec in [
            SchemeSpec::no_sleep(),
            SchemeSpec::soi(),
            SchemeSpec::soi_k_switch(),
            SchemeSpec::soi_full_switch(),
            SchemeSpec::bh2_k_switch(),
            SchemeSpec::bh2_no_backup_k_switch(),
            SchemeSpec::bh2_full_switch(),
            SchemeSpec::optimal(),
            SchemeSpec::multi_doze(),
            SchemeSpec::adaptive_soi(),
        ] {
            let r = run_slice(&cfg, spec, &trace, &topo, SimRng::new(4));
            let c = &r.counters;
            assert_eq!(c.flows_total, trace.flows.len() as u64, "{spec}");
            assert_eq!(c.flows_total, r.completion.total_flows(), "{spec}");
            assert_eq!(c.flows_completed, r.completion.completed(), "{spec}");
            // Arrivals = completed + still active at the horizon, and the
            // flows still active can never outnumber the active peak.
            let active_at_horizon = c.arrivals.checked_sub(c.flows_completed).expect("arrivals");
            assert!(active_at_horizon <= c.peak_active_flows, "{spec}");
            let fired = if spec.aggregation == Aggregation::Optimal { 0 } else { c.flows_total };
            assert_eq!(c.arrivals, fired, "{spec}");
            for &online in &r.gateway_online_s {
                assert!((0.0..=horizon_s).contains(&online), "{spec}: online {online} s");
            }
        }
    }

    #[test]
    fn no_sleep_draws_constant_full_power() {
        let cfg = quick_cfg();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let r = run_slice(&cfg, SchemeSpec::no_sleep(), &trace, &topo, SimRng::new(1));
        let base_user = cfg.power.no_sleep_user_w(10);
        let base_isp = cfg.power.no_sleep_isp_w(10, 4);
        for (u, i) in r.user_power_w.iter().zip(&r.isp_power_w) {
            assert!((u - base_user).abs() < 1e-9, "user power {u} != {base_user}");
            assert!((i - base_isp).abs() < 1e-9, "isp power {i} != {base_isp}");
        }
        // Energy equals power × horizon.
        let secs = cfg.horizon().as_secs_f64();
        assert!((r.energy.total_j() - (base_user + base_isp) * secs).abs() < 1.0);
    }

    #[test]
    fn soi_saves_energy_and_completes_flows() {
        let cfg = quick_cfg();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let base = run_slice(&cfg, SchemeSpec::no_sleep(), &trace, &topo, SimRng::new(1));
        let soi = run_slice(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(1));
        assert!(
            soi.energy.total_j() < base.energy.total_j(),
            "SoI must beat no-sleep: {} vs {}",
            soi.energy.total_j(),
            base.energy.total_j()
        );
        // Most flows complete under both.
        let done = |r: &RunResult| r.completion.completed();
        assert!(done(&soi) as f64 > 0.9 * done(&base) as f64);
        // No-sleep completions are never slower than SoI on average.
        let mean = |r: &RunResult| {
            let xs: Vec<f64> =
                r.completion.per_flow().expect("retained").iter().flatten().copied().collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(mean(&soi) >= mean(&base) - 1e-9);
    }

    #[test]
    fn bh2_powers_fewer_gateways_than_soi() {
        let mut cfg = quick_cfg();
        cfg.trace.horizon = SimTime::from_hours(6);
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let soi = run_slice(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(2));
        let bh2 = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(2));
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let soi_gw = mean(&soi.powered_gateways);
        let bh2_gw = mean(&bh2.powered_gateways);
        assert!(
            bh2_gw < soi_gw,
            "BH2 must aggregate: {bh2_gw:.2} vs SoI {soi_gw:.2} powered gateways"
        );
        assert!(bh2.energy.total_j() < soi.energy.total_j());
    }

    #[test]
    fn optimal_uses_fewest_gateways() {
        let mut cfg = quick_cfg();
        cfg.trace.horizon = SimTime::from_hours(6);
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let soi = run_slice(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(3));
        let bh2 = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(3));
        let opt = run_slice(&cfg, SchemeSpec::optimal(), &trace, &topo, SimRng::new(3));
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean(&opt.powered_gateways) <= mean(&bh2.powered_gateways) + 0.5);
        assert!(mean(&opt.powered_gateways) < mean(&soi.powered_gateways));
        assert!(opt.energy.total_j() < soi.energy.total_j());
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = quick_cfg();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let a = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(7));
        let b = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(7));
        assert_eq!(a.energy.total_j(), b.energy.total_j());
        assert_eq!(a.powered_gateways, b.powered_gateways);
        assert_eq!(a.completion.per_flow(), b.completion.per_flow());
        assert!(a.completion.per_flow().is_some(), "small run retains per-flow samples");
    }

    #[test]
    fn energy_breakdown_consistent_with_series() {
        // Integrating the sampled power series must approximate the metered
        // energy for every scheme (they use the same state, different
        // paths). The sampler misprices each state change by at most one
        // period, so the gap shrinks with transitions per sample; the worst
        // scheme here (SoI, 70 wakes over 10 800 samples) is off by 0.036%,
        // far inside the 2% bound.
        let cfg = quick_cfg();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        for spec in [
            SchemeSpec::no_sleep(),
            SchemeSpec::soi(),
            SchemeSpec::soi_k_switch(),
            SchemeSpec::soi_full_switch(),
            SchemeSpec::bh2_k_switch(),
            SchemeSpec::bh2_no_backup_k_switch(),
            SchemeSpec::bh2_full_switch(),
            SchemeSpec::optimal(),
            SchemeSpec::multi_doze(),
            SchemeSpec::adaptive_soi(),
        ] {
            let r = run_slice(&cfg, spec, &trace, &topo, SimRng::new(4));
            let dt = r.sample_period_s;
            let series_j: f64 =
                r.user_power_w.iter().zip(&r.isp_power_w).map(|(u, i)| (u + i) * dt).sum();
            let metered = r.energy.total_j();
            let rel = (series_j - metered).abs() / metered;
            assert!(rel < 0.02, "{spec}: series {series_j:.0} J vs metered {metered:.0} J");
        }
    }

    #[test]
    fn series_energy_bound_covers_steps_and_the_tail() {
        // W = 10 W on [0, 1.5 s) and 20 W on [1.5 s, 3.5 s), sampled every
        // second at 0, 1 and 2 s: the series reads 10 + 10 + 20 = 40 J
        // against 15 + 40 = 55 J metered. The 10 W step misprices half a
        // period (5 J) and the unsampled 0.5 s tail at up to 20 W adds 10 J.
        let (series, metered) = (40.0, 55.0);
        let gap = f64::abs(series - metered);
        assert!(gap <= series_energy_bound(1.0, 10.0, 20.0, 0.5, metered));
        // Without the step's term, or without the tail's, it fails.
        assert!(gap > series_energy_bound(1.0, 0.0, 20.0, 0.5, metered));
        assert!(gap > series_energy_bound(1.0, 10.0, 20.0, 0.0, metered));
        // The transition term is tight: over [0, 3 s), a 10 → 20 W step at
        // 1 s delivered after that instant's sample misprices one whole
        // period, a 10 + 10 + 20 = 40 J series against 10 + 40 = 50 J.
        let (series, metered) = (40.0, 50.0);
        let gap = f64::abs(series - metered);
        assert!(gap <= series_energy_bound(1.0, 10.0, 20.0, 0.0, metered));
        assert!(gap > series_energy_bound(1.0, 9.9, 20.0, 0.0, metered));
        // With no transition and no tail only rounding is forgiven.
        assert!(1e-6 > series_energy_bound(1.0, 0.0, 20.0, 0.0, 100.0));
    }

    #[test]
    fn scheme_runner_averages_reps() {
        let mut cfg = quick_cfg();
        cfg.repetitions = 2;
        let res = run_shared(&cfg, SchemeSpec::soi(), cfg.seed);
        assert_eq!(res.completion.len(), 2);
        assert_eq!(res.online_time.len(), 2);
        assert!(!res.powered_gateways.is_empty());
        assert!(res.counters.delivered() > 0, "telemetry counts the event loop");
        assert_eq!(res.shard_summaries.len(), 1);
        assert_eq!(res.shard_summaries[0].n_gateways, 10);
    }

    fn sharded_cfg(shards: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 136;
        cfg.trace.n_aps = 20;
        cfg.trace.horizon = SimTime::from_hours(2);
        cfg.repetitions = 1;
        cfg.shards = shards;
        cfg.validate().unwrap();
        cfg
    }

    #[test]
    fn one_shard_world_is_byte_identical_to_unsharded_build() {
        let cfg = sharded_cfg(1);
        let world = ShardedWorld::lazy(&cfg, 99);
        assert_eq!((world.spans[0].n_clients, world.spans[0].n_gateways), (136, 20));
        assert_eq!(world.n_shards(), 1);
        let (stream, topo, _) = world.build_shard(0);
        let trace = stream.collect_trace();
        // Its one task, folded, reproduces a single run over the
        // materialized trace exactly (one repetition, whose stream is the
        // unforked-by-shard `"rep"` 0).
        let spec = SchemeSpec::bh2_k_switch();
        let a = run_slice(&cfg, spec, &trace, &topo, SimRng::new(99).fork_idx("rep", 0));
        let b = fold_tasks(spec, &world, |i| claimed_task(spec, &world, i));
        assert_eq!(a.energy.total_j(), b.energy.total_j());
        assert_eq!(a.powered_gateways, b.powered_gateways);
        assert_eq!(a.completion.per_flow(), b.completion[0].per_flow());
        assert_eq!(a.completion.quantiles(&[0.5, 0.95]), b.completion[0].quantiles(&[0.5, 0.95]));
        let wakes = a.wake_counts.iter().sum::<u64>() as f64 / topo.n_gateways() as f64;
        assert_eq!(wakes, b.mean_wake_count);
    }

    #[test]
    fn merged_shards_sum_series_and_concatenate_vectors() {
        let cfg = sharded_cfg(4);
        let r = run_shared(&cfg, SchemeSpec::no_sleep(), 11);
        let world = ShardedWorld::lazy(&cfg, 11);
        let n_flows: usize = (0..4).map(|s| world.build_shard(s).0.total_flows()).sum();
        // No-sleep powers every gateway of every shard, all day.
        for p in &r.powered_gateways {
            assert!((p - 20.0).abs() < 1e-9, "all 20 gateways across 4 shards powered, got {p}");
        }
        assert_eq!(r.online_time[0].gateways(), 20);
        assert_eq!(
            r.online_time[0].per_gateway().expect("small world stays exact").len(),
            20,
            "per-gateway samples concatenate in shard order"
        );
        assert_eq!(r.completion[0].total_flows() as usize, n_flows);
        assert_eq!(r.completion[0].per_flow().expect("small world retains samples").len(), n_flows);
        assert_eq!(r.shard_summaries.len(), 4);
        assert_eq!(r.shard_summaries.iter().map(|s| s.n_clients).sum::<usize>(), 136);
        assert_eq!(r.shard_summaries.iter().map(|s| s.n_flows).sum::<usize>(), n_flows);
        // Four shards mean four DSLAM shelves in the energy ledger.
        let shelf_j = cfg.power.shelf_w * cfg.horizon().as_secs_f64();
        assert!((r.energy.shelf_j - 4.0 * shelf_j).abs() < 1.0);
    }

    #[test]
    fn streaming_cutoff_drops_per_flow_but_keeps_quantiles_close() {
        let mut cfg = sharded_cfg(1);
        let exact = run_shared(&cfg, SchemeSpec::soi(), 9);
        cfg.completion_cutoff = 0;
        let streamed = run_shared(&cfg, SchemeSpec::soi(), 9);
        let e = exact.pooled_completion();
        let s = streamed.pooled_completion();
        assert!(e.per_flow().is_some() && e.is_exact());
        assert!(s.per_flow().is_none() && !s.is_exact());
        assert_eq!(e.completed(), s.completed(), "counts are exact in both tiers");
        let bound = insomnia_simcore::QuantileSketch::relative_error_bound();
        for q in [0.25, 0.5, 0.95] {
            let (ev, sv) = (e.quantile(q).unwrap(), s.quantile(q).unwrap());
            assert!(
                (sv - ev).abs() <= bound * ev.abs() + 1e-12,
                "q {q}: streamed {sv} vs exact {ev}"
            );
        }
    }

    #[test]
    fn world_shard_plan_matches_shard_spans() {
        // 7 shards over 957 clients and 143 gateways: both splits leave a
        // remainder (5 and 3), so leading shards are one larger.
        let mut cfg = sharded_cfg(1);
        cfg.trace.n_clients = 957;
        cfg.trace.n_aps = 143;
        cfg.shards = 7;
        let world = ShardedWorld::lazy(&cfg, 5);
        let spans = shard_spans(957, 143, 7).unwrap();
        assert_ne!(spans[0].n_clients, spans[6].n_clients);
        assert_ne!(spans[0].n_gateways, spans[6].n_gateways);
        for s in [0, 3, 6] {
            let span = spans[s];
            assert_eq!(world.spans[s], span, "shard {s}");
            let (stream, topo, _) = world.build_shard(s);
            assert_eq!(stream.home().len(), span.n_clients, "shard {s} built from its span");
            assert_eq!(topo.n_gateways(), span.n_gateways, "shard {s} built from its span");
        }
    }

    #[test]
    fn scheme_folder_reads_a_large_world_plan() {
        let mut cfg = sharded_cfg(1);
        cfg.trace.n_clients = 4096 * 3 + 1001;
        cfg.trace.n_aps = 4096 * 3 + 77;
        cfg.shards = 4096;
        let world = ShardedWorld::lazy(&cfg, 5);
        let folder = SchemeFolder::new(&cfg, SchemeSpec::soi(), &world);
        let spans = shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, 4096).unwrap();
        assert_eq!(folder.spans, spans);
        assert_eq!(folder.n_tasks(), 4096);
        assert_eq!(folder.n_gateways, world.n_gateways());
        assert_eq!(spans.iter().map(|s| s.n_clients).sum::<usize>(), world.n_clients());
        assert_eq!(spans.iter().map(|s| s.n_gateways).sum::<usize>(), world.n_gateways());
    }

    #[test]
    fn shards_decorrelate_but_preserve_population() {
        let cfg = sharded_cfg(2);
        let world = ShardedWorld::lazy(&cfg, 3);
        let [a, b] = [0, 1].map(|s| world.build_shard(s).0.collect_trace());
        assert_ne!(a.total_bytes(), b.total_bytes(), "shards draw independent streams");
        assert_eq!(a.n_clients() + b.n_clients(), 136);
    }

    #[test]
    fn run_result_wire_form_roundtrips_exactly() {
        let cfg = quick_cfg();
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
        let trace = stream.collect_trace();
        let r = run_slice(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(5));
        let wire = r.to_value();
        let back = RunResult::from_value(&wire).expect("wire form deserializes");
        // The rebuilt result re-serializes to the identical tree: every
        // f64 bit, every sketch bucket, every counter survives the trip.
        assert_eq!(back.to_value(), wire);
        assert_eq!(back.powered_gateways, r.powered_gateways);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.counters, r.counters);
    }

    /// Bit-level equality of every deterministic field of two scheme runs
    /// (recovery counters excluded — they record *how* a run got here).
    fn assert_results_identical(a: &SchemeResult, b: &SchemeResult) {
        assert_eq!(a.powered_gateways, b.powered_gateways);
        assert_eq!(a.awake_cards, b.awake_cards);
        assert_eq!(a.user_power_w, b.user_power_w);
        assert_eq!(a.isp_power_w, b.isp_power_w);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.mean_wake_count.to_bits(), b.mean_wake_count.to_bits());
        assert_eq!(a.completion.len(), b.completion.len());
        for (ca, cb) in a.completion.iter().zip(&b.completion) {
            assert_eq!(ca.to_value(), cb.to_value());
        }
        for (oa, ob) in a.online_time.iter().zip(&b.online_time) {
            assert_eq!(oa.to_value(), ob.to_value());
        }
        let strip = |c: &RunCounters| {
            let mut c = *c;
            c.tasks_retried = 0;
            c.faults_injected = 0;
            c.tasks_resumed = 0;
            c.proto_cache_builds = 0;
            c.proto_cache_hits = 0;
            c
        };
        assert_eq!(strip(&a.counters), strip(&b.counters));
    }

    #[test]
    fn transient_fault_with_retry_changes_no_bytes() {
        let mut cfg = sharded_cfg(2);
        cfg.repetitions = 2;
        let world = ShardedWorld::shared(&cfg, 11, cfg.repetitions);
        let plain = run_shared(&cfg, SchemeSpec::soi(), 11);
        // Each task claims once, outside its attempts. Task 1's first
        // attempt is thrown away, as a faulted one is; the retry re-derives
        // the identical RNG stream, so every deterministic byte matches.
        let retried = fold_tasks(SchemeSpec::soi(), &world, |i| {
            let mut claim = world.claim(i % world.n_shards());
            let mut attempt = || run_scheme_task(SchemeSpec::soi(), &world, i, &mut claim).0;
            if i == 1 {
                drop(attempt());
            }
            let mut run = attempt();
            claim.attribute(&mut run.counters);
            run
        });
        assert_results_identical(&plain, &retried);
        // The discarded attempt built shard 1's prototype; the "built" flag
        // is sticky, so the task still counts as that shard's one build.
        let c = retried.counters;
        assert_eq!((c.proto_cache_builds, c.proto_cache_hits), (2, 2));
        let c = plain.counters;
        assert_eq!((c.proto_cache_builds, c.proto_cache_hits), (2, 2));
    }

    #[test]
    fn cached_replay_folds_byte_identically_and_counts_resumes() {
        let mut cfg = sharded_cfg(2);
        cfg.repetitions = 2;
        let n_tasks = cfg.repetitions * 2;
        let spec = SchemeSpec::soi();
        let world = ShardedWorld::shared(&cfg, 13, cfg.repetitions);
        let mut store = Vec::new();
        let first = fold_tasks(spec, &world, |i| {
            let run = claimed_task(spec, &world, i);
            store.push(run.clone());
            run
        });
        assert_eq!(store.len(), n_tasks, "one persisted record per task");

        // Replay half the tasks from the store (as a resume does, after a
        // round-trip through the wire form, releasing the task's claim
        // with `skip`), simulate the rest. A fresh world: the first pass
        // counted off every consumer of its slots.
        let world = ShardedWorld::shared(&cfg, 13, cfg.repetitions);
        let resumed = fold_tasks(spec, &world, |i| {
            if !i.is_multiple_of(2) {
                return claimed_task(spec, &world, i);
            }
            world.skip(i % world.n_shards());
            let mut r = RunResult::from_value(&store[i].to_value()).expect("wire roundtrip");
            r.counters.proto_cache_builds = 0;
            r.counters.proto_cache_hits = 0;
            r.counters.tasks_resumed = 1;
            r
        });
        assert_results_identical(&first, &resumed);
        let c = resumed.counters;
        assert_eq!(c.tasks_resumed, n_tasks.div_ceil(2) as u64);
        // Every task is attributed exactly once: a build, a hit or a resume.
        assert_eq!(c.proto_cache_builds + c.proto_cache_hits + c.tasks_resumed, n_tasks as u64);
    }

    #[test]
    fn shared_optimal_plan_folds_like_cacheless_tasks() {
        let mut cfg = sharded_cfg(2);
        cfg.repetitions = 2;
        let world = ShardedWorld::lazy(&cfg, 17);
        let spec = SchemeSpec::optimal();
        // A whole run shares each shard's plan between its two
        // repetitions; cacheless tasks each solve their own.
        let shared = run_shared(&cfg, spec, 17);
        let mut cacheless = fold_tasks(spec, &world, |i| claimed_task(spec, &world, i));
        assert!(shared.counters.optimal_solves > 0, "the runs re-solve");
        // The stream work counters record how the arrivals were produced:
        // a cached prototype replays its recording, while a cacheless
        // task's plan pre-pass regenerates each flow up to its last
        // re-solve tick. That split predates plan sharing, so take those
        // two from the shared run; every other byte must match.
        assert_ne!(shared.counters.stream_refills, cacheless.counters.stream_refills);
        cacheless.counters.stream_refills = shared.counters.stream_refills;
        cacheless.counters.merge_pops = shared.counters.merge_pops;
        assert_results_identical(&shared, &cacheless);
    }

    #[test]
    fn retry_after_a_panicked_plan_solve_changes_no_bytes() {
        let mut cfg = sharded_cfg(2);
        cfg.repetitions = 2;
        let world = ShardedWorld::shared(&cfg, 19, cfg.repetitions);
        let spec = SchemeSpec::optimal();
        let plain = run_shared(&cfg, spec, 19);
        fn plan(claim: &ProtoClaim) -> &OnceLock<OptimalPlan> {
            &claim.proto.as_ref().expect("shared world").optimal_plan
        }
        let retried = fold_tasks(spec, &world, |i| {
            let mut claim = world.claim(i % world.n_shards());
            if i < world.n_shards() {
                // Each shard's first consumer dies inside the plan solve;
                // the cell stays empty, so the retry solves it again.
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    plan(&claim).get_or_init(|| panic!("injected plan-solve fault"));
                }));
                assert!(died.is_err());
                assert!(plan(&claim).get().is_none(), "a panicked solve stores nothing");
            }
            let (mut run, _) = run_scheme_task(spec, &world, i, &mut claim);
            assert!(plan(&claim).get().is_some(), "the plan is shared after a solve");
            claim.attribute(&mut run.counters);
            run
        });
        assert_results_identical(&plain, &retried);
    }
}
