//! Flow-level network simulation: processor sharing with per-flow caps.
//!
//! Each gateway's ADSL backhaul is shared by its concurrent flows in
//! max-min fashion, with each flow additionally capped by the wireless rate
//! between its client and the gateway (water-filling). Flow progress is
//! advanced lazily: whenever the flow set of a gateway changes, remaining
//! bytes are updated at the old rates, rates are recomputed, and the next
//! departure is rescheduled.
//!
//! Steady-state updates allocate nothing: per-gateway flow lists keep their
//! capacity (completed flows leave through an in-place, order-preserving
//! retain into a caller-owned buffer), the slab recycles freed slots, and
//! the water-fill sorts through one reused order buffer. Memory grows only
//! while the concurrent flow count reaches a new peak. (The standard stable
//! sort keeps its scratch on the stack only up to a few hundred elements;
//! a gateway carrying more flows than that allocates it per recompute.)

use insomnia_simcore::SimTime;

/// One in-flight downlink transfer.
#[derive(Debug, Clone)]
pub struct ActiveFlow {
    /// Index of the flow in the driving trace (for QoS bookkeeping).
    pub trace_idx: usize,
    /// Client index.
    pub client: usize,
    /// Gateway currently carrying the flow (fixed for its lifetime: BH2
    /// never migrates existing flows, §5.1).
    pub gateway: usize,
    /// The client's original request time (wake-up stalls count against
    /// completion time).
    pub arrival: SimTime,
    /// Bytes still to transfer.
    pub remaining_bytes: f64,
    /// Wireless cap between client and gateway, bit/s.
    pub wireless_bps: f64,
    /// Current allocated rate, bit/s.
    pub rate_bps: f64,
    /// Last time `remaining_bytes` was brought up to date.
    last_update: SimTime,
}

/// Slab of active flows partitioned by gateway.
#[derive(Debug, Clone)]
pub struct FlowEngine {
    flows: Vec<Option<ActiveFlow>>,
    free: Vec<usize>,
    per_gw: Vec<Vec<usize>>,
    /// Bumped whenever a gateway's rate allocation changes; used by the
    /// driver to drop stale departure events.
    generation: Vec<u64>,
    n_active: usize,
    /// Gateways with at least one active flow, in no particular order.
    busy: Vec<u32>,
    /// Reused water-fill buffer: `(wireless cap, flow id)` of one gateway's
    /// flows, sorted by cap (empty between calls).
    order: Vec<(f64, usize)>,
    /// Position of each gateway in `busy` ([`NOT_BUSY`] when idle), so a
    /// gateway joins and leaves the list in O(1).
    busy_pos: Vec<u32>,
}

/// `busy_pos` marker of a gateway with no active flows.
const NOT_BUSY: u32 = u32::MAX;

/// Completion threshold: a flow with less than half a byte left is done.
const DONE_EPS_BYTES: f64 = 0.5;

impl FlowEngine {
    /// Creates an engine for `n_gateways` gateways.
    pub fn new(n_gateways: usize) -> Self {
        FlowEngine {
            flows: Vec::new(),
            free: Vec::new(),
            per_gw: vec![Vec::new(); n_gateways],
            generation: vec![0; n_gateways],
            n_active: 0,
            busy: Vec::new(),
            busy_pos: vec![NOT_BUSY; n_gateways],
            order: Vec::new(),
        }
    }

    /// Number of active flows on a gateway.
    pub fn n_on(&self, gw: usize) -> usize {
        self.per_gw[gw].len()
    }

    /// Total active flows.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// The gateways carrying at least one active flow, in an unspecified
    /// order (exactly `{gw : n_on(gw) > 0}`).
    pub fn busy(&self) -> &[u32] {
        &self.busy
    }

    /// Current generation of a gateway's allocation.
    pub fn generation(&self, gw: usize) -> u64 {
        self.generation[gw]
    }

    /// Read access to a flow by id.
    pub fn flow(&self, id: usize) -> &ActiveFlow {
        self.flows[id].as_ref().expect("live flow id")
    }

    /// Adds a flow on `gw` at time `t`; does not recompute rates — call
    /// [`FlowEngine::recompute`] afterwards. Returns the flow id.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        t: SimTime,
        gw: usize,
        client: usize,
        trace_idx: usize,
        arrival: SimTime,
        bytes: u64,
        wireless_bps: f64,
    ) -> usize {
        assert!(wireless_bps > 0.0, "flow needs a usable wireless link");
        let flow = ActiveFlow {
            trace_idx,
            client,
            gateway: gw,
            arrival,
            remaining_bytes: bytes as f64,
            wireless_bps,
            rate_bps: 0.0,
            last_update: t,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.flows[id] = Some(flow);
                id
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        if self.per_gw[gw].is_empty() {
            self.busy_pos[gw] = self.busy.len() as u32;
            self.busy.push(gw as u32);
        }
        self.per_gw[gw].push(id);
        self.n_active += 1;
        id
    }

    /// Advances all flows on `gw` to time `t` at their current rates.
    /// Returns the bytes transferred since the last advance (for load
    /// metering).
    pub fn advance(&mut self, gw: usize, t: SimTime) -> f64 {
        let mut moved = 0.0;
        for &id in &self.per_gw[gw] {
            let f = self.flows[id].as_mut().expect("live flow");
            let dt = (t - f.last_update).as_secs_f64();
            if dt > 0.0 {
                let bytes = (f.rate_bps * dt / 8.0).min(f.remaining_bytes);
                f.remaining_bytes -= bytes;
                moved += bytes;
            }
            f.last_update = t;
        }
        moved
    }

    /// Moves the flows on `gw` that are complete (≤ ε remaining) to the
    /// end of `done`, in the gateway's flow order. The remaining flows keep
    /// their order, and the gateway's flow list keeps its capacity.
    pub fn take_completed(&mut self, gw: usize, done: &mut Vec<ActiveFlow>) {
        let (flows, free) = (&mut self.flows, &mut self.free);
        let before = self.per_gw[gw].len();
        self.per_gw[gw].retain(|&id| {
            let finished = flows[id].as_ref().expect("live flow").remaining_bytes <= DONE_EPS_BYTES;
            if finished {
                done.push(flows[id].take().expect("live flow"));
                free.push(id);
            }
            !finished
        });
        self.n_active -= before - self.per_gw[gw].len();
        if self.per_gw[gw].is_empty() && self.busy_pos[gw] != NOT_BUSY {
            let pos = std::mem::replace(&mut self.busy_pos[gw], NOT_BUSY) as usize;
            self.busy.swap_remove(pos);
            if let Some(&moved) = self.busy.get(pos) {
                self.busy_pos[moved as usize] = pos as u32;
            }
        }
    }

    /// Recomputes the max-min allocation on `gw` with total capacity
    /// `capacity_bps` (water-filling with per-flow wireless caps). Bumps the
    /// generation and returns the time of the next departure, if any.
    pub fn recompute(&mut self, gw: usize, now: SimTime, capacity_bps: f64) -> Option<SimTime> {
        self.generation[gw] += 1;
        // Water-filling: ascending by cap (a stable sort, so equal caps keep
        // the gateway's flow order), each flow gets min(cap, share of what
        // remains).
        let order = &mut self.order;
        order.extend(
            self.per_gw[gw]
                .iter()
                .map(|&id| (self.flows[id].as_ref().expect("live").wireless_bps, id)),
        );
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite caps"));
        let mut remaining_cap = capacity_bps.max(0.0);
        let n = order.len();
        // Next departure time at the new rates: a min over whole
        // milliseconds, so visiting the flows in cap order changes nothing.
        let mut next: Option<SimTime> = None;
        for (i, &(cap, id)) in order.iter().enumerate() {
            let f = self.flows[id].as_mut().expect("live flow");
            let fair = remaining_cap / (n - i) as f64;
            let rate = cap.min(fair);
            f.rate_bps = rate;
            remaining_cap -= rate;
            if rate > 0.0 {
                let secs = f.remaining_bytes * 8.0 / rate;
                let when = now + insomnia_simcore::SimDuration::from_secs_f64(secs.max(0.001));
                next = Some(next.map_or(when, |cur| cur.min(when)));
            }
        }
        order.clear();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_gets_full_capacity_up_to_wireless_cap() {
        let mut e = FlowEngine::new(2);
        e.add(t(0.0), 0, 7, 0, t(0.0), 750_000, 12.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        // 6 Mbit at 6 Mbps = 1 s.
        assert!((next.as_secs_f64() - 1.0).abs() < 0.01, "{next}");
        // Wireless-capped flow:
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 7, 0, t(0.0), 750_000, 3.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn processor_sharing_splits_capacity() {
        let mut e = FlowEngine::new(1);
        let a = e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        let b = e.add(t(0.0), 0, 2, 1, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        assert!((e.flow(a).rate_bps - 3.0e6).abs() < 1.0);
        assert!((e.flow(b).rate_bps - 3.0e6).abs() < 1.0);
    }

    #[test]
    fn water_filling_respects_caps_and_redistributes() {
        let mut e = FlowEngine::new(1);
        let capped = e.add(t(0.0), 0, 1, 0, t(0.0), 1_000_000, 1.0e6);
        let open = e.add(t(0.0), 0, 2, 1, t(0.0), 1_000_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        assert!((e.flow(capped).rate_bps - 1.0e6).abs() < 1.0);
        assert!((e.flow(open).rate_bps - 5.0e6).abs() < 1.0, "leftover goes to the open flow");
    }

    #[test]
    fn advance_moves_bytes_and_reports_volume() {
        let mut e = FlowEngine::new(1);
        let id = e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        let moved = e.advance(0, t(0.5));
        assert!((moved - 375_000.0).abs() < 1.0);
        assert!((e.flow(id).remaining_bytes - 375_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_lifecycle() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 42, t(0.0), 750_000, 12.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        e.advance(0, next);
        let mut done = Vec::new();
        e.take_completed(0, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].trace_idx, 42);
        assert_eq!(e.n_active(), 0);
        assert_eq!(e.n_on(0), 0);
        // Slab slot is recycled.
        let id = e.add(t(2.0), 0, 1, 43, t(1.0), 1_000, 12.0e6);
        assert_eq!(id, 0);
    }

    #[test]
    fn generation_bumps_on_recompute() {
        let mut e = FlowEngine::new(1);
        let g0 = e.generation(0);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000, 1.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        assert_eq!(e.generation(0), g0 + 1);
    }

    #[test]
    fn incomplete_flows_stay() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        e.advance(0, t(0.5));
        let mut done = Vec::new();
        e.take_completed(0, &mut done);
        assert!(done.is_empty());
        assert_eq!(e.n_on(0), 1);
    }

    #[test]
    fn arrival_time_is_preserved_through_stalls() {
        // A flow queued during a wake keeps its original arrival for the
        // completion-time metric.
        let mut e = FlowEngine::new(1);
        let id = e.add(t(60.0), 0, 1, 0, t(0.0), 1_000, 6.0e6);
        assert_eq!(e.flow(id).arrival, t(0.0));
        assert_eq!(e.flow(id).last_update, t(60.0));
    }

    /// The engine as it was before its buffers were reused: `recompute`
    /// clones and sorts the gateway's id list, `take_completed` rebuilds
    /// it through `mem::take`. Kept here only as the byte-identity
    /// reference for [`matches_clone_and_sort_reference`].
    struct OldEngine {
        flows: Vec<Option<ActiveFlow>>,
        free: Vec<usize>,
        per_gw: Vec<Vec<usize>>,
    }

    impl OldEngine {
        fn add(&mut self, t: SimTime, gw: usize, trace_idx: usize, bytes: u64, cap: f64) -> usize {
            let flow = ActiveFlow {
                trace_idx,
                client: 0,
                gateway: gw,
                arrival: t,
                remaining_bytes: bytes as f64,
                wireless_bps: cap,
                rate_bps: 0.0,
                last_update: t,
            };
            let id = match self.free.pop() {
                Some(id) => {
                    self.flows[id] = Some(flow);
                    id
                }
                None => {
                    self.flows.push(Some(flow));
                    self.flows.len() - 1
                }
            };
            self.per_gw[gw].push(id);
            id
        }

        fn advance(&mut self, gw: usize, t: SimTime) -> f64 {
            let mut moved = 0.0;
            for &id in &self.per_gw[gw] {
                let f = self.flows[id].as_mut().unwrap();
                let dt = (t - f.last_update).as_secs_f64();
                if dt > 0.0 {
                    let bytes = (f.rate_bps * dt / 8.0).min(f.remaining_bytes);
                    f.remaining_bytes -= bytes;
                    moved += bytes;
                }
                f.last_update = t;
            }
            moved
        }

        fn take_completed(&mut self, gw: usize) -> Vec<ActiveFlow> {
            let mut done = Vec::new();
            let ids = std::mem::take(&mut self.per_gw[gw]);
            for id in ids {
                if self.flows[id].as_ref().unwrap().remaining_bytes <= DONE_EPS_BYTES {
                    done.push(self.flows[id].take().unwrap());
                    self.free.push(id);
                } else {
                    self.per_gw[gw].push(id);
                }
            }
            done
        }

        fn recompute(&mut self, gw: usize, now: SimTime, capacity_bps: f64) -> Option<SimTime> {
            let ids = &self.per_gw[gw];
            if ids.is_empty() {
                return None;
            }
            let mut order: Vec<usize> = ids.clone();
            order.sort_by(|&a, &b| {
                let fa = self.flows[a].as_ref().unwrap().wireless_bps;
                let fb = self.flows[b].as_ref().unwrap().wireless_bps;
                fa.partial_cmp(&fb).unwrap()
            });
            let mut remaining_cap = capacity_bps.max(0.0);
            let n = order.len();
            for (i, &id) in order.iter().enumerate() {
                let f = self.flows[id].as_mut().unwrap();
                let fair = remaining_cap / (n - i) as f64;
                let rate = f.wireless_bps.min(fair);
                f.rate_bps = rate;
                remaining_cap -= rate;
            }
            let mut next: Option<SimTime> = None;
            for &id in ids {
                let f = self.flows[id].as_ref().unwrap();
                if f.rate_bps <= 0.0 {
                    continue;
                }
                let secs = f.remaining_bytes * 8.0 / f.rate_bps;
                let when = now + insomnia_simcore::SimDuration::from_secs_f64(secs.max(0.001));
                next = Some(match next {
                    Some(cur) => cur.min(when),
                    None => when,
                });
            }
            next
        }
    }

    /// Bitwise view of a flow: every field the driver reads.
    fn bits(f: &ActiveFlow) -> (usize, usize, SimTime, u64, u64, u64, SimTime) {
        (
            f.trace_idx,
            f.gateway,
            f.arrival,
            f.remaining_bytes.to_bits(),
            f.wireless_bps.to_bits(),
            f.rate_bps.to_bits(),
            f.last_update,
        )
    }

    proptest::proptest! {
        /// Random add / advance / complete / recompute sequences give the
        /// reference engine's results bit for bit: rates, next departures,
        /// bytes moved, per-gateway flow order, slab ids and completion
        /// order. Caps come from a four-value set, so equal caps (whose
        /// water-fill order the stable sort must keep) are common.
        #[test]
        fn matches_clone_and_sort_reference(
            ops in proptest::collection::vec(
                ((0u8..4, 0usize..3), 1u64..3_000_000, (0usize..4, 0u64..40)),
                1..200,
            ),
        ) {
            const CAPS: [f64; 4] = [1.0e6, 3.0e6, 6.0e6, 12.0e6];
            let n_gw = 3;
            let mut new = FlowEngine::new(n_gw);
            let mut old = OldEngine {
                flows: Vec::new(),
                free: Vec::new(),
                per_gw: vec![Vec::new(); n_gw],
            };
            let mut t = SimTime::ZERO;
            let mut done = Vec::new();
            for (i, &((op, gw), bytes, (cap, gap))) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let a = new.add(t, gw, 0, i, t, bytes, CAPS[cap]);
                        let b = old.add(t, gw, i, bytes, CAPS[cap]);
                        proptest::prop_assert_eq!(a, b);
                    }
                    1 => {
                        t += insomnia_simcore::SimDuration::from_millis(gap * 50);
                        let a = new.advance(gw, t);
                        let b = old.advance(gw, t);
                        proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    2 => {
                        done.clear();
                        new.take_completed(gw, &mut done);
                        let want: Vec<_> = old.take_completed(gw).iter().map(bits).collect();
                        let got: Vec<_> = done.iter().map(bits).collect();
                        proptest::prop_assert_eq!(got, want);
                    }
                    _ => {
                        let capacity = 6.0e6 * (1 + cap) as f64 / 4.0;
                        let a = new.recompute(gw, t, capacity);
                        let b = old.recompute(gw, t, capacity);
                        proptest::prop_assert_eq!(a, b);
                    }
                }
                proptest::prop_assert_eq!(&new.per_gw, &old.per_gw);
                proptest::prop_assert_eq!(&new.free, &old.free);
                for (a, b) in new.flows.iter().zip(&old.flows) {
                    proptest::prop_assert_eq!(a.as_ref().map(bits), b.as_ref().map(bits));
                }
                let live = old.flows.iter().filter(|f| f.is_some()).count();
                proptest::prop_assert_eq!(new.n_active(), live);
            }
        }
    }

    #[test]
    fn zero_capacity_yields_no_departure() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000, 6.0e6);
        assert_eq!(e.recompute(0, t(0.0), 0.0), None);
    }
}
