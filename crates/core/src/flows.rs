//! Flow-level network simulation: processor sharing with per-flow caps.
//!
//! Each gateway's ADSL backhaul is shared by its concurrent flows in
//! max-min fashion, with each flow additionally capped by the wireless rate
//! between its client and the gateway (water-filling). Flow progress is
//! advanced lazily: whenever the flow set of a gateway changes, remaining
//! bytes are updated at the old rates, rates are recomputed, and the next
//! departure is rescheduled.

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

    /// Removes and returns flows on `gw` that are complete (≤ ε remaining).
    pub fn take_completed(&mut self, gw: usize) -> Vec<ActiveFlow> {
        let mut done = Vec::new();
        let ids = std::mem::take(&mut self.per_gw[gw]);
        for id in ids {
            let finished =
                self.flows[id].as_ref().expect("live flow").remaining_bytes <= DONE_EPS_BYTES;
            if finished {
                done.push(self.flows[id].take().expect("live flow"));
                self.free.push(id);
                self.n_active -= 1;
            } else {
                self.per_gw[gw].push(id);
            }
        }
        if self.per_gw[gw].is_empty() && self.busy_pos[gw] != NOT_BUSY {
            let pos = std::mem::replace(&mut self.busy_pos[gw], NOT_BUSY) as usize;
            self.busy.swap_remove(pos);
            if let Some(&moved) = self.busy.get(pos) {
                self.busy_pos[moved as usize] = pos as u32;
            }
        }
        done
    }

    /// Recomputes the max-min allocation on `gw` with total capacity
    /// `capacity_bps` (water-filling with per-flow wireless caps). Bumps the
    /// generation and returns the time of the next departure, if any.
    pub fn recompute(&mut self, gw: usize, now: SimTime, capacity_bps: f64) -> Option<SimTime> {
        self.generation[gw] += 1;
        let ids = &self.per_gw[gw];
        if ids.is_empty() {
            return None;
        }
        // Water-filling: ascending by cap, each flow gets min(cap, share of
        // what remains).
        let mut order: Vec<usize> = ids.clone();
        order.sort_by(|&a, &b| {
            let fa = self.flows[a].as_ref().expect("live").wireless_bps;
            let fb = self.flows[b].as_ref().expect("live").wireless_bps;
            fa.partial_cmp(&fb).expect("finite caps")
        });
        let mut remaining_cap = capacity_bps.max(0.0);
        let n = order.len();
        for (i, &id) in order.iter().enumerate() {
            let f = self.flows[id].as_mut().expect("live flow");
            let fair = remaining_cap / (n - i) as f64;
            let rate = f.wireless_bps.min(fair);
            f.rate_bps = rate;
            remaining_cap -= rate;
        }
        // Next departure time at the new rates.
        let mut next: Option<SimTime> = None;
        for &id in ids {
            let f = self.flows[id].as_ref().expect("live flow");
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
        let done = e.take_completed(0);
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
        assert!(e.take_completed(0).is_empty());
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

    #[test]
    fn zero_capacity_yields_no_departure() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000, 6.0e6);
        assert_eq!(e.recompute(0, t(0.0), 0.0), None);
    }
}
