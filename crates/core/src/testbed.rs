//! The §5.3 realistic-deployment scenario (Fig. 12).
//!
//! The paper deploys 9 home gateways over three floors of an office
//! building (10 commercial 3 Mbps ADSL lines), one BH2 terminal per
//! gateway; each terminal can connect to at most 3 gateways. Each terminal
//! replays the flows of all clients of one randomly chosen trace AP during
//! 15:00–15:30, and a central server emulates the SoI sleep states. We
//! reproduce that: a 9-gateway ring topology (home + two adjacent floors'
//! neighbours = 3 reachable), a 30-minute trace slice re-homed onto the 9
//! gateways, and the driver's SoI/BH2 machinery as-is.

use crate::config::ScenarioConfig;
use crate::driver::{run_single_source_threads, ArrivalSource, ShardedWorld};
use crate::schemes::SchemeSpec;
use insomnia_simcore::{SimRng, SimTime};
use insomnia_traffic::{ApId, ClientId, Session, Trace};
use insomnia_wireless::{Link, Topology};

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of gateways/terminals (paper: 9 replayed of 10 deployed).
    pub n_gateways: usize,
    /// Replay window start within the source trace (paper: 15:00).
    pub window_start: SimTime,
    /// Replay window end (paper: 15:30).
    pub window_end: SimTime,
    /// Commercial ADSL backhaul (paper: 3 Mbps).
    pub backhaul_bps: f64,
    /// Wireless rate between terminals and reachable gateways (>6 Mbps
    /// measured in the deployment).
    pub wireless_bps: f64,
    /// Number of independent replays to average (paper: 10).
    pub runs: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_gateways: 9,
            window_start: SimTime::from_hours(15),
            window_end: SimTime::from_hours(15) + insomnia_simcore::SimDuration::from_mins(30),
            backhaul_bps: 3.0e6,
            wireless_bps: 6.5e6,
            runs: 10,
        }
    }
}

/// Result of the testbed comparison.
#[derive(Debug, Clone)]
pub struct TestbedResult {
    /// Mean online (powered) APs per minute of the window, SoI.
    pub soi_online_per_min: Vec<f64>,
    /// Mean online APs per minute, BH2 (no backup, as deployed in §5.3).
    pub bh2_online_per_min: Vec<f64>,
    /// Day-window mean of sleeping APs under SoI (paper: 3.72 of 9).
    pub soi_mean_sleeping: f64,
    /// Window mean of sleeping APs under BH2 (paper: 5.46 of 9).
    pub bh2_mean_sleeping: f64,
}

/// The scenario's whole one-shard trace from its seed — the pool every
/// replay slices its APs from — built by the one world recipe (whose
/// topology the testbed replaces with its ring).
fn source_trace(scenario: &ScenarioConfig) -> Trace {
    let whole = ScenarioConfig { shards: 1, ..scenario.clone() };
    ShardedWorld::lazy(&whole, scenario.seed).build_shard(0).0.collect_trace()
}

/// Extracts a 30-minute testbed trace: assign one random source AP to each
/// testbed gateway and replay its clients' flows, re-based to t=0.
fn slice_trace(source: &Trace, cfg: &TestbedConfig, rng: &mut SimRng) -> Trace {
    // Pick n distinct source APs.
    let mut aps: Vec<usize> = (0..source.n_aps).collect();
    rng.shuffle(&mut aps);
    aps.truncate(cfg.n_gateways);

    let window = cfg.window_end - cfg.window_start;
    let mut home = Vec::new();
    let mut flows = Vec::new();
    let mut sessions = Vec::new();
    let mut client_map = std::collections::HashMap::new();

    for (gw, &ap) in aps.iter().enumerate() {
        for client in source.clients_of(ApId::from_index(ap)) {
            let new_id = ClientId::from_index(home.len());
            client_map.insert(client, new_id);
            home.push(ApId::from_index(gw));
            // One session covering the whole window: the replaying laptop
            // is present throughout the experiment.
            sessions.push(Session {
                client: new_id,
                start: SimTime::ZERO,
                end: SimTime::ZERO + window,
            });
        }
    }
    for f in source.flows_between(cfg.window_start, cfg.window_end) {
        if let Some(&new_id) = client_map.get(&f.client) {
            let mut nf = *f;
            nf.client = new_id;
            nf.start = SimTime::ZERO + (f.start - cfg.window_start);
            flows.push(nf);
        }
    }
    Trace { horizon: SimTime::ZERO + window, n_aps: cfg.n_gateways, home, flows, sessions }
}

/// Ring topology: terminal i reaches gateways i−1, i, i+1 (max 3, §5.3).
fn ring_topology(trace: &Trace, cfg: &TestbedConfig) -> Topology {
    let n = cfg.n_gateways;
    let links = trace
        .home
        .iter()
        .map(|h| {
            let h = h.index();
            let mut ls = vec![Link { gateway: h, rate_bps: cfg.wireless_bps }];
            ls.push(Link { gateway: (h + 1) % n, rate_bps: cfg.wireless_bps });
            ls.push(Link { gateway: (h + n - 1) % n, rate_bps: cfg.wireless_bps });
            ls
        })
        .collect();
    Topology::new(n, trace.home.iter().map(|a| a.index()).collect(), links)
        .expect("ring topology is valid")
}

/// Runs the testbed comparison (Fig. 12).
pub fn run_testbed(scenario: &ScenarioConfig, cfg: &TestbedConfig) -> TestbedResult {
    let master = SimRng::new(scenario.seed);
    let source = source_trace(scenario);

    let window_s = (cfg.window_end - cfg.window_start).as_secs_f64();
    let n_minutes = (window_s / 60.0).round() as usize;
    let mut soi_min = vec![0.0; n_minutes];
    let mut bh2_min = vec![0.0; n_minutes];
    let mut soi_sleep = 0.0;
    let mut bh2_sleep = 0.0;

    // Scenario overrides: small backhaul, replay horizon, single DSLAM card
    // (the testbed has no DSLAM of its own; ISP metrics are ignored).
    let mut run_cfg = scenario.clone();
    run_cfg.backhaul_bps = cfg.backhaul_bps;
    run_cfg.trace.n_aps = cfg.n_gateways;
    run_cfg.trace.horizon = SimTime::ZERO + (cfg.window_end - cfg.window_start);
    run_cfg.dslam.n_cards = 1;
    run_cfg.dslam.ports_per_card = cfg.n_gateways;
    run_cfg.k_switch = 1;
    run_cfg.trace.n_clients = 1; // placeholder; the sliced trace decides

    for rep in 0..cfg.runs {
        let mut slice_rng = master.fork_idx("testbed-slice", rep as u64);
        let trace = slice_trace(&source, cfg, &mut slice_rng);
        let topo = ring_topology(&trace, cfg);
        for (is_bh2, spec) in
            [(false, SchemeSpec::soi()), (true, SchemeSpec::bh2_no_backup_k_switch())]
        {
            let rng =
                master.fork_idx(if is_bh2 { "testbed-bh2" } else { "testbed-soi" }, rep as u64);
            let arrivals = ArrivalSource::Slice(&trace.flows);
            let r = run_single_source_threads(&run_cfg, spec, arrivals, &topo, rng, 1);
            let per_min: Vec<f64> = r
                .powered_gateways
                .chunks(60)
                .take(n_minutes)
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect();
            let mean_online =
                r.powered_gateways.iter().sum::<f64>() / r.powered_gateways.len() as f64;
            let sleeping = cfg.n_gateways as f64 - mean_online;
            if is_bh2 {
                for (acc, v) in bh2_min.iter_mut().zip(&per_min) {
                    *acc += v;
                }
                bh2_sleep += sleeping;
            } else {
                for (acc, v) in soi_min.iter_mut().zip(&per_min) {
                    *acc += v;
                }
                soi_sleep += sleeping;
            }
        }
    }
    let k = cfg.runs as f64;
    for v in soi_min.iter_mut().chain(bh2_min.iter_mut()) {
        *v /= k;
    }
    TestbedResult {
        soi_online_per_min: soi_min,
        bh2_online_per_min: bh2_min,
        soi_mean_sleeping: soi_sleep / k,
        bh2_mean_sleeping: bh2_sleep / k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> (ScenarioConfig, TestbedConfig) {
        let mut scenario = ScenarioConfig::default();
        scenario.repetitions = 1;
        let cfg = TestbedConfig { runs: 2, ..TestbedConfig::default() };
        (scenario, cfg)
    }

    #[test]
    fn sliced_trace_is_valid_and_windowed() {
        let (scenario, cfg) = quick();
        let mut rng = SimRng::new(1);
        let t = slice_trace(&source_trace(&scenario), &cfg, &mut rng);
        t.validate().unwrap();
        assert_eq!(t.n_aps, 9);
        assert!(t.horizon == SimTime::from_mins(30));
        assert!(!t.flows.is_empty(), "peak window must carry traffic");
    }

    #[test]
    fn ring_gives_exactly_three_gateways() {
        let (scenario, cfg) = quick();
        let mut rng = SimRng::new(2);
        let t = slice_trace(&source_trace(&scenario), &cfg, &mut rng);
        let topo = ring_topology(&t, &cfg);
        for c in 0..topo.n_clients() {
            assert_eq!(topo.reachable(c).len(), 3, "max 3 gateways per §5.3");
        }
    }

    #[test]
    fn bh2_sleeps_more_aps_than_soi() {
        let (scenario, cfg) = quick();
        let r = run_testbed(&scenario, &cfg);
        assert_eq!(r.soi_online_per_min.len(), 30);
        assert!(
            r.bh2_mean_sleeping > r.soi_mean_sleeping,
            "BH2 must outsleep SoI: {:.2} vs {:.2}",
            r.bh2_mean_sleeping,
            r.soi_mean_sleeping
        );
        assert!(r.bh2_mean_sleeping <= 9.0 && r.soi_mean_sleeping >= 0.0);
    }
}
