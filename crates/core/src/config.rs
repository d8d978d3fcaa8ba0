//! Evaluation scenario configuration (§5.1 defaults).

use insomnia_access::{DslamConfig, PowerLadder, PowerModel};
use insomnia_simcore::{SimDuration, SimError, SimResult, SimTime};
use insomnia_traffic::CrawdadConfig;
use insomnia_wireless::ChannelModel;
use serde::{Deserialize, Serialize};

/// How client↔gateway reachability is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Household overlap graph with a prescribed degree distribution — the
    /// paper's main setting (§5.1, mean 5.6 networks in range).
    #[default]
    Overlap,
    /// Binomial reachability as in the Fig. 10 density sweep; supports
    /// densities all the way down to 1.0 (clients reach only their home
    /// gateway — the no-wireless-sharing control).
    Binomial,
}

/// BH2 algorithm parameters (§3.1, §5.1).
#[derive(Debug, Clone, Copy)]
pub struct Bh2Params {
    /// Low load threshold: below it a gateway is a candidate for sleeping
    /// and its users look for somewhere to go (paper: 10%).
    pub low_threshold: f64,
    /// High load threshold: above it a gateway accepts no more hitch-hikers
    /// and remote users return home (paper: 50%).
    pub high_threshold: f64,
    /// Decision epoch (paper: 150 s, with a random per-client offset).
    pub epoch: SimDuration,
    /// Load estimation window (paper: 1 minute).
    pub load_window: SimDuration,
    /// Minimum number of backup gateways (paper default: 1).
    pub backup: usize,
    /// Use §3.1's verbatim return-home rule when a sleepy remote gateway
    /// has too few move candidates (ablation; see `bh2::decide`).
    pub literal_return_home: bool,
}

impl Default for Bh2Params {
    fn default() -> Self {
        Bh2Params {
            low_threshold: 0.10,
            high_threshold: 0.50,
            epoch: SimDuration::from_secs(150),
            load_window: SimDuration::from_secs(60),
            backup: 1,
            literal_return_home: false,
        }
    }
}

/// Adaptive-SOI parameters: the per-gateway idle timeout is retuned to
/// `clamp(gain × EWMA(inter-arrival gap), min_timeout, max_timeout)` on
/// every flow arrival at the gateway.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSoiParams {
    /// Timeout as a multiple of the smoothed inter-arrival gap: the fuse
    /// outlives `gain` typical gaps before the gateway dares to sleep.
    pub gain: f64,
    /// EWMA smoothing factor in (0, 1]; 1 tracks only the latest gap.
    pub alpha: f64,
    /// Timeout floor — even a dead-quiet gateway waits at least this long.
    pub min_timeout: SimDuration,
    /// Timeout ceiling — even a bursty gateway eventually sleeps.
    pub max_timeout: SimDuration,
}

impl Default for AdaptiveSoiParams {
    fn default() -> Self {
        AdaptiveSoiParams {
            gain: 2.0,
            alpha: 0.25,
            min_timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(300),
        }
    }
}

/// Full evaluation scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Traffic generator settings (272 clients / 40 APs / 24 h).
    pub trace: CrawdadConfig,
    /// Mean number of networks in range per client (paper: 5.6).
    pub mean_networks_in_range: f64,
    /// Topology generator of the world build ([`crate::ShardedWorld::build_shard`]).
    pub topology: TopologyKind,
    /// Wireless rates (12 Mbps home / 6 Mbps neighbor).
    pub channel: ChannelModel,
    /// ADSL backhaul per gateway, bit/s (paper: 6 Mbps).
    pub backhaul_bps: f64,
    /// DSLAM geometry (4 cards × 12 ports).
    pub dslam: DslamConfig,
    /// k of the HDF k-switches (paper: 12 4-switches).
    pub k_switch: usize,
    /// Device power draws.
    pub power: PowerModel,
    /// SoI idle timeout (paper: 60 s).
    pub idle_timeout: SimDuration,
    /// Gateway wake-up time: boot + DSL resync (paper: 60 s measured).
    pub wake_time: SimDuration,
    /// Explicit gateway doze ladder. `None` (the default) derives one from
    /// the scheme: fixed-timeout schemes get the binary
    /// `(gateway_sleep_w, wake_time)` ladder — the legacy on/off model,
    /// byte-identical — and multi-doze gets
    /// [`PowerLadder::default_doze`]. A configured ladder overrides both.
    pub power_states: Option<PowerLadder>,
    /// Adaptive-SOI timeout controller parameters.
    pub adaptive: AdaptiveSoiParams,
    /// Maximum allowed gateway utilization in the optimal ILP, `q ∈ (0,1]`.
    pub q_max_utilization: f64,
    /// Re-solve period of the Optimal scheme (paper: every minute).
    pub optimal_period: SimDuration,
    /// Metric sampling period (paper: every second of the day).
    pub sample_period: SimDuration,
    /// Number of independent DSLAM-neighborhood shards the client/gateway
    /// population is split over (1 = the paper's single-DSLAM world).
    /// Each shard gets its own trace slice, topology, DSLAM and event
    /// loop; shards run in parallel and their results are merged.
    pub shards: usize,
    /// Number of repetitions to average (paper: 10).
    pub repetitions: usize,
    /// Master seed; repetition `r` forks stream `r`.
    pub seed: u64,
    /// BH2 parameters.
    pub bh2: Bh2Params,
    /// Completion-metric memory model: while a run's (or pooled merge's)
    /// flow count stays at or below this cutoff, completion times are kept
    /// as raw per-flow samples and every quantile is exact — byte-identical
    /// to sorting the pooled samples. Past it, the driver streams into a
    /// mergeable log-bucket [`insomnia_simcore::QuantileSketch`] with
    /// `O(buckets)` memory and ≤ 0.55 % relative quantile error. `0`
    /// streams from the first flow (the mega-city setting).
    pub completion_cutoff: usize,
    /// Online-time-metric memory model, the per-gateway sibling of
    /// `completion_cutoff`: while a run's (or merge's) gateway count stays
    /// at or below this cutoff, per-gateway online seconds are kept as raw
    /// positional samples (exact quantiles, and the Fig. 9b fairness
    /// pairing stays possible). Past it — or from the first gateway with
    /// `0`, the tera-metro setting — they stream into a mergeable
    /// log-bucket [`insomnia_simcore::OnlineTimeHist`] with `O(buckets)`
    /// memory per repetition. Scenarios that opt into streaming
    /// (`online_cutoff = 0`) additionally report the histogram quantile
    /// grid in their sharded JSONL records.
    pub online_cutoff: usize,
}

/// Default [`ScenarioConfig::completion_cutoff`]: 4 Mi samples — above the
/// pooled flow count of every paper preset at 10 repetitions (the largest,
/// `dense-urban`, pools ≈ 3.6 M), so all `shards = 1` paper scenarios keep
/// exact completion semantics; a mega-city day (10⁸ flows) spills.
pub const DEFAULT_COMPLETION_CUTOFF: usize = 4 << 20;

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            trace: CrawdadConfig::default(),
            mean_networks_in_range: 5.6,
            topology: TopologyKind::default(),
            channel: ChannelModel::default(),
            backhaul_bps: 6.0e6,
            dslam: DslamConfig::default(),
            k_switch: 4,
            power: PowerModel::default(),
            idle_timeout: SimDuration::from_secs(60),
            wake_time: SimDuration::from_secs(60),
            power_states: None,
            adaptive: AdaptiveSoiParams::default(),
            q_max_utilization: 0.5,
            optimal_period: SimDuration::from_secs(60),
            sample_period: SimDuration::from_secs(1),
            shards: 1,
            repetitions: 10,
            seed: 2011,
            bh2: Bh2Params::default(),
            completion_cutoff: DEFAULT_COMPLETION_CUTOFF,
            online_cutoff: DEFAULT_COMPLETION_CUTOFF,
        }
    }
}

impl ScenarioConfig {
    /// A scaled-down scenario for tests and quick demos: a quarter of the
    /// building, one hour horizon, two repetitions.
    pub fn smoke() -> Self {
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 68;
        cfg.trace.n_aps = 10;
        cfg.repetitions = 2;
        cfg
    }

    /// Simulation horizon, taken from the trace generator settings.
    pub fn horizon(&self) -> SimTime {
        self.trace.horizon
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> SimResult<()> {
        if !(self.q_max_utilization > 0.0 && self.q_max_utilization <= 1.0) {
            return Err(SimError::InvalidConfig("q must be in (0, 1]".into()));
        }
        if self.bh2.low_threshold >= self.bh2.high_threshold {
            return Err(SimError::InvalidConfig("low threshold must be < high".into()));
        }
        if !(0.0..=1.0).contains(&self.bh2.low_threshold)
            || !(0.0..=1.0).contains(&self.bh2.high_threshold)
        {
            return Err(SimError::InvalidConfig("thresholds must be fractions".into()));
        }
        // A zero epoch reschedules each BH2 tick at the same instant (the
        // run never advances), and a zero load window has no rate to
        // estimate. Durations are whole milliseconds, so this also catches
        // negative and sub-millisecond inputs.
        if self.bh2.epoch.is_zero() {
            return Err(SimError::InvalidConfig(
                "bh2 epoch must be at least 1 ms (got 0 ms)".into(),
            ));
        }
        if self.bh2.load_window.is_zero() {
            return Err(SimError::InvalidConfig(
                "bh2 load window must be at least 1 ms (got 0 ms)".into(),
            ));
        }
        // Trace-generator preconditions: the scenario layer lets users set
        // these freely, and catching them here beats an assert in a worker
        // thread or NaN summary metrics after a full run.
        if self.trace.n_clients == 0 {
            return Err(SimError::InvalidConfig("need at least one client".into()));
        }
        if self.shards == 0 {
            return Err(SimError::InvalidConfig("need at least one shard".into()));
        }
        if self.trace.n_clients < self.shards || self.trace.n_aps < self.shards {
            return Err(SimError::InvalidConfig(format!(
                "{} clients / {} gateways cannot fill {} shards",
                self.trace.n_clients, self.trace.n_aps, self.shards
            )));
        }
        // The overlap degree-graph generator needs three nodes; binomial
        // reachability works from two. With shards, the *smallest* shard
        // must clear the bar.
        let min_aps = match self.topology {
            TopologyKind::Overlap => 3,
            TopologyKind::Binomial => 2,
        };
        let min_shard_aps = insomnia_wireless::min_per_shard(self.trace.n_aps, self.shards);
        if min_shard_aps < min_aps {
            return Err(SimError::InvalidConfig(format!(
                "{:?} topology needs at least {min_aps} gateways per shard, got {min_shard_aps} \
                 ({} gateways over {} shards)",
                self.topology, self.trace.n_aps, self.shards
            )));
        }
        // Reject shard sizes whose pair enumeration overflows the topology
        // work budget: the client × gateway reachability pairs, which the
        // builders and the per-epoch candidate scans walk, and for the
        // overlap topology the gateway × gateway pairs of the degree
        // graph's adjacency matrix. Past it a run would stall for hours or
        // allocate gigabytes (or the product would overflow outright)
        // instead of failing fast.
        let max_shard_clients = insomnia_wireless::max_per_shard(self.trace.n_clients, self.shards);
        let max_shard_aps = insomnia_wireless::max_per_shard(self.trace.n_aps, self.shards);
        let paired = match self.topology {
            TopologyKind::Overlap => max_shard_clients.max(max_shard_aps),
            TopologyKind::Binomial => max_shard_clients,
        };
        match insomnia_wireless::topology_pair_count(paired, max_shard_aps) {
            Some(pairs) if pairs <= insomnia_wireless::MAX_TOPOLOGY_PAIRS => {}
            oversized => {
                let shown = oversized.map_or("overflowing u64".to_string(), |p| p.to_string());
                return Err(SimError::InvalidConfig(format!(
                    "a shard of {max_shard_clients} clients x {max_shard_aps} gateways enumerates \
                     {shown} client or gateway pairs (budget {}); raise `shards` to split the \
                     population into smaller neighborhoods",
                    insomnia_wireless::MAX_TOPOLOGY_PAIRS
                )));
            }
        }
        if self.trace.horizon.as_millis() == 0 {
            return Err(SimError::InvalidConfig("horizon must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.trace.always_on_frac)
            || !(0.0..=1.0).contains(&self.trace.worker_frac)
            || self.trace.always_on_frac + self.trace.worker_frac > 1.0
        {
            return Err(SimError::InvalidConfig(
                "always-on and worker fractions must be in [0, 1] and sum to ≤ 1".into(),
            ));
        }
        if !(self.trace.rate_scale > 0.0) || !self.trace.rate_scale.is_finite() {
            return Err(SimError::InvalidConfig("rate scale must be a positive number".into()));
        }
        match self.topology {
            TopologyKind::Overlap if self.mean_networks_in_range < 1.0 => {
                return Err(SimError::InvalidConfig(
                    "overlap topology needs mean networks in range ≥ 1".into(),
                ));
            }
            TopologyKind::Binomial
                if self.mean_networks_in_range < 1.0
                    || self.mean_networks_in_range > self.trace.n_aps as f64 =>
            {
                return Err(SimError::InvalidConfig(format!(
                    "binomial density {} outside [1, {}]",
                    self.mean_networks_in_range, self.trace.n_aps
                )));
            }
            _ => {}
        }
        if !self.dslam.n_cards.is_multiple_of(self.k_switch) {
            return Err(SimError::InvalidConfig(format!(
                "k = {} must divide the card count {}",
                self.k_switch, self.dslam.n_cards
            )));
        }
        // Saturating: a port count past `usize::MAX` holds any shard.
        let ports = self.dslam.n_cards.saturating_mul(self.dslam.ports_per_card);
        if max_shard_aps > ports {
            return Err(SimError::InvalidConfig(format!(
                "a shard of {max_shard_aps} gateways exceeds the {ports} DSLAM ports ({} cards x {})",
                self.dslam.n_cards,
                self.dslam.ports_per_card
            )));
        }
        if self.backhaul_bps <= 0.0 {
            return Err(SimError::InvalidConfig("backhaul must be positive".into()));
        }
        if self.repetitions == 0 {
            return Err(SimError::InvalidConfig("need at least one repetition".into()));
        }
        if self.sample_period.is_zero() || self.optimal_period.is_zero() {
            return Err(SimError::InvalidConfig("periods must be positive".into()));
        }
        // No sample fits a horizon shorter than one period: every series
        // would be empty and the summary metrics NaN after a full run.
        if self.trace.horizon.as_millis() < self.sample_period.as_millis() {
            return Err(SimError::InvalidConfig(format!(
                "sample_period_s ({} s) exceeds the horizon ({} s): a run needs at least one \
                 metric sample",
                self.sample_period.as_secs_f64(),
                self.trace.horizon.as_secs_f64(),
            )));
        }
        if let Some(ladder) = &self.power_states {
            ladder.validate().map_err(|e| SimError::InvalidConfig(format!("power_states: {e}")))?;
            // Levels are non-increasing, so level 0 is the hungriest doze.
            if ladder.watts(0) > self.power.gateway_on_w {
                return Err(SimError::InvalidConfig(format!(
                    "power_states: level 0 draws {} W, more than the online gateway's {} W",
                    ladder.watts(0),
                    self.power.gateway_on_w
                )));
            }
        }
        let a = &self.adaptive;
        if !(a.alpha > 0.0 && a.alpha <= 1.0) {
            return Err(SimError::InvalidConfig("adaptive alpha must be in (0, 1]".into()));
        }
        if !(a.gain > 0.0) || !a.gain.is_finite() {
            return Err(SimError::InvalidConfig("adaptive gain must be positive".into()));
        }
        if a.min_timeout.is_zero() || a.max_timeout < a.min_timeout {
            return Err(SimError::InvalidConfig(
                "adaptive timeout bounds need 0 < min ≤ max".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5_1() {
        let cfg = ScenarioConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.trace.n_clients, 272);
        assert_eq!(cfg.trace.n_aps, 40);
        assert_eq!(cfg.backhaul_bps, 6.0e6);
        assert_eq!(cfg.dslam.n_cards, 4);
        assert_eq!(cfg.dslam.ports_per_card, 12);
        assert_eq!(cfg.k_switch, 4);
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(60));
        assert_eq!(cfg.wake_time, SimDuration::from_secs(60));
        assert_eq!(cfg.bh2.low_threshold, 0.10);
        assert_eq!(cfg.bh2.high_threshold, 0.50);
        assert_eq!(cfg.bh2.epoch, SimDuration::from_secs(150));
        assert_eq!(cfg.bh2.backup, 1);
        assert_eq!(cfg.repetitions, 10);
        assert_eq!(cfg.mean_networks_in_range, 5.6);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ScenarioConfig::default();
        cfg.q_max_utilization = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ScenarioConfig::default();
        cfg.bh2.low_threshold = 0.6;
        assert!(cfg.validate().is_err());

        let mut cfg = ScenarioConfig::default();
        cfg.k_switch = 3; // does not divide 4 cards
        assert!(cfg.validate().is_err());

        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_aps = 100; // > 48 ports
        assert!(cfg.validate().is_err());

        let mut cfg = ScenarioConfig::default();
        cfg.repetitions = 0;
        assert!(cfg.validate().is_err());

        // A zero BH2 epoch hangs the run and a zero load window panics in
        // the estimator; negative and sub-millisecond seconds round to 0 ms.
        for secs in [0.0, -1.0, 0.0001] {
            let mut cfg = ScenarioConfig::default();
            cfg.bh2.epoch = SimDuration::from_secs_f64(secs);
            assert!(cfg.validate().unwrap_err().to_string().contains("bh2 epoch"));
            let mut cfg = ScenarioConfig::default();
            cfg.bh2.load_window = SimDuration::from_secs_f64(secs);
            assert!(cfg.validate().unwrap_err().to_string().contains("bh2 load window"));
        }
    }

    #[test]
    fn shard_validation_bounds_the_split() {
        let mut cfg = ScenarioConfig::default();
        cfg.shards = 0;
        assert!(cfg.validate().is_err(), "zero shards");

        // 40 APs over 20 shards leaves 2 per shard: under overlap's minimum.
        let mut cfg = ScenarioConfig::default();
        cfg.shards = 20;
        assert!(cfg.validate().is_err(), "overlap needs 3 gateways per shard");

        // The same split works for binomial reachability.
        let mut cfg = ScenarioConfig::default();
        cfg.topology = TopologyKind::Binomial;
        cfg.mean_networks_in_range = 1.5;
        cfg.shards = 20;
        cfg.validate().unwrap();

        // A valid multi-shard overlap split.
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 544;
        cfg.trace.n_aps = 80;
        cfg.shards = 2;
        cfg.validate().unwrap();
    }

    #[test]
    fn oversized_pair_enumeration_is_rejected_not_stalled() {
        // 10⁵ clients on one shard: the overlap pair enumeration would
        // stall for hours; validation must refuse and point at `shards`.
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 100_000;
        cfg.trace.n_aps = 12_800;
        cfg.dslam.n_cards = 1600;
        cfg.dslam.ports_per_card = 8;
        cfg.k_switch = 4;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("shards"), "must point at the shards axis: {err}");

        // The same population over 64 shards is fine.
        cfg.shards = 64;
        cfg.dslam.n_cards = 20;
        cfg.dslam.ports_per_card = 10;
        cfg.validate().unwrap();
    }

    #[test]
    fn oversized_overlap_graph_is_rejected() {
        // 64 clients over 20 000 gateways on one shard: few reachability
        // pairs, but the overlap graph's adjacency matrix would need 20 000²
        // bits, past the budget.
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 64;
        cfg.trace.n_aps = 20_000;
        cfg.dslam.n_cards = 2_000;
        cfg.dslam.ports_per_card = 10;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("shards"), "must point at the shards axis: {err}");
        assert!(err.contains("400000000 client or gateway pairs"), "{err}");

        // Binomial reachability builds no overlap graph.
        cfg.topology = TopologyKind::Binomial;
        cfg.mean_networks_in_range = 1.5;
        cfg.validate().unwrap();

        // Two overlap shards of 10 000 gateways fit.
        cfg.topology = TopologyKind::Overlap;
        cfg.mean_networks_in_range = ScenarioConfig::default().mean_networks_in_range;
        cfg.shards = 2;
        cfg.validate().unwrap();
    }

    #[test]
    fn power_state_and_adaptive_validation() {
        use insomnia_access::PowerState;

        // A well-formed explicit ladder passes.
        let mut cfg = ScenarioConfig::default();
        cfg.power_states = Some(PowerLadder::default_doze(&cfg.power, cfg.wake_time));
        cfg.validate().unwrap();

        // A malformed ladder is rejected with the power_states prefix.
        let mut cfg = ScenarioConfig::default();
        cfg.power_states = Some(PowerLadder::new(vec![
            PowerState {
                watts: 1.0,
                wake: SimDuration::from_secs(10),
                dwell: SimDuration::from_secs(60),
            },
            PowerState { watts: 5.0, wake: SimDuration::from_secs(60), dwell: SimDuration::ZERO },
        ]));
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("power_states"), "{err}");

        // A doze level may not draw more than the online gateway.
        let mut cfg = ScenarioConfig::default();
        let on_w = cfg.power.gateway_on_w;
        cfg.power_states = Some(PowerLadder::new(vec![PowerState {
            watts: on_w + 1.0,
            wake: SimDuration::from_secs(10),
            dwell: SimDuration::ZERO,
        }]));
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("online gateway"), "{err}");

        // Adaptive bounds: alpha in (0, 1], gain positive, 0 < min <= max.
        let mut cfg = ScenarioConfig::default();
        cfg.adaptive.alpha = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::default();
        cfg.adaptive.gain = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::default();
        cfg.adaptive.max_timeout = SimDuration::from_secs(5);
        cfg.adaptive.min_timeout = SimDuration::from_secs(10);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn smoke_config_is_valid_and_small() {
        let cfg = ScenarioConfig::smoke();
        cfg.validate().unwrap();
        assert!(cfg.trace.n_clients < 100);
        assert_eq!(cfg.horizon(), SimTime::from_hours(24));
    }
}
