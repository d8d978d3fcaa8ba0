//! The gateway-density sweep behind Fig. 10 (§5.2.5).
//!
//! The paper varies the mean number of gateways a user can connect to from
//! 1 (home only) to 10 using binomial connectivity matrices, runs BH2, and
//! reports the mean number of online gateways during the peak hours
//! (11:00–19:00).

use crate::config::ScenarioConfig;
use crate::driver::{run_single_source_threads, ArrivalSource, RunResult};
use crate::metrics::window_mean;
use crate::schemes::SchemeSpec;
use insomnia_simcore::SimRng;
use insomnia_wireless::binomial_topology;

/// One sweep point: target density and the measured peak-window mean of
/// powered gateways.
#[derive(Debug, Clone, Copy)]
pub struct DensityPoint {
    /// Mean number of gateways available per user.
    pub mean_available: f64,
    /// Mean powered gateways during 11–19 h, averaged over repetitions.
    pub online_gateways: f64,
}

/// Runs BH2 over binomial topologies of the given densities.
///
/// The trace is generated once from the config seed; each density gets its
/// own connectivity matrices, re-drawn per repetition (the paper generates
/// random binomial matrices per run).
pub fn density_sweep(cfg: &ScenarioConfig, densities: &[f64]) -> Vec<DensityPoint> {
    let master = SimRng::new(cfg.seed);
    let mut trace_rng = master.fork("trace");
    let trace = insomnia_traffic::crawdad::generate(&cfg.trace, &mut trace_rng);
    let home: Vec<usize> = trace.home.iter().map(|ap| ap.index()).collect();
    let spec = SchemeSpec::bh2_k_switch();

    densities
        .iter()
        .map(|&mean| {
            let mut acc = 0.0;
            for rep in 0..cfg.repetitions {
                let mut topo_rng = master.fork_idx("density-topo", hash_pair(mean, rep));
                let topo =
                    binomial_topology(&home, cfg.trace.n_aps, mean, cfg.channel, &mut topo_rng)
                        .expect("valid density parameters");
                let rng = master.fork_idx("density-run", hash_pair(mean, rep));
                let arrivals = ArrivalSource::Slice(&trace.flows);
                let r: RunResult = run_single_source_threads(cfg, spec, arrivals, &topo, rng, 1);
                acc += window_mean(&r.powered_gateways, r.sample_period_s, 11.0, 19.0);
            }
            DensityPoint { mean_available: mean, online_gateways: acc / cfg.repetitions as f64 }
        })
        .collect()
}

fn hash_pair(mean: f64, rep: usize) -> u64 {
    (mean * 16.0).round() as u64 * 1_000 + rep as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use insomnia_simcore::SimTime;

    #[test]
    fn density_reduces_online_gateways() {
        // Scaled-down sweep: fewer clients, shorter day, single repetition.
        let mut cfg = ScenarioConfig::smoke();
        cfg.repetitions = 1;
        cfg.trace.horizon = SimTime::from_hours(16); // covers 11-16 h window
        let pts = density_sweep(&cfg, &[1.0, 3.0, 8.0]);
        assert_eq!(pts.len(), 3);
        // Density 1 = home-only: essentially SoI behaviour (most active
        // homes online); higher density must strictly help.
        assert!(
            pts[2].online_gateways < pts[0].online_gateways,
            "density 8 ({:.1}) must beat density 1 ({:.1})",
            pts[2].online_gateways,
            pts[0].online_gateways
        );
        assert!(pts[1].online_gateways <= pts[0].online_gateways + 0.5);
        for p in &pts {
            assert!(p.online_gateways > 0.0 && p.online_gateways <= 10.0);
        }
    }
}
