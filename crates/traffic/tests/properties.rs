//! Property-based tests of the traffic substrate.

use insomnia_simcore::{SimRng, SimTime};
use insomnia_traffic::crawdad::{self, CrawdadConfig, SurgeWindow};
use insomnia_traffic::stats::{
    ap_utilization_percent_series, gap_histogram_paper_bins, per_client_demand_bps,
};
use insomnia_traffic::{DiurnalKind, FlowStream};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming generator is *bit-identical* to the eager one across
    /// population sizes, horizons, diurnal shapes and surge windows: same
    /// homes, same sessions, same flows in the same order — and it leaves
    /// the master RNG in the same final state, so downstream consumers of
    /// the stream cannot tell which generator ran.
    #[test]
    fn flow_stream_is_bit_identical_to_eager_generate(
        seed in any::<u64>(),
        n_clients in 1usize..60,
        n_aps in 1usize..12,
        horizon_h in 1u64..25,
        diurnal in 0u8..3,
        surge_on in 0u8..4,
        surge_start in 0.0f64..24.0,
        surge_end in 0.0f64..24.0,
        surge_intensity in 1.0f64..8.0,
        rate_scale in 0.3f64..2.0,
        always_on in 0.0f64..0.4,
    ) {
        let cfg = CrawdadConfig {
            n_clients,
            n_aps,
            horizon: SimTime::from_hours(horizon_h),
            rate_scale,
            always_on_frac: always_on,
            profile: match diurnal {
                0 => DiurnalKind::OfficeBuilding,
                1 => DiurnalKind::Residential,
                _ => DiurnalKind::Weekend,
            },
            // One config in four carries a flash-crowd window (possibly
            // wrapping midnight when end < start).
            surge: (surge_on == 0).then_some(SurgeWindow {
                start_h: surge_start,
                end_h: surge_end,
                intensity: surge_intensity,
            }),
            ..CrawdadConfig::default()
        };
        let mut eager_rng = SimRng::new(seed);
        let eager = crawdad::generate_eager(&cfg, &mut eager_rng);
        let mut stream_rng = SimRng::new(seed);
        let stream = FlowStream::new(&cfg, &mut stream_rng);
        prop_assert_eq!(&stream_rng, &eager_rng, "setup pass must drain the same draws");
        prop_assert_eq!(stream.total_flows(), eager.flows.len());
        prop_assert_eq!(stream.home(), &eager.home[..]);
        prop_assert_eq!(stream.sessions(), &eager.sessions[..]);
        let streamed = stream.collect_trace();
        prop_assert_eq!(&streamed.flows, &eager.flows);
    }

    /// Batched refills are a pure throughput knob: a stream refilling k
    /// flows per cursor visit yields the byte-identical flow sequence (and
    /// identical drained work counters) as the single-refill stream, for
    /// any batch size, config and seed.
    #[test]
    fn batched_refill_is_byte_identical_to_single_refill(
        seed in any::<u64>(),
        n_clients in 1usize..60,
        n_aps in 1usize..12,
        horizon_h in 1u64..25,
        batch in 2usize..96,
    ) {
        let cfg = CrawdadConfig {
            n_clients,
            n_aps,
            horizon: SimTime::from_hours(horizon_h),
            ..CrawdadConfig::default()
        };
        let mut single_rng = SimRng::new(seed);
        let mut single = FlowStream::with_batch(&cfg, &mut single_rng, 1);
        let mut batched_rng = SimRng::new(seed);
        let mut batched = FlowStream::with_batch(&cfg, &mut batched_rng, batch);
        prop_assert_eq!(&single_rng, &batched_rng);
        prop_assert_eq!(single.total_flows(), batched.total_flows());
        loop {
            let (a, b) = (single.next_flow(), batched.next_flow());
            prop_assert_eq!(a, b, "flow sequence diverged");
            if a.is_none() {
                break;
            }
        }
        // Drained totals agree: one refill/push per flow, one pop per
        // yield, independent of how the refills were batched.
        prop_assert_eq!(single.stats(), batched.stats());
    }

    /// Any generator configuration yields a structurally valid trace with
    /// uniform home assignment.
    #[test]
    fn generated_traces_always_validate(
        seed in any::<u64>(),
        n_clients in 2usize..60,
        n_aps in 1usize..12,
        horizon_h in 1u64..25,
    ) {
        let cfg = CrawdadConfig {
            n_clients,
            n_aps,
            horizon: SimTime::from_hours(horizon_h),
            ..CrawdadConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let trace = FlowStream::new(&cfg, &mut rng).collect_trace();
        prop_assert!(trace.validate().is_ok());
        prop_assert_eq!(trace.n_clients(), n_clients);
        // Uniform spread: per-AP counts within 1 of each other.
        let mut counts = vec![0usize; n_aps];
        for ap in &trace.home {
            counts[ap.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Utilization analysis is scale-consistent: doubling the backhaul
    /// halves every bin; demands integrate to total bytes.
    #[test]
    fn analysis_scaling_laws(seed in any::<u64>()) {
        let cfg = CrawdadConfig {
            n_clients: 30,
            n_aps: 6,
            horizon: SimTime::from_hours(4),
            ..CrawdadConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let trace = FlowStream::new(&cfg, &mut rng).collect_trace();
        let u1 = ap_utilization_percent_series(&trace, 6.0e6, 3_600_000).bin_means_or_zero();
        let u2 = ap_utilization_percent_series(&trace, 12.0e6, 3_600_000).bin_means_or_zero();
        for (a, b) in u1.iter().zip(&u2) {
            prop_assert!((a - 2.0 * b).abs() < 1e-9);
        }
        // Demands over the full horizon integrate back to total bytes.
        let demands = per_client_demand_bps(&trace, SimTime::ZERO, trace.horizon);
        let total_bits: f64 = demands.iter().sum::<f64>() * trace.horizon.as_secs_f64();
        prop_assert!((total_bits - trace.total_bytes() as f64 * 8.0).abs() < 1.0);
    }

    /// The gap histogram accounts for every idle second exactly once:
    /// total weight = n_aps × window − busy instants (arrivals are points,
    /// so total gap weight equals the whole window per AP).
    #[test]
    fn gap_histogram_conserves_idle_time(seed in any::<u64>()) {
        let cfg = CrawdadConfig {
            n_clients: 20,
            n_aps: 5,
            horizon: SimTime::from_hours(2),
            ..CrawdadConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let trace = FlowStream::new(&cfg, &mut rng).collect_trace();
        let from = SimTime::ZERO;
        let to = SimTime::from_hours(1);
        let hist = gap_histogram_paper_bins(&trace, from, to);
        let window_s = (to - from).as_secs_f64();
        // Bursts are instants, so summed gaps per AP equal the window
        // (up to millisecond rounding of coincident arrivals).
        let expect = window_s * trace.n_aps as f64;
        prop_assert!((hist.total() - expect).abs() <= expect * 0.01 + 1.0,
            "idle mass {} vs expected {}", hist.total(), expect);
    }

    /// Flows never start outside their client's sessions, even for tiny
    /// horizons (regression guard for the horizon-clamping logic).
    #[test]
    fn flows_always_inside_sessions(seed in any::<u64>(), horizon_m in 10u64..120) {
        let cfg = CrawdadConfig {
            n_clients: 15,
            n_aps: 3,
            horizon: SimTime::from_mins(horizon_m),
            ..CrawdadConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let trace = FlowStream::new(&cfg, &mut rng).collect_trace();
        for f in &trace.flows {
            let inside = trace
                .sessions
                .iter()
                .any(|s| s.client == f.client && s.contains(f.start));
            prop_assert!(inside);
        }
    }
}
