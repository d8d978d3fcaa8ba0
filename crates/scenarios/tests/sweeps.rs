//! Physical sanity of the §5.1 sensitivity and §5.2.5 density sweeps, run
//! the way `insomnia sweep` runs them: [`Registry::expand`] clones a
//! smoke-sized `paper-default` (68 clients, 10 gateways, one repetition)
//! once per swept value, and the batch runs BH2 + k-switch over the result.

use insomnia_scenarios::{
    parse_scheme_list, run_batch_controlled, BatchRun, JobRecord, Registry, RunControl, Telemetry,
};

/// `insomnia sweep --scenario paper-default --set n_clients=68 --set
/// n_aps=10 --set repetitions=1 --set horizon_hours=H [--set ...] --param
/// KEY --values V,... --schemes bh2`: one record per value, in order.
fn sweep(hours: &str, sets: &[&str], key: &str, values: &[&str]) -> Vec<JobRecord> {
    let reg = Registry::builtin();
    let base = reg.get_or_err("paper-default").unwrap().spec.clone();
    let horizon = format!("horizon_hours={hours}");
    let mut all_sets = vec!["n_clients=68", "n_aps=10", "repetitions=1", horizon.as_str()];
    all_sets.extend_from_slice(sets);
    let scenarios =
        reg.expand(vec![("smoke".into(), base)], &all_sets, Some((key, values)), false).unwrap();
    let batch =
        BatchRun { scenarios, schemes: parse_scheme_list("bh2").unwrap(), seeds: 1, threads: 0 };
    run_batch_controlled(&batch, &mut std::io::sink(), &Telemetry::quiet(), RunControl::default())
        .unwrap()
        .records
}

#[test]
fn longer_wake_time_never_helps() {
    let pts = sweep("14", &[], "wake_time_s", &["10", "180"]);
    // A 3-minute resync keeps woken gateways (and their line cards)
    // powered longer: savings must not improve.
    assert!(
        pts[1].mean_savings_pct <= pts[0].mean_savings_pct + 1.0,
        "wake 180 s ({:.1}%) should not beat 10 s ({:.1}%)",
        pts[1].mean_savings_pct,
        pts[0].mean_savings_pct
    );
}

#[test]
fn longer_idle_timeout_keeps_gateways_up() {
    let pts = sweep("14", &[], "idle_timeout_s", &["30", "300"]);
    assert!(
        pts[1].mean_savings_pct <= pts[0].mean_savings_pct + 1.0,
        "timeout 300 s ({:.1}%) should not beat 30 s ({:.1}%)",
        pts[1].mean_savings_pct,
        pts[0].mean_savings_pct
    );
    // But a longer timeout reduces wake churn (fewer premature sleeps).
    assert!(pts[1].mean_wake_count <= pts[0].mean_wake_count);
}

#[test]
fn threshold_sweeps_produce_finite_points() {
    for (key, values) in [
        ("bh2.low_threshold", ["0.05", "0.10", "0.20"]),
        ("bh2.high_threshold", ["0.30", "0.50", "0.80"]),
        ("bh2.epoch_s", ["60", "150", "600"]),
    ] {
        for p in sweep("14", &[], key, &values) {
            assert!(p.mean_savings_pct.is_finite());
            assert!((0.0..=100.0).contains(&p.mean_savings_pct.max(0.0)));
            assert!(p.peak_gateways >= 0.0 && p.peak_gateways <= 10.0);
        }
    }
}

#[test]
fn density_reduces_online_gateways() {
    // A 16 h day covers the 11-16 h part of the peak window.
    let pts = sweep("16", &["topology=binomial"], "mean_networks_in_range", &["1", "3", "8"]);
    assert_eq!(pts.len(), 3);
    // Density 1 = home-only: essentially SoI behaviour (most active
    // homes online); higher density must strictly help.
    assert!(
        pts[2].peak_gateways < pts[0].peak_gateways,
        "density 8 ({:.1}) must beat density 1 ({:.1})",
        pts[2].peak_gateways,
        pts[0].peak_gateways
    );
    assert!(pts[1].peak_gateways <= pts[0].peak_gateways + 0.5);
    for p in &pts {
        assert!(p.peak_gateways > 0.0 && p.peak_gateways <= 10.0);
    }
}
