//! The simulated figures are `insomnia run` / `insomnia sweep` batches:
//! every row of the `summary`, Fig. 10 and ablation tables equals, bit for
//! bit, the matching record of the CLI-equivalent batch run through the
//! batch runner on its own (one thread, where the figures use every core).

use insomnia_bench::{figures, Harness, MainRuns};
use insomnia_scenarios::{
    parse_scheme_list, run_batch_controlled, BatchRun, JobRecord, Registry, RunControl,
    ScenarioSpec, Telemetry,
};

/// A smoke-sized `paper-default`: 68 clients, 10 gateways, a 12 h day
/// (into the 11-19 h peak window), two repetitions (Fig. 10's seeds).
const SMALL: [&str; 4] = ["n_clients=68", "n_aps=10", "horizon_hours=12", "repetitions=2"];

fn paper_default() -> Vec<(String, ScenarioSpec)> {
    let spec = Registry::builtin().get_or_err("paper-default").unwrap().spec.clone();
    vec![("paper-default".into(), spec)]
}

/// `insomnia run` (no `sweep`) or `insomnia sweep --param KEY --values
/// ...` over `--scenario paper-default --set ... --schemes SCHEMES --seeds
/// N --threads 1`, JSONL discarded.
fn cli_batch(
    sets: &[&str],
    sweep: Option<(&str, &[&str])>,
    schemes: &str,
    seeds: usize,
) -> Vec<JobRecord> {
    let sets: Vec<&str> = SMALL.iter().chain(sets).copied().collect();
    let scenarios = Registry::builtin().expand(paper_default(), &sets, sweep, false).unwrap();
    let batch =
        BatchRun { scenarios, schemes: parse_scheme_list(schemes).unwrap(), seeds, threads: 1 };
    run_batch_controlled(&batch, &mut std::io::sink(), &Telemetry::quiet(), RunControl::default())
        .unwrap()
        .records
}

fn small_harness() -> Harness {
    let mut scenarios = Registry::builtin().expand(paper_default(), &SMALL, None, false).unwrap();
    Harness { scenario: scenarios.remove(0).1 }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn summary_rows_are_the_run_records() {
    let records = cli_batch(&[], None, "soi,soi+k,bh2-nb,bh2,bh2+full,optimal", 1);
    let h = small_harness();
    let t = figures::summary(&MainRuns::from_runs(
        &h,
        figures::run_schemes(&h, &figures::MAIN_SCHEMES),
    ));
    assert_eq!(t.rows.len(), records.len());
    for (row, r) in t.rows.iter().zip(&records) {
        let savings = [r.mean_savings_pct, r.peak_savings_pct, r.mean_gateways, r.peak_gateways];
        assert_eq!(bits(&row[..4]), bits(&savings), "{}", r.scheme);
        let isp = r.isp_share_pct.unwrap_or(0.0);
        assert_eq!(bits(&row[4..6]), bits(&[r.peak_cards, isp]), "{}", r.scheme);
    }
}

#[test]
fn fig10_rows_are_the_density_sweep_records() {
    let t = figures::fig10(&small_harness());
    let densities = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"];
    let sets = ["topology=binomial", "repetitions=1"];
    let records = cli_batch(&sets, Some(("mean_networks_in_range", &densities)), "bh2", 2);
    assert_eq!(t.rows.len(), densities.len());
    for ((row, density), seeds) in t.rows.iter().zip(densities).zip(records.chunks(2)) {
        assert!(seeds.iter().all(|r| r.scenario.ends_with(&format!("={density}"))));
        let online = (seeds[0].peak_gateways + seeds[1].peak_gateways) / 2.0;
        assert_eq!(row[0], density.parse::<f64>().unwrap());
        assert_eq!(row[1].to_bits(), online.to_bits(), "density {density}");
    }
}

#[test]
fn ablation_rows_are_the_sensitivity_sweep_records() {
    let t = figures::ablation(&small_harness());
    let axes = [
        ("low_thresh", "bh2.low_threshold", ["0.05", "0.10", "0.20"]),
        ("high_thresh", "bh2.high_threshold", ["0.30", "0.50", "0.80"]),
        ("idle_timeout_s", "idle_timeout_s", ["30", "60", "120"]),
        ("wake_time_s", "wake_time_s", ["30", "60", "180"]),
        ("epoch_s", "bh2.epoch_s", ["60", "150", "600"]),
    ];
    let labels = t.row_labels.as_ref().unwrap();
    assert_eq!(t.rows.len(), 15);
    let mut rows = t.rows.iter().zip(labels);
    for (label, key, values) in axes {
        for (value, r) in
            values.iter().zip(cli_batch(&["repetitions=1"], Some((key, &values)), "bh2", 1))
        {
            let (row, row_label) = rows.next().unwrap();
            assert_eq!(row_label, label);
            let want =
                [value.parse().unwrap(), r.mean_savings_pct, r.peak_gateways, r.mean_wake_count];
            assert_eq!(bits(row), bits(&want), "{key}={value}");
        }
    }
}
