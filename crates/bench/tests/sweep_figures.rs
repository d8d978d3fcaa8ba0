//! Fig. 10 and the ablation table are `insomnia sweep` batches: every row
//! equals, bit for bit, the matching record of the CLI-equivalent sweep
//! run through the batch runner on its own (one thread, where the figures
//! use every core).

use insomnia_bench::{figures, Harness};
use insomnia_scenarios::{
    parse_scheme_list, run_batch_telemetry, BatchRun, JobRecord, Registry, ScenarioSpec, Telemetry,
};

/// A smoke-sized `paper-default`: 68 clients, 10 gateways, a 12 h day
/// (into the 11-19 h peak window), two repetitions (Fig. 10's seeds).
const SMALL: [&str; 4] = ["n_clients=68", "n_aps=10", "horizon_hours=12", "repetitions=2"];

fn paper_default() -> Vec<(String, ScenarioSpec)> {
    let spec = Registry::builtin().get_or_err("paper-default").unwrap().spec.clone();
    vec![("paper-default".into(), spec)]
}

/// `insomnia sweep --scenario paper-default --set ... --param KEY --values
/// ... --schemes bh2 --seeds N --threads 1`, JSONL discarded.
fn cli_sweep(sets: &[&str], key: &str, values: &[&str], seeds: usize) -> Vec<JobRecord> {
    let sets: Vec<&str> = SMALL.iter().chain(sets).copied().collect();
    let scenarios =
        Registry::builtin().expand(paper_default(), &sets, Some((key, values)), false).unwrap();
    let batch =
        BatchRun { scenarios, schemes: parse_scheme_list("bh2").unwrap(), seeds, threads: 1 };
    run_batch_telemetry(&batch, &mut std::io::sink(), &Telemetry::quiet()).unwrap().records
}

fn small_harness() -> Harness {
    let mut scenarios = Registry::builtin().expand(paper_default(), &SMALL, None, false).unwrap();
    Harness { scenario: scenarios.remove(0).1 }
}

#[test]
fn fig10_rows_are_the_density_sweep_records() {
    let t = figures::fig10(&small_harness());
    let densities = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"];
    let records =
        cli_sweep(&["topology=binomial", "repetitions=1"], "mean_networks_in_range", &densities, 2);
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
        for (value, r) in values.iter().zip(cli_sweep(&["repetitions=1"], key, &values, 1)) {
            let (row, row_label) = rows.next().unwrap();
            assert_eq!(row_label, label);
            let want =
                [value.parse().unwrap(), r.mean_savings_pct, r.peak_gateways, r.mean_wake_count];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row), bits(&want), "{key}={value}");
        }
    }
}
