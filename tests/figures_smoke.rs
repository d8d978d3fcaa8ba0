//! Smoke tests for the figure harness: every analytic/light figure builds
//! with sane shapes, and the scheme figures are `insomnia run` jobs — the
//! `doze` table of `figures --quick` is pinned to the CLI goldens here;
//! `crates/bench/tests/sweep_figures.rs` checks the `summary`, Fig. 10 and
//! ablation tables record by record.

use insomnia::scenarios::JobRecord;
use insomnia_bench::figures;
use insomnia_bench::Harness;

#[test]
fn fig2_has_24_hours_and_plausible_ranges() {
    let t = figures::fig2(2011);
    assert_eq!(t.rows.len(), 24);
    for row in &t.rows {
        let (avg_down, median_down) = (row[1], row[3]);
        assert!(avg_down > 0.0 && avg_down < 15.0);
        assert!((0.0..1.0).contains(&median_down));
        assert!(avg_down > median_down, "mean must dominate median");
    }
}

#[test]
fn fig5_matches_paper_anchor_values() {
    let t = figures::fig5();
    assert_eq!(t.rows.len(), 8);
    // Row l=1, column k8_p50 ≈ 0.910; row l=2 ≈ 0.424 (the Fig. 5 middle
    // panel values).
    assert!((t.rows[0][3] - 0.910).abs() < 0.005);
    assert!((t.rows[1][3] - 0.424).abs() < 0.005);
    // p=0.25 dominates p=0.5 for every switch size.
    for row in &t.rows {
        assert!(row[6] >= row[3] - 1e-12, "k8: lighter load sleeps more");
    }
}

#[test]
fn fig15_reports_14_uniform_cards() {
    let t = figures::fig15(2011);
    assert_eq!(t.rows.len(), 14);
    let means: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
    let spread = means.iter().cloned().fold(f64::MIN, f64::max)
        - means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 20.0, "card means must look alike (got spread {spread})");
}

#[test]
fn jsonl_backend_rebuilds_tables_from_the_committed_giga_reference() {
    // The committed giga-metro smoke record is a real 10^7-client batch
    // output; the JSONL-fed backend must rebuild its energy/completion/
    // shard tables without simulating anything (a re-simulation at that
    // scale inside the test suite would be the bug).
    let path = format!("{}/tests/golden/giga-metro-smoke.jsonl", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed giga-metro reference");
    let report = insomnia_bench::parse_jsonl(&path, &text).expect("reference parses");
    assert_eq!(report.records.len(), 1);
    let tables = report.tables();
    let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    // giga-metro keeps exact per-gateway accounting, so there is no
    // online-time grid to report — only the other three tables.
    assert_eq!(names, vec!["energy", "completion", "shards"]);
    let energy = &tables[0];
    assert_eq!(energy.row_labels.as_ref().unwrap()[0], "giga-metro/soi#0");
    assert!(energy.rows[0][0] > 0.0, "savings from the record");
    let completion = &tables[1];
    assert!(completion.rows[0][1] > 0.0, "p50 from the merged sketch grid");
    assert_eq!(completion.rows[0][7], 0.0, "giga-metro streams completions (not exact)");
    let shards = &tables[2];
    assert_eq!(shards.rows[0][0], 2048.0);
    assert!(shards.rows[0][1] <= shards.rows[0][2] && shards.rows[0][2] <= shards.rows[0][3]);
}

#[test]
fn fig3_fig4_build_from_the_scenario_trace() {
    let h = Harness::quick();
    let f3 = figures::fig3(&h);
    assert_eq!(f3.rows.len(), 24);
    let peak = f3.rows.iter().map(|r| r[1]).fold(f64::MIN, f64::max);
    assert!(peak > 3.0 && peak < 10.0, "Fig 3 peak {peak}%");

    let f4 = figures::fig4(&h);
    let total: f64 = f4.rows.iter().map(|r| r[0]).sum();
    assert!((total - 1.0).abs() < 1e-6, "fractions must sum to 1, got {total}");
    // >60 s bin (last row) near the paper's ~18%.
    let over60 = f4.rows.last().unwrap()[0];
    assert!(over60 > 0.08 && over60 < 0.35, ">60s share {over60}");
}

#[test]
fn doze_table_rows_are_the_golden_records() {
    // The scheme figures run the batch's seed-0 world with `--quick`'s two
    // repetitions, so each `doze` row is a committed CLI golden record.
    let golden = |file: &str| -> Vec<JobRecord> {
        let path = format!("{}/tests/golden/{file}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed golden");
        text.lines().map(|l| serde_json::from_str(l).unwrap()).collect()
    };
    let mut want = golden("paper-default");
    want.retain(|r| r.scheme == "soi");
    want.extend(golden("paper-default-doze"));
    let t = figures::doze_table(&Harness::quick());
    let labels: Vec<String> = want.iter().map(|r| r.scheme.clone()).collect();
    assert_eq!(t.row_labels.as_ref(), Some(&labels));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (row, r) in t.rows.iter().zip(&want) {
        let fields = [r.mean_savings_pct, r.peak_savings_pct, r.mean_gateways, r.mean_wake_count];
        assert_eq!(bits(&row[..4]), bits(&fields), "{}: {row:?}", r.scheme);
    }
}

#[test]
fn fig14_baselines_match_calibration() {
    let [t, _] = figures::fig14(2011);
    assert_eq!(t.rows.len(), 4);
    let mixed62 = t.rows[0][0];
    let fixed62 = t.rows[1][0];
    let mixed30 = t.rows[2][0];
    let fixed30 = t.rows[3][0];
    assert!(fixed62 > 35.0 && fixed62 < 50.0, "62/600m baseline {fixed62}");
    assert!(mixed62 > fixed62, "shorter mixed loops sync faster");
    assert!(mixed30 <= 30.0 + 1e-9 && fixed30 <= 30.0 + 1e-9, "plan cap");
    assert!(fixed30 > 26.0, "62/600m 30-profile baseline {fixed30}");
}

#[test]
fn csv_export_roundtrips_structure() {
    let t = figures::fig5();
    let csv = t.to_csv();
    let lines: Vec<&str> = csv.trim().lines().collect();
    assert_eq!(lines.len(), 1 + t.rows.len());
    assert_eq!(lines[0].split(',').count(), t.columns.len());
}
