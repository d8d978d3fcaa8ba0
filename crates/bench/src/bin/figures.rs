//! Regenerates the paper's figures and tables as data.
//!
//! Usage:
//!   figures [--quick] [--csv DIR] [fig2 fig3 ... fig15 cards summary | all]
//!   figures --from-jsonl out.jsonl [--csv DIR]
//!
//! With `--quick` the main scenario runs 2 repetitions instead of 10.
//! With `--from-jsonl` nothing is simulated: the energy / completion /
//! online-time / shard tables are rebuilt from a finished `insomnia run`
//! batch record — the only affordable path for giga/tera-metro outputs.

use insomnia_bench::figures as fig;
use insomnia_bench::Harness;
use insomnia_core::FigureData;
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir = args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)).cloned();
    let from_jsonl =
        args.iter().position(|a| a == "--from-jsonl").and_then(|i| args.get(i + 1)).cloned();
    if args.iter().any(|a| a == "--from-jsonl") && from_jsonl.is_none() {
        eprintln!("figures: --from-jsonl needs a batch JSONL file path");
        return ExitCode::FAILURE;
    }
    if let Some(path) = from_jsonl {
        let outputs = match tables_from_jsonl(&path) {
            Ok(outputs) => outputs,
            Err(e) => {
                eprintln!("figures: {e}");
                return ExitCode::FAILURE;
            }
        };
        emit(&outputs, csv_dir.as_deref());
        return ExitCode::SUCCESS;
    }
    let mut wanted: BTreeSet<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| Some(a.as_str()) != csv_dir.as_deref())
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.contains("all") {
        wanted = [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9a",
            "fig9b",
            "fig10",
            "fig12",
            "fig14",
            "fig15",
            "cards",
            "completion",
            "summary",
            "ablation",
            "doze",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    let h = if quick { Harness::quick() } else { Harness::paper() };
    let seed = h.scenario.seed;
    let needs_main = ["fig6", "fig7", "fig8", "fig9a", "fig9b", "cards", "completion", "summary"]
        .iter()
        .any(|f| wanted.contains(*f));
    let runs = if needs_main {
        eprintln!("running main scenario ({} repetitions × 8 schemes)...", h.scenario.repetitions);
        Some(fig::run_main(&h))
    } else {
        None
    };

    let mut outputs: Vec<FigureData> = Vec::new();
    for name in &wanted {
        match name.as_str() {
            "fig2" => outputs.push(fig::fig2(seed)),
            "fig3" => outputs.push(fig::fig3(&h)),
            "fig4" => outputs.push(fig::fig4(&h)),
            "fig5" => outputs.push(fig::fig5()),
            "fig6" => outputs.push(fig::fig6(&h, runs.as_ref().expect("main"))),
            "fig7" => outputs.push(fig::fig7(&h, runs.as_ref().expect("main"))),
            "fig8" => outputs.push(fig::fig8(&h, runs.as_ref().expect("main"))),
            "fig9a" => outputs.push(fig::fig9a(runs.as_ref().expect("main"))),
            "fig9b" => outputs.push(fig::fig9b(runs.as_ref().expect("main"))),
            "fig10" => outputs.push(fig::fig10(&h)),
            "fig12" => {
                outputs.push(fig::fig12(&h));
                outputs.push(fig::fig12_summary(&h));
            }
            "fig14" => {
                outputs.push(fig::fig14_baselines(seed));
                outputs.push(fig::fig14(seed));
            }
            "fig15" => outputs.push(fig::fig15(seed)),
            "cards" => outputs.push(fig::cards_table(runs.as_ref().expect("main"))),
            "completion" => outputs.push(fig::completion_table(runs.as_ref().expect("main"))),
            "ablation" => outputs.push(fig::ablation(&h)),
            "doze" => outputs.push(fig::doze_table(&h)),
            "summary" => outputs.push(fig::summary(runs.as_ref().expect("main"))),
            other => eprintln!("unknown figure: {other}"),
        }
    }

    emit(&outputs, csv_dir.as_deref());
    ExitCode::SUCCESS
}

/// Reads a batch JSONL file and rebuilds its figure tables.
fn tables_from_jsonl(path: &str) -> Result<Vec<FigureData>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report = insomnia_bench::parse_jsonl(path, &text).map_err(|e| e.to_string())?;
    eprintln!(
        "rebuilding tables from {} record(s) in {path} (no simulation)",
        report.records.len()
    );
    Ok(report.tables())
}

fn emit(outputs: &[FigureData], csv_dir: Option<&str>) {
    for data in outputs {
        println!("{data}");
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{}.csv", data.name);
            std::fs::write(&path, data.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}
