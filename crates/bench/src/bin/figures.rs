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
//! `-h` / `--help` anywhere prints the usage line and exits 0. An unknown
//! flag or figure name, or `--csv` / `--from-jsonl` without a value, exits
//! 1 with the usage line before anything is simulated. A closed stdout
//! ends the printing quietly; a failed CSV or other write exits 1 with a
//! one-line message.

use insomnia_bench::figures as fig;
use insomnia_bench::{Harness, MainRuns};
use insomnia_core::FigureData;
use std::collections::BTreeSet;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: figures [--quick] [--csv DIR] [FIGURE ... | all]\n       \
                     figures --from-jsonl FILE [--csv DIR]";

/// Every figure/table name the binary prints (`all` selects them all).
const FIGURES: &str = "fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9a fig9b fig10 fig12 fig14 fig15 \
                       cards completion summary ablation doze";

#[derive(Default)]
struct Args {
    quick: bool,
    csv_dir: Option<String>,
    from_jsonl: Option<String>,
    wanted: BTreeSet<&'static str>,
}

/// Parses the command line. An unknown flag or figure name, or a value
/// flag without its value, is an error, so a typo never starts a
/// full-length simulation.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or(format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--csv" => out.csv_dir = Some(value()?),
            "--from-jsonl" => out.from_jsonl = Some(value()?),
            "all" => out.wanted.extend(FIGURES.split_whitespace()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            name => {
                let known = FIGURES.split_whitespace().find(|&f| f == name);
                out.wanted.insert(known.ok_or(format!("unknown figure: {name}"))?);
            }
        }
    }
    if out.from_jsonl.is_some() && !out.wanted.is_empty() {
        return Err("--from-jsonl rebuilds its own tables and takes no figure names".to_string());
    }
    if out.wanted.is_empty() {
        out.wanted.extend(FIGURES.split_whitespace());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = if args.iter().any(|a| a == "-h" || a == "--help") {
        match writeln!(std::io::stdout(), "{USAGE}") {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("write stdout: {e}")),
            _ => Ok(()),
        }
    } else {
        parse_args(&args).map_err(|e| format!("{e}\n{USAGE}")).and_then(|args| {
            let outputs = match &args.from_jsonl {
                Some(path) => tables_from_jsonl(path)?,
                None => simulate(args.quick, &args.wanted),
            };
            emit(&outputs, args.csv_dir.as_deref())
        })
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the wanted figures. The scheme figures share one batch over the
/// union of the schemes they need, so no scheme runs twice.
fn simulate(quick: bool, wanted: &BTreeSet<&str>) -> Vec<FigureData> {
    let h = if quick { Harness::quick() } else { Harness::paper() };
    let seed = h.scenario.seed;
    let needs_main = ["fig6", "fig7", "fig8", "fig9a", "fig9b", "cards", "completion", "summary"]
        .iter()
        .any(|f| wanted.contains(f));
    let mut schemes = Vec::new();
    if needs_main {
        schemes.extend(fig::MAIN_SCHEMES);
    }
    if wanted.contains("doze") {
        schemes.extend(fig::DOZE_SCHEMES);
    }
    let mut runs = (!schemes.is_empty()).then(|| {
        eprintln!("running the scheme batch ({} repetitions)...", h.scenario.repetitions);
        fig::run_schemes(&h, &schemes)
    });
    let mut doze =
        wanted.contains("doze").then(|| fig::doze_table(&h, runs.as_ref().expect("runs")));
    let runs = needs_main.then(|| MainRuns::from_runs(&h, runs.take().expect("runs")));
    let main = || runs.as_ref().expect("main");

    let mut outputs: Vec<FigureData> = Vec::new();
    for &name in wanted {
        match name {
            "fig2" => outputs.push(fig::fig2(seed)),
            "fig3" => outputs.push(fig::fig3(&h)),
            "fig4" => outputs.push(fig::fig4(&h)),
            "fig5" => outputs.push(fig::fig5()),
            "fig6" => outputs.push(fig::fig6(&h, main())),
            "fig7" => outputs.push(fig::fig7(&h, main())),
            "fig8" => outputs.push(fig::fig8(&h, main())),
            "fig9a" => outputs.push(fig::fig9a(main())),
            "fig9b" => outputs.push(fig::fig9b(main())),
            "fig10" => outputs.push(fig::fig10(&h)),
            "fig12" => outputs.extend(fig::fig12(&h)),
            "fig14" => outputs.extend(fig::fig14(seed)),
            "fig15" => outputs.push(fig::fig15(seed)),
            "cards" => outputs.push(fig::cards_table(main())),
            "completion" => outputs.push(fig::completion_table(main())),
            "ablation" => outputs.push(fig::ablation(&h)),
            "doze" => outputs.extend(doze.take()),
            "summary" => outputs.push(fig::summary(main())),
            other => unreachable!("{other} is not in FIGURES"),
        }
    }
    outputs
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

/// Prints every table to stdout and, with `--csv DIR`, writes each to
/// `DIR/<name>.csv`. A reader that closed stdout early (`figures all |
/// head`) stops the printing, not the CSV files; any other write error is
/// an error.
fn emit(outputs: &[FigureData], csv_dir: Option<&str>) -> Result<(), String> {
    let mut stdout = Some(std::io::stdout().lock());
    for data in outputs {
        if let Some(out) = &mut stdout {
            match writeln!(out, "{data}").and_then(|()| out.flush()) {
                Err(e) if e.kind() == ErrorKind::BrokenPipe => stdout = None,
                wrote => wrote.map_err(|e| format!("write stdout: {e}"))?,
            }
        }
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create csv dir {dir}: {e}"))?;
            let path = format!("{dir}/{}.csv", data.name);
            std::fs::write(&path, data.to_csv()).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}
