//! The `figures` binary's command line: bad input exits 1 with the usage
//! line and simulates nothing; a valid analytic figure still prints.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures")
}

#[test]
fn bad_input_exits_1_without_simulating_and_good_input_runs() {
    for (args, why) in [
        (&["fig99"][..], "unknown figure: fig99"),
        (&["--qiuck", "fig5"], "unknown flag: --qiuck"),
        (&["--csv"], "--csv needs a value"),
        (&["--csv", "--quick", "fig5"], "--csv needs a value"),
        (&["--from-jsonl", "out.jsonl", "fig5"], "takes no figure names"),
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(why) && stderr.contains("usage: figures"), "{args:?}: {stderr}");
        // Nothing ran: no table on stdout, no progress line on stderr.
        assert!(out.stdout.is_empty() && !stderr.contains("running"), "{args:?}: {stderr}");
    }
    let out = figures(&["--quick", "fig5"]);
    assert!(out.status.success() && String::from_utf8_lossy(&out.stdout).contains("fig5"));
}
