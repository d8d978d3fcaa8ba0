//! The `figures` binary's command line: `--help` prints the usage line
//! and bad input exits 1 with it, both simulating nothing; a valid analytic
//! figure still prints; write failures exit cleanly instead of panicking.

use std::process::{Command, Output, Stdio};

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

#[test]
fn help_anywhere_prints_the_usage_and_exits_0_without_simulating() {
    for args in [&["--help"][..], &["-h"], &["--quick", "--help"], &["fig99", "-h"]] {
        let out = figures(args);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stdout.starts_with("usage: figures"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}

#[test]
fn closed_stdout_exits_0_and_a_bad_csv_dir_exits_1_without_panicking() {
    // The reader end is dropped before the spawn: every write hits EPIPE.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "fig5"])
        .stdout(Stdio::from(writer))
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "closed stdout: {stderr}");
    assert!(!stderr.contains("panicked"), "closed stdout: {stderr}");

    // A CSV directory under a regular file cannot be created.
    let file = std::env::temp_dir().join(format!("figures-cli-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let dir = file.join("csv");
    let out = figures(&["--csv", dir.to_str().unwrap(), "fig5"]);
    std::fs::remove_file(&file).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "bad --csv: {stderr}");
    assert!(stderr.starts_with("figures: create csv dir"), "bad --csv: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
    assert!(!stderr.contains("panicked"), "bad --csv: {stderr}");
}
