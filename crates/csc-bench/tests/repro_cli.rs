//! The `repro` CLI refuses bad arguments with exit status 2 and a message
//! naming the argument, instead of panicking inside a generator or
//! silently running a different experiment than the one asked for.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn bad_arguments_exit_2_naming_the_argument() {
    for (args, named) in [
        (&["--scale", "nan", "table4"][..], "--scale"),
        (&["--scale", "0", "table4"], "--scale"),
        (&["--scale", "-0.5", "table4"], "--scale"),
        (&["--scale", "inf", "table4"], "--scale"),
        (&["--scale", "lots", "table4"], "--scale"),
        (&["--seed", "-1", "table4"], "--seed"),
        (&["--datasets", "G4", "table4"], "G4"),
        (&["--datasets", "G04,nope", "table4"], "nope"),
        (&["--datasets", "", "table4"], "--datasets"),
        (&["--bogus", "table4"], "--bogus"),
        (&["no-such-command"], "no-such-command"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn a_good_invocation_runs() {
    let out = repro(&["--quick", "--scale", "0.02", "--datasets", "G04", "table4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("G04"), "{stdout}");
    assert!(
        !stdout.contains("G30"),
        "--datasets G04 ran G30 too: {stdout}"
    );
}
