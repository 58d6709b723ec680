//! Runs both workloads at a tiny scale, untraced and traced, and checks
//! that every metric `BENCHMARK.json` declares prints with its unit and
//! that the output checks pass.

use perfbench::{Outcome, Spec, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    let field = |object: &str, key: &str| {
        let at = object
            .find(&format!("\"{key}\": \""))
            .map(|i| i + key.len() + 5)?;
        Some(object[at..at + object[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").expect("metric name"),
                field(object, "unit").expect("metric unit"),
            )
        })
        .collect()
}

/// Two epochs of ten windows, with a checkpoint every four.
fn tiny(workload: Workload) -> Spec {
    Spec {
        scale: 0.02,
        epochs: 2,
        windows: 10,
        reads_per_window: 64,
        checkpoint_every: 4,
        setups: 2,
        recoveries: 2,
        check_sample: 40,
        ..Spec::new(workload, 1)
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

fn assert_prints(outcome: &Outcome, section: &str) {
    assert!(
        outcome.correct(),
        "problems: {:?}\n{}",
        outcome.tally.problems,
        outcome.lines.join("\n")
    );
    let json = outcome.json();
    let metrics = declared(section);
    assert_eq!(outcome.metrics.len(), metrics.len(), "{json}");
    for (name, unit) in metrics {
        let line = outcome
            .lines
            .iter()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} is not printed"));
        assert!(line.contains(&format!(" {unit} (n=")), "{line}");
        let at = json
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} not in {json}"));
        let entry = &json[at..at + json[at..].find('}').expect("the entry closes")];
        assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
    }
    for header in [
        "# env rev=",
        "# fingerprint windows=20 ",
        "# input epochs=2 ",
    ] {
        assert!(
            outcome.lines.iter().any(|l| l.starts_with(header)),
            "{header} missing"
        );
    }
}

#[test]
fn both_workloads_print_every_declared_metric() {
    for workload in [Workload::Serve, Workload::Churn] {
        let spec = tiny(workload);
        let untraced = perfbench::run(&spec, 7, false, &out_dir());
        assert_prints(&untraced, "end_to_end");
        let traced = perfbench::run(&spec, 7, true, &out_dir());
        assert_prints(&traced, "per_layer");
        let fingerprint = |o: &Outcome| {
            o.lines
                .iter()
                .find(|l| l.starts_with("# fingerprint"))
                .cloned()
        };
        assert_eq!(
            fingerprint(&untraced),
            fingerprint(&traced),
            "one seed, one work fingerprint"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "restart"][..],
        &["--seed", "1"],
        &["--workload", "serve", "--trace", "2"],
        &["--workload", "churn", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(out_dir().parent().expect("a target directory"))
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
