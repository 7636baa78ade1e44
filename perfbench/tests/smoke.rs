//! Smoke runs of every workload at tiny scale, untraced and traced: each
//! must exit 0, pass its own output checks, and print exactly the metrics
//! `BENCHMARK.json` declares for its kind of run, in the declared order for
//! the end-to-end ones.

use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The `name unit` pairs of the metrics in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let quoted = |s: &str, key: &str| -> String {
        let v = &s[s.find(key).expect("key present") + key.len()..];
        v[..v.find('"').expect("value closes")].to_owned()
    };
    body.split("{\"name\": \"")
        .skip(1)
        .map(|s| {
            format!(
                "{} {}",
                &s[..s.find('"').expect("name closes")],
                quoted(s, "\"unit\": \"")
            )
        })
        .collect()
}

/// Runs one smoke workload and returns the names of the metrics it reports.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_topple-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    // The `metric <name> = <value> <unit>` lines mirror the result line.
    let mut names = Vec::new();
    for line in stdout.lines().filter_map(|l| l.strip_prefix("metric ")) {
        let words: Vec<&str> = line.split(' ').collect();
        let (name, value, unit) = (words[0], words[2], words[3]);
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": {value}")),
            "{name} = {value} not in {last}"
        );
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} unit {unit} not in {last}"
        );
        names.push(format!("{name} {unit}"));
    }
    names
}

fn check(workload: &str) {
    let names = run(workload, false);
    assert_eq!(
        names,
        declared("end_to_end"),
        "{workload} end-to-end metrics"
    );

    let mut traced = run(workload, true);
    let mut per_layer = declared("per_layer");
    traced.sort();
    per_layer.sort();
    assert_eq!(traced, per_layer, "{workload} per-layer metrics");
}

#[test]
fn study_medium_smoke() {
    check("study-medium");
}

#[test]
fn worldgen_large_smoke() {
    check("worldgen-large");
}

#[test]
fn serve_read_smoke() {
    check("serve-read");
}

#[test]
fn serve_live_smoke() {
    check("serve-live");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_topple-perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
