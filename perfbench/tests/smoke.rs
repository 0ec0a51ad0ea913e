//! Small-client smoke of every workload through the real binary: the
//! result line must carry exactly the metrics `BENCHMARK.json` lists,
//! each with its unit, and every correctness check must turn a corrupted
//! input into a counted failure.

use std::path::{Path, PathBuf};
use std::process::Command;

use chronosd::Json;
use perfbench::checks::Check;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::Workload;

const CLIENTS: &str = "2000";

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let entries = json
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list");
    entries
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
    dir: PathBuf,
}

fn run(workload: Workload, trace: bool, corrupt: Option<Check>) -> Run {
    let tag = corrupt.map_or("clean", Check::name);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}-{tag}",
        workload.name(),
        u8::from(trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir).args([
        "--workload",
        workload.name(),
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--clients",
        CLIENTS,
        "--out",
        "out",
    ]);
    if let Some(check) = corrupt {
        cmd.args(["--corrupt", check.name()]);
    }
    let output = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{} exited {:?}: {stdout}{}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    Run {
        stdout,
        result,
        dir,
    }
}

fn metrics_of(result: &Json) -> Vec<(String, String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                (name.clone(), unit.to_string(), value)
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(owned(&END_TO_END), listed("end_to_end"));
    assert_eq!(owned(&PER_LAYER), listed("per_layer"));
    let json = benchmark_json();
    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_listed_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let run = run(workload, trace, None);
            let what = format!("{} trace {trace}", workload.name());
            assert_eq!(
                run.result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{what}: {}",
                run.stdout
            );
            assert_eq!(
                run.result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                run.result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{what}"
            );
            let metrics = metrics_of(&run.result);
            let names: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            let expected = listed(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(names, expected, "{what}");
            if trace {
                let file = run
                    .dir
                    .join("out")
                    .join(format!("trace-{}-seed5.json", workload.name()));
                let text = std::fs::read_to_string(&file).expect("trace file written");
                let trace_json = Json::parse(&text).expect("trace file parses");
                assert!(trace_json
                    .get("spans")
                    .and_then(Json::as_arr)
                    .is_some_and(|s| !s.is_empty()));
                assert!(text.contains("trace.unexplained_s") && text.contains("trace.overhead_x"));
            } else {
                for (name, _, value) in &metrics {
                    assert!(*value > 0.0, "{what}: {name} = {value}");
                }
                assert!(run.stdout.contains("error_rate = 0 "), "{what}");
            }
            if workload.uses_daemon() && !trace {
                for name in ["resume_s", "status_p50_ms", "status_p90_ms"] {
                    assert!(run.stdout.contains(&format!("{name} = ")), "{what}: {name}");
                }
            }
        }
    }
}

#[test]
fn every_check_counts_its_failure() {
    let cases = [
        (Check::Repeat, Workload::Chronos100k, false),
        (Check::DaemonVsBare, Workload::DaemonResume36k, false),
        (Check::Restore, Workload::Chronos100k, true),
        (Check::Threads, Workload::Secure36k, true),
        (Check::Anchors, Workload::Chronos100k, false),
        (Check::Anchors, Workload::Secure36k, false),
        (Check::Anchors, Workload::DaemonResume36k, false),
    ];
    for (check, workload, trace) in cases {
        let run = run(workload, trace, Some(check));
        let what = format!("{} on {}", check.name(), workload.name());
        assert_eq!(
            run.result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{what}"
        );
        let failed = run
            .result
            .get("failed")
            .and_then(Json::as_u64)
            .expect("failed");
        assert!(failed >= 1, "{what}");
        let failures: Vec<&str> = run
            .stdout
            .lines()
            .filter(|l| l.starts_with("FAILED: "))
            .collect();
        assert_eq!(failures.len() as u64, failed, "{what}");
        let prefix = format!("FAILED: check {}", check.name());
        assert!(
            failures.iter().all(|l| l.starts_with(&prefix)),
            "{what}: {failures:?}"
        );
    }
}
