//! Every workload at tiny size, untraced and traced: the run passes its
//! output checks and prints every catalogued metric of its kind with a
//! unit and a sample count, ending with the contract's JSON line.

use std::process::Command;

use osars_benchmark::report::{Kind, CATALOGUE};
use osars_benchmark::workload::NAMES;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_osars-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_with_unit_and_samples() {
    for workload in NAMES {
        for trace in ["0", "1"] {
            let stdout = run(workload, trace);
            for d in CATALOGUE {
                if d.kind == Kind::Layer && trace == "0" {
                    continue;
                }
                let prefix = format!(" {} = ", d.name);
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with("metric ") && l.contains(&prefix))
                    .unwrap_or_else(|| panic!("{workload}: no line for {}", d.name));
                assert!(
                    line.contains(&format!(" {} (n=", d.unit)),
                    "{workload}: '{line}' lacks its unit or sample count"
                );
            }
            let last = stdout.lines().last().expect("output is not empty");
            let v = osa_json::parse(last).expect("last line is JSON");
            assert_eq!(v.get("correct"), Some(&osa_json::Value::Bool(true)));
            assert!(v.get("attempted").and_then(|a| a.as_u64()).unwrap() >= 1);
            let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap();
            let want: Vec<&str> = CATALOGUE
                .iter()
                .filter(|d| match trace {
                    "0" => d.kind == Kind::EndToEnd && d.gated,
                    _ => d.kind == Kind::Layer,
                })
                .map(|d| d.name)
                .collect();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(|x| x.as_f64()).unwrap();
                    assert!(value > 0.0, "{workload}: gated {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "batch-large",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "batch-large",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "batch-large",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_osars-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
