//! Self-test: every workload at tiny size, untraced and traced. Every
//! metric `BENCHMARK.json` names must be printed, finite and carry its
//! unit, and no query may fail.

use perfbench::{run, Options, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn tiny(name: &str, trace: bool) -> Options {
    let w = WORKLOADS.iter().copied().find(|w| w.name == name).unwrap();
    let mut o = Options::new(w, 7, 0.2, trace);
    o.nodes = 300;
    o.max_queries = Some(4);
    o.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{trace}"));
    o
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name)),
            "BENCHMARK.json lacks workload {}",
            w.name
        );
    }
}

#[test]
fn every_workload_prints_every_metric_finite_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let opts = tiny(w.name, trace);
            let report = run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            let notes = report.notes.join("\n");
            assert!(
                report.correct,
                "{} trace={trace} not correct:\n{notes}",
                w.name
            );
            assert_eq!(
                report.failed, 0,
                "{}: fail_ratio must be 0:\n{notes}",
                w.name
            );
            assert!(report.attempted > 0);
            assert!(notes.contains("fail_ratio = 0 ratio"), "{notes}");
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = report
                .metrics(trace)
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            assert_eq!(got, expected, "{} trace={trace}", w.name);
            for m in report.metrics(trace) {
                assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
            }
            // the cost model is printed only as modeled, never as a measurement
            for line in report.notes.iter().filter(|l| l.starts_with("model.")) {
                assert!(line.contains("modeled"), "{line}");
            }
            std::fs::remove_dir_all(&opts.out_dir).ok();
        }
    }
}
