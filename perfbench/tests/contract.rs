//! `BENCHMARK.json` and the binary agree: the metric tables list the
//! same names, units, directions and bounds, and every pass prints
//! exactly its table's metrics as the last line of its output.

use std::process::Command;

use figures::Json;
use perfbench::metrics::{Def, END_TO_END, PER_LAYER};
use perfbench::workload::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
    match doc.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn check_table(listed: &[Json], table: &[Def]) {
    assert_eq!(listed.len(), table.len());
    for (entry, def) in listed.iter().zip(table) {
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
        let bound = match entry.get("bound") {
            Some(Json::Num(b)) => Some(*b),
            None => None,
            other => panic!("{}: bad bound {other:?}", def.name),
        };
        assert_eq!(bound, def.bound, "{}", def.name);
    }
}

#[test]
fn benchmark_json_lists_the_metric_tables_and_workloads() {
    let doc = benchmark_json();
    check_table(arr(&doc, "end_to_end"), &END_TO_END);
    check_table(arr(&doc, "per_layer"), &PER_LAYER);
    let names: Vec<&str> = arr(&doc, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_pass_prints_its_table() {
    for w in WORKLOADS {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("run perfbench");
            assert!(out.status.success(), "{} trace {trace}: {out:?}", w.name());
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON line");
            let Json::Obj(fields) = &last else {
                panic!("not an object: {last:?}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert!(matches!(last.get("attempted"), Some(Json::Num(a)) if *a >= 1.0));
            assert_eq!(last.get("failed"), Some(&Json::Num(0.0)), "{stdout}");
            let Some(Json::Obj(metrics)) = last.get("metrics") else {
                panic!("no metrics")
            };
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(k, v)| (k.as_str(), str_of(v, "unit")))
                .collect();
            let expected: Vec<(&str, &str)> = table.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(printed, expected, "{} trace {trace}", w.name());
        }
    }
}
