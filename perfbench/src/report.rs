//! Reports: environment metadata, the report and trace files, the
//! result line, and the comparison with a committed baseline.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use figures::Json;

use crate::metrics::{self, Better};
use crate::workload::{Outcome, TraceLog, Workload, SETUP_REPS};

/// Where reports and traces are written: `out/` beside the
/// benchmark's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Traced pass?
    pub traced: bool,
}

/// The commit the benchmark was built from, read from the
/// repository's `.git` directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `SOURCE_DATE_EPOCH` when set and parseable (reproducible
/// reports), else the wall clock — as `BENCH_results.json` stamps.
fn generated_unix() -> u64 {
    std::env::var("SOURCE_DATE_EPOCH")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())
        })
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn s(v: &str) -> Json {
    Json::Str(v.into())
}

/// Environment and effort metadata for a report.
fn meta(set: &Settings) -> Json {
    let w = set.workload;
    let mut effort = vec![
        ("seconds".into(), num(set.seconds as f64)),
        ("min_runs".into(), num(w.min_runs(set.traced) as f64)),
        ("setup_reps".into(), num(SETUP_REPS as f64)),
    ];
    let shape = w.shape();
    effort.push(("n".into(), num(shape.n as f64)));
    effort.push(("throughput_per_s".into(), num(shape.throughput)));
    effort.push(("model".into(), s(&format!("{:?}", shape.model))));
    effort.push((
        "batching".into(),
        match shape.batching {
            Some(cfg) => s(&format!("max {} / {}", cfg.max_batch(), cfg.max_delay())),
            None => Json::Null,
        },
    ));
    effort.push((
        "window_s".into(),
        s(&format!(
            "warmup {} measure {} drain {}",
            shape.warmup, shape.measure, shape.drain
        )),
    ));
    effort.push(("script".into(), s(&format!("{:?}", w.script().events()))));
    Json::Obj(vec![
        ("workload".into(), s(w.name())),
        ("seed".into(), num(set.seed as f64)),
        ("trace".into(), Json::Bool(set.traced)),
        ("generated_unix".into(), num(generated_unix() as f64)),
        (
            "cores".into(),
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu".into(), s(&cpu_model())),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin, codegen-units=1)"
            }),
        ),
        ("rustc".into(), s(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_rev".into(), s(&git_rev())),
        ("effort".into(), Json::Obj(effort)),
    ])
}

/// The metrics of a pass as a JSON object `{name: {value, unit}}`, in
/// table order.
///
/// # Panics
///
/// Panics if the pass did not produce a metric of its table, or
/// produced a non-finite value: both are bugs in the benchmark.
fn metrics_json(out: &Outcome, traced: bool) -> Json {
    Json::Obj(
        metrics::table(traced)
            .iter()
            .map(|d| {
                let v = *out
                    .metrics
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(v.is_finite(), "metric {} is {v}", d.name);
                (
                    d.name.to_string(),
                    Json::Obj(vec![("value".into(), num(v)), ("unit".into(), s(d.unit))]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), num(out.attempted as f64)),
        ("failed".into(), num(out.failed as f64)),
        ("metrics".into(), metrics_json(out, traced)),
    ])
    .render()
}

/// The report document: metadata, outcome, metrics and (traced) the
/// ranked ledger.
pub fn report_json(set: &Settings, out: &Outcome) -> Json {
    let mut doc = vec![
        ("schema".into(), num(1.0)),
        ("meta".into(), meta(set)),
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), num(out.attempted as f64)),
        ("failed".into(), num(out.failed as f64)),
        ("failed_frac".into(), num(out.failed_frac())),
        ("metrics".into(), metrics_json(out, set.traced)),
        (
            "raw".into(),
            Json::Obj(
                out.raw
                    .iter()
                    .map(|(k, v)| (k.to_string(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "notes".into(),
            Json::Arr(out.notes.iter().map(|n| s(n)).collect()),
        ),
        (
            "problems".into(),
            Json::Arr(out.problems.iter().map(|p| s(p)).collect()),
        ),
    ];
    if let Some(log) = &out.trace {
        doc.push(("ledger".into(), ledger_json(log)));
    }
    Json::Obj(doc)
}

fn ledger_json(log: &TraceLog) -> Json {
    Json::Obj(vec![
        ("wall_ms".into(), num(log.wall_ms)),
        (
            "rows".into(),
            Json::Arr(
                log.ledger
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), s(&r.name)),
                            ("self_ms".into(), num(r.self_ms)),
                            ("share".into(), num(r.self_ms / log.wall_ms)),
                            ("calls".into(), num(r.calls as f64)),
                            (
                                "allocs_per_call".into(),
                                r.allocs_per_call.map_or(Json::Null, num),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The trace document: spans with parent ids, and each run's
/// per-layer handler counters.
fn trace_json(set: &Settings, log: &TraceLog) -> Json {
    let spans = log
        .spans
        .iter()
        .map(|sp| {
            Json::Arr(vec![
                num(sp.id as f64),
                num(sp.parent as f64),
                s(sp.name),
                num(sp.start_ns as f64),
                num(sp.end_ns as f64),
            ])
        })
        .collect();
    let counters = |c: &crate::trace::Counters| {
        Json::Arr(vec![
            num(c.calls as f64),
            num(c.ns as f64),
            num(c.allocs as f64),
            num(c.sent as f64),
        ])
    };
    let runs = log
        .runs
        .iter()
        .map(|r| {
            let mut layers: Vec<(String, Json)> = crate::trace::LAYERS
                .iter()
                .map(|l| (l.name().to_string(), counters(r.handlers.layer(*l))))
                .collect();
            layers.push(("batch.shell".into(), counters(&r.handlers.shell)));
            layers.push(("kernel.callbacks".into(), counters(&r.handlers.kernel)));
            Json::Obj(vec![
                ("run".into(), num(r.run as f64)),
                ("alg".into(), s(&format!("{:?}", r.alg))),
                ("n".into(), num(r.n as f64)),
                ("span".into(), num(r.span as f64)),
                ("payloads".into(), num(r.handlers.payloads as f64)),
                ("layers".into(), Json::Obj(layers)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), num(1.0)),
        ("meta".into(), meta(set)),
        (
            "span_fields".into(),
            Json::Arr(
                ["id", "parent", "name", "start_ns", "end_ns"]
                    .map(s)
                    .to_vec(),
            ),
        ),
        ("spans".into(), Json::Arr(spans)),
        (
            "counter_fields".into(),
            Json::Arr(["calls", "ns", "allocs", "sent"].map(s).to_vec()),
        ),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Human-readable report lines.
pub fn render_text(set: &Settings, out: &Outcome) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "perfbench {}", meta(set).render());
    for n in &out.notes {
        let _ = writeln!(t, "  {n}");
    }
    for p in &out.problems {
        let _ = writeln!(t, "  PROBLEM: {p}");
    }
    let _ = writeln!(
        t,
        "  attempted {} failed {} (failed_frac over the fixed set of runs {})",
        out.attempted,
        out.failed,
        out.failed_frac()
    );
    for d in metrics::table(set.traced) {
        if let Some(v) = out.metrics.get(d.name) {
            let kind = if d.exact { "sim/count" } else { "host" };
            let _ = writeln!(t, "  {:<28} {:>16.6} {:<7} [{kind}]", d.name, v, d.unit);
        }
    }
    for (name, v) in &out.raw {
        let _ = writeln!(t, "  {name:<28} {v:>16.6} (raw host, report file only)");
    }
    if let Some(log) = &out.trace {
        let _ = writeln!(
            t,
            "  ledger: self time over {:.1} ms of traced run wall (shares sum to 1)",
            log.wall_ms
        );
        let mut sum = 0.0;
        for r in &log.ledger {
            let share = r.self_ms / log.wall_ms;
            sum += share;
            let calls = if r.calls > 0 {
                format!("{} calls", r.calls)
            } else {
                String::new()
            };
            let allocs = r
                .allocs_per_call
                .map(|a| format!("{a:.2} allocs/call"))
                .unwrap_or_default();
            let _ = writeln!(
                t,
                "    {:<38} {:>12.3} ms {:>7.2}%  {calls:<16} {allocs}",
                r.name,
                r.self_ms,
                share * 100.0
            );
        }
        let _ = writeln!(t, "    {:<38} {:>15} {:>7.2}%", "total", "", sum * 100.0);
    }
    t
}

/// Writes the report (and, traced, the trace) under [`out_dir`];
/// returns the report's path.
pub fn write_files(set: &Settings, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        set.workload.name(),
        set.seed,
        u8::from(set.traced)
    );
    let report = dir.join(format!("{stem}.json"));
    std::fs::write(&report, report_json(set, out).render() + "\n")?;
    if let Some(log) = &out.trace {
        std::fs::write(
            dir.join(format!("{stem}.spans.json")),
            trace_json(set, log).render() + "\n",
        )?;
    }
    Ok(report)
}

/// Compares a fresh report with a baseline report. Simulated-time and
/// counted metrics must match exactly at the same seed (a difference
/// is a behaviour change, not noise); wall-clock metrics are judged
/// against their bounds. Returns the comparison text and whether it
/// passed.
pub fn diff(baseline: &Json, fresh: &Json) -> Result<(String, bool), String> {
    let field = |doc: &Json, path: &[&str]| -> Option<Json> {
        let mut v = doc;
        for k in path {
            v = v.get(k)?;
        }
        Some(v.clone())
    };
    for key in ["workload", "trace"] {
        if field(baseline, &["meta", key]) != field(fresh, &["meta", key]) {
            return Err(format!("baseline and fresh run differ in {key}"));
        }
    }
    let same_seed = field(baseline, &["meta", "seed"]) == field(fresh, &["meta", "seed"]);
    let value = |doc: &Json, name: &str| {
        let path = if name == "failed_frac" {
            vec![name]
        } else {
            vec!["metrics", name, "value"]
        };
        match field(doc, &path) {
            Some(Json::Num(x)) => Some(x),
            _ => None,
        }
    };
    let mut text = String::new();
    let mut ok = true;
    let _ = writeln!(
        text,
        "baseline comparison ({}):",
        if same_seed {
            "same seed: simulated metrics must match exactly"
        } else {
            "different seed: simulated metrics not compared"
        }
    );
    let mut names: Vec<&str> = vec!["failed_frac"];
    if let Json::Obj(fields) = fresh.get("metrics").unwrap_or(&Json::Null) {
        names.extend(fields.iter().map(|(k, _)| k.as_str()));
    }
    for name in names {
        let (Some(b), Some(f)) = (value(baseline, name), value(fresh, name)) else {
            let _ = writeln!(text, "  {name:<28} missing on one side");
            ok = false;
            continue;
        };
        let def = metrics::find(name);
        let exact = name == "failed_frac" || def.is_some_and(|d| d.exact);
        let verdict = if exact {
            if !same_seed {
                "not compared".to_string()
            } else if b.to_bits() == f.to_bits() {
                "exact".to_string()
            } else {
                ok = false;
                "BEHAVIOUR CHANGE".to_string()
            }
        } else {
            let change = if b == 0.0 { 0.0 } else { (f - b) / b.abs() };
            let worse = match def.map(|d| d.better) {
                Some(Better::Higher) => -change,
                _ => change,
            };
            match def.and_then(|d| d.bound) {
                Some(bound) if worse > bound => {
                    ok = false;
                    format!(
                        "REGRESSION (worse by {:.1}% > {:.0}%)",
                        worse * 100.0,
                        bound * 100.0
                    )
                }
                Some(bound) => format!(
                    "within bound ({:+.1}%, bound {:.0}%)",
                    change * 100.0,
                    bound * 100.0
                ),
                None => format!("{:+.1}% (no bound)", change * 100.0),
            }
        };
        let _ = writeln!(text, "  {name:<28} {b:>16.6} -> {f:>16.6}  {verdict}");
    }
    Ok((text, ok))
}
