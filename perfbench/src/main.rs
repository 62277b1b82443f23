//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--baseline <report.json>]`
//!
//! Prints a human-readable report, writes the report (and, traced,
//! the trace) under `perfbench/out/`, and prints the result as the
//! last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits 1
//! when `correct` is false, 2 on bad arguments, 3 when a `--baseline`
//! comparison fails.

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::calib::Speed;
use perfbench::report::{self, Settings};
use perfbench::workload::{self, Workload, SETUP_REPS, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    settings: Settings,
    baseline: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut baseline) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--baseline" => baseline = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        settings: Settings {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
        },
        baseline,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--baseline <report.json>]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set = args.settings;
    let w = set.workload;
    let mut speed = Speed::new();
    let reps = if set.traced { 1 } else { SETUP_REPS };
    let setup_s = workload::setup(w, set.seed, reps, &mut speed);
    let out = if set.traced {
        workload::traced(w, set.seed, set.seconds)
    } else {
        workload::untraced(w, set.seed, set.seconds, setup_s, &mut speed)
    };
    print!("{}", report::render_text(&set, &out));
    let mut code = ExitCode::SUCCESS;
    match report::write_files(&set, &out) {
        Ok(path) => println!("  report: {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: cannot write the report: {e}");
            code = ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.baseline {
        let base = std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|t| figures::Json::parse(&t))
            .and_then(|b| report::diff(&b, &report::report_json(&set, &out)));
        match base {
            Ok((text, ok)) => {
                print!("{text}");
                if !ok {
                    code = ExitCode::from(3);
                }
            }
            Err(e) => {
                eprintln!("perfbench: baseline: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::result_line(&out, set.traced));
    // A wrong output, or a replica that does not reproduce the
    // program's run, fails the command as well as the result line.
    if !out.correct && code == ExitCode::SUCCESS {
        code = ExitCode::FAILURE;
    }
    code
}
