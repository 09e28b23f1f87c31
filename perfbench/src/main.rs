//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, one `record` JSON line with the run's
//! facts, and as the last line of standard output the result object:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). The record
//! and the spans of a traced run are also written under `perfbench/out/`.
//! Exits with status 1 when an output check fails and 2 on a bad command
//! line.

use std::path::PathBuf;

use perfbench::{run, stats, Args, Outcome, Size, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <graph_beam|op_serve_open|ppo_train> --seed <n> --seconds <n> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|_| bad("not a whole number"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("out of 1..=3600"));
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &Size::bench());
    let Outcome {
        mut problems,
        attempted,
        failed,
        metrics,
        digest,
        tail_label,
        notes,
        recorder,
    } = outcome;

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        problems.push(format!("metrics reported {names:?}, expected {want:?}"));
    }
    if let Some((name, value, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        problems.push(format!("{name} is {value}"));
    }
    let correct = problems.is_empty() && attempted > 0;

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<30} {value:>14.6} {unit}");
    }
    for (key, value) in &notes {
        println!("  {key:<30} {value}");
    }
    println!("  outputs_digest                 {digest:016x}");
    for problem in &problems {
        println!("  CHECK FAILED: {problem}");
    }

    let out_dir = PathBuf::from("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if let Some(recorder) = &recorder {
        let path = out_dir.join(format!("{stem}.spans.jsonl"));
        match recorder.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans                          {} -> {}",
                recorder.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let mut record = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", stats::nproc().to_string()),
        ("git_sha", json_string(&stats::git_sha())),
        ("outputs_digest", json_string(&format!("{digest:016x}"))),
        ("correct", correct.to_string()),
    ];
    if !tail_label.is_empty() {
        record.push(("tail_percentile", json_string(&tail_label)));
    }
    let notes_json: Vec<String> = notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let notes_field = format!("{{{}}}", notes_json.join(","));
    record.push(("notes", notes_field));
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("record {record_json}");
    let _ = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), &record_json));

    let metrics_json: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value:?},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics_json.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
