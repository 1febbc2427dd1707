//! `ccperf` command line.
//!
//! ```text
//! ccperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE] [--n N]
//! ccperf compare BASE.jsonl NEW.jsonl
//! ```
//!
//! The last line of standard output is the result object; `--out`
//! appends the same result with its workload, seed and host to `FILE`
//! (one JSON line per run), which `compare` reads.

use ccperf::{report, run, Opts};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: ccperf --workload <gc-sparse|mst-sq|rt-conn|serve-mix> --seed <n> \
--seconds <s> --trace <0|1> [--out FILE] [--n N]\n       ccperf compare BASE.jsonl NEW.jsonl";

fn parse(args: &[String]) -> Result<(Opts, Option<String>), String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        n: None,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--n" => {
                let n: usize = value()?.parse().map_err(|_| "--n: not a number")?;
                if !(4..=4096).contains(&n) {
                    return Err("--n must be in 4..=4096".into());
                }
                o.n = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((o, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(base).and_then(|a| read(new).and_then(|b| report::compare(&a, &b))) {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ccperf compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (opts, out) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ccperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ccperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in report.table() {
        println!("{line}");
    }
    if let Some(path) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", report.record_json().emit()));
        if let Err(e) = appended {
            eprintln!("ccperf: --out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report.result_json().emit());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
