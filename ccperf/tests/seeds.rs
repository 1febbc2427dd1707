//! The seed is the benchmark's only source of input: different seeds give
//! different inputs that all validate, and one seed reproduces the same
//! model counts in separate processes.

use cc_trace::Json;
use ccperf::batch::{setup, Batch};
use ccperf::workloads::{GcSparse, MstSq, RtConn};
use std::process::Command;

/// Generates the inputs of two seeds, checks they differ, and solves and
/// validates every one of them.
fn two_seeds_differ_and_validate<B: Batch>(b: &B, same: impl Fn(&B::Input, &B::Input) -> bool) {
    let a = setup(b, 1).inputs;
    let c = setup(b, 2).inputs;
    assert_eq!(a.len(), b.inputs());
    assert!(
        a.iter().zip(&c).all(|(x, y)| !same(x, y)),
        "seeds 1 and 2 gave an identical input"
    );
    for (i, input) in a.iter().chain(&c).enumerate() {
        let mut engine = b.engine(i as u64 + 1);
        let (out, cost) = b.solve(&mut engine, input).expect("solve");
        b.validate(input, &out).expect("valid answer");
        assert!(cost.rounds > 0);
    }
}

#[test]
fn gc_sparse_seeds_give_distinct_valid_inputs() {
    two_seeds_differ_and_validate(&GcSparse { n: 48 }, |x, y| x.edges() == y.edges());
}

#[test]
fn mst_sq_seeds_give_distinct_valid_inputs() {
    two_seeds_differ_and_validate(&MstSq { n: 24 }, |x, y| x.edges() == y.edges());
}

#[test]
fn rt_conn_seeds_give_distinct_valid_inputs() {
    let b = RtConn { n: 24, threads: 2 };
    two_seeds_differ_and_validate(&b, |x, y| b.adjacency(x) == b.adjacency(y));
}

/// The result line of one benchmark process.
fn result_of(workload: &str, seed: u64, n: usize) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ccperf"))
        .args(["--workload", workload, "--seconds", "0.5", "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--n", &n.to_string()])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn model_counts(result: &Json) -> Vec<f64> {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics");
    ["rounds", "messages", "words"]
        .iter()
        .map(|m| {
            metrics
                .get(m)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .expect("a model count")
        })
        .collect()
}

#[test]
fn one_seed_reproduces_model_counts_across_processes() {
    for (workload, n) in [
        ("gc-sparse", 48),
        ("mst-sq", 24),
        ("rt-conn", 24),
        ("serve-mix", 16),
    ] {
        let first = model_counts(&result_of(workload, 7, n));
        let second = model_counts(&result_of(workload, 7, n));
        assert!(first.iter().all(|&c| c > 0.0), "{workload}: {first:?}");
        assert_eq!(
            first, second,
            "{workload}: model counts differ between processes"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccperf"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a refused run");
}
