//! `ccperf`: the repository benchmark.
//!
//! Four seeded workloads drive the public entry points of the algorithm
//! crates and of `cc-serve`. A timed run (`--trace 0`) prints the
//! end-to-end metrics and validates every answer; a traced run
//! (`--trace 1`) attaches the benchmark's own [`fold::LayerSink`] through
//! the engines' public tracer seam and prints the per-layer metrics. See
//! `README.md` in this directory for every metric and workload.

pub mod batch;
pub mod fold;
pub mod host;
pub mod layers;
pub mod openloop;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workloads;

use host::{nproc, Host};
use report::Report;
use workloads::{GcSparse, MstSq, RtConn};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["gc-sparse", "mst-sq", "rt-conn", "serve-mix"];

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Node-count override (smoke tests only; results are not comparable).
    pub n: Option<usize>,
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(o: &Opts) -> Result<Report, String> {
    let threads = nproc();
    let (engine_threads, generator_threads) = match o.workload.as_str() {
        "gc-sparse" | "mst-sq" => (1, 0),
        "rt-conn" => (threads, 0),
        "serve-mix" => (threads, 1),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let mut r = Report::new(
        &o.workload,
        o.seed,
        o.trace,
        Host::detect(engine_threads, generator_threads),
    );
    fn batch<B: batch::Batch>(b: &B, o: &Opts, r: &mut Report) {
        if o.trace {
            batch::traced(b, o, r);
        } else {
            batch::timed(b, o, r);
        }
    }
    match o.workload.as_str() {
        "gc-sparse" => batch(
            &GcSparse {
                n: o.n.unwrap_or(1024),
            },
            o,
            &mut r,
        ),
        "mst-sq" => batch(
            &MstSq {
                n: o.n.unwrap_or(112),
            },
            o,
            &mut r,
        ),
        "rt-conn" => batch(
            &RtConn {
                n: o.n.unwrap_or(128),
                threads,
            },
            o,
            &mut r,
        ),
        _ => serve::run(o, &mut r),
    }
    if !o.trace {
        r.set("peak_rss_mb", host::peak_rss_mib());
    }
    Ok(r)
}
