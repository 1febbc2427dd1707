//! `serve-mix`: an in-process `cc_serve` pool driven open-loop at a fixed
//! offered rate by one generator thread.

use crate::batch::another_setup;
use crate::host::nproc;
use crate::openloop::{drive, fixed_rate, Timeline};
use crate::report::Report;
use crate::stats::{max, mean, median, tail};
use crate::Opts;
use cc_bench::loadgen::job_for_key;
use cc_graph::{connectivity::component_count, generators, mst::kruskal, WGraph};
use cc_serve::job::{Algorithm, GraphSpec, JobSpec};
use cc_serve::pool::{Response, ServeConfig, Server};
use cc_trace::RunArtifact;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed serve-mix shape (also recorded in `BENCHMARK.json`).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Graph size handed to `job_for_key`.
    pub n: usize,
    /// Offered rate, jobs per second.
    pub rate: f64,
    /// Latency limit for `slo_ok_frac`, milliseconds.
    pub limit_ms: f64,
}

/// The committed shape.
pub const MIX: Mix = Mix {
    n: 64,
    rate: 40.0,
    limit_ms: 250.0,
};

/// Keys per algorithm. With the pool's 256-entry LRU cache, 1,000 uniform
/// draws over 3 × 190 keys are answered from the cache about 37% of the
/// time, and the cache evicts. Latencies fall in three bands: cache hits
/// (≈ 0.05 ms), cold exact-mst (≈ 2 ms), and the slower cold jobs. The
/// median then sits in the middle of the exact-mst band. A hit share
/// below one quarter or above one half would put it on a band's edge,
/// where it would flip from seed to seed.
const KEYS_PER_KIND: u64 = 190;

/// How long the generator waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(30);

/// What a job's answer must say, from the benchmark's own sequential
/// reference on the same generated graph.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    /// gc-sketch and rt-conn: the graph's edge count and component
    /// count; gc-sketch also reports its spanning forest's size.
    Connectivity {
        m: usize,
        components: usize,
        forest_edges: Option<usize>,
    },
    /// exact-mst: the graph's edge count and Kruskal's MST.
    Mst {
        m: usize,
        edges: usize,
        weight: u128,
    },
}

/// The run's plan: one key per job, and the reference answer per key.
struct Plan {
    keys: Vec<u64>,
    specs: Vec<JobSpec>,
    expect: BTreeMap<u64, Expect>,
    gen_s: f64,
}

fn plan(seed: u64, jobs: usize, n: usize) -> Plan {
    // `job_for_key` picks the algorithm by `key % 3`; jobs cycle through
    // the three so every run offers the same mix, and each job draws its
    // key uniformly among the keys of its algorithm.
    // Disjoint key universes per seed: the key picks the job's graph seed.
    let base = 3 * (seed.wrapping_mul(1_000_003) % (1 << 40));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e_11ed);
    let keys: Vec<u64> = (0..jobs as u64)
        .map(|i| base + 3 * rng.gen_range(0..KEYS_PER_KIND) + i % 3)
        .collect();
    let specs: Vec<JobSpec> = keys.iter().map(|&k| job_for_key(k, n)).collect();
    let mut expect = BTreeMap::new();
    let mut gen = Duration::ZERO;
    for (&key, spec) in keys.iter().zip(&specs) {
        if expect.contains_key(&key) {
            continue;
        }
        let (e, took) = reference(spec);
        gen += took;
        expect.insert(key, e);
    }
    Plan {
        keys,
        specs,
        expect,
        gen_s: gen.as_secs_f64(),
    }
}

/// The reference answer of `spec`, and the time its generator call took.
fn reference(spec: &JobSpec) -> (Expect, Duration) {
    let t0 = Instant::now();
    match (&spec.graph, spec.algorithm) {
        (
            GraphSpec::RandomConnected {
                n,
                degree_milli,
                seed,
            },
            _,
        ) => {
            let p = (*degree_milli as f64 / 1000.0) / *n as f64;
            let g =
                generators::random_connected_graph(*n, p, &mut ChaCha8Rng::seed_from_u64(*seed));
            let took = t0.elapsed();
            let components = component_count(&g);
            let forest_edges = (spec.algorithm == Algorithm::GcSketch).then(|| *n - components);
            let e = Expect::Connectivity {
                m: g.m(),
                components,
                forest_edges,
            };
            (e, took)
        }
        (GraphSpec::CompleteWeighted { n, seed }, Algorithm::ExactMst) => {
            let g = generators::complete_wgraph(*n, &mut ChaCha8Rng::seed_from_u64(*seed));
            let took = t0.elapsed();
            let mst = kruskal(&g);
            let e = Expect::Mst {
                m: g.m(),
                edges: mst.len(),
                weight: WGraph::total_weight(&mst),
            };
            (e, took)
        }
        (other, alg) => panic!("job_for_key made an unexpected spec: {other:?} / {alg:?}"),
    }
}

/// A `job-summary` row of an artifact.
fn summary(artifact: &RunArtifact, name: &str) -> Result<String, String> {
    artifact
        .experiments
        .iter()
        .find(|e| e.id == "job-summary")
        .ok_or("artifact lacks a job-summary table")?
        .rows
        .iter()
        .find(|r| r.first().map(String::as_str) == Some(name))
        .and_then(|r| r.get(1).cloned())
        .ok_or_else(|| format!("job-summary lacks `{name}`"))
}

fn num<T: std::str::FromStr>(artifact: &RunArtifact, name: &str) -> Result<T, String> {
    summary(artifact, name)?
        .parse()
        .map_err(|_| format!("job-summary `{name}` is not a number"))
}

/// Checks that the artifact's `name` row reads `want`.
fn expect_row<T>(artifact: &RunArtifact, name: &str, want: T) -> Result<(), String>
where
    T: std::str::FromStr + PartialEq + std::fmt::Display,
{
    let got: T = num(artifact, name)?;
    if got == want {
        Ok(())
    } else {
        Err(format!("`{name}` is {got}, the reference has {want}"))
    }
}

/// Checks a served answer against the reference; returns its model cost.
fn check_answer(text: &str, expect: &Expect) -> Result<[u64; 3], String> {
    let a = RunArtifact::from_json_str(text)?;
    match *expect {
        Expect::Connectivity {
            m,
            components,
            forest_edges,
        } => {
            expect_row(&a, "m", m)?;
            expect_row(&a, "components", components)?;
            if let Some(f) = forest_edges {
                expect_row(&a, "forest_edges", f)?;
            }
        }
        Expect::Mst { m, edges, weight } => {
            expect_row(&a, "m", m)?;
            expect_row(&a, "mst_edges", edges)?;
            expect_row(&a, "mst_weight", weight)?;
        }
    }
    Ok([num(&a, "rounds")?, num(&a, "messages")?, num(&a, "words")?])
}

/// Per-job record filled from the reply stream.
#[derive(Clone, Debug, Default)]
struct Job {
    running_ns: Option<u64>,
    queue_nanos: Option<u64>,
    result: Option<(bool, Arc<str>, u64)>,
    failure: Option<String>,
}

/// Runs serve-mix (both modes: the pool is measured from outside, so
/// the traced run adds no sink and reports the same run's layer split).
pub fn run(o: &Opts, r: &mut Report) {
    let mix = Mix {
        n: o.n.unwrap_or(MIX.n),
        ..MIX
    };
    let jobs = ((mix.rate * o.seconds).round() as usize).max(1);
    let workers = nproc();
    // The pool's shipped queue and cache sizes, so that admission can
    // reject and the cache evicts as they would in `cc-serve`.
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };

    // Set-up: the plan, the reference answers, and a started pool.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut ready: Option<(Plan, Server)> = None;
    let start = Instant::now();
    while another_setup(setup_s.len(), start.elapsed()) {
        if let Some((_, server)) = ready.take() {
            server.join();
        }
        let t0 = Instant::now();
        let p = plan(o.seed, jobs, mix.n);
        let server = Server::start(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(p.gen_s);
        ready = Some((p, server));
    }
    let (p, server) = ready.expect("at least one set-up");

    let due = fixed_rate(jobs, mix.rate);
    let mut rec = vec![Job::default(); jobs];
    let mut depth_max = 0u64;
    let (tx, rx) = channel::<Response>();
    let timeline: Timeline = drive(
        &due,
        |i| {
            server.submit(&i.to_string(), p.specs[i].clone(), &tx);
        },
        &rx,
        |reply, now| {
            let i: usize = reply.id().parse().ok()?;
            let job = rec.get_mut(i)?;
            match reply {
                Response::Queued { queue_depth, .. } => {
                    depth_max = depth_max.max(queue_depth);
                    None
                }
                Response::Running { queue_nanos, .. } => {
                    job.running_ns = Some(now);
                    job.queue_nanos = Some(queue_nanos);
                    None
                }
                Response::Result {
                    cached, artifact, ..
                } => {
                    job.result = Some((cached, artifact, now));
                    Some(i)
                }
                Response::Rejected { reason, .. } => {
                    job.failure = Some(format!("rejected: {reason}"));
                    Some(i)
                }
                Response::Error { error, .. } => {
                    job.failure = Some(format!("error: {error}"));
                    Some(i)
                }
                _ => None,
            }
        },
        DRAIN,
    );
    drop(tx);
    let stats = server.stats();
    server.join();

    // Checks: every job answered, every cold answer matches the
    // reference, and every duplicate answer (cache hit or coalesced) is
    // byte-identical to a cold answer of its key. A key evicted from the
    // cache runs cold again, and its artifact's timestamps differ.
    let mut cold_texts: BTreeMap<u64, Vec<Arc<str>>> = BTreeMap::new();
    let mut cold_cost: Vec<[u64; 3]> = Vec::new();
    let mut verdicts: Vec<Result<(), String>> = rec
        .iter()
        .enumerate()
        .map(|(i, job)| match (&job.result, &job.failure) {
            (_, Some(f)) => Err(f.clone()),
            (None, None) => Err(format!("no answer within {DRAIN:?} of the last send")),
            (Some((true, _, _)), None) => Ok(()),
            (Some((false, text, _)), None) => {
                let key = p.keys[i];
                check_answer(text, &p.expect[&key]).map(|cost| {
                    cold_texts.entry(key).or_default().push(Arc::clone(text));
                    cold_cost.push(cost);
                })
            }
        })
        .collect();
    for (i, job) in rec.iter().enumerate() {
        if let (Some((true, text, _)), Ok(())) = (&job.result, &verdicts[i]) {
            let texts = cold_texts.get(&p.keys[i]).map_or(&[][..], Vec::as_slice);
            if !texts.iter().any(|t| **t == **text) {
                verdicts[i] = Err("duplicate answer matches no cold answer of its key".into());
            }
        }
    }
    let mut ok = vec![false; jobs];
    for (i, verdict) in verdicts.into_iter().enumerate() {
        ok[i] = verdict.is_ok();
        r.check(|| format!("job {i} (key {})", p.keys[i]), verdict);
    }

    let latency_ms: Vec<f64> = (0..jobs)
        .filter(|&i| ok[i])
        .filter_map(|i| timeline.latency_ns(i))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let slo_ok = latency_ms.iter().filter(|&&l| l <= mix.limit_ms).count();
    let cold: Vec<usize> = (0..jobs)
        .filter(|&i| ok[i] && matches!(rec[i].result, Some((false, _, _))))
        .collect();
    let compute_s: Vec<f64> = cold
        .iter()
        .filter_map(|&i| {
            let (_, _, done) = rec[i].result.as_ref()?;
            Some(done.saturating_sub(rec[i].running_ns?) as f64 / 1e9)
        })
        .collect();
    let span_s = timeline.end_ns.saturating_sub(due[0]) as f64 / 1e9;
    let per = |k: usize| mean(&cold_cost.iter().map(|c| c[k] as f64).collect::<Vec<_>>());
    let (solve_tail, solve_pct) = tail(&compute_s);
    let (job_tail, job_pct) = tail(&latency_ms);

    r.set("setup_s", median(&setup_s));
    r.set("solve_s", median(&compute_s));
    r.set("solve_s_tail", solve_tail);
    r.set("job_ms", median(&latency_ms));
    r.set("job_ms_tail", job_tail);
    r.set("slo_ok_frac", slo_ok as f64 / jobs as f64);
    r.set("jobs_per_s", latency_ms.len() as f64 / span_s.max(1e-9));
    r.set(
        "ok_frac",
        1.0 - r.failures.len() as f64 / r.attempted.max(1) as f64,
    );
    r.set("rounds", per(0));
    r.set("messages", per(1));
    r.set("words", per(2));

    // Layer split of the same run, from the benchmark's own timestamps.
    let submit_us: Vec<f64> = timeline
        .submit_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let queue_ms: Vec<f64> = cold
        .iter()
        .filter_map(|&i| rec[i].queue_nanos)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let hits: Vec<usize> = (0..jobs)
        .filter(|&i| ok[i] && matches!(rec[i].result, Some((true, _, _))))
        .collect();
    let hit_ms: Vec<f64> = hits
        .iter()
        .filter_map(|&i| {
            let (_, _, done) = rec[i].result.as_ref()?;
            Some(done.saturating_sub(timeline.sent_ns[i]) as f64 / 1e6)
        })
        .collect();
    let late_ms: Vec<f64> = (0..jobs)
        .map(|i| timeline.late_ns(i) as f64 / 1e6)
        .collect();
    // Covered: generator lateness + submit + (cold) queue wait and compute.
    let mut total_ns = 0u64;
    let mut covered_ns = 0u64;
    for i in (0..jobs).filter(|&i| ok[i]) {
        let Some(lat) = timeline.latency_ns(i) else {
            continue;
        };
        total_ns += lat;
        covered_ns += timeline.late_ns(i) + timeline.submit_ns[i];
        if let (Some(run), Some(q), Some((false, _, done))) =
            (rec[i].running_ns, rec[i].queue_nanos, &rec[i].result)
        {
            covered_ns += q + done.saturating_sub(run);
        }
    }
    r.set("graph.gen_s", median(&gen_s));
    r.set("serve.submit_us", median(&submit_us));
    r.set("serve.queue_ms", median(&queue_ms));
    r.set("serve.compute_ms", median(&compute_s) * 1e3);
    r.set("serve.hit_ms", median(&hit_ms));
    r.set("serve.hit_frac", hits.len() as f64 / jobs as f64);
    r.set("serve.queue_depth_max", depth_max as f64);
    r.set("serve.rejected", stats.rejected as f64);
    r.set("serve.gen_late_max_ms", max(&late_ms));
    r.set("serve.gen_late_p50_ms", median(&late_ms));
    r.set("trace.overhead_frac", 0.0);
    r.set(
        "trace.unattributed_frac",
        1.0 - covered_ns.min(total_ns) as f64 / total_ns.max(1) as f64,
    );

    r.note(format!(
        "{jobs} jobs offered open-loop at {} /s over {} keys (n = {}), {} workers, queue {}, cache {}, 1 generator thread; latency limit {} ms",
        mix.rate,
        p.expect.len(),
        mix.n,
        workers,
        cfg.queue_capacity,
        cfg.cache_capacity,
        mix.limit_ms
    ));
    r.note(format!(
        "{} cold runs, {} duplicate answers ({} cache hits, {} coalesced, {} evictions); {} answered in {span_s:.2} s",
        cold.len(),
        hits.len(),
        stats.cache.hits,
        stats.coalesced,
        stats.cache.evictions,
        latency_ms.len()
    ));
    r.note(format!(
        "solve_s (cold compute) over {} samples, tail p{solve_pct:.1}; job_ms over {} samples, tail p{job_pct:.1}",
        compute_s.len(),
        latency_ms.len()
    ));
    r.note(format!(
        "generator lateness max {:.3} ms, p50 {:.3} ms",
        max(&late_ms),
        median(&late_ms)
    ));
}
