//! The loop shared by the batch workloads (gc-sparse, mst-sq, rt-conn):
//! seeded inputs, a timed closed loop of validated solves, and a traced
//! run that folds the engine's events into layer times.

use crate::fold::{take_fold, LayerFold, LayerSink};
use crate::report::Report;
use crate::stats::{mean, median, tail};
use crate::Opts;
use cc_net::Cost;
use cc_sketch::{GraphSketchSpace, NeighborhoodScratch};
use cc_trace::Tracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions: at least [`MIN_SETUP_REPS`], more while the set-ups
/// have taken less than [`SETUP_BUDGET`], at most [`MAX_SETUP_REPS`].
/// `setup_s` is their median.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Whether to set up once more after `done` set-ups that took `spent`.
pub(crate) fn another_setup(done: usize, spent: Duration) -> bool {
    done < MIN_SETUP_REPS || (done < MAX_SETUP_REPS && spent < SETUP_BUDGET)
}

/// Minimum wall time spent timing the sketch kernel in a traced run.
const SKETCH_MIN: Duration = Duration::from_millis(150);

/// Which engine a batch workload drives (decides which layer metrics its
/// round events feed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// `cc_net::CliqueNet` (one thread).
    CliqueNet,
    /// `cc_runtime::Runtime` with worker threads.
    Runtime,
}

/// One batch workload: how to make its inputs and engines, how to solve
/// and how to check an answer.
pub trait Batch {
    /// One generated input.
    type Input;
    /// The engine an input is solved on (fresh per solve).
    type Engine;
    /// A solve's answer.
    type Output: PartialEq;

    /// Inputs per run (solved round-robin).
    fn inputs(&self) -> usize;
    /// The engine kind.
    fn kind(&self) -> EngineKind;
    /// Latency limit on one validated solve, milliseconds.
    fn limit_ms(&self) -> f64;
    /// Generates one input (the timed `cc_graph` generator call).
    fn generate(&self, rng: &mut ChaCha8Rng) -> Self::Input;
    /// Builds a fresh engine seeded by `net_seed`.
    fn engine(&self, net_seed: u64) -> Self::Engine;
    /// Attaches a tracer to the engine.
    fn attach(&self, engine: &mut Self::Engine, tracer: Box<dyn Tracer>);
    /// Detaches (and so flushes) the engine's tracer.
    fn detach(&self, engine: &mut Self::Engine);
    /// Solves `input` on `engine`; returns the answer and the engine's
    /// model cost.
    fn solve(
        &self,
        engine: &mut Self::Engine,
        input: &Self::Input,
    ) -> Result<(Self::Output, Cost), String>;
    /// Validates an answer against the input.
    fn validate(&self, input: &Self::Input, out: &Self::Output) -> Result<(), String>;
    /// The input's adjacency, for the sketch-kernel timing.
    fn adjacency(&self, input: &Self::Input) -> Vec<Vec<usize>>;
    /// A reference solve on another engine (rt-conn's serial engine),
    /// timed and compared with the workload's own answer and cost.
    fn reference(
        &self,
        _input: &Self::Input,
        _net_seed: u64,
    ) -> Option<Result<(Self::Output, Cost), String>> {
        None
    }
}

/// Seed of input `i` of the run seeded by `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1)
}

/// The run's inputs, with the set-up timings.
pub struct Setup<I> {
    /// The inputs of the last set-up repetition.
    pub inputs: Vec<I>,
    /// Wall time of each set-up repetition (generation + engine
    /// construction), seconds.
    pub setup_s: Vec<f64>,
    /// Generator-call time of each repetition, seconds.
    pub gen_s: Vec<f64>,
}

/// Generates the run's inputs repeatedly (see [`another_setup`]), timing
/// each repetition.
pub fn setup<B: Batch>(b: &B, seed: u64) -> Setup<B::Input> {
    let mut out = Setup {
        inputs: Vec::new(),
        setup_s: Vec::new(),
        gen_s: Vec::new(),
    };
    let start = Instant::now();
    while another_setup(out.setup_s.len(), start.elapsed()) {
        let t0 = Instant::now();
        let mut gen = Duration::ZERO;
        let mut inputs = Vec::with_capacity(b.inputs());
        for i in 0..b.inputs() {
            let mut rng = ChaCha8Rng::seed_from_u64(input_seed(seed, i));
            let g0 = Instant::now();
            let input = b.generate(&mut rng);
            gen += g0.elapsed();
            black_box(b.engine(input_seed(seed, i)));
            inputs.push(input);
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.gen_s.push(gen.as_secs_f64());
        out.inputs = inputs;
    }
    out
}

/// Whether another pass as long as the one started at `pass0` still fits
/// in the `seconds` budget that started at `t0`.
fn more_passes(t0: Instant, pass0: Instant, seconds: f64) -> bool {
    t0.elapsed().as_secs_f64() + pass0.elapsed().as_secs_f64() <= seconds
}

/// One validated solve.
struct Solved<O> {
    out: O,
    cost: Cost,
    solve_s: f64,
    job_s: f64,
    fold: Option<LayerFold>,
}

fn solve_one<B: Batch>(
    b: &B,
    input: &B::Input,
    net_seed: u64,
    traced: bool,
    r: &mut Report,
    label: &str,
) -> Option<Solved<B::Output>> {
    let mut engine = b.engine(net_seed);
    let slot = traced.then(|| {
        let (sink, slot) = LayerSink::new();
        b.attach(&mut engine, Box::new(sink));
        slot
    });
    let t0 = Instant::now();
    let solved = b.solve(&mut engine, input);
    let solve_s = t0.elapsed().as_secs_f64();
    let (out, cost) = match solved {
        Ok(x) => x,
        Err(e) => {
            r.check(|| label.to_string(), Err(e));
            return None;
        }
    };
    let verdict = b.validate(input, &out);
    let job_s = t0.elapsed().as_secs_f64();
    let ok = verdict.is_ok();
    r.check(|| label.to_string(), verdict);
    let fold = slot.map(|slot| {
        b.detach(&mut engine);
        take_fold(&slot)
    });
    ok.then_some(Solved {
        out,
        cost,
        solve_s,
        job_s,
        fold,
    })
}

/// Checks that a repetition reproduced the first solve's model cost.
fn same_cost(first: &Cost, now: &Cost) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!(
            "model cost drifted between repetitions: {first:?} then {now:?}"
        ))
    }
}

/// Checks a repeated solve against the first solve of the same input.
fn same_as_first<O: PartialEq>(first: &(O, Cost), out: &O, cost: &Cost) -> Result<(), String> {
    if first.0 != *out {
        return Err("answer differs from the first solve of this input".into());
    }
    same_cost(&first.1, cost)
}

/// The timed run: complete passes over the inputs while another pass
/// fits in `--seconds` (at least one), validating every answer. When only
/// one pass fits, input 0 is solved once more, outside the statistics, so
/// every run checks that a repetition reproduces the model cost.
pub fn timed<B: Batch>(b: &B, o: &Opts, r: &mut Report) {
    let s = setup(b, o.seed);
    let k = s.inputs.len();
    let mut first: Vec<Option<(B::Output, Cost)>> = (0..k).map(|_| None).collect();
    let (mut solve_s, mut job_s) = (Vec::new(), Vec::new());
    let mut slo_ok = 0u64;
    let t0 = Instant::now();
    let mut i = 0usize;
    let mut passes = 0;
    loop {
        let pass0 = Instant::now();
        for (idx, input) in s.inputs.iter().enumerate() {
            let label = format!("solve {i} (input {idx})");
            i += 1;
            let Some(sv) = solve_one(b, input, input_seed(o.seed, idx), false, r, &label) else {
                continue;
            };
            match &first[idx] {
                None => first[idx] = Some((sv.out, sv.cost)),
                Some(f) => r.check(
                    || format!("{label} repeat"),
                    same_as_first(f, &sv.out, &sv.cost),
                ),
            }
            if sv.job_s * 1e3 <= b.limit_ms() {
                slo_ok += 1;
            }
            solve_s.push(sv.solve_s);
            job_s.push(sv.job_s);
        }
        passes += 1;
        if !more_passes(t0, pass0, o.seconds) {
            break;
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    if passes == 1 {
        let label = "repeat of input 0";
        if let (Some(sv), Some(f)) = (
            solve_one(b, &s.inputs[0], input_seed(o.seed, 0), false, r, label),
            &first[0],
        ) {
            r.check(|| label.into(), same_as_first(f, &sv.out, &sv.cost));
        }
    }

    // rt-conn: the serial engine must reproduce the answer and the cost.
    let mut ref_s = Vec::new();
    for (idx, input) in s.inputs.iter().enumerate() {
        let want = first[idx].as_ref().map(|(out, cost)| (out, cost));
        ref_s.extend(check_reference(b, input, input_seed(o.seed, idx), want, r));
    }
    if !ref_s.is_empty() {
        r.note(format!(
            "reference engine: median {:.4} s per solve over {} inputs",
            median(&ref_s),
            ref_s.len()
        ));
    }

    let costs: Vec<Cost> = first.iter().flatten().map(|(_, c)| *c).collect();
    let per = |f: fn(&Cost) -> u64| mean(&costs.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    let (tail_s, solve_pct) = tail(&solve_s);
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    let (tail_ms, job_pct) = tail(&job_ms);
    r.set("setup_s", median(&s.setup_s));
    r.set("solve_s", median(&solve_s));
    r.set("solve_s_tail", tail_s);
    r.set("job_ms", median(&job_ms));
    r.set("job_ms_tail", tail_ms);
    r.set("slo_ok_frac", slo_ok as f64 / i as f64);
    r.set("jobs_per_s", solve_s.len() as f64 / loop_s);
    r.set(
        "ok_frac",
        1.0 - r.failures.len() as f64 / r.attempted.max(1) as f64,
    );
    r.set("rounds", per(|c| c.rounds));
    r.set("messages", per(|c| c.messages));
    r.set("words", per(|c| c.words));
    r.note(format!(
        "{} solves ({passes} passes over {k} inputs) in {loop_s:.2} s; solve_s_tail is p{solve_pct:.1}, job_ms_tail is p{job_pct:.1}",
        solve_s.len()
    ));
    r.note(format!(
        "{} set-ups, {:.4}..{:.4} s; latency limit {} ms",
        s.setup_s.len(),
        s.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        crate::stats::max(&s.setup_s),
        b.limit_ms()
    ));
}

/// Solves `input` on the workload's reference engine, if it has one, and
/// checks the answer and model cost against `want` (the workload's own
/// validated solve). Returns the reference solve's wall time.
fn check_reference<B: Batch>(
    b: &B,
    input: &B::Input,
    net_seed: u64,
    want: Option<(&B::Output, &Cost)>,
    r: &mut Report,
) -> Option<f64> {
    let t0 = Instant::now();
    let reference = b.reference(input, net_seed)?;
    let wall = t0.elapsed().as_secs_f64();
    let verdict = reference.and_then(|(out, cost)| match want {
        Some((o0, c0)) if *o0 == out => same_cost(c0, &cost),
        Some(_) => Err("reference engine gave another answer".into()),
        None => Err("no validated solve to compare with".into()),
    });
    r.check(
        || format!("reference engine (net seed {net_seed})"),
        verdict,
    );
    Some(wall)
}

/// Median wall time of the sketch kernel over every vertex of every
/// input, nanoseconds per incidence, and the incidence count of one pass.
fn sketch_kernel<B: Batch>(b: &B, inputs: &[B::Input], seed: u64) -> (f64, u64) {
    let adj: Vec<Vec<Vec<usize>>> = inputs.iter().map(|x| b.adjacency(x)).collect();
    let incidences: u64 = adj.iter().flatten().map(|nb| nb.len() as u64).sum();
    let spaces: Vec<GraphSketchSpace> = adj
        .iter()
        .map(|a| GraphSketchSpace::new(a.len(), seed))
        .collect();
    let mut scratch = NeighborhoodScratch::default();
    let mut per_pass = Vec::new();
    let t0 = Instant::now();
    while per_pass.len() < 3 || t0.elapsed() < SKETCH_MIN {
        let p0 = Instant::now();
        for (space, a) in spaces.iter().zip(&adj) {
            for (v, nb) in a.iter().enumerate() {
                black_box(space.sketch_neighborhood_with(v, nb.iter().copied(), &mut scratch));
            }
        }
        per_pass.push(p0.elapsed().as_nanos() as f64 / incidences.max(1) as f64);
    }
    (median(&per_pass), incidences)
}

/// The traced run: each input solved untraced and then traced, so the
/// tracing overhead is measured on the same inputs, round-robin until
/// `--seconds` is spent (at least one input); the traced solves fold into
/// layer times (means per traced solve).
pub fn traced<B: Batch>(b: &B, o: &Opts, r: &mut Report) {
    let s = setup(b, o.seed);
    let k = s.inputs.len();
    r.set("graph.gen_s", median(&s.gen_s));
    let (ns_per_inc, incidences) = sketch_kernel(b, &s.inputs, o.seed);
    r.set("sketch.incidences", incidences as f64);
    r.set("sketch.ns_per_incidence", ns_per_inc);

    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut folds: Vec<LayerFold> = Vec::new();
    let mut ref_s = Vec::new();
    let t0 = Instant::now();
    for i in 0.. {
        let idx = i % k;
        let input = &s.inputs[idx];
        let seed = input_seed(o.seed, idx);
        let pair0 = Instant::now();
        let plain = solve_one(b, input, seed, false, r, &format!("untraced solve {i}"));
        let traced = solve_one(b, input, seed, true, r, &format!("traced solve {i}"));
        let pair_s = pair0.elapsed().as_secs_f64();
        if let (Some(p), Some(t)) = (plain, traced) {
            r.check(
                || format!("traced solve {i} cost"),
                same_cost(&p.cost, &t.cost),
            );
            plain_s.push(p.solve_s);
            traced_s.push(t.solve_s);
            folds.push(t.fold.expect("traced solves fold"));
            if i < k {
                ref_s.extend(check_reference(b, input, seed, Some((&p.out, &p.cost)), r));
            }
        }
        if t0.elapsed().as_secs_f64() + pair_s > o.seconds {
            break;
        }
    }

    let n = folds.len().max(1) as f64;
    let per_solve = |f: &dyn Fn(&LayerFold) -> u64| folds.iter().map(f).sum::<u64>() as f64 / n;
    let secs = |f: &dyn Fn(&LayerFold) -> u64| per_solve(f) / 1e9;
    let wall = mean(&traced_s);
    let round_wall = secs(&|f| f.round_wall_ns);
    // The part of the traced wall no layer metric covers.
    let unattributed = match b.kind() {
        EngineKind::CliqueNet => {
            let compute = secs(&|f| f.node_compute_ns);
            let engine = round_wall - compute;
            let messages = per_solve(&|f| f.messages);
            r.set("net.round_wall_s", round_wall);
            r.set("net.node_compute_s", compute);
            r.set("net.engine_s", engine);
            r.set("net.engine_ns_per_msg", engine * 1e9 / messages.max(1.0));
            r.set("net.between_rounds_s", wall - round_wall);
            let layers = crate::layers::scope_layers(&folds);
            let covered: f64 = layers.iter().map(|(_, v)| v).sum();
            for (name, v) in layers {
                r.set(name, v);
            }
            r.set("lotker.phase1_s", secs(&|f| f.self_of("lotker-phase-1")));
            r.set(
                "route.route_rounds",
                per_solve(&|f| f.scope_rounds.get("route:route").copied().unwrap_or(0)),
            );
            wall - covered
        }
        EngineKind::Runtime => {
            let busy = secs(&|f| f.worker_busy_ns);
            let threads = folds.iter().map(|f| f.workers).max().unwrap_or(1).max(1) as f64;
            r.set("runtime.round_wall_s", round_wall);
            r.set("runtime.worker_busy_s", busy);
            r.set("runtime.exchange_s", secs(&|f| f.exchange_ns));
            r.set(
                "runtime.parallel_eff",
                busy / (threads * round_wall).max(1e-12),
            );
            r.set("runtime.serial_ref_s", median(&ref_s));
            r.note(format!(
                "untraced parallel solve median {:.4} s beside the serial reference {:.4} s",
                median(&plain_s),
                median(&ref_s)
            ));
            wall - round_wall
        }
    };
    r.set(
        "trace.overhead_frac",
        mean(&traced_s) / mean(&plain_s).max(1e-12) - 1.0,
    );
    r.set("trace.unattributed_frac", unattributed / wall.max(1e-12));
    r.note(format!(
        "{} untraced + {} traced solves of {} inputs; traced wall {wall:.4} s per solve (layer shares below)",
        plain_s.len(),
        traced_s.len(),
        plain_s.len().min(k)
    ));
    let mut shares: Vec<(String, f64)> = r
        .values
        .iter()
        .filter(|(name, v)| {
            name.ends_with("_s")
                && name.as_str() != "graph.gen_s"
                && name.as_str() != "runtime.serial_ref_s"
                && **v > 0.0
        })
        .map(|(name, v)| (name.clone(), v / wall.max(1e-12)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, share) in shares {
        r.note(format!(
            "share of traced wall: {name:<26} {:>6.1}%",
            100.0 * share
        ));
    }
}
