//! The three batch workloads.

use crate::batch::{Batch, EngineKind};
use cc_core::{exact_mst, gc, run_connectivity, validate_gc, validate_mst_minimal, ExactMstConfig};
use cc_graph::{generators, Graph, WEdge, WGraph};
use cc_net::{Cost, NetConfig};
use cc_route::Net;
use cc_runtime::{ParallelBackend, Runtime};
use cc_trace::Tracer;
use rand_chacha::ChaCha8Rng;

/// Round cap for runtime solves (rt-conn needs ~1.8k rounds at n = 128).
const MAX_ROUNDS: u64 = 200_000;

fn adjacency(g: &Graph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.n()];
    for e in g.edges() {
        adj[e.u as usize].push(e.v as usize);
        adj[e.v as usize].push(e.u as usize);
    }
    adj
}

/// `gc-sparse`: Theorem 4 GC on a KT1 `Net` over a sparse random
/// connected graph.
pub struct GcSparse {
    /// Node count (1024).
    pub n: usize,
}

impl Batch for GcSparse {
    type Input = Graph;
    type Engine = Net;
    type Output = gc::GcOutput;

    fn inputs(&self) -> usize {
        12
    }
    fn kind(&self) -> EngineKind {
        EngineKind::CliqueNet
    }
    fn limit_ms(&self) -> f64 {
        2500.0
    }
    fn generate(&self, rng: &mut ChaCha8Rng) -> Graph {
        generators::random_connected_graph(self.n, 3.0 / self.n as f64, rng)
    }
    fn engine(&self, net_seed: u64) -> Net {
        Net::new(NetConfig::kt1(self.n).with_seed(net_seed))
    }
    fn attach(&self, net: &mut Net, tracer: Box<dyn Tracer>) {
        net.set_tracer(tracer);
    }
    fn detach(&self, net: &mut Net) {
        net.take_tracer();
    }
    fn solve(&self, net: &mut Net, g: &Graph) -> Result<(gc::GcOutput, Cost), String> {
        let out = gc::run_on(net, g, &gc::GcConfig::default()).map_err(|e| e.to_string())?;
        Ok((out, net.cost()))
    }
    fn validate(&self, g: &Graph, out: &gc::GcOutput) -> Result<(), String> {
        validate_gc(g, out)?;
        if out.connected {
            Ok(())
        } else {
            Err("the generated graph is connected; GC said it is not".into())
        }
    }
    fn adjacency(&self, g: &Graph) -> Vec<Vec<usize>> {
        adjacency(g)
    }
}

/// `mst-sq`: EXACT-MST with one Lotker phase on complete weighted graphs,
/// so KKT sampling, F-light filtering and SQ-MST run.
pub struct MstSq {
    /// Node count (112).
    pub n: usize,
}

impl Batch for MstSq {
    type Input = WGraph;
    type Engine = Net;
    type Output = Vec<WEdge>;

    fn inputs(&self) -> usize {
        150
    }
    fn kind(&self) -> EngineKind {
        EngineKind::CliqueNet
    }
    fn limit_ms(&self) -> f64 {
        600.0
    }
    fn generate(&self, rng: &mut ChaCha8Rng) -> WGraph {
        generators::complete_wgraph(self.n, rng)
    }
    fn engine(&self, net_seed: u64) -> Net {
        Net::new(NetConfig::kt1(self.n).with_seed(net_seed))
    }
    fn attach(&self, net: &mut Net, tracer: Box<dyn Tracer>) {
        net.set_tracer(tracer);
    }
    fn detach(&self, net: &mut Net) {
        net.take_tracer();
    }
    fn solve(&self, net: &mut Net, g: &WGraph) -> Result<(Vec<WEdge>, Cost), String> {
        let cfg = ExactMstConfig {
            phases: Some(1),
            ..ExactMstConfig::default()
        };
        let run = exact_mst(net, g, &cfg).map_err(|e| e.to_string())?;
        Ok((run.mst, run.cost))
    }
    fn validate(&self, g: &WGraph, mst: &Vec<WEdge>) -> Result<(), String> {
        validate_mst_minimal(g, mst)
    }
    fn adjacency(&self, g: &WGraph) -> Vec<Vec<usize>> {
        (0..g.n())
            .map(|v| g.neighbors(v).iter().map(|&(u, _)| u as usize).collect())
            .collect()
    }
}

/// `rt-conn`: sketch connectivity on the parallel runtime engine, with
/// the serial engine as the reference.
pub struct RtConn {
    /// Node count (128).
    pub n: usize,
    /// Parallel engine threads (`nproc`).
    pub threads: usize,
}

/// An rt-conn input: the graph and its adjacency.
pub struct RtInput {
    graph: Graph,
    adj: Vec<Vec<usize>>,
}

fn rt_solve<B: cc_runtime::Backend>(
    rt: &mut Runtime<B>,
    adj: &[Vec<usize>],
) -> Result<(Vec<usize>, Cost), String> {
    let out = run_connectivity(rt, adj, None, MAX_ROUNDS).map_err(|e| e.to_string())?;
    Ok((out.labels, rt.cost()))
}

impl Batch for RtConn {
    type Input = RtInput;
    type Engine = Runtime<ParallelBackend>;
    type Output = Vec<usize>;

    fn inputs(&self) -> usize {
        2
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Runtime
    }
    fn limit_ms(&self) -> f64 {
        2000.0
    }
    fn generate(&self, rng: &mut ChaCha8Rng) -> RtInput {
        let graph = generators::random_connected_graph(self.n, 4.0 / self.n as f64, rng);
        let adj = adjacency(&graph);
        RtInput { graph, adj }
    }
    fn engine(&self, net_seed: u64) -> Self::Engine {
        Runtime::parallel_with_threads(NetConfig::kt1(self.n).with_seed(net_seed), self.threads)
    }
    fn attach(&self, rt: &mut Self::Engine, tracer: Box<dyn Tracer>) {
        rt.set_tracer(tracer);
    }
    fn detach(&self, rt: &mut Self::Engine) {
        rt.take_tracer();
    }
    fn solve(&self, rt: &mut Self::Engine, x: &RtInput) -> Result<(Vec<usize>, Cost), String> {
        rt_solve(rt, &x.adj)
    }
    fn validate(&self, x: &RtInput, labels: &Vec<usize>) -> Result<(), String> {
        let want = cc_graph::connectivity::component_labels(&x.graph);
        if *labels == want {
            Ok(())
        } else {
            Err("component labels differ from the sequential reference".into())
        }
    }
    fn adjacency(&self, x: &RtInput) -> Vec<Vec<usize>> {
        x.adj.clone()
    }
    fn reference(&self, x: &RtInput, net_seed: u64) -> Option<Result<(Vec<usize>, Cost), String>> {
        let mut rt = Runtime::serial(NetConfig::kt1(self.n).with_seed(net_seed));
        Some(rt_solve(&mut rt, &x.adj))
    }
}
