//! Metric names, the result line, and the compare step.

use crate::host::Host;
use cc_trace::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Printed by every workload's timed
/// run (`--trace 0`), and bounded in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_s_tail", "s"),
    ("job_ms", "ms"),
    ("job_ms_tail", "ms"),
    ("slo_ok_frac", "ratio"),
    ("jobs_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("rounds", "count"),
    ("messages", "count"),
    ("words", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by every workload's traced
/// run (`--trace 1`); a layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("net.round_wall_s", "s"),
    ("net.node_compute_s", "s"),
    ("net.engine_s", "s"),
    ("net.engine_ns_per_msg", "ns"),
    ("net.between_rounds_s", "s"),
    ("route.all_to_all_s", "s"),
    ("route.broadcast_large_s", "s"),
    ("route.route_s", "s"),
    ("route.sort_s", "s"),
    ("route.gather_s", "s"),
    ("route.other_s", "s"),
    ("route.route_rounds", "count"),
    ("lotker.phases_s", "s"),
    ("lotker.phase1_s", "s"),
    ("core.phase2_s", "s"),
    ("core.component_graph_s", "s"),
    ("core.sq_mst_sketches_s", "s"),
    ("core.sq_mst_light_s", "s"),
    ("core.other_s", "s"),
    ("kkt.filter_s", "s"),
    ("sketch.incidences", "count"),
    ("sketch.ns_per_incidence", "ns"),
    ("runtime.round_wall_s", "s"),
    ("runtime.worker_busy_s", "s"),
    ("runtime.exchange_s", "s"),
    ("runtime.parallel_eff", "ratio"),
    ("runtime.serial_ref_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.queue_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.hit_frac", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_late_max_ms", "ms"),
    ("serve.gen_late_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One run's outcome: the checks it made and the metrics it measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Where it ran.
    pub host: Host,
    /// Operations attempted (solves, reference checks, or jobs offered).
    pub attempted: u64,
    /// Every failed operation, one line each.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Free-text lines printed above the result (sample counts,
    /// percentiles, shares).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, trace: bool, host: Host) -> Report {
        Report {
            workload: workload.into(),
            seed,
            trace,
            host,
            attempted: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records one attempted operation and its verdict.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failures.push(format!("{}: {e}", what()));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name.into(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The metric set this run prints.
    fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .names()
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Float(v)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failures.len() as u64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The record `--out` appends: the result plus workload, seed and host.
    pub fn record_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("host", self.host.to_json()),
            ("result", self.result_json()),
        ])
    }

    /// The human-readable lines printed before the result line.
    pub fn table(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "ccperf workload={} seed={} trace={}",
                self.workload, self.seed, self.trace as u8
            ),
            format!("host: {}", self.host.to_json().emit()),
        ];
        for &(name, unit) in self.names() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            lines.push(format!("  {name:<26} {v:>16.6} {unit}"));
        }
        lines.extend(self.notes.iter().map(|n| format!("  # {n}")));
        let failed = self.failures.len() as f64;
        lines.push(format!(
            "  # failed_frac = {} ({} of {} operations)",
            failed / self.attempted.max(1) as f64,
            self.failures.len(),
            self.attempted
        ));
        lines.extend(self.failures.iter().map(|f| format!("  FAILED {f}")));
        lines
    }
}

/// One side of a comparison: medians per (workload, metric) over the
/// records in a file, and the hosts they came from.
struct Side {
    hosts: Vec<Host>,
    values: BTreeMap<(String, String), Vec<f64>>,
}

fn load(text: &str) -> Result<Side, String> {
    let mut side = Side {
        hosts: Vec::new(),
        values: BTreeMap::new(),
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let host = Host::from_json(rec.get("host").unwrap_or(&Json::Null))
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        if !side.hosts.contains(&host) {
            side.hosts.push(host);
        }
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("line {}: no result metrics", i + 1))?;
        for (name, m) in metrics.as_map() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                side.values
                    .entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

/// Whether a metric is a wall-clock or memory measurement (compared only
/// between matching hosts) rather than a model count or a fraction.
fn host_dependent(name: &str) -> bool {
    matches!(
        unit_of(name),
        Some("s" | "ms" | "us" | "ns" | "1/s" | "MiB")
    ) || name == "slo_ok_frac"
}

/// Compares two files of `--out` records (`base`, then `new`): the median
/// of each (workload, metric) and its relative change. Timings are
/// compared only when both files come from one host; otherwise the step
/// warns and compares model counts and fractions alone.
///
/// # Errors
///
/// A file that does not parse.
pub fn compare(base: &str, new: &str) -> Result<Vec<String>, String> {
    let a = load(base).map_err(|e| format!("base: {e}"))?;
    let b = load(new).map_err(|e| format!("new: {e}"))?;
    let mut hosts = a.hosts.iter().chain(&b.hosts);
    let first = hosts.next();
    let same_host = first.is_some_and(|h0| hosts.all(|h| h.same_machine(h0)));
    let mut out = Vec::new();
    if !same_host {
        out.push("WARNING: the results come from different hosts; timings are not compared".into());
        let base = a.hosts.iter().map(|h| ("base", h));
        for (side, h) in base.chain(b.hosts.iter().map(|h| ("new", h))) {
            out.push(format!("  {side} host: {}", h.to_json().emit()));
        }
    }
    out.push(format!(
        "{:<10} {:<26} {:>16} {:>16} {:>9}",
        "workload", "metric", "base", "new", "change"
    ));
    for ((workload, name), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        if !same_host && host_dependent(name) {
            continue;
        }
        let (ma, mb) = (crate::stats::median(va), crate::stats::median(vb));
        let change = if ma == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (mb - ma) / ma)
        };
        out.push(format!(
            "{workload:<10} {name:<26} {ma:>16.6} {mb:>16.6} {change:>9}"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cpu: &str) -> Host {
        Host {
            nproc: 2,
            engine_threads: 2,
            generator_threads: 0,
            rustc: "rustc 1.0".into(),
            target: "x86_64-unknown-linux-gnu".into(),
            cpu: cpu.into(),
        }
    }

    fn record(cpu: &str, solve: f64, rounds: f64) -> String {
        let mut r = Report::new("gc-sparse", 1, false, host(cpu));
        r.check(|| "solve".into(), Ok(()));
        r.set("solve_s", solve);
        r.set("rounds", rounds);
        r.record_json().emit()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("gc-sparse", 1, false, host("cpu"));
        r.check(|| "solve".into(), Ok(()));
        r.check(|| "solve".into(), Err("bad".into()));
        let j = r.result_json();
        let keys: Vec<&str> = j.as_map().keys().copied().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("metrics").unwrap().as_map().len(), END_TO_END.len());
    }

    #[test]
    fn compare_warns_and_skips_timings_across_hosts() {
        let base = record("cpu A", 1.0, 50.0);
        let new = record("cpu B", 2.0, 50.0);
        let lines = compare(&base, &new).unwrap();
        assert!(lines[0].starts_with("WARNING"));
        assert!(!lines.iter().any(|l| l.contains("solve_s")));
        assert!(lines
            .iter()
            .any(|l| l.contains("rounds") && l.contains("+0.0%")));
    }

    #[test]
    fn compare_reports_timing_changes_on_one_host() {
        // Workloads with different engine thread counts on one machine.
        let mut rt = Report::new(
            "rt-conn",
            1,
            false,
            Host {
                engine_threads: 1,
                ..host("cpu A")
            },
        );
        rt.check(|| "solve".into(), Ok(()));
        rt.set("solve_s", 0.5);
        let base = format!(
            "{}\n{}",
            record("cpu A", 1.0, 50.0),
            rt.record_json().emit()
        );
        let new = record("cpu A", 1.5, 50.0);
        let lines = compare(&base, &new).unwrap();
        assert!(!lines[0].starts_with("WARNING"));
        assert!(lines
            .iter()
            .any(|l| l.contains("solve_s") && l.contains("+50.0%")));
    }
}
