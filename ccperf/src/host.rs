//! The host record every result carries, and peak memory.

use cc_trace::Json;

/// Where and how a result was measured. Timings compare only between
/// results from the same machine ([`Host::same_machine`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads of the engine or pool under test (1 for CliqueNet).
    pub engine_threads: usize,
    /// Threads generating load (the open-loop generator), 0 for batch runs.
    pub generator_threads: usize,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Target triple.
    pub target: String,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Host {
    /// This process's host, with the thread counts of the workload.
    pub fn detect(engine_threads: usize, generator_threads: usize) -> Host {
        Host {
            nproc: nproc(),
            engine_threads,
            generator_threads,
            rustc: env!("CCPERF_RUSTC").to_string(),
            target: env!("CCPERF_TARGET").to_string(),
            cpu: cpu_model(),
        }
    }

    /// Whether timings from `self` and `other` are comparable: the same
    /// CPU count, CPU model and toolchain (thread counts follow from the
    /// workload and `nproc`).
    pub fn same_machine(&self, other: &Host) -> bool {
        (self.nproc, &self.cpu, &self.rustc, &self.target)
            == (other.nproc, &other.cpu, &other.rustc, &other.target)
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::UInt(self.nproc as u64)),
            ("engine_threads", Json::UInt(self.engine_threads as u64)),
            (
                "generator_threads",
                Json::UInt(self.generator_threads as u64),
            ),
            ("rustc", Json::Str(self.rustc.clone())),
            ("target", Json::Str(self.target.clone())),
            ("cpu", Json::Str(self.cpu.clone())),
        ])
    }

    /// Parses [`Host::to_json`]'s form.
    ///
    /// # Errors
    ///
    /// Names the missing field.
    pub fn from_json(v: &Json) -> Result<Host, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .map(|x| x as usize)
                .ok_or_else(|| format!("host: missing `{k}`"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host: missing `{k}`"))
        };
        Ok(Host {
            nproc: num("nproc")?,
            engine_threads: num("engine_threads")?,
            generator_threads: num("generator_threads")?,
            rustc: text("rustc")?,
            target: text("target")?,
            cpu: text("cpu")?,
        })
    }
}

/// Available hardware parallelism (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
