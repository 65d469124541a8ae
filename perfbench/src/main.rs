//! `perfbench` — the repository benchmark of the Stretch reproduction.
//!
//! ```text
//! perfbench --workload matrix-cold|core-long|fleet-day --seed N --seconds S --trace 0|1
//!           [--out-dir DIR]
//! ```
//!
//! Each workload is generated from `--seed`, repeats its measured operation
//! until `--seconds` have passed and checks every output it produces. The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) times the calls into each layer's public functions with a
//! span recorder and reports the per-layer metrics. Stores and span files go
//! under `--out-dir`.
//!
//! Standard output is a few `name value unit` lines followed, as the last
//! line, by one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Exit status: 0 when a result was printed, 2 on bad arguments or I/O
//! errors.

mod core_long;
mod fleet_day;
mod matrix_cold;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The seed the pinned output fingerprints were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// The error type of a workload run (I/O under the output directory).
pub type Error = Box<dyn std::error::Error>;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (figures, core runs or fleet days).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Host seconds of each repetition of the measured phase.
    pub walls: Vec<f64>,
    /// Host seconds of each set-up before it.
    pub setups: Vec<f64>,
    /// The process's peak RSS after the first repetition, in MB. Later
    /// repetitions only add allocator fragmentation that depends on thread
    /// timing, so the first one is the steady reading.
    pub peak_rss_mb: f64,
    /// Work rates of the measured phase, printed but not gated: the gate on
    /// `wall_s` covers them, since the work is fixed by the inputs.
    pub rates: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Informational lines: fingerprints, exact counts and notes.
    pub notes: Vec<String>,
}

impl Report {
    /// Median host seconds of the measured phase.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    /// Counts `ops` operations, `bad` of which failed their checks.
    pub fn ops(&mut self, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
    }
}

/// The three workloads of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixCold,
    CoreLong,
    FleetDay,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::MatrixCold, Workload::CoreLong, Workload::FleetDay];

    fn name(self) -> &'static str {
        match self {
            Workload::MatrixCold => "matrix-cold",
            Workload::CoreLong => "core-long",
            Workload::FleetDay => "fleet-day",
        }
    }

    /// Names and units of the per-layer metrics this workload measures.
    fn layer_metrics(self) -> Vec<(String, &'static str)> {
        match self {
            Workload::MatrixCold => matrix_cold::layer_metrics(),
            Workload::CoreLong => core_long::layer_metrics(),
            Workload::FleetDay => fleet_day::layer_metrics(),
        }
    }
}

/// Checked command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// Worker threads of every parallel phase: the machine's cores, at most 2.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn usage() -> String {
    "usage: perfbench --workload matrix-cold|core-long|fleet-day --seed N --seconds S \
     --trace 0|1 [--out-dir DIR]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("--workload {value}: not a workload"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("--seed {value}: not a seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("--seconds {value}: not a count"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds {seconds}: must be 1..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
        i += 2;
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?;
    Ok(Args { workload, seed, seconds: seconds as f64, trace, out_dir })
}

/// FNV-1a over `bytes`. The benchmark keeps its own fingerprint, apart from
/// the program's, so no change to the program can move a pin by changing
/// how fingerprints are computed.
pub fn fingerprint(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// [`fingerprint`] over the bits of `values`.
pub fn fingerprint_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    fingerprint(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `rep` (which returns its measured seconds) until `seconds` of host
/// time have passed since the first call, at least once; returns the
/// measured seconds of every repetition and the peak RSS in MB right after
/// the first.
pub fn repeat_for(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<f64, Error>,
) -> Result<(Vec<f64>, f64), Error> {
    let start = Instant::now();
    let mut times = vec![rep(0)?];
    let rss = peak_rss_mb()?;
    while start.elapsed().as_secs_f64() < seconds {
        times.push(rep(times.len())?);
    }
    Ok((times, rss))
}

/// The process's high-water resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Every per-layer metric: the tracing overhead every workload reports,
/// then each workload's own layers.
fn all_layer_metrics() -> Vec<(String, &'static str)> {
    let common = ["bench.untraced_wall_s", "bench.traced_wall_s", "bench.trace_overhead_s"];
    let mut out: Vec<(String, &'static str)> =
        common.iter().map(|n| (n.to_string(), "s")).collect();
    out.extend(Workload::ALL.into_iter().flat_map(Workload::layer_metrics));
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {err}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let tracer = Tracer::new(args.trace);
    let report = match args.workload {
        Workload::MatrixCold => matrix_cold::run(&args, &tracer),
        Workload::CoreLong => core_long::run(&args, &tracer),
        Workload::FleetDay => fleet_day::run(&args, &tracer),
    };
    let report = match report {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{}: {err}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path =
            args.out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
        if let Err(err) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!("spans written to {}", path.display());
    }

    let end_to_end = vec![
        Metric::new("wall_s", report.wall_s(), "s"),
        Metric::new("setup_s", median(&report.setups), "s"),
        Metric::new("peak_rss_mb", report.peak_rss_mb, "MB"),
    ];
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    for note in &report.notes {
        println!("{note}");
    }
    let name = args.workload.name();
    for (metric, samples) in [("wall_s", &report.walls), ("setup_s", &report.setups)] {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        println!("{name} {metric} samples {} min {min} max {max}", samples.len());
    }
    for m in end_to_end.iter().chain(&report.rates) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} ops_failed_frac {failed_frac} ratio");

    let metrics = if args.trace {
        // Every traced run reports the whole per-layer list; a layer this
        // workload does not measure reads 0.
        all_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = report.layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    } else {
        end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
