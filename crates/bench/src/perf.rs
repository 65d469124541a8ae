//! The performance subsystem: a registry of named, fixed-length benchmarks
//! spanning all three simulation layers, a warmup + median-of-N wall-clock
//! measurement harness, a schema-versioned machine-readable report
//! (`BENCH_<label>.json`), and the regression gate the CI `perf` job runs
//! against the committed `bench/baseline.json`.
//!
//! Three layers, one registry:
//!
//! * **cpu** — cycle-level [`cpu_sim::Scenario`] pairs and stand-alone runs
//!   (rates in simulated cycles per second);
//! * **qos** — server-level request simulations from `sim_qos`
//!   (rates in simulated requests per second);
//! * **cluster** — a `cluster_sim::fleet` day at quick scale, including its
//!   peak bisection and threshold calibration;
//! * **figures** — the end-to-end quick figure matrix (every figure rendered
//!   from a cold engine), the number the optimization passes are graded on.
//!
//! Every benchmark is deterministic: fixed seeds, fixed lengths, and a
//! [`BenchWork::fingerprint`] folded over the simulation results so tests
//! can prove that *measuring* a run does not perturb it (`tests/perf.rs`
//! pins the fingerprint against the un-instrumented API bit-for-bit).
//!
//! The gate ([`gate`]) compares two reports benchmark-by-benchmark: a
//! current median above `baseline × (1 + pct/100)` is a regression, a
//! benchmark present in the baseline but missing from the current report
//! fails too (dropping a benchmark must never hide a regression), and a
//! benchmark new in the current report passes with a note. Exit-code
//! semantics live in the `perf` binary.

use std::fmt::Write as _;
use std::time::Instant;

use cluster_sim::{CaseStudy, FleetScale, FleetTopology, LoadBalancer, TailAccumulation};
use cpu_sim::{
    pair_seed, run_core, ColocationPolicy, EqualPartition, Scenario, SimLength, SmtCoreBuilder,
};
use serde_json::Value;
use sim_model::{CoreConfig, ThreadId, TraceSource};
use sim_qos::{latency_vs_load, slack_curve, ServiceSpec, SimParams};
use stretch::{PinnedStretch, RobSkew, StretchMode};
use workloads::profile_by_name;

use crate::engine::Engine;
use crate::harness::ExperimentConfig;
use crate::store::{obj, JsonCodec};

/// Version stamped into every report; the gate refuses to compare reports
/// whose schemas differ (bump this when a field changes meaning).
pub const SCHEMA_VERSION: u64 = 1;

/// Work accomplished by one benchmark run, used to derive rates and to
/// prove determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchWork {
    /// Simulated core cycles covered by the run's measurement windows
    /// (0 for request-level benchmarks).
    pub sim_cycles: u64,
    /// Simulated requests completed (0 for cycle-level benchmarks).
    pub requests: u64,
    /// Cycles the core simulated one at a time with `SmtCore::step`, the
    /// rest being jumped over by the idle skip: a host-side work count,
    /// exact on any machine. Only entries that own their core report it
    /// (0 elsewhere); it never enters a simulation result or digest.
    pub stepped_cycles: u64,
    /// An order-sensitive FNV fold over the run's result bits. Identical
    /// simulation results — and only identical results — produce identical
    /// fingerprints, so a perf-instrumented run can be checked bit-for-bit
    /// against the plain API.
    pub fingerprint: u64,
}

/// Folds a sequence of `f64` results into a [`BenchWork::fingerprint`].
pub fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One registry entry: a named, fixed-length, deterministic workload.
pub struct BenchSpec {
    /// Stable benchmark name (`layer/slug`); the gate matches on it.
    pub name: &'static str,
    /// Simulation layer: `cpu`, `qos`, `cluster` or `figures`.
    pub layer: &'static str,
    /// One-line description shown by `perf --list`.
    pub title: &'static str,
    /// Runs the workload once and reports the work done.
    pub run: fn() -> BenchWork,
}

fn bench_cpu_pair(b_mode: bool) -> BenchWork {
    let ls = profile_by_name("web-search").expect("known ls workload");
    let batch = profile_by_name("zeusmp").expect("known batch workload");
    let scenario = Scenario::colocate(ls, batch).length(SimLength::quick()).seed(42);
    let scenario = if b_mode {
        scenario.policy(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
    } else {
        scenario.policy(EqualPartition)
    };
    let r = scenario.run();
    let t0 = r.expect_thread(ThreadId::T0);
    let t1 = r.expect_thread(ThreadId::T1);
    BenchWork {
        sim_cycles: t0.cycles.max(t1.cycles),
        requests: 0,
        stepped_cycles: 0,
        fingerprint: fingerprint([t0.uipc, t1.uipc]),
    }
}

fn bench_cpu_pair_baseline() -> BenchWork {
    bench_cpu_pair(false)
}

fn bench_cpu_pair_bmode() -> BenchWork {
    bench_cpu_pair(true)
}

/// The `cpu/colocate-baseline` pair with the `Scenario` layer peeled off:
/// the core is built from the policy's setup and driven through `run_core`
/// directly, deriving each thread's seed exactly as the scenario does. Timed
/// beside `cpu/dispatch-scenario`, the delta is what the builder and boxed
/// policy cost per run; `tests/perf.rs` pins the two bit-identical.
fn bench_cpu_pair_direct() -> BenchWork {
    let core = CoreConfig::default();
    let ls = profile_by_name("web-search").expect("known ls workload");
    let batch = profile_by_name("zeusmp").expect("known batch workload");
    let seed = pair_seed(42, "web-search", "zeusmp");
    let mut smt = EqualPartition
        .setup(&core)
        .apply(SmtCoreBuilder::new(core))
        .thread(ThreadId::T0, ls.spawn(seed))
        .thread(ThreadId::T1, batch.spawn(seed ^ 1))
        .build();
    let names = vec![Some("web-search".to_string()), Some("zeusmp".to_string())];
    let r = run_core(&mut smt, names, SimLength::quick());
    let t0 = r.expect_thread(ThreadId::T0);
    let t1 = r.expect_thread(ThreadId::T1);
    BenchWork {
        sim_cycles: t0.cycles.max(t1.cycles),
        requests: 0,
        stepped_cycles: smt.stepped_cycles(),
        fingerprint: fingerprint([t0.uipc, t1.uipc]),
    }
}

fn bench_cpu_smt4() -> BenchWork {
    // The T-thread generalisation's hot path: one LS service plus three
    // batch co-runners sharing a single SMT4 core under Stretch B-mode.
    // The two-thread pair benchmarks above keep their fingerprints across
    // the generalisation (the T = 2 path is bit-exact); this one covers the
    // wider fetch-arbitration and partitioning machinery they never touch.
    let ls = profile_by_name("web-search").expect("known ls workload");
    let batches: Vec<Box<dyn TraceSource + Send + Sync>> = ["zeusmp", "gcc", "mcf"]
        .iter()
        .map(|name| {
            Box::new(profile_by_name(name).expect("known batch workload"))
                as Box<dyn TraceSource + Send + Sync>
        })
        .collect();
    let r = Scenario::colocate_n(ls, batches)
        .policy(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
        .length(SimLength::quick())
        .seed(42)
        .run();
    let threads: Vec<_> = (0..4).map(|i| r.expect_thread(ThreadId::from_index(i))).collect();
    BenchWork {
        sim_cycles: threads.iter().map(|t| t.cycles).max().expect("four threads ran"),
        requests: 0,
        stepped_cycles: 0,
        fingerprint: fingerprint(threads.iter().map(|t| t.uipc)),
    }
}

fn bench_cpu_standalone() -> BenchWork {
    let r = Scenario::standalone(profile_by_name("web-search").expect("known workload"))
        .length(SimLength::quick())
        .seed(42)
        .run_thread0();
    BenchWork {
        sim_cycles: r.cycles,
        requests: 0,
        stepped_cycles: 0,
        fingerprint: fingerprint([r.uipc]),
    }
}

fn bench_qos_latency_curve() -> BenchWork {
    let curve = latency_vs_load(&ServiceSpec::web_search(), SimParams::quick(11), 0.2, 6);
    BenchWork {
        sim_cycles: 0,
        requests: curve.iter().map(|p| p.latency.requests as u64).sum(),
        stepped_cycles: 0,
        fingerprint: fingerprint(curve.iter().map(|p| p.latency.p99_ms)),
    }
}

fn bench_qos_slack_curve() -> BenchWork {
    let curve = slack_curve(&ServiceSpec::web_search(), SimParams::quick(12), &[0.3, 0.6, 0.9]);
    BenchWork {
        sim_cycles: 0,
        requests: 0,
        stepped_cycles: 0,
        fingerprint: fingerprint(curve.iter().map(|p| p.required_performance)),
    }
}

fn bench_cluster_fleet_day() -> BenchWork {
    // The full measured §VI-D pipeline: peak bisection, threshold
    // calibration on the fleet, then the 24-hour day — the calibration loop
    // is exactly the path the fleet optimization pass targets.
    let report =
        CaseStudy::web_search().run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
    BenchWork {
        sim_cycles: 0,
        requests: report.requests as u64,
        stepped_cycles: 0,
        fingerprint: fingerprint([report.gain(), report.p99_ms, report.hours_engaged]),
    }
}

/// Worker threads for the sharded fleet benchmarks: saturate the machine
/// (capped, like `ExperimentConfig::workers`). The report is bit-identical
/// at every count, so this only affects wall clock.
fn fleet_bench_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get()).min(8)
}

fn bench_cluster_fleet_10k() -> BenchWork {
    // The datacenter tentpole: 10 000 servers as 125 racks of 80 behind
    // power-of-two-choices rack dispatch, binned tail retention, one
    // simulated day (~19.2M requests), sharded over the machine's cores.
    // The merge is deterministic, so the fingerprint is worker-independent.
    let report = CaseStudy::web_search()
        .fleet_with(
            LoadBalancer::PowerOfTwoChoices,
            FleetScale::datacenter(42),
            FleetTopology::racked(125, LoadBalancer::PowerOfTwoChoices),
            TailAccumulation::binned_default(),
            1,
        )
        .run_with_workers(fleet_bench_workers());
    BenchWork {
        sim_cycles: 0,
        requests: report.requests as u64,
        stepped_cycles: 0,
        fingerprint: fingerprint([
            report.gain(),
            report.p99_ms,
            report.hours_engaged,
            report.violation_fraction,
        ]),
    }
}

fn bench_cluster_fleet_scaling() -> BenchWork {
    // The shards × servers scaling curve: one modest fleet re-run at
    // increasing rack counts (1 rack degenerates to the flat dispatch
    // path). Tracks the sharding overhead — per-shard setup, the
    // deterministic merge — separately from the raw 10k throughput number.
    let study = CaseStudy::web_search();
    let mut requests = 0u64;
    let mut results = Vec::new();
    for racks in [1usize, 8, 64] {
        let report = study
            .fleet_with(
                LoadBalancer::PowerOfTwoChoices,
                FleetScale { servers: 512, requests_per_server: 20, seed: 42 },
                FleetTopology::racked(racks, LoadBalancer::PowerOfTwoChoices),
                TailAccumulation::binned_default(),
                1,
            )
            .run_with_workers(fleet_bench_workers());
        requests += report.requests as u64;
        results.extend([report.gain(), report.p99_ms, report.hours_engaged]);
    }
    BenchWork { sim_cycles: 0, requests, stepped_cycles: 0, fingerprint: fingerprint(results) }
}

fn bench_figures_quick_matrix() -> BenchWork {
    // The acceptance-criterion benchmark: every figure of the paper rendered
    // cold (no result store, fresh engine) at the quick 1×2 sub-matrix, with
    // the figure fan-out running on all cores exactly as the `figures` driver
    // does. The index-order merge keeps the concatenation — and therefore
    // the fingerprint — byte-identical to the serial rendering loop.
    let engine = Engine::new(ExperimentConfig::quick()).with_sub_matrix(1, 2);
    let specs: Vec<&crate::figures::FigureSpec> = crate::figures::all().iter().collect();
    let rendered = crate::figures::render_many(&engine, &specs, engine.cfg().workers()).concat();
    // Wall-clock-only benchmark: its work units are neither cycles nor
    // requests, so no rate is derived; the fingerprint covers every byte of
    // every rendered figure.
    BenchWork {
        sim_cycles: 0,
        requests: 0,
        stepped_cycles: 0,
        fingerprint: fingerprint(rendered.as_bytes().iter().map(|&b| f64::from(b))),
    }
}

/// The benchmark registry, cheap layers first so `perf` gives early signal.
pub fn registry() -> &'static [BenchSpec] {
    const ALL: [BenchSpec; 12] = [
        BenchSpec {
            name: "cpu/colocate-baseline",
            layer: "cpu",
            title: "web-search x zeusmp quick pair under EqualPartition",
            run: bench_cpu_pair_baseline,
        },
        BenchSpec {
            name: "cpu/colocate-bmode",
            layer: "cpu",
            title: "web-search x zeusmp quick pair under Stretch B-mode 56-136",
            run: bench_cpu_pair_bmode,
        },
        BenchSpec {
            name: "cpu/dispatch-scenario",
            layer: "cpu",
            title: "web-search x zeusmp quick pair via Scenario + boxed policy",
            run: bench_cpu_pair_baseline,
        },
        BenchSpec {
            name: "cpu/dispatch-run-core",
            layer: "cpu",
            title: "the same pair built by hand and driven by run_core directly",
            run: bench_cpu_pair_direct,
        },
        BenchSpec {
            name: "cpu/smt4-pair",
            layer: "cpu",
            title: "web-search x 3 batch co-runners on one SMT4 core under B-mode",
            run: bench_cpu_smt4,
        },
        BenchSpec {
            name: "cpu/standalone-websearch",
            layer: "cpu",
            title: "web-search quick stand-alone run on a private core",
            run: bench_cpu_standalone,
        },
        BenchSpec {
            name: "qos/latency-curve",
            layer: "qos",
            title: "Figure 1 latency-vs-load curve at quick request counts",
            run: bench_qos_latency_curve,
        },
        BenchSpec {
            name: "qos/slack-curve",
            layer: "qos",
            title: "Figure 2 slack curve over three load points",
            run: bench_qos_slack_curve,
        },
        BenchSpec {
            name: "cluster/fleet-day",
            layer: "cluster",
            title: "measured Web Search fleet day incl. peak bisection + calibration",
            run: bench_cluster_fleet_day,
        },
        BenchSpec {
            name: "cluster/fleet-10k",
            layer: "cluster",
            title: "10k-server racked fleet day, sharded + deterministically merged",
            run: bench_cluster_fleet_10k,
        },
        BenchSpec {
            name: "cluster/fleet-scaling",
            layer: "cluster",
            title: "512-server fleet day at 1/8/64 racks (sharding scaling curve)",
            run: bench_cluster_fleet_scaling,
        },
        BenchSpec {
            name: "figures/quick-matrix",
            layer: "figures",
            title: "all figures rendered cold at the quick 1x2 sub-matrix",
            run: bench_figures_quick_matrix,
        },
    ];
    &ALL
}

/// Looks a benchmark up by exact name.
pub fn by_name(name: &str) -> Option<&'static BenchSpec> {
    registry().iter().find(|spec| spec.name == name)
}

/// How a benchmark is measured: warmup runs (discarded) then measured runs
/// whose median wall clock is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOptions {
    /// Measured runs per benchmark (the report quotes their median).
    pub runs: usize,
    /// Discarded warm-up runs per benchmark.
    pub warmup_runs: usize,
}

impl Default for MeasureOptions {
    fn default() -> MeasureOptions {
        MeasureOptions { runs: 3, warmup_runs: 1 }
    }
}

/// One measured benchmark in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeasurement {
    /// Benchmark name (`layer/slug`).
    pub name: String,
    /// Simulation layer.
    pub layer: String,
    /// Median wall-clock time over the measured runs, milliseconds.
    pub median_wall_ms: f64,
    /// Fastest measured run, milliseconds.
    pub min_wall_ms: f64,
    /// Slowest measured run, milliseconds.
    pub max_wall_ms: f64,
    /// Simulated cycles per run (0 when the layer is not cycle-level).
    pub sim_cycles: u64,
    /// Simulated requests per run (0 when the layer is not request-level).
    pub requests: u64,
    /// Derived rate: simulated cycles per wall-clock second at the median.
    pub sim_cycles_per_sec: f64,
    /// Derived rate: simulated requests per wall-clock second at the median.
    pub requests_per_sec: f64,
}

/// A complete perf report: schema version, label, measurement parameters
/// and every measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Free-form label (`ci`, `local`, `baseline`, …).
    pub label: String,
    /// Measured runs per benchmark.
    pub runs: usize,
    /// Warm-up runs per benchmark.
    pub warmup_runs: usize,
    /// The measurements, in registry order.
    pub benchmarks: Vec<BenchMeasurement>,
}

impl BenchReport {
    /// Looks a measurement up by benchmark name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchMeasurement> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// The conventional file name for this report's label.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }
}

impl JsonCodec for BenchMeasurement {
    fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::from(self.name.as_str())),
            ("layer", Value::from(self.layer.as_str())),
            ("median_wall_ms", Value::from(self.median_wall_ms)),
            ("min_wall_ms", Value::from(self.min_wall_ms)),
            ("max_wall_ms", Value::from(self.max_wall_ms)),
            ("sim_cycles", Value::from(self.sim_cycles)),
            ("requests", Value::from(self.requests)),
            ("sim_cycles_per_sec", Value::from(self.sim_cycles_per_sec)),
            ("requests_per_sec", Value::from(self.requests_per_sec)),
        ])
    }
    fn from_json(value: &Value) -> Option<BenchMeasurement> {
        Some(BenchMeasurement {
            name: value.get("name")?.as_str()?.to_string(),
            layer: value.get("layer")?.as_str()?.to_string(),
            median_wall_ms: value.get("median_wall_ms")?.as_f64()?,
            min_wall_ms: value.get("min_wall_ms")?.as_f64()?,
            max_wall_ms: value.get("max_wall_ms")?.as_f64()?,
            sim_cycles: value.get("sim_cycles")?.as_u64()?,
            requests: value.get("requests")?.as_u64()?,
            sim_cycles_per_sec: value.get("sim_cycles_per_sec")?.as_f64()?,
            requests_per_sec: value.get("requests_per_sec")?.as_f64()?,
        })
    }
}

impl JsonCodec for BenchReport {
    fn to_json(&self) -> Value {
        obj(vec![
            ("schema_version", Value::from(self.schema_version)),
            ("label", Value::from(self.label.as_str())),
            ("runs", Value::from(self.runs)),
            ("warmup_runs", Value::from(self.warmup_runs)),
            ("benchmarks", self.benchmarks.to_json()),
        ])
    }
    fn from_json(value: &Value) -> Option<BenchReport> {
        let schema_version = value.get("schema_version")?.as_u64()?;
        if schema_version != SCHEMA_VERSION {
            // An incompatible schema must read as "unreadable", not as an
            // empty baseline the gate would silently pass.
            return None;
        }
        Some(BenchReport {
            schema_version,
            label: value.get("label")?.as_str()?.to_string(),
            runs: value.get("runs")?.as_u64()? as usize,
            warmup_runs: value.get("warmup_runs")?.as_u64()? as usize,
            benchmarks: Vec::from_json(value.get("benchmarks")?)?,
        })
    }
}

/// Measures one benchmark: `warmup_runs` discarded runs, then `runs`
/// measured runs whose median wall clock is reported with derived rates.
///
/// # Panics
///
/// Panics if `opts.runs` is zero.
pub fn measure(spec: &BenchSpec, opts: MeasureOptions) -> BenchMeasurement {
    assert!(opts.runs > 0, "need at least one measured run");
    for _ in 0..opts.warmup_runs {
        let _ = (spec.run)();
    }
    let mut wall_ms = Vec::with_capacity(opts.runs);
    let mut work = BenchWork { sim_cycles: 0, requests: 0, stepped_cycles: 0, fingerprint: 0 };
    for _ in 0..opts.runs {
        let start = Instant::now();
        work = (spec.run)();
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    wall_ms.sort_by(|a, b| a.partial_cmp(b).expect("wall clocks are finite"));
    let median = if wall_ms.len() % 2 == 1 {
        wall_ms[wall_ms.len() / 2]
    } else {
        0.5 * (wall_ms[wall_ms.len() / 2 - 1] + wall_ms[wall_ms.len() / 2])
    };
    let per_sec = |units: u64| if median > 0.0 { units as f64 / (median / 1e3) } else { 0.0 };
    BenchMeasurement {
        name: spec.name.to_string(),
        layer: spec.layer.to_string(),
        median_wall_ms: median,
        min_wall_ms: wall_ms[0],
        max_wall_ms: wall_ms[wall_ms.len() - 1],
        sim_cycles: work.sim_cycles,
        requests: work.requests,
        sim_cycles_per_sec: per_sec(work.sim_cycles),
        requests_per_sec: per_sec(work.requests),
    }
}

/// Measures every registry benchmark whose name contains `filter` (all of
/// them for an empty filter) into a labelled report.
pub fn measure_all(label: &str, filter: &str, opts: MeasureOptions) -> BenchReport {
    let benchmarks = registry()
        .iter()
        .filter(|spec| spec.name.contains(filter))
        .map(|spec| {
            eprintln!("measuring {} ({} warmup + {} runs)", spec.name, opts.warmup_runs, opts.runs);
            measure(spec, opts)
        })
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        runs: opts.runs,
        warmup_runs: opts.warmup_runs,
        benchmarks,
    }
}

/// Verdict for one benchmark in a gate comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the allowed envelope (the delta may even be an improvement).
    Pass,
    /// Slower than `baseline × (1 + gate_pct/100)`.
    Regressed,
    /// Present in the current report only; nothing to compare against.
    New,
    /// Present in the baseline only — fails, because a benchmark that
    /// silently disappears can hide any regression.
    Missing,
}

/// One row of a gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Benchmark name.
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Baseline median wall clock, ms (`None` for [`Verdict::New`]).
    pub baseline_ms: Option<f64>,
    /// Current median wall clock, ms (`None` for [`Verdict::Missing`]).
    pub current_ms: Option<f64>,
    /// Relative change, e.g. `+0.12` for 12% slower (`None` when either
    /// side is absent).
    pub delta: Option<f64>,
}

/// Result of gating a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Allowed slowdown in percent.
    pub gate_pct: f64,
    /// Per-benchmark rows, baseline order first, then new benchmarks.
    pub entries: Vec<GateEntry>,
}

impl GateOutcome {
    /// Benchmarks that regressed or went missing.
    pub fn failures(&self) -> impl Iterator<Item = &GateEntry> {
        self.entries.iter().filter(|e| matches!(e.verdict, Verdict::Regressed | Verdict::Missing))
    }

    /// `true` when no benchmark regressed or went missing.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Renders the comparison as a fixed-width table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12} {:>9}  verdict",
            "benchmark", "baseline ms", "current ms", "delta"
        );
        for e in &self.entries {
            let fmt_ms =
                |ms: Option<f64>| ms.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            let delta = e.delta.map_or_else(|| "-".to_string(), |d| format!("{:+.1}%", d * 100.0));
            let verdict = match e.verdict {
                Verdict::Pass => "pass",
                Verdict::Regressed => "REGRESSED",
                Verdict::New => "new (no baseline)",
                Verdict::Missing => "MISSING from current",
            };
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>12} {:>9}  {}",
                e.name,
                fmt_ms(e.baseline_ms),
                fmt_ms(e.current_ms),
                delta,
                verdict
            );
        }
        let failures = self.failures().count();
        let _ = writeln!(
            out,
            "gate {:+.0}%: {}",
            self.gate_pct,
            if failures == 0 {
                "PASS".to_string()
            } else {
                format!("FAIL ({failures} benchmark(s) regressed or missing)")
            }
        );
        out
    }
}

/// Diffs `current` against `baseline` under an allowed slowdown of
/// `gate_pct` percent. See [`Verdict`] for the per-benchmark rules.
pub fn gate(baseline: &BenchReport, current: &BenchReport, gate_pct: f64) -> GateOutcome {
    let mut entries = Vec::with_capacity(baseline.benchmarks.len());
    for base in &baseline.benchmarks {
        match current.benchmark(&base.name) {
            Some(cur) => {
                let delta = cur.median_wall_ms / base.median_wall_ms - 1.0;
                let verdict = if cur.median_wall_ms > base.median_wall_ms * (1.0 + gate_pct / 100.0)
                {
                    Verdict::Regressed
                } else {
                    Verdict::Pass
                };
                entries.push(GateEntry {
                    name: base.name.clone(),
                    verdict,
                    baseline_ms: Some(base.median_wall_ms),
                    current_ms: Some(cur.median_wall_ms),
                    delta: Some(delta),
                });
            }
            None => entries.push(GateEntry {
                name: base.name.clone(),
                verdict: Verdict::Missing,
                baseline_ms: Some(base.median_wall_ms),
                current_ms: None,
                delta: None,
            }),
        }
    }
    for cur in &current.benchmarks {
        if baseline.benchmark(&cur.name).is_none() {
            entries.push(GateEntry {
                name: cur.name.clone(),
                verdict: Verdict::New,
                baseline_ms: None,
                current_ms: Some(cur.median_wall_ms),
                delta: None,
            });
        }
    }
    GateOutcome { gate_pct, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(name: &str, median_ms: f64) -> BenchMeasurement {
        BenchMeasurement {
            name: name.to_string(),
            layer: name.split('/').next().expect("layered name").to_string(),
            median_wall_ms: median_ms,
            min_wall_ms: median_ms * 0.9,
            max_wall_ms: median_ms * 1.1,
            sim_cycles: 1_000,
            requests: 0,
            sim_cycles_per_sec: 1_000.0 / (median_ms / 1e3),
            requests_per_sec: 0.0,
        }
    }

    fn report(label: &str, benchmarks: Vec<BenchMeasurement>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: label.to_string(),
            runs: 3,
            warmup_runs: 1,
            benchmarks,
        }
    }

    #[test]
    fn registry_names_are_unique_and_layered() {
        let mut seen = std::collections::HashSet::new();
        for spec in registry() {
            assert!(seen.insert(spec.name), "duplicate benchmark name {}", spec.name);
            let layer = spec.name.split('/').next().expect("layered name");
            assert_eq!(layer, spec.layer, "{}: name prefix must equal the layer", spec.name);
        }
        assert!(by_name("cpu/colocate-baseline").is_some());
        assert!(by_name("no-such-bench").is_none());
    }

    #[test]
    fn gate_passes_within_the_envelope() {
        let baseline = report("baseline", vec![measurement("cpu/a", 100.0)]);
        let current = report("ci", vec![measurement("cpu/a", 105.0)]);
        let outcome = gate(&baseline, &current, 10.0);
        assert!(outcome.passed());
        assert_eq!(outcome.entries.len(), 1);
        assert_eq!(outcome.entries[0].verdict, Verdict::Pass);
        let delta = outcome.entries[0].delta.expect("both sides present");
        assert!((delta - 0.05).abs() < 1e-12);
    }

    #[test]
    fn gate_fails_on_a_regression() {
        let baseline = report("baseline", vec![measurement("cpu/a", 100.0)]);
        let current = report("ci", vec![measurement("cpu/a", 140.0)]);
        let outcome = gate(&baseline, &current, 25.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.entries[0].verdict, Verdict::Regressed);
        assert!(outcome.render().contains("REGRESSED"));
        // The same numbers pass a looser gate.
        assert!(gate(&baseline, &current, 50.0).passed());
    }

    #[test]
    fn gate_notes_new_benchmarks_without_failing() {
        let baseline = report("baseline", vec![measurement("cpu/a", 100.0)]);
        let current = report("ci", vec![measurement("cpu/a", 100.0), measurement("qos/b", 50.0)]);
        let outcome = gate(&baseline, &current, 10.0);
        assert!(outcome.passed());
        let new: Vec<_> = outcome.entries.iter().filter(|e| e.verdict == Verdict::New).collect();
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].name, "qos/b");
        assert!(new[0].baseline_ms.is_none());
    }

    #[test]
    fn gate_fails_on_a_missing_benchmark() {
        let baseline =
            report("baseline", vec![measurement("cpu/a", 100.0), measurement("qos/b", 50.0)]);
        let current = report("ci", vec![measurement("cpu/a", 100.0)]);
        let outcome = gate(&baseline, &current, 10.0);
        assert!(!outcome.passed());
        let missing: Vec<_> =
            outcome.failures().filter(|e| e.verdict == Verdict::Missing).collect();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].name, "qos/b");
        assert!(outcome.render().contains("MISSING"));
    }

    #[test]
    fn report_json_round_trips() {
        let original = report(
            "baseline",
            vec![measurement("cpu/a", 123.456), measurement("cluster/fleet-day", 4000.25)],
        );
        let restored = BenchReport::from_json(&original.to_json()).expect("round trip");
        assert_eq!(restored, original);
        assert_eq!(
            restored.benchmarks[0].median_wall_ms.to_bits(),
            original.benchmarks[0].median_wall_ms.to_bits()
        );
        assert_eq!(restored.file_name(), "BENCH_baseline.json");
    }

    #[test]
    fn incompatible_schema_versions_refuse_to_decode() {
        let mut value = report("baseline", vec![measurement("cpu/a", 1.0)]).to_json();
        if let Value::Object(map) = &mut value {
            map.insert("schema_version".to_string(), Value::from(SCHEMA_VERSION + 1));
        }
        assert!(BenchReport::from_json(&value).is_none());
    }

    #[test]
    fn median_is_the_middle_run() {
        // A benchmark spec whose run cost is negligible: the median math is
        // what is under test, driven through the public measure() path.
        fn noop() -> BenchWork {
            BenchWork { sim_cycles: 10, requests: 4, stepped_cycles: 0, fingerprint: 7 }
        }
        let spec = BenchSpec { name: "test/noop", layer: "test", title: "noop", run: noop };
        let m = measure(&spec, MeasureOptions { runs: 3, warmup_runs: 0 });
        assert_eq!(m.name, "test/noop");
        assert!(m.min_wall_ms <= m.median_wall_ms && m.median_wall_ms <= m.max_wall_ms);
        assert_eq!(m.sim_cycles, 10);
        assert_eq!(m.requests, 4);
        assert!(m.sim_cycles_per_sec > 0.0);
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        assert_eq!(fingerprint([1.0, 2.0]), fingerprint([1.0, 2.0]));
        assert_ne!(fingerprint([1.0, 2.0]), fingerprint([2.0, 1.0]));
        assert_ne!(fingerprint([1.0]), fingerprint([1.0 + f64::EPSILON]));
        // 0.0 and -0.0 differ in bits, so they must differ in fingerprint.
        assert_ne!(fingerprint([0.0]), fingerprint([-0.0]));
    }
}
