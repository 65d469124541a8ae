//! `core-long`: six groupings run directly on the cycle core, built with
//! `SmtCoreBuilder` and run by `run_core` at `SimLength::standard()`, with
//! no engine in between. Windows are longer than the quick matrix's, SMT4
//! is included, and the co-runners span high-MLP (zeusmp) and low-MLP ones.
//! This is also where the benchmark reads the memory and branch counters.

use std::sync::Mutex;

use cpu_sim::{
    colocation_seed, pair_seed, run_core, ColocationPolicy, ColocationTopology, EqualPartition,
    PrivateCore, SimLength, SmtCore, SmtCoreBuilder,
};
use sim_model::{parallel_map, CoreConfig, ThreadId, TraceGenerator, TraceSource};
use stretch::{PinnedStretch, RobSkew, StretchMode};

use crate::trace::{SpanId, Tracer};
use crate::{
    fingerprint_f64, repeat_for, timed, workers, Args, Error, Metric, Report, DEFAULT_SEED,
};

/// Set-up samples per run; `setup_s` is their median. Building six cores takes
/// milliseconds, so many samples cost little and steady the median.
const SETUP_SAMPLES: usize = 49;

/// One colocation of the workload: the LS service on thread 0, batch
/// co-runners on the following threads, under one policy.
struct Grouping {
    name: &'static str,
    ls: &'static str,
    batches: &'static [&'static str],
    policy: fn() -> Box<dyn ColocationPolicy>,
    pinned: u64,
}

fn equal() -> Box<dyn ColocationPolicy> {
    Box::new(EqualPartition)
}

fn b_mode() -> Box<dyn ColocationPolicy> {
    Box::new(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
}

fn alone() -> Box<dyn ColocationPolicy> {
    Box::new(PrivateCore::full())
}

/// The groupings, slowest first so the two workers finish close together,
/// with the fingerprint of each one's per-thread uIPC bits at
/// [`DEFAULT_SEED`].
const GROUPINGS: [Grouping; 6] = [
    Grouping {
        name: "ws-zeusmp-bmode",
        ls: "web-search",
        batches: &["zeusmp"],
        policy: b_mode,
        pinned: 0x35b1_3e14_19fa_1483,
    },
    Grouping {
        name: "ws-zeusmp-equal",
        ls: "web-search",
        batches: &["zeusmp"],
        policy: equal,
        pinned: 0xd084_2874_aa82_6f50,
    },
    Grouping {
        name: "ws-smt4-bmode",
        ls: "web-search",
        batches: &["zeusmp", "gcc", "mcf"],
        policy: b_mode,
        pinned: 0x3754_a512_4c08_5a46,
    },
    Grouping {
        name: "ds-mcf-bmode",
        ls: "data-serving",
        batches: &["mcf"],
        policy: b_mode,
        pinned: 0x6b48_f6b8_5d8a_a826,
    },
    Grouping {
        name: "ms-gcc-equal",
        ls: "media-streaming",
        batches: &["gcc"],
        policy: equal,
        pinned: 0x7482_3366_d670_5464,
    },
    Grouping {
        name: "ws-alone",
        ls: "web-search",
        batches: &[],
        policy: alone,
        pinned: 0x9264_24b6_fa24_e380,
    },
];

const MEM_COUNTERS: [&str; 7] = [
    "loads",
    "stores",
    "l1d_load_misses",
    "llc_misses",
    "l1i_misses",
    "mshr_rejections",
    "prefetch_fills",
];

/// Exact counts of one core run; they must repeat bit-for-bit for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    cycles: u64,
    committed_uops: u64,
    branch_flushes: u64,
    mispredicts: u64,
    mem: [u64; 7],
}

/// One grouping's run: its outputs, counts and whether its checks held.
struct CoreRun {
    print: u64,
    counters: Counters,
    mlp: f64,
    /// Micro-ops committed by each active thread in slot order, for the
    /// trace-generation timing.
    per_thread: Vec<u64>,
    /// Every window closed and the two uop counts agree.
    checks_hold: bool,
}

pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for g in &GROUPINGS {
        out.push((format!("cpu_sim.{}.ns_per_cycle", g.name), "ns"));
        out.push((format!("cpu_sim.{}.mlp", g.name), "misses"));
    }
    for c in ["cycles", "committed_uops", "branch_flushes", "mispredicts"] {
        out.push((format!("cpu_sim.{c}"), "count"));
    }
    out.push(("cpu_sim.build_s".into(), "s"));
    out.extend(MEM_COUNTERS.iter().map(|c| (format!("mem_sim.{c}"), "count")));
    out.push(("workloads.ns_per_uop".into(), "ns"));
    out.push(("workloads.gen_share".into(), "ratio"));
    out
}

/// Each active thread's workload and trace seed, derived from the run seed
/// exactly as `cpu_sim::Scenario` derives them.
fn thread_seeds(g: &Grouping, seed: u64) -> Vec<(ThreadId, &'static str, u64)> {
    if g.batches.is_empty() {
        return vec![(ThreadId::T0, g.ls, pair_seed(seed, g.ls, "standalone"))];
    }
    let names: Vec<&str> = std::iter::once(g.ls).chain(g.batches.iter().copied()).collect();
    let base = colocation_seed(seed, &names);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| (ThreadId::from_index(i), *name, base ^ i as u64))
        .collect()
}

fn profile(name: &str) -> workloads::WorkloadProfile {
    workloads::profile_by_name(name).expect("grouping names are built-in profiles")
}

/// Spawns the grouping's traces and builds its core.
fn build(g: &Grouping, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> SmtCore {
    let cfg = CoreConfig::default();
    let width = (1 + g.batches.len()).max(2);
    let setup = (g.policy)().setup_for(&cfg, &ColocationTopology::new(width, ThreadId::T0));
    let mut builder = setup.apply(SmtCoreBuilder::new(cfg)).smt_width(width);
    for (thread, name, thread_seed) in thread_seeds(g, seed) {
        let trace = tracer.span("workloads.TraceSource::spawn_trace", parent, |_| {
            profile(name).spawn_trace(thread_seed)
        });
        builder = builder.thread(thread, trace);
    }
    tracer.span("cpu_sim.SmtCoreBuilder::build", parent, |_| builder.build())
}

/// Builds every grouping's core; returns the cores and the host seconds.
fn build_all(args: &Args, tracer: &Tracer, parent: Option<SpanId>) -> (f64, Vec<Mutex<SmtCore>>) {
    timed(|| GROUPINGS.iter().map(|g| Mutex::new(build(g, args.seed, tracer, parent))).collect())
}

/// Runs one built core to the end of its measurement windows and reads its
/// outputs and counters.
fn run_one(g: &Grouping, core: &mut SmtCore, tracer: &Tracer, parent: Option<SpanId>) -> CoreRun {
    let length = SimLength::standard();
    let width = core.smt_width();
    let mut names: Vec<Option<String>> = vec![None; width];
    names[0] = Some(g.ls.to_string());
    for (slot, b) in names[1..].iter_mut().zip(g.batches) {
        *slot = Some(b.to_string());
    }
    let span = format!("cpu_sim.run_core.{}", g.name);
    let result = tracer.span(&span, parent, |_| run_core(core, names, length));

    let active: Vec<ThreadId> =
        ThreadId::first_n(width).filter(|t| core.thread_active(*t)).collect();
    let target = length.warmup_instructions + length.measured_instructions;
    let windows_closed = active.iter().all(|&t| core.committed(t) >= target);
    let stats_sum: u64 = active.iter().map(|&t| core.thread_stats(t).committed).sum();
    let committed_sum: u64 = active.iter().map(|&t| core.committed(t)).sum();
    let m = core.memory_stats();
    CoreRun {
        print: fingerprint_f64(result.active_threads().map(|(_, r)| r.uipc)),
        counters: Counters {
            cycles: core.cycles(),
            committed_uops: committed_sum,
            branch_flushes: active.iter().map(|&t| core.thread_stats(t).branch_flushes).sum(),
            mispredicts: active.iter().map(|&t| core.branch_stats(t).mispredictions).sum(),
            mem: [
                m.loads,
                m.stores,
                m.l1d_load_misses,
                m.llc_misses,
                m.l1i_misses,
                m.mshr_rejections,
                m.prefetch_fills,
            ],
        },
        mlp: mean_mlp(&result),
        per_thread: active.iter().map(|&t| core.committed(t)).collect(),
        checks_hold: windows_closed && stats_sum == committed_sum,
    }
}

/// Mean outstanding demand misses per cycle over every active thread's MLP
/// census.
fn mean_mlp(result: &cpu_sim::ColocationResult) -> f64 {
    let mut threads = result.active_threads();
    let (_, first) = threads.next().expect("every grouping has an active thread");
    let mut census = first.mlp.clone();
    for (_, r) in threads {
        census.merge(&r.mlp);
    }
    census.mean().unwrap_or(0.0)
}

/// The measured phase: every grouping's `run_core` over the workers.
fn run_all(
    cores: &[Mutex<SmtCore>],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (f64, Vec<CoreRun>) {
    let items: Vec<usize> = (0..GROUPINGS.len()).collect();
    timed(|| {
        parallel_map(items, workers(), |&i| {
            let mut core = cores[i].lock().expect("each core is run by one worker");
            run_one(&GROUPINGS[i], &mut core, tracer, parent)
        })
    })
}

/// Failed core runs: unclosed windows, a uop-count mismatch, or outputs or
/// counts that differ from the pin (default seed) or the run's first rep.
fn check(args: &Args, runs: &[CoreRun], first: &[CoreRun]) -> u64 {
    let mut bad = 0;
    for ((g, run), first) in GROUPINGS.iter().zip(runs).zip(first) {
        let pinned = args.seed == DEFAULT_SEED && run.print != g.pinned;
        if !run.checks_hold || pinned || run.print != first.print || run.counters != first.counters
        {
            bad += 1;
        }
    }
    bad
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, Error> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut reps: Vec<Vec<CoreRun>> = Vec::new();
    let (walls, rss) = repeat_for(if args.trace { 0.0 } else { args.seconds }, |_| {
        let off = Tracer::new(false);
        let (setup_s, cores) = build_all(args, &off, None);
        setups.push(setup_s);
        let (wall_s, runs) = run_all(&cores, &off, None);
        reps.push(runs);
        Ok(wall_s)
    })?;
    while setups.len() < SETUP_SAMPLES {
        setups.push(build_all(args, &Tracer::new(false), None).0);
    }
    for runs in &reps {
        report.ops(runs.len() as u64, check(args, runs, &reps[0]));
    }
    report.walls = walls;
    report.peak_rss_mb = rss;
    report.setups = setups;
    let first = &reps[0];
    let cycles: u64 = first.iter().map(|r| r.counters.cycles).sum();
    let uops: u64 = first.iter().map(|r| r.counters.committed_uops).sum();
    report.rates.push(Metric::new(
        "sim_mcycles_per_s",
        cycles as f64 / report.wall_s() / 1e6,
        "Mcycle/s",
    ));
    report.rates.push(Metric::new(
        "sim_muops_per_s",
        uops as f64 / report.wall_s() / 1e6,
        "Muop/s",
    ));
    for (g, run) in GROUPINGS.iter().zip(first) {
        report.notes.push(format!(
            "core-long {} fingerprint {:#x} counters {:?}",
            g.name, run.print, run.counters
        ));
    }
    if args.trace {
        traced(args, tracer, first, &mut report);
    }
    Ok(report)
}

/// The traced run: set-up and core runs under spans (which must reproduce
/// the untraced run exactly), then the same number of micro-ops drawn from
/// each thread's trace outside the core.
fn traced(args: &Args, tracer: &Tracer, untraced: &[CoreRun], report: &mut Report) {
    let untraced_wall = report.wall_s();
    let (setup_root, cores) =
        tracer.span("core-long.setup", None, |root| (root, build_all(args, tracer, root).1));
    let (run_root, (wall_s, runs)) =
        tracer.span("core-long.run", None, |root| (root, run_all(&cores, tracer, root)));
    report.ops(runs.len() as u64, check(args, &runs, untraced));

    let gen_root = tracer.span("core-long.trace_generation", None, |root| {
        for (g, run) in GROUPINGS.iter().zip(&runs) {
            tracer.span("workloads.TraceGenerator::next_op", root, |_| {
                for ((_, name, seed), &uops) in
                    thread_seeds(g, args.seed).iter().zip(&run.per_thread)
                {
                    let mut trace = profile(name).spawn_trace(*seed);
                    let mut sink = 0u64;
                    for _ in 0..uops {
                        sink ^= trace.next_op().pc;
                    }
                    std::hint::black_box(sink);
                }
            });
        }
        root
    });

    let mut core_secs = 0.0;
    for (g, run) in GROUPINGS.iter().zip(&runs) {
        let secs = tracer.total_seconds(&format!("cpu_sim.run_core.{}", g.name), run_root);
        core_secs += secs;
        let ns_per_cycle = secs * 1e9 / run.counters.cycles as f64;
        report.layers.push(Metric::new(
            format!("cpu_sim.{}.ns_per_cycle", g.name),
            ns_per_cycle,
            "ns",
        ));
        report.layers.push(Metric::new(format!("cpu_sim.{}.mlp", g.name), run.mlp, "misses"));
    }
    let sum = |f: fn(&Counters) -> u64| runs.iter().map(|r| f(&r.counters)).sum::<u64>() as f64;
    report.layers.push(Metric::new("cpu_sim.cycles", sum(|c| c.cycles), "count"));
    report.layers.push(Metric::new("cpu_sim.committed_uops", sum(|c| c.committed_uops), "count"));
    report.layers.push(Metric::new("cpu_sim.branch_flushes", sum(|c| c.branch_flushes), "count"));
    report.layers.push(Metric::new("cpu_sim.mispredicts", sum(|c| c.mispredicts), "count"));
    let build_s = tracer.total_seconds("cpu_sim.SmtCoreBuilder::build", setup_root);
    report.layers.push(Metric::new("cpu_sim.build_s", build_s, "s"));
    for (i, name) in MEM_COUNTERS.iter().enumerate() {
        let total: u64 = runs.iter().map(|r| r.counters.mem[i]).sum();
        report.layers.push(Metric::new(format!("mem_sim.{name}"), total as f64, "count"));
    }
    let gen_secs = tracer.total_seconds("workloads.TraceGenerator::next_op", gen_root);
    let drawn: u64 = runs.iter().flat_map(|r| r.per_thread.iter().copied()).sum();
    report.layers.push(Metric::new("workloads.ns_per_uop", gen_secs * 1e9 / drawn as f64, "ns"));
    report.layers.push(Metric::new("workloads.gen_share", gen_secs / core_secs, "ratio"));
    report.layers.push(Metric::new("bench.untraced_wall_s", untraced_wall, "s"));
    report.layers.push(Metric::new("bench.traced_wall_s", wall_s, "s"));
    report.layers.push(Metric::new("bench.trace_overhead_s", wall_s - untraced_wall, "s"));
}
