//! `fleet-day`: two web-search days of the cluster simulator, with no cycle
//! core involved. The `p2c` day is the `fleet` CLI's default fleet, where
//! time goes to per-server queueing, the monitor and the shard merge; the
//! `least-loaded` day is dominated by the per-request O(rack) dispatch
//! scan. Together they cover both halves of the fleet layer.

use cluster_sim::{
    CaseStudy, Fleet, FleetReport, FleetScale, FleetTopology, LoadBalancer, TailAccumulation,
};

use crate::trace::{SpanId, Tracer};
use crate::{
    fingerprint_f64, repeat_for, timed, workers, Args, Error, Metric, Report, DEFAULT_SEED,
};

/// Set-up samples per run; `setup_s` is their median. Calibration takes a
/// quarter second, so a few samples steady the median at little cost.
const SETUP_SAMPLES: usize = 9;

/// One simulated day: fleet shape and dispatch policy.
struct Day {
    name: &'static str,
    servers: usize,
    racks: usize,
    balancer: LoadBalancer,
    /// Fingerprint of the day's 24-hour gain and p99 bits at
    /// [`DEFAULT_SEED`].
    pinned: u64,
}

/// Measured requests per server per control interval (the `fleet` CLI's
/// default).
const REQUESTS_PER_SERVER: usize = 20;

const DAYS: [Day; 2] = [
    Day {
        name: "p2c",
        servers: 10_000,
        racks: 125,
        balancer: LoadBalancer::PowerOfTwoChoices,
        pinned: 0x9dbb_8701_698a_a2c5,
    },
    Day {
        name: "least-loaded",
        servers: 2_000,
        racks: 25,
        balancer: LoadBalancer::LeastLoaded,
        pinned: 0x4e5b_d63c_2c03_5e27,
    },
];

/// The paper's §VI-D 24-hour batch throughput gain for web search.
const PAPER_WEB_SEARCH_GAIN: f64 = 0.05;

/// Exact counts of one day; they must repeat bit-for-bit for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    requests: u64,
    mode_changes: u64,
    starved_intervals: u64,
}

/// One day's outputs and whether its checks held.
struct DayRun {
    print: u64,
    gain: f64,
    counters: Counters,
    requests_ok: bool,
}

pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for d in &DAYS {
        out.push((format!("cluster_sim.{}.calibrate_s", d.name), "s"));
        out.push((format!("cluster_sim.{}.run_s", d.name), "s"));
        out.push((format!("cluster_sim.{}.mreq_per_s", d.name), "Mreq/s"));
        out.push((format!("cluster_sim.{}.speedup_2w", d.name), "ratio"));
        for c in ["requests", "mode_changes", "starved_intervals"] {
            out.push((format!("cluster_sim.{}.{c}", d.name), "count"));
        }
    }
    out
}

/// Peak bisection and monitor calibration of one day's fleet.
fn calibrate(day: &Day, seed: u64) -> Fleet {
    let scale = FleetScale { servers: day.servers, requests_per_server: REQUESTS_PER_SERVER, seed };
    CaseStudy::web_search().fleet_with(
        day.balancer,
        scale,
        FleetTopology::racked(day.racks, day.balancer),
        TailAccumulation::binned_default(),
        1,
    )
}

fn calibrate_all(args: &Args, tracer: &Tracer, parent: Option<SpanId>) -> (f64, Vec<Fleet>) {
    timed(|| {
        DAYS.iter()
            .map(|d| {
                let span = format!("cluster_sim.CaseStudy::fleet_with.{}", d.name);
                tracer.span(&span, parent, |_| calibrate(d, args.seed))
            })
            .collect()
    })
}

fn day_run(fleet: &Fleet, report: &FleetReport) -> DayRun {
    let cfg = fleet.cfg();
    let expected = cfg.servers * cfg.requests_per_server * cfg.total_intervals();
    DayRun {
        print: fingerprint_f64([report.gain(), report.p99_ms]),
        gain: report.gain(),
        counters: Counters {
            requests: report.requests as u64,
            mode_changes: report.servers.iter().map(|s| s.mode_changes).sum(),
            starved_intervals: report.servers.iter().map(|s| s.starved_intervals as u64).sum(),
        },
        requests_ok: report.requests == expected,
    }
}

/// The measured phase: every day run on `workers` shard workers.
fn run_all(
    fleets: &[Fleet],
    workers: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (f64, Vec<FleetReport>) {
    timed(|| {
        DAYS.iter()
            .zip(fleets)
            .map(|(d, fleet)| {
                let span = format!("cluster_sim.Fleet::run_with_workers({workers}).{}", d.name);
                tracer.span(&span, parent, |_| fleet.run_with_workers(workers))
            })
            .collect()
    })
}

/// Failed days: a request count off the fleet's shape, or outputs or counts
/// that differ from the pin (default seed) or the run's first rep.
fn check(args: &Args, runs: &[DayRun], first: &[DayRun]) -> u64 {
    let mut bad = 0;
    for ((d, run), first) in DAYS.iter().zip(runs).zip(first) {
        let pinned = args.seed == DEFAULT_SEED && run.print != d.pinned;
        if !run.requests_ok || pinned || run.print != first.print || run.counters != first.counters
        {
            bad += 1;
        }
    }
    bad
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, Error> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut reps: Vec<Vec<DayRun>> = Vec::new();
    let (walls, rss) = repeat_for(if args.trace { 0.0 } else { args.seconds }, |_| {
        let off = Tracer::new(false);
        let (setup_s, fleets) = calibrate_all(args, &off, None);
        setups.push(setup_s);
        let (wall_s, reports) = run_all(&fleets, workers(), &off, None);
        reps.push(fleets.iter().zip(&reports).map(|(f, r)| day_run(f, r)).collect());
        Ok(wall_s)
    })?;
    while setups.len() < SETUP_SAMPLES {
        setups.push(calibrate_all(args, &Tracer::new(false), None).0);
    }
    for runs in &reps {
        report.ops(runs.len() as u64, check(args, runs, &reps[0]));
    }
    report.walls = walls;
    report.peak_rss_mb = rss;
    report.setups = setups;
    let first = &reps[0];
    let requests: u64 = first.iter().map(|r| r.counters.requests).sum();
    report.rates.push(Metric::new(
        "sim_mreq_per_s",
        requests as f64 / report.wall_s() / 1e6,
        "Mreq/s",
    ));
    for (d, run) in DAYS.iter().zip(first) {
        report.notes.push(format!(
            "fleet-day {} fingerprint {:#x} counters {:?}",
            d.name, run.print, run.counters
        ));
        report.notes.push(format!(
            "fleet-day {} simulated 24-hour gain {:+.2}% (paper §VI-D web search: {:+.0}%; \
             information only, not gated)",
            d.name,
            run.gain * 100.0,
            PAPER_WEB_SEARCH_GAIN * 100.0
        ));
    }
    if args.trace {
        traced(args, tracer, first, &mut report);
    }
    Ok(report)
}

/// The traced run: calibration and days under spans (which must reproduce
/// the untraced run exactly), then each day again on one worker, whose
/// report must equal the sharded one bit for bit.
fn traced(args: &Args, tracer: &Tracer, untraced: &[DayRun], report: &mut Report) {
    let untraced_wall = report.wall_s();
    let workers = workers();
    let (setup_root, fleets) =
        tracer.span("fleet-day.setup", None, |root| (root, calibrate_all(args, tracer, root).1));
    let (run_root, (wall_s, reports)) =
        tracer.span("fleet-day.run", None, |root| (root, run_all(&fleets, workers, tracer, root)));
    let runs: Vec<DayRun> = fleets.iter().zip(&reports).map(|(f, r)| day_run(f, r)).collect();
    report.ops(runs.len() as u64, check(args, &runs, untraced));
    let (serial_root, (_, serial)) =
        tracer.span("fleet-day.run_1w", None, |root| (root, run_all(&fleets, 1, tracer, root)));
    let mismatched = serial.iter().zip(&reports).filter(|(a, b)| a != b).count();
    report.ops(serial.len() as u64, mismatched as u64);

    for (d, run) in DAYS.iter().zip(&runs) {
        let calibrate_s = tracer
            .total_seconds(&format!("cluster_sim.CaseStudy::fleet_with.{}", d.name), setup_root);
        let run_s = tracer.total_seconds(
            &format!("cluster_sim.Fleet::run_with_workers({workers}).{}", d.name),
            run_root,
        );
        let serial_s = tracer.total_seconds(
            &format!("cluster_sim.Fleet::run_with_workers(1).{}", d.name),
            serial_root,
        );
        let c = run.counters;
        let prefix = format!("cluster_sim.{}", d.name);
        report.layers.push(Metric::new(format!("{prefix}.calibrate_s"), calibrate_s, "s"));
        report.layers.push(Metric::new(format!("{prefix}.run_s"), run_s, "s"));
        let rate = c.requests as f64 / run_s / 1e6;
        report.layers.push(Metric::new(format!("{prefix}.mreq_per_s"), rate, "Mreq/s"));
        report.layers.push(Metric::new(format!("{prefix}.speedup_2w"), serial_s / run_s, "ratio"));
        report.layers.push(Metric::new(format!("{prefix}.requests"), c.requests as f64, "count"));
        let changes = c.mode_changes as f64;
        report.layers.push(Metric::new(format!("{prefix}.mode_changes"), changes, "count"));
        let starved = c.starved_intervals as f64;
        report.layers.push(Metric::new(format!("{prefix}.starved_intervals"), starved, "count"));
    }
    report.layers.push(Metric::new("bench.untraced_wall_s", untraced_wall, "s"));
    report.layers.push(Metric::new("bench.traced_wall_s", wall_s, "s"));
    report.layers.push(Metric::new("bench.trace_overhead_s", wall_s - untraced_wall, "s"));
}
