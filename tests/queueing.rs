//! Property tests for `sim_qos::WorkerPool`, the FCFS k-worker queueing
//! kernel shared by the single-server simulator and the fleet.
//!
//! Arrival gaps and service times are drawn as multiples of 1/8 ms, so
//! every sum, difference and maximum below is exact in `f64` and the
//! oracles can be compared bit for bit.

use proptest::prelude::*;
use stretch_repro::qos::WorkerPool;

/// Arrival times (ms) from gaps of `gaps[i] / 8` ms.
fn arrivals(gaps: &[u32]) -> Vec<f64> {
    let mut now = 0.0;
    gaps.iter()
        .map(|&g| {
            now += f64::from(g) / 8.0;
            now
        })
        .collect()
}

/// Service times (ms) of `units[i] / 8` ms.
fn services(units: &[u32]) -> Vec<f64> {
    units.iter().map(|&u| f64::from(u) / 8.0).collect()
}

/// Completion times of the trace admitted in order to a `k`-worker pool.
fn admit_all(k: usize, arrivals: &[f64], services: &[f64]) -> Vec<f64> {
    let mut pool = WorkerPool::new(k);
    arrivals.iter().zip(services).map(|(&a, &s)| pool.admit(a, s)).collect()
}

/// Requests in service at instant `t` among the first `upto` requests,
/// each occupying its worker over `[start, done)`.
fn in_service(t: f64, starts: &[f64], dones: &[f64], upto: usize) -> usize {
    (0..upto).filter(|&j| starts[j] <= t && t < dones[j]).count()
}

/// The reference pool: the earliest-available scan on every admit and the
/// full backlog scan on every probe, with no watermark short-circuit.
struct ReferencePool {
    avail: Vec<f64>,
}

impl ReferencePool {
    fn admit(&mut self, arrival: f64, service: f64) -> f64 {
        let (idx, &avail) = self
            .avail
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("reference times are not NaN"))
            .expect("at least one worker");
        let done = arrival.max(avail) + service;
        self.avail[idx] = done;
        done
    }

    fn backlog(&self, now: f64) -> f64 {
        self.avail.iter().map(|&avail| (avail - now).max(0.0)).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_worker_matches_the_lindley_recursion(
        gaps in prop::collection::vec(0u32..64, 1..80),
        units in prop::collection::vec(1u32..64, 80..81),
    ) {
        let a = arrivals(&gaps);
        let s = services(&units[..a.len()]);
        let dones = admit_all(1, &a, &s);
        // W[0] = 0; W[n+1] = max(0, W[n] + S[n] - (A[n+1] - A[n])).
        let mut wait = 0.0f64;
        for n in 0..a.len() {
            let sojourn = dones[n] - a[n];
            prop_assert_eq!(sojourn.to_bits(), (wait + s[n]).to_bits(), "request {}", n);
            if n + 1 < a.len() {
                wait = (wait + s[n] - (a[n + 1] - a[n])).max(0.0);
            }
        }
    }

    #[test]
    fn any_pool_is_fcfs_and_work_conserving(
        k in 1usize..9,
        gaps in prop::collection::vec(0u32..24, 1..60),
        units in prop::collection::vec(1u32..96, 60..61),
    ) {
        let a = arrivals(&gaps);
        let s = services(&units[..a.len()]);
        let dones = admit_all(k, &a, &s);
        let starts: Vec<f64> = dones.iter().zip(&s).map(|(d, s)| d - s).collect();

        for n in 0..a.len() {
            prop_assert!(starts[n] >= a[n], "request {} started before it arrived", n);
            // FCFS: starts are non-decreasing in arrival order.
            if n > 0 {
                prop_assert!(starts[n] >= starts[n - 1], "request {} overtook {}", n, n - 1);
            }
            // Never more than k requests in service.
            prop_assert!(in_service(starts[n], &starts, &dones, a.len()) <= k);
            // A request waits only when every worker is busy at its arrival.
            if starts[n] > a[n] {
                prop_assert_eq!(in_service(a[n], &starts, &dones, n), k, "request {} waited", n);
            }
        }

        // Sweep the arrival, start and completion events once, integrating
        // N(t) (requests in the system) and B(t) (requests in service).
        let mut events: Vec<(f64, i64, i64)> = Vec::with_capacity(4 * a.len());
        for n in 0..a.len() {
            events.push((a[n], 1, 0));
            events.push((starts[n], 0, 1));
            events.push((dones[n], -1, -1));
        }
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("event times are not NaN"));
        let (mut in_system, mut busy) = (0i64, 0i64);
        let (mut area_n, mut area_b) = (0.0f64, 0.0f64);
        let mut last = 0.0f64;
        for &(t, dn, db) in &events {
            area_n += in_system as f64 * (t - last);
            area_b += busy as f64 * (t - last);
            in_system += dn;
            busy += db;
            last = t;
        }
        prop_assert_eq!((in_system, busy), (0, 0));
        // Little's law on the finite trace: Σ sojourn = ∫N(t)dt.
        let sojourns: f64 = dones.iter().zip(&a).map(|(d, a)| d - a).sum();
        prop_assert_eq!(sojourns.to_bits(), area_n.to_bits());
        // Work conservation: busy time = Σ service.
        let work: f64 = s.iter().sum();
        prop_assert_eq!(work.to_bits(), area_b.to_bits());
    }

    #[test]
    fn backlog_fast_path_matches_the_full_scan(
        k in 1usize..9,
        ops in prop::collection::vec((0.0f64..1.0, 0.0f64..40.0, 0.0f64..30.0, -30.0f64..60.0), 1..120),
    ) {
        let mut pool = WorkerPool::new(k);
        let mut reference = ReferencePool { avail: vec![0.0; k] };
        let mut now = 0.0f64;
        let mut watermark = 0.0f64;
        for (n, &(kind, gap, service, offset)) in ops.iter().enumerate() {
            if kind < 0.6 {
                now += gap;
                let done = pool.admit(now, service);
                prop_assert_eq!(done.to_bits(), reference.admit(now, service).to_bits(), "admit {}", n);
                watermark = watermark.max(done);
            } else {
                // Probe exactly at the latest completion or on either side.
                let probe = if kind < 0.7 { watermark } else { watermark + offset };
                prop_assert_eq!(
                    pool.backlog(probe).to_bits(),
                    reference.backlog(probe).to_bits(),
                    "probe {} at {} (watermark {})", n, probe, watermark
                );
            }
        }
    }
}
