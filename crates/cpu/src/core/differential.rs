//! Differential test of the idle skip: twin cores built from one random
//! configuration, one driven by [`SmtCore::step`] alone and one by
//! [`SmtCore::skip_idle`] plus `step`, must agree bit for bit at the same
//! cycle. After every cycle both twins must also satisfy the conservation
//! invariants the event-driven stages rely on.

use super::*;
use proptest::prelude::*;
use workloads::profile_by_name;

/// Registry profiles the twins draw from: the four latency-sensitive
/// services (front-end bound) and batch co-runners from memory-bound
/// pointer chasers to compute-bound loops.
const PROFILES: [&str; 10] = [
    "web-search",
    "data-serving",
    "web-serving",
    "media-streaming",
    "mcf",
    "lbm",
    "milc",
    "zeusmp",
    "gcc",
    "hmmer",
];

const SHARINGS: [Sharing; 2] = [Sharing::Shared, Sharing::PrivatePerThread];

/// One random core setup plus its run plan.
struct Case {
    width: usize,
    partition: PartitionPolicy,
    fetch_policy: FetchPolicy,
    sharing: [Sharing; 3],
    /// Profile per hardware thread; `None` leaves the thread inactive.
    workloads: Vec<Option<&'static str>>,
    seed: u64,
    /// Cycle at which both twins take a flushing `set_partition`.
    flush_at: u64,
    /// Cycle at which both twins stop.
    end: u64,
}

impl Case {
    fn from_draws(draws: (usize, u8, u8, u32, u8, u64, u64, u64)) -> Case {
        let (width, partition_kind, policy_kind, ratio, sharing_bits, picks, seed, flush) = draws;
        let cfg = CoreConfig::default();
        let mut bits = picks;
        let mut draw = |n: u64| {
            let v = bits % n;
            bits /= n;
            v as usize
        };
        let partition = match partition_kind {
            0 => PartitionPolicy::equal_n(&cfg, width),
            1 => {
                // Uneven static split: each thread 8..=72 ROB entries, scaled
                // down when the total would exceed the ROB.
                let raw: Vec<usize> = (0..width).map(|_| 8 + 8 * draw(9)).collect();
                let total: usize = raw.iter().sum();
                let shares: Vec<usize> =
                    raw.iter()
                        .map(|&r| {
                            if total > cfg.rob_capacity {
                                r * cfg.rob_capacity / total
                            } else {
                                r
                            }
                        })
                        .collect();
                PartitionPolicy::rob_shares(&cfg, &shares)
            }
            _ => PartitionPolicy::Dynamic,
        };
        let fetch_policy = match policy_kind {
            0 => FetchPolicy::ICount,
            1 => FetchPolicy::RoundRobin,
            _ => FetchPolicy::throttled(ThreadId::from_index(draw(width as u64)), ratio),
        };
        let sharing = [0, 1, 2].map(|i| SHARINGS[usize::from(sharing_bits >> i & 1)]);
        let workloads = (0..width)
            .map(|i| {
                // Thread 0 always runs; any other thread sits idle one time in five.
                let idle = i > 0 && draw(5) == 0;
                let name = PROFILES[draw(PROFILES.len() as u64)];
                (!idle).then_some(name)
            })
            .collect();
        let end = 6_000 + flush % 6_000;
        Case {
            width,
            partition,
            fetch_policy,
            sharing,
            workloads,
            seed,
            flush_at: 500 + flush % (end - 1_000),
            end,
        }
    }

    fn build(&self) -> SmtCore {
        let mut builder = SmtCoreBuilder::new(CoreConfig::default())
            .smt_width(self.width)
            .partition(self.partition.clone())
            .fetch_policy(self.fetch_policy)
            .l1i_sharing(self.sharing[0])
            .l1d_sharing(self.sharing[1])
            .bp_sharing(self.sharing[2]);
        for (i, name) in self.workloads.iter().enumerate() {
            if let Some(name) = name {
                let profile = profile_by_name(name).expect("registry profile");
                builder = builder.thread(
                    ThreadId::from_index(i),
                    profile.spawn(self.seed.wrapping_add(i as u64)),
                );
            }
        }
        builder.build()
    }

    /// The partition both twins switch to at `flush_at`: the other of the
    /// equal split and the dynamic pool.
    fn flush_partition(&self) -> PartitionPolicy {
        match self.partition {
            PartitionPolicy::Dynamic => {
                PartitionPolicy::equal_n(&CoreConfig::default(), self.width)
            }
            PartitionPolicy::Static { .. } => PartitionPolicy::Dynamic,
        }
    }
}

/// Asserts the occupancy and bookkeeping invariants of every thread.
fn assert_conserved(core: &SmtCore) {
    let cfg = core.config();
    let mut total_rob = 0;
    let mut total_lsq = 0;
    for (idx, t) in core.threads.iter().enumerate() {
        let thread = ThreadId::from_index(idx);
        let rob = &t.rob;
        assert!(rob.len() <= core.rob_limit(thread), "{thread}: ROB over its limit register");
        assert!(t.lsq_occupancy <= core.lsq_limit(thread), "{thread}: LSQ over its limit register");
        let in_lsq = rob.in_lsq.iter().filter(|&&m| m).count();
        assert_eq!(t.lsq_occupancy, in_lsq, "{thread}: LSQ usage register drifted");
        total_rob += rob.len();
        total_lsq += t.lsq_occupancy;

        let seqs_with = |status: EntryStatus| -> Vec<u64> {
            (0..rob.len())
                .filter(|&i| rob.status[i] == status)
                .map(|i| rob.head_seq + i as u64)
                .collect()
        };
        let queued: Vec<u64> = t.issue_queue.iter().map(|e| e.seq).collect();
        assert_eq!(
            queued,
            seqs_with(EntryStatus::Dispatched),
            "{thread}: issue queue is not the Dispatched entries in age order"
        );
        let mut executing = t.executing.clone();
        executing.sort_unstable();
        assert_eq!(
            executing,
            seqs_with(EntryStatus::Issued),
            "{thread}: executing list is not the Issued entries"
        );
        let earliest = t.executing.iter().map(|&s| rob.completion[rob.pos(s)]).min();
        assert_eq!(t.next_completion, earliest.unwrap_or(Cycle::MAX), "{thread}: stale watermark");

        // At most one mispredicted branch is unresolved, and fetch waits on
        // it, so `complete` never has two candidates for the redirect.
        let unresolved = (0..rob.len())
            .filter(|&i| rob.mispredicted[i] && rob.status[i] != EntryStatus::Completed)
            .map(|i| rob.head_seq + i as u64)
            .chain(t.fetch_buffer.iter().filter(|f| f.mispredicted).map(|f| f.seq));
        for seq in unresolved {
            assert_eq!(t.waiting_branch, Some(seq), "{thread}: unresolved branch not awaited");
        }
    }
    if core.partition.enforce_total_capacity() {
        assert!(total_rob <= cfg.rob_capacity, "ROB over capacity");
        assert!(total_lsq <= cfg.lsq_capacity, "LSQ over capacity");
    }
}

/// Everything a run reports, per thread and for the core.
fn observables(core: &SmtCore) -> impl PartialEq + std::fmt::Debug {
    let threads: Vec<_> = ThreadId::first_n(core.smt_width())
        .map(|t| {
            (
                core.thread_stats(t),
                core.committed(t),
                core.mlp_census(t).clone(),
                core.branch_stats(t),
            )
        })
        .collect();
    (threads, core.memory_stats(), core.cycles(), core.now())
}

/// Steps the reference twin one cycle at a time up to `until`.
fn run_reference(core: &mut SmtCore, until: Cycle) {
    while core.now() < until {
        core.step();
        assert_conserved(core);
    }
}

/// Drives the fast twin up to `until` the way `run_core` does.
fn run_fast(core: &mut SmtCore, until: Cycle) {
    while core.now() < until {
        core.skip_idle(until - core.now() - 1);
        core.step();
        assert_conserved(core);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skip_idle_matches_the_step_reference(
        draws in (
            1usize..5,
            0u8..3,
            0u8..3,
            1u32..5,
            0u8..8,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
    ) {
        let case = Case::from_draws(draws);
        let mut reference = case.build();
        let mut fast = case.build();
        run_reference(&mut reference, case.flush_at);
        run_fast(&mut fast, case.flush_at);
        prop_assert_eq!(observables(&reference), observables(&fast));
        reference.set_partition(case.flush_partition(), true);
        fast.set_partition(case.flush_partition(), true);
        run_reference(&mut reference, case.end);
        run_fast(&mut fast, case.end);
        prop_assert_eq!(observables(&reference), observables(&fast));
        prop_assert_eq!(reference.stepped_cycles(), case.end);
        prop_assert!(fast.stepped_cycles() <= case.end);
    }
}
