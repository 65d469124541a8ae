//! Robustness of the result store's decoders: every `JsonCodec` payload
//! type, fed truncated, field-dropped and type-mutated encodings of real
//! values, decodes to `None` or a value and never panics. A cache entry
//! that went wrong on disk must read as a miss, not crash the binary.

use std::sync::OnceLock;

use cluster_sim::{
    CaseStudy, FleetIntervalReport, FleetReport, FleetScale, LoadBalancer, ServerSummary,
};
use cpu_sim::{Scenario, SimLength, ThreadRunResult};
use proptest::prelude::*;
use serde_json::Value;
use sim_model::ThreadId;
use sim_qos::{latency_vs_load, slack_curve, LoadPoint, ServiceSpec, SimParams, SlackPoint};
use sim_stats::Histogram;
use stretch_bench::{JsonCodec, ServerOutcome, SmtOutcome};

/// Runs every store decoder on `value`; none may panic. Returns which ones
/// accepted it, in the order listed.
fn decode_all(value: &Value) -> Vec<bool> {
    vec![
        SmtOutcome::from_json(value).is_some(),
        ServerOutcome::from_json(value).is_some(),
        Histogram::from_json(value).is_some(),
        ThreadRunResult::from_json(value).is_some(),
        LoadPoint::from_json(value).is_some(),
        SlackPoint::from_json(value).is_some(),
        FleetIntervalReport::from_json(value).is_some(),
        ServerSummary::from_json(value).is_some(),
        FleetReport::from_json(value).is_some(),
        Vec::<LoadPoint>::from_json(value).is_some(),
        Vec::<SlackPoint>::from_json(value).is_some(),
        f64::from_json(value).is_some(),
        usize::from_json(value).is_some(),
        String::from_json(value).is_some(),
    ]
}

/// Encodings of real values, one per payload type, each tagged with the
/// index of its own decoder in [`decode_all`]. The simulations are short,
/// so the corpus builds in well under a second.
fn corpus() -> &'static Vec<(usize, Value)> {
    static CORPUS: OnceLock<Vec<(usize, Value)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let length = SimLength {
            warmup_instructions: 1_000,
            measured_instructions: 4_000,
            max_cycles: 400_000,
        };
        let profile = |name| workloads::profile_by_name(name).expect("built-in profile");
        let pair = Scenario::colocate(profile("web-search"), profile("zeusmp"))
            .length(length)
            .seed(42)
            .run();
        let (ls, batch) =
            (pair.expect_thread(ThreadId::T0).clone(), pair.expect_thread(ThreadId::T1).clone());
        let smt = SmtOutcome {
            names: vec![ls.name.clone(), batch.name.clone()],
            uipcs: vec![ls.uipc, batch.uipc],
        };
        let server = ServerOutcome {
            names: vec![ls.name.clone(), batch.name.clone(), batch.name.clone()],
            cores: vec![vec![0], vec![1, 2]],
            uipcs: vec![ls.uipc, batch.uipc, batch.uipc],
        };
        let params =
            SimParams { requests: 400, warmup_requests: 40, seed: 42, performance_fraction: 1.0 };
        let service = ServiceSpec::web_search();
        let loads = latency_vs_load(&service, params, 0.3, 2);
        let slack = slack_curve(&service, params, &[0.3, 0.9]);
        let fleet = CaseStudy { interval_hours: 4.0, ..CaseStudy::web_search() }.run_fleet(
            LoadBalancer::PowerOfTwoChoices,
            FleetScale { servers: 2, requests_per_server: 20, seed: 42 },
        );
        vec![
            (0, smt.to_json()),
            (1, server.to_json()),
            (2, ls.mlp.to_json()),
            (3, ls.to_json()),
            (4, loads[0].to_json()),
            (5, slack[1].to_json()),
            (6, fleet.intervals[0].to_json()),
            (7, fleet.servers[0].to_json()),
            (8, fleet.to_json()),
            (9, loads.to_json()),
            (10, slack.to_json()),
        ]
    })
}

/// Pre-order indices (the root is 0) of the nodes of a JSON tree that
/// `keep` selects.
fn nodes_where(value: &Value, keep: fn(&Value) -> bool) -> Vec<usize> {
    fn walk(value: &Value, keep: fn(&Value) -> bool, next: &mut usize, out: &mut Vec<usize>) {
        if keep(value) {
            out.push(*next);
        }
        *next += 1;
        match value {
            Value::Array(items) => items.iter().for_each(|v| walk(v, keep, next, out)),
            Value::Object(map) => map.values().for_each(|v| walk(v, keep, next, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(value, keep, &mut 0, &mut out);
    out
}

/// The `n`-th node of a JSON tree in pre-order (the root is node 0).
fn nth_node<'a>(value: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
    if *n == 0 {
        return Some(value);
    }
    *n -= 1;
    match value {
        Value::Array(items) => items.iter_mut().find_map(|v| nth_node(v, n)),
        Value::Object(map) => map.values_mut().find_map(|v| nth_node(v, n)),
        _ => None,
    }
}

/// Values a parsed store entry can hold in place of any field.
fn replacement(pick: u64) -> Value {
    match pick % 8 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::from(-1.0),
        3 => Value::from(2.5),
        4 => Value::from(1.0e300),
        5 => Value::from("x"),
        6 => Value::Array(vec![]),
        _ => Value::Object(serde_json::Map::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_survive_mutated_entries(
        source in 0u64..1_000,
        op in 0u32..4,
        node in 0u64..1_000_000,
        arg in 0u64..1_000_000,
    ) {
        let corpus = corpus();
        let (own, original) = &corpus[source as usize % corpus.len()];
        let mut value = original.clone();
        // Field drops go to objects, truncations to arrays, replacements
        // to any node.
        let keep: fn(&Value) -> bool = match op {
            1 => |v| matches!(v, Value::Object(map) if !map.is_empty()),
            2 => |v| matches!(v, Value::Array(items) if !items.is_empty()),
            _ => |_| true,
        };
        let candidates = nodes_where(&value, keep);
        if candidates.is_empty() {
            return; // e.g. an array truncation of an array-free payload
        }
        let mut n = candidates[node as usize % candidates.len()];
        let target = nth_node(&mut value, &mut n).expect("candidates are tree nodes");
        match op {
            // Truncate the rendered entry at a byte, as a torn write would;
            // whatever still parses goes to the decoders.
            0 => {
                let text = serde_json::to_string(original).expect("rendering is infallible");
                let cut = arg as usize % (text.len() + 1);
                let torn = String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
                if let Ok(parsed) = serde_json::from_str(&torn) {
                    decode_all(&parsed);
                }
                return;
            }
            // Drop one field of an object: every field is required, so the
            // value's own decoder must miss.
            1 => {
                let Value::Object(map) = target else { unreachable!("picked an object") };
                let key = map.keys().nth(arg as usize % map.len()).cloned().expect("non-empty");
                map.remove(&key);
                prop_assert!(!decode_all(&value)[*own], "dropped {key:?} yet decoded: {value:?}");
                return;
            }
            // Truncate an array.
            2 => {
                let Value::Array(items) = target else { unreachable!("picked an array") };
                items.truncate(arg as usize % items.len());
            }
            // Replace a node with a value of some other shape.
            _ => *target = replacement(arg),
        }
        decode_all(&value);
    }
}

#[test]
fn every_real_encoding_decodes_with_its_own_decoder() {
    for (own, value) in corpus() {
        assert!(decode_all(value)[*own], "decoder {own} rejected a real encoding: {value:?}");
    }
}
