//! The benchmark's exact counts — wire bytes, messages, FLOPs, plan
//! volumes and steady-state comm-path allocations per step — must repeat
//! bit for bit across runs of a workload and equal the values recorded in
//! `exact_counts.json` (seed 1). A change that moves one of them changes
//! the traffic or the arithmetic of training, and must say so.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use pargcn_benchmark::trace::Tracer;
use pargcn_benchmark::workload::Workload;
use pargcn_benchmark::{measure, Opts};
use pargcn_util::allocmeter::CountingAllocator;
use pargcn_util::json::{self, Json};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SEED: u64 = 1;

const EXACT: [&str; 10] = [
    "wire_mib_per_step",
    "msgs_per_step",
    "comm.p2p_bytes_per_step",
    "comm.p2p_msgs_per_step",
    "comm.coll_bytes_per_step",
    "comm.coll_msgs_per_step",
    "comm.allocs_per_step",
    "matrix.flops_per_step",
    "partition.volume_rows",
    "minibatch.volume_rows_per_batch",
];

/// One short traced run of `name`; its exact counts.
fn counts(name: &str) -> Vec<(&'static str, f64)> {
    let o = Opts {
        workload: Workload::by_name(name).expect("known workload"),
        seed: SEED,
        seconds: 0.3,
        traced: true,
        trace_out: None,
        git: "test".into(),
        rustc: "test".into(),
    };
    let out = measure(&o, &mut Tracer::new(true));
    assert!(
        out.problems.is_empty(),
        "{name}: checks failed: {:?}",
        out.problems
    );
    EXACT
        .iter()
        .map(|&m| {
            (
                m,
                out.get(m)
                    .unwrap_or_else(|| panic!("{name}: {m} not measured")),
            )
        })
        .collect()
}

fn check(name: &str) {
    let first = counts(name);
    let second = counts(name);
    assert_eq!(
        first, second,
        "{name}: exact counts differ between two runs"
    );
    let measured = Json::obj(first.iter().map(|&(m, v)| (m, Json::Num(v))).collect());
    let record =
        json::parse(include_str!("../exact_counts.json")).expect("exact_counts.json parses");
    let recorded = record.get(name).unwrap_or_else(|| {
        panic!(
            "{name} not recorded; measured {}",
            measured.to_string_compact()
        )
    });
    for (m, v) in &first {
        assert_eq!(
            recorded.get(m).and_then(Json::as_f64),
            Some(*v),
            "{name}: {m} differs from exact_counts.json; measured {}",
            measured.to_string_compact()
        );
    }
}

#[test]
fn fb_reddit_p2() {
    check("fb-reddit-p2");
}

#[test]
fn fb_road_p2() {
    check("fb-road-p2");
}

#[test]
fn mb_amazon_p2() {
    check("mb-amazon-p2");
}

#[test]
fn fb_reddit_p1t2() {
    check("fb-reddit-p1t2");
}
