//! The benchmark's own checks: seeded inputs are reproducible, the
//! statistics and span arithmetic are right on hand-built cases, the
//! sharded and materialized paths agree, the traced replay renders the
//! same report as the measured op, and the metric table matches
//! `BENCHMARK.json`.

use std::path::PathBuf;

use fairem_perfbench::batch::{self, BatchSpec};
use fairem_perfbench::inputs::{citations_csv, scale_csv};
use fairem_perfbench::metrics::{END_TO_END, PER_LAYER};
use fairem_perfbench::servemix::{script, sessions, CYCLE};
use fairem_perfbench::stats::{percentile, tail_level};
use fairem_perfbench::trace::{by_name, coverage_pct, self_times, Span, Tracer, OP};
use fairem_perfbench::{digest, Args};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_seed_gives_identical_csv_and_another_seed_differs() {
    let a = citations_csv(7).expect("citations");
    let b = citations_csv(7).expect("citations");
    let c = citations_csv(8).expect("citations");
    assert_eq!(a, b);
    assert_ne!(a.table_a, c.table_a);
    assert_eq!(a.sensitive, "venue");

    let s1 = scale_csv(7, 64, 4).expect("scale");
    let s2 = scale_csv(7, 64, 4).expect("scale");
    let s3 = scale_csv(8, 64, 4).expect("scale");
    assert_eq!(s1, s2);
    assert_ne!(s1.table_b, s3.table_b);
    assert_eq!(s1.sensitive, "tier");
}

#[test]
fn serve_scripts_are_seeded_with_a_fixed_verb_mix() {
    let defs = sessions(3);
    let a = script(3, 0, 4, &defs);
    assert_eq!(a, script(3, 0, 4, &defs));
    assert_ne!(a, script(4, 0, 4, &sessions(4)));
    assert_ne!(a, script(3, 1, 4, &defs));
    assert_eq!(a.len(), 4 * CYCLE);
    let count = |verb: usize, s: &[fairem_perfbench::servemix::Req]| {
        s.iter().filter(|r| r.verb == verb).count()
    };
    let other = script(99, 1, 4, &sessions(99));
    for verb in 0..8 {
        assert_eq!(count(verb, &a), count(verb, &other), "verb {verb}");
    }
    // Per cycle: ping, open, audit, audit_one, audit_sharded, tune,
    // ensemble, calibrate.
    let per_cycle: Vec<usize> = (0..8).map(|v| count(v, &a) / 4).collect();
    assert_eq!(per_cycle, [1, 3, 2, 4, 3, 4, 4, 2]);
    // Every episode walks the flow: after its open, the fleet audit, two
    // valid_client rounds, and on a materialized session a calibrate.
    let verbs: Vec<usize> = a.iter().map(|r| r.verb).collect();
    for episode in verbs.split(|&v| v == 1).skip(1) {
        let episode = episode.strip_suffix(&[0]).unwrap_or(episode);
        assert!(
            episode == [2, 3, 5, 6, 3, 5, 6, 7] || episode == [4, 4, 4],
            "{episode:?}"
        );
    }
    // Sharded sessions only ever get audits, the verbs they serve.
    for r in &a {
        if defs[r.session].sharded && r.verb != 1 {
            assert!(r.body.starts_with("audit"), "{}", r.body);
        }
    }
}

#[test]
fn command_line_needs_every_flag_and_checks_values() {
    let parse = |v: &[&str]| Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let good = [
        "--workload",
        "serve-mix",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "1",
    ];
    let args = parse(&good).expect("valid command line");
    assert_eq!((args.seed, args.seconds, args.trace), (3, 5, true));
    assert!(parse(&good[..6]).is_err(), "--trace is required");
    for (i, bad) in [(5, "0"), (5, "3601"), (3, "-1"), (7, "2")] {
        let mut argv = good;
        argv[i] = bad;
        assert!(parse(&argv).is_err(), "{argv:?}");
    }
    let mut unknown = good.map(String::from);
    unknown[1] = "nope".to_owned();
    assert!(fairem_perfbench::run(&unknown).is_err());
}

#[test]
fn tail_rule_needs_ten_samples_beyond_the_percentile() {
    assert_eq!(tail_level(10), None);
    assert_eq!(tail_level(20).map(|t| t.label), Some("p50"));
    assert_eq!(tail_level(99).map(|t| t.label), Some("p50"));
    let t = tail_level(100).expect("p90 at 100 samples");
    assert_eq!((t.label, t.beyond), ("p90", 10));
    assert_eq!(tail_level(999).map(|t| t.label), Some("p90"));
    assert_eq!(tail_level(1000).map(|t| t.label), Some("p99"));
    assert_eq!(tail_level(10_000).map(|t| t.label), Some("p99.9"));

    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 900), 90.0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // op [0,100): children a [10,40) and b [30,60) overlap on [30,40);
    // a has a child c [15,25). Union of op's children is [10,60) = 50.
    let spans = vec![
        span(OP, 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        span("c", 15, 25, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    let by = by_name(&spans);
    assert_eq!(by["a"].self_ns, 20);
    assert_eq!(by["a"].total_ns, 30);
    assert!((coverage_pct(&spans) - 50.0).abs() < 1e-9);

    // A child running past its parent only counts inside the parent.
    let spill = vec![span(OP, 0, 10, None), span("x", 5, 20, Some(0))];
    assert_eq!(self_times(&spill), vec![5, 15]);
}

#[test]
fn tracer_nests_spans_and_numbers_ops() {
    let mut tr = Tracer::new();
    for _ in 0..2 {
        tr.enter(OP, |tr| {
            tr.enter("outer", |tr| tr.enter("inner", |_| ()));
        });
    }
    let spans = tr.spans();
    assert_eq!(spans.len(), 6);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!((spans[0].op, spans[3].op), (1, 2));
    assert_eq!(tr.op_ms().len(), 2);
    let mut off = Tracer::disabled();
    off.enter(OP, |tr| tr.enter("x", |_| ()));
    assert!(off.spans().is_empty());
}

#[test]
fn sharded_and_materialized_reports_agree_on_a_tiny_scale_input() {
    let inputs = scale_csv(5, 400, 5).expect("scale");
    let dir = scratch("tiny-shards");
    let sharded = batch::run_op(&inputs, &BatchSpec::scale(), Some(&dir)).expect("sharded op");
    let flat = BatchSpec {
        shards: 1,
        ..BatchSpec::scale()
    };
    let materialized = batch::run_op(&inputs, &flat, None).expect("materialized op");
    let audits = materialized
        .split("\nENSEMBLE FRONTIER")
        .next()
        .expect("report text");
    assert_eq!(digest(audits), digest(&sharded));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_replay_renders_the_measured_report_on_citations() {
    let inputs = citations_csv(11).expect("citations");
    let spec = BatchSpec::citations();
    let measured = batch::run_op(&inputs, &spec, None).expect("op");
    let mut tr = Tracer::new();
    let replay = batch::replay_op(&inputs, &spec, None, &mut tr).expect("replay");
    assert_eq!(digest(&replay.report), digest(&measured));
    assert!(replay.facts.candidates > replay.facts.pairs_kept);
    assert!(coverage_pct(tr.spans()) > 90.0);
    let (observed, pool) = batch::pool_counts(&inputs, &spec, None).expect("observed op");
    assert_eq!(digest(&observed), digest(&measured));
    assert!(pool.regions > 0 && pool.chunks >= pool.regions, "{pool:?}");
}

#[test]
fn traced_replay_renders_the_measured_report_on_a_small_scale_input() {
    let inputs = scale_csv(6, 400, 5).expect("scale");
    let spec = BatchSpec::scale();
    let dir = scratch("replay-scale");
    let measured = batch::run_op(&inputs, &spec, Some(&dir.join("op"))).expect("op");
    let mut tr = Tracer::new();
    let replay =
        batch::replay_op(&inputs, &spec, Some(&dir.join("replay")), &mut tr).expect("replay");
    assert_eq!(digest(&replay.report), digest(&measured));
    assert_eq!(replay.facts.shards, 8);
    assert!(replay.facts.ckpt_bytes > 0);
    let (observed, pool) =
        batch::pool_counts(&inputs, &spec, Some(&dir.join("observed"))).expect("observed op");
    assert_eq!(digest(&observed), digest(&measured));
    assert!(
        pool.chunks > pool.regions,
        "two workers split regions: {pool:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `"name"`/`"unit"` pairs of one array in `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array end");
    let mut out = Vec::new();
    for entry in body[..end].split('{').skip(1) {
        let field = |f: &str| {
            let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value start") + 1;
            let close = rest[open..].find('"').expect("value end") + open;
            rest[open..close].to_owned()
        };
        out.push((field("name"), field("unit")));
    }
    out
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), own(&PER_LAYER));
}
