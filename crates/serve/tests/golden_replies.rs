//! Golden replies: the byte-identity gate for every verb whose reply is
//! computed from confusion counts or score distributions.
//!
//! Each test boots a real server, walks one session through `open`,
//! `audit`, `audit <m>`, `tune_threshold <m>`, `ensemble` and
//! `calibrate <m> platt|isotonic` (a sharded session serves only the
//! audits), and compares the FNV-1a digest and byte length of every
//! reply body with the committed fixture `golden_replies.txt`. A digest
//! computed by the binary under test cannot catch a drift between
//! versions of the code; this fixture can.
//!
//! On a mismatch the test prints the differing bodies and the fixture
//! lines the current code produces, so an intended change of output is
//! re-recorded by pasting those lines into the fixture.

use std::sync::mpsc;
use std::time::Duration;

use fairem_core::fnv1a64;
use fairem_obs::Recorder;
use fairem_par::{Budget, CancelToken, Parallelism};
use fairem_serve::client::Client;
use fairem_serve::server::{serve, ServeConfig};

const FIXTURE: &str = include_str!("golden_replies.txt");

const MATCHERS: [&str; 3] = ["DTMatcher", "RFMatcher", "LinRegMatcher"];

/// The requests replayed on one session, in order.
fn script(open: &str, sharded: bool) -> Vec<String> {
    let mut reqs = vec![open.to_owned(), "audit".to_owned()];
    reqs.extend(MATCHERS.iter().map(|m| format!("audit {m}")));
    if sharded {
        return reqs;
    }
    reqs.extend(MATCHERS.iter().map(|m| format!("tune_threshold {m}")));
    reqs.push("ensemble".to_owned());
    for spec in ["platt", "isotonic"] {
        reqs.extend(MATCHERS.iter().map(|m| format!("calibrate {m} {spec}")));
    }
    reqs
}

/// Replay `script` on a fresh single-worker server and return
/// `(request, body)` pairs.
fn replay(reqs: &[String]) -> Vec<(String, String)> {
    let root = CancelToken::with_budget(Budget::UNLIMITED);
    let (addr_tx, addr_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let server_root = root.clone();
    let cfg = ServeConfig {
        parallelism: Parallelism::Fixed(1),
        ..ServeConfig::default()
    };
    std::thread::spawn(move || {
        let summary = serve(cfg, server_root, Recorder::disabled(), |addr| {
            let _ = addr_tx.send(addr.to_owned());
        });
        let _ = done_tx.send(summary.map(|s| s.drain_clean));
    });
    let addr: String = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server reports its address");
    let mut client = Client::connect(&addr, Duration::from_secs(600)).expect("client connects");
    let replies = reqs
        .iter()
        .map(|r| (r.clone(), client.send(r).expect("reply arrives")))
        .collect();
    drop(client);
    root.cancel();
    let drained = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server drains");
    assert_eq!(drained, Ok(true), "server did not drain cleanly");
    replies
}

/// One fixture line: `<session> | <request>\t<fnv1a64 hex>\t<bytes>`.
fn line(session: &str, req: &str, body: &str) -> String {
    format!(
        "{session} | {req}\t{:016x}\t{}",
        fnv1a64(body.as_bytes()),
        body.len()
    )
}

/// Replay one session and compare every reply with the fixture.
fn check(session: &str, open: &str, sharded: bool) {
    let replies = replay(&script(open, sharded));
    let prefix = format!("{session} | ");
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual: Vec<String> = replies
        .iter()
        .map(|(req, body)| line(session, req, body))
        .collect();
    let mut mismatches = Vec::new();
    for (i, (req, body)) in replies.iter().enumerate() {
        assert!(
            body.starts_with("{\"status\":\"ok\""),
            "{session} | {req} did not succeed: {body}"
        );
        if expected.get(i) != Some(&actual[i].as_str()) {
            mismatches.push(format!(
                "{session} | {req}\n  expected: {}\n  body: {body}",
                expected.get(i).copied().unwrap_or("<missing>")
            ));
        }
    }
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} replies differ from the fixture ({} fixture lines):\n{}\n\
         current fixture lines:\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}

fn open(dataset: &str, seed: u64, shards: usize) -> String {
    let mut req = format!(
        "open dataset={dataset} seed={seed} matchers={}",
        MATCHERS.join(",")
    );
    if shards > 1 {
        req.push_str(&format!(" shards={shards}"));
    }
    req
}

#[test]
fn faculty_seed_5_replies_are_golden() {
    check("faculty/5", &open("faculty", 5, 1), false);
}

#[test]
fn faculty_seed_6_replies_are_golden() {
    check("faculty/6", &open("faculty", 6, 1), false);
}

#[test]
fn noflycompas_seed_5_replies_are_golden() {
    check("noflycompas/5", &open("noflycompas", 5, 1), false);
}

#[test]
fn noflycompas_seed_6_replies_are_golden() {
    check("noflycompas/6", &open("noflycompas", 6, 1), false);
}

#[test]
fn sharded_faculty_audit_replies_are_golden() {
    check("faculty/5/shards=4", &open("faculty", 5, 4), true);
}
