//! The storm suite: a live server under mixed concurrent traffic.
//!
//! Each test boots a real server on an ephemeral port, drives it with
//! scripted clients (the same [`fairem_serve::client`] driver check.sh
//! uses), trips the root token, and asserts on both the client-side
//! tallies and the server's drain summary. These are the acceptance
//! tests for the robustness headline: admission control, per-request
//! deadlines, panic isolation, protocol quarantine, graceful drain, and
//! bit-identical replies under concurrency.

use std::sync::mpsc;
use std::time::Duration;

use fairem_csvio::Json;
use fairem_obs::Recorder;
use fairem_par::{Budget, CancelToken, Parallelism};
use fairem_serve::client::{run_storm, Client, StormConfig};
use fairem_serve::server::{serve, ServeConfig, ServeSummary};

/// Boot a server on an ephemeral port; returns its address, the root
/// token to trip, and a receiver for the final summary.
fn boot(cfg: ServeConfig) -> (String, CancelToken, mpsc::Receiver<ServeSummary>) {
    let root = CancelToken::with_budget(Budget::UNLIMITED);
    let (addr_tx, addr_rx) = mpsc::channel();
    let (sum_tx, sum_rx) = mpsc::channel();
    let server_root = root.clone();
    std::thread::spawn(move || {
        let summary = serve(cfg, server_root, Recorder::enabled(), |addr| {
            let _ = addr_tx.send(addr.to_owned());
        })
        .expect("server boots");
        let _ = sum_tx.send(summary);
    });
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server reports its address");
    (addr, root, sum_rx)
}

fn shut_down(root: &CancelToken, sum_rx: &mpsc::Receiver<ServeSummary>) -> ServeSummary {
    root.cancel();
    sum_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server drains and reports")
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        max_inflight: 2,
        request_budget: Budget::wall_ms(300),
        drain_budget: Budget::wall_ms(3_000),
        parallelism: Parallelism::Fixed(2),
        ..ServeConfig::default()
    }
}

#[test]
fn storm_of_mixed_clients_leaves_the_server_standing() {
    let (addr, root, sum_rx) = boot(fast_cfg());
    let report = run_storm(
        &addr,
        &StormConfig {
            clients: 16,
            rounds: 2,
            stall_ms: 1_500, // far past the 300ms request budget
            ..StormConfig::default()
        },
    );

    // Hard-fail signals first: no well-behaved client saw a transport
    // failure, and the byte-identity probe never diverged.
    assert_eq!(report.transport_failures, 0, "{}", report.render());
    assert!(
        report.distinct_probe_bodies <= 1,
        "identical requests must get identical bytes: {}",
        report.render()
    );
    assert_eq!(report.gave_up, 0, "{}", report.render());

    // The storm's mix guarantees each robustness lever fired: slow
    // clients overran the request budget (partial), the synchronized
    // over-capacity burst exceeded max_inflight=2 (busy), and the
    // malformed clients were struck out (error + disconnect).
    assert!(report.partial > 0, "no deadline cuts: {}", report.render());
    assert!(report.busy > 0, "no admission sheds: {}", report.render());
    assert!(
        report.error > 0,
        "no structured errors: {}",
        report.render()
    );
    assert!(
        report.disconnects > 0,
        "no quarantines: {}",
        report.render()
    );

    // The server survived all of it: a fresh client still gets served.
    let mut probe = Client::connect(&addr, Duration::from_secs(5)).expect("post-storm connect");
    assert_eq!(Client::status_of(&probe.hello), "ok");
    let pong = probe.send("ping").expect("post-storm ping");
    assert_eq!(Client::status_of(&pong), "ok");
    drop(probe);

    // And drains cleanly, with a parseable fairem-obs snapshot that
    // recorded the storm.
    let summary = shut_down(&root, &sum_rx);
    assert!(summary.drain_clean, "{}", summary.render());
    assert!(summary.quarantined > 0, "{}", summary.render());
    assert!(summary.partials > 0, "{}", summary.render());
    assert!(summary.shed_requests > 0, "{}", summary.render());
    let snap = Json::parse(&summary.snapshot.to_json()).expect("snapshot is valid JSON");
    assert_eq!(
        snap.get("schema").and_then(|s| s.as_str()),
        Some("fairem-obs/1")
    );
    let counters: Vec<&str> = summary
        .snapshot
        .counters
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    for key in [
        "serve.accepted",
        "serve.requests",
        "serve.shed.requests",
        "serve.errors.protocol",
        "serve.quarantined",
        "serve.partial",
    ] {
        assert!(counters.contains(&key), "missing {key}: {counters:?}");
    }
    assert!(
        summary
            .snapshot
            .histograms
            .iter()
            .any(|(k, h)| k == "serve.request_secs" && h.count > 0),
        "per-request latency histogram missing"
    );
}

#[test]
fn sigint_mid_request_drains_gracefully_with_a_partial_reply() {
    let cfg = ServeConfig {
        request_budget: Budget::wall_ms(60_000), // only the drain cuts it
        drain_budget: Budget::wall_ms(5_000),
        ..ServeConfig::default()
    };
    let (addr, root, sum_rx) = boot(cfg);

    let (reply_tx, reply_rx) = mpsc::channel();
    let stall_addr = addr.clone();
    std::thread::spawn(move || {
        let mut c =
            Client::connect(&stall_addr, Duration::from_secs(30)).expect("stall client connects");
        let _ = reply_tx.send(c.send("stall 60000"));
    });
    // Let the stall request get in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(200));
    let summary = shut_down(&root, &sum_rx);

    // The in-flight request was cut cooperatively — a partial reply,
    // not a dead socket — and the drain finished inside its budget.
    let body = reply_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stall client reports")
        .expect("stall client got a reply, not an io error");
    assert_eq!(Client::status_of(&body), "partial", "{body}");
    assert!(body.contains("interrupt"), "{body}");
    assert!(summary.drain_clean, "{}", summary.render());
    assert_eq!(summary.forced_cuts, 0, "{}", summary.render());
    assert!(summary.drain_secs < 5.0, "{}", summary.render());
    assert_eq!(summary.partials, 1, "{}", summary.render());
}

#[test]
fn connection_cap_sheds_with_a_structured_busy_hello() {
    let cfg = ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    };
    let (addr, root, sum_rx) = boot(cfg);

    let first = Client::connect(&addr, Duration::from_secs(5)).expect("first connect");
    assert_eq!(Client::status_of(&first.hello), "ok");

    // Second connection: shed at the door with a retry hint.
    let second = Client::connect(&addr, Duration::from_secs(5)).expect("second connect");
    assert_eq!(Client::status_of(&second.hello), "busy", "{}", second.hello);
    assert!(
        Client::retry_hint(&second.hello).is_some(),
        "busy hello must carry retry_after_ms: {}",
        second.hello
    );
    drop(second);

    // Slot released on close → a retry gets in.
    drop(first);
    let mut admitted = None;
    for _ in 0..100 {
        let c = Client::connect(&addr, Duration::from_secs(5)).expect("retry connect");
        if Client::status_of(&c.hello) == "ok" {
            admitted = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut c = admitted.expect("slot frees after the first client leaves");
    assert_eq!(Client::status_of(&c.send("ping").expect("ping")), "ok");
    drop(c);

    let summary = shut_down(&root, &sum_rx);
    assert!(summary.shed_connections >= 1, "{}", summary.render());
}

#[test]
fn a_panicked_request_kills_only_its_own_connection() {
    let (addr, root, sum_rx) = boot(ServeConfig::default());

    // Victim opens a session and audits successfully.
    let mut victim = Client::connect(&addr, Duration::from_secs(60)).expect("victim connects");
    let opened = victim.send("open dataset=faculty seed=7").expect("open");
    assert_eq!(Client::status_of(&opened), "ok", "{opened}");
    let before = victim.send("audit DTMatcher").expect("audit before");
    assert_eq!(Client::status_of(&before), "ok", "{before}");

    // Saboteur detonates: structured error naming the containment,
    // then its connection is closed.
    let mut saboteur = Client::connect(&addr, Duration::from_secs(5)).expect("saboteur connects");
    let blast = saboteur.send("boom").expect("panic reply arrives");
    assert_eq!(Client::status_of(&blast), "error", "{blast}");
    assert!(blast.contains("contained"), "{blast}");
    assert!(
        saboteur.read_frame().is_err(),
        "saboteur connection must be closed after the panic"
    );

    // The victim's session and connection are untouched — and the
    // reply is byte-identical to the pre-panic one.
    let after = victim.send("audit DTMatcher").expect("audit after");
    assert_eq!(after, before, "cross-connection interference detected");

    let summary = shut_down(&root, &sum_rx);
    assert_eq!(summary.panics, 1, "{}", summary.render());
}

#[test]
fn three_protocol_strikes_quarantine_the_connection() {
    let (addr, root, sum_rx) = boot(ServeConfig::default());

    let mut peer = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    // Three malformed lines: two framing violations and one well-framed
    // unknown command all count strikes against the same ledger.
    peer.send_raw(b"garbage line\n").expect("raw write");
    let first = peer.read_frame().expect("first strike reply");
    assert_eq!(Client::status_of(&first), "error", "{first}");

    peer.send_raw(b"fairem-serve/1 nan\n").expect("raw write");
    let second = peer.read_frame().expect("second strike reply");
    assert_eq!(Client::status_of(&second), "error", "{second}");

    let third = peer.send("frobnicate the widgets").expect("third strike");
    assert_eq!(Client::status_of(&third), "error", "{third}");
    let bye = peer.read_frame().expect("quarantine bye");
    assert_eq!(Client::status_of(&bye), "bye", "{bye}");
    assert!(bye.contains("quarantined"), "{bye}");
    assert!(peer.read_frame().is_err(), "connection must be closed");

    let summary = shut_down(&root, &sum_rx);
    assert_eq!(summary.quarantined, 1, "{}", summary.render());
    assert_eq!(summary.protocol_errors, 3, "{}", summary.render());
}

#[test]
fn sessions_are_cached_across_connections_and_replies_stay_identical() {
    let (addr, root, sum_rx) = boot(ServeConfig::default());

    let mut a = Client::connect(&addr, Duration::from_secs(60)).expect("a connects");
    let opened_a = a.send("open dataset=faculty seed=7").expect("a opens");
    assert_eq!(Client::status_of(&opened_a), "ok", "{opened_a}");
    assert!(opened_a.contains("\"cached\":false"), "{opened_a}");
    let audit_a = a.send("audit").expect("a audits all");
    assert_eq!(Client::status_of(&audit_a), "ok", "{audit_a}");

    // Second connection, same spec: cache hit, identical audit bytes.
    let mut b = Client::connect(&addr, Duration::from_secs(60)).expect("b connects");
    let opened_b = b.send("open dataset=faculty seed=7").expect("b opens");
    assert!(opened_b.contains("\"cached\":true"), "{opened_b}");
    let audit_b = b.send("audit").expect("b audits all");
    assert_eq!(audit_b, audit_a, "cache hit must serve identical bytes");

    // tune_threshold and ensemble ride the same cached session.
    let tuned = b.send("tune_threshold DTMatcher").expect("tune");
    assert_eq!(Client::status_of(&tuned), "ok", "{tuned}");
    let frontier = b.send("ensemble").expect("ensemble");
    assert_eq!(Client::status_of(&frontier), "ok", "{frontier}");
    assert!(frontier.contains("frontier"), "{frontier}");

    // calibrate fits once, then serves the cached calibrator — the
    // repeat reply (and one from the other connection) must be
    // byte-identical, and the cache counters must show exactly one fit.
    let cal_b = b.send("calibrate DTMatcher").expect("calibrate");
    assert_eq!(Client::status_of(&cal_b), "ok", "{cal_b}");
    assert!(cal_b.contains("ks_raw"), "{cal_b}");
    assert!(cal_b.contains("\"calibration\":\"isotonic:10\""), "{cal_b}");
    let cal_b2 = b.send("calibrate DTMatcher").expect("calibrate again");
    assert_eq!(
        cal_b2, cal_b,
        "cached calibrator must serve identical bytes"
    );
    let cal_a = a.send("calibrate DTMatcher").expect("a calibrates");
    assert_eq!(cal_a, cal_b, "both connections share one cached calibrator");
    let metrics_now = b.send("metrics").expect("metrics");
    assert_eq!(
        metric_counter(&metrics_now, "serve.calib.cache_miss"),
        1.0,
        "{metrics_now}"
    );
    assert_eq!(
        metric_counter(&metrics_now, "serve.calib.cache_hit"),
        2.0,
        "{metrics_now}"
    );

    // Unknown matcher → structured error, session intact.
    let unknown = b.send("audit NopeMatcher").expect("unknown matcher");
    assert_eq!(Client::status_of(&unknown), "error", "{unknown}");
    let again = b.send("audit").expect("audit after error");
    assert_eq!(again, audit_a);

    // metrics reflects server activity.
    let metrics = b.send("metrics").expect("metrics");
    assert_eq!(Client::status_of(&metrics), "ok", "{metrics}");
    assert!(metrics.contains("fairem-obs/1"), "{metrics}");
    assert!(metrics.contains("serve.requests"), "{metrics}");

    let summary = shut_down(&root, &sum_rx);
    assert_eq!(summary.panics, 0, "{}", summary.render());
}

/// Read a counter out of a `metrics` reply body.
fn metric_counter(reply: &str, name: &str) -> f64 {
    let json = Json::parse(reply).expect("metrics reply parses");
    match json
        .get("snapshot")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
    {
        Some(Json::Num(v)) => *v,
        _ => 0.0,
    }
}

#[test]
fn sharded_opens_serve_identical_audits_and_resume_across_restarts() {
    let dir = std::env::temp_dir().join(format!("fairem-storm-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, root, sum_rx) = boot(cfg.clone());

    let mut c = Client::connect(&addr, Duration::from_secs(60)).expect("connects");
    let full = c.send("open dataset=faculty seed=7").expect("open full");
    assert_eq!(Client::status_of(&full), "ok", "{full}");
    let audit_full = c.send("audit").expect("audit full");
    assert_eq!(Client::status_of(&audit_full), "ok", "{audit_full}");

    // Same workload, out-of-core: the audit bytes must not change.
    let sharded = c
        .send("open dataset=faculty seed=7 shards=3")
        .expect("open sharded");
    assert_eq!(Client::status_of(&sharded), "ok", "{sharded}");
    assert!(sharded.contains("\"shards\":3"), "{sharded}");
    assert!(sharded.contains("\"cached\":false"), "{sharded}");
    let audit_sharded = c.send("audit").expect("audit sharded");
    assert_eq!(
        audit_sharded, audit_full,
        "sharded session must serve byte-identical audits"
    );

    // Model-dependent verbs degrade to structured errors, not panics.
    let tuned = c.send("tune_threshold DTMatcher").expect("tune");
    assert_eq!(Client::status_of(&tuned), "error", "{tuned}");
    assert!(tuned.contains("materialized"), "{tuned}");
    let frontier = c.send("ensemble").expect("ensemble");
    assert_eq!(Client::status_of(&frontier), "error", "{frontier}");
    let calibrated = c.send("calibrate DTMatcher").expect("calibrate");
    assert_eq!(Client::status_of(&calibrated), "error", "{calibrated}");
    assert!(calibrated.contains("materialized"), "{calibrated}");

    drop(c);
    let summary = shut_down(&root, &sum_rx);
    assert_eq!(summary.panics, 0, "{}", summary.render());

    // Restart over the same checkpoint root: the rebuild skips every
    // committed shard and still serves the same bytes.
    let (addr, root, sum_rx) = boot(cfg);
    let mut c = Client::connect(&addr, Duration::from_secs(60)).expect("reconnects");
    let reopened = c
        .send("open dataset=faculty seed=7 shards=3")
        .expect("reopen sharded");
    assert_eq!(Client::status_of(&reopened), "ok", "{reopened}");
    assert!(
        reopened.contains("\"cached\":false"),
        "a restarted server has an empty cache: {reopened}"
    );
    let audit_again = c.send("audit").expect("audit after restart");
    assert_eq!(
        audit_again, audit_full,
        "resumed session must serve byte-identical audits"
    );
    let metrics = c.send("metrics").expect("metrics");
    assert_eq!(
        metric_counter(&metrics, "ckpt.shards_skipped"),
        3.0,
        "{metrics}"
    );
    assert_eq!(
        metric_counter(&metrics, "ckpt.shards_written"),
        0.0,
        "{metrics}"
    );
    drop(c);
    let summary = shut_down(&root, &sum_rx);
    assert_eq!(summary.panics, 0, "{}", summary.render());
    let _ = std::fs::remove_dir_all(&dir);
}
