//! The serve-mix workload: two closed-loop clients against an
//! in-process `fairem-serve` on loopback, each sending a fixed seeded
//! mix of requests over three cached sessions.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::mpsc;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::calibrate::{apply_calibrator, distribution_audit};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::report::audit_json;
use fairem_core::threshold::default_grid;
use fairem_core::CalibrationSpec;
use fairem_csvio::Json;
use fairem_obs::Recorder;
use fairem_par::{CancelToken, Parallelism};
use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::SeedableRng;
use fairem_serve::proto::encode_frame;
use fairem_serve::registry::SessionEntry;
use fairem_serve::{
    serve, Client, FrameReader, Reply, Request, ServeConfig, ServeSummary, SessionRegistry,
    SessionSpec, MAGIC,
};

use crate::clock::{ms_since, now_ns, timed};
use crate::digest;
use crate::trace::{Tracer, OP};

/// Request kinds, as grouped for `serve.verb_p50_ms.<verb>`.
pub const VERBS: [&str; 8] = [
    "ping",
    "open",
    "audit",
    "audit_one",
    "audit_sharded",
    "tune_threshold",
    "ensemble",
    "calibrate",
];

const MATCHERS: [&str; 3] = ["DTMatcher", "RFMatcher", "LinRegMatcher"];

/// One of the three sessions every run opens.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDef {
    /// The `open` request that builds or re-attaches it.
    pub open: String,
    /// Out-of-core session (audits only).
    pub sharded: bool,
}

/// `faculty` and `noflycompas` (the paper's demo datasets) plus a
/// four-shard `faculty`, all with the DT/RF/LinReg fleet and the
/// generator seed derived from the run's seed.
pub fn sessions(seed: u64) -> Vec<SessionDef> {
    let s = seed % 1_000_000_007 + 1;
    let fleet = MATCHERS.join(",");
    vec![
        SessionDef {
            open: format!("open dataset=faculty seed={s} matchers={fleet}"),
            sharded: false,
        },
        SessionDef {
            open: format!("open dataset=noflycompas seed={s} matchers={fleet}"),
            sharded: false,
        },
        SessionDef {
            open: format!("open dataset=faculty seed={s} matchers={fleet} shards=4"),
            sharded: true,
        },
    ]
}

/// One scripted request: the session it runs against, its body, and
/// its verb index into [`VERBS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Index into the session list.
    pub session: usize,
    /// Request body.
    pub body: String,
    /// Index into [`VERBS`].
    pub verb: usize,
}

/// Rounds of storm's `valid_client` loop (`audit <m>`,
/// `tune_threshold <m>`, `ensemble`) per episode: its default
/// `StormConfig::rounds`.
const ROUNDS: usize = 2;

/// Requests per script cycle: one `ping`, two materialized episodes of
/// nine requests and a sharded episode of four.
pub const CYCLE: usize = 23;

/// Client `client`'s fixed script of `cycles` × [`CYCLE`] requests.
///
/// An episode walks the demo's flow over one session: import and
/// matcher selection (`open`, a cache-hit re-attach), the fleet audit
/// (`audit`), then [`ROUNDS`] rounds of storm's `valid_client` loop,
/// the repository's model of the interactive user. A sharded session
/// serves only audits, so its rounds keep just the `audit <m>`. Two
/// requests have no source for their share, so it is a choice: one
/// `calibrate <m> platt|isotonic` closing each materialized episode and
/// one `ping` opening each cycle.
///
/// The seed shuffles the episode order and picks the matcher and
/// calibrator each request names; the verb composition of a cycle is
/// fixed.
pub fn script(seed: u64, client: usize, cycles: usize, sessions: &[SessionDef]) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_add((client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let mut out = Vec::with_capacity(cycles * CYCLE);
    for _ in 0..cycles {
        let mut push = |session: usize, body: String, verb: usize| {
            out.push(Req {
                session,
                body,
                verb,
            })
        };
        push(0, "ping".to_owned(), 0);
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        order.shuffle(&mut rng);
        for s in order {
            push(s, sessions[s].open.clone(), 1);
            if sessions[s].sharded {
                push(s, "audit".to_owned(), 4);
                for _ in 0..ROUNDS {
                    push(s, format!("audit {}", MATCHERS.pick(&mut rng)), 4);
                }
                continue;
            }
            push(s, "audit".to_owned(), 2);
            for _ in 0..ROUNDS {
                push(s, format!("audit {}", MATCHERS.pick(&mut rng)), 3);
                push(s, format!("tune_threshold {}", MATCHERS.pick(&mut rng)), 5);
                push(s, "ensemble".to_owned(), 6);
            }
            let spec = ["platt", "isotonic"].pick(&mut rng);
            push(
                s,
                format!("calibrate {} {spec}", MATCHERS.pick(&mut rng)),
                7,
            );
        }
    }
    out
}

/// A running in-process server. Dropping it without [`Server::stop`]
/// (a run that failed mid-way) still drains it and joins its thread.
pub struct Server {
    /// Bound loopback address.
    pub addr: String,
    root: CancelToken,
    handle: Option<std::thread::JoinHandle<Result<ServeSummary, String>>>,
}

impl Server {
    /// Start `fairem-serve --jobs 1` on an ephemeral loopback port.
    pub fn start() -> Result<Server, String> {
        let root = CancelToken::inert();
        let cfg = ServeConfig {
            parallelism: Parallelism::Fixed(1),
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let token = root.clone();
        // fairem: allow(thread) — the in-process server's accept loop runs beside the benchmark's clients
        let handle = std::thread::spawn(move || {
            serve(cfg, token, Recorder::disabled(), |addr| {
                let _ = tx.send(addr.to_owned());
            })
        });
        let Ok(addr) = rx.recv() else {
            let outcome = handle.join();
            return Err(format!("server exited before binding: {outcome:?}"));
        };
        Ok(Server {
            addr,
            root,
            handle: Some(handle),
        })
    }

    /// Connect one client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, std::time::Duration::from_secs(60))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Drain the server and wait for its accept loop to end.
    pub fn stop(mut self) -> Result<ServeSummary, String> {
        self.root.cancel();
        self.handle
            .take()
            .ok_or("server already stopped")?
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.root.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reference reply digests, keyed by `(session, body)`.
pub type References = BTreeMap<(usize, String), u64>;

/// Open every session (building it) and then send every distinct
/// scripted request once, recording each reply's digest. Any reply
/// that is not `ok` is an error. This pass also warms the server's
/// calibrator cache.
pub fn reference_pass(
    server: &Server,
    sessions: &[SessionDef],
    scripts: &[Vec<Req>],
) -> Result<References, String> {
    let mut client = server.connect()?;
    for s in sessions {
        let reply = client.send(&s.open).map_err(|e| e.to_string())?;
        if Client::status_of(&reply) != "ok" {
            return Err(format!("{} failed: {reply}", s.open));
        }
    }
    let mut refs = References::new();
    let mut current = usize::MAX;
    for req in scripts.iter().flatten() {
        let key = (req.session, req.body.clone());
        if refs.contains_key(&key) {
            continue;
        }
        if current != req.session && req.verb != 1 {
            client
                .send(&sessions[req.session].open)
                .map_err(|e| e.to_string())?;
        }
        current = req.session;
        let reply = client.send(&req.body).map_err(|e| e.to_string())?;
        if Client::status_of(&reply) != "ok" {
            return Err(format!("`{}` failed: {reply}", req.body));
        }
        refs.insert(key, digest(&reply));
    }
    Ok(refs)
}

/// What one measured client saw.
#[derive(Debug, Default, Clone)]
pub struct ClientRun {
    /// `(verb, start ns, milliseconds)` per request answered correctly.
    pub times: Vec<(usize, u64, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Transport errors plus replies that differ from the reference.
    pub failed: u64,
    /// Reply body bytes received.
    pub reply_bytes: u64,
}

impl ClientRun {
    /// `n` requests none of which was answered.
    fn all_failed(n: usize) -> ClientRun {
        ClientRun {
            attempted: n as u64,
            failed: n as u64,
            ..ClientRun::default()
        }
    }

    /// Add a later part of the same client's run.
    fn absorb(&mut self, part: ClientRun) {
        self.times.extend(part.times);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.reply_bytes += part.reply_bytes;
    }
}

/// Run part of one client's script closed-loop on its connection.
fn run_part(client: Option<&mut Client>, part: &[Req], refs: &References) -> ClientRun {
    let Some(client) = client else {
        return ClientRun::all_failed(part.len());
    };
    let mut run = ClientRun::default();
    for req in part {
        run.attempted += 1;
        let start = now_ns();
        let reply = client.send(&req.body);
        let ms = ms_since(start);
        match reply {
            Ok(body) if refs.get(&(req.session, req.body.clone())) == Some(&digest(&body)) => {
                run.reply_bytes += body.len() as u64;
                run.times.push((req.verb, start, ms));
            }
            _ => run.failed += 1,
        }
    }
    run
}

/// Run every script at once, one thread and one connection per client,
/// in `slices` consecutive parts: both clients run their share of a
/// slice, then `between` runs while both are idle (also before the
/// first slice). Returns the per-client results and each slice's
/// `(start ns, milliseconds)`.
pub fn run_clients(
    server: &Server,
    scripts: &[Vec<Req>],
    refs: &References,
    slices: usize,
    mut between: impl FnMut(),
) -> (Vec<ClientRun>, Vec<(u64, f64)>) {
    let mut clients: Vec<Option<Client>> = scripts.iter().map(|_| server.connect().ok()).collect();
    let mut runs = vec![ClientRun::default(); scripts.len()];
    let mut spans = Vec::with_capacity(slices);
    between();
    for k in 0..slices {
        let start = now_ns();
        // fairem: allow(thread) — one closed-loop client per thread, joined before the scope ends
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(scripts)
                .map(|(client, script)| {
                    let n = script.len();
                    let part = &script[n * k / slices..n * (k + 1) / slices];
                    (
                        part.len(),
                        scope.spawn(move || run_part(client.as_mut(), part, refs)),
                    )
                })
                .collect();
            // A client that panicked answered none of its part.
            handles
                .into_iter()
                .map(|(n, h)| h.join().unwrap_or_else(|_| ClientRun::all_failed(n)))
                .collect::<Vec<_>>()
        });
        spans.push((start, ms_since(start)));
        between();
        for (run, part) in runs.iter_mut().zip(parts) {
            run.absorb(part);
        }
    }
    (runs, spans)
}

/// The harness-side replay context: its own registry holding the same
/// three sessions the server built.
pub struct ReplayCtx {
    registry: SessionRegistry,
    entries: Vec<std::sync::Arc<SessionEntry>>,
    /// Milliseconds of each cache-missing calibrator fit.
    pub fit_ms: Vec<f64>,
    /// Audit requests replayed.
    pub audits: Cell<u64>,
    /// Audit entries those requests produced.
    pub entries_seen: Cell<u64>,
    /// Ensemble requests replayed.
    pub ensembles: Cell<u64>,
    /// Assignments those requests enumerated.
    pub assignments: Cell<u64>,
}

fn open_spec(body: &str) -> Result<SessionSpec, String> {
    match Request::parse(body)? {
        Request::Open {
            dataset,
            seed,
            matchers,
            threshold,
            shards,
        } => SessionSpec::resolve(&dataset, seed, &matchers, threshold, shards),
        _ => Err(format!("not an open request: {body}")),
    }
}

impl ReplayCtx {
    /// Build the three sessions in a harness-owned registry and fit
    /// (timing each miss) every calibrator the scripts ask for, so the
    /// replay sees the warm caches the measured run saw.
    pub fn build(sessions: &[SessionDef], scripts: &[Vec<Req>]) -> Result<ReplayCtx, String> {
        let registry = SessionRegistry::new(sessions.len() + 1);
        let mut entries = Vec::new();
        for s in sessions {
            let spec = open_spec(&s.open)?;
            let (entry, _) = registry
                .get_or_build(
                    &spec,
                    Parallelism::Fixed(1),
                    &CancelToken::inert(),
                    &Recorder::disabled(),
                )
                .map_err(|e| format!("{e:?}"))?;
            entries.push(entry);
        }
        let mut fit_ms = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for req in scripts.iter().flatten() {
            if let Ok(Request::Calibrate { matcher, spec }) = Request::parse(&req.body) {
                if !seen.insert((req.session, matcher.clone(), spec.label())) {
                    continue;
                }
                let entry = &entries[req.session];
                let session = entry
                    .session
                    .as_full()
                    .ok_or("calibrate on a sharded session")?;
                let groups = session.space.level1_of_attr(0);
                let (cal, ms) = timed(|| {
                    entry.calibrator(session, &matcher, spec, &groups, &Recorder::disabled())
                });
                cal.map_err(|e| e.to_string())?;
                fit_ms.push(ms);
            }
        }
        Ok(ReplayCtx {
            registry,
            entries,
            fit_ms,
            audits: Cell::new(0),
            entries_seen: Cell::new(0),
            ensembles: Cell::new(0),
            assignments: Cell::new(0),
        })
    }

    /// Replay one request through the public calls the server makes,
    /// each in a span, and return the reply body.
    pub fn replay(
        &self,
        body: &str,
        current: &mut usize,
        tr: &mut Tracer,
    ) -> Result<String, String> {
        let op = tr.open(OP);
        let parsed = tr.enter("serve.frame", |_| {
            let mut reader = FrameReader::new();
            reader.feed(&encode_frame(body));
            let body = reader
                .next_frame()
                .map_err(|e| e.to_string())?
                .ok_or("incomplete frame")?;
            Request::parse(&body)
        })?;
        let auditor = Auditor::new(AuditConfig::default());
        let token = CancelToken::inert();
        let entry = |i: usize| self.entries.get(i).ok_or("no open session".to_owned());
        let reply = match parsed {
            Request::Ping => tr.enter("serve.reply", |_| {
                Reply::ok(Json::obj([("proto", Json::Str(MAGIC.into()))])).body
            }),
            Request::Open {
                dataset,
                seed,
                matchers,
                threshold,
                shards,
            } => {
                let (e, cached) = tr.enter("serve.open", |_| {
                    let spec = SessionSpec::resolve(&dataset, seed, &matchers, threshold, shards)?;
                    self.registry
                        .get_or_build(&spec, Parallelism::Fixed(1), &token, &Recorder::disabled())
                        .map_err(|e| format!("{e:?}"))
                })?;
                *current = self
                    .entries
                    .iter()
                    .position(|x| std::sync::Arc::ptr_eq(x, &e))
                    .ok_or("open resolved to an unknown session")?;
                tr.enter("serve.reply", |_| {
                    let names: Vec<Json> = e
                        .session
                        .matcher_names()
                        .iter()
                        .map(|n| Json::Str((*n).to_owned()))
                        .collect();
                    Reply::ok(Json::obj([
                        ("key", Json::Str(e.key.clone())),
                        ("cached", Json::Bool(cached)),
                        ("matchers", Json::Arr(names)),
                        ("pairs", Json::Num(e.session.test_size() as f64)),
                        ("degraded", Json::Bool(e.session.is_degraded())),
                        ("shards", Json::Num(shards.max(1) as f64)),
                    ]))
                    .body
                })
            }
            Request::Audit(None) => {
                let e = entry(*current)?;
                let (reports, _) = tr.enter("audit", |_| {
                    e.session.try_audit_all_within(&auditor, &token)
                });
                self.count_audit(reports.iter().map(|r| r.entries.len()).sum());
                tr.enter("serve.reply", |_| {
                    Reply::ok(Json::obj([(
                        "reports",
                        Json::Arr(reports.iter().map(audit_json).collect()),
                    )]))
                    .body
                })
            }
            Request::Audit(Some(m)) => {
                let e = entry(*current)?;
                let report = tr
                    .enter("audit", |_| e.session.audit(&m, &auditor))
                    .map_err(|e| e.to_string())?;
                self.count_audit(report.entries.len());
                tr.enter("serve.reply", |_| {
                    Reply::ok(Json::obj([(
                        "reports",
                        Json::Arr(vec![audit_json(&report)]),
                    )]))
                    .body
                })
            }
            Request::TuneThreshold(m) => {
                let e = entry(*current)?;
                let session = e.session.as_full().ok_or("tune on a sharded session")?;
                let t = tr
                    .enter("matcher.tune", |_| session.tune_threshold(&m))
                    .map_err(|e| e.to_string())?;
                tr.enter("serve.reply", |_| {
                    Reply::ok(Json::obj([
                        ("matcher", Json::Str(m.clone())),
                        ("threshold", Json::Num(t)),
                    ]))
                    .body
                })
            }
            Request::Ensemble => {
                let e = entry(*current)?;
                let session = e.session.as_full().ok_or("ensemble on a sharded session")?;
                let (points, assignments) = tr.enter("ensemble", |_| {
                    let explorer = session
                        .ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
                        .with_cancel(token.clone());
                    let assignments =
                        (explorer.matchers().len() as u64).pow(explorer.groups().len() as u32);
                    (explorer.try_pareto_frontier().0, assignments)
                });
                self.ensembles.set(self.ensembles.get() + 1);
                self.assignments.set(self.assignments.get() + assignments);
                tr.enter("serve.reply", |_| {
                    let frontier: Vec<Json> = points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                (
                                    "assignment",
                                    Json::Arr(
                                        p.assignment.iter().map(|&i| Json::Num(i as f64)).collect(),
                                    ),
                                ),
                                ("performance", Json::Num(p.performance)),
                                ("unfairness", Json::Num(p.unfairness)),
                            ])
                        })
                        .collect();
                    Reply::ok(Json::obj([("frontier", Json::Arr(frontier))])).body
                })
            }
            Request::Calibrate { matcher, spec } => self.calibrate(*current, &matcher, spec, tr)?,
            other => return Err(format!("request outside the mix: {other:?}")),
        };
        tr.enter("serve.reply", |_| {
            std::hint::black_box(encode_frame(&reply)).len()
        });
        tr.close(op);
        Ok(reply)
    }

    fn count_audit(&self, entries: usize) {
        self.audits.set(self.audits.get() + 1);
        self.entries_seen
            .set(self.entries_seen.get() + entries as u64);
    }

    fn calibrate(
        &self,
        current: usize,
        matcher: &str,
        spec: CalibrationSpec,
        tr: &mut Tracer,
    ) -> Result<String, String> {
        let e = self.entries.get(current).ok_or("no open session")?;
        let session = e
            .session
            .as_full()
            .ok_or("calibrate on a sharded session")?;
        let groups = session.space.level1_of_attr(0);
        let cal = tr
            .enter("calib.cache", |_| {
                e.calibrator(session, matcher, spec, &groups, &Recorder::disabled())
            })
            .map_err(|e| e.to_string())?;
        let (before, after) = tr.enter("calib.distribution", |_| {
            let w = session.workload(matcher).map_err(|e| e.to_string())?;
            let grid = default_grid();
            let measures = FairnessMeasure::PAPER_FIVE;
            let before = distribution_audit(
                &w,
                &session.space,
                &groups,
                &measures,
                Disparity::Subtraction,
                &grid,
            );
            let cw = apply_calibrator(&cal, &w, &groups);
            let after = distribution_audit(
                &cw,
                &session.space,
                &groups,
                &measures,
                Disparity::Subtraction,
                &grid,
            );
            Ok::<_, String>((before, after))
        })?;
        Ok(tr.enter("serve.reply", |_| {
            Reply::ok(Json::obj([
                ("matcher", Json::Str(matcher.to_owned())),
                ("calibration", Json::Str(spec.label())),
                ("groups_fitted", Json::Num(cal.groups_fitted() as f64)),
                ("fallbacks", Json::Num(cal.fallbacks() as f64)),
                ("ks_raw", Json::Num(before.max_ks())),
                ("ks_calibrated", Json::Num(after.max_ks())),
                ("w1_raw", Json::Num(before.max_wasserstein())),
                ("w1_calibrated", Json::Num(after.max_wasserstein())),
            ]))
            .body
        }))
    }
}
