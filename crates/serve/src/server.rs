//! The bounded accept/worker server.
//!
//! One nonblocking accept loop plus one thread per admitted connection.
//! Robustness properties, in the order they bite:
//!
//! - **Admission control.** A fixed connection cap (checked at accept)
//!   and a fixed in-flight request cap (checked at dispatch). Over
//!   capacity, the peer gets a structured `busy` reply with a
//!   `retry_after_ms` hint — never a hang, never a silent drop.
//! - **Per-request deadlines.** Every admitted request runs under a
//!   fresh child of the server root token carrying the request budget;
//!   expiry surfaces as a `partial` reply at the next checkpoint,
//!   exactly like the CLI's exit-4 path.
//! - **Panic isolation.** Dispatch runs inside [`fairem_par::contain`];
//!   a poisoned request produces an `error` reply and closes only that
//!   connection. The process and every other session survive.
//! - **Malformed-frame quarantine.** Framing violations earn structured
//!   `error` replies and strikes; [`crate::proto::MAX_STRIKES`] strikes
//!   disconnect the peer, mirroring the importer's bounded row
//!   quarantine.
//! - **Graceful drain.** When the root token trips (SIGINT), the
//!   listener stops accepting, idle connections get a `bye`, in-flight
//!   requests are cut cooperatively through their child tokens, and
//!   stragglers are severed when the drain budget expires. The final
//!   fairem-obs snapshot rides out in the [`ServeSummary`].

use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairem_obs::{Recorder, Snapshot};
use fairem_par::{contain, Budget, CancelToken, Parallelism};

use crate::dispatch::{dispatch, ConnCtx, Reply, ReplyClass};
use crate::proto::{write_frame, FrameReader, Request, MAX_STRIKES};
use crate::registry::SessionRegistry;

/// How long a blocking read waits before the connection loop re-checks
/// the root token. Bounds drain latency for idle connections.
const READ_TICK: Duration = Duration::from_millis(25);

/// A peer holding a partial frame open longer than this without sending
/// a byte is a stalled writer — each window costs a strike.
const FRAME_STALL: Duration = Duration::from_secs(10);

/// Server knobs. `Default` is tuned for tests (ephemeral port, small
/// caps); the CLI overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Connection cap (the `--max-sessions` knob).
    pub max_sessions: usize,
    /// Concurrent in-flight request cap across all connections.
    pub max_inflight: usize,
    /// Session-cache capacity (distinct `open` specs resident at once).
    pub max_cached: usize,
    /// Per-request budget (the `--request-timeout` knob).
    pub request_budget: Budget,
    /// Drain window after the root token trips.
    pub drain_budget: Budget,
    /// Worker-pool policy for request execution.
    pub parallelism: Parallelism,
    /// Checkpoint root for sharded session builds (`open … shards=n`).
    /// When set, a server killed or drained mid-build resumes completed
    /// shards after restart; when `None`, sharded builds run
    /// checkpoint-free.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_sessions: 64,
            max_inflight: 8,
            max_cached: 16,
            request_budget: Budget::UNLIMITED,
            drain_budget: Budget::wall_ms(5_000),
            parallelism: Parallelism::Auto,
            checkpoint_dir: None,
        }
    }
}

impl ServeConfig {
    /// The `retry_after_ms` hint attached to `busy` replies: a quarter
    /// of the request budget, clamped to [10ms, 1s]; 50ms when
    /// unlimited.
    fn retry_hint_ms(&self) -> u64 {
        match self.request_budget.wall {
            Some(wall) => (wall.as_millis() as u64 / 4).clamp(10, 1_000),
            None => 50,
        }
    }
}

/// Monotonic server counters, mirrored into the recorder as `serve.*`.
#[derive(Debug, Default)]
pub struct Stats {
    accepted: AtomicU64,
    shed_connections: AtomicU64,
    requests: AtomicU64,
    shed_requests: AtomicU64,
    partials: AtomicU64,
    protocol_errors: AtomicU64,
    quarantined: AtomicU64,
    panics: AtomicU64,
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
pub struct Shared {
    /// The bounded session cache.
    pub registry: SessionRegistry,
    /// Server-lifetime recorder (disabled unless metrics were asked
    /// for; the disabled handle is bit-for-bit inert).
    pub recorder: Recorder,
    /// Worker-pool policy handed to session builds.
    pub parallelism: Parallelism,
    cfg: ServeConfig,
    root: CancelToken,
    conns: AtomicUsize,
    inflight: AtomicUsize,
    stats: Stats,
}

impl Shared {
    fn new(cfg: ServeConfig, root: CancelToken, recorder: Recorder) -> Shared {
        Shared {
            registry: SessionRegistry::new(cfg.max_cached)
                .with_checkpoint_dir(cfg.checkpoint_dir.clone()),
            recorder,
            parallelism: cfg.parallelism,
            cfg,
            root,
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            stats: Stats::default(),
        }
    }

    fn bump(&self, counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        // fairem: allow(metrics_registry) — forwarding helper; the lint checks the literal at every bump() call site
        self.recorder.incr(name);
    }

    /// Try to take a slot from `cell`, bounded by `cap`. Never blocks.
    fn acquire(cell: &AtomicUsize, cap: usize) -> bool {
        cell.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok()
    }
}

/// Outcome of a completed [`serve`] run.
#[derive(Debug)]
pub struct ServeSummary {
    /// The address actually bound (resolves port 0).
    pub addr: String,
    /// Connections admitted.
    pub accepted: u64,
    /// Connections shed at accept (connection cap).
    pub shed_connections: u64,
    /// Requests admitted past the in-flight gate.
    pub requests: u64,
    /// Requests shed by the in-flight gate.
    pub shed_requests: u64,
    /// Requests cut by a deadline (partial replies).
    pub partials: u64,
    /// Framing/grammar violations (each cost a strike).
    pub protocol_errors: u64,
    /// Connections disconnected after [`MAX_STRIKES`] strikes.
    pub quarantined: u64,
    /// Requests that panicked (contained; connection closed).
    pub panics: u64,
    /// Wall time the drain took.
    pub drain_secs: f64,
    /// Did every connection wind down inside the drain budget?
    pub drain_clean: bool,
    /// Connections severed when the drain budget expired.
    pub forced_cuts: u64,
    /// Final observability snapshot (empty if the recorder was
    /// disabled).
    pub snapshot: Snapshot,
}

impl ServeSummary {
    /// Human-readable shutdown report for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fairem-serve drained ({})\n", self.addr));
        out.push_str(&format!(
            "  connections : {} accepted, {} shed\n",
            self.accepted, self.shed_connections
        ));
        out.push_str(&format!(
            "  requests    : {} served, {} shed, {} partial\n",
            self.requests, self.shed_requests, self.partials
        ));
        out.push_str(&format!(
            "  quarantine  : {} protocol errors, {} disconnects, {} panics\n",
            self.protocol_errors, self.quarantined, self.panics
        ));
        out.push_str(&format!(
            "  drain       : {:.3}s, {}\n",
            self.drain_secs,
            if self.drain_clean {
                "clean".to_owned()
            } else {
                format!("{} forced cut(s)", self.forced_cuts)
            }
        ));
        out
    }
}

/// One admitted connection, tracked by the accept loop for drain.
struct ConnHandle {
    stream: Option<TcpStream>,
    done: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Run the server until `root` trips, then drain and report.
///
/// `on_ready` fires once with the bound address (after port 0
/// resolution) — scripted callers parse it to find the port.
pub fn serve(
    cfg: ServeConfig,
    root: CancelToken,
    recorder: Recorder,
    on_ready: impl FnOnce(&str),
) -> Result<ServeSummary, String> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| format!("bind {} failed: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking failed: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?
        .to_string();
    on_ready(&addr);

    let shared = Arc::new(Shared::new(cfg, root, recorder));
    let hint = shared.cfg.retry_hint_ms();
    let mut conns: Vec<ConnHandle> = Vec::new();

    while !shared.root.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if Shared::acquire(&shared.conns, shared.cfg.max_sessions) {
                    shared.bump(&shared.stats.accepted, "serve.accepted");
                    conns.push(spawn_conn(stream, Arc::clone(&shared)));
                } else {
                    // Shed at the door: busy hello, then close.
                    shared.bump(&shared.stats.shed_connections, "serve.shed.connections");
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = write_frame(&mut stream, &Reply::busy("connections", hint).body);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                reap(&mut conns);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener); // stop accepting before the drain begins

    // Drain: connections notice the tripped root at their next read
    // tick; in-flight requests are cut through their child tokens. The
    // drain budget bounds how long we wait before severing stragglers.
    let drain_start = Instant::now();
    let drain_token = CancelToken::with_budget(shared.cfg.drain_budget);
    while !conns.is_empty() && drain_token.checkpoint().is_ok() {
        reap(&mut conns);
        std::thread::sleep(Duration::from_millis(5));
    }
    reap(&mut conns);
    let forced = conns.len() as u64;
    for c in &conns {
        if let Some(stream) = &c.stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    // Severed threads unwind promptly off the dead socket; give them a
    // short grace window, then detach whatever is left.
    let grace = Instant::now();
    while !conns.is_empty() && grace.elapsed() < Duration::from_millis(500) {
        reap(&mut conns);
        std::thread::sleep(Duration::from_millis(5));
    }
    let drain_secs = drain_start.elapsed().as_secs_f64();
    shared.recorder.observe("serve.drain_secs", drain_secs);
    shared
        .recorder
        .add("serve.drain.forced_cuts", forced);

    let s = &shared.stats;
    Ok(ServeSummary {
        addr,
        accepted: s.accepted.load(Ordering::Relaxed),
        shed_connections: s.shed_connections.load(Ordering::Relaxed),
        requests: s.requests.load(Ordering::Relaxed),
        shed_requests: s.shed_requests.load(Ordering::Relaxed),
        partials: s.partials.load(Ordering::Relaxed),
        protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        quarantined: s.quarantined.load(Ordering::Relaxed),
        panics: s.panics.load(Ordering::Relaxed),
        drain_secs,
        drain_clean: forced == 0,
        forced_cuts: forced,
        snapshot: shared.recorder.snapshot(),
    })
}

/// Join finished connection threads and drop their handles.
fn reap(conns: &mut Vec<ConnHandle>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].done.load(Ordering::Acquire) {
            let c = conns.swap_remove(i);
            let _ = c.handle.join();
        } else {
            i += 1;
        }
    }
}

fn spawn_conn(stream: TcpStream, shared: Arc<Shared>) -> ConnHandle {
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let peer = stream.try_clone().ok();
    let thread = std::thread::Builder::new()
        .name("fairem-serve-conn".to_owned())
        .spawn(move || {
            // The whole connection runs inside a containment guard:
            // even a bug in the loop itself (not just in dispatch)
            // cannot take down the accept loop.
            let _ = contain(|| handle_conn(stream, &shared));
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            done_flag.store(true, Ordering::Release);
        });
    match thread {
        Ok(handle) => ConnHandle {
            stream: peer,
            done,
            handle,
        },
        Err(_) => {
            // Spawn failure: release the slot and fabricate a finished
            // handle via a trivial thread (spawning one more thread
            // after a failed spawn is best-effort by construction).
            done.store(true, Ordering::Release);
            ConnHandle {
                stream: peer,
                done: Arc::clone(&done),
                handle: std::thread::spawn(|| {}),
            }
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    if write_frame(
        &mut stream,
        &Reply::ok(fairem_csvio::Json::obj([(
            "proto",
            fairem_csvio::Json::Str(crate::proto::MAGIC.to_owned()),
        )]))
        .body,
    )
    .is_err()
    {
        return;
    }

    let mut conn = ConnCtx::default();
    let mut reader = FrameReader::new();
    let mut strikes: u32 = 0;
    let mut last_progress = Instant::now();
    let mut buf = [0u8; 4096];

    loop {
        // Serve every fully buffered frame before touching the socket.
        let mut disconnect = false;
        loop {
            match reader.next_frame() {
                Ok(Some(body)) => {
                    last_progress = Instant::now();
                    let reply = handle_body(&body, &mut conn, shared);
                    let cut = send_reply(&mut stream, shared, &mut strikes, reply);
                    if cut {
                        disconnect = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(proto_err) => {
                    let reply = Reply::error(proto_err.to_string()).with_strike();
                    if send_reply(&mut stream, shared, &mut strikes, reply) {
                        disconnect = true;
                        break;
                    }
                }
            }
        }
        if disconnect {
            break;
        }
        if shared.root.is_cancelled() {
            let _ = write_frame(&mut stream, &Reply::bye("draining").body);
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                reader.feed(&buf[..n]);
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if reader.has_partial() && last_progress.elapsed() > FRAME_STALL {
                    last_progress = Instant::now();
                    let reply =
                        Reply::error("frame stalled: header/body incomplete").with_strike();
                    if send_reply(&mut stream, shared, &mut strikes, reply) {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Write `reply`, applying strike/quarantine and disconnect semantics.
/// Returns true when the connection must close.
fn send_reply(
    stream: &mut TcpStream,
    shared: &Shared,
    strikes: &mut u32,
    reply: Reply,
) -> bool {
    let mut quarantine = false;
    if reply.strike {
        shared.bump(&shared.stats.protocol_errors, "serve.errors.protocol");
        *strikes += 1;
        if *strikes >= MAX_STRIKES {
            shared.bump(&shared.stats.quarantined, "serve.quarantined");
            quarantine = true;
        }
    }
    if reply.class == ReplyClass::Partial {
        shared.bump(&shared.stats.partials, "serve.partial");
    }
    if write_frame(stream, &reply.body).is_err() {
        return true;
    }
    if quarantine {
        // The error reply above carried the detail; this closes the
        // book on the connection, mirroring row-quarantine semantics.
        let _ = write_frame(
            stream,
            &Reply::bye("quarantined: too many protocol errors").body,
        );
        return true;
    }
    reply.disconnect
}

/// Parse and serve one frame body.
fn handle_body(body: &str, conn: &mut ConnCtx, shared: &Shared) -> Reply {
    let req = match Request::parse(body) {
        Ok(r) => r,
        Err(detail) => return Reply::error(detail).with_strike(),
    };
    // Liveness and goodbyes bypass admission: health checks must
    // succeed under full load, and `close` must always work.
    if matches!(req, Request::Ping | Request::Close) {
        let mut throwaway = ConnCtx::default();
        return dispatch(req, &mut throwaway, shared, &shared.root);
    }
    if !Shared::acquire(&shared.inflight, shared.cfg.max_inflight) {
        shared.bump(&shared.stats.shed_requests, "serve.shed.requests");
        return Reply::busy("requests", shared.cfg.retry_hint_ms());
    }
    shared.bump(&shared.stats.requests, "serve.requests");
    let token = shared.root.child(shared.cfg.request_budget);
    let outcome = shared
        .recorder
        .time("serve.request_secs", || {
            contain(|| dispatch(req, conn, shared, &token))
        });
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    match outcome {
        Ok(reply) => reply,
        Err(panic_msg) => {
            shared.bump(&shared.stats.panics, "serve.panics");
            Reply::error(format!("request panicked (contained): {panic_msg}"))
                .with_disconnect()
        }
    }
}
