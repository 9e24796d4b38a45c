//! Scripted client and the storm driver.
//!
//! [`Client`] is a minimal blocking peer for the `fairem-serve/1`
//! protocol — the CLI's `fairem client` subcommand and every test in
//! this crate speak through it. [`run_storm`] drives a mixed fleet of
//! valid, malformed, slow, and over-capacity clients against a live
//! server and scores what comes back; check.sh and the storm tests
//! assert on its [`StormReport`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use fairem_csvio::Json;
use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

use crate::proto::{write_frame, FrameReader};

/// Ceiling on any single busy-retry sleep.
const MAX_BACKOFF_MS: u64 = 1_000;

/// Backoff for retry `attempt` (0-based): exponential growth from the
/// server's `retry_after_ms` hint, capped at [`MAX_BACKOFF_MS`], with
/// full jitter drawn from the client's own seeded RNG. The jitter is
/// what breaks up a thundering herd — a flat sleep re-synchronizes
/// every shed client onto the same retry instant, re-creating the
/// burst the server just shed.
fn backoff_ms(attempt: usize, hint_ms: u64, rng: &mut StdRng) -> u64 {
    let base = hint_ms.clamp(1, MAX_BACKOFF_MS);
    let cap = base
        .saturating_mul(1u64 << attempt.min(10) as u32)
        .min(MAX_BACKOFF_MS);
    rng.gen_range(base..=cap.max(base))
}

/// A per-client RNG decorrelated from its siblings: storms stay
/// reproducible for a given [`StormConfig::seed`] while no two clients
/// share a jitter sequence.
fn client_rng(seed: u64, client: usize) -> StdRng {
    let mut z = seed.wrapping_add((client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A blocking scripted client over one connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    /// The hello frame the server sent on accept.
    pub hello: String,
}

impl Client {
    /// Connect and read the hello frame. A `busy` hello is returned as
    /// a normal [`Client`] — callers inspect [`Client::hello`] (the
    /// server has already closed its side).
    pub fn connect(addr: &str, reply_timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(reply_timeout))?;
        stream.set_write_timeout(Some(reply_timeout))?;
        let mut client = Client {
            stream,
            reader: FrameReader::new(),
            hello: String::new(),
        };
        client.hello = client.read_frame()?;
        Ok(client)
    }

    /// Send one command frame and read one reply frame.
    pub fn send(&mut self, cmd: &str) -> std::io::Result<String> {
        write_frame(&mut self.stream, cmd)?;
        self.read_frame()
    }

    /// Write raw bytes (not a valid frame) — the malformed-client lever.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Read the next frame, honoring the connect-time reply timeout.
    pub fn read_frame(&mut self) -> std::io::Result<String> {
        let mut buf = [0u8; 4096];
        loop {
            match self.reader.next_frame() {
                Ok(Some(body)) => return Ok(body),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.reader.feed(&buf[..n]),
                Err(e) => return Err(e),
            }
        }
    }

    /// The `status` field of a reply body ("ok", "busy", …); "?" when
    /// the body is not a JSON object.
    pub fn status_of(body: &str) -> String {
        Json::parse(body)
            .ok()
            .and_then(|j| j.get("status").and_then(|s| s.as_str().map(str::to_owned)))
            .unwrap_or_else(|| "?".to_owned())
    }

    /// The `retry_after_ms` hint of a busy reply, if present.
    pub fn retry_hint(body: &str) -> Option<u64> {
        Json::parse(body)
            .ok()
            .and_then(|j| j.get("retry_after_ms").and_then(Json::as_num))
            .map(|n| n as u64)
    }
}

/// Storm shape knobs.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Total concurrent clients (roles are dealt round-robin).
    pub clients: usize,
    /// Valid-role request rounds per client.
    pub rounds: usize,
    /// How long slow clients ask the server to stall — set it above the
    /// server's request budget to force deadline cuts.
    pub stall_ms: u64,
    /// Per-reply read timeout.
    pub reply_timeout: Duration,
    /// Cap on busy-retry attempts before a client gives up.
    pub max_retries: usize,
    /// Seed for the clients' retry-jitter RNGs; same seed, same storm.
    pub seed: u64,
}

impl Default for StormConfig {
    fn default() -> StormConfig {
        StormConfig {
            clients: 16,
            rounds: 2,
            stall_ms: 1_500,
            reply_timeout: Duration::from_secs(30),
            max_retries: 200,
            seed: 4360,
        }
    }
}

/// Aggregated storm outcome.
#[derive(Debug, Default)]
pub struct StormReport {
    /// Clients launched.
    pub clients: usize,
    /// Replies by status.
    pub ok: u64,
    /// `busy` replies observed (admission control working).
    pub busy: u64,
    /// `partial` replies observed (deadline cuts working).
    pub partial: u64,
    /// Structured `error` replies (expected for malformed clients).
    pub error: u64,
    /// `bye` frames observed.
    pub bye: u64,
    /// Connections the server severed (quarantine or panic isolation).
    pub disconnects: u64,
    /// Unexpected transport failures on well-behaved clients — the
    /// storm's hard-fail signal.
    pub transport_failures: u64,
    /// Distinct bodies seen for the byte-identity probe request
    /// (anything above 1 is a determinism violation).
    pub distinct_probe_bodies: u64,
    /// Clients that exhausted their busy-retry allowance.
    pub gave_up: u64,
}

impl StormReport {
    /// Did the storm complete with no hard failures?
    pub fn is_clean(&self) -> bool {
        self.transport_failures == 0 && self.distinct_probe_bodies <= 1 && self.gave_up == 0
    }

    /// Render for the CLI / check.sh log.
    pub fn render(&self) -> String {
        format!(
            "storm: {} clients — {} ok, {} busy, {} partial, {} error, {} bye, \
             {} disconnects, {} transport failures, {} distinct probe bodies, {} gave up => {}",
            self.clients,
            self.ok,
            self.busy,
            self.partial,
            self.error,
            self.bye,
            self.disconnects,
            self.transport_failures,
            self.distinct_probe_bodies,
            self.gave_up,
            if self.is_clean() { "CLEAN" } else { "DIRTY" }
        )
    }
}

/// Shared tallies the client threads write into.
#[derive(Debug, Default)]
struct Tally {
    ok: std::sync::atomic::AtomicU64,
    busy: std::sync::atomic::AtomicU64,
    partial: std::sync::atomic::AtomicU64,
    error: std::sync::atomic::AtomicU64,
    bye: std::sync::atomic::AtomicU64,
    disconnects: std::sync::atomic::AtomicU64,
    transport_failures: std::sync::atomic::AtomicU64,
    gave_up: std::sync::atomic::AtomicU64,
    probe_bodies: Mutex<Vec<String>>,
}

impl Tally {
    fn hit(&self, counter: &std::sync::atomic::AtomicU64) {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn classify(&self, body: &str) {
        match Client::status_of(body).as_str() {
            "ok" => self.hit(&self.ok),
            "busy" => self.hit(&self.busy),
            "partial" => self.hit(&self.partial),
            "error" => self.hit(&self.error),
            "bye" => self.hit(&self.bye),
            _ => self.hit(&self.transport_failures), // unparseable reply
        }
    }
}

/// The probe request whose replies must be byte-identical across the
/// whole storm: same spec, same matcher, same auditor → same bytes,
/// regardless of what else is in flight.
const PROBE_OPEN: &str = "open dataset=faculty seed=7";
const PROBE_AUDIT: &str = "audit DTMatcher";

/// Drive a mixed client fleet at `addr` and score the replies.
pub fn run_storm(addr: &str, cfg: &StormConfig) -> StormReport {
    let tally = Arc::new(Tally::default());
    let overcap: Vec<usize> = (0..cfg.clients).filter(|i| i % 4 == 3).collect();
    let burst = Arc::new(Barrier::new(overcap.len().max(1)));

    std::thread::scope(|scope| {
        for i in 0..cfg.clients {
            let tally = Arc::clone(&tally);
            let burst = Arc::clone(&burst);
            let addr = addr.to_owned();
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut rng = client_rng(cfg.seed, i);
                match i % 4 {
                    0 => valid_client(&addr, &cfg, &tally, &mut rng),
                    1 => malformed_client(&addr, &cfg, &tally, &mut rng),
                    2 => slow_client(&addr, &cfg, &tally, &mut rng),
                    _ => overcap_client(&addr, &cfg, &tally, &burst, &mut rng),
                }
            });
        }
    });

    let probe_bodies = tally
        .probe_bodies
        .lock()
        .map(|b| b.clone())
        .unwrap_or_default();
    let mut distinct = probe_bodies.clone();
    distinct.sort();
    distinct.dedup();

    use std::sync::atomic::Ordering::Relaxed;
    StormReport {
        clients: cfg.clients,
        ok: tally.ok.load(Relaxed),
        busy: tally.busy.load(Relaxed),
        partial: tally.partial.load(Relaxed),
        error: tally.error.load(Relaxed),
        bye: tally.bye.load(Relaxed),
        disconnects: tally.disconnects.load(Relaxed),
        transport_failures: tally.transport_failures.load(Relaxed),
        distinct_probe_bodies: distinct.len() as u64,
        gave_up: tally.gave_up.load(Relaxed),
    }
}

/// Connect, retrying with jittered exponential backoff while the
/// server sheds connections.
fn connect_patiently(
    addr: &str,
    cfg: &StormConfig,
    tally: &Tally,
    rng: &mut StdRng,
) -> Option<Client> {
    for attempt in 0..cfg.max_retries {
        match Client::connect(addr, cfg.reply_timeout) {
            Ok(client) => {
                let status = Client::status_of(&client.hello);
                if status == "ok" {
                    return Some(client);
                }
                tally.classify(&client.hello);
                let hint = Client::retry_hint(&client.hello).unwrap_or(25);
                std::thread::sleep(Duration::from_millis(backoff_ms(attempt, hint, rng)));
            }
            Err(_) => {
                // Connection refused mid-drain or reset: retry.
                std::thread::sleep(Duration::from_millis(backoff_ms(attempt, 25, rng)));
            }
        }
    }
    tally.hit(&tally.gave_up);
    None
}

/// Send, retrying `busy` replies with jittered exponential backoff
/// seeded from the server's own hint; tallies every reply (including
/// the busy ones) and returns the first non-busy body.
fn send_patiently(
    client: &mut Client,
    cmd: &str,
    cfg: &StormConfig,
    tally: &Tally,
    rng: &mut StdRng,
) -> Option<String> {
    for attempt in 0..cfg.max_retries {
        match client.send(cmd) {
            Ok(body) => {
                tally.classify(&body);
                if Client::status_of(&body) != "busy" {
                    return Some(body);
                }
                let hint = Client::retry_hint(&body).unwrap_or(25);
                std::thread::sleep(Duration::from_millis(backoff_ms(attempt, hint, rng)));
            }
            Err(_) => {
                tally.hit(&tally.transport_failures);
                return None;
            }
        }
    }
    tally.hit(&tally.gave_up);
    None
}

/// Role 0: the well-behaved interactive user — open, audit, tune,
/// ensemble, close. Audit replies feed the byte-identity probe.
fn valid_client(addr: &str, cfg: &StormConfig, tally: &Tally, rng: &mut StdRng) {
    let Some(mut client) = connect_patiently(addr, cfg, tally, rng) else {
        return;
    };
    if send_patiently(&mut client, PROBE_OPEN, cfg, tally, rng).is_none() {
        return;
    }
    for _ in 0..cfg.rounds {
        let Some(body) = send_patiently(&mut client, PROBE_AUDIT, cfg, tally, rng) else {
            return;
        };
        if Client::status_of(&body) == "ok" {
            if let Ok(mut probes) = tally.probe_bodies.lock() {
                probes.push(body);
            }
        }
        if send_patiently(&mut client, "tune_threshold DTMatcher", cfg, tally, rng).is_none() {
            return;
        }
        if send_patiently(&mut client, "ensemble", cfg, tally, rng).is_none() {
            return;
        }
    }
    if let Ok(bye) = client.send("close") {
        tally.classify(&bye);
    }
}

/// Role 1: the hostile peer — garbage headers until quarantined. The
/// expected end state is three structured errors, a bye, and a
/// server-side disconnect; anything else is a transport failure.
fn malformed_client(addr: &str, cfg: &StormConfig, tally: &Tally, rng: &mut StdRng) {
    let Some(mut client) = connect_patiently(addr, cfg, tally, rng) else {
        return;
    };
    if client
        .send_raw(b"utter nonsense\nmore nonsense\nstill nonsense\n")
        .is_err()
    {
        tally.hit(&tally.transport_failures);
        return;
    }
    loop {
        match client.read_frame() {
            Ok(body) => tally.classify(&body),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                tally.hit(&tally.disconnects);
                return;
            }
            Err(_) => {
                tally.hit(&tally.transport_failures);
                return;
            }
        }
    }
}

/// Role 2: the slow request — asks the server to stall past its own
/// request budget and expects a `partial` cut.
fn slow_client(addr: &str, cfg: &StormConfig, tally: &Tally, rng: &mut StdRng) {
    let Some(mut client) = connect_patiently(addr, cfg, tally, rng) else {
        return;
    };
    for _ in 0..cfg.rounds {
        if send_patiently(
            &mut client,
            &format!("stall {}", cfg.stall_ms),
            cfg,
            tally,
            rng,
        )
        .is_none()
        {
            return;
        }
    }
    if let Ok(bye) = client.send("close") {
        tally.classify(&bye);
    }
}

/// Role 3: the thundering herd — all over-capacity clients fire a
/// stall burst through a barrier at the same instant, so concurrent
/// in-flight work exceeds the cap and admission control must shed.
fn overcap_client(addr: &str, cfg: &StormConfig, tally: &Tally, burst: &Barrier, rng: &mut StdRng) {
    let Some(mut client) = connect_patiently(addr, cfg, tally, rng) else {
        burst.wait(); // never strand the herd
        return;
    };
    burst.wait();
    for _ in 0..cfg.rounds {
        // One unretried shot: under a synchronized burst some of these
        // MUST come back busy, and that is the point.
        match client.send("stall 400") {
            Ok(body) => tally.classify(&body),
            Err(_) => {
                tally.hit(&tally.transport_failures);
                return;
            }
        }
    }
    if let Ok(bye) = client.send("close") {
        tally.classify(&bye);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_the_hint_and_cap() {
        let mut rng = client_rng(7, 0);
        for attempt in 0..32 {
            let ms = backoff_ms(attempt, 25, &mut rng);
            let cap = 25u64
                .saturating_mul(1 << attempt.min(10))
                .min(MAX_BACKOFF_MS);
            assert!(ms >= 25, "attempt {attempt}: {ms} below the hint");
            assert!(ms <= cap, "attempt {attempt}: {ms} above the cap {cap}");
        }
        // Degenerate hints are survivable: zero clamps to 1ms, huge
        // hints clamp to the ceiling.
        assert!(backoff_ms(0, 0, &mut rng) >= 1);
        assert_eq!(backoff_ms(0, u64::MAX, &mut rng), MAX_BACKOFF_MS);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_decorrelated_per_client() {
        let sequence = |seed: u64, client: usize| -> Vec<u64> {
            let mut rng = client_rng(seed, client);
            (0..8).map(|a| backoff_ms(a, 50, &mut rng)).collect()
        };
        assert_eq!(sequence(11, 3), sequence(11, 3), "same seed, same storm");
        assert_ne!(
            sequence(11, 3),
            sequence(11, 4),
            "sibling clients must not share a jitter sequence"
        );
    }
}
