//! The three workloads: set-up, the fixed-count measured loop, output
//! checks, and (with `--trace 1`) the traced replay that yields the
//! per-layer metrics.

use std::collections::BTreeMap;

use fairem_stats::desc::{mean, median};

use crate::batch::{self, BatchSpec, Replay};
use crate::clock::{ms_since, now_ns, timed};
use crate::host::{HostIndex, REF_HOST_MS};
use crate::inputs::{citations_csv, scale_csv, CsvInputs};
use crate::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use crate::servemix::{self, ReplayCtx, Server, VERBS};
use crate::stats::{percentile, tail_level};
use crate::sys::{peak_rss_mib, remove_tree, RunDir};
use crate::trace::{by_name, coverage_pct, render_op, self_times, Span, Tracer, OP};
use crate::{digest, Args, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Scale-sharded input size: rows per table and block width.
const SCALE_ROWS: usize = 8_000;
const SCALE_BLOCK: usize = 25;

/// Serve-mix client-phase slices per nominal second: the clients pause
/// between slices while the host is probed.
const SLICES_PER_S: usize = 5;

/// How a batch workload runs: its flags, the fixed op count, the
/// warm-up ops and repetitions of its set-up, and the host probes
/// before each op.
struct BatchPlan {
    name: &'static str,
    spec: BatchSpec,
    ops: usize,
    warmups: usize,
    setup_reps: usize,
    probes: usize,
}

/// Everything a run measured. Times are `(start ns, milliseconds)` of
/// wall time, read at the reference host speed once the run is over.
#[derive(Debug, Default)]
struct Measured {
    /// Every op answered correctly.
    ops: Vec<(u64, f64)>,
    attempted: u64,
    failed: u64,
    /// The measured wall time: every op on the batch workloads, every
    /// client slice on serve-mix.
    busy: Vec<(u64, f64)>,
    /// Each set-up repetition.
    setup: Vec<(u64, f64)>,
    host: HostIndex,
    notes: Vec<String>,
    layers: Values,
}

/// Run the workload `args` names.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let m = match args.workload.as_str() {
        "citations-audit" => {
            let plan = BatchPlan {
                name: "citations-audit",
                spec: BatchSpec::citations(),
                ops: (args.seconds * 7) as usize,
                warmups: 2,
                setup_reps: SETUP_REPS,
                probes: 1,
            };
            run_batch(args, &plan, || citations_csv(args.seed))?
        }
        "scale-sharded" => {
            // One warm-up op takes over a second here, so five set-up
            // repetitions already average more work than nine elsewhere;
            // an op is ten citations-audit ops long, so four probes
            // between ops keep the probes about as dense in time.
            let plan = BatchPlan {
                name: "scale-sharded",
                spec: BatchSpec::scale(),
                ops: ((args.seconds * 7).div_ceil(10) as usize).max(3),
                warmups: 1,
                setup_reps: 5,
                probes: 4,
            };
            run_batch(args, &plan, || {
                scale_csv(args.seed, SCALE_ROWS, SCALE_BLOCK)
            })?
        }
        "serve-mix" => run_serve(args, (args.seconds * 1000) as usize)?,
        other => return Err(format!("unknown workload {other:?}\n{}", crate::USAGE)),
    };
    Ok(finish(args, m))
}

/// Assemble the notes and the result line. Every time metric is read
/// at the reference host speed (see [`crate::host`]); the raw wall
/// times go to the notes and `wall.op_p50_ms`.
fn finish(args: &Args, mut m: Measured) -> Outcome {
    let at_ref = |spans: &[(u64, f64)]| -> Vec<f64> {
        spans.iter().map(|&(t, ms)| m.host.at_ref(t, ms)).collect()
    };
    let wall = |spans: &[(u64, f64)]| -> Vec<f64> { spans.iter().map(|&(_, ms)| ms).collect() };
    let op_ms = at_ref(&m.ops);
    let busy_s = at_ref(&m.busy).iter().sum::<f64>() / 1e3;
    let setup_s: Vec<f64> = at_ref(&m.setup).iter().map(|ms| ms / 1e3).collect();
    let (wall_op_ms, wall_busy_s) = (wall(&m.ops), wall(&m.busy).iter().sum::<f64>() / 1e3);
    let wall_setup_s: Vec<f64> = wall(&m.setup).iter().map(|ms| ms / 1e3).collect();
    let n = op_ms.len();
    let p50 = median(&op_ms);
    let wall_p50 = median(&wall_op_ms);
    let host = median(&m.host.probe_ms());
    let tail = match tail_level(n) {
        Some(t) => format!(
            "tail: {} = {:.3} ms over {} ops ({} beyond)",
            t.label,
            percentile(&op_ms, t.per_mille),
            t.samples,
            t.beyond
        ),
        None => format!("tail: none, {n} ops leave no percentile with ten samples beyond it"),
    };
    m.notes.push(tail);
    m.notes.push(format!(
        "op quantiles (ms): p10 {:.3}  p25 {:.3}  p40 {:.3}  p50 {:.3}  p60 {:.3}  p75 {:.3}  p90 {:.3}",
        percentile(&op_ms, 100),
        percentile(&op_ms, 250),
        percentile(&op_ms, 400),
        percentile(&op_ms, 500),
        percentile(&op_ms, 600),
        percentile(&op_ms, 750),
        percentile(&op_ms, 900)
    ));
    m.notes.push(format!(
        "op_p50_ms = {p50:.3} over {n} ops at the reference host speed (kernel {REF_HOST_MS} ms); \
         host.ref_ms = {host:.3} over {} probes",
        m.host.probe_ms().len()
    ));
    m.notes.push(format!(
        "wall (unscaled): op_p50 {wall_p50:.3} ms, ops_per_s {:.4}, setup reps {:.3?} s",
        rate(n, wall_busy_s),
        wall_setup_s
    ));
    if n >= 10 {
        let tenths = |xs: &[f64]| -> String {
            xs.chunks(n / 10)
                .take(10)
                .map(|c| format!("{:.3}", median(c)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        m.notes.push(format!(
            "op p50 by tenth of the run (ms): {}; unscaled: {}",
            tenths(&op_ms),
            tenths(&wall_op_ms)
        ));
    }
    let correct = m.failed == 0 && m.attempted > 0;
    let result = if args.trace {
        m.layers.set("host.ref_ms", host);
        m.layers.set("wall.op_p50_ms", wall_p50);
        m.layers.set("op.samples", n as f64);
        if n > 0 && tail_level(n).is_some_and(|t| t.per_mille >= 900) {
            m.layers.set("op_p90_ms", percentile(&op_ms, 900));
        }
        if tail_level(n).is_some_and(|t| t.per_mille >= 990) {
            m.layers.set("op_p99_ms", percentile(&op_ms, 990));
        }
        result_line(correct, m.attempted, m.failed, &PER_LAYER, &m.layers)
    } else {
        let mut v = Values::default();
        v.set("op_p50_ms", p50);
        v.set("ops_per_s", rate(n, busy_s));
        v.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
        v.set("setup_s", median(&setup_s));
        result_line(correct, m.attempted, m.failed, &END_TO_END, &v)
    };
    Outcome {
        notes: m.notes,
        result,
        correct,
    }
}

/// `n` ops per second over `s` seconds (0 over none).
fn rate(n: usize, s: f64) -> f64 {
    if s > 0.0 {
        n as f64 / s
    } else {
        0.0
    }
}

/// One batch op with a fresh checkpoint directory (sharded path),
/// removed once the op has returned.
fn batch_op(
    inputs: &CsvInputs,
    spec: &BatchSpec,
    dir: &RunDir,
    tag: &str,
) -> (Result<String, String>, f64) {
    let ckpt = spec
        .sharded()
        .then(|| dir.path().join(format!("ckpt-{tag}")));
    let (out, ms) = timed(|| batch::run_op(inputs, spec, ckpt.as_deref()));
    if let Some(p) = &ckpt {
        remove_tree(p);
    }
    (out, ms)
}

fn run_batch(
    args: &Args,
    plan: &BatchPlan,
    make_inputs: impl Fn() -> Result<CsvInputs, String>,
) -> Result<Measured, String> {
    let BatchPlan {
        name,
        spec,
        ops,
        warmups,
        setup_reps,
        probes,
    } = plan;
    let dir = RunDir::create(name)?;
    let mut m = Measured {
        host: HostIndex::new(spec.workers),
        ..Measured::default()
    };

    // Set-up: generate and serialise the inputs, then warm up; the
    // warm-up ops fix the reference digest every measured op must
    // reproduce. The first set-up counts from process start.
    let set_up = |rep: usize| -> Result<(CsvInputs, u64), String> {
        let inputs = make_inputs()?;
        let mut reference = None;
        for w in 0..*warmups {
            let (out, _) = batch_op(&inputs, spec, &dir, &format!("setup{rep}-{w}"));
            let d = digest(&out?);
            if reference.is_some_and(|r| r != d) {
                return Err("warm-up ops disagree: the op is not deterministic".into());
            }
            reference = Some(d);
        }
        Ok((inputs, reference.ok_or("no warm-up op ran")?))
    };
    let (inputs, reference) = set_up(0)?;
    m.setup.push((0, ms_since(0)));
    m.notes.push(format!(
        "{name}: {} CSV bytes, {ops} ops, {} worker(s), reference digest {reference:016x}",
        inputs.len(),
        spec.workers
    ));

    // The measured loop: a fixed number of ops, each checked, with the
    // host probed before each op and after the last. The set-up is
    // repeated at evenly spaced points of the loop (its time is in no
    // op's), so the `setup_s` median samples the host across the run as
    // `op_p50_ms` does, not only in its first seconds.
    let repeat_every = (ops / setup_reps).max(1);
    for i in 0..*ops {
        if i > 0 && i % repeat_every == 0 && m.setup.len() < *setup_reps {
            let start = now_ns();
            let (again, r) = set_up(m.setup.len())?;
            m.setup.push((start, ms_since(start)));
            if again != inputs || r != reference {
                return Err("set-up repetitions produced different inputs or reports".into());
            }
        }
        for _ in 0..*probes {
            m.host.probe();
        }
        let start = now_ns();
        let (out, ms) = batch_op(&inputs, spec, &dir, &i.to_string());
        m.attempted += 1;
        m.busy.push((start, ms));
        match out {
            Ok(report) if digest(&report) == reference => m.ops.push((start, ms)),
            Ok(_) => {
                m.failed += 1;
                m.notes
                    .push(format!("op {i}: report differs from the reference"));
            }
            Err(e) => {
                m.failed += 1;
                m.notes.push(format!("op {i} failed: {e}"));
            }
        }
    }
    for _ in 0..*probes {
        m.host.probe();
    }

    if args.trace {
        trace_batch(name, spec, &inputs, reference, &dir, &mut m)?;
    }
    Ok(m)
}

/// Per-op self (or total) milliseconds of every span name, one entry
/// per op root (0 where the op has no such span).
fn per_op(spans: &[Span], total: bool) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let ops: Vec<u32> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == OP)
        .map(|s| s.op)
        .collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let Some(slot) = ops.iter().position(|&o| o == s.op) else {
            continue;
        };
        let v = out.entry(s.name).or_insert_with(|| vec![0.0; ops.len()]);
        v[slot] += if total { s.total() } else { own } as f64 / 1e6;
    }
    out
}

/// Layer span → per-layer metric (per-op self time, milliseconds).
const LAYER_SPANS: [(&str, &str); 20] = [
    ("csvio.parse", "csvio.parse_ms"),
    ("prep.import", "prep.import_ms"),
    ("prep.split", "prep.split_ms"),
    ("blocking", "blocking.ms"),
    ("features.build", "features.build_ms"),
    ("features.matrix", "features.matrix_ms"),
    ("features.tokenize", "features.tokenize_ms"),
    ("matcher.train.DTMatcher", "matcher.train_ms.DTMatcher"),
    ("matcher.train.RFMatcher", "matcher.train_ms.RFMatcher"),
    (
        "matcher.train.LinRegMatcher",
        "matcher.train_ms.LinRegMatcher",
    ),
    ("matcher.score", "matcher.score_ms"),
    ("matcher.tune", "matcher.tune_ms"),
    ("audit", "audit.ms"),
    ("calib.distribution", "calib.distribution_ms"),
    ("ensemble", "ensemble.ms"),
    ("report", "report.ms"),
    ("serve.reply", "serve.reply_ms"),
    ("serve.open", "serve.open_ms"),
    ("shard.merge", "shard.merge_ms"),
    ("ckpt.write", "ckpt.write_ms"),
];

/// Fold per-op layer times into `values`, summarising each layer's
/// per-op series with `summary`.
fn layer_values(spans: &[Span], values: &mut Values, summary: fn(&[f64]) -> f64) {
    let selfs = per_op(spans, false);
    for (span, metric) in LAYER_SPANS {
        if let Some(v) = selfs.get(span) {
            values.set(metric, summary(v));
        }
    }
    if let Some(v) = per_op(spans, true).get("shard.window") {
        values.set("shard.window_ms", summary(v));
    }
    values.set("trace.coverage_pct", coverage_pct(spans));
}

/// Traced replays of a batch op: the report must match the reference,
/// and the spans give the per-layer metrics.
fn trace_batch(
    name: &str,
    spec: &BatchSpec,
    inputs: &CsvInputs,
    reference: u64,
    dir: &RunDir,
    m: &mut Measured,
) -> Result<(), String> {
    let replays = if spec.sharded() { 4 } else { 7 };
    let mut tr = Tracer::new();
    let mut last: Option<Replay> = None;
    let mut matched = 0.0;
    // Each traced replay is paired with an untraced op run next to it,
    // alternating which goes first, so neither host drift nor cache
    // warmth shows up as tracing overhead.
    let mut ratios = Vec::with_capacity(replays);
    for i in 0..replays {
        let untraced = |m: &mut Measured| {
            let (out, ms) = batch_op(inputs, spec, dir, &format!("paired-{i}"));
            m.attempted += 1;
            if out.map(|r| digest(&r)) != Ok(reference) {
                m.failed += 1;
                m.notes
                    .push(format!("{name}: paired op {i} failed or differed"));
            }
            ms
        };
        let op_ms = if i % 2 == 0 { untraced(m) } else { 0.0 };
        let ckpt = spec
            .sharded()
            .then(|| dir.path().join(format!("replay-{i}")));
        let replay = batch::replay_op(inputs, spec, ckpt.as_deref(), &mut tr)?;
        if let Some(p) = &ckpt {
            remove_tree(p);
        }
        let op_ms = if i % 2 == 1 { untraced(m) } else { op_ms };
        if let Some(&traced_ms) = tr.op_ms().last() {
            ratios.push(traced_ms / op_ms);
        }
        m.attempted += 1;
        if digest(&replay.report) == reference {
            matched += 1.0;
        } else {
            m.failed += 1;
            m.notes.push(format!(
                "{name}: traced replay {i} rendered a different report"
            ));
        }
        last = Some(replay);
    }
    let replay = last.ok_or("no traced replay ran")?;
    // The pool counters come from the program's own pools: one more
    // untraced op with a recorder attached, checked like the rest.
    let ckpt = spec.sharded().then(|| dir.path().join("observed"));
    let (report, pool) = batch::pool_counts(inputs, spec, ckpt.as_deref())?;
    if let Some(p) = &ckpt {
        remove_tree(p);
    }
    m.attempted += 1;
    if digest(&report) != reference {
        m.failed += 1;
        m.notes.push(format!(
            "{name}: the observed op rendered a different report"
        ));
    }
    let spans = tr.spans();
    let v = &mut m.layers;
    layer_values(spans, v, median);
    let f = &replay.facts;
    v.set("digest.match", matched);
    v.set("prep.pairs_kept", f.pairs_kept as f64);
    v.set("blocking.candidates", f.candidates as f64);
    if f.candidates > 0 {
        v.set(
            "blocking.kept_ratio",
            f.pairs_kept as f64 / f.candidates as f64,
        );
    }
    v.set("blocking.recall", f.recall);
    v.set("features.pairs", f.feature_pairs as f64);
    if let Some(ms) = v.get("features.matrix_ms") {
        if f.feature_pairs > 0 {
            v.set("features.ns_per_pair", ms * 1e6 / f.feature_pairs as f64);
        }
    }
    v.set("audit.entries", f.audit_entries as f64);
    v.set("ensemble.assignments", f.assignments as f64);
    v.set("shard.count", f.shards as f64);
    v.set("ckpt.bytes", f.ckpt_bytes as f64);
    v.set("mem.accounted_mb", f.mem_peak as f64 / (1024.0 * 1024.0));
    v.set("par.regions", pool.regions as f64);
    v.set("par.chunks", pool.chunks as f64);
    let replay_p50 = median(&tr.op_ms());
    v.set("trace.replay_p50_ms", replay_p50);
    v.set("obs.overhead_pct", 100.0 * (median(&ratios) - 1.0));
    for (metric, ms) in batch::kernel_ms(&replay) {
        v.set(metric, ms);
    }
    v.set("par.speedup", batch::par_speedup(&replay)?);
    m.notes.push(format!(
        "{name}: traced replay (op 1 of {replays}), self-time coverage {:.1}%:",
        coverage_pct(spans)
    ));
    m.notes
        .extend(render_op(spans, 1).lines().map(str::to_owned));
    m.notes.push(layer_table(spans));
    Ok(())
}

/// A per-layer self/total table over every span.
fn layer_table(spans: &[Span]) -> String {
    let mut out = String::from("layer self/total time over all traced ops:\n");
    for (name, t) in by_name(spans) {
        out.push_str(&format!(
            "  {name:<28} self {:>10.3} ms  total {:>10.3} ms  spans {}\n",
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
            t.count
        ));
    }
    out
}

fn run_serve(args: &Args, ops: usize) -> Result<Measured, String> {
    // The server answers on one worker.
    let mut m = Measured {
        host: HostIndex::new(1),
        ..Measured::default()
    };
    let sessions = servemix::sessions(args.seed);
    let cycles = ops.div_ceil(2 * servemix::CYCLE).max(1);
    let per_client = cycles * servemix::CYCLE;
    let scripts: Vec<_> = (0..2)
        .map(|c| servemix::script(args.seed, c, cycles, &sessions))
        .collect();

    // Set-up, repeated: start the server, build the three sessions and
    // answer every distinct scripted request once (the reference
    // digests, and the warm-up). Earlier servers are drained.
    // The host is probed three times after each repetition.
    let mut live: Option<(Server, servemix::References)> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { 0 } else { now_ns() };
        let prev = match live.take() {
            Some((server, refs)) => {
                server.stop()?;
                Some(refs)
            }
            None => None,
        };
        let server = Server::start()?;
        let refs = servemix::reference_pass(&server, &sessions, &scripts)?;
        if prev.is_some_and(|prev| prev != refs) {
            return Err("set-up repetitions produced different replies".into());
        }
        live = Some((server, refs));
        m.setup.push((start, ms_since(start)));
        for _ in 0..3 {
            m.host.probe();
        }
    }
    let (server, refs) = live.ok_or("no set-up ran")?;
    m.notes.push(format!(
        "serve-mix: 2 clients x {per_client} requests, {} distinct requests over {} sessions",
        refs.len(),
        sessions.len()
    ));

    // The clients run in short slices with the host probed between
    // them, while both are idle, so no probe competes with a client.
    let slices = (args.seconds as usize * SLICES_PER_S).max(1);
    let host = &mut m.host;
    let (runs, spans) = servemix::run_clients(&server, &scripts, &refs, slices, || host.probe());
    let summary = server.stop()?;
    m.notes.push(summary.render().trim_end().to_owned());
    m.busy = spans;
    let mut by_verb: Vec<Vec<f64>> = vec![Vec::new(); VERBS.len()];
    let mut reply_bytes = 0u64;
    for r in &runs {
        m.attempted += r.attempted;
        m.failed += r.failed;
        reply_bytes += r.reply_bytes;
        for &(verb, start, ms) in &r.times {
            m.ops.push((start, ms));
            by_verb[verb].push(m.host.at_ref(start, ms));
        }
    }
    for (verb, times) in VERBS.iter().zip(&by_verb) {
        m.notes.push(format!(
            "  {verb:<15} n={:<6} p50 {:.3} ms",
            times.len(),
            median(times)
        ));
    }
    if args.trace {
        const VERB_METRICS: [&str; 8] = [
            "serve.verb_p50_ms.ping",
            "serve.verb_p50_ms.open",
            "serve.verb_p50_ms.audit",
            "serve.verb_p50_ms.audit_one",
            "serve.verb_p50_ms.audit_sharded",
            "serve.verb_p50_ms.tune_threshold",
            "serve.verb_p50_ms.ensemble",
            "serve.verb_p50_ms.calibrate",
        ];
        for (metric, times) in VERB_METRICS.iter().zip(&by_verb) {
            m.layers.set(metric, median(times));
        }
        if !m.ops.is_empty() {
            m.layers
                .set("serve.reply_bytes", reply_bytes as f64 / m.ops.len() as f64);
        }
        trace_serve(&sessions, &scripts, &refs, &mut m)?;
    }
    Ok(m)
}

/// Replay the start of client 0's script in-process through the public
/// calls the server makes: a warm-up pass, a traced pass whose spans
/// give the per-layer metrics (every reply checked against the
/// reference), and a pass under a disabled tracer for the overhead.
fn trace_serve(
    sessions: &[servemix::SessionDef],
    scripts: &[Vec<servemix::Req>],
    refs: &servemix::References,
    m: &mut Measured,
) -> Result<(), String> {
    let ctx = ReplayCtx::build(sessions, scripts)?;
    let script = &scripts[0][..scripts[0].len().min(600)];
    let mut current = usize::MAX;
    let mut off = Tracer::disabled();
    for req in script {
        ctx.replay(&req.body, &mut current, &mut off)?;
    }
    // The untraced op is a loopback round trip the in-process replay
    // does not make, so the tracer's own cost is measured replay
    // against replay: each request is replayed traced and again under a
    // disabled tracer (timed whole), alternating which goes first; the
    // overhead is the median of the per-request time ratios.
    let mut tr = Tracer::new();
    let mut plain = Vec::with_capacity(script.len());
    let mut matched = 0u64;
    for (i, req) in script.iter().enumerate() {
        let mut untraced = |current: &mut usize| {
            let (out, ms) = timed(|| ctx.replay(&req.body, current, &mut off));
            out.map(|_| plain.push(ms))
        };
        if i % 2 == 1 {
            untraced(&mut current)?;
        }
        let body = ctx.replay(&req.body, &mut current, &mut tr)?;
        if refs.get(&(req.session, req.body.clone())) == Some(&digest(&body)) {
            matched += 1;
        }
        if i % 2 == 0 {
            untraced(&mut current)?;
        }
    }
    m.attempted += script.len() as u64;
    if matched != script.len() as u64 {
        m.failed += script.len() as u64 - matched;
        m.notes.push(format!(
            "serve-mix: {} replayed replies differ from the reference",
            script.len() as u64 - matched
        ));
    }
    let spans = tr.spans();
    let v = &mut m.layers;
    layer_values(spans, v, mean);
    v.set("digest.match", matched as f64);
    v.set("calib.fit_ms", median(&ctx.fit_ms));
    if let Some(f) = per_op(spans, false).get("serve.frame") {
        v.set("serve.frame_us", 1e3 * mean(f));
    }
    if ctx.audits.get() > 0 {
        v.set(
            "audit.entries",
            ctx.entries_seen.get() as f64 / ctx.audits.get() as f64,
        );
    }
    if ctx.ensembles.get() > 0 {
        v.set(
            "ensemble.assignments",
            ctx.assignments.get() as f64 / ctx.ensembles.get() as f64,
        );
    }
    let traced = tr.op_ms();
    v.set("trace.replay_p50_ms", median(&traced));
    let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
    v.set("obs.overhead_pct", 100.0 * (median(&ratios) - 1.0));
    m.notes.push(format!(
        "serve-mix: traced in-process replay of {} requests, self-time coverage {:.1}%",
        script.len(),
        coverage_pct(spans)
    ));
    m.notes.push(layer_table(spans));
    Ok(())
}
