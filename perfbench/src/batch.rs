//! The two batch workloads' op — what `fairem audit` does on one input
//! — and its traced replay through the layers' public calls.
//!
//! [`run_op`] is the measured op: it goes through the suite's front
//! door (`FairEm360::builder` → `try_run`/`try_run_sharded`) exactly as
//! the CLI does. [`replay_op`] performs the same computation one public
//! call at a time, wrapping each call in a harness span, and must render
//! a byte-identical report (the harness compares digests).

use std::path::Path;
use std::sync::Mutex;

use fairem_core::audit::{AuditConfig, AuditReport, Auditor};
use fairem_core::blocking::{blocking_recall, Blocker, CandidatePairs, TokenBlocking};
use fairem_core::ckpt::{fnv1a64, CheckpointStore, ShardRecord};
use fairem_core::ensemble::{EnsembleExplorer, ParetoPoint};
use fairem_core::exec::{Exec, PairBatch};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::features::{FeatureGenerator, TEXT_MEASURES};
use fairem_core::matcher::{
    sanitize_scores, Matcher, MatcherFailure, MatcherKind, MatcherRegistry, TrainInput,
    TrainedMatcher,
};
use fairem_core::pipeline::{FairEm360, SuiteConfig};
use fairem_core::prep::{default_blocker, prepare_with};
use fairem_core::quarantine::QuarantineReport;
use fairem_core::report::audit_text;
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupSpace, GroupVector, SensitiveAttr};
use fairem_core::shard::{window_len, PairCounts, ShardPlan};
use fairem_core::workload::{Correspondence, Workload};
use fairem_core::{Interrupt, Stage};
use fairem_ml::Matrix;
use fairem_neural::{HashVocab, TokenPair};
use fairem_obs::Recorder;
use fairem_par::{CancelToken, MemTracker, ParOutcome, Parallelism, WorkerPool};
use fairem_stats::desc::median;
use fairem_text::{measure_cells, tfidf_cosine_cells, PreparedColumn, SimScratch, TokenInterner};

use crate::clock::{now_ns, timed};
use crate::inputs::{parse, CsvInputs};
use crate::trace::{Tracer, OP};

/// The CLI's default fleet.
pub const FLEET: [MatcherKind; 3] = [
    MatcherKind::DtMatcher,
    MatcherKind::RfMatcher,
    MatcherKind::LinRegMatcher,
];

/// The `fairem audit` flags a batch workload runs with.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// `--jobs`: a fixed worker count, never `auto`.
    pub workers: usize,
    /// `--blocking` columns (`None` keeps the default, `name`).
    pub blocking: Option<Vec<String>>,
    /// `--negative-ratio` (`f64::INFINITY` is `all`).
    pub negative_ratio: Option<f64>,
    /// `--train-frac`.
    pub train_frac: Option<f64>,
    /// `--shards`; more than one takes the out-of-core path.
    pub shards: usize,
}

impl BatchSpec {
    /// `fairem audit --sensitive venue --blocking title --jobs 1`.
    pub fn citations() -> BatchSpec {
        BatchSpec {
            workers: 1,
            blocking: Some(vec!["title".into()]),
            negative_ratio: None,
            train_frac: None,
            shards: 1,
        }
    }

    /// `fairem audit --sensitive tier --negative-ratio all
    /// --train-frac 0.1 --shards 8 --checkpoint-dir <fresh> --jobs 2`.
    pub fn scale() -> BatchSpec {
        BatchSpec {
            workers: 2,
            blocking: None,
            negative_ratio: Some(f64::INFINITY),
            train_frac: Some(0.1),
            shards: 8,
        }
    }

    /// True when the op takes the sharded path.
    pub fn sharded(&self) -> bool {
        self.shards > 1
    }

    /// The suite configuration the CLI builds from these flags.
    pub fn suite_config(&self, checkpoint_dir: Option<&Path>) -> SuiteConfig {
        let mut config = SuiteConfig {
            matching_threshold: 0.5,
            parallelism: Parallelism::Fixed(self.workers),
            ..SuiteConfig::default()
        };
        if let Some(cols) = &self.blocking {
            config.prep.blocking_columns = cols.clone();
        }
        if let Some(r) = self.negative_ratio {
            config.prep.negative_ratio = r;
        }
        if let Some(f) = self.train_frac {
            config.prep.train_frac = f;
        }
        config.shard.shards = self.shards;
        config.shard.checkpoint_dir = checkpoint_dir.map(Path::to_path_buf);
        config
    }
}

/// The audit configuration `fairem audit` uses without flags: the
/// paper-five measures, single paradigm, subtraction, 0.2, support 10.
fn auditor() -> Auditor {
    Auditor::new(AuditConfig::default())
}

/// One measured op: parse the CSV bytes, build the suite, run it,
/// audit every matcher, explore the ensemble frontier (materialized
/// path only) and render the report text.
pub fn run_op(
    inputs: &CsvInputs,
    spec: &BatchSpec,
    checkpoint_dir: Option<&Path>,
) -> Result<String, String> {
    run_op_observed(inputs, spec, checkpoint_dir, Recorder::disabled())
}

/// [`run_op`] with `recorder` attached to the suite, which hands it to
/// every worker pool the run, its audits and its ensemble open.
pub fn run_op_observed(
    inputs: &CsvInputs,
    spec: &BatchSpec,
    checkpoint_dir: Option<&Path>,
    recorder: Recorder,
) -> Result<String, String> {
    let (a, b, matches) = parse(inputs)?;
    let suite = FairEm360::builder()
        .tables(a, b)
        .ground_truth(matches)
        .sensitive([SensitiveAttr::categorical(inputs.sensitive.as_str())])
        .config(spec.suite_config(checkpoint_dir))
        .observe(recorder)
        .build()
        .map_err(|e| e.to_string())?;
    let auditor = auditor();
    if spec.sharded() {
        let run = suite.try_run_sharded(&FLEET).map_err(|e| e.to_string())?;
        let reports = run.audit_all(&auditor);
        return Ok(render(
            &reports,
            run.quarantine(),
            run.failures(),
            run.coverage(),
            run.clamped_scores(),
            None,
            run.matcher_names().len(),
        ));
    }
    let session = suite.try_run(&FLEET).map_err(|e| e.to_string())?;
    let (reports, interrupt) = session.try_audit_all(&auditor);
    let (frontier, _) = session
        .ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
        .try_pareto_frontier();
    let mut text = render(
        &reports,
        session.quarantine(),
        session.failures(),
        session.coverage(),
        session.clamped_scores(),
        interrupt.as_ref(),
        session.matcher_names().len(),
    );
    text.push_str(&render_frontier(&frontier));
    Ok(text)
}

/// The CLI's text report: one block per audit, then the quarantine,
/// degraded-run, interrupt and clamp notes.
fn render(
    reports: &[AuditReport],
    quarantine: &QuarantineReport,
    failures: &[MatcherFailure],
    coverage: (usize, usize),
    clamped: usize,
    interrupt: Option<&Interrupt>,
    matcher_total: usize,
) -> String {
    let mut text = reports
        .iter()
        .map(audit_text)
        .collect::<Vec<_>>()
        .join("\n");
    if !quarantine.is_empty() {
        text.push('\n');
        text.push_str(&quarantine.render());
    }
    if !failures.is_empty() {
        let (survivors, requested) = coverage;
        text.push_str(&format!(
            "\nDEGRADED RUN: {survivors}/{requested} matcher(s) survived\n"
        ));
        for f in failures {
            text.push_str(&format!("  {f}\n"));
        }
    }
    if let Some(i) = interrupt {
        text.push_str(&format!(
            "\nAUDIT INTERRUPTED: cut at audit: {i} — {}/{} report(s) completed\n",
            reports.len(),
            matcher_total
        ));
    }
    if clamped > 0 {
        text.push_str(&format!(
            "\nnote: {clamped} non-finite/out-of-range matcher score(s) clamped to [0,1]\n"
        ));
    }
    text
}

/// The ensemble frontier appended to the materialized report.
fn render_frontier(points: &[ParetoPoint]) -> String {
    let mut out = String::from("\nENSEMBLE FRONTIER (AccuracyParity, subtraction):\n");
    for p in points {
        out.push_str(&format!(
            "  {:?} performance={} unfairness={}\n",
            p.assignment, p.performance, p.unfairness
        ));
    }
    out
}

/// The program's own worker-pool counters over one op.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PoolCounts {
    /// Parallel regions opened (`par.regions`).
    pub regions: u64,
    /// Chunks run (`par.chunks`).
    pub chunks: u64,
}

/// Run one op as [`run_op`] does, with an enabled recorder attached to
/// the suite, and read the pool's `par.regions` and `par.chunks`
/// counters from it. Returns the report too, so the caller can check
/// it like a measured op's.
pub fn pool_counts(
    inputs: &CsvInputs,
    spec: &BatchSpec,
    checkpoint_dir: Option<&Path>,
) -> Result<(String, PoolCounts), String> {
    let recorder = Recorder::enabled();
    let report = run_op_observed(inputs, spec, checkpoint_dir, recorder.clone())?;
    let snap = recorder.snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let counts = PoolCounts {
        regions: get("par.regions"),
        chunks: get("par.chunks"),
    };
    Ok((report, counts))
}

/// A harness-owned blocker: delegates to the suite's token blocker and
/// notes when each call started and ended, so the replay can place a
/// `blocking` span inside `prepare_with`.
#[derive(Debug)]
struct TimedBlocker {
    inner: TokenBlocking,
    calls: Mutex<Vec<(u64, u64, usize)>>,
}

impl Blocker for TimedBlocker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn candidates(&self, a: &Table, b: &Table, exec: &Exec) -> CandidatePairs {
        let start = now_ns();
        let out = self.inner.candidates(a, b, exec);
        let end = now_ns();
        if let Ok(mut calls) = self.calls.lock() {
            calls.push((start, end, out.len()));
        }
        out
    }
}

/// Counts the replay collects along the way.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Facts {
    /// Candidate pairs blocking produced.
    pub candidates: u64,
    /// Labelled pairs `prepare_with` kept (all splits).
    pub pairs_kept: u64,
    /// Share of true matches among the blocking candidates.
    pub recall: f64,
    /// Pairs featurised by `FeatureGenerator::matrix`.
    pub feature_pairs: u64,
    /// Shards processed (1 on the materialized path).
    pub shards: u64,
    /// Checkpoint bytes committed (sharded path).
    pub ckpt_bytes: u64,
    /// Ensemble assignments enumerated.
    pub assignments: u64,
    /// Audit entries across every report.
    pub audit_entries: u64,
    /// The run's memory-model peak, bytes.
    pub mem_peak: u64,
    /// Scores the sanitize clamp repaired.
    pub clamped: u64,
}

/// What a traced replay leaves behind besides its spans.
pub struct Replay {
    /// The rendered report (digest-compared with the measured op).
    pub report: String,
    /// Counts gathered during the replay.
    pub facts: Facts,
    /// Imported tables, for the kernel probe.
    pub tables: (Table, Table),
    /// Columns excluded from features (the sensitive ones).
    pub exclude: Vec<String>,
    /// Every pair the op featurised, in featurisation order.
    pub featurized: Vec<(usize, usize)>,
    /// The test split's pairs.
    pub test_pairs: Vec<(usize, usize)>,
    /// The fitted feature generator.
    pub features: FeatureGenerator,
}

fn train_span(kind: MatcherKind) -> &'static str {
    match kind {
        MatcherKind::DtMatcher => "matcher.train.DTMatcher",
        MatcherKind::RfMatcher => "matcher.train.RFMatcher",
        MatcherKind::LinRegMatcher => "matcher.train.LinRegMatcher",
        _ => "matcher.train.other",
    }
}

/// Shared handles of one replay.
struct Ctx {
    pool: WorkerPool,
    token: CancelToken,
    mem: MemTracker,
    facts: Facts,
}

impl Ctx {
    /// The execution context the pipeline builds: the run's pool, its
    /// token and its memory account.
    fn exec(&self) -> Exec {
        Exec::with_pool(self.pool.clone())
            .cancel(self.token.clone())
            .mem(self.mem.clone())
    }

    /// `FeatureGenerator::try_matrix` over `pairs` as a
    /// `features.matrix` span.
    fn matrix(
        &mut self,
        tr: &mut Tracer,
        features: &FeatureGenerator,
        pairs: &[(usize, usize)],
    ) -> Result<Matrix, String> {
        let exec = self.exec();
        let out = tr.enter("features.matrix", |_| {
            features.try_matrix(&PairBatch::new(pairs), &exec)
        });
        self.facts.feature_pairs += pairs.len() as u64;
        match out {
            Ok(ParOutcome::Complete(m)) => Ok(m),
            Ok(ParOutcome::Interrupted { interrupt, .. }) => Err(interrupt.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Score `x`/`tokens` with every matcher over the pool, one
    /// isolated item per matcher, as a `matcher.score` span.
    fn score(
        &mut self,
        tr: &mut Tracer,
        fleet: &[&TrainedMatcher],
        x: &Matrix,
        tokens: &[TokenPair],
        budget: fairem_par::Budget,
    ) -> Vec<Result<Vec<f64>, String>> {
        let (pool, token) = (&self.pool, &self.token);
        let outcomes = tr.enter("matcher.score", |_| {
            pool.par_map_isolated(fleet.len(), |i| {
                token.child(budget).checkpoint()?;
                Ok::<_, Interrupt>(fleet[i].score_batch(x, tokens))
            })
        });
        outcomes
            .into_iter()
            .map(|o| match o {
                Ok(Ok(mut s)) => {
                    self.facts.clamped += sanitize_scores(&mut s) as u64;
                    Ok(s)
                }
                Ok(Err(i)) => Err(i.to_string()),
                Err(p) => Err(p),
            })
            .collect()
    }
}

fn workload(
    pairs: &[(usize, usize)],
    labels: &[f64],
    scores: &[f64],
    enc_a: &[GroupVector],
    enc_b: &[GroupVector],
    threshold: f64,
) -> Workload {
    let items = pairs
        .iter()
        .zip(labels)
        .zip(scores)
        .map(|((&(ra, rb), &y), &score)| Correspondence {
            a_row: ra,
            b_row: rb,
            score,
            truth: y == 1.0,
            left: enc_a[ra],
            right: enc_b[rb],
        })
        .collect();
    Workload::new(items, threshold)
}

/// Replay one op through the layers' public calls under `tr`, one
/// span per call, and return the rendered report plus the facts the
/// per-layer metrics need. Mirrors the suite pipeline step for step;
/// the one deliberate difference is that matchers train one kind at a
/// time so each gets its own span.
pub fn replay_op(
    inputs: &CsvInputs,
    spec: &BatchSpec,
    checkpoint_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let op = tr.open(OP);
    let (csv_a, csv_b, matches) = tr.enter("csvio.parse", |_| parse(inputs))?;
    let config = spec.suite_config(checkpoint_dir);

    let imported = tr.enter("prep.import", |_| {
        let (ta, qa) = Table::from_csv_lenient(csv_a, "tableA").map_err(|e| e.to_string())?;
        let (tb, qb) = Table::from_csv_lenient(csv_b, "tableB").map_err(|e| e.to_string())?;
        let space = GroupSpace::extract(
            &[&ta, &tb],
            vec![SensitiveAttr::categorical(inputs.sensitive.as_str())],
        );
        let enc_a = space.encode_table(&ta);
        let enc_b = space.encode_table(&tb);
        let mut quarantine = qa;
        quarantine.extend(qb);
        Ok::<_, String>((ta, tb, space, enc_a, enc_b, quarantine))
    })?;
    let (ta, tb, space, enc_a, enc_b, mut quarantine) = imported;

    let token = config.cancel.child(config.budget);
    let mem = MemTracker::with_budget(config.mem_budget);
    let mut cx = Ctx {
        pool: WorkerPool::with_parallelism(config.parallelism),
        token: token.clone(),
        mem: mem.clone(),
        facts: Facts::default(),
    };
    let blocker = TimedBlocker {
        inner: default_blocker(&config.prep),
        calls: Mutex::new(Vec::new()),
    };
    let exec = cx.exec();
    let prepared = tr.enter("prep.split", |tr| {
        let out = prepare_with(&ta, &tb, &matches, &config.prep, &blocker, &exec);
        if let Ok(calls) = blocker.calls.lock() {
            for &(start, end, _) in calls.iter() {
                tr.record_child("blocking", start, end);
            }
        }
        out
    });
    let (prepared, prep_quarantine) = prepared.map_err(|e| e.to_string())?;
    quarantine.extend(prep_quarantine);
    cx.facts.pairs_kept = prepared.pairs.len() as u64;
    cx.facts.candidates = blocker
        .calls
        .lock()
        .map_or(0, |c| c.iter().map(|&(_, _, n)| n as u64).sum());

    let exclude: Vec<String> = space.attrs().iter().map(|a| a.column.clone()).collect();
    let exclude_refs: Vec<&str> = exclude.iter().map(String::as_str).collect();
    let features = tr.enter("features.build", |_| {
        FeatureGenerator::build(&ta, &tb, &exclude_refs)
    });
    let vocab = HashVocab::new(config.vocab_size);

    let (train_pairs, train_labels) = prepared.split(&prepared.train_idx);
    let train_x = cx.matrix(tr, &features, &train_pairs)?;
    mem.try_hold(features.matrix_cost(train_pairs.len()))
        .map_err(|m| m.to_string())?
        .persist();
    let train_tokens = tr.enter("features.tokenize", |_| {
        features.tokenize_all(&PairBatch::new(&train_pairs), &vocab)
    });
    let input = TrainInput {
        features: &train_x,
        tokens: &train_tokens,
        labels: &train_labels,
    };
    let mut registries = Vec::new();
    let mut failures = Vec::new();
    for kind in FLEET {
        let (registry, lost) = tr.enter(train_span(kind), |_| {
            MatcherRegistry::train_isolated(
                &[kind],
                &input,
                &config.train,
                &config.fault,
                &cx.pool,
                &token,
                config.matcher_budget,
            )
        });
        registries.push(registry);
        failures.extend(lost);
    }
    let fleet: Vec<&TrainedMatcher> = registries.iter().flat_map(|r| r.iter()).collect();
    let mut featurized = train_pairs.clone();
    let auditor = auditor();
    let threshold = config.matching_threshold;

    let (report, test_pairs) = if spec.sharded() {
        let (test_pairs, test_labels) = prepared.split(&prepared.test_idx);
        featurized.extend_from_slice(&test_pairs);
        let dir = checkpoint_dir.ok_or("the sharded op needs a checkpoint directory")?;
        let plan = ShardPlan::partition(test_pairs.len(), spec.shards);
        let key = fnv1a64(format!("perfbench|{}|{}", inputs.len(), plan.len()).as_bytes());
        let store = tr
            .enter("ckpt.open", |_| {
                CheckpointStore::open(dir, key, plan.len(), false)
            })
            .map_err(|e| e.to_string())?;
        let names: Vec<String> = fleet.iter().map(|m| m.name().to_owned()).collect();
        let mut merged: Vec<PairCounts> = fleet.iter().map(|_| PairCounts::new()).collect();
        let per_pair = 2 * features.matrix_cost(1);
        for shard in plan.shards() {
            let shard_span = tr.open("shard");
            let mut rec = ShardRecord {
                matchers: names
                    .iter()
                    .map(|n| (n.clone(), PairCounts::new()))
                    .collect(),
                clamped: 0,
            };
            let mut start = shard.start;
            while start < shard.end {
                let window = window_len(shard.end - start, mem.headroom(), per_pair);
                let end = (start + window).min(shard.end);
                let (pairs, labels) = (&test_pairs[start..end], &test_labels[start..end]);
                let window_span = tr.open("shard.window");
                let x = cx.matrix(tr, &features, pairs)?;
                let tokens = tr.enter("features.tokenize", |_| {
                    features.tokenize_all(&PairBatch::new(pairs), &vocab)
                });
                let scored = cx.score(tr, &fleet, &x, &tokens, config.matcher_budget);
                tr.enter("shard.record", |_| {
                    for (i, s) in scored.iter().enumerate() {
                        let Ok(s) = s else { continue };
                        let counts = &mut rec.matchers[i].1;
                        for ((&(ra, rb), &y), &score) in pairs.iter().zip(labels).zip(s) {
                            counts.record(enc_a[ra], enc_b[rb], score >= threshold, y == 1.0);
                        }
                    }
                });
                tr.close(window_span);
                if let Some(e) = scored.into_iter().find_map(Result::err) {
                    return Err(format!("scoring failed: {e}"));
                }
                start = end;
            }
            tr.enter("shard.merge", |_| {
                for (acc, (_, counts)) in merged.iter_mut().zip(&rec.matchers) {
                    acc.merge(counts);
                }
            });
            tr.enter("ckpt.write", |_| store.store_shard(shard.index, &rec))
                .map_err(|e| e.to_string())?;
            tr.close(shard_span);
            cx.facts.shards += 1;
        }
        cx.facts.ckpt_bytes = crate::sys::dir_bytes(dir);
        let reports: Vec<AuditReport> = tr.enter("audit", |_| {
            names
                .iter()
                .zip(&merged)
                .map(|(n, counts)| {
                    let mut r = auditor.audit_counts(n, counts, threshold, &space);
                    r.degraded = failures.clone();
                    r
                })
                .collect()
        });
        cx.facts.audit_entries = reports.iter().map(|r| r.entries.len() as u64).sum();
        let coverage = (names.len(), names.len() + failures.len());
        let clamped = cx.facts.clamped as usize;
        let report = tr.enter("report", |_| {
            render(
                &reports,
                &quarantine,
                &failures,
                coverage,
                clamped,
                None,
                names.len(),
            )
        });
        (report, test_pairs)
    } else {
        let (valid_pairs, _) = prepared.split(&prepared.valid_idx);
        let _valid_x = cx.matrix(tr, &features, &valid_pairs)?;
        mem.try_hold(features.matrix_cost(valid_pairs.len()))
            .map_err(|m| m.to_string())?
            .persist();
        let _valid_tokens = tr.enter("features.tokenize", |_| {
            features.tokenize_all(&PairBatch::new(&valid_pairs), &vocab)
        });
        featurized.extend_from_slice(&valid_pairs);
        let (test_pairs, test_labels) = prepared.split(&prepared.test_idx);
        featurized.extend_from_slice(&test_pairs);
        let test_x = cx.matrix(tr, &features, &test_pairs)?;
        mem.try_hold(features.matrix_cost(test_pairs.len()))
            .map_err(|m| m.to_string())?
            .persist();
        let test_tokens = tr.enter("features.tokenize", |_| {
            features.tokenize_all(&PairBatch::new(&test_pairs), &vocab)
        });
        let scored = cx.score(tr, &fleet, &test_x, &test_tokens, config.matcher_budget);
        let mut scores: Vec<(String, Vec<f64>)> = Vec::new();
        for (m, s) in fleet.iter().zip(scored) {
            match s {
                Ok(s) => scores.push((m.name().to_owned(), s)),
                Err(e) => failures.push(MatcherFailure::panicked(m.name(), Stage::Score, e)),
            }
        }
        cx.facts.shards = 1;
        let build = |s: &[f64]| workload(&test_pairs, &test_labels, s, &enc_a, &enc_b, threshold);
        let outcome = tr.enter("audit", |_| {
            cx.pool.par_map_within(scores.len(), &token, |i| {
                let mut r = auditor.audit(&scores[i].0, &build(&scores[i].1), &space);
                r.degraded = failures.clone();
                r
            })
        });
        let (reports, interrupt) = match outcome {
            ParOutcome::Complete(r) => (r, None),
            ParOutcome::Interrupted {
                done, interrupt, ..
            } => (done, Some(interrupt)),
        };
        cx.facts.audit_entries = reports.iter().map(|r| r.entries.len() as u64).sum();
        let (frontier, assignments) = tr.enter("ensemble", |_| {
            let groups = space.level1_of_attr(0);
            let workloads: Vec<(String, Workload)> =
                scores.iter().map(|(n, s)| (n.clone(), build(s))).collect();
            let refs: Vec<(String, &Workload)> =
                workloads.iter().map(|(n, w)| (n.clone(), w)).collect();
            let explorer = EnsembleExplorer::build(
                &refs,
                &space,
                &groups,
                FairnessMeasure::AccuracyParity,
                Disparity::Subtraction,
            )
            .with_parallelism(config.parallelism)
            .with_cancel(token.clone());
            let assignments =
                (explorer.matchers().len() as u64).pow(explorer.groups().len() as u32);
            (explorer.try_pareto_frontier().0, assignments)
        });
        cx.facts.assignments = assignments;
        let coverage = (scores.len(), scores.len() + failures.len());
        let clamped = cx.facts.clamped as usize;
        let report = tr.enter("report", |_| {
            let mut text = render(
                &reports,
                &quarantine,
                &failures,
                coverage,
                clamped,
                interrupt.as_ref(),
                scores.len(),
            );
            text.push_str(&render_frontier(&frontier));
            text
        });
        (report, test_pairs)
    };
    tr.close(op);

    let truth: Vec<(usize, usize)> = matches
        .iter()
        .filter_map(|(ia, ib)| Some((ta.row_of(ia)?, tb.row_of(ib)?)))
        .collect();
    let all_candidates = blocker.inner.candidates(&ta, &tb, &Exec::sequential());
    let mut facts = cx.facts;
    facts.recall = blocking_recall(&all_candidates, &truth);
    facts.mem_peak = mem.peak();
    Ok(Replay {
        report,
        facts,
        tables: (ta, tb),
        exclude,
        featurized,
        test_pairs,
        features,
    })
}

/// Per-measure kernel times: `fairem_text::measure_cells` (and the
/// TF-IDF cosine) over `pairs` on every text column the feature battery
/// aligns, single-threaded, in milliseconds. Column preparation is
/// untimed.
pub fn kernel_ms(replay: &Replay) -> Vec<(&'static str, f64)> {
    let (a, b) = &replay.tables;
    let mut interner = TokenInterner::new();
    let mut cols: Vec<(PreparedColumn, PreparedColumn)> = Vec::new();
    for (ca, name) in a.columns().iter().enumerate() {
        if name == "id" || replay.exclude.contains(name) {
            continue;
        }
        let Some(cb) = b.column_index(name) else {
            continue;
        };
        if all_numeric(a, ca) && all_numeric(b, cb) {
            continue;
        }
        let pa = PreparedColumn::prepare((0..a.len()).map(|r| a.value(r, ca)), &mut interner);
        let pb = PreparedColumn::prepare((0..b.len()).map(|r| b.value(r, cb)), &mut interner);
        cols.push((pa, pb));
    }
    let mut df: Vec<u32> = Vec::new();
    let mut n_docs = 0usize;
    for (pa, pb) in &cols {
        n_docs += pa.accumulate_doc_freq(&mut df);
        n_docs += pb.accumulate_doc_freq(&mut df);
    }
    df.resize(interner.len(), 0);
    let rank = interner.string_ranks();
    for (pa, pb) in &mut cols {
        pa.finish_tfidf(&df, n_docs, &rank);
        pb.finish_tfidf(&df, n_docs, &rank);
    }
    let pairs = &replay.featurized;
    let mut out = Vec::new();
    let mut sink = 0.0f64;
    for m in TEXT_MEASURES {
        let mut scratch = SimScratch::new();
        let (s, ms) = timed(|| {
            let mut acc = 0.0;
            for (pa, pb) in &cols {
                for &(ra, rb) in pairs {
                    acc += measure_cells(m, pa, ra, pb, rb, &interner, &mut scratch);
                }
            }
            acc
        });
        sink += s;
        out.push((kernel_name(m.name()), ms));
    }
    let (s, ms) = timed(|| {
        let mut acc = 0.0;
        for (pa, pb) in &cols {
            for &(ra, rb) in pairs {
                acc += tfidf_cosine_cells(pa, ra, pb, rb);
            }
        }
        acc
    });
    sink += s;
    out.push(("features.kernel_ms.tfidf_cos", ms));
    std::hint::black_box(sink);
    out
}

fn kernel_name(short: &str) -> &'static str {
    match short {
        "lev" => "features.kernel_ms.lev",
        "jw" => "features.kernel_ms.jw",
        "jac_w" => "features.kernel_ms.jac_w",
        "jac_3g" => "features.kernel_ms.jac_3g",
        "me_jw" => "features.kernel_ms.me_jw",
        "cos_w" => "features.kernel_ms.cos_w",
        _ => "features.kernel_ms.other",
    }
}

/// The feature builder's numeric-column test: every cell empty or a
/// parseable number.
fn all_numeric(t: &Table, col: usize) -> bool {
    !t.is_empty()
        && (0..t.len()).all(|r| {
            let v = t.value(r, col);
            v.is_empty() || v.parse::<f64>().is_ok()
        })
}

/// `FeatureGenerator::matrix` over the test pairs on `WorkerPool::new(1)`
/// and `new(2)`: the median one-worker time over the median two-worker
/// time, three runs each in alternating order, so that neither the
/// first run's page faults nor host drift favour one side.
pub fn par_speedup(replay: &Replay) -> Result<f64, String> {
    let run = |workers: usize| {
        let exec = Exec::with_pool(WorkerPool::new(workers));
        let (out, ms) = timed(|| {
            replay
                .features
                .try_matrix(&PairBatch::new(&replay.test_pairs), &exec)
        });
        match out {
            Ok(ParOutcome::Complete(_)) => Ok(ms),
            _ => Err("feature matrix failed in the speed-up probe".to_owned()),
        }
    };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for one_first in [true, false, true] {
        if one_first {
            one.push(run(1)?);
            two.push(run(2)?);
        } else {
            two.push(run(2)?);
            one.push(run(1)?);
        }
    }
    let (one, two) = (median(&one), median(&two));
    Ok(if two > 0.0 { one / two } else { 0.0 })
}
