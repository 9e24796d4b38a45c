//! The matcher fleet (paper §2.2, "Training Matchers"): ten integrated
//! matchers — six non-neural (the Magellan family) and four neural Lite
//! models — behind one trait, plus the external-score path used by the
//! Evaluation-Only flow.
//!
//! In the original system each matcher runs in its own Docker container;
//! here the same role is played by [`MatcherKind::train`], which builds a
//! self-contained [`TrainedMatcher`] from the shared pair representation.

use std::collections::HashMap;

use fairem_ml::{
    Classifier, DecisionTree, GaussianNb, LinearRegression, LinearSvm, LogisticRegression, Matrix,
    RandomForest, StandardScaler,
};
use fairem_neural::{
    DeepMatcherLite, DittoLite, HierMatcherLite, McanLite, NeuralMatcher, TokenPair, TrainConfig,
};

use fairem_obs::SpanStatus;
use fairem_par::{Budget, CancelToken, Interrupt, WorkerPool};

use crate::error::Stage;
use crate::fault::{FaultPlan, FaultSite};

/// The ten integrated matchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatcherKind {
    /// Decision-tree matcher (Magellan).
    DtMatcher,
    /// Linear SVM matcher (Magellan).
    SvmMatcher,
    /// Random-forest matcher (Magellan).
    RfMatcher,
    /// Logistic-regression matcher (Magellan).
    LogRegMatcher,
    /// Linear-regression matcher (Magellan) — uncalibrated scores.
    LinRegMatcher,
    /// Gaussian naive-Bayes matcher (Magellan).
    NbMatcher,
    /// DeepMatcher (attribute summarize-and-compare), Lite reproduction.
    DeepMatcher,
    /// Ditto (serialized-sequence LM matcher), Lite reproduction.
    Ditto,
    /// HierMatcher (hierarchical token alignment), Lite reproduction.
    HierMatcher,
    /// MCAN (multi-context attention), Lite reproduction.
    Mcan,
}

impl MatcherKind {
    /// All ten matchers in reporting order.
    pub const ALL: [MatcherKind; 10] = [
        MatcherKind::DtMatcher,
        MatcherKind::SvmMatcher,
        MatcherKind::RfMatcher,
        MatcherKind::LogRegMatcher,
        MatcherKind::LinRegMatcher,
        MatcherKind::NbMatcher,
        MatcherKind::DeepMatcher,
        MatcherKind::Ditto,
        MatcherKind::HierMatcher,
        MatcherKind::Mcan,
    ];

    /// The six non-neural matchers.
    pub const NON_NEURAL: [MatcherKind; 6] = [
        MatcherKind::DtMatcher,
        MatcherKind::SvmMatcher,
        MatcherKind::RfMatcher,
        MatcherKind::LogRegMatcher,
        MatcherKind::LinRegMatcher,
        MatcherKind::NbMatcher,
    ];

    /// The four neural matchers.
    pub const NEURAL: [MatcherKind; 4] = [
        MatcherKind::DeepMatcher,
        MatcherKind::Ditto,
        MatcherKind::HierMatcher,
        MatcherKind::Mcan,
    ];

    /// Stable display name (matches the paper's naming).
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::DtMatcher => "DTMatcher",
            MatcherKind::SvmMatcher => "SVMMatcher",
            MatcherKind::RfMatcher => "RFMatcher",
            MatcherKind::LogRegMatcher => "LogRegMatcher",
            MatcherKind::LinRegMatcher => "LinRegMatcher",
            MatcherKind::NbMatcher => "NBMatcher",
            MatcherKind::DeepMatcher => "DeepMatcher",
            MatcherKind::Ditto => "Ditto",
            MatcherKind::HierMatcher => "HierMatcher",
            MatcherKind::Mcan => "MCAN",
        }
    }

    /// Is this one of the neural matchers?
    pub fn is_neural(self) -> bool {
        MatcherKind::NEURAL.contains(&self)
    }

    /// Short description (the demo's matcher-card hover text).
    pub fn description(self) -> &'static str {
        match self {
            MatcherKind::DtMatcher => "CART decision tree over similarity features",
            MatcherKind::SvmMatcher => "linear SVM (Pegasos) over similarity features",
            MatcherKind::RfMatcher => "random forest over similarity features",
            MatcherKind::LogRegMatcher => "logistic regression over similarity features",
            MatcherKind::LinRegMatcher => {
                "linear regression over similarity features (uncalibrated scores)"
            }
            MatcherKind::NbMatcher => "Gaussian naive Bayes over similarity features",
            MatcherKind::DeepMatcher => "attribute summarize-and-compare neural matcher",
            MatcherKind::Ditto => "serialized-sequence neural matcher with self-attention",
            MatcherKind::HierMatcher => "hierarchical token-alignment neural matcher",
            MatcherKind::Mcan => "multi-context attention neural matcher with gated fusion",
        }
    }

    /// Train this matcher on the shared pair representation.
    pub fn train(self, input: &TrainInput<'_>, config: &MatcherTrainConfig) -> TrainedMatcher {
        match self.train_within(input, config, &CancelToken::inert()) {
            Ok(m) => m,
            // fairem: allow(panic) — an inert token never trips; Err is unreachable by construction
            Err(i) => unreachable!("inert token interrupted training: {i}"),
        }
    }

    /// Cancellable [`MatcherKind::train`]: the trainers poll `token` at
    /// their checkpoint granularity (per epoch / tree / round for the
    /// classic models, per example step for the neural ones) and bail
    /// with the [`Interrupt`] record when it trips. With an untripped
    /// token the trained model is bit-for-bit the `train` output.
    pub fn train_within(
        self,
        input: &TrainInput<'_>,
        config: &MatcherTrainConfig,
        token: &CancelToken,
    ) -> Result<TrainedMatcher, Interrupt> {
        let imp = if self.is_neural() {
            let mut model: Box<dyn NeuralMatcher + Send + Sync> = match self {
                MatcherKind::DeepMatcher => Box::new(DeepMatcherLite::new(config.neural)),
                MatcherKind::Ditto => {
                    // Ditto-Lite converges more slowly (no built-in
                    // comparison structure); give it extra passes.
                    let cfg = TrainConfig {
                        epochs: config.neural.epochs * 2,
                        ..config.neural
                    };
                    Box::new(DittoLite::new(cfg))
                }
                MatcherKind::HierMatcher => Box::new(HierMatcherLite::new(config.neural)),
                MatcherKind::Mcan => Box::new(McanLite::new(config.neural)),
                // fairem: allow(panic) — branch guarded by kind.is_neural() just above
                _ => unreachable!("non-neural kind in neural branch"),
            };
            model.fit_within(input.tokens, input.labels, token)?;
            Imp::Neural(model)
        } else {
            let scaler = StandardScaler::fit(input.features);
            let x = scaler.transform(input.features);
            let mut model: Box<dyn Classifier + Send + Sync> = match self {
                MatcherKind::DtMatcher => Box::new(DecisionTree::new(8, 4)),
                MatcherKind::SvmMatcher => Box::new(LinearSvm::new(1e-3, 30, config.seed)),
                MatcherKind::RfMatcher => Box::new(RandomForest::new(30, 8, config.seed)),
                MatcherKind::LogRegMatcher => Box::new(LogisticRegression::new(0.5, 300, 1e-4)),
                MatcherKind::LinRegMatcher => Box::new(LinearRegression::new(1e-6)),
                MatcherKind::NbMatcher => Box::new(GaussianNb::new()),
                // fairem: allow(panic) — branch guarded by !kind.is_neural() just above
                _ => unreachable!("neural kind in classic branch"),
            };
            model.fit_within(&x, input.labels, token)?;
            Imp::Classic { model, scaler }
        };
        Ok(TrainedMatcher { kind: self, imp })
    }
}

impl std::fmt::Display for MatcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MatcherKind {
    type Err = UnknownMatcher;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MatcherKind::ALL
            .iter()
            .copied()
            .find(|m| m.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| UnknownMatcher(s.to_owned()))
    }
}

/// Error for unknown matcher names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMatcher(pub String);

impl std::fmt::Display for UnknownMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown matcher: {:?}", self.0)
    }
}

impl std::error::Error for UnknownMatcher {}

/// Training input: the feature matrix and tokenized pairs describe the
/// *same* pair list, aligned by index, with shared labels.
#[derive(Debug)]
pub struct TrainInput<'a> {
    /// Similarity feature matrix (one row per pair).
    pub features: &'a Matrix,
    /// Tokenized pairs (for the neural matchers).
    pub tokens: &'a [TokenPair],
    /// Binary labels aligned with both representations.
    pub labels: &'a [f64],
}

/// Hyperparameters for training.
#[derive(Debug, Clone, Copy)]
pub struct MatcherTrainConfig {
    /// Neural model configuration.
    pub neural: TrainConfig,
    /// Seed for the stochastic classic matchers (SVM, RF).
    pub seed: u64,
}

impl Default for MatcherTrainConfig {
    fn default() -> MatcherTrainConfig {
        MatcherTrainConfig {
            neural: TrainConfig::default(),
            seed: 13,
        }
    }
}

impl MatcherTrainConfig {
    /// A reduced configuration for fast tests.
    pub fn fast() -> MatcherTrainConfig {
        MatcherTrainConfig {
            neural: TrainConfig::fast(),
            seed: 13,
        }
    }
}

/// One pair in both representations, borrowed for scoring.
#[derive(Debug, Clone, Copy)]
pub struct PairRepr<'a> {
    /// Similarity feature vector.
    pub features: &'a [f64],
    /// Tokenized form.
    pub tokens: &'a TokenPair,
}

/// Anything that can score a record pair. Implemented by
/// [`TrainedMatcher`] and [`ExternalScores`]-backed adapters.
pub trait Matcher {
    /// Display name used in audit reports.
    fn name(&self) -> &str;

    /// Match score in `[0, 1]`.
    fn score(&self, pair: PairRepr<'_>) -> f64;

    /// Scores for a batch of pairs in both representations.
    fn score_batch(&self, features: &Matrix, tokens: &[TokenPair]) -> Vec<f64> {
        assert_eq!(features.rows(), tokens.len(), "representation misalignment");
        (0..features.rows())
            .map(|i| {
                self.score(PairRepr {
                    features: features.row(i),
                    tokens: &tokens[i],
                })
            })
            .collect()
    }
}

enum Imp {
    Classic {
        model: Box<dyn Classifier + Send + Sync>,
        scaler: StandardScaler,
    },
    Neural(Box<dyn NeuralMatcher + Send + Sync>),
}

impl std::fmt::Debug for Imp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Imp::Classic { .. } => f.write_str("Imp::Classic"),
            Imp::Neural(_) => f.write_str("Imp::Neural"),
        }
    }
}

/// A trained integrated matcher.
#[derive(Debug)]
pub struct TrainedMatcher {
    kind: MatcherKind,
    imp: Imp,
}

impl TrainedMatcher {
    /// Which integrated matcher this is.
    pub fn kind(&self) -> MatcherKind {
        self.kind
    }

    /// The trainer's cooperative-cancel checkpoint granularity (e.g.
    /// `"per-epoch"` for logistic regression, `"per-example"` for the
    /// neural models) — surfaced in train-span annotations so a cut
    /// record names the unit of work that was abandoned.
    pub fn step_unit(&self) -> &'static str {
        match &self.imp {
            Imp::Classic { model, .. } => model.step_unit(),
            Imp::Neural(model) => model.step_unit(),
        }
    }
}

impl Matcher for TrainedMatcher {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn score(&self, pair: PairRepr<'_>) -> f64 {
        match &self.imp {
            Imp::Classic { model, scaler } => {
                let mut row = pair.features.to_vec();
                scaler.transform_row(&mut row);
                model.score_one(&row)
            }
            Imp::Neural(model) => model.score(pair.tokens),
        }
    }

    /// Each model reads one representation: a classic model scores the
    /// feature rows through one reused buffer and ignores `tokens`,
    /// which may be empty; a neural model reads only `tokens`, which
    /// must align with the rows.
    fn score_batch(&self, features: &Matrix, tokens: &[TokenPair]) -> Vec<f64> {
        match &self.imp {
            Imp::Classic { model, scaler } => {
                let mut row = Vec::with_capacity(features.cols());
                (0..features.rows())
                    .map(|i| {
                        row.clear();
                        row.extend_from_slice(features.row(i));
                        scaler.transform_row(&mut row);
                        model.score_one(&row)
                    })
                    .collect()
            }
            Imp::Neural(model) => {
                assert_eq!(features.rows(), tokens.len(), "representation misalignment");
                tokens.iter().map(|t| model.score(t)).collect()
            }
        }
    }
}

/// User-provided scores for the Evaluation-Only flow: the matching was
/// already executed elsewhere, and the suite only audits the uploaded
/// `(id_a, id_b) → score` predictions.
#[derive(Debug, Clone)]
pub struct ExternalScores {
    name: String,
    scores: HashMap<(String, String), f64>,
}

impl ExternalScores {
    /// Wrap uploaded predictions under a display name.
    pub fn new(
        name: impl Into<String>,
        scores: impl IntoIterator<Item = ((String, String), f64)>,
    ) -> ExternalScores {
        ExternalScores {
            name: name.into(),
            scores: scores.into_iter().collect(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Score for an id pair; pairs the user never scored default to 0.0
    /// (predicted non-match), matching how missing predictions are
    /// treated in benchmark evaluation.
    pub fn score_ids(&self, id_a: &str, id_b: &str) -> f64 {
        self.scores
            .get(&(id_a.to_owned(), id_b.to_owned()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of uploaded predictions.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no predictions were uploaded.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// How a matcher died: an escaped panic, or a cooperative cut by a
/// budget / cancellation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The matcher panicked; the panic was contained.
    Panic,
    /// The matcher's budget expired (or the run was cancelled) and the
    /// matcher unwound cooperatively at a checkpoint.
    Interrupted(Interrupt),
}

/// One matcher's terminal failure: where it died and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatcherFailure {
    /// Display name of the matcher (e.g. `"DTMatcher"`).
    pub matcher: String,
    /// Stage the failure occurred in ([`Stage::Train`] or [`Stage::Score`]).
    pub stage: Stage,
    /// Captured panic payload / cause.
    pub reason: String,
    /// Panic vs. cooperative interruption.
    pub cause: FailureCause,
}

impl MatcherFailure {
    /// A failure from a contained panic.
    pub fn panicked(matcher: impl Into<String>, stage: Stage, reason: String) -> MatcherFailure {
        MatcherFailure {
            matcher: matcher.into(),
            stage,
            reason,
            cause: FailureCause::Panic,
        }
    }

    /// A failure from a budget expiry / cancellation. The reason text
    /// carries the interrupt's elapsed time and progress.
    pub fn interrupted(
        matcher: impl Into<String>,
        stage: Stage,
        interrupt: Interrupt,
    ) -> MatcherFailure {
        MatcherFailure {
            matcher: matcher.into(),
            stage,
            reason: interrupt.to_string(),
            cause: FailureCause::Interrupted(interrupt),
        }
    }

    /// The interrupt record, when the failure was a cooperative cut.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        match &self.cause {
            FailureCause::Panic => None,
            FailureCause::Interrupted(i) => Some(i),
        }
    }
}

impl std::fmt::Display for MatcherFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = match &self.cause {
            FailureCause::Panic => "failed",
            FailureCause::Interrupted(_) => "cut",
        };
        write!(
            f,
            "{} {verb} at {}: {}",
            self.matcher, self.stage, self.reason
        )
    }
}

/// Clamp a matcher's raw scores to the `[0, 1]` contract at the matcher
/// boundary: NaN becomes 0.0 (predicted non-match — the conservative
/// reading of "no usable evidence"), ±inf and out-of-range values clamp
/// to the nearest bound. Returns how many scores were repaired.
pub fn sanitize_scores(scores: &mut [f64]) -> usize {
    let mut repaired = 0;
    for s in scores.iter_mut() {
        if s.is_nan() {
            *s = 0.0;
            repaired += 1;
        } else if !(0.0..=1.0).contains(s) {
            *s = s.clamp(0.0, 1.0);
            repaired += 1;
        }
    }
    repaired
}

/// The trained matcher fleet (the suite's "matcher selection" step).
#[derive(Debug)]
pub struct MatcherRegistry {
    matchers: Vec<TrainedMatcher>,
}

impl MatcherRegistry {
    /// Train the given kinds on shared input, fanned out over one worker
    /// per matcher — the in-process analogue of the original system's
    /// per-container matcher fleet. Results keep the order of `kinds`;
    /// every matcher remains individually deterministic (training
    /// workers share no mutable state).
    ///
    /// # Panics
    /// If any matcher's training panics. Use [`MatcherRegistry::train_isolated`]
    /// for degraded-mode execution.
    pub fn train(
        kinds: &[MatcherKind],
        input: &TrainInput<'_>,
        config: &MatcherTrainConfig,
    ) -> MatcherRegistry {
        let pool = WorkerPool::new(kinds.len());
        let (registry, failures) = MatcherRegistry::train_isolated(
            kinds,
            input,
            config,
            &FaultPlan::default(),
            &pool,
            &CancelToken::inert(),
            Budget::UNLIMITED,
        );
        if let Some(f) = failures.first() {
            // fairem: allow(panic) — documented # Panics contract on the non-try training entrypoint
            panic!("matcher training panicked: {f}");
        }
        registry
    }

    /// Train with per-matcher panic isolation on a worker pool: each
    /// kind trains as one isolated work item, and a training panic (or
    /// an armed [`FaultPlan`] fault) removes only that matcher. Each
    /// matcher trains under its own child of `suite_token` carrying
    /// `matcher_budget`, so a budget expiry (or a suite-wide cancel)
    /// likewise removes only that matcher — with the interrupt's
    /// elapsed/progress recorded in the failure. Returns the surviving
    /// fleet (in `kinds` order, whatever the worker count) plus one
    /// [`MatcherFailure`] per casualty.
    #[allow(clippy::too_many_arguments)]
    pub fn train_isolated(
        kinds: &[MatcherKind],
        input: &TrainInput<'_>,
        config: &MatcherTrainConfig,
        plan: &FaultPlan,
        pool: &WorkerPool,
        suite_token: &CancelToken,
        matcher_budget: Budget,
    ) -> (MatcherRegistry, Vec<MatcherFailure>) {
        // The fan-out itself is not interrupted mid-fleet: every matcher
        // gets its turn, and each one's child token (which also observes
        // the suite token) decides its fate — so attribution stays
        // deterministic whatever the worker count.
        let stage = pool.recorder().span("train");
        let stage = &stage;
        let outcomes = pool.par_map_isolated(kinds.len(), |i| {
            let k = kinds[i];
            let span = stage.child(&format!("train.{}", k.name()));
            // Pessimistic status: a panic unwinds through this guard
            // before any exit path runs, so a record still reading
            // `Panicked` marks the span the panic escaped from.
            span.set_status(SpanStatus::Panicked);
            let cut = |i: &Interrupt| {
                span.set_status(SpanStatus::Cut);
                span.note(i.to_string());
            };
            let token = suite_token.child(matcher_budget);
            plan.stall_if_armed(FaultSite::Train, Some(k), &token)
                .inspect_err(&cut)?;
            plan.trip(FaultSite::Train, Some(k));
            let out = k.train_within(input, config, &token);
            match &out {
                Ok(m) => {
                    span.set_status(SpanStatus::Ok);
                    span.note(format!(
                        "{} checkpoints, {} steps",
                        m.step_unit(),
                        token.steps_done()
                    ));
                }
                Err(i) => cut(i),
            }
            out
        });
        let mut matchers = Vec::new();
        let mut failures = Vec::new();
        for (&kind, outcome) in kinds.iter().zip(outcomes) {
            match outcome {
                Ok(Ok(m)) => matchers.push(m),
                Ok(Err(interrupt)) => {
                    failures.push(MatcherFailure::interrupted(
                        kind.name(),
                        Stage::Train,
                        interrupt,
                    ));
                }
                Err(reason) => {
                    failures.push(MatcherFailure::panicked(kind.name(), Stage::Train, reason));
                }
            }
        }
        (MatcherRegistry { matchers }, failures)
    }

    /// Number of trained matchers.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }

    /// Iterate over trained matchers.
    pub fn iter(&self) -> impl Iterator<Item = &TrainedMatcher> {
        self.matchers.iter()
    }

    /// Look up a matcher by kind.
    pub fn get(&self, kind: MatcherKind) -> Option<&TrainedMatcher> {
        self.matchers.iter().find(|m| m.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_neural::HashVocab;

    /// Tiny aligned dual-representation dataset.
    fn input() -> (Matrix, Vec<TokenPair>, Vec<f64>) {
        let vocab = HashVocab::new(128);
        let mk = |l: &str, r: &str| TokenPair {
            left: vec![vocab.encode_words(l)],
            right: vec![vocab.encode_words(r)],
        };
        let mut rows = Vec::new();
        let mut tokens = Vec::new();
        let mut labels = Vec::new();
        let names = ["li wei", "john smith", "hans muller", "maria garcia"];
        for (i, n) in names.iter().enumerate() {
            // Match: high similarity features.
            rows.push(vec![0.9 - 0.02 * i as f64, 0.85]);
            tokens.push(mk(n, n));
            labels.push(1.0);
            // Non-match: low similarity.
            let other = names[(i + 1) % names.len()];
            rows.push(vec![0.15 + 0.02 * i as f64, 0.2]);
            tokens.push(mk(n, other));
            labels.push(0.0);
        }
        (Matrix::from_rows(&rows), tokens, labels)
    }

    #[test]
    fn all_ten_kinds_train_and_score() {
        let (features, tokens, labels) = input();
        let ti = TrainInput {
            features: &features,
            tokens: &tokens,
            labels: &labels,
        };
        let reg = MatcherRegistry::train(&MatcherKind::ALL, &ti, &MatcherTrainConfig::fast());
        assert_eq!(reg.len(), 10);
        for m in reg.iter() {
            let scores = m.score_batch(&features, &tokens);
            for s in &scores {
                assert!((0.0..=1.0).contains(s), "{} gave {s}", m.name());
            }
            // Every matcher should at least separate the toy classes.
            let pos: f64 = scores.iter().step_by(2).sum::<f64>() / 4.0;
            let neg: f64 = scores.iter().skip(1).step_by(2).sum::<f64>() / 4.0;
            assert!(pos > neg, "{} failed to separate: {pos} vs {neg}", m.name());
        }
    }

    #[test]
    fn batch_scores_are_the_per_pair_scores() {
        let (features, tokens, labels) = input();
        let ti = TrainInput {
            features: &features,
            tokens: &tokens,
            labels: &labels,
        };
        let kinds = [
            MatcherKind::LinRegMatcher,
            MatcherKind::RfMatcher,
            MatcherKind::DeepMatcher,
        ];
        let reg = MatcherRegistry::train(&kinds, &ti, &MatcherTrainConfig::fast());
        for m in reg.iter() {
            let per_pair: Vec<u64> = (0..features.rows())
                .map(|i| {
                    m.score(PairRepr {
                        features: features.row(i),
                        tokens: &tokens[i],
                    })
                    .to_bits()
                })
                .collect();
            let batch: Vec<u64> = m
                .score_batch(&features, &tokens)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(batch, per_pair, "{}", m.name());
            if !m.kind().is_neural() {
                // Classic models never read the tokens.
                let bare: Vec<u64> = m
                    .score_batch(&features, &[])
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(bare, per_pair, "{} without tokens", m.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "representation misalignment")]
    fn neural_batch_scoring_needs_aligned_tokens() {
        let (features, tokens, labels) = input();
        let ti = TrainInput {
            features: &features,
            tokens: &tokens,
            labels: &labels,
        };
        let reg = MatcherRegistry::train(
            &[MatcherKind::DeepMatcher],
            &ti,
            &MatcherTrainConfig::fast(),
        );
        for m in reg.iter() {
            let _ = m.score_batch(&features, &tokens[1..]);
        }
    }

    #[test]
    fn kind_metadata_is_consistent() {
        assert_eq!(MatcherKind::ALL.len(), 10);
        assert_eq!(
            MatcherKind::NON_NEURAL.len() + MatcherKind::NEURAL.len(),
            10
        );
        for k in MatcherKind::ALL {
            assert_eq!(k.is_neural(), MatcherKind::NEURAL.contains(&k));
            assert!(!k.description().is_empty());
            let parsed: MatcherKind = k.name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("Wat".parse::<MatcherKind>().is_err());
    }

    #[test]
    fn registry_lookup_by_kind() {
        let (features, tokens, labels) = input();
        let ti = TrainInput {
            features: &features,
            tokens: &tokens,
            labels: &labels,
        };
        let reg = MatcherRegistry::train(
            &[MatcherKind::DtMatcher, MatcherKind::NbMatcher],
            &ti,
            &MatcherTrainConfig::fast(),
        );
        assert!(reg.get(MatcherKind::DtMatcher).is_some());
        assert!(reg.get(MatcherKind::Mcan).is_none());
        assert_eq!(
            reg.get(MatcherKind::NbMatcher).unwrap().kind(),
            MatcherKind::NbMatcher
        );
    }

    #[test]
    fn external_scores_default_to_zero() {
        let ext = ExternalScores::new("MyMatcher", [(("a1".to_owned(), "b1".to_owned()), 0.9)]);
        assert_eq!(ext.name(), "MyMatcher");
        assert_eq!(ext.score_ids("a1", "b1"), 0.9);
        assert_eq!(ext.score_ids("a1", "b2"), 0.0);
        assert_eq!(ext.len(), 1);
        assert!(!ext.is_empty());
    }
}
