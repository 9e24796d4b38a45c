//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! declares the same names (a self-test keeps the two in step).

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every run with `--trace 1`. A layer
/// the workload's op never reaches reads 0 (see the notes for which).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("csvio.parse_ms", "ms"),
    ("prep.import_ms", "ms"),
    ("prep.split_ms", "ms"),
    ("prep.pairs_kept", "count"),
    ("blocking.ms", "ms"),
    ("blocking.candidates", "count"),
    ("blocking.kept_ratio", "ratio"),
    ("blocking.recall", "ratio"),
    ("features.build_ms", "ms"),
    ("features.matrix_ms", "ms"),
    ("features.pairs", "count"),
    ("features.ns_per_pair", "ns"),
    ("features.tokenize_ms", "ms"),
    ("features.kernel_ms.lev", "ms"),
    ("features.kernel_ms.jw", "ms"),
    ("features.kernel_ms.jac_w", "ms"),
    ("features.kernel_ms.jac_3g", "ms"),
    ("features.kernel_ms.me_jw", "ms"),
    ("features.kernel_ms.cos_w", "ms"),
    ("features.kernel_ms.tfidf_cos", "ms"),
    ("matcher.train_ms.DTMatcher", "ms"),
    ("matcher.train_ms.RFMatcher", "ms"),
    ("matcher.train_ms.LinRegMatcher", "ms"),
    ("matcher.score_ms", "ms"),
    ("matcher.tune_ms", "ms"),
    ("audit.ms", "ms"),
    ("audit.entries", "count"),
    ("calib.fit_ms", "ms"),
    ("calib.distribution_ms", "ms"),
    ("ensemble.ms", "ms"),
    ("ensemble.assignments", "count"),
    ("report.ms", "ms"),
    ("shard.count", "count"),
    ("shard.window_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("par.regions", "count"),
    ("par.chunks", "count"),
    ("par.speedup", "ratio"),
    ("mem.accounted_mb", "MiB"),
    ("serve.verb_p50_ms.ping", "ms"),
    ("serve.verb_p50_ms.open", "ms"),
    ("serve.verb_p50_ms.audit", "ms"),
    ("serve.verb_p50_ms.audit_one", "ms"),
    ("serve.verb_p50_ms.audit_sharded", "ms"),
    ("serve.verb_p50_ms.tune_threshold", "ms"),
    ("serve.verb_p50_ms.ensemble", "ms"),
    ("serve.verb_p50_ms.calibrate", "ms"),
    ("serve.frame_us", "us"),
    ("serve.reply_ms", "ms"),
    ("serve.open_ms", "ms"),
    ("serve.reply_bytes", "bytes"),
    ("obs.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.replay_p50_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("wall.op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("op.samples", "count"),
    ("digest.match", "count"),
];

/// Metric values by name, in insertion order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `table` (0 for a metric the run did not set), as one JSON object.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
