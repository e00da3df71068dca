//! Metric names and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! per-layer table of `perfbench/README.md` says which layer each
//! per-layer metric belongs to and which end-to-end metric it should move.

use crate::host::json_str;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("docs_per_s", "1/s"),
    ("doc_p99_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xpath.parse_us_per_sub", "us"),
    ("xml.parse_us_per_doc", "us"),
    ("xml.bytes_per_doc", "B"),
    ("predicate.us_per_doc", "us"),
    ("stage2.us_per_doc", "us"),
    ("stage2.occurrence_runs", "1/doc"),
    ("stage2.posting_bumps", "1/doc"),
    ("stage2.ap_root_probes", "1/doc"),
    ("stage2.memo_path_skips", "1/doc"),
    ("stage2.matches_per_occurrence_run", "ratio"),
    ("collect.us_per_doc", "us"),
    ("collect.matches_per_doc", "1/doc"),
    ("compile.dedup_hits", "count"),
    ("compile.covered_skips", "1/doc"),
    ("compile.effective_per_registered", "ratio"),
    ("maint.add_us_per_sub", "us"),
    ("maint.prepare_ms", "ms"),
    ("maint.patch_us_per_op", "us"),
    ("maint.full_rebuilds", "count"),
    ("maint.index_bytes_per_sub", "B"),
    ("maint.us_per_doc", "us"),
    ("maint.write_p99_us", "us"),
    ("snapshot.publish_us_p99", "us"),
    ("snapshot.clone_fallbacks", "count"),
    ("snapshot.us_per_doc", "us"),
    ("broker.delivery_p50_ms", "ms"),
    ("broker.sub_ack_p99_ms", "ms"),
    ("broker.doc_ack_p99_ms", "ms"),
    ("broker.overhead_p50_ms", "ms"),
    ("broker.match_bytes_per_doc", "B"),
    ("broker.cpu_ms_per_doc", "ms"),
    ("broker.backlog_docs", "count"),
    ("broker.shed", "count"),
    ("broker.dropped", "count"),
    ("broker.fifo_violations", "count"),
    ("client.gen_lag_ms_p99", "ms"),
    ("client.cpu_ms_per_doc", "ms"),
    ("trace.wall_us_per_doc", "us"),
    ("trace.unattributed_us_per_doc", "us"),
    ("trace.overhead_us_per_doc", "us"),
];

/// What one run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: documents, writes and subscription commands.
    pub attempted: u64,
    /// Operations that failed: wrong or missing match sets, error
    /// replies, FIFO violations, shed or dropped deliveries.
    pub failed: u64,
    /// One line per failed check, for the log.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation and keeps the first few explanations.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why());
        }
    }

    /// Adds another outcome's operation and failure counts to this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }

    /// Prints the human-readable table (stderr) and the result line
    /// (stdout, last line). Returns whether the run was correct.
    pub fn print(&self, trace: bool) -> bool {
        for p in &self.problems {
            eprintln!("FAILED: {p}");
        }
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        let mut unmeasurable = false;
        for &(name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            // A latency over a document that never came back is infinite:
            // the run is wrong, and JSON has no infinity.
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("FAILED: {name} is not finite");
                unmeasurable = true;
                0.0
            };
            eprintln!("  {name:<36} {value:>14.4} {unit}");
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        let correct = self.failed == 0 && !unmeasurable;
        eprintln!(
            "  attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json beside the package")
            .split_whitespace()
            .collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) is not in BENCHMARK.json"
            );
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
