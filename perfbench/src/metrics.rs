//! The metric catalogue (names and units exactly as `BENCHMARK.json`
//! lists them) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("report_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload does
/// not go through reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("fleet.engine.new_s", "s"),
    ("fleet.engine.slice_s", "s"),
    ("fleet.engine.report_call_s", "s"),
    ("fleet.engine.events", "count"),
    ("fleet.engine.ns_per_event", "ns"),
    ("fleet.metrics.timeline_prepass_s", "s"),
    ("fleet.metrics.shard_slice_s", "s"),
    ("fleet.metrics.report_merge_s", "s"),
    ("fleet.wheel.advances", "count"),
    ("fleet.wheel.ticks_skipped", "count"),
    ("fleet.wheel.round_batches", "count"),
    ("chronos.core.pool_queries", "count"),
    ("chronos.core.polls", "count"),
    ("chronos.core.accepts", "count"),
    ("chronos.core.rejects", "count"),
    ("chronos.core.panics", "count"),
    ("chronos.core.accept_ratio", "ratio"),
    ("chronos.core.rekeys", "count"),
    ("chronos.core.captured_associations", "count"),
    ("chronos.core.detected_inconsistencies", "count"),
    ("chronos.core.ntp_losses", "count"),
    ("chronos.core.dns_servfails", "count"),
    ("chronos.core.stale_served", "count"),
    ("chronos.core.boot_retries", "count"),
    ("fleet.checkpoint.encode_s", "s"),
    ("fleet.checkpoint.bytes", "bytes"),
    ("fleet.checkpoint.restore_s", "s"),
    ("chronosd.jobs.submit_s", "s"),
    ("chronosd.jobs.slices", "count"),
    ("chronosd.daemon.checkpoint_request_s", "s"),
    ("chronosd.daemon.resume_request_s", "s"),
    ("chronosd.daemon.report_request_s", "s"),
    ("chronosd.daemon.status_s", "s"),
    ("chronosd.daemon.overhead_x", "x"),
    ("chronosd.state.sync_s", "s"),
    ("chronosd.state.manifest_bytes", "bytes"),
    ("chronosd.render.report_json_s", "s"),
    ("trace.unexplained_s", "s"),
    ("trace.overhead_x", "x"),
];

/// Renders a finite number as JSON (non-finite values become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics in
/// catalogue order. `values` must hold every catalogue name.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_shaped() {
        let mut values = BTreeMap::new();
        values.insert("report_s", 1.25);
        values.insert("setup_s", 0.5);
        values.insert("peak_rss_mb", 40.0);
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"report_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 40, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn missing_values_render_null() {
        let line = result_line(false, 1, 1, &END_TO_END, &BTreeMap::new());
        assert!(line.contains("\"report_s\": {\"value\": null"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
