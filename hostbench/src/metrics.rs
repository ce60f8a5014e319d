//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A metric
/// that a workload does not exercise reads 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.ns_per_step", "ns"),
    ("sim.kernel_steps", "count"),
    ("sim.cycles_skipped", "count"),
    ("sim.cycles", "cycles"),
    ("sim.assemble_s", "s"),
    ("sim.stats_json_s", "s"),
    ("core.walks", "count"),
    ("core.ldpt_reads", "count"),
    ("core.softpwb_wait_cycles", "cycles"),
    ("core.fill_replays", "count"),
    ("core.dispatched", "count"),
    ("core.dispatch_blocked", "count"),
    ("core.select_ns", "ns"),
    ("ptw.walks", "count"),
    ("ptw.queue_cycles_mean", "cycles"),
    ("ptw.access_cycles_mean", "cycles"),
    ("tlb.l1_hits", "count"),
    ("tlb.l1_misses", "count"),
    ("tlb.l2_fresh_misses", "count"),
    ("tlb.l2_mshr_failure_events", "count"),
    ("tlb.in_tlb_allocations", "count"),
    ("tlb.in_tlb_merges", "count"),
    ("tlb.replay_ns_per_access", "ns"),
    ("pt.prebuild_s", "s"),
    ("pt.pages_mapped", "count"),
    ("pt.pwc_hits", "count"),
    ("pt.pwc_misses", "count"),
    ("pt.translate_ns", "ns"),
    ("pt.major_faults", "count"),
    ("pt.evictions", "count"),
    ("pt.resident_peak", "count"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2d_accesses", "count"),
    ("mem.l2d_misses", "count"),
    ("mem.dram_requests", "count"),
    ("mem.dram_busy_cycles", "cycles"),
    ("sm.instructions", "count"),
    ("sm.mem_stall_cycles", "cycles"),
    ("sm.idle_cycles", "cycles"),
    ("sm.l1_mshr_failures", "count"),
    ("workloads.instrs", "count"),
    ("workloads.distinct_pages", "count"),
    ("workloads.gen_ns_per_instr", "ns"),
    ("obs.armed_run_ratio", "ratio"),
    ("obs.armed_run_s", "s"),
    ("obs.unarmed_run_s", "s"),
    ("obs.swtb_bytes", "B"),
    ("bench.cells_simulated", "count"),
    ("bench.disk_hits", "count"),
    ("bench.prebuilds_built", "count"),
    ("bench.prebuilds_reused", "count"),
    ("bench.pool_utilization", "ratio"),
    ("bench.pool_busy_s", "s"),
    ("bench.pool_capacity_s", "s"),
    ("bench.artifact_bytes", "B"),
    ("bench.warm_resolve_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("self.hostbench_s", "s"),
    ("self.workloads_s", "s"),
    ("self.pt_s", "s"),
    ("self.sim_s", "s"),
    ("self.core_s", "s"),
    ("self.tlb_s", "s"),
    ("self.obs_s", "s"),
    ("self.bench_s", "s"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: cells simulated or resolved, with checks.
    pub attempted: u64,
    /// Operations that panicked, that the runner reported failed, or
    /// round trips of the stats JSON that lost counters.
    pub failed: u64,
    /// Check failures among the operations that did not fail.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: Values,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `names`, in order.
pub fn result_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.errors.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Repeats `rep`, which returns one repetition's set-up seconds, at
/// least 5 times and until `budget_s` of set-up has run (at most 1000
/// times), so that even sub-millisecond set-ups give a steady median.
pub fn repeat_setup(budget_s: f64, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let mut reps = Vec::new();
    let mut spent = 0.0;
    while reps.len() < 5 || (spent < budget_s && reps.len() < 1000) {
        let s = rep();
        spent += s;
        reps.push(s);
    }
    reps
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_obs::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        assert_eq!(names(&doc, "per_layer"), layer);
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.values.insert("wall_s", 1.25);
        let line = result_line(&o, END_TO_END);
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
