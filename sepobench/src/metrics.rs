//! Metric names and units, declared once; `BENCHMARK.json` lists the same
//! names (pinned by a test).

use crate::serve::BATCH;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Trace;
use crate::workload::Rep;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the simulator sees. Reported by
/// untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_gpu_s", "s"),
    ("sim_speedup", "x"),
    ("run_cost", "probes"),
    ("baseline_cost", "probes"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose summed self time is reported as `self_s.<name>`.
pub const SELF_TIMED: [&str; 15] = [
    "workload",
    "setup",
    "datagen.generate",
    "gpu_sim.executor_build",
    "apps.run_app",
    "apps.run_app_sharded",
    "core.sepo.iteration",
    "core.sepo.finalize",
    "core.serve.batch",
    "bench.price",
    "baselines.run",
    "apps.sharded.split",
    "core.shard.merge",
    "check.image",
    "check.verify",
];

/// Per-layer metrics, named after the crates. Reported by traced runs. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("host.run_wall_s", "s"),
    ("host.baseline_wall_s", "s"),
    ("host.probe_s", "s"),
    ("datagen.wall_s", "s"),
    ("datagen.bytes", "B"),
    ("datagen.records", "count"),
    ("gpu_sim.tasks", "count"),
    ("gpu_sim.host_ns_per_task", "ns"),
    ("gpu_sim.divergence_events", "count"),
    ("gpu_sim.sim_kernel_s", "s"),
    ("gpu_sim.sim_transfer_s", "s"),
    ("gpu_sim.sim_contention_s", "s"),
    ("gpu_sim.pcie_bulk_transfers", "count"),
    ("gpu_sim.pcie_bulk_bytes", "B"),
    ("gpu_sim.shadow_events_checked", "count"),
    ("gpu_sim.pool_threads_spawned", "count"),
    ("alloc.success", "count"),
    ("alloc.postponed", "count"),
    ("alloc.success_ratio", "ratio"),
    ("core.table.chain_hops", "count"),
    ("core.table.hops_per_task", "ratio"),
    ("core.table.head_cas_retries", "count"),
    ("core.table.combiner_hits", "count"),
    ("core.table.combiner_hit_ratio", "ratio"),
    ("core.sepo.iterations", "count"),
    ("core.sepo.restream_ratio", "ratio"),
    ("core.sepo.completion_ratio", "ratio"),
    ("core.sepo.iter_wall_ms_p50", "ms"),
    ("core.sepo.iter_wall_ms_max", "ms"),
    ("core.evict.bytes", "B"),
    ("core.checkpoint.taken", "count"),
    ("core.checkpoint.bytes", "B"),
    ("core.integrity.pages_stamped", "count"),
    ("core.integrity.pages_verified", "count"),
    ("core.integrity.pages_scrubbed", "count"),
    ("core.serve.epochs", "count"),
    ("core.serve.queries", "count"),
    ("core.serve.hit_ratio", "ratio"),
    ("core.serve.batch_wall_s", "s"),
    ("core.serve.keys_wall_s", "s"),
    ("core.serve.batch_ms_p50", "ms"),
    ("core.serve.batch_ms_p99", "ms"),
    ("core.serve.sim_query_us_p50", "us"),
    ("core.serve.sim_query_us_p99", "us"),
    ("apps.sharded.route_imbalance", "ratio"),
    ("apps.sharded.split_wall_s", "s"),
    ("apps.sharded.shard_wall_skew", "ratio"),
    ("core.shard.merge_wall_s", "s"),
    ("baselines.sim_cpu_s", "s"),
    ("baselines.chain_hops", "count"),
    ("check.oracle_wall_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Every reported metric name with its unit, self-time metrics included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(SELF_TIMED.iter().map(|n| (format!("self_s.{n}"), "s")))
        .collect()
}

/// Host measurements of the untraced repetitions a traced run compares
/// against.
pub struct Untraced {
    pub run_wall: f64,
    pub run_cost: f64,
    pub baseline_wall: f64,
    pub probe: f64,
    pub datagen_wall: f64,
    pub oracle_wall: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of the traced repetition `rep` over an input of
/// `bytes` bytes and `records` records.
pub fn per_layer(
    rep: &Rep,
    trace: &Trace,
    bytes: u64,
    records: usize,
    untraced: &Untraced,
) -> BTreeMap<String, f64> {
    let snaps = rep.snapshots();
    let sum = |f: fn(&gpu_sim::metrics::Snapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let outcomes: Vec<_> = rep.runs.iter().map(|r| &r.outcome).collect();
    let tasks = sum(|s| s.tasks);
    let success = sum(|s| s.alloc_success);
    let postponed = sum(|s| s.alloc_postponed);
    let hits = sum(|s| s.combiner_hits);
    let combiner_ops = hits + sum(|s| s.combiner_flushes) + sum(|s| s.combiner_overflows);

    let by_name = trace.self_seconds_by_name();
    let span_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let self_ns = trace.self_times_ns();
    let iteration_ms: Vec<f64> = trace
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "core.sepo.iteration")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();

    let log = rep.serve_log();
    let (epochs, queries, answered, batch_wall, keys_wall, batch_ms, sim_us) = match &log {
        Some(log) => {
            let answered = log
                .batches
                .iter()
                .flat_map(|b| &b.answers)
                .filter(|a| a.is_some())
                .count();
            let batch_ms: Vec<f64> = log
                .batches
                .iter()
                .map(|b| (b.end - b.start).as_secs_f64() * 1e3)
                .collect();
            let sim_us: Vec<f64> = log.batches.iter().map(|b| b.sim_query_secs * 1e6).collect();
            (
                log.hooks.len(),
                log.batches.len() * BATCH,
                answered,
                batch_ms.iter().sum::<f64>() / 1e3,
                log.keys_wall.as_secs_f64(),
                batch_ms,
                sim_us,
            )
        }
        None => (0, 0, 0, 0.0, 0.0, Vec::new(), Vec::new()),
    };
    let p = |v: &[f64], q: f64| tail_percentile(v, q).unwrap_or(0.0);

    let sharded = rep.runs.len() > 1;
    let (imbalance, skew) = if sharded {
        let routed: Vec<f64> = rep.routed.iter().map(|&r| r as f64).collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        // A shard's wall time runs from its first epoch hook to its last.
        let walls: Vec<f64> = rep
            .devices
            .epochs
            .iter()
            .map(|(_, log)| {
                let log = log.lock().expect("epoch log poisoned");
                match (log.hooks.first(), log.hooks.last()) {
                    (Some(a), Some(b)) => (*b - *a).as_secs_f64(),
                    _ => 0.0,
                }
            })
            .collect();
        let wall_mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
        (
            ratio(routed.iter().cloned().fold(0.0, f64::max), mean),
            ratio(walls.iter().cloned().fold(0.0, f64::max), wall_mean),
        )
    } else {
        (0.0, 0.0)
    };

    let recovery = |f: fn(&sepo_core::RecoveryStats) -> u64| {
        outcomes.iter().map(|o| f(&o.recovery)).sum::<u64>() as f64
    };
    let integrity = |f: fn(&sepo_core::IntegrityState) -> u64| {
        rep.runs.iter().map(|r| f(r.table.integrity())).sum::<u64>() as f64
    };
    let shadow_events: u64 = rep
        .devices
        .execs
        .iter()
        .filter_map(|e| e.shadow())
        .map(|s| s.report().events_checked)
        .sum();
    let input_streamed: u64 = outcomes.iter().map(|o| o.total_input_bytes()).sum();
    let evicted: u64 = outcomes.iter().map(|o| o.total_evicted_bytes()).sum();

    let mut m: BTreeMap<String, f64> = [
        ("host.run_wall_s", untraced.run_wall),
        ("host.baseline_wall_s", untraced.baseline_wall),
        ("host.probe_s", untraced.probe),
        ("datagen.wall_s", untraced.datagen_wall),
        ("datagen.bytes", bytes as f64),
        ("datagen.records", records as f64),
        ("gpu_sim.tasks", tasks),
        (
            "gpu_sim.host_ns_per_task",
            ratio(untraced.run_wall * 1e9, tasks),
        ),
        ("gpu_sim.divergence_events", sum(|s| s.divergence_events)),
        ("gpu_sim.sim_kernel_s", rep.gpu.kernel.as_secs_f64()),
        ("gpu_sim.sim_transfer_s", rep.gpu.transfers.as_secs_f64()),
        ("gpu_sim.sim_contention_s", rep.gpu.contention.as_secs_f64()),
        (
            "gpu_sim.pcie_bulk_transfers",
            sum(|s| s.pcie_bulk_transfers),
        ),
        ("gpu_sim.pcie_bulk_bytes", sum(|s| s.pcie_bulk_bytes)),
        ("gpu_sim.shadow_events_checked", shadow_events as f64),
        (
            "gpu_sim.pool_threads_spawned",
            gpu_sim::pool::threads_spawned() as f64,
        ),
        ("alloc.success", success),
        ("alloc.postponed", postponed),
        ("alloc.success_ratio", ratio(success, success + postponed)),
        ("core.table.chain_hops", sum(|s| s.chain_hops)),
        (
            "core.table.hops_per_task",
            ratio(sum(|s| s.chain_hops), tasks),
        ),
        ("core.table.head_cas_retries", sum(|s| s.head_cas_retries)),
        ("core.table.combiner_hits", hits),
        ("core.table.combiner_hit_ratio", ratio(hits, combiner_ops)),
        ("core.sepo.iterations", f64::from(rep.gpu.iterations)),
        (
            "core.sepo.restream_ratio",
            ratio(input_streamed as f64, bytes as f64),
        ),
        ("core.sepo.completion_ratio", ratio(records as f64, tasks)),
        (
            "core.sepo.iter_wall_ms_p50",
            median(&iteration_ms).unwrap_or(0.0),
        ),
        (
            "core.sepo.iter_wall_ms_max",
            percentile(&iteration_ms, 1.0).unwrap_or(0.0),
        ),
        ("core.evict.bytes", evicted as f64),
        (
            "core.checkpoint.taken",
            recovery(|r| u64::from(r.checkpoints_taken)),
        ),
        ("core.checkpoint.bytes", recovery(|r| r.checkpoint_bytes)),
        (
            "core.integrity.pages_stamped",
            integrity(|i| i.pages_stamped()),
        ),
        (
            "core.integrity.pages_verified",
            integrity(|i| i.pages_verified()),
        ),
        (
            "core.integrity.pages_scrubbed",
            recovery(|r| r.scrubbed_pages),
        ),
        ("core.serve.epochs", epochs as f64),
        ("core.serve.queries", queries as f64),
        (
            "core.serve.hit_ratio",
            ratio(answered as f64, queries as f64),
        ),
        ("core.serve.batch_wall_s", batch_wall),
        ("core.serve.keys_wall_s", keys_wall),
        ("core.serve.batch_ms_p50", p(&batch_ms, 0.5)),
        ("core.serve.batch_ms_p99", p(&batch_ms, 0.99)),
        ("core.serve.sim_query_us_p50", p(&sim_us, 0.5)),
        ("core.serve.sim_query_us_p99", p(&sim_us, 0.99)),
        ("apps.sharded.route_imbalance", imbalance),
        ("apps.sharded.split_wall_s", span_s("apps.sharded.split")),
        ("apps.sharded.shard_wall_skew", skew),
        ("core.shard.merge_wall_s", span_s("core.shard.merge")),
        ("baselines.sim_cpu_s", rep.cpu.as_secs_f64()),
        ("baselines.chain_hops", rep.baseline.chain_hops as f64),
        ("check.oracle_wall_s", untraced.oracle_wall),
        ("trace.overhead", ratio(rep.run_cost(), untraced.run_cost)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for name in SELF_TIMED {
        m.insert(format!("self_s.{name}"), span_s(name));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn fits(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn metric_names() -> Vec<String> {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        names
    }

    #[test]
    fn names_fit_the_result_grammar() {
        let mut names = metric_names();
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &names {
            assert!(fits(n), "{n:?} does not fit [A-Za-z0-9_.-]+");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_these_metrics_and_known_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let metrics = metric_names();
        for n in &metrics {
            assert!(
                declared.contains(&n.as_str()),
                "{n} missing from BENCHMARK.json"
            );
        }
        for n in &declared {
            assert!(
                metrics.iter().any(|m| m == n) || Workload::parse(n).is_some(),
                "BENCHMARK.json declares {n}, which the benchmark does not report or run"
            );
        }
    }
}
