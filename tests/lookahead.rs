//! The prefetch lookahead (`SepoTable::lookahead`, DESIGN §17) must be
//! invisible to everything but the host clock. The Netflix and DNA kernels
//! run their inserts through it; the per-pair loops they had before are
//! kept here as oracles. Under audit and sanitizer, on a heap small enough
//! for several iterations and mid-task postponement, each kernel must
//! reproduce its oracle's saved table image, `IterationStats` trajectory,
//! `Metrics` snapshot and full contention histogram exactly, with zero
//! sanitizer findings — unsharded through `run_app`, and at two shards
//! through `run_app_sharded`.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{Charge, ShadowSanitizer};
use sepo_apps::sharded::organization_of;
use sepo_apps::{run_app, run_app_sharded, AppConfig, AppRun, ShardRouter};
use sepo_core::sepo::{SepoDriver, TaskResult};
use sepo_core::shard::audited_image;
use sepo_core::{InsertStatus, SepoTable, ShardSpec};
use sepo_datagen::dna::edge_bits;
use sepo_datagen::ratings::{pair_key, parse_movie, similarity};
use sepo_datagen::{App, Dataset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Device heap per run: several iterations on the scaled datasets.
const HEAP: u64 = 24 << 10;
/// Dataset scale divisor.
const SCALE: u64 = 16_384;

/// The Netflix kernel before the lookahead: enumerate `(i, j)` pairs in
/// place and insert each through the hashing entry point. Counts the
/// postponements that land after a task's first pair in `mid_task`.
fn netflix_oracle(
    dataset: &Dataset,
    cfg: &AppConfig,
    executor: &Executor,
    mid_task: &AtomicU64,
) -> AppRun {
    let table = SepoTable::new(
        cfg.table_config(organization_of(App::Netflix)),
        cfg.heap_bytes,
        executor.metrics().clone(),
    );
    let outcome = {
        let driver = SepoDriver::new(&table, executor).with_config(cfg.driver.clone());
        driver.run(
            dataset.len(),
            |t| dataset.record_bytes(t),
            |t, start, lane| {
                let record = dataset.record(t);
                lane.compute(8 * record.len() as u64);
                let Some((_movie, raters)) = parse_movie(record) else {
                    return TaskResult::Done;
                };
                let mut pair_idx = 0u32;
                for i in 0..raters.len() {
                    for j in i + 1..raters.len() {
                        if pair_idx >= start {
                            let (ua, ra) = raters[i];
                            let (ub, rb) = raters[j];
                            let key = pair_key(ua, ub);
                            lane.compute(30);
                            match table.insert_combining(&key, similarity(ra, rb), lane) {
                                InsertStatus::Success => {}
                                InsertStatus::Postponed => {
                                    if pair_idx > 0 {
                                        mid_task.fetch_add(1, Ordering::Relaxed);
                                    }
                                    return TaskResult::Postponed {
                                        next_pair: pair_idx,
                                    };
                                }
                            }
                        }
                        pair_idx += 1;
                    }
                }
                TaskResult::Done
            },
        )
    };
    table.finalize();
    AppRun { outcome, table }
}

/// The DNA kernel before the lookahead: slice, hash and insert one k-mer at
/// a time.
fn dna_oracle(
    dataset: &Dataset,
    cfg: &AppConfig,
    executor: &Executor,
    mid_task: &AtomicU64,
) -> AppRun {
    const K: usize = sepo_apps::dna::K;
    let table = SepoTable::new(
        cfg.table_config(organization_of(App::DnaAssembly)),
        cfg.heap_bytes,
        executor.metrics().clone(),
    );
    let outcome = {
        let driver = SepoDriver::new(&table, executor).with_config(cfg.driver.clone());
        driver.run(
            dataset.len(),
            |t| dataset.record_bytes(t),
            |t, start, lane| {
                let record = dataset.record(t);
                let read = record.strip_suffix(b"\n").unwrap_or(record);
                lane.compute(6 * read.len() as u64);
                if read.len() < K {
                    return TaskResult::Done;
                }
                let n_kmers = read.len() - K + 1;
                for i in (start as usize)..n_kmers {
                    let kmer = &read[i..i + K];
                    let prev = (i > 0).then(|| read[i - 1]);
                    let next = (i + K < read.len()).then(|| read[i + K]);
                    let bits = edge_bits(prev, next);
                    match table.insert_combining(kmer, bits, lane) {
                        InsertStatus::Success => {}
                        InsertStatus::Postponed => {
                            if i > 0 {
                                mid_task.fetch_add(1, Ordering::Relaxed);
                            }
                            return TaskResult::Postponed {
                                next_pair: i as u32,
                            };
                        }
                    }
                }
                TaskResult::Done
            },
        )
    };
    table.finalize();
    AppRun { outcome, table }
}

fn oracle(
    app: App,
    ds: &Dataset,
    cfg: &AppConfig,
    exec: &Executor,
    mid_task: &AtomicU64,
) -> AppRun {
    match app {
        App::Netflix => netflix_oracle(ds, cfg, exec, mid_task),
        App::DnaAssembly => dna_oracle(ds, cfg, exec, mid_task),
        other => unreachable!("{} has no lookahead oracle", other.name()),
    }
}

fn cfg() -> AppConfig {
    AppConfig::new(HEAP).with_audit(true).with_sanitize(true)
}

/// A parallel-deterministic executor with its own metrics and sanitizer.
fn executor() -> (Executor, Arc<ShadowSanitizer>) {
    let shadow = Arc::new(ShadowSanitizer::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
        .with_shadow(Arc::clone(&shadow));
    (exec, shadow)
}

/// Everything a run leaves behind that the lookahead must not move.
#[derive(Debug, PartialEq)]
struct Observed {
    image: Vec<u8>,
    trajectory: Vec<sepo_core::sepo::IterationStats>,
    metrics: gpu_sim::metrics::Snapshot,
    contention: String,
}

fn observe(run: &AppRun, exec: &Executor, shadow: &ShadowSanitizer) -> Observed {
    let report = shadow.report();
    assert_eq!(report.findings_total, 0, "sanitizer findings: {report}");
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    Observed {
        image,
        trajectory: run.outcome.iterations.clone(),
        metrics: exec.metrics().snapshot(),
        contention: format!("{:?}", run.table.full_contention_histogram()),
    }
}

#[test]
fn lookahead_kernels_reproduce_the_per_pair_loops() {
    for app in [App::Netflix, App::DnaAssembly] {
        let ds = app.generate(0, SCALE);
        let mid_task = AtomicU64::new(0);
        let (exec, shadow) = executor();
        let want_run = oracle(app, &ds, &cfg(), &exec, &mid_task);
        assert!(
            want_run.iterations() >= 3,
            "{}: {} iterations",
            app.name(),
            want_run.iterations()
        );
        assert!(
            mid_task.load(Ordering::Relaxed) > 0,
            "{}: no mid-task postponement",
            app.name()
        );
        let want = observe(&want_run, &exec, &shadow);

        let (exec, shadow) = executor();
        let got_run = run_app(app, &ds, &cfg(), &exec);
        assert!(got_run.outcome.is_complete());
        let got = observe(&got_run, &exec, &shadow);
        assert!(
            got == want,
            "{}: lookahead run diverged from the per-pair loop",
            app.name()
        );
    }
}

#[test]
fn lookahead_kernels_reproduce_the_per_pair_loops_at_two_shards() {
    const N: u32 = 2;
    for app in [App::Netflix, App::DnaAssembly] {
        let ds = app.generate(0, SCALE);
        let cfgs: Vec<AppConfig> = (0..N).map(|_| cfg()).collect();
        let (execs, shadows): (Vec<Executor>, Vec<_>) = (0..N).map(|_| executor()).unzip();
        let got = run_app_sharded(app, &ds, &cfgs, &execs);

        // The oracle side of `run_app_sharded`: the same routed subsets and
        // shard-pinned tables, one shard after the other.
        let subsets = ShardRouter::new(app, N).split_dataset(&ds);
        let mid_task = AtomicU64::new(0);
        let mut want_runs = Vec::new();
        for (i, subset) in subsets.iter().enumerate() {
            let mut shard_cfg = cfg();
            shard_cfg.table = Some(
                shard_cfg
                    .table_config(organization_of(app))
                    .with_shard(Some(ShardSpec::new(i as u32, N))),
            );
            let (exec, shadow) = executor();
            let run = oracle(app, subset, &shard_cfg, &exec, &mid_task);
            assert!(
                run.iterations() >= 3,
                "{} shard {i}: {} iterations",
                app.name(),
                run.iterations()
            );
            let want = observe(&run, &exec, &shadow);
            let shard = observe(&got.shards[i], &execs[i], &shadows[i]);
            assert!(
                shard == want,
                "{} shard {i}: lookahead run diverged from the per-pair loop",
                app.name()
            );
            want_runs.push(run);
        }
        assert!(
            mid_task.load(Ordering::Relaxed) > 0,
            "{}: no mid-task postponement",
            app.name()
        );
        let tables: Vec<&SepoTable> = want_runs.iter().map(|r| &r.table).collect();
        assert_eq!(
            got.image,
            audited_image(&tables).expect("oracle ownership audit"),
            "{}: merged image",
            app.name()
        );
    }
}
