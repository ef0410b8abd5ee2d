//! Multi-device sharded execution, end to end: a one-shard run must be
//! the unsharded run in every observable (the CLI runs everything through
//! the sharded path), hard-fault recovery on a single shard must be
//! invisible (per-shard images, trajectories, and the merged canonical
//! image all byte-identical to an unkilled run), and the shared SEPOCKS2
//! checkpoint file must carry a restorable section for every shard.

use gpu_sim::charge::NoCharge;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{
    CorruptionConfig, FaultConfig, FaultPlan, FaultSite, HardFaultConfig, HardFaultKind,
    ShadowSanitizer,
};
use sepo_apps::sharded::{run_app_sharded, unsharded_image, ShardedAppRun};
use sepo_apps::{run_app, AppConfig};
use sepo_bench::{gpu_total_time, sharded_total_time, GpuTiming};
use sepo_core::{
    canonical_image, read_sharded_from_path, CheckpointPolicy, Combiner, Organization, SepoTable,
    ShardedCheckpointFile, TableConfig,
};
use sepo_datagen::{App, Dataset};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-shard device heap, small enough that every shard of the scaled
/// datasets runs several iterations (so checkpoints and kills land at and
/// between real boundaries).
const HEAP: u64 = 24 << 10;
/// Tasks per launch: small, so each iteration holds many kill-points.
const CHUNK: usize = 32;
/// Shards under test.
const N: u32 = 4;
/// Per-launch device-loss rate for the chaos shard (elevated, so a short
/// run is reliably struck within a few seeds).
const DEVICE_LOSS_RATE: f64 = 0.08;

fn executor(faults: Option<FaultPlan>) -> Executor {
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
    if let Some(plan) = faults {
        exec = exec.with_faults(Arc::new(plan));
    }
    exec.with_shadow(Arc::new(ShadowSanitizer::new()))
}

fn base_cfg(policy: CheckpointPolicy) -> AppConfig {
    AppConfig::new(HEAP)
        .with_chunk_tasks(CHUNK)
        .with_audit(true)
        .with_sanitize(true)
        .with_checkpoint(policy)
        .with_max_recoveries(10_000)
}

/// Run `app` over `N` shards; shard `chaos` (if any) additionally draws
/// hard device-loss faults from `seed`. All shards share the same quiet
/// transient stream so chaos is the only difference between runs.
fn run_sharded(app: App, ds: &Dataset, chaos: Option<(u32, u64)>) -> ShardedAppRun {
    let cfgs: Vec<AppConfig> = (0..N).map(|_| base_cfg(CheckpointPolicy::Memory)).collect();
    let execs: Vec<Executor> = (0..N)
        .map(|i| {
            let plan = FaultPlan::new(FaultConfig::quiet(7));
            let plan = match chaos {
                Some((shard, seed)) if shard == i => plan.with_hard(HardFaultConfig {
                    seed,
                    device_loss_rate: DEVICE_LOSS_RATE,
                    poisoned_launch_rate: 0.0,
                }),
                _ => plan,
            };
            executor(Some(plan))
        })
        .collect();
    run_app_sharded(app, ds, &cfgs, &execs)
}

fn shard_image(run: &sepo_apps::AppRun) -> Vec<u8> {
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save shard image");
    image
}

fn trajectory(run: &sepo_apps::AppRun) -> Vec<u64> {
    run.outcome
        .iterations
        .iter()
        .map(|i| i.tasks_completed)
        .collect()
}

/// Kill one shard's device mid-run (seeded `DeviceLost`); the resumed run
/// must be byte-identical — on the killed shard's own image and
/// trajectory, on every untouched shard, and on the merged canonical
/// image.
#[test]
fn killing_one_shards_device_resumes_byte_identically() {
    const CHAOS_SHARD: u32 = 1;
    let app = App::InvertedIndex;
    let ds = app.generate(0, 8_192);
    let baseline = run_sharded(app, &ds, None);
    assert!(
        baseline.shards[CHAOS_SHARD as usize].iterations() > 1,
        "the chaos shard must run several iterations for kills to land mid-run"
    );

    // Sweep seeds until the chaos shard is actually struck at least once.
    let mut struck = None;
    for seed in 0xD1ED_0000u64..0xD1ED_0014 {
        let run = run_sharded(app, &ds, Some((CHAOS_SHARD, seed)));
        if run.shards[CHAOS_SHARD as usize].outcome.recovery.recoveries >= 1 {
            struck = Some((seed, run));
            break;
        }
    }
    let (seed, chaos) = struck.expect("a device loss struck the chaos shard within the seed sweep");

    assert_eq!(
        chaos.image, baseline.image,
        "merged canonical image diverged after recovery (seed {seed:#x})"
    );
    for (i, (c, b)) in chaos.shards.iter().zip(baseline.shards.iter()).enumerate() {
        assert_eq!(
            shard_image(c),
            shard_image(b),
            "shard {i} table image diverged (seed {seed:#x})"
        );
        assert_eq!(
            trajectory(c),
            trajectory(b),
            "shard {i} trajectory diverged (seed {seed:#x})"
        );
        if i != CHAOS_SHARD as usize {
            assert_eq!(
                c.outcome.recovery.recoveries, 0,
                "shard {i} was never armed with hard faults"
            );
        }
    }
}

/// A sharded run writing through one `ShardedCheckpointFile` leaves a
/// SEPOCKS2 file with a readable section per shard, each sized to its
/// shard's routed task count — the state a cross-process resume restores
/// shard by shard.
#[test]
fn shared_disk_checkpoint_carries_a_section_per_shard() {
    let app = App::InvertedIndex;
    let ds = app.generate(0, 8_192);
    let path = std::env::temp_dir().join(format!(
        "sepo-sharded-ckp-{}-{:?}.sepockp",
        std::process::id(),
        std::thread::current().id()
    ));
    let file = Arc::new(ShardedCheckpointFile::new(path.clone(), N));
    let cfgs: Vec<AppConfig> = (0..N)
        .map(|i| base_cfg(CheckpointPolicy::SharedDisk(Arc::clone(&file), i)))
        .collect();
    let execs: Vec<Executor> = (0..N).map(|_| executor(None)).collect();
    let run = run_app_sharded(app, &ds, &cfgs, &execs);
    for (i, shard) in run.shards.iter().enumerate() {
        assert!(
            shard.outcome.recovery.checkpoints_taken >= 1,
            "shard {i} must take at least one boundary checkpoint"
        );
    }

    let sections = read_sharded_from_path(&path).expect("read SEPOCKS2 file back");
    std::fs::remove_file(&path).ok();
    assert_eq!(sections.len(), N as usize, "one section per shard");
    for (i, (section, shard)) in sections.iter().zip(run.shards.iter()).enumerate() {
        let ckp = section
            .as_ref()
            .unwrap_or_else(|| panic!("shard {i} never wrote its section"));
        assert_eq!(
            ckp.n_tasks(),
            run.routed_records[i] as u64,
            "shard {i} section must cover exactly its routed records"
        );
        assert!(
            ckp.iteration() >= 1 && ckp.iteration() <= shard.iterations(),
            "shard {i} section captured at iteration {} of {}",
            ckp.iteration(),
            shard.iterations()
        );
    }
}

/// Everything a run reports that the CLI prints or prices: result images,
/// trajectory, recovery, event counters, injected faults, and the
/// simulated timing.
#[derive(Debug, PartialEq)]
struct Observed {
    canonical: Vec<u8>,
    table: Vec<u8>,
    trajectory: Vec<sepo_core::IterationStats>,
    recovery: sepo_core::RecoveryStats,
    metrics: gpu_sim::Snapshot,
    injected: [u64; 5],
    timing: [gpu_sim::SimTime; 4],
    iterations: u32,
}

fn observe(run: &sepo_apps::AppRun, canonical: Vec<u8>, exec: &Executor, t: GpuTiming) -> Observed {
    let injected = exec.faults().map_or([0; 5], |p| {
        [
            p.injected(FaultSite::Lane),
            p.draws(FaultSite::Lane),
            p.hard_injected(HardFaultKind::DeviceLost),
            p.hard_injected(HardFaultKind::PoisonedLaunch),
            p.total_corruption_injected(),
        ]
    });
    Observed {
        canonical,
        table: shard_image(run),
        trajectory: run.outcome.iterations.clone(),
        recovery: run.outcome.recovery,
        metrics: exec.metrics().snapshot(),
        injected,
        timing: [t.total, t.kernel, t.transfers, t.contention],
        iterations: t.iterations,
    }
}

/// `sepo run` executes every run, N = 1 included, through
/// `run_app_sharded` and prices it with `sharded_total_time`. That is
/// sound only if one shard is the unsharded run in every observable, under
/// hard faults and silent corruption as well as clean: this pins it for
/// all seven applications in the CI smoke setting (scale 1/16384, 96 KiB
/// heap, audit and combiner on).
#[test]
fn one_shard_run_is_the_unsharded_run() {
    let spec = gpu_sim::SystemSpec::scaled(16_384);
    for app in App::ALL {
        let ds = app.generate(0, 16_384);
        for name in ["chaos", "corruption", "clean"] {
            // The plans `sepo run --chaos-seed 142` and `--corrupt 2` build.
            let plan = || match name {
                "chaos" => Some(
                    FaultPlan::new(FaultConfig::quiet(142))
                        .with_hard(HardFaultConfig::standard(142)),
                ),
                "corruption" => Some(
                    FaultPlan::new(FaultConfig::quiet(2))
                        .with_corruption(CorruptionConfig::standard(2)),
                ),
                _ => None,
            };
            let mut cfg = AppConfig::new(98_304).with_audit(true);
            if plan().is_some() {
                cfg = cfg
                    .with_checkpoint(CheckpointPolicy::Memory)
                    .with_max_recoveries(32);
            }
            let exec = || {
                let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
                match plan() {
                    Some(plan) => exec.with_faults(Arc::new(plan)),
                    None => exec,
                }
            };

            let single_exec = exec();
            let single = run_app(app, &ds, &cfg, &single_exec);
            let hist = single.table.full_contention_histogram();
            let timing = gpu_total_time(&single.outcome, &hist, &spec);
            let want = observe(&single, unsharded_image(&single), &single_exec, timing);

            let shard_exec = [exec()];
            let sharded = run_app_sharded(app, &ds, std::slice::from_ref(&cfg), &shard_exec);
            let shard = &sharded.shards[0];
            let hist = shard.table.full_contention_histogram();
            let timing = sharded_total_time(&[(&shard.outcome, &hist)], &spec);
            let got = observe(shard, sharded.image.clone(), &shard_exec[0], timing);

            assert_eq!(
                got,
                want,
                "{} ({name}): one shard diverged from the unsharded run",
                app.name()
            );
            // A plan that never struck would prove nothing.
            let struck = match name {
                "chaos" => want.injected[2],
                "corruption" => want.injected[4],
                _ => 1,
            };
            assert!(struck > 0, "{} ({name}): the plan never struck", app.name());
        }
    }
}

/// The merge as it stood before the sort-merge: re-merge every shard's
/// collection through a `HashMap`, then sort. Kept as the oracle the
/// sort-merge in `canonical_image` must reproduce byte for byte.
fn hashmap_canonical_image(tables: &[&SepoTable]) -> Vec<u8> {
    fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    }
    let mut out = Vec::new();
    match tables[0].config().organization {
        Organization::Combining(comb) => {
            let mut merged: HashMap<Vec<u8>, u64> = HashMap::new();
            for t in tables {
                for (k, v) in t.collect_combining() {
                    merged
                        .entry(k)
                        .and_modify(|cur| *cur = comb.apply(*cur, v))
                        .or_insert(v);
                }
            }
            let mut pairs: Vec<(Vec<u8>, u64)> = merged.into_iter().collect();
            pairs.sort();
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (k, v) in pairs {
                write_bytes(&mut out, &k);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Organization::MultiValued => {
            let mut merged: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            for t in tables {
                for (k, vs) in t.collect_multivalued() {
                    merged.entry(k).or_default().extend(vs);
                }
            }
            let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = merged.into_iter().collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            out.extend_from_slice(&(groups.len() as u32).to_le_bytes());
            for (k, mut vs) in groups {
                vs.sort();
                write_bytes(&mut out, &k);
                out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
                for v in vs {
                    write_bytes(&mut out, &v);
                }
            }
        }
        Organization::Basic => {
            let mut pairs = Vec::new();
            for t in tables {
                pairs.extend(t.collect_basic());
            }
            pairs.sort();
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (k, v) in pairs {
                write_bytes(&mut out, &k);
                write_bytes(&mut out, &v);
            }
        }
    }
    out
}

/// The sort-merge image equals the `HashMap` re-merge for every
/// application at 1, 2 and 4 shards, on heaps small enough that most
/// shards iterate.
#[test]
fn sort_merge_matches_the_hashmap_merge() {
    for app in App::ALL {
        let ds = app.generate(0, 32_768);
        for shards in [1u32, 2, 4] {
            let cfgs: Vec<AppConfig> = (0..shards).map(|_| AppConfig::new(HEAP)).collect();
            let execs: Vec<Executor> = (0..shards).map(|_| executor(None)).collect();
            let run = run_app_sharded(app, &ds, &cfgs, &execs);
            let tables: Vec<&SepoTable> = run.shards.iter().map(|r| &r.table).collect();
            assert_eq!(
                run.image,
                hashmap_canonical_image(&tables),
                "{} at {shards} shards",
                app.name()
            );
            assert_eq!(canonical_image(&tables), run.image);
        }
    }
}

/// A key held by two tables combines across them (combining) or pools its
/// values (multi-valued), exactly as the `HashMap` merge did.
#[test]
fn sort_merge_combines_a_key_held_by_two_tables() {
    let mut charge = NoCharge;
    for org in [
        Organization::Combining(Combiner::Add),
        Organization::Combining(Combiner::Or),
        Organization::MultiValued,
    ] {
        let tables: Vec<SepoTable> = (0..2u64)
            .map(|i| {
                let cfg = TableConfig::new(org)
                    .with_buckets(64)
                    .with_buckets_per_group(16)
                    .with_page_size(1024);
                let t = SepoTable::new(cfg, 16 * 1024, Arc::new(Metrics::new()));
                for (key, value) in [("dup", 3 + i), ("zeta", 1), ("alpha", 2 + i)] {
                    let key = format!("{key}-{}", if key == "dup" { 0 } else { i });
                    let ok = match org {
                        Organization::MultiValued => t
                            .insert_multivalued(key.as_bytes(), &value.to_le_bytes(), &mut charge)
                            .is_success(),
                        _ => t
                            .insert_combining(key.as_bytes(), value, &mut charge)
                            .is_success(),
                    };
                    assert!(ok);
                }
                t.finalize();
                t
            })
            .collect();
        let refs: Vec<&SepoTable> = tables.iter().collect();
        let image = canonical_image(&refs);
        assert_eq!(image, hashmap_canonical_image(&refs), "{org:?}");
        // Five distinct keys: `dup-0` once, the others once per table.
        assert_eq!(image[..4], 5u32.to_le_bytes(), "{org:?}");
    }
}
