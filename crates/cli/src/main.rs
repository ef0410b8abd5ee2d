//! `sepo` — command-line front end for the SEPO reproduction.
//!
//! ```text
//! sepo apps                              list the seven applications
//! sepo run <app> [options]               run one app GPU-vs-CPU, report
//!   --dataset <1..4>                     Table I dataset index (default 1)
//!   --scale <N>                          capacity/dataset divisor (default 256)
//!   --heap <bytes>                       device heap override
//!   --parallel                           racing parallel executor (default:
//!                                        parallel-deterministic)
//!   --audit                              cross-layer invariant audit at every
//!                                        iteration boundary
//!   --faults <seed>                      deterministic fault injection at the
//!                                        standard rates, seeded with <seed>
//!   --combiner on|off                    per-warp software combiner in front
//!                                        of combining tables (default on;
//!                                        results identical either way)
//!   --evict-overlap on|off               asynchronous double-buffered eviction
//!                                        DMA behind the next iteration's
//!                                        kernels (default off; results
//!                                        identical either way)
//!   --sanitize                           shadow-memory sanitizer over every
//!                                        declared device access (panics on a
//!                                        violation; results identical either
//!                                        way)
//!   --checkpoint <path>                  persist an iteration-boundary
//!                                        checkpoint (SEPOCKP2; SEPOCKS2 with
//!                                        a section per shard when N > 1)
//!                                        to <path>, enabling hard-fault
//!                                        recovery
//!   --chaos-seed <seed>                  inject hard device faults (device
//!                                        loss, poisoned launches) at the
//!                                        standard rates; runs recover from
//!                                        checkpoints and finish identically
//!   --corrupt <seed>                     inject seeded silent corruption at
//!                                        the standard rates (in-flight PCIe
//!                                        bit flips, resting device-page
//!                                        flips, disk byte flips on
//!                                        checkpoint images); every flip is
//!                                        detected by CRC32C verification
//!                                        and repaired (retransmit, restore
//!                                        from the boundary checkpoint, or
//!                                        rewrite), and the run must finish
//!                                        byte-identical to a clean one
//!   --scrub                              verify every finalized host page's
//!                                        CRC32C stamp at the end of a
//!                                        corruption-free run (forced on
//!                                        under --corrupt)
//!   --serve                              publish an epoch snapshot at every
//!                                        iteration boundary and answer a
//!                                        Zipf-skewed point-lookup load
//!                                        against it while the run
//!                                        progresses (--queries per epoch),
//!                                        checking every answer against a
//!                                        CPU oracle; results identical
//!                                        either way
//!   --shards <N>                         run across N >= 1 simulated devices
//!                                        (power of two, default 1); every
//!                                        run is an N-shard run, each shard
//!                                        owning a hash-prefix slice of the
//!                                        key space with its own heap, warp
//!                                        pool, and eviction pipe; for N > 1
//!                                        an unsharded reference run is added
//!                                        and the merged canonical image must
//!                                        match it
//! sepo lookup [--scale N] [--queries N]  build a PVC table, run the SEPO
//!                                        lookup phase over it
//! sepo query <image> <key>...            query a table saved with --save
//! ```

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{FaultConfig, FaultPlan};
use sepo_apps::sharded::{run_app_sharded, unsharded_image};
use sepo_apps::{run_app, AppConfig};
use sepo_baselines::{run_cpu_app, run_phoenix};
use sepo_bench::report::{fmt_bytes, fmt_speedup};
use sepo_bench::{cpu_total_time, device_heap, gpu_total_time, sharded_total_time};
use sepo_cli::{app_by_slug, parse_flags, slug, Flags};
use sepo_core::{
    CheckpointPolicy, EpochPublisher, RecoveryStats, SepoTable, ShardedCheckpointFile,
    ShardedSnapshot,
};
use sepo_datagen::App;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sepo apps\n  sepo run <app> [--dataset 1..4] [--scale N] \
         [--heap BYTES] [--parallel] [--audit] [--sanitize] [--faults SEED] \
         [--combiner on|off] [--evict-overlap on|off] [--checkpoint PATH] \
         [--chaos-seed SEED] [--corrupt SEED] [--scrub] [--serve] [--shards N] \
         [--input FILE] [--save IMAGE]\n  \
         sepo lookup [--scale N] [--queries N]\n  sepo query <image> <key>...\n\
         \napps: {}",
        App::ALL
            .iter()
            .map(|a| slug(*a))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn cmd_apps() -> ExitCode {
    println!("{:<16} {:<30} paper dataset sizes", "slug", "application");
    for app in App::ALL {
        let mb = app.table1_mb();
        println!(
            "{:<16} {:<30} {}",
            slug(app),
            app.name(),
            mb.map(|m| format!("{:.1}GB", m as f64 / 1000.0))
                .join(" / ")
        );
    }
    ExitCode::SUCCESS
}

/// Rolling state of the `--serve` query load: per-epoch counters plus the
/// last progress measure seen per key (a combined value, or a group's
/// value count), so epoch-to-epoch monotonicity (partial aggregates never
/// shrink, groups never lose values) is checked online.
#[derive(Default)]
struct ServeStats {
    epochs: u32,
    queries: u64,
    hits: u64,
    violations: Vec<String>,
    last: std::collections::HashMap<Vec<u8>, u64>,
}

/// Answer one epoch's Zipf-skewed query batch against its snapshot and
/// fold the answers into `st`, recording any epoch-to-epoch regression.
fn serve_epoch(
    snap: &sepo_core::EpochSnapshot,
    exec: &Executor,
    per_epoch: usize,
    st: &mut ServeStats,
) {
    use sepo_core::{Combiner, Organization};
    use sepo_datagen::{Rng, Zipf};
    st.epochs += 1;
    let keys = snap.visible_keys();
    if keys.is_empty() || matches!(snap.organization(), Organization::Basic) {
        return;
    }
    let mut rng = Rng::new(0x5E17 ^ u64::from(snap.iteration()));
    let zipf = Zipf::new(keys.len(), 0.9);
    let owned: Vec<Vec<u8>> = (0..per_epoch)
        .map(|i| {
            if i % 5 == 4 {
                format!("absent-{i}").into_bytes() // misses exercise the full probe
            } else {
                keys[zipf.sample(&mut rng)].clone()
            }
        })
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    st.queries += queries.len() as u64;
    let it = snap.iteration();
    let answers = match snap.organization() {
        Organization::MultiValued => snap.batch_get_grouped(exec, &queries).map(|answers| {
            let count = |vs: Vec<Vec<u8>>| vs.len() as u64;
            answers.into_iter().map(|a| a.map(count)).collect()
        }),
        _ => snap.batch_get(exec, &queries),
    };
    let answers = match answers {
        Ok(answers) => answers,
        Err(e) => return st.violations.push(format!("epoch {it}: {e}")),
    };
    for (k, a) in owned.iter().zip(answers) {
        let key = String::from_utf8_lossy(k);
        let Some(v) = a else {
            if st.last.contains_key(k) {
                st.violations
                    .push(format!("epoch {it}: key {key:?} vanished"));
            }
            continue;
        };
        st.hits += 1;
        let regressed = st
            .last
            .get(k)
            .is_some_and(|&prev| match snap.organization() {
                Organization::Combining(Combiner::Add) | Organization::MultiValued => v < prev,
                Organization::Combining(Combiner::Or) => v & prev != prev,
                _ => false,
            });
        if regressed {
            st.violations
                .push(format!("epoch {it}: key {key:?} regressed to {v}"));
        }
        st.last.insert(k.clone(), v);
    }
}

/// Post-run serving oracle: no online violations, every shard's last
/// published epoch is its finalized one, and every key the collectors
/// report answers identically through the hash-routed
/// [`ShardedSnapshot`] view over those epochs.
fn check_serving(
    tables: &[&SepoTable],
    publishers: &[Arc<EpochPublisher>],
    stats: &Mutex<ServeStats>,
    execs: &[Executor],
) -> Result<String, String> {
    use sepo_core::Organization;
    let st = stats.lock().expect("no serving hook panicked");
    if let Some(v) = st.violations.first() {
        return Err(format!(
            "{} epoch violation(s), first: {v}",
            st.violations.len()
        ));
    }
    let snaps = publishers
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.current()
                .ok_or_else(|| format!("shard {i} never published an epoch"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let view = ShardedSnapshot::new(snaps);
    if !view.finalized() {
        return Err("a shard's last published epoch is not the finalized one".into());
    }
    let sorted = |mut vs: Vec<Vec<u8>>| {
        vs.sort();
        vs
    };
    let mut checked = 0usize;
    for table in tables {
        checked += match table.config().organization {
            Organization::Combining(_) => agree(table.collect_combining(), 4096, |q| {
                view.batch_get(execs, q)
            })?,
            Organization::MultiValued => {
                let truth = table.collect_multivalued();
                let truth = truth.into_iter().map(|(k, vs)| (k, sorted(vs))).collect();
                agree(truth, 1024, |q| {
                    let answers = view.batch_get_grouped(execs, q)?;
                    Ok(answers.into_iter().map(|a| a.map(sorted)).collect())
                })?
            }
            Organization::Basic => 0,
        };
    }
    Ok(format!(
        "{} epochs, {} queries answered ({} hits), final epoch checked {checked} keys: oracle ok",
        st.epochs, st.queries, st.hits
    ))
}

/// Answer every collector key through `get`, `batch` keys at a time, and
/// require each answer to equal the collectors' value. Returns the number
/// of keys checked.
fn agree<T: PartialEq + std::fmt::Debug>(
    truth: Vec<(Vec<u8>, T)>,
    batch: usize,
    get: impl Fn(&[&[u8]]) -> Result<Vec<Option<T>>, sepo_core::QueryError>,
) -> Result<usize, String> {
    for chunk in truth.chunks(batch) {
        let q: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_slice()).collect();
        let answers = get(&q).map_err(|e| e.to_string())?;
        for ((k, want), got) in chunk.iter().zip(answers) {
            if got.as_ref() != Some(want) {
                return Err(format!(
                    "final epoch: key {:?} = {got:?}, collectors say {want:?}",
                    String::from_utf8_lossy(k)
                ));
            }
        }
    }
    Ok(truth.len())
}

/// Build the input dataset: `--input` file (one record per line) or the
/// generated Table I dataset.
fn load_dataset(app: App, f: &Flags) -> Result<sepo_datagen::Dataset, String> {
    match &f.input {
        Some(path) => {
            // Real user data: one record per line.
            // lint: io-ok (raw dataset input, not a checksummed image)
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut ds = sepo_datagen::Dataset::new();
            for record in bytes.split_inclusive(|&b| b == b'\n') {
                ds.push_record(record);
            }
            Ok(ds)
        }
        None => Ok(app.generate(f.dataset - 1, f.scale)),
    }
}

/// `sepo run`: one application across `--shards N` simulated devices
/// (N ≥ 1; one shard is the paper's single device). Every shard has its
/// own device heap, warp pool, eviction pipe and fault streams, seeded
/// `seed ^ shard` so shard 0 draws exactly the seeds of a one-shard run.
/// With N > 1 an unsharded reference run is added: the merged canonical
/// image must match it byte for byte, reported on the
/// `sharded image vs 1 device: …` line, and divergence fails the process.
fn cmd_run(app: App, f: Flags) -> ExitCode {
    let n = f.shards;
    let sharded = n > 1;
    if sharded && f.save.is_some() {
        eprintln!("--save needs a single table image; it is not available with --shards > 1");
        return ExitCode::FAILURE;
    }
    let spec = gpu_sim::SystemSpec::scaled(f.scale);
    let heap = f.heap.unwrap_or_else(|| device_heap(&spec));
    let devices = if sharded {
        format!("{n} shards, device heap {} per shard", fmt_bytes(heap))
    } else {
        format!("device heap {}", fmt_bytes(heap))
    };
    println!(
        "{} | dataset #{} at scale 1/{} | {devices}",
        app.name(),
        f.dataset,
        f.scale
    );
    let ds = match load_dataset(app, &f) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "input: {} ({} records)",
        fmt_bytes(ds.size_bytes()),
        ds.len()
    );

    let mode = if f.parallel {
        ExecMode::Parallel { workers: 0 }
    } else {
        ExecMode::ParallelDeterministic
    };
    let seeds = if sharded { " (shard i: seed ^ i)" } else { "" };
    if let Some(seed) = f.faults {
        println!("fault injection: standard rates, seed {seed}{seeds}");
    }
    if let Some(seed) = f.chaos_seed {
        println!("chaos injection: hard device faults at standard rates, seed {seed}{seeds}");
    }
    if let Some(seed) = f.corrupt {
        println!("corruption injection: silent flips at standard rates, seed {seed}{seeds}");
    }
    if f.sanitize {
        println!("shadow-memory sanitizer: on");
    }
    let shard_exec = |i: u32| -> Executor {
        let seed = |s: u64| s ^ u64::from(i);
        let mut plan = f
            .faults
            .map(|s| FaultPlan::new(FaultConfig::standard(seed(s))));
        if let Some(s) = f.chaos_seed {
            let base = plan
                .take()
                .unwrap_or_else(|| FaultPlan::new(FaultConfig::quiet(seed(s))));
            plan = Some(base.with_hard(gpu_sim::HardFaultConfig::standard(seed(s))));
        }
        if let Some(s) = f.corrupt {
            let base = plan
                .take()
                .unwrap_or_else(|| FaultPlan::new(FaultConfig::quiet(seed(s))));
            plan = Some(base.with_corruption(gpu_sim::CorruptionConfig::standard(seed(s))));
        }
        let mut exec = Executor::new(mode, Arc::new(Metrics::new()));
        if let Some(plan) = plan {
            exec = exec.with_faults(Arc::new(plan));
        }
        if f.sanitize {
            exec = exec.with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        }
        exec
    };

    // --checkpoint persists boundary checkpoints: one SEPOCKP2 file for a
    // single shard, one SEPOCKS2 container with a section per shard
    // otherwise. --chaos-seed and --corrupt without a path still need
    // somewhere to recover from, so they keep checkpoints in memory.
    let recovering = f.chaos_seed.is_some() || f.corrupt.is_some();
    let fallback = if recovering {
        CheckpointPolicy::Memory
    } else {
        CheckpointPolicy::Off
    };
    let shared_ckp = f.checkpoint.as_ref().filter(|_| sharded).map(|path| {
        println!("checkpoint: sharded SEPOCKS2 file at {path} ({n} sections)");
        Arc::new(ShardedCheckpointFile::new(path.into(), n))
    });
    let policy = |i: u32| match (&shared_ckp, &f.checkpoint) {
        (Some(file), _) => CheckpointPolicy::SharedDisk(Arc::clone(file), i),
        (None, Some(path)) => CheckpointPolicy::Disk(path.into()),
        (None, None) => fallback.clone(),
    };
    let base_cfg = |policy: CheckpointPolicy| {
        let cfg = AppConfig::new(heap)
            .with_audit(f.audit)
            .with_combiner(f.combiner)
            .with_sanitize(f.sanitize)
            .with_evict_overlap(f.evict_overlap)
            .with_scrub(f.scrub)
            .with_checkpoint(policy);
        if recovering {
            cfg.with_max_recoveries(32)
        } else {
            cfg
        }
    };
    // --serve: every shard hands each boundary's epoch snapshot to a hook
    // that answers a Zipf-skewed query batch through that shard's own
    // serving executor (own metrics, own fault stream); the run itself
    // must stay byte-identical.
    let serving = f.serve.then(|| {
        let per_epoch = f.queries;
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let execs: Arc<Vec<Executor>> = Arc::new(
            (0..n)
                .map(|i| {
                    let exec = Executor::new(mode, Arc::new(Metrics::new()));
                    match f.faults {
                        // A distinct fault stream: serving retries its own aborts.
                        Some(seed) => exec.with_faults(Arc::new(FaultPlan::new(
                            FaultConfig::standard(seed ^ 0x5E17 ^ u64::from(i)),
                        ))),
                        None => exec,
                    }
                })
                .collect(),
        );
        let publishers: Vec<Arc<EpochPublisher>> = (0..n as usize)
            .map(|i| {
                let publisher = Arc::new(EpochPublisher::default());
                let (stats, execs) = (Arc::clone(&stats), Arc::clone(&execs));
                publisher.on_epoch(move |snap| {
                    let mut st = stats.lock().expect("no serving hook panicked");
                    serve_epoch(snap, &execs[i], per_epoch, &mut st);
                });
                publisher
            })
            .collect();
        println!("serving: epoch snapshots on, {per_epoch} queries per epoch");
        (publishers, execs, stats)
    });
    let shard_cfg = |i: u32| {
        let cfg = base_cfg(policy(i));
        match &serving {
            Some((publishers, ..)) => cfg.with_serving(Arc::clone(&publishers[i as usize])),
            None => cfg,
        }
    };
    let execs: Vec<Executor> = (0..n).map(shard_exec).collect();
    let cfgs: Vec<AppConfig> = (0..n).map(shard_cfg).collect();
    let run = run_app_sharded(app, &ds, &cfgs, &execs);

    let recovery = |g: fn(&RecoveryStats) -> u64| -> u64 {
        run.shards.iter().map(|r| g(&r.outcome.recovery)).sum()
    };
    let plans: Vec<&Arc<FaultPlan>> = execs.iter().filter_map(Executor::faults).collect();
    if let Some(plan) = plans.first() {
        let injected = |g: fn(&FaultPlan) -> u64| -> u64 { plans.iter().map(|p| g(p)).sum() };
        println!(
            "  injected faults: {} lane aborts over {} draws",
            injected(|p| p.injected(gpu_sim::FaultSite::Lane)),
            injected(|p| p.draws(gpu_sim::FaultSite::Lane))
        );
        if plan.has_hard_faults() {
            println!(
                "  hard faults: {} device losses, {} poisoned launches",
                injected(|p| p.hard_injected(gpu_sim::HardFaultKind::DeviceLost)),
                injected(|p| p.hard_injected(gpu_sim::HardFaultKind::PoisonedLaunch))
            );
        }
        if plan.has_corruption() {
            // The run finished, so every injected flip was detected and
            // repaired — an escaped flip fails the run with a witness.
            println!(
                "  integrity: recovered ({} flips injected: {} retransmits, \
                 {} checkpoint restores, {} image rewrites; {} host pages scrubbed clean)",
                injected(FaultPlan::total_corruption_injected),
                recovery(|r| r.retransmits),
                recovery(|r| r.integrity_restores.into()),
                recovery(|r| r.checkpoint_rewrites.into()),
                recovery(|r| r.scrubbed_pages)
            );
        }
    }
    if f.scrub && f.corrupt.is_none() {
        println!(
            "  scrub: {} finalized host pages verified",
            recovery(|r| r.scrubbed_pages)
        );
    }
    if f.checkpoint.is_some() || recovering {
        println!(
            "  checkpoints: {} taken (latest {}), {} recoveries, {} iterations replayed",
            recovery(|r| r.checkpoints_taken.into()),
            fmt_bytes(recovery(|r| r.checkpoint_bytes)),
            recovery(|r| r.recoveries.into()),
            recovery(|r| r.replayed_iterations.into())
        );
    }
    if f.audit {
        println!("  audit: every iteration boundary checked");
    }
    for (i, exec) in execs.iter().enumerate() {
        if let Some(sz) = exec.shadow() {
            let shard = if sharded {
                format!(" (shard {i})")
            } else {
                String::new()
            };
            println!("  sanitizer{shard}: {}", sz.report());
        }
    }
    let snaps: Vec<Snapshot> = execs.iter().map(|e| e.metrics().snapshot()).collect();
    let events = |g: fn(&Snapshot) -> u64| -> u64 { snaps.iter().map(g).sum() };
    let (hits, flushes) = (events(|s| s.combiner_hits), events(|s| s.combiner_flushes));
    if f.combiner && hits + flushes > 0 {
        println!(
            "  warp combiner: {hits} emits absorbed, {flushes} batched flushes, {} overflows",
            events(|s| s.combiner_overflows)
        );
    }
    println!("  head CAS retries: {}", events(|s| s.head_cas_retries));
    let hists: Vec<_> = run
        .shards
        .iter()
        .map(|r| r.table.full_contention_histogram())
        .collect();
    let parts: Vec<_> = run
        .shards
        .iter()
        .zip(&hists)
        .map(|(r, h)| (&r.outcome, h))
        .collect();
    let gpu = sharded_total_time(&parts, &spec);

    let shapes: Vec<_> = run.shards.iter().map(|r| r.table.table_stats()).collect();
    println!("\nGPU/SEPO run");
    if sharded {
        for (i, (r, routed)) in run.shards.iter().zip(&run.routed_records).enumerate() {
            println!(
                "  shard {i}: {:>6} records routed, {:>2} iterations, {:>9} evicted, {:>6} keys",
                routed,
                r.iterations(),
                fmt_bytes(r.outcome.total_evicted_bytes()),
                shapes[i].distinct_keys
            );
        }
    }
    let across = |note: &'static str| if sharded { note } else { "" };
    let (pages, bytes) = run
        .shards
        .iter()
        .map(|r| r.table.host_footprint())
        .fold((0, 0), |(p, b), (sp, sb)| (p + sp, b + sb));
    let evicted = run.shards.iter().map(|r| r.outcome.total_evicted_bytes());
    println!(
        "  iterations        {}{}",
        gpu.iterations,
        across(" (slowest shard)")
    );
    println!(
        "  table (host side) {} in {} pages",
        fmt_bytes(bytes),
        pages
    );
    println!("  evicted to CPU    {}", fmt_bytes(evicted.sum()));
    println!(
        "  sim time          {}{}",
        gpu.total,
        across(" (per-iteration max across shards)")
    );
    println!(
        "    kernels {} | transfers {} | contention {}",
        gpu.kernel, gpu.transfers, gpu.contention
    );
    // Shards partition the keys, so the tables' union has summed keys,
    // buckets and occupied buckets (the mean chain is keys per occupied
    // bucket).
    let keys: u64 = shapes.iter().map(|s| s.distinct_keys).sum();
    let buckets: u64 = shapes.iter().map(|s| s.buckets).sum();
    let occupied: u64 = shapes.iter().map(|s| s.occupied_buckets).sum();
    println!(
        "  table shape       {keys} keys over {buckets} buckets (load factor {:.2}, max chain {}, mean {:.2})",
        keys as f64 / buckets as f64,
        shapes.iter().map(|s| s.max_chain).max().unwrap_or(0),
        keys as f64 / occupied.max(1) as f64
    );

    let mut identical = true;
    if sharded {
        // Unsharded reference: one device, same heap and flags, shard 0's
        // fault seeds. The merged canonical image must match it byte for
        // byte.
        let reference = run_app(app, &ds, &base_cfg(fallback.clone()), &shard_exec(0));
        let ref_hist = reference.table.full_contention_histogram();
        let ref_gpu = gpu_total_time(&reference.outcome, &ref_hist, &spec);
        identical = run.image == unsharded_image(&reference);
        println!("\nunsharded reference (1 device, same heap)");
        println!("  iterations        {}", ref_gpu.iterations);
        println!("  sim time          {}", ref_gpu.total);
        println!(
            "\nsharded image vs 1 device: {}",
            if identical { "identical" } else { "DIVERGED" }
        );
        println!(
            "speedup vs 1 device {}",
            fmt_speedup(ref_gpu.total.ratio(gpu.total))
        );
    }

    let (cpu, baseline) = if App::MAPREDUCE.contains(&app) {
        let p = run_phoenix(app, &ds);
        let cpu = cpu_total_time(&p.snapshot, &p.contention, &spec);
        (cpu, "Phoenix++-style")
    } else {
        let b = run_cpu_app(app, &ds);
        let cpu = cpu_total_time(&b.snapshot, &b.contention, &spec);
        (cpu, "shared hash table, 8 threads")
    };
    println!("\nCPU baseline");
    println!("  sim time          {cpu} ({baseline})");
    println!(
        "\nspeedup             {}",
        fmt_speedup(cpu.ratio(gpu.total))
    );

    if let Some((publishers, serve_execs, stats)) = &serving {
        let tables: Vec<&SepoTable> = run.shards.iter().map(|r| &r.table).collect();
        match check_serving(&tables, publishers, stats, serve_execs) {
            Ok(summary) => {
                let traffic = |g: fn(&Snapshot) -> u64| -> u64 {
                    serve_execs.iter().map(|e| g(&e.metrics().snapshot())).sum()
                };
                println!("\nserving under the run");
                println!("  {summary}");
                println!(
                    "  serving traffic: {} bulk transfers, {} over PCIe (charged off-run)",
                    traffic(|s| s.pcie_bulk_transfers),
                    fmt_bytes(traffic(|s| s.pcie_bulk_bytes))
                );
            }
            Err(e) => {
                eprintln!("serving oracle FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &f.save {
        // lint: shard-ok (--save runs with one shard only)
        let table = &run.shards[0].table;
        // lint: io-ok (save() appends the SEPOHST2 checksum trailer)
        let saved = std::fs::File::create(path).and_then(|mut file| table.save(&mut file));
        match saved {
            Ok(()) => println!("table image saved to {path}"),
            Err(e) => {
                eprintln!("cannot save table to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_query(path: &str, keys: &[String]) -> ExitCode {
    use sepo_core::{HostIndex, Organization};
    // lint: io-ok (load() verifies the SEPOHST2 trailer before parsing)
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = match SepoTable::load(&mut file, 1 << 20, Arc::new(Metrics::new())) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load table image: {e}");
            return ExitCode::FAILURE;
        }
    };
    // lint: serve-ok (offline query path over a finalized saved image)
    let idx = match HostIndex::try_build(&table) {
        Ok(idx) => idx,
        Err(e) => {
            eprintln!("cannot query {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("loaded {path}: {} distinct keys", idx.len());
    for key in keys {
        match table.config().organization {
            Organization::Combining(_) => match idx.get_combined(key.as_bytes()) {
                Ok(Some(v)) => println!("{key} = {v}"),
                Ok(None) => println!("{key} = <absent>"),
                Err(e) => {
                    eprintln!("{key}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Organization::MultiValued => match idx.get_grouped(key.as_bytes()) {
                Ok(Some(vs)) => println!(
                    "{key} = [{}]",
                    vs.iter()
                        .map(|v| String::from_utf8_lossy(v).into_owned())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Ok(None) => println!("{key} = <absent>"),
                Err(e) => {
                    eprintln!("{key}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Organization::Basic => {
                println!("{key}: basic tables have no keyed query; use collect_basic()")
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_lookup(f: Flags) -> ExitCode {
    use sepo_datagen::{weblog, Rng, Zipf};
    let spec = gpu_sim::SystemSpec::scaled(f.scale);
    let heap = f.heap.unwrap_or_else(|| device_heap(&spec));
    let ds = App::PageViewCount.generate(1, f.scale);
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let run = sepo_apps::pvc::run(&ds, &AppConfig::new(heap), &exec);
    let (_, table_bytes) = run.table.host_footprint();
    println!(
        "built PVC table: {} over a {} heap ({} iterations)",
        fmt_bytes(table_bytes),
        fmt_bytes(heap),
        run.iterations()
    );

    let mut rng = Rng::new(7);
    let universe = (ds.len() / 3).max(1);
    let zipf = Zipf::new(universe, 0.9);
    let owned: Vec<String> = (0..f.queries)
        .map(|i| {
            if i % 5 == 4 {
                format!("http://absent.example.com/{i}")
            } else {
                weblog::url(zipf.sample(&mut rng))
            }
        })
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
    let out = run.table.lookup_phase(&exec, &queries);
    println!(
        "lookup phase: {} queries, {} rounds, {} paged through the device, {} hits",
        queries.len(),
        out.n_rounds(),
        fmt_bytes(out.total_loaded_bytes()),
        out.hits()
    );
    for r in &out.rounds {
        println!(
            "  round {}: {:>3} pages in, {:>7} pending, {:>7} completed",
            r.round, r.pages_loaded, r.queries_attempted, r.queries_completed
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("apps") => cmd_apps(),
        Some("run") => {
            let Some(app) = args.get(1).and_then(|s| app_by_slug(s)) else {
                return usage();
            };
            match parse_flags(&args[2..]) {
                Some(f) => cmd_run(app, f),
                None => usage(),
            }
        }
        Some("lookup") => match parse_flags(&args[1..]) {
            Some(f) => cmd_lookup(f),
            None => usage(),
        },
        Some("query") => match args.get(1) {
            Some(path) => cmd_query(path, &args[2..]),
            None => usage(),
        },
        _ => usage(),
    }
}
