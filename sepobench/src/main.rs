//! `sepobench` — the repository benchmark: one Fig. 6 cell per workload,
//! scored on simulated time, host wall-clock and memory, with a traced run
//! for per-layer numbers. See `README.md` beside this crate.
//!
//! ```text
//! sepobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every check passed.

mod check;
mod host;
mod inputs;
mod metrics;
mod probe;
mod serve;
mod stats;
mod trace;
mod workload;

use check::{Checks, Truth};
use gpu_sim::SystemSpec;
use sepo_core::crc32c;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::Instant;
use trace::Trace;
use workload::{Rep, Workload};

const USAGE: &str = "usage: sepobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
                     workloads: dna-paper netflix-armored wordcount-serve patent-shard2";

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

/// The DNA Assembly #4 row of `results/figure6.json` (iterations, GPU and
/// CPU simulated seconds), which the default seed must reproduce.
const FIG6_DNA4: (u32, f64, f64) = (8, 0.05342119, 0.305787216);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("sepobench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut checks = Checks::default();
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| bench(&args, &mut checks)));
    let metrics = match run {
        Ok(m) => m,
        Err(_) => {
            checks.require("the run finished without a panic", false);
            Vec::new()
        }
    };
    let correct = checks.failed == 0;
    let mut obj = serde_json::Map::new();
    for (name, value, unit) in &metrics {
        obj.insert(
            name.clone(),
            serde_json::json!({ "value": *value, "unit": *unit }),
        );
    }
    let result = serde_json::json!({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": obj,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}

type Metric = (String, f64, &'static str);

/// Host times of one repetition.
struct Timing {
    run_wall: f64,
    baseline_wall: f64,
    run_cost: f64,
    baseline_cost: f64,
    probe: f64,
}

impl Timing {
    fn of(rep: &Rep) -> Timing {
        Timing {
            run_wall: rep.run_wall,
            baseline_wall: rep.baseline_wall,
            run_cost: rep.run_cost(),
            baseline_cost: rep.baseline_cost(),
            probe: rep.probes.iter().sum::<f64>() / 3.0,
        }
    }
}

fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn bench(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let w = args.workload;
    let app = w.app();
    let spec = SystemSpec::scaled(inputs::SCALE);
    let stamp = host::stamp();
    // The run measures for `--seconds` in all, set-up included, and makes
    // at least one repetition.
    let start = Instant::now();

    // Set-up: datagen plus executor, pool and publisher construction. One
    // set-up precedes each repetition, so the samples spread over the run;
    // any still missing are taken after the last repetition.
    let mut setup_s = Vec::new();
    let mut datagen_s = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let ds = inputs::generate(app, args.seed);
        datagen_s.push(seconds(t));
        let devices = w.devices(&spec, args.seed, false);
        setup_s.push(seconds(t));
        (ds, devices)
    };

    // The first repetition also gives the peak resident set (one set-up and
    // one cell: later repetitions add allocator fragmentation, not work) and
    // is compared with the reference oracle.
    let (ds, devices) = set_up();
    let mut setups = 1;
    let first = w.execute(&ds, &spec, devices, &mut Trace::new(0), None);
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    let t = Instant::now();
    let truth = w.truth(&ds);
    checks.result(
        "result image equals the reference oracle",
        oracle(&first, &truth),
    );
    let oracle_wall = seconds(t);
    if args.seed == 0 && w == Workload::DnaPaper {
        let (iters, gpu, cpu) = FIG6_DNA4;
        checks.require(
            format!(
                "default seed reproduces Fig. 6 DNA #4 ({} iterations, {} s, {} s CPU)",
                first.gpu.iterations,
                first.gpu.total.as_secs_f64(),
                first.cpu.as_secs_f64()
            ),
            first.gpu.iterations == iters
                && first.gpu.total.as_secs_f64() == gpu
                && first.cpu.as_secs_f64() == cpu,
        );
    }
    verify(w, &first, &truth, checks);
    let fp = fingerprint(&first);
    let (sim_gpu, speedup) = (first.gpu.total.as_secs_f64(), first.speedup());
    let mut reps = vec![Timing::of(&first)];
    drop((first, ds));

    // Further repetitions for as long as the run measures.
    while seconds(start) < args.seconds {
        let (ds, devices) = set_up();
        setups += 1;
        let rep = w.execute(&ds, &spec, devices, &mut Trace::new(0), None);
        reps.push(Timing::of(&rep));
        verify(w, &rep, &truth, checks);
        checks.result(
            "repetition repeats every count exactly",
            same(&fp, &fingerprint(&rep)),
        );
    }
    for _ in setups..SETUP_SAMPLES {
        set_up();
    }
    cross_run(w, args.seed, &fp, checks);

    let median = |v: &[f64]| stats::median(v).expect("samples");
    let column = |f: fn(&Timing) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (run_s, baseline_s) = (column(|t| t.run_wall), column(|t| t.baseline_wall));
    let (run_cost, baseline_cost) = (column(|t| t.run_cost), column(|t| t.baseline_cost));
    let probe = column(|t| t.probe);
    let metrics: Vec<Metric> = if args.trace {
        let untraced = metrics::Untraced {
            run_wall: median(&run_s),
            run_cost: median(&run_cost),
            baseline_wall: median(&baseline_s),
            probe: median(&probe),
            datagen_wall: median(&datagen_s),
            oracle_wall,
        };
        traced_run(args, &spec, &truth, &fp, &untraced, checks)
    } else {
        let values = [
            sim_gpu,
            speedup,
            median(&run_cost),
            median(&baseline_cost),
            median(&setup_s),
            peak_rss,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name:>34} = {value} {unit}");
    }
    println!(
        "host: {}",
        serde_json::to_string(&stamp).expect("stamp serializes")
    );
    let by_name: serde_json::Map<String, serde_json::Value> = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), serde_json::json!({ "value": *v, "unit": *u })))
        .collect();
    let record = serde_json::json!({
        "workload": w.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": stamp,
        "samples": serde_json::json!({
            "setup_s": setup_s,
            "datagen_s": datagen_s,
            "run_wall_s": run_s,
            "baseline_wall_s": baseline_s,
            "run_cost": run_cost,
            "baseline_cost": baseline_cost,
            "probe_s": probe,
        }),
        "metrics": by_name,
        "checks": serde_json::json!({ "attempted": checks.attempted, "failed": checks.failed }),
    });
    let name = format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(
        &name,
        &serde_json::to_string_pretty(&record).expect("record serializes"),
    );
    metrics
}

/// One traced repetition, set-up included, whose spans give the per-layer
/// metrics.
fn traced_run(
    args: &Args,
    spec: &SystemSpec,
    truth: &Truth,
    want: &[String],
    untraced: &metrics::Untraced,
    checks: &mut Checks,
) -> Vec<Metric> {
    let w = args.workload;
    let run_id = inputs::mix(args.seed) ^ u64::from(std::process::id());
    let mut trace = Trace::new(run_id);
    let root = trace.open("workload", None);
    let setup = trace.open("setup", Some(root));
    let ds = trace.time("datagen.generate", Some(setup), || {
        inputs::generate(w.app(), args.seed)
    });
    let devices = trace.time("gpu_sim.executor_build", Some(setup), || {
        w.devices(spec, args.seed, true)
    });
    trace.close(setup);
    let rep = w.execute(&ds, spec, devices, &mut trace, Some(root));
    // The sharding layers, timed by calling them again on the same inputs.
    if rep.runs.len() > 1 {
        let router = sepo_apps::ShardRouter::new(w.app(), rep.runs.len() as u32);
        trace.time("apps.sharded.split", Some(root), || {
            router.split_dataset(&ds)
        });
        let tables: Vec<&sepo_core::SepoTable> = rep.runs.iter().map(|r| &r.table).collect();
        let audit = trace.time("core.shard.merge", Some(root), || {
            sepo_core::canonical_image(&tables);
            sepo_core::shard::audit_ownership(&tables)
        });
        checks.result("cross-shard ownership audit", audit);
    }
    verify_spans(w, &rep, truth, want, checks, &mut trace, root);
    trace.close(root);
    write_out(
        &format!("trace-{}-seed{}.json", w.name(), args.seed),
        &serde_json::to_string_pretty(&trace.to_json()).expect("trace serializes"),
    );
    let m = metrics::per_layer(&rep, &trace, ds.size_bytes(), ds.len(), untraced);
    metrics::per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = m[&name];
            (name, v, unit)
        })
        .collect()
}

/// Checks of the traced repetition, each in its own span.
fn verify_spans(
    w: Workload,
    rep: &Rep,
    truth: &Truth,
    want: &[String],
    checks: &mut Checks,
    trace: &mut Trace,
    root: trace::SpanId,
) {
    trace.time("check.image", Some(root), || {
        checks.result(
            "traced repetition repeats every count exactly",
            same(want, &fingerprint(rep)),
        )
    });
    trace.time("check.verify", Some(root), || verify(w, rep, truth, checks));
}

/// Checks every repetition must pass: every task completed, no sanitizer
/// finding, and the serving checks of `wordcount-serve`.
fn verify(w: Workload, rep: &Rep, truth: &Truth, checks: &mut Checks) {
    for (i, run) in rep.runs.iter().enumerate() {
        checks.require(
            format!("{} shard {i}: every task completed", w.name()),
            run.outcome.is_complete(),
        );
    }
    for (i, exec) in rep.devices.execs.iter().enumerate() {
        if let Some(shadow) = exec.shadow() {
            let report = shadow.report();
            checks.require(
                format!("{} shard {i}: sanitizer: {report}", w.name()),
                report.findings_total == 0,
            );
        }
    }
    if let (Some(client), Some((publisher, _)), Truth::Counts(counts)) =
        (&rep.devices.client, rep.devices.epochs.first(), truth)
    {
        let log = rep
            .serve_log()
            .expect("the serving workload logs its epochs");
        check::serving(checks, counts, publisher, client, &log);
        let batch_ms: Vec<f64> = log
            .batches
            .iter()
            .map(|b| (b.end - b.start).as_secs_f64())
            .collect();
        checks.require(
            format!(
                "{} batches leave at least {} beyond p99",
                batch_ms.len(),
                stats::MIN_BEYOND
            ),
            stats::tail_percentile(&batch_ms, 0.99).is_some(),
        );
    }
}

/// Compare the full key→value image with the app's reference oracle.
fn oracle(rep: &Rep, truth: &Truth) -> Result<(), String> {
    match truth {
        Truth::Counts(counts) => {
            let got: Vec<(Vec<u8>, u64)> = rep
                .runs
                .iter()
                .flat_map(|r| r.table.collect_combining())
                .collect();
            check::counts_match(counts, &got)
        }
        Truth::Groups(groups) => check::groups_match(
            groups,
            rep.runs
                .iter()
                .flat_map(|r| r.table.collect_grouped())
                .collect(),
        ),
    }
}

/// Every count and simulated time of a repetition, one line per item. Two
/// repetitions of one seed must produce identical lines.
fn fingerprint(rep: &Rep) -> Vec<String> {
    let mut fp = Vec::new();
    for (i, (run, exec)) in rep.runs.iter().zip(&rep.devices.execs).enumerate() {
        let o = &run.outcome;
        let trajectory: Vec<u64> = o.iterations.iter().map(|it| it.tasks_completed).collect();
        let mut image = Vec::new();
        run.table
            .save(&mut image)
            .expect("saving to memory cannot fail");
        let integrity = run.table.integrity();
        fp.extend([
            format!("shard{i}.trajectory={trajectory:?}"),
            format!("shard{i}.metrics={:?}", exec.metrics().snapshot()),
            format!(
                "shard{i}.streamed={} evicted={}",
                o.total_input_bytes(),
                o.total_evicted_bytes()
            ),
            format!("shard{i}.recovery={:?}", o.recovery),
            format!(
                "shard{i}.integrity={} {}",
                integrity.pages_stamped(),
                integrity.pages_verified()
            ),
            format!(
                "shard{i}.image={} bytes crc32c {:08x}",
                image.len(),
                crc32c(&image)
            ),
        ]);
    }
    fp.push(format!("routed={:?}", rep.routed));
    fp.push(format!("sim_gpu={:?}", rep.gpu));
    fp.push(format!("sim_cpu={:?} baseline={:?}", rep.cpu, rep.baseline));
    if let Some(log) = rep.serve_log() {
        let mut answers = Vec::new();
        for b in &log.batches {
            for a in &b.answers {
                answers.extend(a.map_or(u64::MAX, |v| v).to_le_bytes());
            }
            answers.extend(b.sim_query_secs.to_bits().to_le_bytes());
        }
        fp.push(format!(
            "serve.epochs={} batches={} answers crc32c {:08x}",
            log.hooks.len(),
            log.batches.len(),
            crc32c(&answers)
        ));
    }
    fp
}

fn same(want: &[String], got: &[String]) -> Result<(), String> {
    match want.iter().zip(got).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!("{a} became {b}")),
        None if want.len() != got.len() => Err("fingerprint length changed".into()),
        None => Ok(()),
    }
}

/// Where results, traces and fingerprints are written (ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, body: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), body));
    if let Err(e) = written {
        eprintln!("WARN: could not write {name}: {e}");
    }
}

/// Identity of this benchmark build: the CRC32C of its executable.
fn build_id() -> u32 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| crc32c(&bytes))
}

/// Exactness across runs: the fingerprint of a (workload, seed) pair is
/// kept beside the results, and a later run of the same build must repeat
/// it line for line. A new build starts a new record.
fn cross_run(w: Workload, seed: u64, fp: &[String], checks: &mut Checks) {
    let name = format!("fingerprint-{}-seed{seed}.txt", w.name());
    let header = format!("build {:08x}", build_id());
    if let Ok(prev) = std::fs::read_to_string(out_dir().join(&name)) {
        let mut lines = prev.lines();
        if lines.next() == Some(header.as_str()) {
            let prev: Vec<String> = lines.map(str::to_string).collect();
            checks.result(
                "counts and simulated times equal the previous run's",
                same(&prev, fp),
            );
            return;
        }
    }
    write_out(&name, &format!("{header}\n{}\n", fp.join("\n")));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "DNA #4 takes minutes unoptimized; run with `cargo test --release`"
    )]
    fn default_seed_reproduces_the_fig6_dna4_cell() {
        let w = Workload::DnaPaper;
        let spec = SystemSpec::scaled(inputs::SCALE);
        let ds = inputs::generate(w.app(), 0);
        let devices = w.devices(&spec, 0, false);
        let rep = w.execute(&ds, &spec, devices, &mut Trace::new(0), None);
        assert_eq!(
            (
                rep.gpu.iterations,
                rep.gpu.total.as_secs_f64(),
                rep.cpu.as_secs_f64()
            ),
            FIG6_DNA4
        );
        assert_eq!(rep.speedup(), 5.724080949900218);
    }

    #[test]
    fn fingerprints_compare_line_by_line() {
        let a = vec!["x=1".to_string(), "y=2".to_string()];
        assert!(same(&a, &a).is_ok());
        assert_eq!(
            same(&a, &["x=1".to_string(), "y=3".to_string()]),
            Err("y=2 became y=3".to_string())
        );
        assert!(same(&a, &a[..1]).is_err());
    }
}
