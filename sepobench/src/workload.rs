//! The four workloads, and one repetition of a Fig. 6 cell: run SEPO,
//! price the run, run the CPU reference.

use crate::check::Truth;
use crate::probe::probe_s;
use crate::serve::{self, Client, EpochLog};
use crate::trace::{SpanId, Trace};
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{ShadowSanitizer, SimTime, SystemSpec, WorkerPool};
use sepo_apps::{run_app, run_app_sharded, AppConfig, AppRun};
use sepo_baselines::{run_cpu_app, run_phoenix};
use sepo_bench::{cpu_total_time, device_heap, gpu_total_time, sharded_total_time, GpuTiming};
use sepo_core::{CheckpointPolicy, EpochPublisher};
use sepo_datagen::{App, Dataset};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DNA Assembly #4 in the paper's configuration: the Fig. 6 cell.
    DnaPaper,
    /// Netflix #4 with overlapped eviction, in-memory checkpoints and
    /// page scrubbing.
    NetflixArmored,
    /// Word Count #4 on a small heap, combiner on, serving a query load.
    WordcountServe,
    /// Patent Citation #4 on two shards, audit and sanitizer on.
    PatentShard2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DnaPaper,
        Workload::NetflixArmored,
        Workload::WordcountServe,
        Workload::PatentShard2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DnaPaper => "dna-paper",
            Workload::NetflixArmored => "netflix-armored",
            Workload::WordcountServe => "wordcount-serve",
            Workload::PatentShard2 => "patent-shard2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn app(self) -> App {
        match self {
            Workload::DnaPaper => App::DnaAssembly,
            Workload::NetflixArmored => App::Netflix,
            Workload::WordcountServe => App::WordCount,
            Workload::PatentShard2 => App::PatentCitation,
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Workload::PatentShard2 => 2,
            _ => 1,
        }
    }

    /// One shard's run configuration.
    fn config(self, heap: u64) -> AppConfig {
        match self {
            Workload::DnaPaper => AppConfig::new(heap),
            Workload::NetflixArmored => AppConfig::new(heap)
                .with_evict_overlap(true)
                .with_checkpoint(CheckpointPolicy::Memory)
                .with_scrub(true),
            Workload::WordcountServe => AppConfig::new(heap / 16).with_combiner(true),
            Workload::PatentShard2 => AppConfig::new(heap / 2)
                .with_audit(true)
                .with_sanitize(true),
        }
    }

    /// The app's sequential reference oracle over `ds`.
    pub fn truth(self, ds: &Dataset) -> Truth {
        match self {
            Workload::DnaPaper => Truth::Counts(sepo_apps::dna::reference(ds)),
            Workload::NetflixArmored => Truth::Counts(sepo_apps::netflix::reference(ds)),
            Workload::WordcountServe => Truth::Counts(sepo_apps::wordcount::reference(ds)),
            Workload::PatentShard2 => Truth::Groups(sepo_apps::patent::reference(ds)),
        }
    }

    /// Build the simulated devices of one repetition: an executor and a
    /// configuration per shard. `wordcount-serve` always attaches its query
    /// client; `record_epochs` attaches a hook-time recorder to every other
    /// shard (traced runs).
    pub fn devices(self, spec: &SystemSpec, seed: u64, record_epochs: bool) -> Devices {
        WorkerPool::global();
        let heap = device_heap(spec);
        let client = (self == Workload::WordcountServe).then(|| Arc::new(Client::new(spec, seed)));
        let mut d = Devices {
            cfgs: Vec::new(),
            execs: Vec::new(),
            epochs: Vec::new(),
            client: client.clone(),
        };
        for _ in 0..self.shards() {
            let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
            let mut cfg = self.config(heap);
            if cfg.driver.sanitize {
                exec = exec.with_shadow(Arc::new(ShadowSanitizer::new()));
            }
            if client.is_some() || record_epochs {
                let (publisher, log) = serve::publisher(client.clone());
                cfg = cfg.with_serving(Arc::clone(&publisher));
                d.epochs.push((publisher, log));
            }
            d.cfgs.push(cfg);
            d.execs.push(exec);
        }
        d
    }

    /// Run SEPO, price it and run the CPU reference, each in its own span
    /// under `parent`.
    pub fn execute(
        self,
        ds: &Dataset,
        spec: &SystemSpec,
        devices: Devices,
        trace: &mut Trace,
        parent: Option<SpanId>,
    ) -> Rep {
        let app = self.app();
        let sharded = devices.execs.len() > 1;
        let run_name = if sharded {
            "apps.run_app_sharded"
        } else {
            "apps.run_app"
        };
        let probe_before = probe_s();
        let run_span = trace.open(run_name, parent);
        let (runs, routed) = if sharded {
            let s = run_app_sharded(app, ds, &devices.cfgs, &devices.execs);
            (s.shards, s.routed_records)
        } else {
            let run = run_app(app, ds, &devices.cfgs[0], &devices.execs[0]);
            (vec![run], vec![ds.len()])
        };
        trace.close(run_span);
        record_epochs(trace, run_span, &devices.epochs);

        let price_span = trace.open("bench.price", parent);
        let hists: Vec<_> = runs
            .iter()
            .map(|r| r.table.full_contention_histogram())
            .collect();
        let gpu = if sharded {
            let pairs: Vec<_> = runs.iter().map(|r| &r.outcome).zip(&hists).collect();
            sharded_total_time(&pairs, spec)
        } else {
            gpu_total_time(&runs[0].outcome, &hists[0], spec)
        };
        trace.close(price_span);

        let probe_between = probe_s();
        let baseline_span = trace.open("baselines.run", parent);
        let (baseline, contention) = if App::MAPREDUCE.contains(&app) {
            let p = run_phoenix(app, ds);
            (p.snapshot, p.contention)
        } else {
            let b = run_cpu_app(app, ds);
            (b.snapshot, b.contention)
        };
        trace.close(baseline_span);
        let probe_after = probe_s();
        let cpu = cpu_total_time(&baseline, &contention, spec);

        let seconds = |id: SpanId| trace.spans()[id].duration_ns() as f64 / 1e9;
        Rep {
            run_wall: seconds(run_span),
            baseline_wall: seconds(baseline_span),
            probes: [probe_before, probe_between, probe_after],
            devices,
            runs,
            routed,
            gpu,
            cpu,
            baseline,
        }
    }
}

/// The simulated devices of one repetition, one entry per shard.
pub struct Devices {
    pub cfgs: Vec<AppConfig>,
    pub execs: Vec<Executor>,
    /// Attached epoch publishers and their hook logs (empty when none).
    pub epochs: Vec<(Arc<EpochPublisher>, Arc<Mutex<EpochLog>>)>,
    pub client: Option<Arc<Client>>,
}

/// One repetition's outputs and host times.
pub struct Rep {
    pub devices: Devices,
    /// Per-shard runs, in shard order.
    pub runs: Vec<AppRun>,
    /// Records the router sent to each shard.
    pub routed: Vec<usize>,
    pub run_wall: f64,
    pub baseline_wall: f64,
    /// Probe wall times before the run, between the run and the CPU
    /// reference, and after the CPU reference.
    pub probes: [f64; 3],
    pub gpu: GpuTiming,
    /// Simulated time of the CPU reference.
    pub cpu: SimTime,
    /// Events of the CPU reference run.
    pub baseline: Snapshot,
}

impl Rep {
    /// Driver metrics of every shard.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.devices
            .execs
            .iter()
            .map(|e| e.metrics().snapshot())
            .collect()
    }

    /// SEPO run wall time in units of the probes around it.
    pub fn run_cost(&self) -> f64 {
        2.0 * self.run_wall / (self.probes[0] + self.probes[1])
    }

    /// CPU reference wall time in units of the probes around it.
    pub fn baseline_cost(&self) -> f64 {
        2.0 * self.baseline_wall / (self.probes[1] + self.probes[2])
    }

    pub fn speedup(&self) -> f64 {
        self.cpu.ratio(self.gpu.total)
    }

    /// The serving workload's hook log.
    pub fn serve_log(&self) -> Option<std::sync::MutexGuard<'_, EpochLog>> {
        self.devices.client.as_ref()?;
        let (_, log) = self.devices.epochs.first()?;
        Some(log.lock().expect("epoch log poisoned"))
    }
}

/// Turn hook times into spans under the run span: the interval between two
/// successive epoch hooks is one iteration (the last one, ending at the
/// finalized epoch, is the finalize step), and each serving batch nests in
/// the iteration whose boundary fired it.
fn record_epochs(
    trace: &mut Trace,
    run_span: SpanId,
    epochs: &[(Arc<EpochPublisher>, Arc<Mutex<EpochLog>>)],
) {
    for (_, log) in epochs {
        let log = log.lock().expect("epoch log poisoned");
        let mut iterations: Vec<(SpanId, std::time::Instant, std::time::Instant)> = Vec::new();
        for (k, pair) in log.hooks.windows(2).enumerate() {
            let name = if k + 2 == log.hooks.len() {
                "core.sepo.finalize"
            } else {
                "core.sepo.iteration"
            };
            let id = trace.record(name, Some(k as u32 + 1), Some(run_span), pair[0], pair[1]);
            iterations.push((id, pair[0], pair[1]));
        }
        for (j, b) in log.batches.iter().enumerate() {
            let parent = iterations
                .iter()
                .find(|(_, s, e)| *s <= b.start && b.start < *e)
                .map_or(run_span, |(id, _, _)| *id);
            trace.record(
                "core.serve.batch",
                Some(j as u32),
                Some(parent),
                b.start,
                b.end,
            );
        }
    }
}
