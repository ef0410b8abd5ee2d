//! Epoch hooks: the `wordcount-serve` query client, and the hook-time
//! recorder that gives traced runs their per-iteration spans.
//!
//! The client is a closed loop: at each published epoch it fires
//! [`BATCHES_PER_EPOCH`] batches of [`BATCH`] queries, one after another,
//! waiting for each answer before sending the next batch. Keys are drawn
//! Zipf([`ZIPF_S`]) over the epoch's visible keys, and one query in five
//! names a key that never exists. Batches go through a serving executor of
//! their own, so they never touch the run's metrics.

use gpu_sim::cost::GpuCostModel;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics};
use gpu_sim::pcie::PcieBus;
use gpu_sim::SystemSpec;
use sepo_core::{EpochPublisher, EpochSnapshot};
use sepo_datagen::{Rng, Zipf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Query batches fired at each published epoch.
pub const BATCHES_PER_EPOCH: usize = 256;
/// Queries per batch.
pub const BATCH: usize = 256;
/// Zipf skew of the query keys.
pub const ZIPF_S: f64 = 0.9;
/// Base seed of the query stream; the benchmark seed is mixed into it.
const QUERY_SEED: u64 = 0x5E17_BEEF;

/// Marks a query for a key that exists in no epoch.
pub const ABSENT: u32 = u32::MAX;

/// One answered batch as the client saw it.
pub struct Batch {
    pub epoch: u32,
    pub start: Instant,
    pub end: Instant,
    /// Simulated latency per query, priced from the serving executor's
    /// metrics delta over the batch.
    pub sim_query_secs: f64,
    /// Index of each query's key in the epoch's visible keys, or [`ABSENT`].
    pub picks: Vec<u32>,
    pub answers: Vec<Option<u64>>,
}

/// What one publisher's hook saw over a run.
#[derive(Default)]
pub struct EpochLog {
    /// Entry time of each epoch hook, in publication order.
    pub hooks: Vec<Instant>,
    /// Visible keys of each epoch the client queried, by epoch number.
    pub keys: Vec<(u32, Vec<Vec<u8>>)>,
    pub batches: Vec<Batch>,
    /// Time the client spent in `visible_keys`.
    pub keys_wall: Duration,
    pub errors: Vec<String>,
}

impl EpochLog {
    /// The key each query of `batch` named.
    pub fn queries<'a>(&'a self, batch: &'a Batch) -> impl Iterator<Item = &'a [u8]> + 'a {
        let keys = self
            .keys
            .iter()
            .find(|(e, _)| *e == batch.epoch)
            .map(|(_, k)| k.as_slice())
            .unwrap_or_default();
        batch.picks.iter().enumerate().map(move |(i, &p)| {
            if p == ABSENT {
                absent_key(i)
            } else {
                keys[p as usize].as_slice()
            }
        })
    }
}

/// The absent key sent at position `i` of a batch.
fn absent_key(i: usize) -> &'static [u8] {
    static KEYS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| {
        (0..BATCH)
            .map(|i| format!("absent-{i}").into_bytes())
            .collect()
    })[i]
        .as_slice()
}

/// The query client and its serving executor.
pub struct Client {
    pub exec: Executor,
    metrics: Arc<Metrics>,
    gpu: GpuCostModel,
    bus: PcieBus,
    seed: u64,
}

impl Client {
    pub fn new(spec: &SystemSpec, seed: u64) -> Client {
        let metrics = Arc::new(Metrics::new());
        Client {
            exec: Executor::new(ExecMode::Deterministic, Arc::clone(&metrics)),
            metrics,
            gpu: GpuCostModel::new(spec.device.clone()),
            bus: PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new())),
            seed: QUERY_SEED ^ crate::inputs::mix(seed),
        }
    }

    fn fire(&self, snap: &EpochSnapshot, log: &mut EpochLog) {
        let t = Instant::now();
        let keys = snap.visible_keys();
        log.keys_wall += t.elapsed();
        if keys.is_empty() {
            return;
        }
        let mut rng = Rng::new(self.seed ^ u64::from(snap.iteration()));
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        let no_contention = ContentionHistogram::from_counts(std::iter::empty::<u64>());
        for _ in 0..BATCHES_PER_EPOCH {
            let picks: Vec<u32> = (0..BATCH)
                .map(|i| {
                    if i % 5 == 4 {
                        ABSENT
                    } else {
                        zipf.sample(&mut rng) as u32
                    }
                })
                .collect();
            let queries: Vec<&[u8]> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    if p == ABSENT {
                        absent_key(i)
                    } else {
                        keys[p as usize].as_slice()
                    }
                })
                .collect();
            let before = self.metrics.snapshot();
            let start = Instant::now();
            let answers = match snap.batch_get(&self.exec, &queries) {
                Ok(a) => a,
                Err(e) => {
                    log.errors.push(format!("epoch {}: {e}", snap.iteration()));
                    continue;
                }
            };
            let end = Instant::now();
            let d = self.metrics.snapshot().delta(&before);
            // Probe-kernel time at device rates plus the bulk transfers the
            // batch charged, each with its own initiation latency.
            let sim = self.gpu.kernel_time(&d, &no_contention)
                + self.bus.bulk_transfer_time(d.pcie_bulk_bytes)
                + self.bus.bulk_transfer_time(0) * d.pcie_bulk_transfers.saturating_sub(1);
            log.batches.push(Batch {
                epoch: snap.iteration(),
                start,
                end,
                sim_query_secs: sim.as_secs_f64() / BATCH as f64,
                picks,
                answers,
            });
        }
        log.keys.push((snap.iteration(), keys));
    }
}

/// A publisher whose hook records each epoch's time and, given a client,
/// fires the client's load at it.
pub fn publisher(client: Option<Arc<Client>>) -> (Arc<EpochPublisher>, Arc<Mutex<EpochLog>>) {
    let publisher = Arc::new(EpochPublisher::default());
    let log = Arc::new(Mutex::new(EpochLog::default()));
    let hook_log = Arc::clone(&log);
    publisher.on_epoch(move |snap| {
        let mut log = hook_log
            .lock()
            .expect("epoch log poisoned by a panicking hook");
        log.hooks.push(Instant::now());
        if let Some(client) = &client {
            client.fire(snap, &mut log);
        }
    });
    (publisher, log)
}
