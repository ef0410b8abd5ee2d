//! Netflix: user-pair similarity scoring (§VI-A).
//!
//! "Calculates a similarity score between each pair of users based on
//! their movie preferences \[3\]. Each KV pair … is of the form
//! <userA&userB, similarity score between two users for a movie>. The
//! application uses the combining method."
//!
//! One task is one movie record; it emits a pair for every two users who
//! rated the movie (k·(k−1)/2 pairs), combined by addition across movies.

use crate::common::{AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::{Combiner, Organization};
use sepo_core::hash::fnv1a;
use sepo_core::sepo::{SepoDriver, TaskResult};
use sepo_core::table::{InsertStatus, SepoTable};
use sepo_datagen::ratings::{pair_key, parse_movie, similarity};
use sepo_datagen::Dataset;
use std::collections::HashMap;

/// Run Netflix over `dataset` on the SEPO substrate.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    let table = SepoTable::new(
        cfg.table_config(Organization::Combining(Combiner::Add)),
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
                // Every key is known up front, so the lookahead overlaps
                // their cache misses (DESIGN §17).
                for (n, (key, hash, score)) in table.lookahead(pairs(&raters, start)).enumerate() {
                    lane.compute(30);
                    if table.insert_combining_hashed(&key, hash, score, lane)
                        == InsertStatus::Postponed
                    {
                        return TaskResult::Postponed {
                            next_pair: start + n as u32,
                        };
                    }
                }
                TaskResult::Done
            },
        )
    };
    table.finalize();
    AppRun { outcome, table }
}

/// The inserts of one movie's task from pair `start` on, built lazily:
/// `(pair key, its fnv1a hash, similarity)` for every two raters `(i, j)`,
/// `j > i`, in the kernel's deterministic enumeration order. Pair indices
/// count in this order, so `start` is a postponed task's `next_pair`.
pub fn pairs(raters: &[(u64, u8)], start: u32) -> impl Iterator<Item = ([u8; 16], u64, u64)> + '_ {
    let n = raters.len();
    (0..n)
        .flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
        .skip(start as usize)
        .map(|(i, j)| {
            let (ua, ra) = raters[i];
            let (ub, rb) = raters[j];
            let key = pair_key(ua, ub);
            (key, fnv1a(&key), similarity(ra, rb))
        })
}

/// Sequential reference implementation (verification oracle). Keys are the
/// 16-byte order-normalized pair keys.
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, u64> {
    let mut scores: HashMap<Vec<u8>, u64> = HashMap::new();
    for record in dataset.records() {
        let Some((_m, raters)) = parse_movie(record) else {
            continue;
        };
        for i in 0..raters.len() {
            for j in i + 1..raters.len() {
                let (ua, ra) = raters[i];
                let (ub, rb) = raters[j];
                *scores.entry(pair_key(ua, ub).to_vec()).or_insert(0) += similarity(ra, rb);
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::ratings::{generate, RatingsConfig};

    fn movies(bytes: u64) -> Dataset {
        generate(
            &RatingsConfig {
                target_bytes: bytes,
                n_users: Some(300),
                ..Default::default()
            },
            41,
        )
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = movies(40_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(4 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = movies(60_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(48 * 1024), &exec);
        assert!(run.iterations() > 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn pairs_resumed_from_start_yield_the_suffix() {
        let raters: Vec<(u64, u8)> = (0..7).map(|u| (100 - u, (u % 5) as u8 + 1)).collect();
        let all: Vec<_> = pairs(&raters, 0).collect();
        assert_eq!(all.len(), 7 * 6 / 2);
        let (i, j) = (2, 5); // pair 6 + 5 + (5 - 3) = 13
        assert_eq!(all[13].0, pair_key(raters[i].0, raters[j].0));
        assert_eq!(all[13].2, similarity(raters[i].1, raters[j].1));
        for (key, hash, _) in &all {
            assert_eq!(*hash, fnv1a(key));
        }
        for start in 0..=all.len() + 1 {
            let rest: Vec<_> = pairs(&raters, start as u32).collect();
            assert_eq!(rest, all[start.min(all.len())..], "start {start}");
        }
    }

    #[test]
    fn pair_counts_are_quadratic_per_movie() {
        // Sanity on task decomposition: a movie with k raters contributes
        // k(k-1)/2 pair emissions.
        let ds = movies(20_000);
        let mut total_pairs = 0usize;
        for rec in ds.records() {
            let (_, raters) = parse_movie(rec).unwrap();
            total_pairs += raters.len() * (raters.len() - 1) / 2;
        }
        assert!(total_pairs > ds.len(), "pairs must outnumber records");
    }
}
