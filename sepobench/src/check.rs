//! Correctness checks. Every check is counted; a run with any failed check
//! reports `correct: false` and exits non-zero.

use crate::serve::{Client, EpochLog};
use sepo_core::{EpochPublisher, GroupedPair};
use std::collections::HashMap;
use std::fmt::Display;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one check; report it on stderr when it fails.
    pub fn require(&mut self, what: impl Display, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {what}");
        }
        ok
    }

    /// Count a check whose failure carries a reason.
    pub fn result(&mut self, what: impl Display, r: Result<(), String>) -> bool {
        match r {
            Ok(()) => self.require(what, true),
            Err(e) => self.require(format!("{what}: {e}"), false),
        }
    }
}

/// The per-app reference oracle's answer.
pub enum Truth {
    Counts(HashMap<Vec<u8>, u64>),
    Groups(HashMap<Vec<u8>, Vec<Vec<u8>>>),
}

fn show(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

/// The full key→value image must equal the oracle's.
pub fn counts_match(truth: &HashMap<Vec<u8>, u64>, got: &[(Vec<u8>, u64)]) -> Result<(), String> {
    if got.len() != truth.len() {
        return Err(format!("{} keys, oracle has {}", got.len(), truth.len()));
    }
    for (k, v) in got {
        match truth.get(k) {
            Some(want) if want == v => {}
            Some(want) => return Err(format!("key {:?}: {v}, oracle {want}", show(k))),
            None => return Err(format!("key {:?} not in the oracle", show(k))),
        }
    }
    Ok(())
}

/// Every group must hold the oracle's values as a multiset. `got` may hold
/// a key in several pieces (one per shard); the pieces are merged.
pub fn groups_match(
    truth: &HashMap<Vec<u8>, Vec<Vec<u8>>>,
    got: Vec<GroupedPair>,
) -> Result<(), String> {
    let mut merged: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::with_capacity(truth.len());
    for (k, vs) in got {
        merged.entry(k).or_default().extend(vs);
    }
    if merged.len() != truth.len() {
        return Err(format!("{} keys, oracle has {}", merged.len(), truth.len()));
    }
    for (k, mut vs) in merged {
        let Some(want) = truth.get(&k) else {
            return Err(format!("key {:?} not in the oracle", show(&k)));
        };
        let mut want = want.clone();
        vs.sort();
        want.sort();
        if vs != want {
            return Err(format!(
                "key {:?}: {} values, oracle {}",
                show(&k),
                vs.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Serving checks of `wordcount-serve`: every batch answered, the
/// finalized epoch answers every key exactly, and no earlier answer
/// exceeds the final count (absent keys must answer nothing).
pub fn serving(
    checks: &mut Checks,
    truth: &HashMap<Vec<u8>, u64>,
    publisher: &EpochPublisher,
    client: &Client,
    log: &EpochLog,
) {
    for e in &log.errors {
        checks.require(format!("serving batch failed: {e}"), false);
    }
    let finalized = publisher.current().filter(|s| s.finalized());
    if !checks.require(
        "last published epoch is the finalized one",
        finalized.is_some(),
    ) {
        return;
    }
    let snap = finalized.expect("checked above");
    let mut keys: Vec<&Vec<u8>> = truth.keys().collect();
    keys.sort();
    let exact = keys.chunks(4096).try_for_each(|chunk| {
        let q: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
        let answers = snap
            .batch_get(&client.exec, &q)
            .map_err(|e| e.to_string())?;
        for (k, a) in chunk.iter().zip(answers) {
            if a != truth.get(*k).copied() {
                return Err(format!("key {:?}: epoch says {a:?}", show(k)));
            }
        }
        Ok(())
    });
    checks.result("finalized epoch answers every key exactly", exact);
    let bounded = log.batches.iter().try_for_each(|b| {
        for (q, a) in log.queries(b).zip(&b.answers) {
            let fine = match (a, truth.get(q)) {
                (None, _) => true,
                (Some(got), Some(last)) => got <= last,
                (Some(_), None) => false,
            };
            if !fine {
                return Err(format!(
                    "epoch {}: key {:?} answered {a:?}",
                    b.epoch,
                    show(q)
                ));
            }
        }
        Ok(())
    });
    checks.result("no epoch answers above the final count", bounded);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_must_match_exactly() {
        let truth: HashMap<Vec<u8>, u64> = [(b"a".to_vec(), 2), (b"b".to_vec(), 1)].into();
        assert!(counts_match(&truth, &[(b"b".to_vec(), 1), (b"a".to_vec(), 2)]).is_ok());
        assert!(counts_match(&truth, &[(b"a".to_vec(), 2)]).is_err());
        assert!(counts_match(&truth, &[(b"a".to_vec(), 2), (b"b".to_vec(), 3)]).is_err());
        assert!(counts_match(&truth, &[(b"a".to_vec(), 2), (b"c".to_vec(), 1)]).is_err());
    }

    #[test]
    fn groups_compare_as_multisets_across_pieces() {
        let truth: HashMap<Vec<u8>, Vec<Vec<u8>>> = [(
            b"k".to_vec(),
            vec![b"x".to_vec(), b"y".to_vec(), b"x".to_vec()],
        )]
        .into();
        let pieces = vec![
            (b"k".to_vec(), vec![b"x".to_vec()]),
            (b"k".to_vec(), vec![b"y".to_vec(), b"x".to_vec()]),
        ];
        assert!(groups_match(&truth, pieces).is_ok());
        let short = vec![(b"k".to_vec(), vec![b"x".to_vec(), b"y".to_vec()])];
        assert!(groups_match(&truth, short).is_err());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        assert!(c.require("ok", true));
        assert!(!c.require("broken", false));
        assert!(!c.result("reason", Err("why".into())));
        assert_eq!((c.attempted, c.failed), (3, 2));
    }
}
