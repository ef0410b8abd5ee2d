//! The host-speed probe.
//!
//! The measuring host's speed drifts by a third over minutes (see
//! `README.md`, "Host noise"), and a 30-second run cannot average that out.
//! So each timed call is bracketed by this probe, and host time is also
//! reported in probe units: the call's wall time divided by the mean of the
//! probes before and after it.
//! The probe's work is fixed and belongs to the benchmark, so no change to
//! the program can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Table updates per probe (about 0.06 s on the tuning host).
const OPS: u64 = 400_000;
/// Distinct keys the updates spread over.
const KEYS: u64 = 1 << 16;

/// Wall seconds of the probe's fixed hashing and ordered-table work.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    let mut table: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..OPS {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *table.entry((z ^ (z >> 31)) % KEYS).or_insert(0) += i;
    }
    black_box(table.len());
    t.elapsed().as_secs_f64()
}
