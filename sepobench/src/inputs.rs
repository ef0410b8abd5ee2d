//! Seeded inputs: the Table I dataset #4 generators at scale 1/256.
//!
//! `App::generate` fixes its seed per (app, dataset); the benchmark needs
//! the same generator configurations under a caller-chosen seed. Seed 0
//! reproduces `App::generate(3, 256)` byte for byte (pinned by a test), so
//! the default run is the Fig. 6 dataset #4 cell.

use sepo_datagen::{dna, patents, ratings, text, App, Dataset};

/// Capacity and dataset scale divisor (the repository's default).
pub const SCALE: u64 = 256;
/// Table I dataset index: #4, the largest, where the table outgrows the
/// device heap several times over.
pub const DATASET: usize = 3;

/// Spread a benchmark seed over 64 bits; seed 0 maps to 0 so the default
/// run keeps the repository's own generator seeds.
pub fn mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generator seed of `app` under benchmark seed `seed`.
pub fn generator_seed(app: App, seed: u64) -> u64 {
    (0xC0FFEE ^ ((app as u64) << 8) ^ DATASET as u64) ^ mix(seed)
}

/// Dataset #4 of `app` at 1/[`SCALE`], generated from benchmark seed
/// `seed` with the configuration `App::generate` uses.
pub fn generate(app: App, seed: u64) -> Dataset {
    let bytes = app.dataset_bytes(DATASET, SCALE);
    let gen_seed = generator_seed(app, seed);
    match app {
        App::DnaAssembly => dna::generate(
            &dna::DnaConfig {
                target_bytes: bytes,
                coverage: 64.0,
                error_rate: 0.0,
                ..Default::default()
            },
            gen_seed,
        ),
        App::Netflix => ratings::generate(
            &ratings::RatingsConfig {
                target_bytes: bytes,
                raters_per_movie: 8,
                n_users: Some(((bytes / 20_000) as usize).max(64)),
                zipf_exponent: 1.0,
            },
            gen_seed,
        ),
        App::WordCount => text::generate(
            &text::TextConfig {
                target_bytes: bytes,
                vocab_size: ((bytes / 500) as usize).clamp(500, 40_000),
                ..Default::default()
            },
            gen_seed,
        ),
        App::PatentCitation => patents::generate(
            &patents::PatentsConfig {
                target_bytes: bytes,
                ..Default::default()
            },
            gen_seed,
        ),
        other => panic!("no benchmark workload runs {}", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_table1_generator() {
        for app in [
            App::DnaAssembly,
            App::Netflix,
            App::WordCount,
            App::PatentCitation,
        ] {
            let ours = generate(app, 0);
            let repo = app.generate(DATASET, SCALE);
            assert!(ours.bytes == repo.bytes, "{} bytes differ", app.name());
            assert_eq!(ours.offsets, repo.offsets, "{} records differ", app.name());
        }
    }

    #[test]
    fn other_seeds_change_the_input_but_not_its_size_class() {
        let a = generate(App::WordCount, 1);
        let b = generate(App::WordCount, 2);
        assert!(a.bytes != b.bytes);
        let want = App::WordCount.dataset_bytes(DATASET, SCALE);
        for ds in [a, b] {
            assert!(ds.size_bytes() >= want && ds.size_bytes() < want + want / 20);
        }
    }
}
