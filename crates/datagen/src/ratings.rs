//! Netflix input: per-movie rating records.
//!
//! The application "calculates a similarity score between each pair of
//! users based on their movie preferences" \[3\]: for every movie, every pair
//! of users who both rated it contributes `<userA&userB, score>` to the
//! hash table, combined by addition across movies (§VI-A). Records are one
//! movie per line with its raters, so one task emits `k·(k-1)/2` pairs —
//! the multi-pair-per-task case the SEPO driver's progress counter exists
//! for.

use crate::dataset::Dataset;
use crate::rng::Rng;
use crate::zipf::Zipf;

/// Configuration for the ratings generator.
#[derive(Debug, Clone)]
pub struct RatingsConfig {
    /// Approximate total size in bytes.
    pub target_bytes: u64,
    /// User universe size; `None` derives from volume.
    pub n_users: Option<usize>,
    /// Raters per movie record (mean; actual is uniform in `[k/2, 3k/2)`).
    pub raters_per_movie: usize,
    /// Zipf exponent of user activity.
    pub zipf_exponent: f64,
}

impl Default for RatingsConfig {
    fn default() -> Self {
        RatingsConfig {
            target_bytes: 1 << 20,
            n_users: None,
            raters_per_movie: 10,
            zipf_exponent: 0.6,
        }
    }
}

/// Generate a ratings dataset: lines of `m<movie> u<user>:<rating> ...`.
pub fn generate(cfg: &RatingsConfig, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let k = cfg.raters_per_movie.max(2);
    let approx_line = 8 + k as u64 * 12;
    let n_movies = (cfg.target_bytes / approx_line).max(1);
    let n_users = cfg
        .n_users
        .unwrap_or(((n_movies as usize * k) / 20).max(16));
    let zipf = Zipf::new(n_users, cfg.zipf_exponent);
    let mut ds = Dataset::new();
    let mut line = String::new();
    let mut movie = 0u64;
    let mut raters: Vec<usize> = Vec::new();
    while ds.size_bytes() < cfg.target_bytes {
        let n = (k / 2 + rng.below(k as u64) as usize).max(2);
        raters.clear();
        while raters.len() < n {
            let u = zipf.sample(&mut rng);
            if !raters.contains(&u) {
                raters.push(u);
            }
        }
        line.clear();
        line.push_str(&format!("m{movie:07}"));
        for &u in &raters {
            line.push_str(&format!(" u{u:07}:{}", 1 + rng.below(5)));
        }
        line.push('\n');
        ds.push_record(line.as_bytes());
        movie += 1;
    }
    ds
}

/// Parse a movie record into `(movie_id, [(user, rating)])`.
///
/// Fields are separated by whitespace; the first is `m<movie>` and every
/// later one `u<user>:<rating>`, with numbers in `str::parse` syntax (an
/// optional `+`, decimal digits, no overflow). Any malformed field rejects
/// the whole record. An ASCII record — every record the generator writes —
/// is decoded byte by byte; a non-ASCII one takes the `str` path, whose
/// Unicode whitespace rules only matter there.
pub fn parse_movie(record: &[u8]) -> Option<(u64, Vec<(u64, u8)>)> {
    if !record.is_ascii() {
        return parse_movie_str(record);
    }
    // `char::is_whitespace` restricted to ASCII: `\t \n \x0B \x0C \r` and
    // space (`u8::is_ascii_whitespace` would miss `\x0B`).
    let mut fields = record
        .split(|b| matches!(b, b'\t'..=b'\r' | b' '))
        .filter(|f| !f.is_empty());
    let movie = decimal(fields.next()?.strip_prefix(b"m")?)?;
    // Generated rater fields take 11 bytes with their separator, so this
    // one reservation replaces the vector's doubling growth.
    let mut raters = Vec::with_capacity(record.len() / 8);
    for f in fields {
        let colon = f.iter().position(|&b| b == b':')?;
        let user = decimal(f[..colon].strip_prefix(b"u")?)?;
        let rating = u8::try_from(decimal(&f[colon + 1..])?).ok()?;
        raters.push((user, rating));
    }
    Some((movie, raters))
}

/// An ASCII unsigned decimal as `u64::from_str` reads it: an optional `+`,
/// then at least one digit, rejecting overflow.
fn decimal(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// The `str` decoder for records holding non-ASCII bytes: Unicode
/// whitespace separates fields, and invalid UTF-8 is rejected.
fn parse_movie_str(record: &[u8]) -> Option<(u64, Vec<(u64, u8)>)> {
    let s = std::str::from_utf8(record).ok()?;
    let mut fields = s.split_whitespace();
    let movie = fields.next()?.strip_prefix('m')?.parse().ok()?;
    let mut raters = Vec::new();
    for f in fields {
        let (u, r) = f.split_once(':')?;
        raters.push((u.strip_prefix('u')?.parse().ok()?, r.parse().ok()?));
    }
    Some((movie, raters))
}

/// The pair key for users `a` and `b` — order-normalized so `<a,b>` and
/// `<b,a>` combine.
pub fn pair_key(a: u64, b: u64) -> [u8; 16] {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&lo.to_le_bytes());
    key[8..].copy_from_slice(&hi.to_le_bytes());
    key
}

/// The similarity contribution of two ratings of the same movie: higher
/// when the ratings agree (a simple co-preference score).
pub fn similarity(ra: u8, rb: u8) -> u64 {
    let diff = ra.abs_diff(rb) as u64;
    4u64.saturating_sub(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_parse_back() {
        let ds = generate(
            &RatingsConfig {
                target_bytes: 50_000,
                ..Default::default()
            },
            1,
        );
        assert!(ds.len() > 100);
        for (i, rec) in ds.records().enumerate() {
            let (movie, raters) = parse_movie(rec).expect("parseable");
            assert_eq!(movie, i as u64);
            assert!(raters.len() >= 2);
            assert!(raters.iter().all(|&(_, r)| (1..=5).contains(&r)));
            // Raters unique within a movie.
            let mut us: Vec<u64> = raters.iter().map(|&(u, _)| u).collect();
            us.sort_unstable();
            us.dedup();
            assert_eq!(us.len(), raters.len());
        }
    }

    #[test]
    fn pair_key_is_order_normalized() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(3, 10));
    }

    #[test]
    fn similarity_rewards_agreement() {
        assert_eq!(similarity(5, 5), 4);
        assert_eq!(similarity(1, 5), 0);
        assert!(similarity(4, 5) > similarity(2, 5));
        assert_eq!(similarity(2, 4), similarity(4, 2));
    }

    #[test]
    fn active_users_co_occur_across_movies() {
        // Zipf user activity must produce repeated pairs — the combining
        // workload.
        let ds = generate(
            &RatingsConfig {
                target_bytes: 120_000,
                n_users: Some(200),
                zipf_exponent: 0.9,
                ..Default::default()
            },
            3,
        );
        let mut pair_counts = std::collections::HashMap::new();
        for rec in ds.records() {
            let (_, raters) = parse_movie(rec).unwrap();
            for i in 0..raters.len() {
                for j in i + 1..raters.len() {
                    *pair_counts
                        .entry(pair_key(raters[i].0, raters[j].0))
                        .or_insert(0u32) += 1;
                }
            }
        }
        assert!(pair_counts.values().any(|&c| c > 3), "no repeated pairs");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_movie(b"not a movie line").is_none());
        assert!(parse_movie(b"m1 u2").is_none()); // missing rating
    }

    #[test]
    fn parse_keeps_the_str_grammar_corners() {
        let ok = |movie, raters: &[(u64, u8)]| Some((movie, raters.to_vec()));
        assert_eq!(parse_movie(b"m+7 u+3:+5"), ok(7, &[(3, 5)]));
        assert_eq!(parse_movie(b"m1 u2:255 u3:007"), ok(1, &[(2, 255), (3, 7)]));
        assert_eq!(parse_movie(b"m1 u2:256"), None);
        assert_eq!(parse_movie(b"m18446744073709551615"), ok(u64::MAX, &[]));
        assert_eq!(parse_movie(b"m18446744073709551616"), None);
        assert_eq!(parse_movie(b"m1 u-2:3"), None);
        assert_eq!(parse_movie(b"m+ u2:3"), None);
        assert_eq!(parse_movie(b"m1 u2:3:4"), None);
        assert_eq!(
            parse_movie(b"m1\x0Bu2:3\x0C\r\tu4:5 \n"),
            ok(1, &[(2, 3), (4, 5)])
        );
        assert_eq!(parse_movie(b"m1\x1Fu2:3"), None);
        assert_eq!(
            parse_movie("m1\u{A0}u2:3\u{3000}u4:5".as_bytes()),
            ok(1, &[(2, 3), (4, 5)])
        );
        assert_eq!(parse_movie(b"m1 u2:3 \xFF"), None);
        assert_eq!(parse_movie(b""), None);
        assert_eq!(parse_movie(b" \t "), None);
        assert_eq!(parse_movie(b"m9   "), ok(9, &[]));
    }

    /// Numbers as the record grammar may spell them, edge cases included:
    /// signs, empty digits, the `u8` and `u64` limits and one past them,
    /// and leading zeros past 20 digits.
    const EDGE_NUMBERS: &[&str] = &[
        "",
        "+",
        "++1",
        "-1",
        "-0",
        "+0",
        "007",
        "255",
        "256",
        "+255",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "0000000000000000000000000005",
        "1_0",
        "\u{663}",
    ];

    /// Field separators: every ASCII whitespace byte, Unicode whitespace
    /// (U+0085, U+00A0, U+3000) and a control byte that is not whitespace.
    const SEPARATORS: &[&str] = &[
        " ", " ", " ", "\t", "\n", "\r", "\x0B", "\x0C", "\u{85}", "\u{A0}", "\u{3000}", "\x1F",
    ];

    /// Byte runs that are not UTF-8: a stray byte and truncated sequences.
    const INVALID_UTF8: &[&[u8]] = &[b"\xFF", b"u1:\xC3", b"\xE3\x80"];

    fn number(rng: &mut Rng) -> String {
        match rng.below(10) {
            0 => rng.pick(EDGE_NUMBERS).to_string(),
            1 => format!("+{}", rng.below(300)),
            _ => rng.below(300).to_string(),
        }
    }

    /// One field: usually the one the grammar expects at this position,
    /// otherwise a malformed or out-of-place one.
    fn field(rng: &mut Rng, first: bool, out: &mut Vec<u8>) {
        let form = if rng.below(4) > 0 {
            u64::from(!first)
        } else {
            rng.below(9)
        };
        let text = match form {
            0 => format!("m{}", number(rng)),
            1 => format!("u{}:{}", number(rng), number(rng)),
            2 => format!("u{}", number(rng)),
            3 => format!("{}:{}", number(rng), number(rng)),
            4 => format!("u{}:{}:{}", number(rng), number(rng), number(rng)),
            5 => format!("U{}:{}", number(rng), number(rng)),
            6 => format!("u{}:{}\u{e9}", number(rng), number(rng)),
            7 => {
                let bytes = *rng.pick(INVALID_UTF8);
                out.extend_from_slice(bytes);
                return;
            }
            _ => String::new(),
        };
        out.extend_from_slice(text.as_bytes());
    }

    fn separators(rng: &mut Rng, min: u64, out: &mut Vec<u8>) {
        for _ in 0..min + rng.below(3) {
            out.extend_from_slice(rng.pick(SEPARATORS).as_bytes());
        }
    }

    /// A random record from the movie-line grammar.
    fn grammar_record(seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut out = Vec::new();
        separators(&mut rng, 0, &mut out);
        for i in 0..rng.below(7) {
            if i > 0 {
                separators(&mut rng, 1, &mut out);
            }
            field(&mut rng, i == 0, &mut out);
        }
        if rng.below(2) == 0 {
            separators(&mut rng, 0, &mut out);
        }
        out
    }

    #[test]
    fn grammar_records_reach_every_decoder_outcome() {
        // Accepted and rejected, on both the byte and the `str` path.
        let mut seen = [[0u32; 2]; 2];
        for seed in 0..4096 {
            let record = grammar_record(seed);
            seen[usize::from(record.is_ascii())][usize::from(parse_movie(&record).is_some())] += 1;
        }
        assert!(seen.iter().flatten().all(|&n| n >= 64), "{seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte decoder agrees with the `str` parser — the only parser
        /// before the byte path existed — on every grammar record.
        #[test]
        fn byte_decoder_matches_the_str_parser(seed in any::<u64>()) {
            let record = grammar_record(seed);
            prop_assert_eq!(
                parse_movie(&record),
                parse_movie_str(&record),
                "record {:?}",
                String::from_utf8_lossy(&record)
            );
        }
    }
}
