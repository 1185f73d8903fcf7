//! Seeded inputs: the table, append batches and per-op parameters.
//!
//! Everything the system receives is generated here from `--seed`, so
//! the same seed gives the same rows, statements, payloads and batches.

/// Rows in the query workloads' table and the ingest workload's base.
pub const TABLE_ROWS: usize = 100_000;
/// Upper end of the value column's declared range.
pub const VALUE_MAX: f64 = 1000.0;
/// Distinct keys in column 1.
const KEYS: u64 = 10;
/// Distinct keys in column 2.
const WIDE_KEYS: u64 = 100;
/// Per-column ranges the SQL statements declare.
pub const COLUMN_RANGES: [(f64, f64); 3] = [
    (0.0, VALUE_MAX),
    (0.0, KEYS as f64),
    (0.0, WIDE_KEYS as f64),
];

/// SplitMix64: a small, fixed generator, so inputs do not depend on
/// any library's random stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for the `stream`-th independent input stream.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One row: a skewed value (exponential, mean 100, clamped to
/// `[0, VALUE_MAX]`), a uniform 10-key column, and a geometric 100-key
/// column whose tail keys hold only a handful of rows, so the
/// minimum-frequency gate suppresses some groups.
fn row(rng: &mut SplitMix) -> Vec<f64> {
    let value = (-100.0 * (1.0 - rng.unit()).ln()).min(VALUE_MAX);
    let key = (rng.next_u64() % KEYS) as f64;
    let wide = loop {
        let k = ((1.0 - rng.unit()).ln() / 0.92f64.ln()).floor();
        if k < WIDE_KEYS as f64 {
            break k;
        }
    };
    vec![value, key, wide]
}

/// The seeded table of `n` rows.
pub fn table(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix::stream(seed, 1);
    (0..n).map(|_| row(&mut rng)).collect()
}

/// Append batch number `b` of `rows` rows.
pub fn batch(seed: u64, b: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix::stream(seed, 1_000 + b);
    (0..rows).map(|_| row(&mut rng)).collect()
}

/// The catalog programs cold queries rotate through.
const PROGRAMS: [&str; 4] = ["mean:0", "median:0", "variance:0", "histogram:0:8"];

/// A catalog-program query: program spec and its declared range.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogQuery {
    pub program: &'static str,
    pub range: (f64, f64),
}

/// The `k`-th cold query of a run: its range is unique within the run,
/// so its fingerprint is too and it misses the cache.
pub fn cold_query(rng: &mut SplitMix, k: u64) -> CatalogQuery {
    let program = PROGRAMS[(k % PROGRAMS.len() as u64) as usize];
    let hi = VALUE_MAX + k as f64 + 0.5 * rng.unit();
    let range = if program.starts_with("variance") {
        (0.0, hi * hi / 4.0)
    } else {
        (0.0, hi)
    };
    CatalogQuery { program, range }
}

/// A `WHERE` threshold unique within the run: `base + (k mod span)`,
/// offset by a seeded fraction that also grows with `k / span`.
pub fn threshold(rng: &mut SplitMix, k: u64, base: f64, span: u64) -> f64 {
    base + (k % span) as f64 + ((k / span) as f64 + rng.unit()) * 1e-3
}
