//! The query workloads' op sequence: a fixed round pattern whose
//! parameters come from the seed. The sequence depends only on the seed
//! and the op index, never on timing, so a shorter run executes a
//! prefix of a longer one.

use crate::gen::{cold_query, threshold, CatalogQuery, SplitMix};
use crate::system::{EPS_GROUPED, EPS_QUERY, TABLE};

/// Cold catalog queries per round.
const COLD_PER_ROUND: usize = 8;
/// Ungrouped statements per round.
const SQL_PER_ROUND: usize = 8;
/// A 100-key grouped statement closes every this many rounds.
const WIDE_EVERY: u64 = 16;

#[derive(Clone, Debug)]
pub enum Op {
    Cold(CatalogQuery),
    Warm(CatalogQuery),
    Sql(String),
    Grouped(String),
    Wide(String),
}

pub struct QueryMix {
    rng: SplitMix,
    round: u64,
    cold: u64,
    sql: u64,
    warm_per_round: usize,
    grouped: bool,
}

impl QueryMix {
    /// `warm_per_round` replays per round; `grouped` adds one 10-key
    /// statement per round and a 100-key one every [`WIDE_EVERY`].
    pub fn new(seed: u64, warm_per_round: usize, grouped: bool) -> Self {
        QueryMix {
            rng: SplitMix::stream(seed, 2),
            round: 0,
            cold: 0,
            sql: 0,
            warm_per_round,
            grouped,
        }
    }

    /// The next round: cold queries, warm replays of this round's cold
    /// queries (still cached: nothing is inserted between them),
    /// ungrouped statements, then the grouped ones.
    pub fn round(&mut self) -> Vec<Op> {
        let colds: Vec<CatalogQuery> = (0..COLD_PER_ROUND)
            .map(|_| {
                let q = cold_query(&mut self.rng, self.cold);
                self.cold += 1;
                q
            })
            .collect();
        let mut ops: Vec<Op> = colds.iter().cloned().map(Op::Cold).collect();
        for _ in 0..self.warm_per_round {
            let j = (self.rng.next_u64() % colds.len() as u64) as usize;
            ops.push(Op::Warm(colds[j].clone()));
        }
        for _ in 0..SQL_PER_ROUND {
            let t = threshold(&mut self.rng, self.sql, 20.0, 900);
            self.sql += 1;
            ops.push(Op::Sql(format!(
                "SELECT AVG(c0) FROM {TABLE} WHERE c0 < {t} WITH EPSILON {EPS_QUERY}"
            )));
        }
        if self.grouped {
            let t = threshold(&mut self.rng, self.round, 500.0, 400);
            ops.push(Op::Grouped(grouped_statement(t, 1)));
            if self.round % WIDE_EVERY == WIDE_EVERY - 1 {
                ops.push(Op::Wide(grouped_statement(t, 2)));
            }
        }
        self.round += 1;
        ops
    }
}

fn grouped_statement(threshold: f64, column: usize) -> String {
    format!(
        "SELECT COUNT(*), AVG(c0) FROM {TABLE} WHERE c0 < {threshold} \
         GROUP BY c{column} WITH EPSILON {EPS_GROUPED}"
    )
}
