//! Key partitions: the rows of a block, routed to their group keys.
//!
//! A *partitioned* query declares a [`KeyPartition`] — key columns and
//! a sorted list of distinct key tuples — and a per-key program. The
//! runtime runs one block plan; inside each block's chamber it routes
//! every row to the one key its key columns hold, and calls the program
//! once per key present in the block, on a sub-view holding only that
//! key's rows (plus once on an empty sub-view, which stands for every
//! key absent from the block). The program never chooses its rows, so
//! key `g`'s outputs depend on key `g`'s rows alone — the property the
//! runtime's budget split relies on.
//!
//! Keys compare with [`f64::total_cmp`] after [`key_value`] folds `-0.0`
//! into `0.0`: every row has exactly one key, and rows whose key holds a
//! NaN group by the NaN's bit pattern.

use crate::view::{BlockView, RowStore};
use std::cmp::Ordering;
use std::sync::Arc;

/// A key column's value as partitions compare it: `-0.0` becomes `0.0`,
/// every other value (NaN included) is kept bit for bit.
#[inline]
pub fn key_value(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// The integer whose order is [`f64::total_cmp`]'s order on
/// [`key_value`]`(v)` — the transform `total_cmp` itself applies — so
/// a key search compares integers.
#[inline]
fn order_key(v: f64) -> i64 {
    let bits = key_value(v).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The inverse of [`order_key`].
fn from_order_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// The key columns of a partitioned query and its distinct keys, in
/// ascending lexicographic [`f64::total_cmp`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyPartition {
    columns: Vec<usize>,
    /// The keys as [`order_key`]s, flat: key `g` is `order[g·w..(g+1)·w]`
    /// for `w` columns, sorted and distinct.
    order: Vec<i64>,
    /// The same keys as values.
    keys: Vec<f64>,
}

impl KeyPartition {
    /// A partition on `columns` over the keys in `keys`, given flat
    /// (`columns.len()` values per key) in any order and with repeats:
    /// each value goes through [`key_value`], then the keys are sorted
    /// and deduplicated.
    pub fn new(columns: Vec<usize>, keys: Vec<f64>) -> Result<KeyPartition, String> {
        if columns.is_empty() {
            return Err("a key partition needs at least one key column".into());
        }
        if !keys.len().is_multiple_of(columns.len()) {
            return Err(format!(
                "{} key values do not split into keys of {} column(s)",
                keys.len(),
                columns.len()
            ));
        }
        let order = keys.into_iter().map(order_key).collect();
        let order = sort_dedup(order, columns.len());
        Ok(KeyPartition::from_order(columns, order))
    }

    /// The partition on `columns` over the keys of the rows of `store`
    /// that `filter` passes: one pass over the rows, into one flat key
    /// buffer.
    ///
    /// A row whose key is not yet in the sorted key list joins a buffer
    /// of new keys, which is merged into the list once it is as long as
    /// the list. Each merge is paid for by the rows that filled the
    /// buffer, so the pass is O(n log G) for `G` keys, however many keys
    /// there are.
    ///
    /// This reads private rows. It is a trusted planner step whose key
    /// list must only be released through a charged mechanism.
    ///
    /// Panics when `columns` is empty or a key column is outside the
    /// store's rows.
    pub fn scan(
        store: &RowStore,
        columns: Vec<usize>,
        filter: impl Fn(&[f64]) -> bool,
    ) -> KeyPartition {
        let width = columns.len();
        assert!(width > 0, "a key partition needs at least one key column");
        let mut order = Vec::new();
        let mut fresh = Vec::new();
        let mut key = vec![0; width];
        for row in store.iter_rows().filter(|row| filter(row)) {
            for (k, &c) in key.iter_mut().zip(&columns) {
                *k = order_key(row[c]);
            }
            let seen = match key[..] {
                [k] => order.binary_search(&k).is_ok(),
                _ => search(&order, width, |at| at.cmp(&key)).is_ok(),
            };
            if !seen {
                fresh.extend_from_slice(&key);
                if fresh.len() >= order.len() {
                    order.append(&mut fresh);
                    order = sort_dedup(order, width);
                }
            }
        }
        order.append(&mut fresh);
        KeyPartition::from_order(columns, sort_dedup(order, width))
    }

    /// The partition over sorted, distinct flat order keys.
    fn from_order(columns: Vec<usize>, order: Vec<i64>) -> KeyPartition {
        let keys = order.iter().copied().map(from_order_key).collect();
        KeyPartition {
            columns,
            order,
            keys,
        }
    }

    /// The key columns, in declaration order.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// The number of keys `G`.
    pub fn len(&self) -> usize {
        self.keys.len() / self.columns.len()
    }

    /// Whether the partition holds no key.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys in ascending order, one slice of `columns().len()`
    /// values each.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.keys.chunks_exact(self.columns.len())
    }

    /// The rank of `row`'s key among the keys, or `None` when its key is
    /// not one of them.
    ///
    /// Panics when a key column is outside the row.
    #[inline(always)]
    pub fn rank(&self, row: &[f64]) -> Option<usize> {
        match self.columns[..] {
            [c] => self.order.binary_search(&order_key(row[c])).ok(),
            _ => self.rank_tuple(row),
        }
    }

    /// [`KeyPartition::rank`] for a key of several columns, kept out of
    /// line so the one-column search inlines into the routing loop. It
    /// compares the row's key columns in place: no allocation per row.
    #[inline(never)]
    fn rank_tuple(&self, row: &[f64]) -> Option<usize> {
        search(&self.order, self.columns.len(), |at| {
            at.iter()
                .zip(&self.columns)
                .map(|(&k, &c)| k.cmp(&order_key(row[c])))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
        .ok()
    }

    /// Routes the rows of `block` to their keys: for each key present in
    /// the block, in ascending rank, the rank and a sub-view of exactly
    /// that key's rows in block order. Each sub-view's
    /// [`BlockView::block_len`] is the length of `block`. Rows whose key
    /// is not in the partition are in no sub-view.
    ///
    /// The sub-views share one index list, so routing a block allocates
    /// O(block length), whatever the number of keys. The rows are
    /// bucketed by a stable sort on their ranks, so the work is
    /// O(block length · log), never O(keys) per block.
    ///
    /// Panics when a key column is outside the block's rows.
    pub fn route(&self, block: &BlockView) -> Vec<(usize, BlockView)> {
        let mut ranked: Vec<(usize, usize)> = Vec::with_capacity(block.len());
        for (i, row) in block.iter().enumerate() {
            if let Some(g) = self.rank(row) {
                ranked.push((g, block.position(i)));
            }
        }
        // Stable, so each key's rows keep their block order.
        ranked.sort_by_key(|&(g, _)| g);
        // Each present key and its first slot in `positions`.
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        for (at, &(g, _)) in ranked.iter().enumerate() {
            if bounds.last().is_none_or(|&(last, _)| last != g) {
                bounds.push((g, at));
            }
        }
        let positions: Arc<[usize]> = ranked.iter().map(|&(_, at)| at).collect();
        let ends = bounds
            .iter()
            .skip(1)
            .map(|&(_, start)| start)
            .chain([positions.len()]);
        bounds
            .iter()
            .zip(ends)
            .map(|(&(g, start), end)| (g, block.sub_view(Arc::clone(&positions), start..end)))
            .collect()
    }

    /// The sub-view of `block` that holds no row: the input that stands
    /// for every key absent from the block.
    pub fn absent(block: &BlockView) -> BlockView {
        block.sub_view(Arc::from(Vec::new()), 0..0)
    }
}

/// Sorts flat order keys, `width` values per key, and drops repeats.
fn sort_dedup(order: Vec<i64>, width: usize) -> Vec<i64> {
    let mut chunks: Vec<&[i64]> = order.chunks_exact(width).collect();
    if chunks.is_sorted_by(|a, b| a < b) {
        return order;
    }
    chunks.sort_unstable();
    chunks.dedup();
    chunks.concat()
}

/// Binary search of the sorted flat `order` keys, `width` values per
/// key, with `cmp` ordering a key against the one sought. Like the
/// standard library's search (which the one-column case uses), it steps
/// by conditional moves, not branches: rows come in data order, so a
/// branching search would mispredict at most of its steps.
fn search(order: &[i64], width: usize, cmp: impl Fn(&[i64]) -> Ordering) -> Result<usize, usize> {
    let mut size = order.len() / width;
    if size == 0 {
        return Err(0);
    }
    let at = |g: usize| &order[g * width..(g + 1) * width];
    let mut base = 0;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = std::hint::select_unpredictable(cmp(at(mid)).is_le(), mid, base);
        size -= half;
    }
    match cmp(at(base)) {
        Ordering::Equal => Ok(base),
        Ordering::Less => Err(base + 1),
        Ordering::Greater => Err(base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(keys: &KeyPartition) -> Vec<Vec<u64>> {
        keys.keys()
            .map(|k| k.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn new_folds_zeros_sorts_and_dedups() {
        let p = KeyPartition::new(vec![0], vec![3.0, -0.0, 0.0, f64::NAN, 3.0, -1.0]).unwrap();
        assert_eq!(p.len(), 4);
        let want: Vec<Vec<u64>> = [-1.0, 0.0, 3.0, f64::NAN]
            .iter()
            .map(|v| vec![v.to_bits()])
            .collect();
        assert_eq!(bits(&p), want);
        assert!(KeyPartition::new(Vec::new(), Vec::new()).is_err());
        assert!(KeyPartition::new(vec![0, 1], vec![1.0]).is_err());
    }

    #[test]
    fn scan_matches_new_over_the_filtered_keys() {
        // Many distinct keys, so the scan merges new keys many times.
        let rows: Vec<Vec<f64>> = (0..12_288u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                vec![(h % 5000) as f64, [0.0, -0.0, 1.0][(h % 3) as usize]]
            })
            .collect();
        let store = RowStore::from_rows(&rows);
        let keep = |row: &[f64]| row[0] < 4000.0;
        for columns in [vec![0], vec![1], vec![1, 0]] {
            let flat: Vec<f64> = rows
                .iter()
                .filter(|r| keep(r))
                .flat_map(|r| columns.iter().map(|&c| r[c]).collect::<Vec<_>>())
                .collect();
            let scanned = KeyPartition::scan(&store, columns.clone(), keep);
            assert_eq!(scanned, KeyPartition::new(columns, flat).unwrap());
        }
    }

    #[test]
    fn every_row_ranks_to_its_key() {
        let p = KeyPartition::new(vec![1, 0], vec![0.0, 1.0, 2.0, f64::NAN, 0.0, 2.0]).unwrap();
        assert_eq!(p.rank(&[1.0, -0.0]), Some(0));
        assert_eq!(p.rank(&[2.0, 0.0]), Some(1));
        assert_eq!(p.rank(&[f64::NAN, 2.0]), Some(2));
        assert_eq!(p.rank(&[-f64::NAN, 2.0]), None);
        assert_eq!(p.rank(&[5.0, 0.0]), None);
    }
}
