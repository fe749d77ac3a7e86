//! Brute-force linear scan: the correctness baseline the grid index is
//! tested against.

use super::bbox::Aabb3;
use unn_traj::trajectory::Oid;

/// No index at all: every query tests every entry.
#[derive(Debug)]
pub struct LinearScan {
    items: Vec<(Aabb3, Oid)>,
}

impl LinearScan {
    /// Wraps the entries.
    pub fn build(items: Vec<(Aabb3, Oid)>) -> Self {
        LinearScan { items }
    }

    /// All ids with at least one box intersecting `query`, ascending and
    /// deduplicated.
    pub fn query_bbox(&self, query: &Aabb3) -> Vec<Oid> {
        let mut hits: Vec<Oid> = self
            .items
            .iter()
            .filter(|(b, _)| b.intersects(query))
            .map(|(_, oid)| *oid)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Number of entries.
    pub fn entry_count(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::query_box;
    use super::*;

    #[test]
    fn scan_filters_and_dedups() {
        let items = vec![
            (query_box(0.0, 0.0, 1.0, 1.0, 0.0, 1.0), Oid(1)),
            (query_box(0.5, 0.5, 1.5, 1.5, 0.0, 1.0), Oid(1)),
            (query_box(5.0, 5.0, 6.0, 6.0, 0.0, 1.0), Oid(2)),
        ];
        let s = LinearScan::build(items);
        assert_eq!(s.entry_count(), 3);
        assert_eq!(
            s.query_bbox(&query_box(0.0, 0.0, 2.0, 2.0, 0.0, 1.0)),
            vec![Oid(1)]
        );
        assert_eq!(
            s.query_bbox(&query_box(0.0, 0.0, 10.0, 10.0, 0.0, 1.0)),
            vec![Oid(1), Oid(2)]
        );
        assert!(s
            .query_bbox(&query_box(8.0, 8.0, 9.0, 9.0, 0.0, 1.0))
            .is_empty());
    }
}
