//! A uniform spatial grid index over bounding boxes.
//!
//! Cells partition the `(x, y)` plane; each cell stores the boxes
//! overlapping it. Queries enumerate the covered cells and verify
//! candidate boxes exactly. Simple and predictable; the subscription
//! index keeps standing queries' guard boxes in one.
//!
//! Cells are `Arc`-shared so [`GridIndex::apply_delta`] can derive the
//! next grid by copy-on-write: untouched cells are pointer
//! copies, only the cells covered by the delta's boxes are rewritten.
//! Boxes outside the original extent clamp into edge cells — queries
//! clamp the same way and verify exactly, so answers stay identical to a
//! freshly built grid.

use super::bbox::Aabb3;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use unn_traj::trajectory::Oid;

/// Uniform grid over the spatial extent of the indexed boxes.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cells: Vec<Arc<Vec<(Aabb3, Oid)>>>,
    nx: usize,
    ny: usize,
    x0: f64,
    y0: f64,
    cell: f64,
    entries: usize,
}

impl GridIndex {
    /// Builds a grid with approximately `target_cells` cells covering the
    /// bounding rectangle of all entries.
    pub fn build(items: Vec<(Aabb3, Oid)>, target_cells: usize) -> Self {
        let entries = items.len();
        if items.is_empty() {
            return GridIndex {
                cells: vec![],
                nx: 0,
                ny: 0,
                x0: 0.0,
                y0: 0.0,
                cell: 1.0,
                entries: 0,
            };
        }
        let world = items
            .iter()
            .fold(Aabb3::empty(), |acc, (b, _)| acc.union(b));
        let w = (world.max[0] - world.min[0]).max(1e-9);
        let h = (world.max[1] - world.min[1]).max(1e-9);
        let target = target_cells.max(1) as f64;
        let cell = ((w * h) / target).sqrt().max(1e-9);
        let nx = (w / cell).ceil() as usize + 1;
        let ny = (h / cell).ceil() as usize + 1;
        let mut cells = vec![Vec::new(); nx * ny];
        let mut grid = GridIndex {
            cells: vec![],
            nx,
            ny,
            x0: world.min[0],
            y0: world.min[1],
            cell,
            entries,
        };
        for (b, oid) in items {
            let (ix0, iy0) = grid.cell_of(b.min[0], b.min[1]);
            let (ix1, iy1) = grid.cell_of(b.max[0], b.max[1]);
            for iy in iy0..=iy1 {
                for ix in ix0..=ix1 {
                    cells[iy * nx + ix].push((b, oid));
                }
            }
        }
        grid.cells = cells.into_iter().map(Arc::new).collect();
        grid
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let ix = ((x - self.x0) / self.cell).floor().max(0.0) as usize;
        let iy = ((y - self.y0) / self.cell).floor().max(0.0) as usize;
        (
            ix.min(self.nx.saturating_sub(1)),
            iy.min(self.ny.saturating_sub(1)),
        )
    }

    /// Cell slots covered by `b` (clamped into the grid).
    fn covered(&self, b: &Aabb3) -> impl Iterator<Item = usize> + '_ {
        let (ix0, iy0) = self.cell_of(b.min[0], b.min[1]);
        let (ix1, iy1) = self.cell_of(b.max[0], b.max[1]);
        let nx = self.nx;
        (iy0..=iy1).flat_map(move |iy| (ix0..=ix1).map(move |ix| iy * nx + ix))
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Derives the next grid by structural sharing: removes every entry
    /// owned by an id in `removed` (their original boxes are passed in
    /// `removed_boxes` so only the covered cells are touched) and inserts
    /// the new boxes, clamping into the existing extent. `O(cells)`
    /// pointer copies plus `O(|delta|)` cell rewrites — query answers are
    /// identical to a freshly built grid because every candidate is still
    /// verified exactly.
    pub fn apply_delta(
        &self,
        inserts: &[(Aabb3, Oid)],
        removed: &HashSet<Oid>,
        removed_boxes: &[(Aabb3, Oid)],
    ) -> GridIndex {
        if self.cells.is_empty() {
            // Degenerate base (built empty): no extent to patch into.
            return GridIndex::build(inserts.to_vec(), inserts.len().max(1));
        }
        let mut next = self.clone();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (b, _) in removed_boxes {
            touched.extend(next.covered(b));
        }
        for slot in touched {
            Arc::make_mut(&mut next.cells[slot]).retain(|(_, oid)| !removed.contains(oid));
        }
        for (b, oid) in inserts {
            for slot in next.covered(b).collect::<Vec<_>>() {
                Arc::make_mut(&mut next.cells[slot]).push((*b, *oid));
            }
        }
        next.entries = self.entries - removed_boxes.len() + inserts.len();
        next
    }

    /// All ids with at least one box intersecting `query`, ascending and
    /// deduplicated.
    pub fn query_bbox(&self, query: &Aabb3) -> Vec<Oid> {
        if self.entries == 0 || self.cells.is_empty() {
            return vec![];
        }
        let (ix0, iy0) = self.cell_of(query.min[0], query.min[1]);
        let (ix1, iy1) = self.cell_of(query.max[0], query.max[1]);
        let mut hits = Vec::new();
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                for (b, oid) in self.cells[iy * self.nx + ix].iter() {
                    if b.intersects(query) {
                        hits.push(*oid);
                    }
                }
            }
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Number of indexed entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::super::scan::LinearScan;
    use super::super::testutil::{query_box, segment_boxes};
    use super::*;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};

    #[test]
    fn empty_grid() {
        let g = GridIndex::build(vec![], 64);
        assert_eq!(g.entry_count(), 0);
        assert!(g
            .query_bbox(&query_box(0.0, 0.0, 1.0, 1.0, 0.0, 1.0))
            .is_empty());
    }

    #[test]
    fn matches_linear_scan_on_workload() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(60, 33), 0.5);
        let boxes = segment_boxes(&trs);
        let grid = GridIndex::build(boxes.clone(), 256);
        let scan = LinearScan::build(boxes);
        let queries = [
            query_box(0.0, 0.0, 40.0, 40.0, 0.0, 60.0),
            query_box(5.0, 25.0, 18.0, 33.0, 10.0, 40.0),
            query_box(0.0, 0.0, 2.0, 2.0, 58.0, 60.0),
            query_box(-10.0, -10.0, -5.0, -5.0, 0.0, 60.0),
        ];
        for q in &queries {
            assert_eq!(grid.query_bbox(q), scan.query_bbox(q), "query {q:?}");
        }
    }

    #[test]
    fn grid_dimensions_track_target() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(40, 2), 0.5);
        let g = GridIndex::build(segment_boxes(&trs), 100);
        let (nx, ny) = g.dims();
        assert!(nx * ny >= 100, "{nx}x{ny}");
        assert!(nx * ny < 1000, "{nx}x{ny}");
    }

    #[test]
    fn delta_matches_fresh_build() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(50, 41), 0.5);
        let boxes = segment_boxes(&trs);
        let base = GridIndex::build(boxes.clone(), boxes.len());

        // Remove objects 3 and 7, insert a replacement for 3 (shifted)
        // and a brand-new object far outside the original extent.
        let removed: HashSet<Oid> = [Oid(3), Oid(7)].into_iter().collect();
        let removed_boxes: Vec<(Aabb3, Oid)> = boxes
            .iter()
            .filter(|(_, oid)| removed.contains(oid))
            .copied()
            .collect();
        let mut fresh: Vec<(Aabb3, Oid)> = boxes
            .iter()
            .filter(|(_, oid)| !removed.contains(oid))
            .copied()
            .collect();
        let inserts = vec![
            (query_box(2.0, 2.0, 6.0, 6.0, 0.0, 30.0), Oid(3)),
            (query_box(500.0, 500.0, 510.0, 510.0, 0.0, 60.0), Oid(99)),
        ];
        fresh.extend(inserts.iter().copied());

        let patched = base.apply_delta(&inserts, &removed, &removed_boxes);
        let rebuilt = LinearScan::build(fresh.clone());
        assert_eq!(patched.entry_count(), fresh.len());
        let queries = [
            query_box(0.0, 0.0, 40.0, 40.0, 0.0, 60.0),
            query_box(1.0, 1.0, 7.0, 7.0, 0.0, 60.0),
            query_box(495.0, 495.0, 520.0, 520.0, 0.0, 60.0), // outside old extent
            query_box(-10.0, -10.0, 600.0, 600.0, 0.0, 60.0), // everything
        ];
        for q in &queries {
            assert_eq!(patched.query_bbox(q), rebuilt.query_bbox(q), "query {q:?}");
        }
        // The base grid is untouched (persistent structure).
        assert_eq!(base.entry_count(), boxes.len());
        assert!(base
            .query_bbox(&query_box(-10.0, -10.0, 600.0, 600.0, 0.0, 60.0))
            .contains(&Oid(7)));
    }

    #[test]
    fn delta_on_empty_base_builds_fresh() {
        let base = GridIndex::build(vec![], 8);
        let inserts = vec![(query_box(0.0, 0.0, 1.0, 1.0, 0.0, 1.0), Oid(1))];
        let patched = base.apply_delta(&inserts, &HashSet::new(), &[]);
        assert_eq!(patched.entry_count(), 1);
        assert_eq!(
            patched.query_bbox(&query_box(-1.0, -1.0, 2.0, 2.0, 0.0, 1.0)),
            vec![Oid(1)]
        );
    }
}
