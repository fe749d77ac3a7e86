//! Spatial indexing of bounding boxes in `(x, y, t)` space.
//!
//! One structure lives here: the uniform [`grid::GridIndex`], which the
//! subscription index keeps over standing queries' guard boxes so a
//! commit visits only the shares it can touch, and the brute-force
//! [`scan::LinearScan`] it is validated against. Candidate prefiltering
//! for one-shot queries does not go through an index — see
//! [`crate::prefilter`].

pub mod bbox;
pub mod grid;
pub mod scan;

/// Inputs shared by the grid and scan unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::bbox::Aabb3;
    use unn_traj::trajectory::Oid;
    use unn_traj::uncertain::UncertainTrajectory;

    /// The radius-inflated `(x, y, t)` box of every segment of every
    /// trajectory.
    pub fn segment_boxes(trs: &[UncertainTrajectory]) -> Vec<(Aabb3, Oid)> {
        let mut out = Vec::new();
        for tr in trs {
            for seg in tr.trajectory().segments() {
                let (a, b) = (seg.start, seg.end);
                let bbox = Aabb3::new(
                    [
                        a.position.x.min(b.position.x),
                        a.position.y.min(b.position.y),
                        a.time,
                    ],
                    [
                        a.position.x.max(b.position.x),
                        a.position.y.max(b.position.y),
                        b.time,
                    ],
                );
                out.push((bbox.inflate_xy(tr.radius()), tr.oid()));
            }
        }
        out
    }

    /// A query box covering a spatial rectangle over a time range.
    pub fn query_box(x0: f64, y0: f64, x1: f64, y1: f64, t0: f64, t1: f64) -> Aabb3 {
        Aabb3::new([x0, y0, t0], [x1, y1, t1])
    }
}
