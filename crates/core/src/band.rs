//! The `4r` pruning band (§3.2 of the paper).
//!
//! "The trajectories whose distance functions do not intersect the region
//! bounded by the lower envelope and its vertically-translated copy for a
//! vector of length 4r in the (distance, time) space, can never have a
//! non-zero probability of being a nearest neighbor to `Tr_q`."
//!
//! The bound is `4r` because, after convolution, both the candidate and
//! the current nearest neighbor are supported on disks of radius `2r`
//! around their difference-trajectory centers. The band supports the
//! continuous-pruning criterion (Figure 10, `TR_7`) and the Category 1/3
//! query variants of §4.
//!
//! # Bound before you solve
//!
//! Every predicate here walks the overlay of a candidate's pieces and the
//! envelope's pieces; on one cell both are single hyperbolas. The exact
//! tools for a cell are quartic root isolations
//! ([`Hyperbola::min_clearance_above`], [`Hyperbola::crossings_shifted`]:
//! a few hundred nanoseconds each, heap-free, by `unn_geom::roots`), but
//! on a realistic fleet ~99 % of the cells are nowhere near the band
//! edge: the two distance ranges
//! ([`Hyperbola::range_on`] — two endpoints and a vertex) already prove
//! the cell wholly outside or wholly inside `LE + δ`. So each cell is
//! first classified from those ranges, with a margin wider than the
//! solver's own acceptance tolerance, and only a cell that genuinely
//! straddles the edge reaches the solver. The filter only ever skips work
//! — a settled cell is one where the solver would have found no crossing
//! and classified the whole cell the same way — so results are
//! bit-identical to solving everywhere, which the tests hold against
//! always-solve oracles. The shifted envelopes of [`crate::shifted`] and
//! the heterogeneous-radii engine of [`crate::hetero`] settle their cells
//! through the same classifier.

use crate::envelope::Envelope;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_geom::roots::Roots;
use unn_traj::distance::DistanceFunction;

/// Statistics of a pruning pass — the quantity Figure 13 reports
/// ("percentage of integration required" = `kept / total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandStats {
    /// Number of candidate objects examined (excluding the query).
    pub total: usize,
    /// Number of objects that may have non-zero probability (kept).
    pub kept: usize,
}

impl BandStats {
    /// Fraction of objects whose probabilities still require integration.
    pub fn kept_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }
}

/// Enumerates the elementary intervals of the overlay of `f`'s pieces and
/// `le`'s pieces, invoking `visit(sub, f_piece_idx, le_piece_idx)`.
/// Stops early when `visit` returns `false`.
fn overlay<F>(f: &DistanceFunction, le: &Envelope, mut visit: F)
where
    F: FnMut(TimeInterval, usize, usize) -> bool,
{
    let window = match f.span().intersection(&le.span()) {
        Some(w) if !w.is_degenerate() => w,
        _ => return,
    };
    let fp = f.pieces();
    let lp = le.pieces();
    let mut i = fp.partition_point(|p| p.span.end() <= window.start());
    let mut j = lp.partition_point(|p| p.span.end() <= window.start());
    let mut cursor = window.start();
    while i < fp.len() && j < lp.len() && cursor < window.end() - 1e-15 {
        let end = fp[i].span.end().min(lp[j].span.end()).min(window.end());
        if end > cursor {
            let sub = TimeInterval::new(cursor, end);
            if !sub.is_degenerate() && !visit(sub, i, j) {
                return;
            }
            cursor = end;
        }
        if fp[i].span.end() <= end + 1e-12 {
            i += 1;
        }
        if lp[j].span.end() <= end + 1e-12 {
            j += 1;
        }
    }
}

/// Safety factor of the range pre-tests, relative to the cell's
/// `1 + max f + max LE + δ`: four times the `1e-6` relative tolerance with
/// which [`Hyperbola::crossings_shifted`] accepts a root. One part covers
/// that tolerance; the rest covers float rounding in the bounds themselves
/// (a near-zero distance under large coefficients evaluates to ~1e-6).
const MARGIN: f64 = 4e-6;

/// O(1) bounds on `f − LE` over one overlay cell, from
/// [`Hyperbola::range_on`] (two endpoints and the vertex of each piece).
struct ClearanceRange {
    /// `min f − max LE`: no instant of the cell has less clearance.
    lo: f64,
    /// `max f − min LE`: no instant of the cell has more.
    hi: f64,
    /// `1 + max f + max LE`, what [`MARGIN`] is relative to.
    scale: f64,
}

impl ClearanceRange {
    fn of(fh: &Hyperbola, lh: &Hyperbola, sub: &TimeInterval) -> Self {
        let (f_lo, f_hi) = fh.range_on(sub);
        let (l_lo, l_hi) = lh.range_on(sub);
        ClearanceRange {
            lo: f_lo - l_hi,
            hi: f_hi - l_lo,
            scale: 1.0 + f_hi + l_hi,
        }
    }

    fn margin(&self, delta: f64) -> f64 {
        MARGIN * (self.scale + delta)
    }
}

/// How a candidate piece sits against `LE + δ` over one overlay cell, as
/// far as [`ClearanceRange`] can tell. `Outside` and `Inside` hold with
/// [`MARGIN`] to spare — the exact solver would find no crossing it
/// accepts and classify the whole cell the same way — so they only ever
/// skip work; anything closer is `Straddles` and goes to the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cell {
    /// `f > LE + δ` throughout.
    Outside,
    /// `f < LE + δ` throughout.
    Inside,
    /// Too close to call from ranges.
    Straddles,
}

/// Classifies one overlay cell from the two pieces' distance ranges.
pub(crate) fn classify_cell(
    fh: &Hyperbola,
    lh: &Hyperbola,
    delta: f64,
    sub: &TimeInterval,
) -> Cell {
    let range = ClearanceRange::of(fh, lh, sub);
    let margin = range.margin(delta);
    if range.lo > delta + margin {
        Cell::Outside
    } else if range.hi < delta - margin {
        Cell::Inside
    } else {
        Cell::Straddles
    }
}

/// Instants of `sub` where `fh = lh + δ`: none when ranges settle the
/// cell, the quartic solver's otherwise.
pub(crate) fn cell_crossings(
    fh: &Hyperbola,
    lh: &Hyperbola,
    delta: f64,
    sub: &TimeInterval,
) -> Roots {
    match classify_cell(fh, lh, delta, sub) {
        Cell::Straddles => fh.crossings_shifted(lh, delta, sub),
        Cell::Outside | Cell::Inside => Roots::new(),
    }
}

/// Signature shared by [`slices_below`] and its always-solve twin.
pub(crate) type SliceFn = fn(&Hyperbola, &Hyperbola, f64, TimeInterval, &mut Vec<TimeInterval>);

/// Pushes the slices of `sub` on which `fh ≤ lh + δ`.
pub(crate) fn slices_below(
    fh: &Hyperbola,
    lh: &Hyperbola,
    delta: f64,
    sub: TimeInterval,
    spans: &mut Vec<TimeInterval>,
) {
    match classify_cell(fh, lh, delta, &sub) {
        Cell::Outside => {}
        Cell::Inside => spans.push(sub),
        Cell::Straddles => solved_slices_below(fh, lh, delta, sub, spans),
    }
}

/// [`slices_below`] by the exact route: cut `sub` at the crossings of
/// [`Hyperbola::crossings_shifted`] and classify each slice by a midpoint
/// probe.
pub(crate) fn solved_slices_below(
    fh: &Hyperbola,
    lh: &Hyperbola,
    delta: f64,
    sub: TimeInterval,
    spans: &mut Vec<TimeInterval>,
) {
    let mut cuts = vec![sub.start()];
    for t in fh.crossings_shifted(lh, delta, &sub) {
        if t > sub.start() + 1e-12 && t < sub.end() - 1e-12 {
            cuts.push(t);
        }
    }
    cuts.push(sub.end());
    for w in cuts.windows(2) {
        let slice = TimeInterval::new(w[0], w[1]);
        if slice.is_degenerate() {
            continue;
        }
        let mid = slice.midpoint();
        if fh.eval(mid) <= lh.eval(mid) + delta {
            spans.push(slice);
        }
    }
}

/// Minimum of `f(t) − LE(t)` over the window: the candidate's clearance
/// above the envelope (zero or negative when the candidate touches or
/// realizes the envelope).
///
/// Branch and bound over the overlay: every cell contributes its two
/// endpoint values (the solver's own starting minimum), and
/// [`Hyperbola::min_clearance_above`] runs only on cells whose lower bound
/// could still beat the best so far.
pub fn band_clearance(f: &DistanceFunction, le: &Envelope) -> f64 {
    let mut best = f64::INFINITY;
    overlay(f, le, |sub, i, j| {
        let (fh, lh) = (&f.pieces()[i].hyperbola, &le.pieces()[j].hyperbola);
        let g = |t: f64| fh.eval(t) - lh.eval(t);
        best = best.min(g(sub.start())).min(g(sub.end()));
        let range = ClearanceRange::of(fh, lh, &sub);
        if range.lo - range.margin(0.0) < best {
            best = best.min(fh.min_clearance_above(lh, &sub));
        }
        true
    });
    best
}

/// `true` when `f` enters the band `LE + delta` somewhere (i.e. the object
/// has non-zero probability of being the NN at some instant). Early-exits
/// on the first sub-interval that dips into the band.
pub fn enters_band(f: &DistanceFunction, le: &Envelope, delta: f64) -> bool {
    let mut inside = false;
    overlay(f, le, |sub, i, j| {
        inside = cell_enters(
            &f.pieces()[i].hyperbola,
            &le.pieces()[j].hyperbola,
            delta,
            &sub,
            Hyperbola::min_clearance_above,
        );
        !inside
    });
    inside
}

/// `true` when `fh ≤ lh + δ` somewhere in `sub`, i.e. when `solve` (the
/// exact per-cell clearance — a parameter so the tests can count how often
/// it is reached) would return at most `δ`. Ranges settle most cells; a
/// straddling one is still settled without the solver when an endpoint is
/// already in the band, because the solver's minimum starts from the
/// endpoint values.
fn cell_enters(
    fh: &Hyperbola,
    lh: &Hyperbola,
    delta: f64,
    sub: &TimeInterval,
    solve: impl FnOnce(&Hyperbola, &Hyperbola, &TimeInterval) -> f64,
) -> bool {
    match classify_cell(fh, lh, delta, sub) {
        Cell::Outside => false,
        Cell::Inside => true,
        Cell::Straddles => {
            let g = |t: f64| fh.eval(t) - lh.eval(t);
            g(sub.start()) <= delta || g(sub.end()) <= delta || solve(fh, lh, sub) <= delta
        }
    }
}

/// Partitions candidates into kept (may have non-zero NN probability) and
/// pruned, using the `4r` band criterion. Returns the kept indices and
/// the statistics Figure 13 plots.
pub fn prune_by_band(fs: &[DistanceFunction], le: &Envelope, r: f64) -> (Vec<usize>, BandStats) {
    assert!(r >= 0.0, "negative uncertainty radius {r}");
    let delta = 4.0 * r;
    let mut kept = Vec::new();
    for (idx, f) in fs.iter().enumerate() {
        if enters_band(f, le, delta) {
            kept.push(idx);
        }
    }
    let stats = BandStats {
        total: fs.len(),
        kept: kept.len(),
    };
    (kept, stats)
}

/// Heterogeneous-radii pruning — the paper's last future-work item (§7:
/// "allow for different uncertainty zones of the object locations").
///
/// With per-object radii `r_i` (candidates), query radius `r_q`, object
/// `i` can be the NN at `t` only if some position of `i` is at least as
/// close as some position of the envelope owner `j`:
///
/// ```text
/// d_i(t) − (r_i + r_q) ≤ d_j(t) + (r_j + r_q)
/// ⇔ d_i(t) ≤ LE(t) + r_i + r_j + 2 r_q .
/// ```
///
/// Since the owner `j` varies along the envelope, the sound (slightly
/// conservative) per-object band is `delta_i = r_i + max_j r_j + 2 r_q`.
/// With all radii equal this reduces to the paper's `4r` band exactly.
pub fn prune_by_band_heterogeneous(
    fs: &[DistanceFunction],
    le: &Envelope,
    radii: &[f64],
    query_radius: f64,
) -> (Vec<usize>, BandStats) {
    assert_eq!(fs.len(), radii.len(), "one radius per candidate");
    assert!(query_radius >= 0.0, "negative query radius");
    let r_max = radii.iter().fold(0.0f64, |m, &r| m.max(r));
    let mut kept = Vec::new();
    for (idx, f) in fs.iter().enumerate() {
        let delta = radii[idx] + r_max + 2.0 * query_radius;
        if enters_band(f, le, delta) {
            kept.push(idx);
        }
    }
    let stats = BandStats {
        total: fs.len(),
        kept: kept.len(),
    };
    (kept, stats)
}

/// The set of times at which `f(t) ≤ LE(t) + delta`: the instants where
/// the object has non-zero probability of being the nearest neighbor.
///
/// Cells wholly outside or wholly inside the band are settled from ranges
/// (`classify_cell`); in the rest, crossing instants are found exactly
/// (quartic root isolation via
/// [`unn_geom::hyperbola::Hyperbola::crossings_shifted`]) and each slice
/// between crossings is classified by a midpoint probe.
pub fn inside_band_intervals(f: &DistanceFunction, le: &Envelope, delta: f64) -> IntervalSet {
    let mut spans: Vec<TimeInterval> = Vec::new();
    overlay(f, le, |sub, i, j| {
        slices_below(
            &f.pieces()[i].hyperbola,
            &le.pieces()[j].hyperbola,
            delta,
            sub,
            &mut spans,
        );
        true
    });
    IntervalSet::from_intervals(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::lower_envelope;
    use proptest::prelude::*;
    use unn_geom::point::Vec2;
    use unn_traj::difference::difference_distances;
    use unn_traj::distance::DistancePiece;
    use unn_traj::generator::{generate, WorkloadConfig};
    use unn_traj::trajectory::Oid;

    // The always-solve predicates the range pre-tests replaced, kept as
    // the oracles the fast paths must match bit for bit.

    fn band_clearance_oracle(f: &DistanceFunction, le: &Envelope) -> f64 {
        let mut best = f64::INFINITY;
        overlay(f, le, |sub, i, j| {
            let c = f.pieces()[i]
                .hyperbola
                .min_clearance_above(&le.pieces()[j].hyperbola, &sub);
            best = best.min(c);
            true
        });
        best
    }

    fn enters_band_oracle(f: &DistanceFunction, le: &Envelope, delta: f64) -> bool {
        let mut inside = false;
        overlay(f, le, |sub, i, j| {
            let c = f.pieces()[i]
                .hyperbola
                .min_clearance_above(&le.pieces()[j].hyperbola, &sub);
            inside = c <= delta;
            !inside
        });
        inside
    }

    fn inside_band_intervals_oracle(
        f: &DistanceFunction,
        le: &Envelope,
        delta: f64,
    ) -> IntervalSet {
        let mut spans = Vec::new();
        overlay(f, le, |sub, i, j| {
            let (fh, lh) = (&f.pieces()[i].hyperbola, &le.pieces()[j].hyperbola);
            solved_slices_below(fh, lh, delta, sub, &mut spans);
            true
        });
        IntervalSet::from_intervals(spans)
    }

    fn span_bits(set: &IntervalSet) -> Vec<(u64, u64)> {
        set.spans()
            .iter()
            .map(|iv| (iv.start().to_bits(), iv.end().to_bits()))
            .collect()
    }

    /// All three predicates against their oracles for one candidate.
    fn assert_matches_oracles(
        f: &DistanceFunction,
        le: &Envelope,
        delta: f64,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            enters_band(f, le, delta),
            enters_band_oracle(f, le, delta),
            "enters_band, delta {delta}"
        );
        prop_assert_eq!(
            span_bits(&inside_band_intervals(f, le, delta)),
            span_bits(&inside_band_intervals_oracle(f, le, delta)),
            "inside_band_intervals, delta {delta}"
        );
        prop_assert_eq!(
            band_clearance(f, le).to_bits(),
            band_clearance_oracle(f, le).to_bits(),
            "band_clearance"
        );
        Ok(())
    }

    /// One object seen from a query at rest in the origin: a start
    /// position and one velocity per leg (`None` = parked, a constant
    /// `a = 0` hyperbola).
    type Motion = ((f64, f64), Vec<Option<(f64, f64)>>);

    const LEG: f64 = 10.0;

    fn motion() -> impl Strategy<Value = Motion> {
        let leg = prop_oneof![
            Just(None),
            (-1.0..1.0f64, -1.0..1.0f64).prop_map(Some),
            (-1.0..1.0f64, -1.0..1.0f64).prop_map(Some),
        ];
        (
            (-12.0..12.0f64, -12.0..12.0f64),
            prop::collection::vec(leg, 3),
        )
    }

    fn distance_of(owner: u64, motion: &Motion) -> DistanceFunction {
        let mut p = Vec2::new(motion.0 .0, motion.0 .1);
        let mut pieces = Vec::new();
        for (k, leg) in motion.1.iter().enumerate() {
            let v = leg.map_or(Vec2::new(0.0, 0.0), |(x, y)| Vec2::new(x, y));
            let t0 = k as f64 * LEG;
            pieces.push(DistancePiece {
                span: TimeInterval::new(t0, t0 + LEG),
                hyperbola: Hyperbola::from_relative_motion(p, v, t0),
            });
            p += v * LEG;
        }
        DistanceFunction::new(Oid(owner), pieces).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn range_pretests_match_the_always_solve_oracles(
            motions in prop::collection::vec(motion(), 2..7),
            delta in 0.05..6.0f64,
        ) {
            let fs: Vec<DistanceFunction> = motions
                .iter()
                .enumerate()
                .map(|(k, m)| distance_of(k as u64 + 1, m))
                .collect();
            let le = lower_envelope(&fs);
            // An envelope that leaves the first candidate out, so a
            // candidate can also run *below* it.
            let partial = lower_envelope(&fs[1..]);
            for f in &fs {
                for d in [0.0, delta, 2.0] {
                    assert_matches_oracles(f, &le, d)?;
                    assert_matches_oracles(f, &partial, d)?;
                }
            }
        }
    }

    #[test]
    fn close_calls_reach_the_solver() {
        let w = TimeInterval::new(0.0, 10.0);
        let delta = 2.0;
        let le = lower_envelope(&[flyby(1, 0.0, 1.0, 0.0, w)]); // constant 1
        let lh = le.pieces()[0].hyperbola;
        // A tangency at exactly δ: the flyby bottoms out at 3 = 1 + δ.
        let tangent = flyby(2, -5.0, 3.0, 1.0, w);
        // Constant clearances a hair (well inside the margin) either side
        // of δ.
        let above = flyby(3, 0.0, 3.0 + 1e-6, 0.0, w);
        let below = flyby(4, 0.0, 3.0 - 1e-6, 0.0, w);
        for f in [&tangent, &above, &below] {
            let fh = f.pieces()[0].hyperbola;
            assert_eq!(classify_cell(&fh, &lh, delta, &w), Cell::Straddles);
            assert_matches_oracles(f, &le, delta).unwrap();
        }
        // Neither endpoint of `above` is in the band, so its verdict can
        // only have come from the solver.
        let mut solved = 0;
        let fh = above.pieces()[0].hyperbola;
        let verdict = cell_enters(&fh, &lh, delta, &w, |f, l, iv| {
            solved += 1;
            f.min_clearance_above(l, iv)
        });
        assert!(!verdict);
        assert_eq!(solved, 1);
    }

    #[test]
    fn settled_cells_skip_the_solver() {
        let w = TimeInterval::new(0.0, 10.0);
        let delta = 2.0;
        let le = lower_envelope(&[flyby(1, 0.0, 1.0, 0.0, w)]); // constant 1
        let lh = le.pieces()[0].hyperbola;
        let unreachable = |_: &Hyperbola, _: &Hyperbola, _: &TimeInterval| -> f64 {
            panic!("a settled cell reached the solver")
        };
        // Constant (`a = 0`) hyperbolas on either side of the band edge,
        // and a flyby that stays inside throughout.
        let far = flyby(2, 0.0, 10.0, 0.0, w);
        let near = flyby(3, 0.0, 2.0, 0.0, w);
        let passing = flyby(4, -1.0, 1.5, 0.2, w);
        for (f, cell) in [
            (&far, Cell::Outside),
            (&near, Cell::Inside),
            (&passing, Cell::Inside),
        ] {
            let fh = f.pieces()[0].hyperbola;
            assert_eq!(classify_cell(&fh, &lh, delta, &w), cell);
            assert_eq!(
                cell_enters(&fh, &lh, delta, &w, unreachable),
                cell == Cell::Inside
            );
            assert!(cell_crossings(&fh, &lh, delta, &w).is_empty());
            assert_matches_oracles(f, &le, delta).unwrap();
        }
        // A cell wholly inside is the whole cell, endpoints untouched.
        let inside = inside_band_intervals(&passing, &le, delta);
        assert_eq!(inside.spans(), &[w][..]);
        assert!(inside_band_intervals(&far, &le, delta).is_empty());
    }

    /// The ratio the speed-up rests on, on the §5 fleet the `query_mix`
    /// benchmark uses: the range pre-tests leave the solver a sliver of
    /// the overlay cells.
    #[test]
    fn the_solver_sees_a_sliver_of_the_fleets_cells() {
        let fleet = generate(&WorkloadConfig::with_objects(500, 0xEDB7_2009));
        let window = TimeInterval::new(0.0, 60.0);
        let delta = 4.0 * 0.5;
        let (mut cells, mut straddles) = (0usize, 0usize);
        let (mut visited, mut solved) = (0usize, 0usize);
        for q in fleet.iter().step_by(25) {
            let fs = difference_distances(q, &fleet, &window).unwrap();
            assert_eq!(fs.len(), 499);
            let le = lower_envelope(&fs);
            for f in &fs {
                overlay(f, &le, |sub, i, j| {
                    let (fh, lh) = (&f.pieces()[i].hyperbola, &le.pieces()[j].hyperbola);
                    cells += 1;
                    if classify_cell(fh, lh, delta, &sub) == Cell::Straddles {
                        straddles += 1;
                    }
                    true
                });
                // `enters_band`'s own walk, with the solver counted.
                overlay(f, &le, |sub, i, j| {
                    let (fh, lh) = (&f.pieces()[i].hyperbola, &le.pieces()[j].hyperbola);
                    visited += 1;
                    !cell_enters(fh, lh, delta, &sub, |f, l, iv| {
                        solved += 1;
                        f.min_clearance_above(l, iv)
                    })
                });
            }
        }
        assert!(cells > 100_000, "{cells} cells");
        assert!(
            straddles * 20 <= cells,
            "{straddles} of {cells} cells straddle the band edge"
        );
        assert!(
            solved * 100 <= visited,
            "enters_band solved {solved} of the {visited} cells it visited"
        );
    }

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn setup() -> (Vec<DistanceFunction>, Envelope, TimeInterval) {
        let w = TimeInterval::new(0.0, 10.0);
        // Close pair forming the envelope, plus a distant one (TR_7-like).
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w), // dips to 1 at t=5
            flyby(2, -2.0, 2.0, 1.0, w), // dips to 2 at t=2
            flyby(3, 0.0, 50.0, 0.0, w), // static, far away
        ];
        let le = lower_envelope(&fs);
        (fs, le, w)
    }

    #[test]
    fn clearance_of_envelope_member_is_nonpositive() {
        let (fs, le, _) = setup();
        assert!(band_clearance(&fs[0], &le) <= 1e-9);
        // Far object's clearance is roughly its distance minus the
        // envelope (~48 at the envelope's minimum region).
        assert!(band_clearance(&fs[2], &le) > 40.0);
    }

    #[test]
    fn prune_discards_far_objects() {
        let (fs, le, _) = setup();
        let r = 0.5; // band = 2.0
        let (kept, stats) = prune_by_band(&fs, &le, r);
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(stats.total, 3);
        assert_eq!(stats.kept, 2);
        assert!((stats.kept_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // A huge radius keeps everything.
        let (kept_all, _) = prune_by_band(&fs, &le, 20.0);
        assert_eq!(kept_all.len(), 3);
    }

    #[test]
    fn inside_intervals_cover_envelope_ownership() {
        let (fs, le, w) = setup();
        // The envelope member is inside its own band at all times where it
        // realizes the envelope; with delta = 0 it is inside exactly there
        // (plus tangency points).
        let inside = inside_band_intervals(&fs[0], &le, 0.0);
        for (oid, iv) in le.answer_sequence() {
            if oid == Oid(1) {
                assert!(
                    inside.covers(iv.midpoint()),
                    "owner must be inside its own band at {}",
                    iv.midpoint()
                );
            }
        }
        // With a generous delta the candidate is inside everywhere.
        let all = inside_band_intervals(&fs[1], &le, 100.0);
        assert!((all.total_len() - w.len()).abs() < 1e-9);
    }

    #[test]
    fn inside_intervals_match_dense_sampling() {
        let (fs, le, w) = setup();
        for (fi, f) in fs.iter().enumerate() {
            for delta in [0.5, 2.0, 10.0] {
                let inside = inside_band_intervals(f, &le, delta);
                for k in 0..=400 {
                    let t = w.start() + k as f64 * w.len() / 400.0;
                    let expected = f.eval(t).unwrap() <= le.eval(t).unwrap() + delta;
                    let got = inside.covers(t);
                    // Skip instants within a hair of a crossing.
                    let margin = (f.eval(t).unwrap() - le.eval(t).unwrap() - delta).abs();
                    if margin > 1e-6 {
                        assert_eq!(got, expected, "f{fi} delta={delta} t={t} margin={margin}");
                    }
                }
            }
        }
    }

    #[test]
    fn enters_band_consistent_with_clearance() {
        let (fs, le, _) = setup();
        for f in &fs {
            let c = band_clearance(f, &le);
            for delta in [0.1, 1.0, 5.0, 60.0] {
                assert_eq!(
                    enters_band(f, &le, delta),
                    c <= delta,
                    "delta={delta}, clearance={c}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_pruning_reduces_to_4r_for_equal_radii() {
        let (fs, le, _) = setup();
        let r = 0.5;
        let radii = vec![r; fs.len()];
        let (hom, _) = prune_by_band(&fs, &le, r);
        let (het, _) = prune_by_band_heterogeneous(&fs, &le, &radii, r);
        assert_eq!(hom, het);
    }

    #[test]
    fn heterogeneous_pruning_keeps_large_radius_objects_longer() {
        let (fs, le, _) = setup();
        // Give the far object (index 2) a huge uncertainty radius: it can
        // now reach the envelope and must be kept.
        let radii = vec![0.5, 0.5, 50.0];
        let (kept, stats) = prune_by_band_heterogeneous(&fs, &le, &radii, 0.5);
        assert!(kept.contains(&2), "{kept:?}");
        assert_eq!(stats.kept, kept.len());
        // With uniformly tiny radii it is pruned again.
        let (kept_small, _) = prune_by_band_heterogeneous(&fs, &le, &[0.1, 0.1, 0.1], 0.1);
        assert!(!kept_small.contains(&2), "{kept_small:?}");
    }

    #[test]
    #[should_panic]
    fn heterogeneous_pruning_checks_radius_count() {
        let (fs, le, _) = setup();
        let _ = prune_by_band_heterogeneous(&fs, &le, &[0.5], 0.5);
    }

    #[test]
    fn empty_overlap_yields_empty_results() {
        let w1 = TimeInterval::new(0.0, 5.0);
        let w2 = TimeInterval::new(6.0, 9.0);
        let f = flyby(1, 0.0, 1.0, 0.0, w1);
        let g = flyby(2, 0.0, 1.0, 0.0, w2);
        let le = lower_envelope(std::slice::from_ref(&g));
        assert!(inside_band_intervals(&f, &le, 1.0).is_empty());
        assert_eq!(band_clearance(&f, &le), f64::INFINITY);
    }
}
