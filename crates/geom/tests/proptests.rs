//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_geom::point::Vec2;
use unn_geom::quadratic::Quadratic;
use unn_geom::roots::find_roots;

fn finite_coord() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

proptest! {
    #[test]
    fn lens_area_is_symmetric(
        d in 0.0..10.0f64,
        r1 in 0.0..5.0f64,
        r2 in 0.0..5.0f64,
    ) {
        let a = unn_geom::circle::lens_area(d, r1, r2);
        let b = unn_geom::circle::lens_area(d, r2, r1);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn lens_area_bounded_by_smaller_circle(
        d in 0.0..10.0f64,
        r1 in 0.0..5.0f64,
        r2 in 0.0..5.0f64,
    ) {
        let a = unn_geom::circle::lens_area(d, r1, r2);
        let rmin = r1.min(r2);
        prop_assert!(a >= 0.0);
        prop_assert!(a <= std::f64::consts::PI * rmin * rmin + 1e-9);
    }

    #[test]
    fn quadratic_roots_are_roots(
        r1 in -50.0..50.0f64,
        r2 in -50.0..50.0f64,
        scale in prop_oneof![Just(1.0), Just(-2.5), Just(10.0)],
    ) {
        let q = Quadratic::new(scale, -scale * (r1 + r2), scale * r1 * r2);
        for root in q.roots().to_vec() {
            let v = q.eval(root);
            let tol = 1e-7 * (1.0 + q.a.abs() * root * root + q.b.abs() * root.abs() + q.c.abs());
            prop_assert!(v.abs() <= tol, "q({root}) = {v}");
        }
    }

    #[test]
    fn quadratic_recovers_constructed_roots(
        r1 in -50.0..50.0f64,
        delta in 0.01..100.0f64,
    ) {
        let r2 = r1 + delta;
        let q = Quadratic::new(1.0, -(r1 + r2), r1 * r2);
        let roots = q.roots().to_vec();
        prop_assert_eq!(roots.len(), 2);
        prop_assert!((roots[0] - r1).abs() < 1e-6 * (1.0 + r1.abs()));
        prop_assert!((roots[1] - r2).abs() < 1e-6 * (1.0 + r2.abs()));
    }

    #[test]
    fn interval_set_total_len_at_most_sum(
        raw in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 0..20),
    ) {
        let ivs: Vec<TimeInterval> =
            raw.iter().map(|&(s, l)| TimeInterval::new(s, s + l)).collect();
        let sum: f64 = ivs.iter().map(TimeInterval::len).sum();
        let set = IntervalSet::from_intervals(ivs);
        prop_assert!(set.total_len() <= sum + 1e-9);
    }

    #[test]
    fn interval_set_complement_partitions_span(
        raw in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 0..20),
    ) {
        let span = TimeInterval::new(-10.0, 120.0);
        let ivs: Vec<TimeInterval> =
            raw.iter().map(|&(s, l)| TimeInterval::new(s, s + l)).collect();
        let set = IntervalSet::from_intervals(ivs);
        let inside = set.intersect(&IntervalSet::from_intervals([span]));
        let comp = set.complement_within(span);
        prop_assert!(
            (inside.total_len() + comp.total_len() - span.len()).abs() < 1e-6
        );
        // The two parts are disjoint.
        prop_assert!(inside.intersect(&comp).total_len() < 1e-9);
    }

    #[test]
    fn interval_set_covers_iff_in_some_span(
        raw in prop::collection::vec((0.0..100.0f64, 0.0..10.0f64), 1..10),
        t in -5.0..115.0f64,
    ) {
        let ivs: Vec<TimeInterval> =
            raw.iter().map(|&(s, l)| TimeInterval::new(s, s + l)).collect();
        let direct = ivs.iter().any(|iv| iv.contains(t));
        let set = IntervalSet::from_intervals(ivs);
        prop_assert_eq!(set.covers(t), direct);
    }

    #[test]
    fn hyperbola_matches_explicit_distance(
        px in finite_coord(), py in finite_coord(),
        vx in -10.0..10.0f64, vy in -10.0..10.0f64,
        t_ref in -10.0..10.0f64,
        t in -30.0..30.0f64,
    ) {
        let h = Hyperbola::from_relative_motion(
            Vec2::new(px, py), Vec2::new(vx, vy), t_ref);
        let u = t - t_ref;
        let pos = Vec2::new(px + vx * u, py + vy * u);
        let expected = pos.norm();
        let got = h.eval(t);
        prop_assert!(
            (got - expected).abs() <= 1e-6 * (1.0 + expected),
            "t={t}: got {got}, expected {expected}"
        );
    }

    #[test]
    fn hyperbola_intersections_are_equalities(
        p1 in (finite_coord(), finite_coord()),
        v1 in (-10.0..10.0f64, -10.0..10.0f64),
        p2 in (finite_coord(), finite_coord()),
        v2 in (-10.0..10.0f64, -10.0..10.0f64),
    ) {
        let f = Hyperbola::from_relative_motion(Vec2::new(p1.0, p1.1), Vec2::new(v1.0, v1.1), 0.0);
        let g = Hyperbola::from_relative_motion(Vec2::new(p2.0, p2.1), Vec2::new(v2.0, v2.1), 0.0);
        let iv = TimeInterval::new(0.0, 60.0);
        for t in f.intersections(&g, &iv) {
            prop_assert!(iv.contains(t));
            let (a, b) = (f.eval(t), g.eval(t));
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + a), "f={a} g={b} at {t}");
        }
    }

    #[test]
    fn isolator_finds_all_well_separated_roots(
        roots in prop::collection::btree_set(-40i32..40, 1..5),
    ) {
        // Integer roots are at least 1 apart: no clustering issues.
        let roots: Vec<f64> = roots.into_iter().map(f64::from).collect();
        let mut p = [0.0; 5];
        p[0] = 1.0;
        for (k, &r) in roots.iter().enumerate() {
            for i in (0..=k + 1).rev() {
                p[i] = if i == 0 { 0.0 } else { p[i - 1] } - r * p[i];
            }
        }
        let found = find_roots(&p, -50.0, 50.0);
        prop_assert_eq!(found.len(), roots.len(), "found {:?} vs {:?}", found, roots);
        for (f, e) in found.iter().zip(&roots) {
            prop_assert!((f - e).abs() < 1e-6, "{f} vs {e}");
        }
    }

    #[test]
    fn crossings_shifted_are_verified_crossings(
        p1 in (finite_coord(), finite_coord()),
        v1 in (-5.0..5.0f64, -5.0..5.0f64),
        p2 in (finite_coord(), finite_coord()),
        v2 in (-5.0..5.0f64, -5.0..5.0f64),
        delta in 0.0..20.0f64,
    ) {
        let f = Hyperbola::from_relative_motion(Vec2::new(p1.0, p1.1), Vec2::new(v1.0, v1.1), 0.0);
        let g = Hyperbola::from_relative_motion(Vec2::new(p2.0, p2.1), Vec2::new(v2.0, v2.1), 0.0);
        let iv = TimeInterval::new(0.0, 60.0);
        for t in f.crossings_shifted(&g, delta, &iv) {
            prop_assert!(iv.contains(t));
            let lhs = f.eval(t);
            let rhs = g.eval(t) + delta;
            prop_assert!((lhs - rhs).abs() <= 1e-4 * (1.0 + lhs), "f={lhs} g+δ={rhs} at {t}");
        }
    }

    #[test]
    fn crossings_shifted_are_complete(
        p1 in (finite_coord(), finite_coord()),
        v1 in (-5.0..5.0f64, -5.0..5.0f64),
        p2 in (finite_coord(), finite_coord()),
        v2 in (-5.0..5.0f64, -5.0..5.0f64),
        delta in 0.01..20.0f64,
    ) {
        // Completeness: every sign change of f - (g + delta) on a dense
        // grid must be bracketed by a reported crossing.
        let f = Hyperbola::from_relative_motion(Vec2::new(p1.0, p1.1), Vec2::new(v1.0, v1.1), 0.0);
        let g = Hyperbola::from_relative_motion(Vec2::new(p2.0, p2.1), Vec2::new(v2.0, v2.1), 0.0);
        let iv = TimeInterval::new(0.0, 60.0);
        let crossings = f.crossings_shifted(&g, delta, &iv);
        let h = |t: f64| f.eval(t) - g.eval(t) - delta;
        let n = 600;
        for k in 0..n {
            let a = iv.start() + k as f64 * iv.len() / n as f64;
            let b = iv.start() + (k + 1) as f64 * iv.len() / n as f64;
            let (ha, hb) = (h(a), h(b));
            // Only demand a bracket for decisive sign changes (robust to
            // grazing tangencies at the tolerance floor).
            if ha * hb < 0.0 && ha.abs() > 1e-7 && hb.abs() > 1e-7 {
                prop_assert!(
                    crossings.iter().any(|&t| t >= a - 1e-9 && t <= b + 1e-9),
                    "sign change in [{a}, {b}] ({ha} -> {hb}) not bracketed by {crossings:?}"
                );
            }
        }
    }

    #[test]
    fn min_clearance_is_a_lower_bound_of_sampled_clearance(
        p1 in (finite_coord(), finite_coord()),
        v1 in (-5.0..5.0f64, -5.0..5.0f64),
        p2 in (finite_coord(), finite_coord()),
        v2 in (-5.0..5.0f64, -5.0..5.0f64),
    ) {
        let f = Hyperbola::from_relative_motion(Vec2::new(p1.0, p1.1), Vec2::new(v1.0, v1.1), 0.0);
        let g = Hyperbola::from_relative_motion(Vec2::new(p2.0, p2.1), Vec2::new(v2.0, v2.1), 0.0);
        let iv = TimeInterval::new(0.0, 60.0);
        let min_c = f.min_clearance_above(&g, &iv);
        for t in iv.sample_points(200) {
            let c = f.eval(t) - g.eval(t);
            prop_assert!(min_c <= c + 1e-6, "clearance {c} at {t} below reported min {min_c}");
        }
    }
}
