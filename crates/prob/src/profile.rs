//! Profiled pdfs: one dispatch-free evaluator for `P^WD` **and** `pdf^WD`.
//!
//! The generic [`crate::within_distance`] evaluators take a `&dyn RadialPdf`
//! and integrate the density with adaptive Simpson (tolerance `1e-11`) —
//! hundreds of virtual density calls per `P^WD` value. That is the right
//! tool for one-off queries over arbitrary pdfs, but row maintenance
//! evaluates Eq. 5 at *every* probe of *every* dirty column, and there the
//! per-call cost dominates the entire system (see the `probability_kernels`
//! bench for the ablation).
//!
//! [`ProfiledPdf`] profiles a pdf **once** — classifying uniform disks and
//! tabulating everything else on a dense radial grid (the same idiom as the
//! precomputed CDF inside [`crate::uniform_diff::UniformDifferencePdf`]) —
//! and then answers `(P^WD(d, R), pdf^WD(d, R))` with one fixed-order
//! Gauss–Legendre pass over table lookups: no virtual dispatch, no
//! adaptive recursion, no per-call trigonometry beyond a single `acos` in
//! one boundary configuration.
//!
//! Two analytic rewrites make the fixed-order rule accurate:
//!
//! * `P^WD` (Eq. 3) splits into a full-circle part — a CDF lookup — and a
//!   partial-arc part `∫ f(s)·s·θ(s) ds` that is integrated **by parts**
//!   so the arc angle `θ = 2·acos(·)` never appears inside the loop:
//!   `∫ f s θ = θ(hi)·G(hi) + ∫ 2c′(s)/√(1−c²(s)) · G(s) ds` with
//!   `G(s) = (M(s) − M(lo)) / 2π` a CDF lookup,
//!   `c(s) = (d² + s² − R²)/(2ds)`, `c′(s) = (s² − d² + R²)/(2ds²)`.
//! * `pdf^WD` (Eq. 4's density) changes variables from the angle `φ` to the
//!   radial offset `s`: `pdf^WD(R) = (2/d)·∫ f(s)·s/√(1−q²(s)) ds`,
//!   `q(s) = (R² + d² − s²)/(2Rd)`.
//!
//! Both run over the same interval `[lo, hi] = [|R−d|, min(S, R+d)]` and
//! have inverse-square-root singularities exactly at its endpoints, which
//! the substitution `s = lo + (hi−lo)·sin²u` removes analytically. So they
//! share their nodes `s_j` — and they share their **radical**:
//!
//! ```text
//! 1 − c² = H² / (2ds)²        1 − q² = H² / (2Rd)²
//! H² = (d+R+s) · (s−|R−d|) · (s+|R−d|) · (d+R−s)
//! ```
//!
//! `H²` is sixteen times the squared area of the triangle with sides
//! `(d, s, R)` (Heron), the one geometric quantity both cosines measure.
//! With `w = 1/(s·H)` the two integrands become
//! `2c′/√(1−c²) = 2·(s² − d² + R²)·w` and `s/√(1−q²) = 2Rd·s²·w`: **one
//! `sqrt` and one division per node serve both integrals.**
//!
//! The four factors of `H²` are formed without cancellation. The node is
//! *defined* as `s_j = lo + len·sin²u_j`, so `s − |R−d|` is `len·sin²u_j`
//! exactly, not a difference of two nearly equal numbers; likewise
//! `d+R−s = ((d+R) − hi) + len·cos²u_j` is a sum of two non-negative
//! terms. The other two factors are sums of positives. Evaluating
//! `(1−c)(1+c)` from a rounded `c` instead loses half the digits at the
//! end nodes of a short interval (`R − d` just inside the support), which
//! is where the one-radical form differs most from the two-integral one —
//! by ≈ 2e-12 on `P^NN`.
//!
//! # Accuracy
//!
//! Eq. 5's integrand `pdf^WD_i(R) · ∏_{j≠i} (1 − P^WD_j(R))` is smooth
//! only between the radii where one of its factors changes form. For a
//! candidate at distance `d` and a pdf of support `S` those are
//!
//! * `rmin = max(d − S, 0)`, where its `P^WD` leaves zero;
//! * `R = d`, where the arc interval's end `|R − d|` turns at zero: the
//!   circle of radius `R` passes through the pdf's centre, where the
//!   uniform difference pdf has its cone-shaped peak (the paper's Eq. 7);
//! * `R = S − d` (for `d < S`), where the circle first reaches the edge
//!   of the support;
//!
//! and the end of the integral, `global_rmax = min_j (d_j + S)`, where
//! the nearest candidate is inside for sure. [`nn_probabilities_profiled`]
//! cuts its segments at every one of these that lies in
//! `(0, global_rmax)` and integrates each segment `(a, b)` with an
//! `m`-point Gauss–Legendre rule, `m` picked from the segment's length:
//! 4 nodes when `b − a < 0.05·S`, 8 when `b − a < 0.2·S`, otherwise
//! `OUTER` (16). Cut only at the `rmin`s, the kernel's error fell only
//! ≈ 9× per doubling of the order, and 32 outer and 32 arc nodes left
//! 2.1e-5 on `P^NN`.
//!
//! Measured against [`crate::reference::nn_probabilities`] (the same
//! table, its own cut placement: 64 panels of 16 nodes per `rmin`
//! segment, 128 arc nodes) on `examples/kernel_digest.rs`'s corpus —
//! 512 columns, 4 949 values — for the uniform difference pdf (r = 0.5)
//! and, on the same columns, the truncated-Gaussian one (r = 0.5,
//! σ = 0.2); the time is the 512 uniform columns evaluated cold, median
//! of six interleaved runs on one core of a 2-vCPU Xeon. First with the
//! same outer order on every segment:
//!
//! ```text
//! OUTER / INNER            max |ΔP^NN| uniform   Gaussian   cold time
//! 32 / 32, rmin cuts only  2.1e-5                 8.9e-6     236 ms
//! 12 / 24                  1.5e-7                 4.9e-7
//! 16 / 16                  1.4e-7                 3.6e-7     101 ms
//! 16 / 20                  3.8e-8                 2.9e-7     123 ms
//! 16 / 24                  3.1e-8                 2.9e-7     148 ms
//! 16 / 28                  3.0e-8                 3.2e-7     165 ms
//! 16 / 32                  2.8e-8                 2.2e-7     218 ms
//! 20 / 24                  1.3e-8                 4.5e-7
//! 24 / 24                  1.3e-8                 2.0e-7
//! 32 / 32                  3.1e-9                 2.1e-7
//! ```
//!
//! (The first row is the kernel before the cuts, on the tables of the
//! time: a trapezoid CDF beside the lerped density in [`ProfiledPdf::of`],
//! and for the Gaussian a convolution integrated with one plain rule
//! across the support's edge. The other rows read today's tables.)
//! `INNER = 24` is the smallest arc order past which more arc nodes stop
//! mattering: 20 → 24 moves the uniform error by 17 %, 24 → 28 by 4 %.
//! With the cuts the error still falls only algebraically, ≈ 10× per
//! doubling of both orders (16/24 → 32/32), which points at the
//! fractional-power behaviour of `P^WD` just above `rmin`: a cut cannot
//! remove it, a substitution at the segment's end could. The Gaussian
//! columns stay between 2e-7 and 5e-7 at every order tried, without a
//! trend: that floor is the table (a 512-point convolution, interpolated
//! linearly).
//!
//! Most segments are short — with a cut at every `rmin`, `d` and
//! `S − d` of a column, most lie well under `0.2·S` — and a short
//! segment's integrand is nearly polynomial, so it needs fewer outer
//! nodes. Then with `INNER = 24` and the outer order picked from `b − a`
//! (`pairs`: the `(P^WD, pdf^WD)` evaluations of the 512 uniform columns
//! cold; the times measured as above, alternating the two builds, on a
//! later day on which the 16 / 24 kernel read 116 ms, not 148):
//!
//! ```text
//! 4 nodes below   8 nodes below   pairs     uniform   Gaussian   cold time
//! —               —               743 264   3.12e-8   2.86e-7    116 ms
//! —               0.2 S           418 040   3.15e-8   2.45e-7
//! 0.05 S          — (16 above)    506 348   3.12e-8   2.67e-7
//! 0.02 S          0.2 S           380 744   3.15e-8   2.45e-7
//! 0.05 S          0.1 S           419 228   3.15e-8   2.55e-7
//! 0.05 S          0.2 S           339 068   3.15e-8   2.55e-7     55 ms
//! 0.05 S          0.3 S           309 628   6.0e-8    2.75e-7
//! 0.1 S           0.2 S           295 508   1.1e-7    2.55e-7
//! 0.2 S           — (16 above)    255 428   8.7e-7    2.58e-7
//! ```
//!
//! The first row is 16 nodes on every segment. 4 nodes below `0.05·S`
//! and 8 below `0.2·S` is the row with the fewest pairs (0.46×) at the
//! uniform error of 16 everywhere; every looser threshold tried loses
//! uniform accuracy, every tighter one costs pairs and gains none there
//! (the Gaussian columns move within their table's floor). The rule's
//! thresholds compare `b − a` with `0.05·S` and `0.2·S` in floating
//! point, so a block's width is a pure function of its key's `(a, b)`
//! bits and the profile. Over the corpus, `|Σ P^NN − 1|` is at most
//! 5.2e-8 (uniform) and 2.6e-7 (Gaussian).
//!
//! # Determinism
//!
//! Cold and maintained answers, leaders and followers must produce the
//! same **bits**, on whatever CPU each runs. The node loop is therefore
//! staged over fixed `[f64; INNER]` arrays in plain safe Rust so that the
//! baseline x86-64 target already vectorises it, and uses only
//! correctly-rounded IEEE operations (`+ − × ÷ √`) in an order fixed by the
//! source: no fused multiply-add (it rounds once where `a*b + c` rounds
//! twice, and whether the hardware has one varies), no per-CPU feature
//! attributes, no runtime dispatch, nothing outside safe Rust. The two node
//! sums are accumulated in four interleaved lanes combined as
//! `(0+1) + (2+3)` — again an order the source fixes, not the optimiser.
//! `examples/kernel_digest.rs` checks the claim: its hash over a corpus of
//! rows must be equal under the default flags and under
//! `-C target-cpu=native`.
//!
//! # Memo
//!
//! Eq. 5 over a column is a sum over the segments `(a, b)` between sorted
//! boundaries, and inside a segment every candidate `d` contributes the
//! `(P^WD, pdf^WD)` values at the segment's `m` nodes (4, 8 or 16, from
//! `b − a`, see "Accuracy"). Those `2m` numbers — one **block** — depend
//! on nothing but the profile and the bits of `(a, b, d)`: `m` is a
//! function of `(a, b)` and the support, the nodes are
//! `(a+b)/2 + (b−a)/2 · x_j`, a node at or below `max(d − S, 0)`
//! contributes zero, and every other value is [`ProfiledPdf`]'s pure pair
//! evaluator. [`nn_probabilities_profiled`]
//! is therefore written segment-major over a [`BlockList`]: for each
//! segment it fills one block per distinct active distance, copying it
//! from the previous evaluation's list when that list holds the same
//! `(a, b, d)` bits and computing it otherwise, and only then runs the
//! node loop (prefix/suffix survival products, lane order, clamp) over
//! the blocks. A copied block equals the block the evaluator would have
//! computed bit for bit, so the result cannot depend on what the list
//! held: the cold evaluation is the same call with an empty list, and
//! there is one quadrature loop, not a cached and an uncached one.
//!
//! Nothing ever needs invalidating. The key is the block's whole input,
//! so a block that no longer matches is simply not found; the list a call
//! writes holds only the blocks of its own column, which bounds it at one
//! evaluation. A list is only meaningful under the profile that wrote it
//! (`unn_core::kernel::ColumnKernel` keeps one per probe index next to its
//! profile). When a candidate enters or leaves a column, each of the
//! segments its three cuts (`rmin`, `d` and `S − d`, those that fall below
//! `global_rmax`) split or join changes its `(a, b)` and is recomputed for
//! every candidate active in it, as is the candidate's own block in every
//! other segment; a new nearest candidate also moves `global_rmax`, which
//! recomputes the last segment and drops the cuts above it. All the
//! other blocks keep their keys and are copied — at their own width,
//! since a key fixes it.
//!
//! A list stores its keys, one offset per block and one flat array of
//! values: a block costs `8·(3 + 1 + 2m)` bytes, 96, 160 or 288
//! ([`BlockList::bytes`]). A column of `n` candidates has at most `3n`
//! segments, so a list holds at most about `3n²` blocks. On the corpus a
//! cold evaluation writes 9.4 blocks per row value, 149 bytes each on
//! average: 1.57–1.83 MB for a query's 128 columns, where 16-wide blocks
//! of 280 bytes took 2.95–3.46 MB.

use crate::integrate::GaussLegendre;
use crate::pdf::RadialPdf;
use crate::within_distance::{uniform_within_distance, uniform_within_distance_density};
use std::cmp::Ordering;
use std::f64::consts::PI;
use std::fmt;
use std::sync::OnceLock;

/// Radial resolution of the tabulated profile (number of grid intervals).
const GRID: usize = 2048;

/// The highest Gauss–Legendre order of Eq. 5's outer rule: the order of
/// a segment at least `0.2·S` long, and the widest block.
const OUTER: usize = 16;

/// Gauss–Legendre order of Eq. 5's outer rule on a segment of length
/// `len` under a pdf of support `support`: 4 nodes below `0.05·S`, 8
/// below `0.2·S`, `OUTER` otherwise (module docs, "Accuracy"). A block's
/// width, so a pure function of its key's `(a, b)` bits and the profile.
fn outer_order(len: f64, support: f64) -> usize {
    if len < 0.05 * support {
        4
    } else if len < 0.2 * support {
        8
    } else {
        OUTER
    }
}

/// Order of the endpoint-regularized arc rule inside every `(P^WD,
/// pdf^WD)` pair (module docs, "Accuracy").
const INNER: usize = 24;

/// Interleaved accumulator lanes of the arc sums (see the module docs).
const LANES: usize = 4;
const _: () = assert!(
    LANES == 4 && INNER % LANES == 0,
    "the lane fold is written out"
);

/// The plain `M`-point Gauss–Legendre nodes and weights on `[-1, 1]`.
struct OuterRule<const M: usize> {
    x: [f64; M],
    w: [f64; M],
}

impl<const M: usize> OuterRule<M> {
    fn new() -> Self {
        let rule = GaussLegendre::new(M);
        let mut this = OuterRule {
            x: [0.0; M],
            w: [0.0; M],
        };
        for k in 0..M {
            (this.x[k], this.w[k]) = rule.node_weight(k);
        }
        this
    }
}

/// The fixed-order rules of the column kernel, built once per process.
///
/// `o4`/`o8`/`o16` are the outer rules [`outer_order`] picks from.
/// `frac`/`cofrac`/`wgt` are the `INNER`-point rule pre-substituted with
/// `s = lo + (hi−lo)·sin²u`:
/// `∫_lo^hi F(s) ds = (hi−lo) · Σ_j wgt_j · F(lo + (hi−lo)·frac_j)`, with
/// `frac_j = sin²u_j` and `cofrac_j = cos²u_j` (so `hi − s_j` is
/// `(hi−lo)·cofrac_j`). The substitution turns inverse-square-root
/// endpoint singularities into analytic integrands.
struct KernelRules {
    o4: OuterRule<4>,
    o8: OuterRule<8>,
    o16: OuterRule<OUTER>,
    frac: [f64; INNER],
    cofrac: [f64; INNER],
    wgt: [f64; INNER],
}

fn kernel_rules() -> &'static KernelRules {
    static RULES: OnceLock<KernelRules> = OnceLock::new();
    RULES.get_or_init(|| {
        let inner = GaussLegendre::new(INNER);
        let mut rules = KernelRules {
            o4: OuterRule::new(),
            o8: OuterRule::new(),
            o16: OuterRule::new(),
            frac: [0.0; INNER],
            cofrac: [0.0; INNER],
            wgt: [0.0; INNER],
        };
        for k in 0..INNER {
            let (x, w) = inner.node_weight(k);
            // Map [-1, 1] -> u in [0, π/2].
            let u = 0.25 * PI * (x + 1.0);
            rules.frac[k] = u.sin() * u.sin();
            rules.cofrac[k] = u.cos() * u.cos();
            rules.wgt[k] = 0.25 * PI * w * (2.0 * u).sin();
        }
        rules
    })
}

/// One grid point of a tabulated profile: `[M(s_k), f(s_k)]`, CDF and
/// density side by side so a node's lerp reads one cache line.
type GridPoint = [f64; 2];

#[derive(Debug)]
enum Shape {
    /// Uniform disk: `P^WD`/`pdf^WD` use the exact closed forms.
    Uniform { radius: f64 },
    /// Arbitrary radial pdf tabulated on a uniform grid over `[0, S]`:
    /// `table[k] = [M(k·S/GRID), f(k·S/GRID)]` (CDF normalized).
    Tabulated {
        table: Box<[GridPoint; GRID + 1]>,
        inv_step: f64,
    },
}

/// A radial pdf profiled for batched, dispatch-free `P^WD` evaluation.
///
/// Profiling is a *pure function* of the source pdf's density curve and
/// support: two equal pdfs (e.g. the same [`crate::pdf::PdfKind`]
/// convolution built twice) profile to bit-identical tables, so every
/// consumer that routes through a `ProfiledPdf` of the same kind computes
/// bit-identical probabilities — the invariant the incremental row
/// maintenance relies on when comparing maintained rows against fresh
/// evaluations.
#[derive(Debug)]
pub struct ProfiledPdf {
    support: f64,
    shape: Shape,
}

/// The raw table lerp `(M(s), f(s))`. Callers own the two rules that make
/// it a pdf: `s ≥ support` is `(1, 0)`, and the CDF is clamped to `[0, 1]`.
#[inline]
fn lerp_raw(table: &[GridPoint; GRID + 1], inv_step: f64, s: f64) -> (f64, f64) {
    let x = s * inv_step;
    let k = (x as usize).min(GRID - 1);
    let frac = x - k as f64;
    let [m0, f0] = table[k];
    let [m1, f1] = table[k + 1];
    (m0 + (m1 - m0) * frac, f0 + (f1 - f0) * frac)
}

impl ProfiledPdf {
    /// Profiles `pdf`: classifies uniform disks (exact closed forms), and
    /// tabulates every other density on a fixed 2048-interval radial grid.
    pub fn of(pdf: &dyn RadialPdf) -> Self {
        let support = pdf.support_radius();
        assert!(
            support.is_finite() && support > 0.0,
            "profiled pdf needs a positive finite support, got {support}"
        );
        // Uniform probe: constant density equal to 1/(π S²) over the disk.
        let d0 = pdf.density(0.0);
        let dmid = pdf.density(0.5 * support);
        let uniform_level = 1.0 / (PI * support * support);
        if (d0 - dmid).abs() < 1e-15 && (d0 - uniform_level).abs() < 1e-12 {
            return ProfiledPdf {
                support,
                shape: Shape::Uniform { radius: support },
            };
        }
        let step = support / GRID as f64;
        let mut table: Vec<GridPoint> = (0..=GRID)
            .map(|k| [0.0, pdf.density(k as f64 * step).max(0.0)])
            .collect();
        // The radial CDF is the exact integral of the table's own density:
        // over a cell where f runs linearly from f0 to f1,
        // ∫ f(s)·2πs ds = 2π·h·(s0·(f0 + f1)/2 + h·(f0 + 2·f1)/6). Both
        // columns are then divided by the total, so the profile carries
        // exactly unit mass and `P^WD` stays the integral of `pdf^WD` —
        // which Eq. 5 needs to sum to one. (A trapezoid CDF beside the
        // lerped density differs from it by `h²·f(0)/6` in mass.)
        let mut acc = 0.0;
        for k in 1..=GRID {
            let s0 = (k - 1) as f64 * step;
            let (f0, f1) = (table[k - 1][1], table[k][1]);
            acc += 2.0 * PI * step * (s0 * 0.5 * (f0 + f1) + step * (f0 + 2.0 * f1) / 6.0);
            table[k][0] = acc;
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for point in &mut table {
            point[0] /= total;
            point[1] /= total;
        }
        ProfiledPdf {
            support,
            shape: Shape::Tabulated {
                table: table
                    .into_boxed_slice()
                    .try_into()
                    .expect("GRID + 1 grid points"),
                inv_step: GRID as f64 / support,
            },
        }
    }

    /// Radius of the support disk.
    pub fn support_radius(&self) -> f64 {
        self.support
    }

    /// The density at radial offset `s` (table-lerp for tabulated shapes).
    pub fn density(&self, s: f64) -> f64 {
        if s < 0.0 || s >= self.support {
            return 0.0;
        }
        match &self.shape {
            Shape::Uniform { radius } => 1.0 / (PI * radius * radius),
            Shape::Tabulated { table, inv_step } => lerp_raw(table, *inv_step, s).1,
        }
    }

    /// Probability mass within radial offset `r` of the center.
    pub fn mass_within(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        if r >= self.support {
            return 1.0;
        }
        match &self.shape {
            Shape::Uniform { radius } => (r * r) / (radius * radius),
            Shape::Tabulated { table, inv_step } => lerp_raw(table, *inv_step, r).0.clamp(0.0, 1.0),
        }
    }

    /// `(P^WD(d, rd), pdf^WD(d, rd))` — what Eq. 5 needs of one candidate
    /// at one outer node: Eq. 3's probability that an object whose
    /// (difference-)pdf is centered `d` away from the query point lies
    /// within distance `rd` of it, and its density in `rd`.
    fn pwd_pair(&self, d: f64, rd: f64, rules: &KernelRules) -> (f64, f64) {
        match &self.shape {
            Shape::Uniform { radius } => (
                uniform_within_distance(d, *radius, rd),
                uniform_within_distance_density(d, *radius, rd),
            ),
            Shape::Tabulated { table, inv_step } => {
                self.pwd_pair_tabulated(table, *inv_step, d, rd, rules)
            }
        }
    }

    /// The fused tabulated evaluator (module docs): the full-circle CDF
    /// lookup, the truncated-arc boundary term, and one staged pass over
    /// the `INNER` shared nodes feeding both sums from one radical.
    fn pwd_pair_tabulated(
        &self,
        table: &[GridPoint; GRID + 1],
        inv_step: f64,
        d: f64,
        rd: f64,
        rules: &KernelRules,
    ) -> (f64, f64) {
        let s_max = self.support;
        if rd <= 0.0 || d - s_max >= rd {
            return (0.0, 0.0);
        }
        if d + s_max <= rd {
            return (1.0, 0.0);
        }
        if d == 0.0 {
            return (self.mass_within(rd), self.density(rd) * 2.0 * PI * rd);
        }
        // Offsets s ≤ rd − d put the whole circle of radius s inside the
        // query disk: their arc angle is 2π and they contribute the plain
        // radial mass M(lo); for rd ≤ d there are none.
        let lo = (rd - d).abs();
        let m_lo = self.mass_within(lo);
        let full_mass = if rd > d { m_lo } else { 0.0 };
        let sum = rd + d;
        // `top` is (d + R) − hi: zero unless the support truncates the arc.
        let (hi, top) = if s_max < sum {
            (s_max, sum - s_max)
        } else {
            (sum, 0.0)
        };
        if lo >= s_max || hi <= lo {
            return (full_mass, 0.0);
        }
        let len = hi - lo;
        let mut p = full_mass;
        if top > 0.0 {
            // Nonzero boundary angle θ(hi) at hi = support, where M = 1.
            let c_hi = ((d * d + hi * hi - rd * rd) / (2.0 * d * hi)).clamp(-1.0, 1.0);
            let theta_hi = 2.0 * c_hi.acos();
            p += theta_hi * (1.0 - m_lo) * (1.0 / (2.0 * PI));
        }

        // Stage 1 — arithmetic only: node, radical, the two node weights
        //   pw_j = wgt_j · (s² − d² + R²) / (s·H)    (× (M(s) − M(lo)) / π)
        //   dw_j = wgt_j · s² / (s·H)                (× f(s) · 4R)
        let r2_minus_d2 = (rd - d) * sum;
        let mut s = [0.0; INNER];
        let mut pw = [0.0; INNER];
        let mut dw = [0.0; INNER];
        for j in 0..INNER {
            let below = len * rules.frac[j];
            let sj = lo + below;
            let above = top + len * rules.cofrac[j];
            let h2 = ((sum + sj) * below) * ((sj + lo) * above);
            let sh = sj * h2.sqrt();
            // Divide first, select second: a branch around the division
            // would keep the loop scalar. (`sh` is zero only by underflow.)
            let quot = rules.wgt[j] / sh;
            let w = if sh > 0.0 { quot } else { 0.0 };
            let s2 = sj * sj;
            s[j] = sj;
            pw[j] = w * (s2 + r2_minus_d2);
            dw[j] = w * s2;
        }
        // Stage 2 — one table lerp per node for both M(s) and f(s); the
        // only stage that cannot vectorise (it gathers).
        let mut m = [0.0; INNER];
        let mut f = [0.0; INNER];
        for j in 0..INNER {
            (m[j], f[j]) = lerp_raw(table, inv_step, s[j]);
        }
        // Stage 3 — the pdf rules `lerp_raw` leaves to its caller, as
        // selects rather than branches, and the two sums in LANES
        // interleaved accumulators.
        let mut p_acc = [0.0; LANES];
        let mut d_acc = [0.0; LANES];
        for j in (0..INNER).step_by(LANES) {
            for l in 0..LANES {
                let inside = s[j + l] < s_max;
                let mj = if inside {
                    m[j + l].clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let fj = if inside { f[j + l] } else { 0.0 };
                p_acc[l] += pw[j + l] * (mj - m_lo);
                d_acc[l] += dw[j + l] * fj;
            }
        }
        let p_sum = (p_acc[0] + p_acc[1]) + (p_acc[2] + p_acc[3]);
        let d_sum = (d_acc[0] + d_acc[1]) + (d_acc[2] + d_acc[3]);
        p += p_sum * len * (1.0 / PI);
        (p.clamp(0.0, 1.0), (4.0 * rd * d_sum * len).max(0.0))
    }
}

/// `slot` value of a candidate with no block in the current segment
/// (`rmin` at or above every node: all values zero).
const NO_BLOCK: usize = usize::MAX;

/// The order blocks are written in: `(a, b, d)` lexicographically, each
/// component by `total_cmp` (equal exactly when the bits are).
fn key_cmp(x: &[f64; 3], y: &[f64; 3]) -> Ordering {
    x[0].total_cmp(&y[0])
        .then(x[1].total_cmp(&y[1]))
        .then(x[2].total_cmp(&y[2]))
}

/// The quadrature blocks one column's evaluation computed or copied,
/// ascending by `(a, b, d)`, plus the evaluator's per-column scratch —
/// what [`nn_probabilities_profiled`] writes, and may read back on the
/// column's next evaluation (module docs, "Memo"). The default list is
/// empty and allocates nothing.
///
/// A block is `(P^WD, pdf^WD)` of one candidate distance `d` at the `m`
/// outer nodes of one segment `(a, b)` of the sorted-boundary
/// decomposition, `m = outer_order(b − a, S)` — zero at the nodes at or
/// below the candidate's `rmin = max(d − S, 0)`. A pure function of
/// `(profile, a, b, d)`, its width included.
#[derive(Default)]
pub struct BlockList {
    /// Per block, `(a, b, d)`: everything its values depend on besides
    /// the profile.
    keys: Vec<[f64; 3]>,
    /// Per block, where its values start in `values`; they run to the
    /// next block's start.
    offsets: Vec<usize>,
    /// Every block's `m` values of `P^WD` then its `m` of `pdf^WD`, in
    /// key order.
    values: Vec<f64>,
    rmin: Vec<f64>,
    cuts: Vec<f64>,
    /// Candidate indices ascending by distance: a segment's write order.
    order: Vec<usize>,
    /// Per candidate, where its block in the current segment starts in
    /// `values`.
    slot: Vec<usize>,
    /// Per candidate and node (up to `OUTER` lanes each), the survival
    /// product of the candidates after it in the current segment.
    suffix: Vec<f64>,
}

impl BlockList {
    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no block is held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes the blocks hold: per block its key, its offset and its `2m`
    /// values.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.keys[..])
            + std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.values[..])
    }

    /// Bytes the list has allocated, its scratch included.
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<[f64; 3]>()
            + (self.offsets.capacity() + self.order.capacity() + self.slot.capacity())
                * size_of::<usize>()
            + (self.values.capacity()
                + self.rmin.capacity()
                + self.cuts.capacity()
                + self.suffix.capacity())
                * size_of::<f64>()
    }

    /// Drops what an evaluation left behind beyond its blocks — a list
    /// kept between evaluations holds its own blocks, not room for the
    /// widest column its scratch once served, nor the scratch itself
    /// (every evaluation rebuilds it).
    pub fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.values.shrink_to_fit();
        for v in [&mut self.rmin, &mut self.cuts, &mut self.suffix] {
            *v = Vec::new();
        }
        self.order = Vec::new();
        self.slot = Vec::new();
    }

    /// The values of block `k`.
    fn row(&self, k: usize) -> &[f64] {
        let end = self
            .offsets
            .get(k + 1)
            .copied()
            .unwrap_or(self.values.len());
        &self.values[self.offsets[k]..end]
    }

    /// The values of the block keyed `key`, if the list holds it, looking
    /// from block `*cursor` on and leaving `*cursor` at the first block
    /// not below `key`. Over ascending keys one forward cursor finds every
    /// block a list shares with another.
    fn find(&self, key: &[f64; 3], cursor: &mut usize) -> Option<&[f64]> {
        while self
            .keys
            .get(*cursor)
            .is_some_and(|k| key_cmp(k, key).is_lt())
        {
            *cursor += 1;
        }
        let k = self.keys.get(*cursor)?;
        key_cmp(k, key).is_eq().then(|| self.row(*cursor))
    }
}

impl fmt::Debug for BlockList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockList")
            .field("blocks", &self.len())
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

/// Eq. 5 over a profiled pdf: the sorted-boundary decomposition of
/// [`crate::nn_prob::nn_probabilities`] (§2.2-III), cut further at the
/// integrand's kinks (module docs, "Accuracy") and integrated at the
/// `OUTER`-point order per segment, with every candidate sharing the one
/// profiled difference pdf, one fused `(P^WD, pdf^WD)` evaluation per
/// active (candidate, node) pair, and all per-node state held in flat
/// scratch arrays — no virtual dispatch and no lock anywhere in the loops.
///
/// `dists` are the candidate center distances; the result (written into
/// `out`, cleared first) is index-aligned with them. The pairs are
/// evaluated a block at a time (module docs, "Memo"): a block whose
/// `(a, b, d)` bits `prev` holds is copied from it, every other one is
/// computed, and `next` (cleared first) receives this evaluation's
/// blocks. An empty `prev` is the cold evaluation; any `prev` written by
/// this function over the same profile — this column's last evaluation,
/// another column's, in any order — gives the same bits and the same
/// `next`. Returns the number of blocks computed rather than copied.
pub fn nn_probabilities_profiled(
    pdf: &ProfiledPdf,
    dists: &[f64],
    prev: &BlockList,
    next: &mut BlockList,
    out: &mut Vec<f64>,
) -> usize {
    let rules = kernel_rules();
    nn_probabilities_over(
        pdf.support_radius(),
        dists,
        rules,
        prev,
        next,
        out,
        |d, r| pdf.pwd_pair(d, r, rules),
    )
}

/// The sorted-boundary decomposition itself, over any `(d, R) ↦ (P^WD,
/// pdf^WD)` of the given support (the tests run it over the two separate
/// integrals the fused evaluator replaced).
fn nn_probabilities_over(
    support: f64,
    dists: &[f64],
    rules: &KernelRules,
    prev: &BlockList,
    next: &mut BlockList,
    out: &mut Vec<f64>,
    pair: impl Fn(f64, f64) -> (f64, f64),
) -> usize {
    out.clear();
    next.keys.clear();
    next.offsets.clear();
    next.values.clear();
    let n = dists.len();
    if n == 0 {
        return 0;
    }
    if n == 1 {
        out.push(1.0);
        return 0;
    }
    let BlockList {
        rmin,
        cuts,
        order,
        slot,
        suffix,
        ..
    } = &mut *next;
    rmin.clear();
    rmin.extend(dists.iter().map(|&d| (d - support).max(0.0)));
    let global_rmax = dists
        .iter()
        .map(|&d| d + support)
        .fold(f64::INFINITY, f64::min);
    // Cut wherever the integrand is not smooth (module docs, "Accuracy").
    cuts.clear();
    cuts.extend(rmin.iter().copied().filter(|&r| r < global_rmax));
    for &d in dists {
        for cut in [d, support - d] {
            if cut > 0.0 && cut < global_rmax {
                cuts.push(cut);
            }
        }
    }
    cuts.push(global_rmax);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    order.clear();
    order.extend(0..n);
    order.sort_by(|&i, &j| dists[i].total_cmp(&dists[j]));
    slot.clear();
    slot.resize(n, NO_BLOCK);
    suffix.clear();
    suffix.resize((n + 1) * OUTER, 0.0);
    out.resize(n, 0.0);

    let cuts = std::mem::take(cuts);
    let mut pass = Pass {
        dists,
        pair,
        prev,
        cursor: 0,
        next,
        out,
        computed: 0,
    };
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b - a <= 1e-15 {
            continue;
        }
        match outer_order(b - a, support) {
            4 => pass.segment(a, b, &rules.o4),
            8 => pass.segment(a, b, &rules.o8),
            _ => pass.segment(a, b, &rules.o16),
        }
    }
    let computed = pass.computed;
    next.cuts = cuts;
    for p in out.iter_mut() {
        *p = p.clamp(0.0, 1.0);
    }
    computed
}

/// One evaluation of [`nn_probabilities_over`] under way: the column, the
/// list it reads, the list and the result it writes.
struct Pass<'a, P> {
    dists: &'a [f64],
    pair: P,
    prev: &'a BlockList,
    /// `prev`'s first block not below the last key looked up.
    cursor: usize,
    next: &'a mut BlockList,
    out: &'a mut [f64],
    /// Blocks computed rather than copied.
    computed: usize,
}

impl<P: Fn(f64, f64) -> (f64, f64)> Pass<'_, P> {
    /// Adds segment `(a, b)`'s share of Eq. 5, at the `M` nodes of `rule`,
    /// to every candidate's `out`.
    fn segment<const M: usize>(&mut self, a: f64, b: f64, rule: &OuterRule<M>) {
        let BlockList {
            keys,
            offsets,
            values,
            rmin,
            order,
            slot,
            suffix,
            ..
        } = &mut *self.next;
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let r: [f64; M] = std::array::from_fn(|j| mid + half * rule.x[j]);
        let r_top = r.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // The segment's blocks, ascending by distance: one per distinct
        // `d` with a node above its `rmin`, copied or computed.
        let first = keys.len();
        for &i in order.iter() {
            let d = self.dists[i];
            if rmin[i] >= r_top {
                slot[i] = NO_BLOCK;
                continue;
            }
            if keys.len() > first && keys[keys.len() - 1][2].to_bits() == d.to_bits() {
                // A tie shares its predecessor's block.
                slot[i] = offsets[offsets.len() - 1];
                continue;
            }
            let key = [a, b, d];
            let start = values.len();
            match self.prev.find(&key, &mut self.cursor) {
                Some(row) => values.extend_from_slice(row),
                None => {
                    self.computed += 1;
                    values.resize(start + 2 * M, 0.0);
                    let (pwd, dens) = values[start..].split_at_mut(M);
                    for (j, &rj) in r.iter().enumerate() {
                        if rmin[i] >= rj {
                            continue;
                        }
                        (pwd[j], dens[j]) = (self.pair)(d, rj);
                    }
                }
            }
            debug_assert_eq!(
                values.len(),
                start + 2 * M,
                "a block has its segment's width"
            );
            keys.push(key);
            offsets.push(start);
            slot[i] = start;
        }
        // The node loop, lane-major: the `M` nodes are the lanes of one
        // pass over the candidates. `suffix` holds, per candidate `i`,
        // the survival product of the candidates after it at every node;
        // `prefix` runs forward over the candidates before it. A
        // candidate without a block (`NO_BLOCK`, past the end) has
        // `P^WD = 0` — a factor of exactly 1 — and no density, so it is
        // passed over. Every product and every `out[i]` addition is the
        // node-major loop's, in its order: node `j`'s term still reaches
        // `out[i]` before node `j + 1`'s.
        let n = self.dists.len();
        let wh: [f64; M] = std::array::from_fn(|j| rule.w[j] * half);
        let suffix = &mut suffix[..(n + 1) * M];
        suffix[n * M..].fill(1.0);
        for i in (0..n).rev() {
            let (done, open) = suffix.split_at_mut((i + 1) * M);
            let (cur, after) = (&mut done[i * M..], &open[..M]);
            match slot[i] {
                NO_BLOCK => cur.copy_from_slice(after),
                start => {
                    let pwd = &values[start..start + M];
                    for ((c, &a), &w) in cur.iter_mut().zip(after).zip(pwd) {
                        *c = a * (1.0 - w);
                    }
                }
            }
        }
        let mut prefix = [1.0; M];
        for (i, &start) in slot.iter().enumerate() {
            if start == NO_BLOCK {
                continue;
            }
            let (pwd, dens) = values[start..start + 2 * M].split_at(M);
            let after = &suffix[(i + 1) * M..(i + 2) * M];
            let term: [f64; M] = std::array::from_fn(|j| wh[j] * dens[j] * prefix[j] * after[j]);
            for (&t, &f) in term.iter().zip(dens) {
                if f > 0.0 {
                    self.out[i] += t;
                }
            }
            for (p, &w) in prefix.iter_mut().zip(pwd) {
                *p *= 1.0 - w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::shared_rule;
    use crate::nn_prob::{nn_probabilities, NnCandidate, NnConfig};
    use crate::pdf::PdfKind;
    use crate::reference::{self, ArcRule};
    use crate::uniform::UniformDiskPdf;
    use crate::uniform_diff::UniformDifferencePdf;
    use crate::within_distance::{within_distance, within_distance_density};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    /// The oracle: the two separate arc integrals the fused evaluator
    /// replaced — `(1−c)(1+c)` from a rounded cosine, one `sqrt` per
    /// integrand, sequential sums — on the kernel's own arc rule.
    fn two_integrals(prof: &ProfiledPdf, d: f64, rd: f64) -> (f64, f64) {
        static RULE: OnceLock<ArcRule> = OnceLock::new();
        reference::pair(prof, d, rd, RULE.get_or_init(|| ArcRule::new(INNER)))
    }

    /// The oracle's Eq. 5: the same decomposition over the two separate
    /// integrals (tabulated shapes only).
    fn nn_probabilities_two_integrals(pdf: &ProfiledPdf, dists: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        nn_probabilities_over(
            pdf.support_radius(),
            dists,
            kernel_rules(),
            &BlockList::default(),
            &mut BlockList::default(),
            &mut out,
            |d, r| two_integrals(pdf, d, r),
        );
        out
    }

    /// The cold evaluation: an empty previous list.
    fn fused(prof: &ProfiledPdf, dists: &[f64]) -> Vec<f64> {
        cold(prof, dists).0
    }

    /// The cold evaluation's result and the list it writes.
    fn cold(prof: &ProfiledPdf, dists: &[f64]) -> (Vec<f64>, BlockList) {
        warm(prof, dists, &BlockList::default()).0
    }

    /// An evaluation reading `prev`: its result, the list it writes, and
    /// the number of blocks it computed.
    fn warm(prof: &ProfiledPdf, dists: &[f64], prev: &BlockList) -> ((Vec<f64>, BlockList), usize) {
        let (mut out, mut next) = (Vec::new(), BlockList::default());
        let computed = nn_probabilities_profiled(prof, dists, prev, &mut next, &mut out);
        ((out, next), computed)
    }

    /// Bit equality of two lists' blocks (keys, offsets and values).
    fn same_blocks(x: &BlockList, y: &BlockList) -> bool {
        bits(&x.keys.concat()) == bits(&y.keys.concat())
            && x.offsets == y.offsets
            && bits(&x.values) == bits(&y.values)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn gaussian_diff() -> Box<dyn RadialPdf> {
        let kind = PdfKind::TruncatedGaussian {
            radius: 1.0,
            sigma: 0.4,
        };
        kind.convolve_with(&kind)
    }

    /// The uniform-difference and the truncated-Gaussian-difference
    /// profile, both of support 2.
    fn both_profiles() -> &'static [ProfiledPdf; 2] {
        static PROFILES: OnceLock<[ProfiledPdf; 2]> = OnceLock::new();
        PROFILES.get_or_init(|| {
            [
                ProfiledPdf::of(&UniformDifferencePdf::new(1.0)),
                ProfiledPdf::of(gaussian_diff().as_ref()),
            ]
        })
    }

    /// Max `|ΔP^NN|` of the fused kernel against the two-integral oracle.
    fn max_gap(prof: &ProfiledPdf, dists: &[f64]) -> f64 {
        fused(prof, dists)
            .iter()
            .zip(nn_probabilities_two_integrals(prof, dists))
            .map(|(new, old)| (new - old).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn uniform_disk_classifies_as_uniform_shape() {
        let pdf = UniformDiskPdf::new(1.5);
        let prof = ProfiledPdf::of(&pdf);
        assert!(matches!(prof.shape, Shape::Uniform { .. }));
        assert!((prof.mass_within(0.75) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn difference_pdf_tabulates() {
        let pdf = UniformDifferencePdf::new(1.0);
        let prof = ProfiledPdf::of(&pdf);
        assert!(matches!(prof.shape, Shape::Tabulated { .. }));
        // Table matches the source density and CDF closely.
        for s in [0.0, 0.3, 0.9, 1.4, 1.97] {
            assert!(
                (prof.density(s) - pdf.density(s)).abs() < 1e-6,
                "density at {s}"
            );
            assert!(
                (prof.mass_within(s) - pdf.mass_within(s)).abs() < 1e-4,
                "mass at {s}"
            );
        }
    }

    #[test]
    fn profiled_pwd_matches_generic_quadrature() {
        for pdf in [
            Box::new(UniformDifferencePdf::new(1.0)) as Box<dyn RadialPdf>,
            gaussian_diff(),
        ] {
            let prof = ProfiledPdf::of(pdf.as_ref());
            for d in [0.0, 0.4, 1.1, 2.3, 3.5] {
                for rd in [0.1, 0.7, 1.3, 2.0, 2.9, 4.1] {
                    let (fast, _) = prof.pwd_pair(d, rd, kernel_rules());
                    let slow = within_distance(pdf.as_ref(), d, rd);
                    assert!(
                        (fast - slow).abs() < 2e-5,
                        "{pdf:?} pwd(d={d}, rd={rd}): fast {fast} vs slow {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiled_density_matches_generic_quadrature() {
        for pdf in [
            Box::new(UniformDifferencePdf::new(1.0)) as Box<dyn RadialPdf>,
            gaussian_diff(),
        ] {
            let prof = ProfiledPdf::of(pdf.as_ref());
            for d in [0.0, 0.4, 1.1, 2.3] {
                for rd in [0.1, 0.7, 1.3, 2.0, 2.9] {
                    let (_, fast) = prof.pwd_pair(d, rd, kernel_rules());
                    let slow = within_distance_density(pdf.as_ref(), d, rd);
                    assert!(
                        (fast - slow).abs() < 2e-4,
                        "{pdf:?} pwd_density(d={d}, rd={rd}): fast {fast} vs slow {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiled_pwd_is_monotone_cdf_in_rd() {
        let prof = ProfiledPdf::of(&UniformDifferencePdf::new(1.0));
        let d = 1.2;
        let mut prev = 0.0;
        for k in 0..200 {
            let rd = k as f64 * 0.02;
            let (v, _) = prof.pwd_pair(d, rd, kernel_rules());
            assert!(v + 1e-9 >= prev, "pwd not monotone at rd={rd}");
            prev = v;
        }
        assert!((prev - 1.0).abs() < 1e-6, "pwd should saturate, got {prev}");
    }

    #[test]
    fn profiled_nn_matches_dynamic_evaluator() {
        let pdf = UniformDifferencePdf::new(1.0);
        let prof = ProfiledPdf::of(&pdf);
        let dists = [2.0, 2.5, 3.0, 3.5];
        let cands: Vec<NnCandidate<'_>> = dists
            .iter()
            .map(|&d| NnCandidate {
                center_distance: d,
                pdf: &pdf,
            })
            .collect();
        let slow = nn_probabilities(&cands, NnConfig::default());
        let fast = fused(&prof, &dists);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-4, "fast {fast:?} vs slow {slow:?}");
        }
        let total: f64 = fast.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "sum {total}");
    }

    #[test]
    fn profiled_nn_handles_trivial_columns() {
        let prof = ProfiledPdf::of(&UniformDifferencePdf::new(1.0));
        assert!(fused(&prof, &[]).is_empty());
        assert_eq!(fused(&prof, &[4.2]), vec![1.0]);
    }

    #[test]
    fn profiling_is_deterministic() {
        // Two profiles of equal pdfs must produce bit-identical answers —
        // the invariant the incremental row maintenance relies on.
        let kind = PdfKind::Uniform { radius: 0.8 };
        let a = ProfiledPdf::of(kind.convolve_with(&kind).as_ref());
        let b = ProfiledPdf::of(kind.convolve_with(&kind).as_ref());
        for d in [0.1, 0.9, 1.7, 2.4] {
            for rd in [0.2, 0.8, 1.5, 2.2] {
                let (pa, fa) = a.pwd_pair(d, rd, kernel_rules());
                let (pb, fb) = b.pwd_pair(d, rd, kernel_rules());
                assert_eq!(pa.to_bits(), pb.to_bits());
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
    }

    #[test]
    fn kernel_rules_are_the_shared_gauss_legendre_rule() {
        // The kernel's private tables must not drift from the interned
        // rules every other evaluator draws its nodes from: the outer
        // rules, and the substituted arc rule of the two-integral oracle.
        fn same<const M: usize>(rule: &OuterRule<M>) {
            let gl = shared_rule(M);
            for k in 0..M {
                let (x, w) = gl.node_weight(k);
                assert_eq!(rule.x[k].to_bits(), x.to_bits());
                assert_eq!(rule.w[k].to_bits(), w.to_bits());
            }
        }
        let rules = kernel_rules();
        same(&rules.o4);
        same(&rules.o8);
        same(&rules.o16);
        let arc = ArcRule::new(INNER);
        assert_eq!(arc.nodes().count(), INNER);
        for (k, (frac, wgt)) in arc.nodes().enumerate() {
            assert_eq!(rules.frac[k].to_bits(), frac.to_bits());
            assert_eq!(rules.wgt[k].to_bits(), wgt.to_bits());
            assert!((rules.frac[k] + rules.cofrac[k] - 1.0).abs() < 4.0 * f64::EPSILON);
        }
    }

    #[test]
    fn each_outer_rule_is_exact_to_degree_2m_minus_1() {
        // Σ w_j x_j^k = ∫_{-1}^{1} x^k dx for every k < 2m, and not for
        // k = 2m: each rule has exactly the degree of an m-point
        // Gauss–Legendre rule.
        fn moments<const M: usize>(rule: &OuterRule<M>) {
            let quad =
                |k: i32| -> f64 { rule.x.iter().zip(&rule.w).map(|(x, w)| w * x.powi(k)).sum() };
            let exact = |k: i32| {
                if k % 2 == 0 {
                    2.0 / f64::from(k + 1)
                } else {
                    0.0
                }
            };
            for k in 0..2 * M as i32 {
                assert!((quad(k) - exact(k)).abs() < 1e-14, "m = {M}, x^{k}");
            }
            // (The 16-point rule's error on x^32 is ≈ 7e-11.)
            let k = 2 * M as i32;
            assert!((quad(k) - exact(k)).abs() > 1e-12, "m = {M}, x^{k}");
        }
        let rules = kernel_rules();
        moments(&rules.o4);
        moments(&rules.o8);
        moments(&rules.o16);
    }

    #[test]
    fn a_segment_at_a_threshold_takes_the_higher_order() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for s in [0.5, 1.0, 2.0, 3.7] {
            assert_eq!(outer_order(below(0.05 * s), s), 4);
            assert_eq!(outer_order(0.05 * s, s), 8);
            assert_eq!(outer_order(below(0.2 * s), s), 8);
            assert_eq!(outer_order(0.2 * s, s), OUTER);
            assert_eq!(outer_order(1e-14, s), 4);
            assert_eq!(outer_order(10.0 * s, s), OUTER);
        }
    }

    #[test]
    fn fused_pair_keeps_the_support_edge_and_degenerate_rules() {
        for prof in both_profiles() {
            let s = prof.support_radius();
            let pair = |d: f64, rd: f64| prof.pwd_pair(d, rd, kernel_rules());
            // R ≤ 0, the far side (d − S ≥ R) and the near side (d + S ≤ R).
            assert_eq!(pair(1.0, 0.0), (0.0, 0.0));
            assert_eq!(pair(1.0, -3.0), (0.0, 0.0));
            assert_eq!(pair(5.0, 5.0 - s), (0.0, 0.0));
            assert_eq!(pair(1.0, 1.0 + s), (1.0, 0.0));
            // d == 0 is the plain radial mass / ring density.
            assert_eq!(
                pair(0.0, 0.7),
                (prof.mass_within(0.7), prof.density(0.7) * 2.0 * PI * 0.7)
            );
            assert_eq!(pair(0.0, s + 1.0), (1.0, 0.0));
            // |R − d| ≥ S reached only through rounding of d ± S: the density
            // is zero and the mass is the full-circle lookup.
            let d = 0.1 + 0.2; // 0.30000000000000004
            assert_eq!(pair(d, d + s), (1.0, 0.0));
            // Every pair is a probability and a non-negative density, and
            // agrees with the two separate integrals, right up to the edges
            // of the arc interval (the boundary term θ(hi) included: the
            // `d = 3, R = 1.5` rows have hi = S < R + d).
            for d in [1e-5, 0.25, 1.0, 3.0, 17.0] {
                for rd in [
                    d,
                    d + s - 1e-12,
                    (d - s + 1e-12).max(1e-12),
                    d + 0.5 * s,
                    (d - 0.5 * s).max(1e-9),
                    1.5,
                ] {
                    let (p, f) = pair(d, rd);
                    assert!((0.0..=1.0).contains(&p) && f >= 0.0, "({d}, {rd})");
                    let (p0, f0) = two_integrals(prof, d, rd);
                    assert!((p - p0).abs() < 1e-12, "P^WD({d}, {rd}): {p} vs {p0}");
                    // Widest at d == R = 17 (6e-9): there `q = 1 − s²/2Rd`
                    // and the oracle's `1 − q` keeps three digits at the
                    // first node; everywhere else the gap is below 1e-9.
                    assert!((f - f0).abs() < 1e-8, "pdf^WD({d}, {rd}): {f} vs {f0}");
                }
            }
        }
    }

    #[test]
    fn fused_kernel_matches_two_integrals_on_directed_columns() {
        for prof in both_profiles() {
            let s = prof.support_radius();
            let columns: [&[f64]; 8] = [
                // (`d == R` and `R − d = S ∓ 1e-12` are also pinned pair by
                // pair in the previous test.)
                &[3.0, 3.0],                      // two equal distances
                &[3.0, 3.0, 3.0 + 1e-6],          // … and a near-tie
                &[1e-3, 0.5, 1.0],                // d → 0 (see the next test)
                &[0.0, 0.3],                      // d == 0
                &[5.0, 5.0 + s - 1e-12, 5.0 + s], // R − d = S ∓ 1e-12 at rmax
                &[5.0, 5.0 + 2.0 * s - 1e-12],    // a cut at global_rmax − 1e-12
                &[5.0, 5.0 + 2.0 * s],            // global_rmax coincides with a cut
                &[0.4, 0.9, 1.7, 2.1, 2.1, 2.35], // query inside several zones
            ];
            for dists in columns {
                let gap = max_gap(prof, dists);
                assert!(gap <= 1e-10, "{dists:?}: |ΔP^NN| = {gap:e}");
                let total: f64 = fused(prof, dists).iter().sum();
                assert!((total - 1.0).abs() < 1e-4, "{dists:?}: sum {total}");
            }
        }
    }

    #[test]
    fn fused_kernel_is_continuous_at_zero_distance() {
        // `d == 0` takes the closed forms (ring density, radial mass), and
        // `d = 1e-9` must land on them. The two-integral oracle does not:
        // it forms `R² + d² − s²` with `s ≈ R` by cancellation and divides
        // by `2Rd`, and is 2e-6 off its own `d == 0` value here — the one
        // place the fused kernel knowingly departs from it by more than
        // 1e-10 (from `d ≥ 1e-3` up the two agree, see above).
        for prof in both_profiles() {
            let at_zero = fused(prof, &[0.0, 0.5, 1.0]);
            let near_zero = fused(prof, &[1e-9, 0.5, 1.0]);
            for i in 0..3 {
                assert!(
                    (near_zero[i] - at_zero[i]).abs() < 1e-11,
                    "{near_zero:?} vs {at_zero:?}"
                );
            }
        }
    }

    /// Columns of 2–30 distances in `[0, 40]`: a base plus offsets inside
    /// a spread drawn log-uniformly from `1e-6` to `2·support`.
    fn column() -> impl Strategy<Value = Vec<f64>> {
        (
            0.0..36.0f64,
            -6.0..0.6021f64, // log10 of the spread: 1e-6 ..= 4 = 2·support
            prop::collection::vec(0.0..=1.0f64, 2..=30),
        )
            .prop_map(|(base, log_spread, offsets)| {
                let spread = 10f64.powf(log_spread);
                offsets.iter().map(|u| base + spread * u).collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn fused_kernel_matches_two_integrals_on_random_columns(dists in column()) {
            for prof in both_profiles() {
                let gap = max_gap(prof, &dists);
                prop_assert!(gap <= 1e-10, "{:?}: |ΔP^NN| = {:e}", dists, gap);
            }
        }
    }

    /// Per block, its width: `m` values of `P^WD` then `m` of `pdf^WD`.
    fn widths(list: &BlockList) -> Vec<usize> {
        (0..list.len()).map(|k| list.row(k).len() / 2).collect()
    }

    #[test]
    fn block_bytes_are_a_key_an_offset_and_two_value_rows() {
        // The per-share memory formula in docs/OPERATIONS.md and the
        // `subs_kernel_memo_bytes` gauge count this: per block the
        // `(a, b, d)` key, its offset, and `m` values each of `P^WD` and
        // `pdf^WD`, `m` its segment's outer order; no padding.
        let block_bytes = |m: usize| 8 * (3 + 1 + 2 * m);
        assert_eq!(block_bytes(OUTER) - 8, 8 * (3 + 2 * OUTER));
        assert_eq!(block_bytes(OUTER) - 8, 280);
        for prof in both_profiles() {
            let s = prof.support_radius();
            let (_, list) = cold(prof, &[0.4, 0.9, 1.7, 2.1, 2.1, 2.35]);
            let mut want = 0;
            for (k, m) in widths(&list).into_iter().enumerate() {
                let [a, b, _] = list.keys[k];
                assert_eq!(m, outer_order(b - a, s), "block {k}");
                assert_eq!(list.row(k).len(), 2 * m);
                want += block_bytes(m);
            }
            assert_eq!(list.bytes(), want);
            assert_eq!(
                list.bytes(),
                24 * list.keys.len() + 8 * list.offsets.len() + 8 * list.values.len()
            );
        }
    }

    #[test]
    fn a_column_read_back_with_its_own_blocks_computes_none() {
        for prof in both_profiles() {
            let dists = [0.4, 0.9, 1.7, 2.1, 2.1, 2.35];
            let (want, list) = cold(prof, &dists);
            // Support 2: the cuts are the `rmin`s 0, 0.1, 0.35, the five
            // distinct `d`s, the `S − d`s 0.3, 1.1, 1.6 and `global_rmax`
            // 2.4 — eleven segments. A distance has a block in every
            // segment above its `rmin`, a tie shares one: 3 + 4 + 4 in the
            // three segments below 0.35, then 5 in each of the other eight.
            assert_eq!(list.len(), 3 + 4 + 4 + 8 * 5, "{list:?}");
            let ((got, again), computed) = warm(prof, &dists, &list);
            assert_eq!(computed, 0);
            assert_eq!(bits(&got), bits(&want));
            assert!(same_blocks(&again, &list));
            // Columns of fewer than two candidates write no block.
            assert!(cold(prof, &[3.0]).1.is_empty());
        }
    }

    /// One edit of a column (support `s`): `kind` picks insert, remove,
    /// move, a tie, `d = 0`, a cut exactly at `global_rmax`, a tie with
    /// the nearest candidate (`d + S == global_rmax`), or a cut a few ulps
    /// from another (closer than the `1e-15` the cut dedup merges); `u`
    /// picks where and `v` how far.
    fn edit(dists: &mut Vec<f64>, s: f64, (kind, u, v): (u8, f64, f64)) {
        let pick = |len: usize| ((u * len as f64) as usize).min(len.saturating_sub(1));
        let nearest = dists.iter().copied().fold(f64::INFINITY, f64::min);
        let len = dists.len();
        match kind {
            0 => {
                let near = if len == 0 { 10.0 * v } else { dists[pick(len)] };
                dists.insert(pick(len + 1), (near + (v - 0.5) * 4.0 * s).max(0.0));
            }
            1 if len > 0 => {
                dists.remove(pick(len));
            }
            2 if len > 0 => {
                let i = pick(len);
                dists[i] = (dists[i] + (v - 0.5) * s).max(0.0);
            }
            3 if len > 0 => dists.insert(pick(len + 1), dists[pick(len)]),
            4 => dists.insert(pick(len + 1), 0.0),
            5 if len > 0 => dists.push((nearest + s) + s),
            6 if len > 0 => dists.insert(pick(len + 1), nearest),
            7 if len > 0 => {
                let d = dists[pick(len)];
                dists.push(f64::from_bits(d.to_bits() + 1 + (3.0 * v) as u64));
            }
            _ => {}
        }
    }

    /// The blocks of `lists`, in a deterministic Fisher–Yates shuffle
    /// (xorshift from `seed`), as one list.
    fn shuffled(lists: &[&BlockList], mut seed: u64) -> BlockList {
        let mut blocks: Vec<([f64; 3], &[f64])> = lists
            .iter()
            .flat_map(|list| (0..list.len()).map(move |k| (list.keys[k], list.row(k))))
            .collect();
        for i in (1..blocks.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            blocks.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        let mut list = BlockList::default();
        for (key, row) in blocks {
            list.keys.push(key);
            list.offsets.push(list.values.len());
            list.values.extend_from_slice(row);
        }
        list
    }

    /// The outer orders `remembered_blocks_never_change_a_bit`'s columns
    /// have used so far, as a bit mask of `4 | 8 | 16`, and its cases run.
    static WIDTHS_SEEN: AtomicUsize = AtomicUsize::new(0);
    static CASES_RUN: AtomicUsize = AtomicUsize::new(0);
    const REMEMBERED_CASES: u32 = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(REMEMBERED_CASES))]

        #[test]
        fn remembered_blocks_never_change_a_bit(
            start in column(),
            edits in prop::collection::vec((0u8..8, 0.0..=1.0f64, 0.0..=1.0f64), 1..=8),
            seed in 1u64..u64::MAX,
        ) {
            for prof in both_profiles() {
                let s = prof.support_radius();
                let (_, other) = cold(prof, &start);
                let mut dists = start.clone();
                let mut prev = cold(prof, &dists).1;
                for &e in &edits {
                    edit(&mut dists, s, e);
                    let (want, want_list) = cold(prof, &dists);
                    // The column's previous evaluation, as a kernel keeps it.
                    let ((got, got_list), _) = warm(prof, &dists, &prev);
                    prop_assert!(bits(&got) == bits(&want), "{:?}", dists);
                    prop_assert!(same_blocks(&got_list, &want_list), "{:?}", dists);
                    // Another column's blocks with this one's, shuffled.
                    let adversary = shuffled(&[&prev, &other], seed);
                    let ((got, got_list), _) = warm(prof, &dists, &adversary);
                    prop_assert!(bits(&got) == bits(&want), "{:?}", dists);
                    prop_assert!(same_blocks(&got_list, &want_list), "{:?}", dists);
                    for m in widths(&got_list) {
                        WIDTHS_SEEN.fetch_or(m, AtomicOrdering::Relaxed);
                    }
                    prev = got_list;
                }
            }
            // The last case: the columns must have reached every width.
            if CASES_RUN.fetch_add(1, AtomicOrdering::Relaxed) + 1 == REMEMBERED_CASES as usize {
                prop_assert_eq!(WIDTHS_SEEN.load(AtomicOrdering::Relaxed), 4 | 8 | OUTER);
            }
        }
    }
}
