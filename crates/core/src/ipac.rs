//! The IPAC-NN tree (Interval-based Probabilistic Answer to a Continuous
//! NN query) — §1 and Algorithm 3 of the paper.
//!
//! * Level 1 is the lower envelope: the highest-probability NN per
//!   sub-interval (Theorem 1 reduces probability ranking to distance
//!   ranking).
//! * The children of a node re-rank the remaining candidates inside the
//!   node's interval after *excluding the ancestors' owners*.
//! * Recursion stops when no candidate with non-zero probability remains
//!   (every candidate is further than `4r` above the level-1 envelope) or
//!   when the configured depth bound is reached.
//!
//! This module holds the crate's **one** k-level recursion. It starts
//! from a level-1 envelope it is given — [`build_ipac_tree`] builds one,
//! a [`crate::query::QueryEngine`] passes its own — and costs one
//! `lower_envelope` call per refined node. With the band it grows
//! the IPAC tree, which `RANK k` answers and rank intervals walk;
//! without it, to depth `k`, its leaves are the crisp k-NN cells of
//! [`crate::topk`].
//!
//! Each node carries a descriptor `D_i` (the paper leaves its contents
//! open; ours records the min/max center distance and, optionally,
//! sampled `P^NN` values computed with the convolved pdf — see
//! [`annotate_probabilities`]).

use crate::algorithms::lower_envelope;
use crate::band::{enters_band, prune_by_band, BandStats};
use crate::envelope::Envelope;
use crate::kernel::ColumnKernel;
use std::fmt::Write as _;
use unn_geom::interval::TimeInterval;
use unn_prob::uniform_diff::UniformDifferencePdf;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// Descriptor of a node: properties of the owner's distance (and
/// optionally probability) during the node's interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Descriptor {
    /// Minimum center distance over the interval.
    pub min_distance: f64,
    /// Maximum center distance over the interval.
    pub max_distance: f64,
    /// Sampled `(t, P^NN)` values (empty until
    /// [`annotate_probabilities`] runs).
    pub prob_samples: Vec<(f64, f64)>,
}

/// One node of the IPAC-NN tree.
#[derive(Debug, Clone, PartialEq)]
pub struct IpacNode {
    /// The trajectory ranked at this node's level during `span`.
    pub owner: Oid,
    /// The node's time interval of relevance.
    pub span: TimeInterval,
    /// 1-based level (level 1 = highest-probability NN).
    pub level: usize,
    /// The descriptor `D_i`.
    pub descriptor: Descriptor,
    /// Children: the next-highest-probability candidates within disjoint
    /// sub-intervals of `span`.
    pub children: Vec<IpacNode>,
}

/// Configuration for building an [`IpacTree`].
#[derive(Debug, Clone, Copy)]
pub struct IpacConfig {
    /// Shared uncertainty-disk radius `r` (the band is `4r`).
    pub radius: f64,
    /// Maximum tree depth (`0` = unbounded: recurse until no candidate
    /// has non-zero probability).
    pub max_depth: usize,
}

impl IpacConfig {
    /// Unbounded-depth configuration for radius `r`.
    pub fn unbounded(radius: f64) -> Self {
        IpacConfig {
            radius,
            max_depth: 0,
        }
    }

    /// Depth-bounded configuration (enough for rank-`k` queries with
    /// `k <= max_depth`).
    pub fn with_depth(radius: f64, max_depth: usize) -> Self {
        IpacConfig { radius, max_depth }
    }
}

/// The IPAC-NN tree: root parameters (query id and window) plus the
/// level-1 pieces and their recursive refinements.
#[derive(Debug, Clone)]
pub struct IpacTree {
    /// The querying trajectory.
    pub query: Oid,
    /// The query window `[tb, te]`.
    pub window: TimeInterval,
    /// The level-1 lower envelope (kept for band tests and queries).
    pub envelope: Envelope,
    /// Level-1 nodes, in time order.
    pub roots: Vec<IpacNode>,
    /// Pruning statistics of the band pass.
    pub stats: BandStats,
}

impl IpacTree {
    /// Total number of nodes (the combinatorial complexity bounded by
    /// Theorem 2).
    pub fn node_count(&self) -> usize {
        preorder(&self.roots).len()
    }

    /// Maximum depth (number of levels) present in the tree.
    pub fn depth(&self) -> usize {
        preorder(&self.roots)
            .iter()
            .map(|n| n.level)
            .max()
            .unwrap_or(0)
    }

    /// All `(owner, span)` pieces at a given 1-based level — the "Level k
    /// lower envelope" of the paper's Category 2 query processing.
    pub fn level_pieces(&self, level: usize) -> Vec<(Oid, TimeInterval)> {
        let mut out: Vec<(Oid, TimeInterval)> = preorder(&self.roots)
            .into_iter()
            .filter(|n| n.level == level)
            .map(|n| (n.owner, n.span))
            .collect();
        out.sort_by(|a, b| a.1.start().total_cmp(&b.1.start()));
        out
    }

    /// The continuous (crisp) NN answer `A_nn(q)` of §1: the level-1
    /// owner/interval sequence.
    pub fn answer_sequence(&self) -> Vec<(Oid, TimeInterval)> {
        self.envelope.answer_sequence()
    }

    /// Flattens the tree into the DAG of Theorem 2 (the root removed):
    /// returns the nodes in preorder and the parent→child edge list as
    /// indices into that node list.
    pub fn to_dag(&self) -> (Vec<&IpacNode>, Vec<(usize, usize)>) {
        let nodes = preorder(&self.roots);
        // A node's parent is the latest node one level up before it.
        let (mut path, mut edges) = (Vec::new(), Vec::new());
        for (i, n) in nodes.iter().enumerate() {
            path.truncate(n.level - 1);
            edges.extend(path.last().map(|&p| (p, i)));
            path.push(i);
        }
        (nodes, edges)
    }

    /// Graphviz `dot` rendering of the DAG (for inspection and the
    /// examples).
    pub fn to_dot(&self) -> String {
        let (nodes, edges) = self.to_dag();
        let mut s = String::from("digraph ipac {\n  rankdir=TB;\n");
        let _ = writeln!(
            s,
            "  root [label=\"{} [{:.2}, {:.2}]\", shape=box];",
            self.query,
            self.window.start(),
            self.window.end()
        );
        for (i, n) in nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  n{i} [label=\"{} L{} [{:.2}, {:.2}]\"];",
                n.owner,
                n.level,
                n.span.start(),
                n.span.end()
            );
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.level == 1 {
                let _ = writeln!(s, "  root -> n{i};");
            }
        }
        for (a, b) in edges {
            let _ = writeln!(s, "  n{a} -> n{b};");
        }
        s.push_str("}\n");
        s
    }

    /// Pretty-prints the tree (one line per node, indented by level).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "[{} , {:.3}, {:.3}]",
            self.query,
            self.window.start(),
            self.window.end()
        );
        for n in preorder(&self.roots) {
            let indent = "  ".repeat(n.level);
            let probs = if n.descriptor.prob_samples.is_empty() {
                String::new()
            } else {
                let avg: f64 = n
                    .descriptor
                    .prob_samples
                    .iter()
                    .map(|(_, p)| *p)
                    .sum::<f64>()
                    / n.descriptor.prob_samples.len() as f64;
                format!(", avg P^NN ≈ {avg:.3}")
            };
            let _ = writeln!(
                &mut s,
                "{indent}{} [{:.3}, {:.3}] d∈[{:.3}, {:.3}]{probs}",
                n.owner,
                n.span.start(),
                n.span.end(),
                n.descriptor.min_distance,
                n.descriptor.max_distance
            );
        }
        s
    }
}

/// The nodes under `roots` in preorder (depth first, siblings in time
/// order): the walk every reading of the recursion's output shares.
pub(crate) fn preorder(roots: &[IpacNode]) -> Vec<&IpacNode> {
    let mut out = Vec::new();
    let mut stack: Vec<&IpacNode> = roots.iter().rev().collect();
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(n.children.iter().rev());
    }
    out
}

/// Builds the IPAC-NN tree for query object `query` over the given
/// distance functions (Algorithm 3).
///
/// `fs` are the difference-trajectory distance functions of all candidate
/// objects (the query itself excluded), all sharing the query window.
///
/// # Panics
///
/// Panics when `fs` is empty.
pub fn build_ipac_tree(query: Oid, fs: &[DistanceFunction], cfg: &IpacConfig) -> IpacTree {
    assert!(!fs.is_empty(), "IPAC tree needs at least one candidate");
    // Step 1: the lower envelope = Level 1.
    let envelope = lower_envelope(fs);
    // Step 2: prune objects that can never have non-zero probability.
    let (kept, stats) = prune_by_band(fs, &envelope, cfg.radius);
    tree_over(query, fs, &kept, envelope, stats, cfg)
}

/// Steps 3-8 of Algorithm 3 over an already built level 1: `envelope`
/// is the lower envelope of `fs`, and `kept` / `stats` its `4r`-band
/// pass. [`crate::query::QueryEngine`] passes its own.
pub(crate) fn tree_over(
    query: Oid,
    fs: &[DistanceFunction],
    kept: &[usize],
    envelope: Envelope,
    stats: BandStats,
    cfg: &IpacConfig,
) -> IpacTree {
    let kept: Vec<&DistanceFunction> = kept.iter().map(|&i| &fs[i]).collect();
    let band = Some((&envelope, 4.0 * cfg.radius));
    let roots = peel(&kept, &envelope, &mut Vec::new(), 1, cfg.max_depth, band);
    IpacTree {
        query,
        window: envelope.span(),
        envelope,
        roots,
        stats,
    }
}

/// The first `k` levels of the crisp ranking of `fs`, whose lower
/// envelope is `envelope`: the recursion of [`build_ipac_tree`] without
/// the band stop, so every candidate is ranked.
pub(crate) fn crisp_levels(
    fs: &[&DistanceFunction],
    envelope: &Envelope,
    k: usize,
) -> Vec<IpacNode> {
    peel(fs, envelope, &mut Vec::new(), 1, k, None)
}

/// The one k-level recursion: the nodes of `level_env` — the lower
/// envelope of one level's candidates — each refined by the level below
/// with its owner added to the `excluded` ancestors, down to `max_depth`
/// (`0` = unbounded). With a `band` (the level-1 envelope and `4r`),
/// only candidates with non-zero probability are ranked.
fn peel(
    fs: &[&DistanceFunction],
    level_env: &Envelope,
    excluded: &mut Vec<Oid>,
    level: usize,
    max_depth: usize,
    band: Option<(&Envelope, f64)>,
) -> Vec<IpacNode> {
    let mut nodes = Vec::new();
    for (owner, iv) in level_env.answer_sequence() {
        let restricted = fs
            .iter()
            .find(|f| f.owner() == owner)
            .and_then(|f| f.restrict(&iv))
            .expect("answer interval within candidate span");
        let descriptor = Descriptor {
            min_distance: restricted.min_over_window().1,
            max_distance: restricted.max_over_window().1,
            prob_samples: Vec::new(),
        };
        let mut children = vec![];
        if max_depth == 0 || level < max_depth {
            excluded.push(owner);
            if let Some(env) = next_level(fs, iv, excluded, band) {
                children = peel(fs, &env, excluded, level + 1, max_depth, band);
            }
            excluded.pop();
        }
        nodes.push(IpacNode {
            owner,
            span: iv,
            level,
            descriptor,
            children,
        });
    }
    nodes
}

/// The lower envelope of the candidates ranked below the `excluded`
/// ancestors within `span`: not an ancestor, restricted to the span,
/// and — with a band — inside the `4r` band over the *level-1* envelope
/// somewhere in it (probability is always relative to the true nearest
/// neighbor). `None` when no candidate remains.
fn next_level(
    fs: &[&DistanceFunction],
    span: TimeInterval,
    excluded: &[Oid],
    band: Option<(&Envelope, f64)>,
) -> Option<Envelope> {
    if span.is_degenerate() {
        return None;
    }
    let band = match band {
        Some((le, delta)) => Some((le.restrict(&span)?, delta)),
        None => None,
    };
    let cands: Vec<DistanceFunction> = fs
        .iter()
        .filter(|f| !excluded.contains(&f.owner()))
        .filter_map(|f| f.restrict(&span))
        .filter(|res| {
            band.as_ref()
                .map_or(true, |(le, delta)| enters_band(res, le, *delta))
        })
        .collect();
    (!cands.is_empty()).then(|| lower_envelope(&cands))
}

/// Post-pass: samples `P^NN` values into every node's descriptor.
///
/// At `samples` instants inside each node's span, the NN probability of
/// the node's owner is computed with the Eq. 5 evaluator over all
/// candidates inside the `4r` band at that instant, using the exact
/// convolved pdf of the difference objects (`UniformDifferencePdf`).
pub fn annotate_probabilities(
    tree: &mut IpacTree,
    fs: &[DistanceFunction],
    radius: f64,
    samples: usize,
) {
    if samples == 0 {
        return;
    }
    // One profiled kernel for the whole tree: every node probe is a
    // standard gather → evaluate column over it.
    let kernel = ColumnKernel::new(&UniformDifferencePdf::new(radius));
    let mut stack: Vec<&mut IpacNode> = tree.roots.iter_mut().collect();
    while let Some(node) = stack.pop() {
        let times = node.span.sample_points(samples);
        // Interior probes (avoid boundary instants shared with siblings).
        let probes: Vec<f64> = if times.len() > 2 {
            times[1..times.len() - 1].to_vec()
        } else {
            vec![node.span.midpoint()]
        };
        node.descriptor.prob_samples.clear();
        for t in probes {
            let Some(le) = tree.envelope.eval(t) else {
                continue;
            };
            let column = kernel.column(fs, le, t);
            if let Some((_, p)) = column.iter().find(|(o, _)| *o == node.owner) {
                node.descriptor.prob_samples.push((t, *p));
            }
        }
        stack.extend(node.children.iter_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::point::Vec2;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn setup() -> (Vec<DistanceFunction>, TimeInterval) {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w), // dips to 1 at t=5
            flyby(2, -2.0, 2.0, 1.0, w), // dips to 2 at t=2
            flyby(3, -8.0, 3.0, 1.0, w), // dips to 3 at t=8
            flyby(4, 0.0, 50.0, 0.0, w), // unreachable
        ];
        (fs, w)
    }

    #[test]
    fn level_one_is_the_envelope() {
        let (fs, w) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(0.5));
        assert_eq!(tree.window, w);
        let l1 = tree.level_pieces(1);
        let ans = tree.answer_sequence();
        assert_eq!(l1.len(), ans.len());
        for (a, b) in l1.iter().zip(&ans) {
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn pruned_objects_never_appear() {
        let (fs, _) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(0.5));
        assert_eq!(tree.stats.kept, 3);
        let (nodes, _) = tree.to_dag();
        assert!(nodes.iter().all(|n| n.owner != Oid(4)));
    }

    #[test]
    fn children_exclude_ancestors() {
        let (fs, _) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(0.5));
        fn check(n: &IpacNode, ancestors: &mut Vec<Oid>) {
            assert!(
                !ancestors.contains(&n.owner),
                "ancestor repeated: {}",
                n.owner
            );
            assert!(n.children.iter().all(|c| n.span.contains_interval(&c.span)));
            ancestors.push(n.owner);
            for c in &n.children {
                check(c, ancestors);
            }
            ancestors.pop();
        }
        for r in &tree.roots {
            check(r, &mut Vec::new());
        }
    }

    #[test]
    fn depth_bound_respected() {
        let (fs, _) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::with_depth(0.5, 2));
        assert!(tree.depth() <= 2);
        let unbounded = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(0.5));
        assert!(unbounded.depth() >= tree.depth());
    }

    #[test]
    fn level_two_owners_are_second_ranked() {
        let (fs, _) = setup();
        // Use a radius large enough that everything near stays in band.
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(1.0));
        for (owner, iv) in tree.level_pieces(2) {
            let t = iv.midpoint();
            // Rank the first three functions by distance at t.
            let mut vals: Vec<(f64, Oid)> = fs[..3]
                .iter()
                .map(|f| (f.eval(t).unwrap(), f.owner()))
                .collect();
            vals.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert_eq!(owner, vals[1].1, "at t={t}");
        }
    }

    #[test]
    fn dag_and_dot_are_consistent() {
        let (fs, _) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::with_depth(0.5, 3));
        let (nodes, edges) = tree.to_dag();
        assert_eq!(nodes.len(), tree.node_count());
        // Every edge connects level L to level L+1.
        for (a, b) in &edges {
            assert_eq!(nodes[*a].level + 1, nodes[*b].level);
        }
        let dot = tree.to_dot();
        assert!(dot.contains("digraph ipac"));
        assert!(dot.contains("root"));
        let rendered = tree.render();
        assert!(rendered.contains("Tr1"));
    }

    #[test]
    fn annotate_probabilities_fills_descriptors() {
        let (fs, _) = setup();
        let mut tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::with_depth(0.5, 2));
        annotate_probabilities(&mut tree, &fs, 0.5, 3);
        fn check(n: &IpacNode) {
            assert!(!n.descriptor.prob_samples.is_empty());
            for &(_, p) in &n.descriptor.prob_samples {
                assert!((0.0..=1.0).contains(&p), "probability {p}");
            }
            for c in &n.children {
                check(c);
            }
        }
        for r in &tree.roots {
            check(r);
        }
        // Level-1 nodes should carry higher average probability than their
        // children (Theorem 1: closer rank = higher probability).
        for r in &tree.roots {
            let avg = |n: &IpacNode| {
                n.descriptor
                    .prob_samples
                    .iter()
                    .map(|(_, p)| *p)
                    .sum::<f64>()
                    / n.descriptor.prob_samples.len().max(1) as f64
            };
            for c in &r.children {
                assert!(
                    avg(r) >= avg(c) - 0.05,
                    "level-1 avg {} vs child {}",
                    avg(r),
                    avg(c)
                );
            }
        }
    }

    #[test]
    fn descriptor_min_max_match_function() {
        let (fs, _) = setup();
        let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::with_depth(0.5, 1));
        for n in &tree.roots {
            let f = fs.iter().find(|f| f.owner() == n.owner).unwrap();
            for t in n.span.sample_points(8) {
                let d = f.eval(t).unwrap();
                assert!(d >= n.descriptor.min_distance - 1e-9);
                assert!(d <= n.descriptor.max_distance + 1e-9);
            }
        }
    }
}
