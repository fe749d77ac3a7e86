//! # unn-core
//!
//! The primary contribution of *"Continuous Probabilistic Nearest-Neighbor
//! Queries for Uncertain Trajectories"* (Trajcevski, Tamassia, Ding,
//! Scheuermann, Cruz — EDBT 2009), implemented in Rust:
//!
//! * [`keyed`] — the keyed-delta algebra (sorted-merge `diff` / `apply` /
//!   `then` over rows with an object-id key), written once and
//!   instantiated by [`answer`] and [`probrows`];
//! * [`answer`] — the diffable [`answer::AnswerSet`] / [`answer::AnswerDelta`]
//!   representation every engine's output reduces to — what incremental
//!   answer maintenance for standing queries diffs, pushes and folds;
//! * [`candidates`] — shared zero-copy candidate-set construction (the
//!   snapshot → prefilter → envelope pipeline's entry into this crate);
//! * [`envelope`] — owner-labelled lower envelopes with the
//!   ⊎-concatenation of Algorithm 2;
//! * [`env2`] — `Env2`, the O(1) two-hyperbola envelope (§3.2);
//! * [`merge`] — `Merge_LE` (Algorithm 2), the linear-time envelope merge;
//! * [`algorithms`] — `LE_Alg` (Algorithm 1), the O(N log N) divide &
//!   conquer construction (plus a crossbeam-parallel variant);
//! * [`naive`] — the §5 O(N² log N) all-pairs baseline of Figure 11;
//! * [`band`] — the `4r` pruning band and per-object non-zero-probability
//!   intervals (Figure 10 / Figure 13);
//! * [`ipac`] — the IPAC-NN tree (Algorithm 3), descriptors, and the DAG
//!   dual of Theorem 2; its level recursion is the crate's only one, and
//!   rank intervals, `RANK k` answers and [`topk`] cells are walks of it;
//! * [`query`] — the §4 query variants: the [`query::Quantifier`] table
//!   maps UQ11…UQ43 and the fixed-time forms to the answer value each
//!   decides, and the engine computes those values; naive baselines for
//!   Figure 12;
//! * [`kernel`] — the batched probability **column kernel**
//!   ([`kernel::ColumnKernel`]): all Eq. 5 column evaluation funnels
//!   through it (see "Kernel architecture" below);
//! * [`probrows`] — incremental sampled probability rows
//!   ([`probrows::ProbRowSet`] / [`probrows::ProbRowDelta`]): the
//!   diffable representation behind threshold and reverse **standing**
//!   queries;
//! * [`threshold`] — continuous *threshold* NN queries (the §7 future-work
//!   item, built on the probability engine; the sweep is a view over
//!   [`probrows`] rows);
//! * [`shifted`] — lower envelopes of *shifted* hyperbolas `d_j(t) + c_j`
//!   (substrate for the §7 heterogeneous-radii extension);
//! * [`hetero`] — continuous probabilistic NN queries with per-object
//!   uncertainty radii (the §7 "different uncertainty zones" item);
//! * [`reverse`] — continuous probabilistic *reverse* NN queries and the
//!   *all-pairs* answer (the §7 "all pairs, reverse" item);
//! * [`topk`] — crisp continuous k-NN answers (the [`ipac`] recursion
//!   without the band stop) and the crisp-vs-uncertain Top-k semantics
//!   comparison (the §7 Top-k item);
//! * [`oracle`] — brute-force dense-sampling references for the tests.
//!
//! The within-distance / NN probability machinery the semantics rest on
//! (Eq. 3–7, Theorem 1) lives in the `unn-prob` substrate; trajectories,
//! difference transforms, and workloads live in `unn-traj`.
//!
//! ## Kernel architecture: batch → evaluate → scatter
//!
//! Every Eq. 5 probability column — threshold sweeps, forward row
//! subscriptions, RNN perspective rows, IPAC annotation — is produced by
//! one shared evaluator, the [`kernel::ColumnKernel`]:
//!
//! ```text
//!   dirty probe columns of a maintenance round
//!        │ gather: (owner, distance) work items, flat arrays
//!        ▼
//!   ColumnBatch ──► ColumnKernel::evaluate ──► flat P^NN values
//!        │    ProfiledPdf (tabulated P^WD/pdf^WD,       │
//!        │    no dyn dispatch, shared scratch)          │ scatter
//!        │              ▲ │                             │
//!        │   column k's │ │ column k's blocks           │
//!        │   last blocks│ ▼ (from its 2nd evaluation)   │
//!        │    memo: one BlockList per probe index       │
//!        ▼                                              ▼
//!   provenance (which owners fed column k)      ProbRowSet columns
//! ```
//!
//! The kernel evaluates through a [`unn_prob::profile::ProfiledPdf`] —
//! the difference pdf profiled once into dense radial tables — so the
//! inner loops are table-lerps and multiply-adds over
//! structure-of-arrays scratch, not virtual `density()` calls under
//! adaptive quadrature. A kernel that is kept (a threshold share keeps
//! one across commits) also remembers each probe column's quadrature
//! blocks and copies every block whose inputs did not change; the bits
//! are those of a cold evaluation either way ([`kernel`], "Memo").

#![warn(missing_docs)]

pub mod algorithms;
pub mod answer;
pub mod band;
pub mod candidates;
pub mod env2;
pub mod envelope;
pub mod hetero;
pub mod ipac;
pub mod kernel;
pub mod keyed;
pub mod merge;
pub mod naive;
pub mod oracle;
pub mod probrows;
pub mod query;
pub mod reverse;
pub mod shifted;
pub mod threshold;
pub mod topk;

pub use algorithms::{lower_envelope, lower_envelope_parallel};
pub use answer::{AnswerDelta, AnswerEntry, AnswerSet};
pub use band::{
    band_clearance, enters_band, inside_band_intervals, prune_by_band, prune_by_band_heterogeneous,
    BandStats,
};
pub use candidates::CandidateSet;
pub use envelope::{Envelope, EnvelopeBuilder, EnvelopePiece};
pub use hetero::{HeteroCandidate, HeteroEngine, HeteroStats};
pub use ipac::{
    annotate_probabilities, build_ipac_tree, Descriptor, IpacConfig, IpacNode, IpacTree,
};
pub use kernel::{ColumnBatch, ColumnKernel};
pub use naive::lower_envelope_naive;
pub use probrows::{ProbRow, ProbRowDelta, ProbRowSet, RowPerspective};
pub use query::{Quantifier, QueryEngine};
pub use reverse::{all_pairs_nn, PairAnswer, ReverseNnEngine};
pub use shifted::{shifted_lower_envelope, ShiftedEnvelope, ShiftedFunction};
pub use threshold::probability_at_kernel;
pub use topk::{continuous_knn, probabilistic_topk_at, semantics_agreement, KnnAnswer, KnnCell};
