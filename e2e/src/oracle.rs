//! The reference every answer is compared with, bit for bit: a cold
//! `PrefilterPolicy::Exhaustive` evaluation computed in the driver.

use crate::script::{Standing, WINDOW};
use crate::span::Tracer;
use std::sync::Arc;
use unn_core::kernel::ColumnKernel;
use unn_geom::interval::TimeInterval;
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::{ModServer, QueryOutput};
use unn_modb::store::ModStore;
use unn_modb::subscription::{SubAnswer, PROB_ROW_SAMPLES};
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::{common_pdf_kind, UncertainTrajectory};

pub fn window() -> TimeInterval {
    TimeInterval::new(WINDOW.0, WINDOW.1)
}

/// A cold store holding `fleet`.
pub fn store_of(fleet: &[UncertainTrajectory]) -> Result<ModStore, String> {
    let store = ModStore::new();
    store
        .bulk_load(fleet.iter().cloned())
        .map_err(|e| format!("oracle load: {e}"))?;
    Ok(store)
}

/// A standing query evaluated from scratch, with what its plan looked at.
pub struct Cold {
    pub answer: SubAnswer,
    pub examined: usize,
    pub candidates: usize,
}

/// The cold pipeline of one standing query under `policy` — plan, engine
/// build, then intervals for `> 0` or sampled probability rows for a
/// positive threshold — each stage under its own span (free when the
/// tracer is off).
pub fn cold_answer(
    tracer: &mut Tracer,
    store: &ModStore,
    query: &Standing,
    policy: PrefilterPolicy,
) -> Result<Cold, String> {
    let snapshot = store.snapshot();
    let plan = tracer
        .span("plan.plan", |_| {
            QueryPlanner::new(policy).plan(Arc::clone(&snapshot), query.object, window())
        })
        .map_err(|e| format!("plan for Tr{}: {e}", query.object.0))?;
    let engine = tracer
        .span("core.engine_build", |_| plan.build_engine())
        .map_err(|e| format!("engine for Tr{}: {e}", query.object.0))?;
    let answer = if query.threshold > 0.0 {
        let kind = common_pdf_kind(&snapshot)
            .map_err(|e| format!("pdf: {e}"))?
            .ok_or("pdf: empty store")?;
        let kernel = ColumnKernel::from_profile(store.difference_model(&kind).profile);
        SubAnswer::Rows(tracer.span("core.kernel_rows", |_| {
            engine.prob_row_set_kernel(&kernel, PROB_ROW_SAMPLES)
        }))
    } else {
        SubAnswer::Intervals(tracer.span("core.answer_set", |_| engine.answer_set()))
    };
    Ok(Cold {
        answer,
        examined: plan.examined(),
        candidates: plan.candidate_count(),
    })
}

/// The answer a standing query must hold over the store's contents: the
/// cold pipeline under a fresh exhaustive plan.
pub fn standing_answer(store: &ModStore, query: &Standing) -> Result<SubAnswer, String> {
    cold_answer(
        &mut Tracer::new(false),
        store,
        query,
        PrefilterPolicy::Exhaustive,
    )
    .map(|cold| cold.answer)
}

/// A server that answers one-shot statements exhaustively.
pub fn exhaustive_server(fleet: &[UncertainTrajectory]) -> Result<ModServer, String> {
    let server = ModServer::with_policy(PrefilterPolicy::Exhaustive);
    server
        .register_all(fleet.iter().cloned())
        .map_err(|e| format!("oracle load: {e}"))?;
    Ok(server)
}

/// The `(oid, window fraction)` rows a one-shot `SELECT *` must return.
pub fn select_rows(server: &ModServer, statement: &str) -> Result<Vec<(Oid, f64)>, String> {
    match server.execute(statement) {
        Ok(QueryOutput::Objects(rows)) => Ok(rows),
        Ok(other) => Err(format!("oracle: unexpected output {other:?}")),
        Err(e) => Err(format!("oracle: {e}")),
    }
}

/// Bit-for-bit equality of two object listings (`==` on `f64` would let
/// `0.0 == -0.0` through and reject equal NaNs).
pub fn same_rows(a: &[(Oid, f64)], b: &[(Oid, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}
