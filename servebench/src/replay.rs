//! The in-process replays of the session script.
//!
//! * **Replay A** sends every request line through `Request::decode`,
//!   `SearchService::handle` and `Response::encode`, driven by the same
//!   client logic as the TCP run.
//! * **Replay B** drives `Session` directly. Before each mutating call
//!   it makes a shadow call with the inputs the session is about to
//!   use (`VectorStore::top_k_budgeted` before `next_batch`,
//!   `QueryAligner::align_detailed` before `try_feedback`) and records
//!   whether the shadow reproduced the session's result.

use std::sync::Arc;
use std::time::Instant;

use seesaw_aligner::QueryAligner;
use seesaw_core::protocol::{MethodSpec, Request, Response};
use seesaw_core::{DatasetIndex, Method, SearchService, Session, SimulatedUser};
use seesaw_dataset::SyntheticDataset;
use seesaw_vecstore::VectorStore;

use crate::trace::Tracer;
use crate::workload::{Fault, Op, Plan, SessionClient, PROTOCOL};

/// What a session showed, in order, and whether each image was
/// relevant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shown {
    pub images: Vec<u32>,
    pub relevance: Vec<bool>,
}

pub struct ReplayA {
    /// Per script plan.
    pub sessions: Vec<Shown>,
    pub wall_s: f64,
    /// In-process time (decode + handle + encode) of each request, per
    /// plan, in request order (traced replays only).
    pub request_us: Vec<Vec<f64>>,
    pub response_bytes: Vec<f64>,
}

/// Replay A over the script's first pass, on a fresh service.
pub fn replay_a(
    dataset: &Arc<SyntheticDataset>,
    index: &Arc<DatasetIndex>,
    plans: &[Plan],
    tracer: &mut Tracer,
) -> Result<ReplayA, Fault> {
    let service = SearchService::new(Arc::clone(index), Arc::clone(dataset));
    let mut sessions = Vec::with_capacity(plans.len());
    let mut request_us = Vec::with_capacity(plans.len());
    let mut response_bytes = Vec::new();
    let mut request_id = 0u64;
    let t0 = Instant::now();
    for &plan in plans {
        let mut client = SessionClient::new(plan, dataset);
        let mut times = Vec::new();
        let mut next = Some(client.first());
        while let Some(req) = next.take() {
            request_id += 1;
            let op = Op::of(&req);
            let tag = op.name();
            let line = req.encode();
            let root = tracer.id();
            let root_start = tracer.start();
            let id = tracer.id();
            let decoded = tracer.time(
                id,
                "protocol.decode",
                tag,
                Some(root),
                request_id,
                false,
                || Request::decode(&line),
            );
            let response = match decoded {
                Ok(request) => {
                    let id = tracer.id();
                    tracer.time(
                        id,
                        "service.handle",
                        tag,
                        Some(root),
                        request_id,
                        false,
                        || service.handle(request),
                    )
                }
                Err(e) => Response::Error {
                    code: seesaw_core::ErrorCode::Protocol,
                    message: e.to_string(),
                },
            };
            let id = tracer.id();
            let reply = tracer.time(
                id,
                "protocol.encode",
                tag,
                Some(root),
                request_id,
                false,
                || response.encode(),
            );
            times.push(tracer.end(
                root_start,
                root,
                "replay.request",
                tag,
                None,
                request_id,
                false,
            ));
            response_bytes.push(reply.len() as f64);
            next = client.on_reply(&reply)?;
        }
        request_us.push(times);
        sessions.push(Shown {
            images: client.shown,
            relevance: client.relevance,
        });
    }
    Ok(ReplayA {
        sessions,
        wall_s: t0.elapsed().as_secs_f64(),
        request_us,
        response_bytes,
    })
}

/// Shadow-call results and counts from replay B.
#[derive(Default)]
pub struct ReplayB {
    /// Per script plan.
    pub sessions: Vec<Shown>,
    /// Spans before this index belong to the script; later ones to the
    /// method sweep.
    pub script_spans: usize,
    pub top_k_match: Vec<bool>,
    /// Lookup budget over store rows, per shadow lookup.
    pub budget_over_rows: Vec<f64>,
    pub align: Vec<AlignShadow>,
}

pub struct AlignShadow {
    pub examples: usize,
    pub iterations: usize,
    pub converged: bool,
    pub matched: bool,
}

/// Replay B over the script's first pass, then — for every Table 6
/// method the script does not use — one session per benchmark query of
/// the workload (the method sweep behind the per-method metrics).
pub fn replay_b(
    dataset: &Arc<SyntheticDataset>,
    index: &Arc<DatasetIndex>,
    plans: &[Plan],
    tracer: &mut Tracer,
) -> Result<ReplayB, Fault> {
    let mut out = ReplayB::default();
    let mut request = 0u64;
    for &plan in plans {
        let shown = session_b(dataset, index, plan, tracer, &mut out, &mut request)?;
        out.sessions.push(shown);
    }
    out.script_spans = tracer.spans.len();
    let concepts: Vec<u32> = plans
        .iter()
        .map(|p| p.concept)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for method in crate::workload::TABLE6_METHODS {
        if plans.iter().any(|p| p.method == method) {
            continue;
        }
        for &concept in &concepts {
            let plan = Plan {
                concept,
                method,
                abandon: false,
            };
            let mut sweep = ReplayB::default();
            session_b(dataset, index, plan, tracer, &mut sweep, &mut request)?;
        }
    }
    Ok(out)
}

fn session_b(
    dataset: &Arc<SyntheticDataset>,
    index: &Arc<DatasetIndex>,
    plan: Plan,
    tracer: &mut Tracer,
    out: &mut ReplayB,
    request: &mut u64,
) -> Result<Shown, Fault> {
    let method = plan.method.name();
    let config = plan.method.to_config();
    let search_k = config.search_k;
    let aligner_cfg = match &config.method {
        Method::SeeSaw(cfg) => Some(cfg.clone()),
        _ => None,
    };
    let is_ens = matches!(plan.method, MethodSpec::Ens { .. });
    *request += 1;
    let id = tracer.id();
    let mut session = tracer.time(id, "session.start", method, None, *request, false, || {
        Session::start(index, dataset, plan.concept, config)
    });
    // The shadow aligner is set up the way the session sets up its own.
    let aligner = aligner_cfg.map(|cfg| {
        let use_md = cfg.lambda_d > 0.0;
        let mut a = QueryAligner::new(session.q0(), cfg);
        if use_md {
            if let Some(md) = &index.m_d {
                a = a.with_db_matrix(md.clone());
            }
        }
        a
    });
    let user = SimulatedUser::new(dataset);
    let per_image = (index.n_patches() / index.n_images().max(1)).max(1);
    let k = (1 + 4) * per_image + 16;
    let budget = search_k.max(2 * k);
    let mut seen = vec![false; index.n_images()];
    let mut any_positive = false;
    let mut ex_patches: Vec<u32> = Vec::new();
    let mut ex_labels: Vec<bool> = Vec::new();
    let mut ex_weights: Vec<f32> = Vec::new();
    let mut shown = Shown {
        images: Vec::new(),
        relevance: Vec::new(),
    };
    loop {
        let found = shown.relevance.iter().filter(|&&r| r).count();
        if PROTOCOL.should_stop(shown.relevance.len(), found) {
            break;
        }
        *request += 1;
        let op = tracer.id();
        // Shadow lookup: ENS stops using the store once it has a
        // positive; every other next_batch ranks through it.
        let shadow_image = if is_ens && any_positive {
            None
        } else {
            let id = tracer.id();
            let hits = tracer.time(
                id,
                "vecstore.top_k_budgeted",
                method,
                Some(op),
                *request,
                true,
                || {
                    index
                        .store
                        .top_k_budgeted(session.current_query(), k, budget, &|p| {
                            !seen[index.patches[p as usize].image as usize]
                        })
                },
            );
            out.budget_over_rows
                .push(budget as f64 / index.store.len() as f64);
            Some(hits.first().map(|h| index.patches[h.id as usize].image))
        };
        let batch = tracer.time(
            op,
            "session.next_batch",
            method,
            None,
            *request,
            false,
            || session.next_batch(1),
        );
        let Some(&image) = batch.first() else { break };
        if let Some(s) = shadow_image {
            out.top_k_match.push(s == Some(image));
        }
        if seen[image as usize] {
            return Err(Fault::RepeatedImage { image });
        }
        seen[image as usize] = true;
        let fb = user.annotate(image, plan.concept);
        let relevant = fb.relevant;

        // Rebuild the session's example set from public index data: the
        // image's patches, labelled by the boxes that were sent.
        let range = index.patches_of(image);
        let labels: Vec<bool> = range
            .clone()
            .map(|p| {
                let meta = &index.patches[p as usize];
                if index.multiscale {
                    fb.boxes.iter().any(|b| meta.bbox.overlaps(b))
                } else {
                    relevant
                }
            })
            .collect();
        let n_pos = labels.iter().filter(|&&l| l).count().max(1) as f32;
        let n_neg = labels.iter().filter(|&&l| !l).count().max(1) as f32;
        for (p, label) in range.zip(labels) {
            ex_patches.push(p);
            ex_labels.push(label);
            ex_weights.push(if label { 1.0 / n_pos } else { 1.0 / n_neg });
        }
        any_positive |= relevant;

        *request += 1;
        let op = tracer.id();
        let shadow_query = match &aligner {
            Some(a) if any_positive || a.config().lambda_c > 0.0 => {
                let examples: Vec<&[f32]> =
                    ex_patches.iter().map(|&p| index.patch_vector(p)).collect();
                let id = tracer.id();
                let outcome = tracer.time(
                    id,
                    "aligner.align_detailed",
                    method,
                    Some(op),
                    *request,
                    true,
                    || a.align_detailed(&examples, &ex_labels, Some(&ex_weights)),
                );
                Some(outcome)
            }
            _ => None,
        };
        let accepted = tracer.time(
            op,
            "session.try_feedback",
            method,
            None,
            *request,
            false,
            || session.try_feedback(fb),
        );
        if !accepted {
            return Err(Fault::WrongReplyType {
                op: Op::Feedback,
                reply: format!("try_feedback refused image {image}"),
            });
        }
        if let Some(outcome) = shadow_query {
            let matched = outcome.query.len() == session.current_query().len()
                && outcome
                    .query
                    .iter()
                    .zip(session.current_query())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            out.align.push(AlignShadow {
                examples: ex_patches.len(),
                iterations: outcome.iterations,
                converged: outcome.converged,
                matched,
            });
        }
        shown.images.push(image);
        shown.relevance.push(relevant);
    }
    Ok(shown)
}
