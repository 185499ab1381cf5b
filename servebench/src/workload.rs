//! The workloads, the seeded session script each one runs, and
//! the client-side session logic shared by the TCP run and replay A.

use seesaw_core::protocol::{MethodSpec, Request, Response};
use seesaw_core::{Feedback, ImageId, PreprocessConfig, SimulatedUser};
use seesaw_dataset::{DatasetSpec, SyntheticDataset};
use seesaw_metrics::BenchmarkProtocol;

/// How a workload's index comes into being before serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// `Preprocessor::build` on the generated dataset.
    Build,
    /// `load_index` of a file written by `save_index` before timing
    /// (the `serve --index` cold start).
    Load,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Scale of `DatasetSpec::coco_like`.
    pub scale: f64,
    /// Benchmark queries (in the dataset's order) the script draws on.
    pub queries: usize,
    pub setup: Setup,
    /// Seeded share of sessions that end without `stats` or `close`.
    pub abandon_frac: f64,
    pub methods: &'static [MethodSpec],
}

/// Client connections, each driven by its own client thread running one
/// session at a time.
pub const CONNECTIONS: usize = 2;

/// Dataset generation seed: the corpus is the same for every run (and
/// the one `serve` ships); only the session script follows `--seed`.
pub const DATASET_SEED: u64 = 7;

/// The Table 6 methods, as `coldstart-churn` rotates over them.
pub const TABLE6_METHODS: [MethodSpec; 4] = [
    MethodSpec::ZeroShot,
    MethodSpec::Rocchio,
    MethodSpec::Ens { horizon: 60 },
    MethodSpec::SeeSaw,
];

/// Every session's stop rule, §5.1: 10 found or 60 shown.
pub const PROTOCOL: BenchmarkProtocol = BenchmarkProtocol {
    target_results: 10,
    image_budget: 60,
};

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-forest",
            scale: 0.002,
            queries: 16,
            setup: Setup::Build,
            abandon_frac: 0.0,
            methods: &[MethodSpec::SeeSaw],
        },
        Workload {
            name: "coldstart-churn",
            scale: 0.01,
            queries: 12,
            setup: Setup::Load,
            abandon_frac: 0.25,
            methods: &TABLE6_METHODS,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn dataset(&self) -> SyntheticDataset {
        DatasetSpec::coco_like(self.scale).generate(DATASET_SEED)
    }

    /// Short description of the store `PreprocessConfig::fast()` (what
    /// `serve` builds) gives every workload, for the run metadata.
    pub fn store_label(&self) -> String {
        let cfg = PreprocessConfig::fast();
        format!(
            "{}/{} search_k={}",
            cfg.store.backend_name(),
            cfg.store.precision().label(),
            MethodSpec::SeeSaw.to_config().search_k
        )
    }

    /// The seeded session script: every (query, method) pair of the
    /// workload once, in seeded order. Its size does not depend on the
    /// seed, so mean AP over it does not either.
    pub fn script(&self, dataset: &SyntheticDataset, seed: u64) -> Vec<Plan> {
        let mut rng = SplitMix::new(seed ^ 0x005e_e5a3);
        let concepts: Vec<u32> = dataset
            .queries()
            .iter()
            .take(self.queries)
            .map(|q| q.concept)
            .collect();
        let mut plans: Vec<Plan> = concepts
            .iter()
            .flat_map(|&concept| {
                self.methods.iter().map(move |&method| Plan {
                    concept,
                    method,
                    abandon: false,
                })
            })
            .collect();
        rng.shuffle(&mut plans);
        let n_abandon = (self.abandon_frac * plans.len() as f64).round() as usize;
        let mut order: Vec<usize> = (0..plans.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order[..n_abandon] {
            plans[i].abandon = true;
        }
        plans
    }
}

/// One session of the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    pub concept: u32,
    pub method: MethodSpec,
    /// Walk away after the stop rule fires: no `stats`, no `close`.
    pub abandon: bool,
}

/// The request kinds, for per-kind latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Create,
    NextBatch,
    Feedback,
    Stats,
    Close,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::NextBatch => "next_batch",
            Op::Feedback => "feedback",
            Op::Stats => "stats",
            Op::Close => "close",
        }
    }

    pub fn of(request: &Request) -> Op {
        match request {
            Request::Create { .. } => Op::Create,
            Request::NextBatch { .. } => Op::NextBatch,
            Request::Feedback { .. } => Op::Feedback,
            Request::Stats { .. } => Op::Stats,
            Request::Close { .. } => Op::Close,
        }
    }
}

/// Why a session stopped early or a run must fail.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The server answered with an error (an `overloaded` shed
    /// included): counted in `failed`, not a correctness failure.
    ServerError { op: Op, reply: String },
    /// No reply (connection closed or timed out).
    Missing { op: Op, reason: String },
    /// The reply decoded to the wrong variant for the request.
    WrongReplyType { op: Op, reply: String },
    /// The session showed an image it had already shown.
    RepeatedImage { image: ImageId },
    /// `stats` disagreed with what the client saw.
    StatsMismatch { got: (u64, u64), want: (u64, u64) },
}

impl Fault {
    /// Faults that fail the run outright rather than count as a failed
    /// request.
    pub fn is_correctness(&self) -> bool {
        !matches!(self, Fault::ServerError { .. } | Fault::Missing { .. })
    }

    pub fn describe(&self) -> String {
        match self {
            Fault::ServerError { op, reply } => format!("server_error on {}: {reply}", op.name()),
            Fault::Missing { op, reason } => format!("missing_reply on {}: {reason}", op.name()),
            Fault::WrongReplyType { op, reply } => {
                format!("wrong_reply_type on {}: {reply}", op.name())
            }
            Fault::RepeatedImage { image } => format!("repeated_image: image {image} shown twice"),
            Fault::StatsMismatch { got, want } => format!(
                "stats_mismatch: server reports (shown, feedback) = {got:?}, client saw {want:?}"
            ),
        }
    }
}

/// The client side of one session: given each reply, the next request.
/// The same logic drives the TCP run and replay A, so both send the
/// same request sequence.
pub struct SessionClient<'a> {
    plan: Plan,
    user: SimulatedUser<'a>,
    session: u64,
    pub shown: Vec<ImageId>,
    pub relevance: Vec<bool>,
    feedbacks: u64,
    pending: Option<Feedback>,
    last: Op,
    done: bool,
}

impl<'a> SessionClient<'a> {
    pub fn new(plan: Plan, dataset: &'a SyntheticDataset) -> Self {
        Self {
            plan,
            user: SimulatedUser::new(dataset),
            session: 0,
            shown: Vec::new(),
            relevance: Vec::new(),
            feedbacks: 0,
            pending: None,
            last: Op::Create,
            done: false,
        }
    }

    /// The opening `create`.
    pub fn first(&mut self) -> Request {
        self.last = Op::Create;
        Request::Create {
            concept: self.plan.concept,
            method: self.plan.method,
            search_k: None,
        }
    }

    fn next_batch(&mut self) -> Request {
        self.last = Op::NextBatch;
        Request::NextBatch {
            session: self.session,
            n: 1,
        }
    }

    fn finish(&mut self) -> Option<Request> {
        if self.plan.abandon {
            self.done = true;
            return None;
        }
        self.last = Op::Stats;
        Some(Request::Stats {
            session: self.session,
        })
    }

    /// Consume the reply to the last request; `Ok(None)` ends the
    /// session.
    pub fn on_reply(&mut self, line: &str) -> Result<Option<Request>, Fault> {
        let op = self.last;
        let reply = match Response::decode(line) {
            Ok(Response::Error { .. }) => {
                return Err(Fault::ServerError {
                    op,
                    reply: line.to_string(),
                })
            }
            Ok(r) => r,
            Err(_) => {
                return Err(Fault::WrongReplyType {
                    op,
                    reply: line.to_string(),
                })
            }
        };
        let wrong = || Fault::WrongReplyType {
            op,
            reply: line.to_string(),
        };
        match (op, reply) {
            (Op::Create, Response::Created { session }) => {
                self.session = session;
                Ok(Some(self.next_batch()))
            }
            (Op::NextBatch, Response::Batch { images }) => {
                let [image] = images[..] else {
                    return Err(wrong());
                };
                if self.shown.contains(&image) {
                    return Err(Fault::RepeatedImage { image });
                }
                self.shown.push(image);
                let fb = self.user.annotate(image, self.plan.concept);
                self.last = Op::Feedback;
                let request = Request::Feedback {
                    session: self.session,
                    image,
                    relevant: fb.relevant,
                    boxes: fb.boxes.clone(),
                };
                self.pending = Some(fb);
                Ok(Some(request))
            }
            (Op::NextBatch, Response::Exhausted) => Ok(self.finish()),
            (Op::Feedback, Response::Ack) => {
                let fb = self.pending.take().ok_or_else(wrong)?;
                self.relevance.push(fb.relevant);
                self.feedbacks += 1;
                let found = self.relevance.iter().filter(|&&r| r).count();
                if PROTOCOL.should_stop(self.relevance.len(), found) {
                    Ok(self.finish())
                } else {
                    Ok(Some(self.next_batch()))
                }
            }
            (
                Op::Stats,
                Response::Stats {
                    images_shown,
                    feedback_received,
                    ..
                },
            ) => {
                let want = (self.shown.len() as u64, self.feedbacks);
                if (images_shown, feedback_received) != want {
                    return Err(Fault::StatsMismatch {
                        got: (images_shown, feedback_received),
                        want,
                    });
                }
                self.last = Op::Close;
                Ok(Some(Request::Close {
                    session: self.session,
                }))
            }
            (Op::Close, Response::Ack) => {
                self.done = true;
                Ok(None)
            }
            _ => Err(wrong()),
        }
    }
}

/// splitmix64: the benchmark's own seeded generator, so scripts do not
/// change when a dependency's generator does.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}
