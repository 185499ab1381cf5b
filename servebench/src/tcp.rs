//! The timed run: set-up, then load over loopback TCP against the real
//! `Server`, observed from the client side.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seesaw_core::protocol::MethodSpec;
use seesaw_core::{load_index, DatasetIndex, PreprocessConfig, Preprocessor, SearchService};
use seesaw_dataset::SyntheticDataset;
use seesaw_server::{Client, Server, ServerConfig};

use crate::trace::Tracer;
use crate::workload::{Fault, Op, Plan, SessionClient, Setup, Workload, CONNECTIONS};

/// How long a reply may take before it counts as missing; a failed
/// request is recorded with this latency, so it misses every limit.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Load runs this long before the measurement window opens, so the
/// window sees warm caches and connections that are already accepted.
pub const WARMUP_S: f64 = 2.0;

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub op: Op,
    /// When the request was written, in seconds from the start of load.
    pub sent_s: f64,
    /// When its reply arrived, in seconds from the start of load.
    pub done_s: f64,
    /// Round trip, from writing the request to reading its reply, in
    /// seconds.
    pub latency_s: f64,
    pub ok: bool,
}

/// One session of the TCP run.
#[derive(Debug)]
pub struct SessionRecord {
    /// Index into the script.
    pub plan: usize,
    /// 0 for the first pass over the script.
    pub pass: usize,
    pub shown: Vec<u32>,
    pub relevance: Vec<bool>,
    pub requests: Vec<Timed>,
    pub fault: Option<Fault>,
}

/// Everything the timed phase observed.
pub struct TcpRun {
    pub sessions: Vec<SessionRecord>,
    /// The measurement window: requests written in
    /// `[warmup_s, warmup_s + window_s)` are the latency sample, replies
    /// that arrive in it the throughput. Sessions running at its end
    /// finish outside it, unmeasured.
    pub warmup_s: f64,
    pub window_s: f64,
    /// Largest `SearchService::live_sessions` seen after a `create`
    /// (sampled only when tracing).
    pub live_max: usize,
}

/// A running server and what it serves.
pub struct Served {
    pub server: Server,
    pub service: Arc<SearchService>,
    pub index: Arc<DatasetIndex>,
}

/// One set-up, from the generated dataset in hand to the first answered
/// request: build (or load) the index, create the service, bind the
/// server, and wait for the reply to a `create`. Returns the seconds it
/// took. Spans are recorded when `tracer` is enabled.
pub fn set_up(
    wl: &Workload,
    dataset: &Arc<SyntheticDataset>,
    index_file: &Path,
    probe_concept: u32,
    tracer: &mut Tracer,
) -> Result<(Served, f64), String> {
    let cfg = PreprocessConfig::fast();
    let t0 = Instant::now();
    let index = match wl.setup {
        Setup::Build => {
            let id = tracer.id();
            tracer.time(id, "preprocess.build", wl.name, None, 0, false, || {
                Preprocessor::new(cfg.clone()).build(dataset)
            })
        }
        Setup::Load => {
            let id = tracer.id();
            tracer
                .time(id, "persist.load_index", wl.name, None, 0, false, || {
                    load_index(index_file, &cfg)
                })
                .map_err(|e| format!("load_index {}: {e}", index_file.display()))?
        }
    };
    let service = Arc::new(SearchService::new(Arc::clone(&index), Arc::clone(dataset)));
    let id = tracer.id();
    let server = tracer
        .time(id, "server.bind", wl.name, None, 0, false, || {
            Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        })
        .map_err(|e| format!("bind: {e}"))?;
    let mut probe = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    probe
        .set_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let session = probe
        .create(probe_concept, MethodSpec::ZeroShot, None)
        .map_err(|e| format!("set-up probe create: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    probe
        .close(session)
        .map_err(|e| format!("set-up probe close: {e}"))?;
    Ok((
        Served {
            server,
            service,
            index,
        },
        seconds,
    ))
}

/// The order in which pass `pass` runs the script's sessions: the
/// script's own order first, then a fresh seeded permutation per pass.
pub fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if pass > 0 {
        crate::workload::SplitMix::new(seed ^ (pass as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
            .shuffle(&mut order);
    }
    order
}

/// The closed loop: one client thread per connection, each running one
/// session at a time and sending its next request as soon as the reply
/// is in. Sessions are handed out pass after pass over the script: the
/// whole first pass, then new ones only until the warm-up and the
/// window are over.
pub fn run(
    addr: SocketAddr,
    dataset: &SyntheticDataset,
    plans: &[Plan],
    seed: u64,
    seconds: f64,
    live: Option<&SearchService>,
) -> Result<TcpRun, String> {
    let seq = Sequence::new(plans.len(), seed);
    let next = AtomicUsize::new(0);
    let live_max = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_thread: Vec<Result<Vec<SessionRecord>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    client
                        .set_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= plans.len() && t0.elapsed().as_secs_f64() >= WARMUP_S + seconds {
                            break;
                        }
                        let (plan, pass) = seq.get(k);
                        let rec = session(
                            &mut client,
                            dataset,
                            plans[plan],
                            plan,
                            pass,
                            t0,
                            live,
                            &live_max,
                        );
                        let broken = matches!(rec.fault, Some(Fault::Missing { .. }));
                        out.push(rec);
                        if broken {
                            break;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut sessions = Vec::new();
    for r in per_thread {
        sessions.extend(r?);
    }
    Ok(TcpRun {
        sessions,
        warmup_s: WARMUP_S,
        window_s: seconds,
        live_max: live_max.into_inner(),
    })
}

/// A sequence of sessions: pass after pass over the script.
struct Sequence {
    n: usize,
    seed: u64,
    orders: Mutex<Vec<Vec<usize>>>,
}

impl Sequence {
    fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            seed,
            orders: Mutex::new(Vec::new()),
        }
    }

    /// (plan index, pass) of the `k`-th session.
    fn get(&self, k: usize) -> (usize, usize) {
        let pass = k / self.n;
        let mut orders = self.orders.lock().expect("sequence lock poisoned");
        while orders.len() <= pass {
            let p = orders.len();
            orders.push(pass_order(self.n, self.seed, p));
        }
        (orders[pass][k % self.n], pass)
    }
}

/// One session, request by request.
#[allow(clippy::too_many_arguments)]
fn session(
    client: &mut Client,
    dataset: &SyntheticDataset,
    plan: Plan,
    plan_idx: usize,
    pass: usize,
    t0: Instant,
    live: Option<&SearchService>,
    live_max: &AtomicUsize,
) -> SessionRecord {
    let mut sc = SessionClient::new(plan, dataset);
    let mut requests = Vec::new();
    let mut fault = None;
    let mut request = Some(sc.first());
    while let Some(req) = request.take() {
        let op = Op::of(&req);
        let line = req.encode();
        let t = Instant::now();
        let reply = client.send_line(&line).and_then(|()| client.recv_line());
        let done = Instant::now();
        let sent_s = (t - t0).as_secs_f64();
        let outcome = match reply {
            Ok(reply) => sc.on_reply(&reply),
            Err(e) => Err(Fault::Missing {
                op,
                reason: e.to_string(),
            }),
        };
        match outcome {
            Ok(next) => {
                requests.push(Timed {
                    op,
                    sent_s,
                    done_s: (done - t0).as_secs_f64(),
                    latency_s: (done - t).as_secs_f64(),
                    ok: true,
                });
                request = next;
                if op == Op::Create {
                    if let Some(service) = live {
                        live_max.fetch_max(service.live_sessions(), Ordering::Relaxed);
                    }
                }
            }
            Err(f) => {
                requests.push(failed(op, sent_s));
                fault = Some(f);
            }
        }
    }
    SessionRecord {
        plan: plan_idx,
        pass,
        shown: sc.shown,
        relevance: sc.relevance,
        requests,
        fault,
    }
}

fn failed(op: Op, sent_s: f64) -> Timed {
    let t = REPLY_TIMEOUT.as_secs_f64();
    Timed {
        op,
        sent_s,
        done_s: sent_s + t,
        latency_s: t,
        ok: false,
    }
}
