//! Relay request-path parity: every single verb (`submit`, `status`,
//! `result`, `cancel`) must answer exactly like the sole item of its
//! batch-of-one twin, for every outcome the relay can reach — and a
//! single-verb job whose owner dies in flight must still reach exactly
//! one terminal result, bit-identical to the in-process run.
//!
//! Each shape drives the same script of requests through
//! `handle_relay_request` over a fresh two-backend cluster, so relay
//! tickets, ring owners and backend dispositions line up step by step.
//! The only differences allowed are the verb label carried by errors
//! and the timing fields (`queue_ns`, `run_ns`, `depth`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_obs::ObsSink;
use ra_serve::cluster::{handle_relay_request, BackendPool, Relay, RelayConfig, RelayServer};
use ra_serve::{
    ErrorCode, HealthPolicy, JobService, JobSpec, Request, Response, ServeConfig, ServerHandle,
    SubmitItem, WireServer,
};

const SPEC: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";
/// Long enough that a 1 ms `result` wait times out, short enough to
/// finish well before the script moves on.
const SLOW_SPEC: &str = "target=4x4 app=water mode=fixed:10 instructions=40000 budget=100000000";
/// Still running when its owner is stopped a moment after submission.
const INFLIGHT_SPEC: &str =
    "target=4x4 app=water mode=fixed:10 instructions=100000 budget=1000000000";

fn backend() -> ServerHandle {
    let service = JobService::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ObsSink::disabled(),
    )
    .expect("service starts");
    WireServer::bind("127.0.0.1:0", service)
        .expect("bind backend")
        .spawn()
        .expect("spawn backend")
}

/// Two live backends behind a probing relay; requests are driven through
/// `handle_relay_request` directly with the test's own backend pool.
struct Cluster {
    backends: Vec<Option<ServerHandle>>,
    _relay: ra_serve::RelayHandle,
    state: Arc<Relay>,
    pool: BackendPool,
}

impl Cluster {
    fn start() -> Cluster {
        let backends = vec![Some(backend()), Some(backend())];
        let config = RelayConfig {
            backends: backends
                .iter()
                .flatten()
                .map(|b| b.addr().to_string())
                .collect(),
            health: HealthPolicy {
                probe_interval: Duration::from_millis(50),
                probe_timeout: Duration::from_secs(1),
                fail_threshold: 3,
                recover_threshold: 1,
            },
            forward_deadline: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(5),
            ..RelayConfig::default()
        };
        let relay = RelayServer::bind(
            "127.0.0.1:0",
            Relay::new(config, ObsSink::disabled()).expect("relay config"),
        )
        .expect("bind relay")
        .spawn()
        .expect("spawn relay");
        let state = relay.relay();
        let pool = BackendPool::new(&state);
        Cluster {
            backends,
            _relay: relay,
            state,
            pool,
        }
    }

    fn call(&mut self, request: &Request) -> Response {
        handle_relay_request(&self.state, &mut self.pool, request)
    }

    /// Stops backend `node` and waits for the relay's probes to mark it
    /// down.
    fn stop_backend(&mut self, node: usize) {
        if let Some(handle) = self.backends[node].take() {
            handle.stop();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.state.node_state(node).routes() {
            assert!(Instant::now() < deadline, "node {node} never went down");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Single,
    BatchOfOne,
}

/// Sends a single-verb request either as itself or as its batch-of-one
/// twin, returning the single reply or the batch's sole item. `cancel`
/// has no batch verb, so both shapes send it as is.
fn send(cluster: &mut Cluster, shape: Shape, request: Request) -> Response {
    let request = match (shape, request) {
        (Shape::BatchOfOne, Request::Submit(item)) => Request::SubmitBatch(vec![item]),
        (Shape::BatchOfOne, Request::Status { ticket }) => Request::StatusBatch {
            tickets: vec![ticket],
        },
        (Shape::BatchOfOne, Request::Result { ticket, timeout_ms }) => Request::ResultBatch {
            tickets: vec![ticket],
            timeout_ms,
        },
        (_, request) => return cluster.call(&request),
    };
    match cluster.call(&request) {
        Response::Batch(mut items) => {
            assert_eq!(items.len(), 1, "a batch of one answers one item");
            items.pop().expect("one item")
        }
        other => panic!("{shape:?}: a batch request got {other:?}"),
    }
}

/// Strips what may legitimately differ between the two shapes.
fn normalize(response: Response) -> Response {
    match response {
        Response::Error(mut err) => {
            err.verb = err.verb.trim_end_matches("_batch").to_owned();
            Response::Error(err)
        }
        Response::Outcome(mut ok) => {
            ok.queue_ns = None;
            ok.run_ns = None;
            Response::Outcome(ok)
        }
        Response::Submit(mut ok) => {
            ok.depth = 0;
            Response::Submit(ok)
        }
        other => other,
    }
}

/// A coarse label for the outcome class a step must reach.
fn class(response: &Response) -> String {
    match response {
        Response::Submit(ok) if ok.edge => format!("submit:edge_{}", ok.disposition),
        Response::Submit(ok) => format!("submit:{}", ok.disposition),
        Response::Status { state } => format!("status:{state}"),
        Response::Outcome(ok) => format!("outcome:{}", ok.outcome),
        Response::Cancel { cancel } => format!("cancel:{cancel}"),
        Response::Error(err) => format!("error:{}", err.code.as_str()),
        other => format!("other:{other:?}"),
    }
}

/// One scripted request. Ticket-addressed ops name the step whose submit
/// minted the ticket.
enum Op {
    Submit(&'static str),
    Status(usize),
    /// Polls `status` until the job is done, keeping the last reply.
    StatusDone(usize),
    Result(usize, u64),
    Cancel(usize),
    StatusRaw(u64),
    ResultRaw(u64),
    CancelRaw(u64),
    /// Stops every backend and waits until the relay sees them down.
    StopBackends,
}

const UNKNOWN: u64 = 987_654_321;

/// `(label, op, expected outcome class)`, run in order.
fn script() -> Vec<(&'static str, Op, &'static str)> {
    vec![
        ("fresh submit", Op::Submit(SPEC), "submit:enqueued"),
        (
            "status of a finished job",
            Op::StatusDone(0),
            "status:completed",
        ),
        ("result ok", Op::Result(0, 30_000), "outcome:completed"),
        ("edge-cache hit", Op::Submit(SPEC), "submit:edge_cached"),
        ("edge ticket status", Op::Status(3), "status:done"),
        ("edge ticket cancel", Op::Cancel(3), "cancel:already_done"),
        (
            "edge ticket result",
            Op::Result(3, 30_000),
            "outcome:completed",
        ),
        (
            "bad spec",
            Op::Submit("target=4x4 app=water mode=warp"),
            "error:bad_spec",
        ),
        (
            "unknown ticket status",
            Op::StatusRaw(UNKNOWN),
            "error:unknown_ticket",
        ),
        (
            "unknown ticket result",
            Op::ResultRaw(UNKNOWN),
            "error:unknown_ticket",
        ),
        (
            "unknown ticket cancel",
            Op::CancelRaw(UNKNOWN),
            "error:unknown_ticket",
        ),
        ("slow submit", Op::Submit(SLOW_SPEC), "submit:enqueued"),
        ("result timeout", Op::Result(11, 1), "error:timeout"),
        ("slow result", Op::Result(11, 60_000), "outcome:completed"),
        (
            "second fresh submit",
            Op::Submit("target=2x2 app=water mode=fixed:10 instructions=20 budget=100000 seed=7"),
            "submit:enqueued",
        ),
        (
            "status of a second finished job",
            Op::StatusDone(14),
            "status:completed",
        ),
        (
            "cancel a finished job",
            Op::Cancel(14),
            "cancel:already_done",
        ),
        ("all backends stopped", Op::StopBackends, "stopped"),
        (
            "submit with no backend",
            Op::Submit("target=2x2 app=water mode=fixed:10 instructions=20 budget=100000 seed=8"),
            "error:no_backend",
        ),
        ("status with no backend", Op::Status(14), "error:no_backend"),
        (
            "result with no backend",
            Op::Result(14, 1_000),
            "error:no_backend",
        ),
        ("cancel with no backend", Op::Cancel(14), "error:no_backend"),
    ]
}

fn run_script(shape: Shape) -> Vec<Response> {
    let mut cluster = Cluster::start();
    let mut replies: Vec<Response> = Vec::new();
    let ticket_of = |replies: &[Response], step: usize| match &replies[step] {
        Response::Submit(ok) => ok.ticket,
        other => panic!("step {step} minted no ticket: {other:?}"),
    };
    for (label, op, expected) in script() {
        let reply = match op {
            Op::Submit(spec) => send(&mut cluster, shape, Request::Submit(SubmitItem::new(spec))),
            Op::Status(step) => {
                let ticket = ticket_of(&replies, step);
                send(&mut cluster, shape, Request::Status { ticket })
            }
            Op::StatusDone(step) => {
                let ticket = ticket_of(&replies, step);
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let reply = send(&mut cluster, shape, Request::Status { ticket });
                    if class(&reply) != "status:queued" && class(&reply) != "status:running"
                        || Instant::now() > deadline
                    {
                        break reply;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Op::Result(step, timeout_ms) => {
                let ticket = ticket_of(&replies, step);
                let request = Request::Result {
                    ticket,
                    timeout_ms: Some(timeout_ms),
                };
                send(&mut cluster, shape, request)
            }
            Op::Cancel(step) => {
                let ticket = ticket_of(&replies, step);
                send(&mut cluster, shape, Request::Cancel { ticket })
            }
            Op::StatusRaw(ticket) => send(&mut cluster, shape, Request::Status { ticket }),
            Op::ResultRaw(ticket) => {
                let request = Request::Result {
                    ticket,
                    timeout_ms: Some(1_000),
                };
                send(&mut cluster, shape, request)
            }
            Op::CancelRaw(ticket) => send(&mut cluster, shape, Request::Cancel { ticket }),
            Op::StopBackends => {
                for node in 0..cluster.backends.len() {
                    cluster.stop_backend(node);
                }
                Response::Status {
                    state: "stopped".into(),
                }
            }
        };
        let got = class(&reply).replace("status:stopped", "stopped");
        assert_eq!(got, expected, "{shape:?} step `{label}`: {reply:?}");
        replies.push(reply);
    }
    replies
}

#[test]
fn single_verbs_answer_like_their_batch_of_one_twins() {
    let single = run_script(Shape::Single);
    let batched = run_script(Shape::BatchOfOne);
    for (((label, _, _), one), twin) in script().iter().zip(single).zip(batched) {
        if let Response::Error(err) = &one {
            assert!(
                !err.verb.ends_with("_batch"),
                "step `{label}`: a single verb's error must carry the single verb: {err:?}"
            );
        }
        assert_eq!(
            normalize(one),
            normalize(twin),
            "step `{label}`: single and batch-of-one replies differ"
        );
    }
}

#[test]
fn a_single_verb_job_survives_its_owner_dying_in_flight() {
    let mut cluster = Cluster::start();
    let submitted = cluster.call(&Request::Submit(SubmitItem::new(INFLIGHT_SPEC)));
    let Response::Submit(ok) = submitted else {
        panic!("{submitted:?}");
    };
    let owner = ok.node.expect("relay submits name the owner") as usize;
    cluster.stop_backend(owner);

    let request = Request::Result {
        ticket: ok.ticket,
        timeout_ms: Some(60_000),
    };
    let outcome = cluster.call(&request);
    let Response::Outcome(done) = &outcome else {
        panic!("the in-flight job must reach a terminal result: {outcome:?}");
    };
    assert!(
        matches!(done.outcome.as_str(), "completed" | "cached"),
        "{outcome:?}"
    );
    let body = done
        .body
        .as_ref()
        .expect("a completed result carries a body");

    let spec: JobSpec = INFLIGHT_SPEC.parse().expect("spec parses");
    let direct = spec.to_run_spec().run().expect("in-process run");
    assert_eq!(body.workload, direct.workload);
    assert_eq!(body.mode, direct.mode);
    assert_eq!(body.cycles, direct.cycles);
    assert_eq!(body.messages, direct.messages);
    assert_eq!(body.ipc.to_bits(), direct.ipc.to_bits());
    assert_eq!(body.latency_mean.to_bits(), direct.latency.mean().to_bits());
    assert_eq!(body.latency_count, direct.latency.count());
    assert_eq!(body.calibrations, direct.calibrations);

    // Exactly one terminal result: the ticket is spent once collected.
    let again = cluster.call(&request);
    assert!(
        matches!(&again, Response::Error(err) if err.code == ErrorCode::UnknownTicket),
        "a collected ticket must not answer twice: {again:?}"
    );
    assert!(
        cluster.state.stats().reroutes >= 1,
        "the owner's death must re-route the job"
    );
}
