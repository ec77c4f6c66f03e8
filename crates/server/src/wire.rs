//! The TCP front-end: length-prefixed frames over `std::net`, served by
//! the shared work-stealing scheduler.
//!
//! ## Protocol
//!
//! Every frame (see `sirup_core::frame`: `u32 LE` length + `crc32` + bytes)
//! carries one UTF-8 text payload. Client → server payloads are requests in
//! the `.sirupload` vocabulary:
//!
//! ```text
//! ping
//! list
//! load <name> <nodes>\n<op>\n<op>...      (ops are +P(n<i>[,n<j>]) inserts)
//! query pi|sigma|delta|delta+ <inst> = <atoms>
//! mutate <inst> = <op>, <op>, ...
//! stats <inst>
//! dump <inst>
//! remove <inst>
//! snapshot
//! tail <inst>
//! metrics
//! trace <min_us>
//! ```
//!
//! Server → client payloads start with `ok`, `answer`, `error`, or (pushed
//! on tailing connections) `op`:
//!
//! ```text
//! ok pong | ok instances a,b | ok loaded d nodes 5 atoms 7 | ok stats ...
//! ok metrics\n<prometheus text> | ok trace 2\nspan id=.. parent=.. ...
//! answer bool true | answer nodes n0,n3 | answer applied 2 seq 7
//! op <inst> <seq> = +T(n4),-R(n0,n1)
//! error <message>
//! ```
//!
//! `metrics` dumps the process-wide telemetry registry in Prometheus text
//! exposition; `trace <min_us>` returns every recent **root** span at
//! least `min_us` long together with its full child tree, one rendered
//! span per line (`sirupctl trace` reassembles the tree from the
//! `id`/`parent` fields). The daemon switches span tracing on at startup,
//! so the rings are populated exactly while a daemon serves.
//!
//! Node names on the wire are **canonical**: `n<i>` maps to node index `i`
//! verbatim (the `load` verb carries an explicit node count so trailing
//! isolated nodes survive), which keeps client, server, WAL, and oracle in
//! the same coordinate system. Node counts above [`MAX_NODES`] and node
//! indices at or past it are refused before anything is built or logged.
//!
//! ## Scheduling model
//!
//! The [`Daemon`] owns one plain accept thread; each accepted connection
//! becomes a **detached job on the shared scheduler** — the same workers
//! that run query evaluation and mutation maintenance. A connection job
//! handles at most [`WireConfig::max_frames_per_turn`] requests, then
//! re-spawns itself on the injector, so a chatty client cannot monopolise
//! a worker. Idle connections block at most `read_timeout` in a 1-byte
//! `peek` before yielding the worker the same way.
//!
//! Requests are evaluated **inline** via [`Server::answer_one`] — never
//! round-tripped through a batch's jobs: a connection job blocking on
//! a reply channel while the work it waits for sits *behind it* in the
//! injector would deadlock. A write waits only for the catalog's writer
//! lock, and whoever holds that lock is running, never queued. Each
//! request runs under `catch_unwind`: a panicking handler
//! produces an `error internal ...` frame and the connection (and every
//! lock it touched, via the `sirup_core::sync` poison-recovering helpers)
//! keeps serving.

use crate::plan::{Answer, Query};
use crate::server::{Action, Request, Server, ServerError, MAX_NODES};
use sirup_core::delta::parse_op;
use sirup_core::fx::FxHashMap;
use sirup_core::parse::parse_structure;
use sirup_core::sync;
use sirup_core::telemetry::{self, SpanRecord};
use sirup_core::{FactOp, Node, OneCq, Structure};
use sirup_workloads::traffic::{split_ops, QueryKind};
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sirup_core::frame;

/// Front-end knobs.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Listen address, e.g. `127.0.0.1:7407` (`:0` picks a free port).
    pub listen: String,
    /// How long an idle connection's turn blocks in `peek` before the job
    /// yields its worker back to the scheduler.
    pub read_timeout: Duration,
    /// Most requests one connection turn serves before re-spawning.
    pub max_frames_per_turn: usize,
    /// Snapshot after this many logged mutations (0 disables; only
    /// meaningful on a durable server). Enforced by the daemon's
    /// housekeeping thread, never inline on a worker.
    pub snapshot_every: u64,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            listen: "127.0.0.1:0".to_owned(),
            read_timeout: Duration::from_millis(20),
            max_frames_per_turn: 64,
            snapshot_every: 0,
        }
    }
}

/// One mutation event pushed to tailing connections.
#[derive(Debug, Clone)]
pub struct TailEvent {
    /// Name of the mutated instance.
    pub instance: String,
    /// Per-instance sequence number the mutation landed at.
    pub seq: u64,
    /// The applied ops, rendered in `.sirupload` text form.
    pub ops: String,
}

/// Registered `tail` subscriptions: `(instance, sender)` pairs; senders
/// whose connection died are pruned at the next broadcast.
#[derive(Debug, Default)]
struct TailRegistry {
    subs: Mutex<Vec<(String, Sender<TailEvent>)>>,
}

impl TailRegistry {
    fn subscribe(&self, instance: &str, tx: Sender<TailEvent>) {
        sync::lock(&self.subs).push((instance.to_owned(), tx));
    }

    fn broadcast(&self, event: &TailEvent) {
        sync::lock(&self.subs)
            .retain(|(inst, tx)| inst != &event.instance || tx.send(event.clone()).is_ok());
    }
}

/// The TCP daemon: accept thread + housekeeping thread + per-connection
/// scheduler jobs. Dropping it (or calling [`Daemon::shutdown`]) stops
/// accepting, lets every connection job exit at its next turn, and joins
/// the threads.
pub struct Daemon {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    housekeeping: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind `config.listen` and start serving `server`.
    pub fn start(server: Arc<Server>, config: WireConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let tails = Arc::new(TailRegistry::default());
        server.set_snapshot_every(config.snapshot_every);
        // A daemon is the long-running, inspectable deployment shape:
        // switch span tracing on so `trace <min_us>` has rings to read.
        // (Embedded/bench servers leave it off — spans cost nothing there.)
        telemetry::set_tracing(true);

        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::Builder::new()
                .name("sirup-accept".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_read_timeout(Some(config.read_timeout));
                        let _ = stream.set_nodelay(true);
                        let conn = Conn {
                            stream,
                            server: Arc::clone(&server),
                            tails: Arc::clone(&tails),
                            tail_rx: None,
                            stop: Arc::clone(&stop),
                            max_frames: config.max_frames_per_turn.max(1),
                        };
                        conn.respawn();
                    }
                })?
        };

        let housekeeping = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sirup-housekeeping".to_owned())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(25));
                        if server.snapshot_due() {
                            if let Err(e) = server.snapshot_now() {
                                eprintln!("sirup: snapshot failed: {e}");
                            }
                        }
                    }
                })?
        };

        Ok(Daemon {
            addr,
            stop,
            accept: Some(accept),
            housekeeping: Some(housekeeping),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the daemon threads. Connection jobs notice
    /// the stop flag at their next turn and drop their sockets.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.housekeeping.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One live connection, owned by whichever scheduler job is currently
/// running its turn.
struct Conn {
    stream: TcpStream,
    server: Arc<Server>,
    tails: Arc<TailRegistry>,
    /// Present once this connection issued `tail`: pushed events drain at
    /// the top of every turn.
    tail_rx: Option<Receiver<TailEvent>>,
    stop: Arc<AtomicBool>,
    max_frames: usize,
}

impl Conn {
    /// Hand this connection to the scheduler for its next turn. The stop
    /// guard matters: after scheduler shutdown `spawn` runs the task
    /// inline, so an unguarded self-respawn would recurse forever.
    fn respawn(self) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        let sched = Arc::clone(self.server.scheduler());
        sched.spawn(move || self.turn());
    }

    /// One scheduling turn: drain tail pushes, then serve up to
    /// `max_frames` requests if bytes are waiting, then yield.
    fn turn(mut self) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        if !self.drain_tail() {
            return; // peer gone
        }
        let mut probe = [0u8; 1];
        match self.stream.peek(&mut probe) {
            Ok(0) => {} // clean disconnect: drop the connection
            Ok(_) => {
                for _ in 0..self.max_frames {
                    match frame::read_frame(&mut self.stream) {
                        Ok(Some(payload)) => {
                            if !self.serve(&payload) {
                                return;
                            }
                        }
                        Ok(None) => return, // clean disconnect at a boundary
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            // No further request waiting this turn.
                            break;
                        }
                        Err(_) => return, // torn/corrupt stream: drop it
                    }
                    // Only keep reading if another request is already here;
                    // otherwise yield without burning the timeout again.
                    match self.stream.peek(&mut probe) {
                        Ok(n) if n > 0 => continue,
                        _ => break,
                    }
                }
                self.respawn();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                self.respawn(); // idle: yield the worker
            }
            Err(_) => {} // connection error: drop it
        }
    }

    /// Drain pending tail events to the peer. Returns `false` when the
    /// peer is unreachable (connection is dropped by the caller).
    fn drain_tail(&mut self) -> bool {
        loop {
            let ev = match &self.tail_rx {
                Some(rx) => match rx.try_recv() {
                    Ok(ev) => ev,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return true,
                },
                None => return true,
            };
            let line = format!("op {} {} = {}", ev.instance, ev.seq, ev.ops);
            if self.send(&line).is_err() {
                return false;
            }
        }
    }

    fn send(&mut self, payload: &str) -> io::Result<()> {
        frame::write_frame(&mut self.stream, payload.as_bytes())?;
        self.stream.flush()
    }

    /// Serve one request payload. Returns `false` when the connection
    /// should be dropped (peer unreachable).
    fn serve(&mut self, payload: &[u8]) -> bool {
        let text = String::from_utf8_lossy(payload).into_owned();
        // A panicking handler must not take the daemon down — reply
        // `error internal` and keep the connection. Shared locks the
        // panic poisoned recover via `sirup_core::sync`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(&self.server, &self.tails, &text)
        }));
        let reply = match outcome {
            Ok(Ok(Handled::Reply(reply))) => reply,
            Ok(Ok(Handled::Tail { instance, seq })) => {
                let (tx, rx) = channel();
                self.tails.subscribe(&instance, tx);
                self.tail_rx = Some(rx);
                format!("ok tail {instance} seq {seq}")
            }
            Ok(Err(msg)) => format!("error {msg}"),
            Err(_) => "error internal: request handler panicked".to_owned(),
        };
        self.send(&reply).is_ok()
    }
}

/// What a handled request produced.
enum Handled {
    /// An immediate reply payload.
    Reply(String),
    /// The connection subscribed to an instance's mutation stream.
    Tail {
        /// Subscribed instance.
        instance: String,
        /// Its mutation sequence at subscription time.
        seq: u64,
    },
}

/// Canonical wire node names: `n<i>` is node index `i`, nothing else, and
/// `i` is below [`MAX_NODES`].
fn strict_node(name: &str) -> Result<Node, String> {
    let i = name
        .strip_prefix('n')
        .and_then(|d| d.parse::<u32>().ok())
        .ok_or_else(|| format!("node name {name:?} must be canonical n<i>"))?;
    if i as usize >= MAX_NODES {
        return Err(format!(
            "node {name} is past the limit of {MAX_NODES} nodes"
        ));
    }
    Ok(Node(i))
}

/// Parse a comma-separated op list in canonical node names.
fn parse_wire_ops(body: &str) -> Result<Vec<FactOp>, String> {
    let mut ops = Vec::new();
    for part in split_ops(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let mut bad = None;
        let op = parse_op(part, |name| match strict_node(name) {
            Ok(v) => v,
            Err(e) => {
                bad.get_or_insert(e);
                Node(0)
            }
        })?;
        if let Some(e) = bad {
            return Err(e);
        }
        ops.push(op);
    }
    Ok(ops)
}

/// Render an answer as a reply payload.
fn render_answer(answer: &Answer) -> String {
    match answer {
        Answer::Bool(b) => format!("answer bool {b}"),
        Answer::Nodes(nodes) => {
            let list: Vec<String> = nodes.iter().map(|n| format!("n{}", n.0)).collect();
            format!("answer nodes {}", list.join(","))
        }
        Answer::Applied { applied, seq } => format!("answer applied {applied} seq {seq}"),
    }
}

/// Render the `trace <min_us>` reply: `ok trace <n>` for `n` qualifying
/// root spans (duration ≥ `min_us`), then every span of each root's tree —
/// root first, descendants in depth-first order — one
/// [`SpanRecord::render`] line each.
fn render_trace(spans: &[SpanRecord], min_us: u64) -> String {
    let mut children: FxHashMap<u64, Vec<&SpanRecord>> = FxHashMap::default();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.dur_us >= min_us)
        .collect();
    let mut out = format!("ok trace {}", roots.len());
    for root in roots {
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            out.push('\n');
            out.push_str(&s.render());
            if let Some(kids) = children.get(&s.id) {
                // Reverse push so depth-first output keeps recording order.
                stack.extend(kids.iter().rev());
            }
        }
    }
    out
}

/// Dispatch one request line (the connection-independent part — pure
/// request in, reply or tail subscription out).
fn handle_request(server: &Server, tails: &TailRegistry, text: &str) -> Result<Handled, String> {
    let (head, rest) = match text.split_once('\n') {
        Some((h, r)) => (h.trim(), Some(r)),
        None => (text.trim(), None),
    };
    let mut words = head.split_whitespace();
    let verb = words.next().unwrap_or("");
    match verb {
        "ping" => Ok(Handled::Reply("ok pong".to_owned())),
        "list" => {
            let names = server.catalog().names();
            Ok(Handled::Reply(format!("ok instances {}", names.join(","))))
        }
        "load" => {
            let name = words.next().ok_or("load needs an instance name")?;
            let nodes: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or("load needs a node count")?;
            if nodes > MAX_NODES {
                return Err(format!("load {name}: {}", ServerError::TooManyNodes(nodes)));
            }
            let mut ops = Vec::new();
            for line in rest.unwrap_or("").lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                ops.extend(parse_wire_ops(line)?);
            }
            if let Some(bad) = ops.iter().find(|op| !op.is_insert()) {
                return Err(format!("load bodies are insert-only, got {bad}"));
            }
            let mut data = Structure::with_nodes(nodes);
            let atoms = data.apply_all(&ops);
            if data.node_count() != nodes {
                return Err(format!(
                    "load {name}: ops mention node n{}, above the declared count {nodes}",
                    data.node_count() - 1
                ));
            }
            server
                .load_instance(name.to_owned(), data)
                .map_err(|e| format!("load {name}: {e}"))?;
            Ok(Handled::Reply(format!(
                "ok loaded {name} nodes {nodes} atoms {atoms}"
            )))
        }
        "query" => {
            let kind = words
                .next()
                .ok_or("query needs a kind (pi|sigma|delta|delta+)")?;
            let kind = QueryKind::from_keyword(kind)
                .ok_or_else(|| format!("unknown query kind {kind:?}"))?;
            let inst = words.next().ok_or("query needs an instance name")?;
            let body = head
                .split_once('=')
                .map(|(_, b)| b.trim())
                .ok_or("query needs `= <atoms>`")?;
            let (cq, _) = parse_structure(body).map_err(|e| format!("bad query atoms: {e}"))?;
            let query = match kind {
                QueryKind::PiGoal => {
                    Query::PiGoal(OneCq::new(cq).map_err(|e| format!("bad query: {e}"))?)
                }
                QueryKind::SigmaAnswers => {
                    Query::SigmaAnswers(OneCq::new(cq).map_err(|e| format!("bad query: {e}"))?)
                }
                QueryKind::Delta => Query::Delta {
                    cq,
                    disjoint: false,
                },
                QueryKind::DeltaPlus => Query::Delta { cq, disjoint: true },
            };
            let resp = server
                .answer_one(&Request::query(query, inst))
                .map_err(|e| e.to_string())?;
            Ok(Handled::Reply(render_answer(&resp.answer)))
        }
        "mutate" => {
            let inst = words.next().ok_or("mutate needs an instance name")?;
            let body = head
                .split_once('=')
                .map(|(_, b)| b.trim())
                .ok_or("mutate needs `= <ops>`")?;
            let ops = parse_wire_ops(body)?;
            let resp = server
                .answer_one(&Request {
                    action: Action::Mutate(ops.clone()),
                    instance: inst.to_owned(),
                })
                .map_err(|e| e.to_string())?;
            if let Answer::Applied { seq, .. } = resp.answer {
                let rendered: Vec<String> = ops.iter().map(|op| op.to_string()).collect();
                tails.broadcast(&TailEvent {
                    instance: inst.to_owned(),
                    seq,
                    ops: rendered.join(","),
                });
            }
            Ok(Handled::Reply(render_answer(&resp.answer)))
        }
        "stats" => {
            let inst = words.next().ok_or("stats needs an instance name")?;
            let s = server
                .instance_stats(inst)
                .ok_or_else(|| format!("unknown instance {inst:?}"))?;
            Ok(Handled::Reply(format!(
                "ok stats {} seq {} nodes {} unary {} binary {} mats {} version {} \
                 pages {} shared {} retained {} live {} frozen {}",
                s.name,
                s.seq,
                s.nodes,
                s.unary_atoms,
                s.binary_atoms,
                s.materializations.len(),
                s.version,
                s.cow.pages,
                s.cow.shared_pages,
                s.cow.retained_bytes,
                s.live_bytes,
                s.frozen_bytes,
            )))
        }
        "dump" => {
            let inst = words.next().ok_or("dump needs an instance name")?;
            let inst = server
                .catalog()
                .get(inst)
                .ok_or_else(|| format!("unknown instance {inst:?}"))?;
            // The exact instance content in canonical names — the
            // crash-recovery check diffs this against its folded-ops
            // oracle.
            Ok(Handled::Reply(format!(
                "ok dump {} nodes {} seq {}\n{}",
                inst.name,
                inst.data.node_count(),
                inst.seq,
                inst.data
            )))
        }
        "remove" => {
            let inst = words.next().ok_or("remove needs an instance name")?;
            let existed = server
                .remove_instance(inst)
                .map_err(|e| format!("remove {inst}: {e}"))?;
            Ok(Handled::Reply(format!("ok removed {existed}")))
        }
        "snapshot" => {
            server
                .snapshot_now()
                .map_err(|e| format!("snapshot failed: {e}"))?;
            Ok(Handled::Reply("ok snapshot".to_owned()))
        }
        "tail" => {
            let inst = words.next().ok_or("tail needs an instance name")?;
            let seq = server
                .instance_stats(inst)
                .ok_or_else(|| format!("unknown instance {inst:?}"))?
                .seq;
            Ok(Handled::Tail {
                instance: inst.to_owned(),
                seq,
            })
        }
        "metrics" => Ok(Handled::Reply(format!(
            "ok metrics\n{}",
            server.metrics_text()
        ))),
        "trace" => {
            let min_us: u64 = match words.next() {
                Some(w) => w
                    .parse()
                    .map_err(|_| format!("trace threshold {w:?} is not a µs count"))?,
                None => 0,
            };
            Ok(Handled::Reply(render_trace(
                &telemetry::recent_spans(),
                min_us,
            )))
        }
        // Deliberate crash hook for the panic-hardening tests: proves a
        // panicking handler yields `error internal`, poisons nothing
        // permanently, and leaves the daemon serving.
        "__test_panic" => panic!("wire test panic injection"),
        "" => Err("empty request".to_owned()),
        other => Err(format!("unknown verb {other:?}")),
    }
}
