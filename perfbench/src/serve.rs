//! serve-mips32: an in-process `tv_serve` unix-socket server with two
//! closed-loop clients, each its own tenant, each waiting for its reply
//! as a designer at a terminal does. Each request's analysis is small,
//! so framing, transport, the session supervisor and reply rendering are
//! a visible share of the latency.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tv_core::{AnalysisOptions, Fnv};
use tv_netlist::sim_format;
use tv_proto::{self as proto, Frame, Limits};
use tv_serve::client::{handshake, request};
use tv_serve::server::{serve_unix, Stream};
use tv_serve::session::{reply_fingerprint, Session};
use tv_serve::{ServeConfig, ServerHandle, TechTable};

use crate::inputs::{self, ServeScript};
use crate::layers::Layers;
use crate::oracle::{cold_fingerprint, reply_form, Tally};
use crate::stats::median;
use crate::{host, ms, Ctx, Outcome, SETUP_REPS};

/// Closed-loop clients, one tenant each: on a two-core host the two
/// sessions share the cores.
const CLIENTS: usize = 2;

/// Fewest requests per client per phase. The set-up runs one such
/// round with both clients at once before timing starts: the first round
/// after a server starts runs far slower than the rest.
const MIN_REQUESTS: usize = 300;

/// Fresh connections timed through the handshake.
const HANDSHAKES: usize = 20;

/// No-op round trips timed for the transport.
const PINGS: usize = 300;

/// Recorded requests whose frames are re-encoded and decoded.
const FRAME_SAMPLES: usize = 2000;

/// The lines every client sends before its seeded script.
const PRELUDE: [&str; 2] = ["demo mips32", "analyze"];

/// One connected tenant and what it received. Replies are kept as
/// hashes, and lines not at all (the script regenerates them), so the
/// benchmark's own memory does not grow with the request count.
struct Client {
    tenant: String,
    stream: Stream,
    script: ServeScript,
    next_id: u64,
    /// The tenant's record, for the oracle.
    record: Transcript,
    /// Whether the last line sent was an edit.
    after_edit: bool,
}

/// One tenant's record: its script from the start, a hash of every
/// reply body in order, and the first timed requests in full.
struct Transcript {
    script: ServeScript,
    replies: Vec<u64>,
    /// Where the timed requests begin in `replies`.
    timed_from: Option<usize>,
    /// The first timed lines with their reply bodies, for the proto
    /// layer.
    frames: Vec<(String, String)>,
}

fn body_hash(body: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(body.as_bytes());
    h.0
}

impl Client {
    /// Sends one line and waits for its reply; returns the round trip
    /// (ms), or `None` when the request failed.
    fn send(&mut self, line: String, tally: &mut Tally) -> Option<f64> {
        self.next_id += 1;
        tally.attempted += 1;
        let t0 = Instant::now();
        let reply = request(&mut self.stream, self.next_id, &line);
        let t = ms(t0);
        let (body, ok) = match reply {
            Ok(r) => r,
            Err(e) => (format!("transport error: {e}"), false),
        };
        if !ok {
            tally.fail(format!("{}: {line} -> {body}", self.tenant));
        }
        self.after_edit = line.starts_with("edit ");
        let r = &mut self.record;
        r.replies.push(body_hash(&body));
        if r.timed_from.is_some() && r.frames.len() < FRAME_SAMPLES / CLIENTS {
            r.frames.push((line, body));
        }
        ok.then_some(t)
    }
}

/// Round trips (ms) of one served phase.
#[derive(Default)]
struct Phase {
    /// Every request.
    all: Vec<f64>,
    /// An edit plus the `analyze` after it: two round trips, one wait
    /// for the answer to an edit.
    edits: Vec<f64>,
    /// `analyze` with no edit since the last one.
    requeries: Vec<f64>,
    /// Seconds the phase ran.
    wall: f64,
}

/// A running server with its warmed-up clients.
struct Served {
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Served {
    /// Starts the server, connects the clients, loads `demo mips32` in
    /// each session, analyzes it once and runs the warm-up round.
    fn start(ctx: &Ctx, sock: &Path, tally: &mut Tally) -> Served {
        let nl = inputs::mips32();
        let pairs = inputs::reachable_pairs(ctx.seed, &nl);
        let sock = sock.to_str().expect("work paths are UTF-8");
        let server = serve_unix(sock, ServeConfig::default()).expect("bind the work socket");
        let clients = (0..CLIENTS)
            .map(|k| {
                let tenant = format!("designer-{k}");
                let mut stream = server.endpoint().connect().expect("connect to own server");
                handshake(&mut stream, &tenant, Limits::default()).expect("admitted");
                let seed = ctx.seed.wrapping_mul(CLIENTS as u64).wrapping_add(k as u64);
                let script = ServeScript::new(seed, &nl, pairs.clone());
                let mut c = Client {
                    tenant,
                    stream,
                    script: script.clone(),
                    next_id: 0,
                    record: Transcript {
                        script,
                        replies: Vec::new(),
                        timed_from: None,
                        frames: Vec::new(),
                    },
                    after_edit: false,
                };
                for line in PRELUDE {
                    c.send(line.into(), tally);
                }
                c
            })
            .collect();
        let mut served = Served { server, clients };
        served.phase(Duration::ZERO, tally);
        served
    }

    /// One closed-loop phase of at least `budget` and [`MIN_REQUESTS`]
    /// per client, all clients at once.
    fn phase(&mut self, budget: Duration, tally: &mut Tally) -> Phase {
        let start_line = Barrier::new(self.clients.len());
        let start = Instant::now();
        let per_client: Vec<(Phase, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    let start_line = &start_line;
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut p = Phase::default();
                        let mut edit_ms = 0.0;
                        c.record.timed_from = Some(c.record.replies.len());
                        c.record.frames.clear();
                        start_line.wait();
                        let t0 = Instant::now();
                        while t0.elapsed() < budget || p.all.len() < MIN_REQUESTS {
                            let line = c.script.next_line();
                            let is_edit = line.starts_with("edit ");
                            let is_requery = line == "analyze" && !c.after_edit;
                            let completes_edit = c.after_edit;
                            if let Some(t) = c.send(line, &mut tally) {
                                p.all.push(t);
                                if is_edit {
                                    edit_ms = t;
                                } else if completes_edit {
                                    p.edits.push(edit_ms + t);
                                } else if is_requery {
                                    p.requeries.push(t);
                                }
                            }
                        }
                        (p, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut merged = Phase {
            wall: start.elapsed().as_secs_f64(),
            ..Phase::default()
        };
        for (p, t) in per_client {
            merged.all.extend(p.all);
            merged.edits.extend(p.edits);
            merged.requeries.extend(p.requeries);
            tally.attempted += t.attempted;
            tally.failed += t.failed;
            tally.notes.extend(t.notes);
        }
        merged
    }

    /// Says `bye` on every connection and stops the server, joining its
    /// threads; returns each tenant's transcript.
    fn stop(self) -> Vec<Transcript> {
        let mut out = Vec::new();
        for mut c in self.clients {
            let _ = proto::write_frame(&mut c.stream, &Frame::Bye);
            out.push(c.record);
        }
        self.server.stop();
        out
    }

    /// The serve layers measured on the live server: fresh connections
    /// through the handshake, and no-op round trips (a comment line,
    /// which the session answers without work) for the transport.
    fn live_layers(&mut self, l: &mut Layers, tally: &mut Tally) {
        for _ in 0..HANDSHAKES {
            let t0 = Instant::now();
            let mut s = self
                .server
                .endpoint()
                .connect()
                .expect("connect to own server");
            let admitted = handshake(&mut s, "latency-probe", Limits::default());
            l.add("serve.handshake_ms", ms(t0));
            tally.attempted += 1;
            if let Err(e) = admitted {
                tally.fail(format!("handshake: {e}"));
            }
            let _ = proto::write_frame(&mut s, &Frame::Bye);
        }
        let c = &mut self.clients[0];
        for _ in 0..PINGS {
            c.next_id += 1;
            tally.attempted += 1;
            let t0 = Instant::now();
            let reply = request(&mut c.stream, c.next_id, "# ping");
            l.add("serve.transport_us", ms(t0) * 1e3);
            if !matches!(&reply, Ok((body, true)) if body.is_empty()) {
                tally.fail(format!("ping -> {reply:?}"));
            }
        }
    }
}

/// The oracle: replays each tenant's transcript, warm-up included,
/// through a fresh in-process session, one thread per tenant as they
/// were served; every reply must equal the served body byte for byte.
/// Returns the evaluation time (us) of each timed edit plus the
/// `analyze` after it.
fn replay(transcripts: &[Transcript], tally: &mut Tally) -> Vec<f64> {
    let results: Vec<(Vec<f64>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = transcripts
            .iter()
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut times = Vec::new();
                    let mut session = Session::with_techs(
                        AnalysisOptions::default(),
                        tv_netlist::DEFAULT_MAX_ERRORS,
                        TechTable::shared(),
                    );
                    let mut script = t.script.clone();
                    let timed_from = t.timed_from.unwrap_or(usize::MAX);
                    let mut edit_us = None;
                    for (i, &served) in t.replies.iter().enumerate() {
                        let line = match PRELUDE.get(i) {
                            Some(l) => l.to_string(),
                            None => script.next_line(),
                        };
                        let t0 = Instant::now();
                        let got = session.eval(&line).map(|r| r.0).unwrap_or_default();
                        let t_us = ms(t0) * 1e3;
                        if i >= timed_from {
                            if let Some(e) = edit_us.take() {
                                times.push(e + t_us);
                            } else if line.starts_with("edit ") {
                                edit_us = Some(t_us);
                            }
                        }
                        if body_hash(&got) != served {
                            tally.wrong(format!("served reply {i} to {line:?} is not {got}"));
                        }
                    }
                    // The replay shares the session code with the server;
                    // its final state is also checked against a cold
                    // analysis.
                    let got = session
                        .eval("analyze")
                        .and_then(|r| reply_fingerprint(&r.0));
                    let want = session.design().map(|d| {
                        reply_form(cold_fingerprint(d.netlist(), &AnalysisOptions::default()))
                    });
                    tally.expect_eq("final state against a cold analysis", want, got);
                    (times, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut times = Vec::new();
    for (t, sub) in results {
        times.extend(t);
        tally.wrong += sub.wrong;
        tally.notes.extend(sub.notes);
    }
    times
}

/// Stops the server and checks every transcript. With `l`, also
/// measures the serve layers: on the live server first, then the
/// session replay and the recorded frames. `served_p50` is the
/// client-observed median of an edit plus its `analyze` (ms), the two
/// requests the layers are set against.
fn finish(mut served: Served, served_p50: f64, l: Option<&mut Layers>, tally: &mut Tally) {
    let Some(l) = l else {
        replay(&served.stop(), tally);
        return;
    };
    served.live_layers(l, tally);
    let transcripts = served.stop();
    for t in replay(&transcripts, tally) {
        l.add("serve.session.eval_us", t);
    }
    let timed = transcripts.iter().flat_map(|t| &t.frames);
    for (id, (line, body)) in (1u64..).zip(timed) {
        let req = Frame::Request {
            id,
            line: line.clone(),
        };
        let rep = Frame::Reply {
            id,
            ok: true,
            body: body.clone(),
        };
        let (t_enc, (req, rep)) = Layers::timed(|| (proto::render(&req), proto::render(&rep)));
        let (t_dec, decoded) = Layers::timed(|| (proto::decode(&req), proto::decode(&rep)));
        assert!(
            decoded.0.is_ok() && decoded.1.is_ok(),
            "recorded frames decode"
        );
        l.add("proto.encode_us", t_enc * 1e3);
        l.add("proto.decode_us", t_dec * 1e3);
        l.add("proto.reply_bytes", rep.len() as f64);
    }
    let per_request =
        l.median("proto.encode_us") + l.median("proto.decode_us") + l.median("serve.transport_us");
    let parts_us = l.median("serve.session.eval_us") + 2.0 * per_request;
    l.add("serve.unattributed_us", served_p50 * 1e3 - parts_us);
    l.add("trace.overhead_ms", parts_us / 1e3 - served_p50);
}

/// The serve layers, probed from another workload: a short served round
/// of the mips32 mix on a server of its own.
pub fn probe(ctx: &Ctx, tally: &mut Tally) -> Layers {
    let mut served = Served::start(ctx, &ctx.file("probe.sock"), tally);
    let before = tv_obs::snapshot();
    let edits = served.phase(Duration::ZERO, tally).edits;
    let mut l = Layers::default();
    count_serve(&mut l, &tv_obs::snapshot().since(&before));
    finish(served, median(&edits), Some(&mut l), tally);
    l
}

/// The server's own counters over one served phase.
fn count_serve(l: &mut Layers, work: &tv_obs::Snapshot) {
    for c in [
        tv_obs::Counter::ServeRequests,
        tv_obs::Counter::ServeRejected,
        tv_obs::Counter::ServeRetries,
    ] {
        l.count(c, work.get(c));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sock = ctx.file("serve.sock");
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut held: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = held.take() {
            replay(&old.stop(), &mut out.tally);
        }
        let t0 = Instant::now();
        held = Some(Served::start(ctx, &sock, &mut out.tally));
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.setup(&setups);
    let mut served = held.expect("set-up ran");

    let before = tv_obs::snapshot();
    let p = served.phase(ctx.phase_budget(), &mut out.tally);
    let work = tv_obs::snapshot().since(&before);
    let peak = host::peak_rss_mb();
    let all = p.all;
    out.latency(
        "edit + its analyze, client-observed",
        &p.edits,
        "analyze with no edit since the last",
        &p.requeries,
        all.len() as f64 / p.wall,
        peak,
    );
    // Over every request the latency has two modes (edit, revision and
    // flow well under 1 ms; analyze and paths above it) with the median
    // between them, so it is printed here but not reported as a metric.
    out.lines.push(format!(
        "every request: n={}, p50 {:.4} ms, p99 {:.4} ms",
        all.len(),
        median(&all),
        crate::stats::percentile(&all, 99)
    ));

    let pair_p50 = median(&p.edits);
    if !ctx.trace {
        finish(served, pair_p50, None, &mut out.tally);
        return out;
    }
    let mut l = Layers::default();
    count_serve(&mut l, &work);
    finish(served, pair_p50, Some(&mut l), &mut out.tally);
    let sim = ctx.file("mips32.sim");
    std::fs::write(&sim, sim_format::write(&inputs::mips32())).expect("work dir is writable");
    l.fill_from(crate::warm::probe(ctx, &sim, &mut out.tally));
    l.fill_from(crate::cold::probe(&sim));
    let _ = std::fs::remove_file(&sim);
    l.finish(&mut out);
    out
}
