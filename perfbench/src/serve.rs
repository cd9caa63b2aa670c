//! `serve_mixed`: open-loop load over TCP against a fresh in-process
//! `urk::Server`, at a nominal rate (latencies) and an overload rate
//! (goodput, explicit sheds).
//!
//! Each connection is driven by one thread that issues requests at their
//! scheduled times and sends everything due as one `batch` frame whenever
//! the connection has no batch in flight (the server answers a
//! connection's batches one at a time). Latency runs from each request's
//! scheduled send, so waiting behind an earlier batch is charged to it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use urk::{
    Client, EvalPool, JobLimits, JobResult, PoolConfig, ServeConfig, Server, Session, SubmitError,
};
use urk_io::{Request, Response, SharedBatch, WireStats};

use crate::gen::{self, Request as Req};
use crate::layers::{self, Counters};
use crate::pipeline::{self, Answer, Replica};
use crate::reference::{self, Expect};
use crate::report::{self, Metrics, Run};
use crate::speed;
use crate::trace::Tracer;

/// Offered rates, requests per second. On the 2-vCPU host the benchmark
/// was written on, a 2-worker server answered about 1140 requests/s of
/// this mix when the host was quiet: the nominal rate is a little under
/// half of that, so that a busy neighbour does not tip it into overload,
/// and the overload rate about twice.
pub const NOMINAL_RATE: f64 = 450.0;
pub const OVERLOAD_RATE: f64 = 2300.0;
/// Share of the run spent at the nominal rate; the rest is overload.
const NOMINAL_SHARE: f64 = 0.6;
/// Every request's deadline, from its scheduled send.
pub const DEADLINE_MS: u64 = 250;
/// The latency a shed request counts with: it misses any latency limit.
const REFUSED_MS: f64 = 10.0 * DEADLINE_MS as f64;
const QUEUE_CAP: usize = 16;
const SERVER_STARTS: usize = 15;
/// Share of each phase the traced run replays.
const TRACED_SHARE: f64 = 0.4;
/// Each phase runs in segments this long, with a reading of the host's
/// speed between them (see `speed`).
const SEGMENT_S: f64 = 0.25;
/// How often an idle load thread looks for answers.
const POLL: Duration = Duration::from_micros(200);
/// After a segment over the limit (and before a phase's first), the run
/// waits until the cores, kept busy for `QUIET_SAMPLE`, are not stolen
/// from, at most `QUIET_WAIT` per phase.
const QUIET_WAIT: Duration = Duration::from_secs(10);
const QUIET_SAMPLE: Duration = Duration::from_millis(300);

pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    pub seconds: f64,
    pub requests: Vec<Req>,
}

/// The run's request schedule: the nominal phase, then the overload phase.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Phase> {
    let nominal = seconds * NOMINAL_SHARE;
    let overload = seconds - nominal;
    vec![
        Phase {
            name: "nominal",
            rate: NOMINAL_RATE,
            seconds: nominal,
            requests: gen::serve_phase(seed, 0, NOMINAL_RATE, nominal),
        },
        Phase {
            name: "overload",
            rate: OVERLOAD_RATE,
            seconds: overload,
            requests: gen::serve_phase(seed, 1, OVERLOAD_RATE, overload),
        },
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: nproc(),
        queue_cap: QUEUE_CAP,
        ..PoolConfig::default()
    }
}

/// What a request came back as.
#[derive(Clone, Debug)]
enum Got {
    Answer {
        answer: Answer,
        timed_out: bool,
        cache_hit: bool,
        at: f64,
    },
    Failed(String),
    Shed,
}

/// A request's index, what came back, and how late it was issued.
type Outcome = (usize, Got, f64);

struct PhaseResult {
    got: Vec<Got>,
    lag: Vec<f64>,
    /// Per request, the segment it was sent in.
    segment: Vec<usize>,
    /// Per segment, its length in seconds and its speed factor.
    segments: Vec<(f64, f64)>,
    /// Per segment, the share of CPU time the hypervisor stole.
    stolen: Vec<f64>,
    /// Seconds spent waiting for the hypervisor to stop stealing.
    waited: f64,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let phases = schedule(seed, seconds);
    let texts = reference::texts("serve_mixed", seed, seconds).1;
    let refs: HashMap<String, Expect> = texts
        .into_iter()
        .zip(reference::fetch("serve_mixed", seed, seconds)?)
        .collect();
    if traced {
        return traced_run(&phases, &refs, seed);
    }
    let program = gen::serve_program();

    // Set-up: a fresh server until its first ping and a warm-up batch is
    // answered; the last of the starts serves the run. Each start is
    // scaled by the speed readings on either side of it. The cores are
    // kept awake, as during the phases.
    let mut kernel_before = speed::kernel_ms_on(nproc());
    let mut setup_times = Vec::new();
    let mut server = None;
    speed::cores_awake(|| -> Result<(), String> {
        for _ in 0..SERVER_STARTS {
            if let Some(old) = server.take() {
                stop(old);
            }
            let t0 = Instant::now();
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                pool: pool_config(),
            };
            let s = Server::start(&[&program], pipeline::options(), config)
                .map_err(|e| e.to_string())?;
            let mut client = Client::connect(s.local_addr()).map_err(|e| e.to_string())?;
            client.ping().map_err(|e| e.to_string())?;
            let warm: Vec<String> = (0..nproc()).map(|k| format!("{k} + 1")).collect();
            let warm: Vec<&str> = warm.iter().map(String::as_str).collect();
            client.eval_batch(&warm, None).map_err(|e| e.to_string())?;
            let t = t0.elapsed().as_secs_f64();
            let kernel_after = speed::kernel_ms_on(nproc());
            setup_times.push(t * speed::factor(kernel_before, kernel_after));
            kernel_before = kernel_after;
            server = Some(s);
        }
        Ok(())
    })?;
    let server = server.expect("at least one start");
    let addr = server.local_addr();

    let mut results = Vec::new();
    for phase in &phases {
        results.push(drive_scaled(addr, phase)?);
    }
    stop(server);

    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (phase, res) in phases.iter().zip(&results) {
        // Per segment: scaled latencies (a shed counts as refused) and
        // good answers. The phase's figures are medians over segments, so
        // a few seconds of a neighbour's burst do not move them.
        let segments = res.segments.len();
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); segments];
        let mut good_in: Vec<u64> = vec![0; segments];
        let mut raw = Vec::new();
        let (mut good, mut shed, mut answered, mut hits) = (0u64, 0u64, 0u64, 0u64);
        for (i, (req, got)) in phase.requests.iter().zip(&res.got).enumerate() {
            attempted += 1;
            let seg = res.segment[i];
            let f = res.segments[seg].1;
            match got {
                Got::Answer {
                    answer,
                    timed_out,
                    cache_hit,
                    at,
                } => {
                    answered += 1;
                    hits += u64::from(*cache_hit);
                    let ms = (at - req.due) * 1e3;
                    lat[seg].push(ms * f);
                    raw.push(ms);
                    if *timed_out {
                        continue; // a deadline miss, not a wrong answer
                    }
                    if refs.get(&req.text).is_some_and(|e| e.admits(answer)) {
                        if ms <= DEADLINE_MS as f64 {
                            good += 1;
                            good_in[seg] += 1;
                        }
                    } else {
                        eprintln!(
                            "serve_mixed: {:?} answered {answer:?}, reference {:?}",
                            req.text,
                            refs.get(&req.text)
                        );
                        failed += 1;
                    }
                }
                Got::Failed(e) => {
                    eprintln!("serve_mixed: {:?} failed: {e}", req.text);
                    failed += 1;
                }
                Got::Shed => {
                    shed += 1;
                    lat[seg].push(REFUSED_MS);
                    raw.push(REFUSED_MS);
                }
            }
        }
        for v in &mut lat {
            v.sort_by(f64::total_cmp);
        }
        raw.sort_by(f64::total_cmp);
        let n = phase.requests.len() as u64;
        // A segment the hypervisor stole from measured the neighbours,
        // not the server: the medians skip it, but keep at least the
        // least stolen third.
        let keep = speed::kept_windows(&res.stolen, segments.div_ceil(3));
        let counted = keep.iter().filter(|&&k| k).count();
        let kept = |k: usize| keep[k];
        let by_segment = |q: f64| {
            let per: Vec<f64> = (0..segments)
                .filter(|&k| kept(k) && !lat[k].is_empty())
                .map(|k| report::quantile(&lat[k], q))
                .collect();
            report::median(&per)
        };
        let goodput: Vec<f64> = (0..segments)
            .filter(|&k| kept(k))
            .map(|k| {
                let (seconds, f) = res.segments[k];
                good_in[k] as f64 / (seconds * f)
            })
            .collect();
        let stolen = res.stolen.iter().sum::<f64>() / segments.max(1) as f64;
        let lag_ms = res.lag.iter().sum::<f64>() * 1e3 / res.lag.len().max(1) as f64;
        let mean_factor = res.segments.iter().map(|(t, f)| t * f).sum::<f64>() / phase.seconds;
        notes.push((
            phase.name,
            format!(
                "{{\"rate\": {}, \"seconds\": {}, \"segments\": {segments}, \"segments_counted\": {}, \
                 \"mean_stolen\": {stolen}, \"waited_s\": {}, \"sent\": {n}, \"answered\": {answered}, \
                 \"good\": {good}, \"shed_frac\": {}, \"cache_hit_ratio\": {}, \"generator_lag_ms\": {lag_ms}, \
                 \"mean_speed_factor\": {mean_factor}, \"stolen_by_segment\": {:?}, \"unscaled_over_all_requests\": {{\"latency_p50_ms\": {}, \
                 \"latency_p90_ms\": {}, \"latency_p99_ms\": {}, \"good_per_s\": {}}}}}",
                phase.rate,
                phase.seconds,
                counted,
                res.waited,
                shed as f64 / n.max(1) as f64,
                hits as f64 / answered.max(1) as f64,
                res.stolen,
                report::quantile(&raw, 0.5),
                report::quantile(&raw, 0.9),
                report::quantile(&raw, 0.99),
                good as f64 / phase.seconds,
            ),
        ));
        if phase.name == "nominal" {
            m.put("ops_per_s", answered as f64 / phase.seconds, "1/s", n);
            m.put("latency_p50_ms", by_segment(0.5), "ms", n);
            m.put("latency_p90_ms", by_segment(0.9), "ms", n);
        } else {
            m.put("goodput_per_s", report::median(&goodput), "1/s", n);
        }
    }
    m.put(
        "setup_s",
        report::median(&setup_times),
        "s",
        SERVER_STARTS as u64,
    );
    m.put("peak_rss_mb", report::peak_rss_mb(), "MiB", 1);
    Ok(Run {
        attempted,
        failed,
        consistent: true,
        metrics: m,
        notes,
    })
}

fn stop(server: Server) {
    server.stop();
    server.join();
}

/// Runs a phase segment by segment, reading the host's speed (on every
/// core) before the first and after each one, and the CPU time stolen
/// during each. A segment's requests keep their offsets within it;
/// everything it sent is answered before the next one starts.
fn drive_scaled(addr: SocketAddr, phase: &Phase) -> Result<PhaseResult, String> {
    let n = phase.requests.len();
    let mut out = PhaseResult {
        got: vec![Got::Failed("no answer".into()); n],
        lag: vec![0.0; n],
        segment: vec![0; n],
        segments: Vec::new(),
        stolen: Vec::new(),
        waited: 0.0,
    };
    let mut wait_left = QUIET_WAIT;
    let mut last_stolen = 1.0;
    let mut before = 0.0;
    let mut lo = 0.0;
    while lo < phase.seconds {
        if last_stolen > speed::STOLEN_LIMIT {
            let t0 = Instant::now();
            while !wait_left.is_zero() {
                wait_left = wait_left.saturating_sub(QUIET_SAMPLE);
                if speed::stolen_while_busy(nproc(), QUIET_SAMPLE) <= speed::STOLEN_LIMIT {
                    break;
                }
            }
            out.waited += t0.elapsed().as_secs_f64();
            before = speed::kernel_ms_on(nproc());
        }
        let hi = (lo + SEGMENT_S).min(phase.seconds);
        let index: Vec<usize> = (0..n)
            .filter(|&i| (lo..hi).contains(&phase.requests[i].due))
            .collect();
        let segment = Phase {
            name: phase.name,
            rate: phase.rate,
            seconds: hi - lo,
            requests: index
                .iter()
                .map(|&i| Req {
                    text: phase.requests[i].text.clone(),
                    due: phase.requests[i].due - lo,
                })
                .collect(),
        };
        let ticks = speed::cpu_ticks();
        let (got, lag) = drive(addr, &segment)?;
        last_stolen = speed::stolen(ticks, speed::cpu_ticks());
        out.stolen.push(last_stolen);
        let after = speed::kernel_ms_on(nproc());
        let f = speed::factor(before, after);
        before = after;
        for (k, &i) in index.iter().enumerate() {
            out.got[i] = match &got[k] {
                // Answer times are kept relative to the whole phase.
                Got::Answer {
                    answer,
                    timed_out,
                    cache_hit,
                    at,
                } => Got::Answer {
                    answer: answer.clone(),
                    timed_out: *timed_out,
                    cache_hit: *cache_hit,
                    at: at + lo,
                },
                other => other.clone(),
            };
            out.lag[i] = lag[k];
            out.segment[i] = out.segments.len();
        }
        out.segments.push((hi - lo, f));
        lo = hi;
    }
    Ok(out)
}

/// Runs one segment over `nproc` connections, one driving thread each.
/// Returns, per request, what came back and how late it was issued.
fn drive(addr: SocketAddr, phase: &Phase) -> Result<(Vec<Got>, Vec<f64>), String> {
    let conns = nproc();
    let epoch = Instant::now();
    let outs: Vec<Result<Vec<Outcome>, String>> = speed::cores_awake(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let mine: Vec<(usize, &Req)> = phase
                        .requests
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % conns == c)
                        .collect();
                    scope.spawn(move || connection(addr, &mine, epoch, phase.seconds))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a load thread panicked".into()))
                })
                .collect()
        })
    });
    let mut got = vec![Got::Failed("no answer".into()); phase.requests.len()];
    let mut lag = vec![0.0; phase.requests.len()];
    for out in outs {
        for (i, g, l) in out? {
            got[i] = g;
            lag[i] = l;
        }
    }
    Ok((got, lag))
}

/// One connection's open loop. Returns, per request, what came back and
/// how late the generator issued it.
fn connection(
    addr: SocketAddr,
    reqs: &[(usize, &Req)],
    epoch: Instant,
    seconds: f64,
) -> Result<Vec<Outcome>, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_nonblocking(true).map_err(io)?;
    let mut got: Vec<Option<Got>> = vec![None; reqs.len()];
    let mut lag = vec![0.0; reqs.len()];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut inflight: Vec<usize> = Vec::new();
    let (mut next, mut batch_id) = (0usize, 0u64);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let give_up = seconds + 30.0;
    loop {
        let now = epoch.elapsed().as_secs_f64();
        while next < reqs.len() && reqs[next].1.due <= now {
            lag[next] = now - reqs[next].1.due;
            pending.push_back(next);
            next += 1;
        }
        if inflight.is_empty() && !pending.is_empty() {
            inflight = pending.drain(..).collect();
            batch_id += 1;
            let req = Request::Batch {
                id: batch_id,
                exprs: inflight.iter().map(|&k| reqs[k].1.text.clone()).collect(),
                deadline_ms: Some(DEADLINE_MS),
                max_steps: None,
                max_heap: None,
                max_stack: None,
            };
            send_all(&mut stream, &req.encode()).map_err(io)?;
        }
        if next == reqs.len() && inflight.is_empty() {
            break;
        }
        if now > give_up {
            return Err("the server stopped answering".into());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("the server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                // Socket timeouts tick in scheduler jiffies (up to 4 ms),
                // too coarse for the schedule: poll and sleep briefly.
                let until_due = reqs
                    .get(next)
                    .map_or(POLL, |r| Duration::from_secs_f64((r.1.due - now).max(0.0)));
                std::thread::sleep(until_due.min(POLL));
            }
            Err(e) => return Err(e.to_string()),
        }
        while buf.len() >= 4 {
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if buf.len() < 4 + len {
                break;
            }
            let at = epoch.elapsed().as_secs_f64();
            let resp = Response::decode(&buf[4..4 + len]).map_err(|e| e.to_string())?;
            buf.drain(..4 + len);
            let slot = |index: u64| -> Result<usize, String> {
                inflight
                    .get(index as usize)
                    .copied()
                    .ok_or_else(|| "response index out of range".to_string())
            };
            match resp {
                Response::Result {
                    index,
                    rendered,
                    exception,
                    cache_hit,
                    timed_out,
                    ..
                } => {
                    got[slot(index)?] = Some(Got::Answer {
                        answer: Answer {
                            rendered,
                            exception,
                        },
                        timed_out,
                        cache_hit,
                        at,
                    });
                }
                Response::JobError { index, message, .. } => {
                    got[slot(index)?] = Some(Got::Failed(message))
                }
                Response::Overloaded { index, .. } => got[slot(index)?] = Some(Got::Shed),
                Response::BatchDone { .. } => inflight.clear(),
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
    }
    Ok(reqs
        .iter()
        .zip(got)
        .zip(lag)
        .map(|(((i, _), g), l)| (*i, g.unwrap_or_else(|| Got::Failed("no answer".into())), l))
        .collect())
}

/// The traced run: a single-threaded replay of each request's handling
/// (untraced through a `Session`, then traced through the replica, with
/// repeats answered from the cache as the pool would), then the open loop
/// driven straight into an `EvalPool`, with spans around the wire codec
/// and `try_submit`.
fn traced_run(phases: &[Phase], refs: &HashMap<String, Expect>, seed: u64) -> Result<Run, String> {
    let program = gen::serve_program();
    let prefix = |p: &Phase| -> Vec<Req> {
        let cut = p.seconds * TRACED_SHARE;
        p.requests.iter().filter(|r| r.due < cut).cloned().collect()
    };
    let nominal = prefix(&phases[0]);
    let overload = prefix(&phases[1]);
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Untraced handling, as `handle_job` does it.
    let session: Session = pipeline::session(&program)?;
    let mut seen = HashSet::new();
    let mut plain_answers = Vec::new();
    let mut plain_times = Vec::new();
    for r in &nominal {
        let t0 = Instant::now();
        if seen.insert(r.text.clone()) {
            let (answer, _) = pipeline::eval(&session, &r.text)?;
            plain_answers.push(answer);
        } else {
            session.compile_expr(&r.text).map_err(|e| e.to_string())?;
        }
        plain_times.push(t0.elapsed().as_secs_f64());
    }

    // The same handling, traced.
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let replica = {
        let mut discard = Tracer::new(epoch);
        let mut r = Replica::new(&mut discard);
        r.load(&mut discard, &program)?;
        r.image(&mut discard);
        r
    };
    let mut counters = Counters::default();
    let mut seen = HashSet::new();
    let mut traced_answers = Vec::new();
    let mut service = Vec::new();
    let mut tokens = 0;
    for (i, r) in nominal.iter().enumerate() {
        tr.op = i as u32;
        let t0 = Instant::now();
        let first = seen.insert(r.text.clone());
        tr.span("op", |tr| -> Result<(), String> {
            if first {
                let (answer, stats) = replica.eval(tr, &r.text)?;
                counters.add(&stats);
                if !refs.get(&r.text).is_some_and(|e| e.admits(&answer)) {
                    eprintln!(
                        "serve_mixed: {:?} answered {answer:?} in the replay",
                        r.text
                    );
                    failed += 1;
                }
                traced_answers.push(answer);
            } else {
                replica.front_end(tr, &r.text)?;
            }
            Ok(())
        })?;
        service.push(t0.elapsed().as_secs_f64());
        tokens += urk_syntax::lexer::lex(&r.text).map_or(0, |t| t.len() as u64);
        attempted += 1;
    }
    let ops = nominal.len() as u64;
    let mut m = Metrics::default();
    layers::from_spans(&mut m, &tr.spans, ops, &counters, tokens, 0, &|_| false);
    let mean_ms = |t: &[f64]| t.iter().sum::<f64>() * 1e3 / t.len().max(1) as f64;
    let (plain_ms, traced_ms) = (mean_ms(&plain_times), mean_ms(&service));
    m.put("trace.overhead_ms", traced_ms - plain_ms, "ms", ops);
    m.put(
        "trace.self_share",
        layers::self_share(&tr.spans, ops, plain_ms),
        "ratio",
        ops,
    );
    let same = plain_answers == traced_answers;
    if !same {
        eprintln!("serve_mixed: traced and untraced answers differ");
    }

    // The open loop into the pool.
    let pool = EvalPool::start(&[&program], pipeline::options(), pool_config())
        .map_err(|e| e.to_string())?;
    pool.eval_batch(&(0..nproc()).map(|k| format!("{k} + 1")).collect::<Vec<_>>());
    let base = tr.spans.len();
    let (nom, nom_tr) = pool_phase(&pool, &nominal, refs, epoch);
    let cache = pool.cache_stats();
    let (over, _) = pool_phase(&pool, &overload, refs, epoch);
    pool.shutdown();
    tr.absorb(nom_tr);
    let wire = &tr.spans[base..];
    let wire_totals = crate::trace::totals(wire);
    let per_req_us = |name: &str| {
        wire_totals.get(name).map_or(0, |t| t.0) as f64 / 1e3 / nominal.len().max(1) as f64
    };
    m.put("wire.encode_us", per_req_us("wire.encode"), "us", ops);
    m.put("wire.decode_us", per_req_us("wire.decode"), "us", ops);
    m.put(
        "wire.bytes_per_req",
        nom.bytes as f64 / ops.max(1) as f64,
        "bytes",
        ops,
    );
    let jobs = &nom.job_ms;
    let job_mean = jobs.iter().map(|(_, ms)| ms).sum::<f64>() / jobs.len().max(1) as f64;
    let wait_mean = jobs
        .iter()
        .map(|(i, ms)| (ms - plain_times[*i] * 1e3).max(0.0))
        .sum::<f64>()
        / jobs.len().max(1) as f64;
    m.put("pool.job_ms", job_mean, "ms", jobs.len() as u64);
    m.put("pool.queue_wait_ms", wait_mean, "ms", jobs.len() as u64);
    m.put(
        "pool.queue_depth_mean",
        nom.depth_sum as f64 / nominal.len().max(1) as f64,
        "count",
        ops,
    );
    m.ratio(
        "cache.hit_ratio",
        cache.hits as f64,
        (cache.hits + cache.misses) as f64,
        "cache lookups (hits + misses)",
    );
    m.ratio(
        "serve.shed_frac",
        over.shed as f64,
        overload.len() as f64,
        "requests sent at the overload rate",
    );
    m.put("serve.generator_lag_ms", nom.lag_ms, "ms", ops);
    failed += nom.failed + over.failed;
    attempted += (nominal.len() + overload.len()) as u64;
    m.ratio(
        "failed_frac",
        failed as f64,
        attempted as f64,
        "attempted operations",
    );
    layers::complete(&mut m);

    let spans_path = report::results_dir().join(format!("serve_mixed-s{seed}-spans.jsonl"));
    std::fs::create_dir_all(report::results_dir()).map_err(|e| e.to_string())?;
    crate::trace::write_spans(&spans_path, &tr.spans).map_err(|e| e.to_string())?;
    let notes = vec![
        ("untraced_op_ms", plain_ms.to_string()),
        ("traced_op_ms", traced_ms.to_string()),
        ("overload_shed", over.shed.to_string()),
        ("spans", report::json_str(&spans_path.display().to_string())),
    ];
    Ok(Run {
        attempted,
        failed,
        consistent: same,
        metrics: m,
        notes,
    })
}

struct PoolPhase {
    /// (request index, submit → slot fulfilled) per admitted request.
    job_ms: Vec<(usize, f64)>,
    depth_sum: u64,
    shed: u64,
    failed: u64,
    bytes: u64,
    lag_ms: f64,
}

/// Open loop straight into `pool`: this thread submits on schedule while
/// a second collects each fulfilled slot.
fn pool_phase(
    pool: &EvalPool,
    reqs: &[Req],
    refs: &HashMap<String, Expect>,
    epoch: Instant,
) -> (PoolPhase, Tracer) {
    let (tx, rx) = std::sync::mpsc::channel::<(usize, SharedBatch<JobResult>, Instant)>();
    let start = Instant::now();
    let collector = |rx: std::sync::mpsc::Receiver<(usize, SharedBatch<JobResult>, Instant)>| {
        let mut tr = Tracer::new(epoch);
        let mut out: Vec<(usize, f64)> = Vec::new();
        let (mut failed, mut bytes) = (0u64, 0u64);
        let mut waiting: VecDeque<(usize, SharedBatch<JobResult>, Instant)> = VecDeque::new();
        let mut open = true;
        while open || !waiting.is_empty() {
            match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(job) => waiting.push_back(job),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            let mut k = 0;
            while k < waiting.len() {
                let ready = waiting[k].1.wait_timeout(Duration::ZERO);
                let Some(mut results) = ready else {
                    k += 1;
                    continue;
                };
                let (i, _, submitted) = waiting.remove(k).expect("index in range");
                let done = Instant::now();
                out.push((i, (done - submitted).as_secs_f64() * 1e3));
                tr.op = i as u32;
                let result = results.pop().expect("one slot");
                let ok = match result {
                    Ok(o) => {
                        let resp = Response::Result {
                            id: i as u64,
                            index: 0,
                            rendered: o.rendered.clone(),
                            exception: o.exception.as_ref().map(|e| e.to_string()),
                            cache_hit: o.cache_hit,
                            attempts: u64::from(o.attempts),
                            timed_out: o.timed_out,
                            stats: WireStats {
                                steps: o.stats.steps,
                                allocations: o.stats.allocations,
                                unboxed_hits: o.stats.unboxed_hits,
                                fused_steps: o.stats.fused_steps,
                                ic_hits: o.stats.ic_hits,
                                ic_misses: o.stats.ic_misses,
                                compile_ops: o.stats.compile_ops,
                                compile_micros: o.stats.compile_micros,
                                cache_hits: o.stats.cache_hits,
                                cache_misses: o.stats.cache_misses,
                                backend: o.stats.backend.name().to_string(),
                                tier: o.stats.tier.name().to_string(),
                            },
                        };
                        let encoded = tr.span("wire.encode", |_| resp.encode());
                        bytes += encoded.len() as u64 + 4;
                        let decoded = tr.span("wire.decode", |_| Response::decode(&encoded));
                        match decoded {
                            Ok(Response::Result {
                                rendered,
                                exception,
                                timed_out,
                                ..
                            }) => {
                                timed_out
                                    || refs.get(&reqs[i].text).is_some_and(|e| {
                                        e.admits(&Answer {
                                            rendered,
                                            exception,
                                        })
                                    })
                            }
                            _ => false,
                        }
                    }
                    Err(_) => false,
                };
                if !ok {
                    eprintln!(
                        "serve_mixed: {:?} answered wrongly through the pool",
                        reqs[i].text
                    );
                    failed += 1;
                }
            }
        }
        (tr, out, failed, bytes)
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || collector(rx));
        let mut tr = Tracer::new(epoch);
        let (mut shed, mut depth_sum, mut bytes, mut lag) = (0u64, 0u64, 0u64, 0.0);
        let mut lost = 0u64;
        for (i, r) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(r.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag += Instant::now().saturating_duration_since(due).as_secs_f64();
            tr.op = i as u32;
            let req = Request::Batch {
                id: i as u64,
                exprs: vec![r.text.clone()],
                deadline_ms: Some(DEADLINE_MS),
                max_steps: None,
                max_heap: None,
                max_stack: None,
            };
            let encoded = tr.span("wire.encode", |_| req.encode());
            bytes += encoded.len() as u64 + 4;
            let Ok(Request::Batch {
                exprs, deadline_ms, ..
            }) = tr.span("wire.decode", |_| Request::decode(&encoded))
            else {
                lost += 1;
                continue;
            };
            depth_sum += pool.queue_depth() as u64;
            let batch: SharedBatch<JobResult> = SharedBatch::new(1);
            let limits = JobLimits {
                deadline: deadline_ms.map(Duration::from_millis),
                ..JobLimits::default()
            };
            let submitted = Instant::now();
            match tr.span("pool.try_submit", |_| {
                pool.try_submit(&exprs[0], limits, 0, &batch)
            }) {
                Ok(()) => {
                    let _ = tx.send((i, batch, submitted));
                }
                Err(SubmitError::QueueFull | SubmitError::Closed) => shed += 1,
            }
        }
        drop(tx);
        let (ctr, out, failed, cbytes) = handle
            .join()
            .unwrap_or_else(|_| (Tracer::new(epoch), Vec::new(), 1, 0));
        tr.absorb(ctr);
        (
            PoolPhase {
                job_ms: out,
                depth_sum,
                shed,
                failed: failed + lost,
                bytes: bytes + cbytes,
                lag_ms: lag * 1e3 / reqs.len().max(1) as f64,
            },
            tr,
        )
    })
}

/// `write_frame` on a non-blocking socket: retries until every byte is
/// written.
fn send_all(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(std::io::Error::other)?;
    let mut frame = len.to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    let mut sent = 0;
    while sent < frame.len() {
        match stream.write(&frame[sent..]) {
            Ok(n) => sent += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
