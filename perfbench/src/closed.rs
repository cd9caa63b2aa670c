//! The closed-loop workloads: `cli_cold`, `eval_hot`, `eval_raise`. One
//! thread; each operation starts when the previous one has answered.

use std::time::{Duration, Instant};

use urk::Session;
use urk_machine::Stats;

use crate::gen::{self, Inputs, Item};
use crate::layers::{self, Counters};
use crate::pipeline::{self, Answer, Replica};
use crate::reference::{self, Expect};
use crate::report::{self, Metrics, Run};
use crate::speed;
use crate::trace::Tracer;

/// Set-ups of the one session per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Inputs evaluated twice before timing, for the counter replay.
const REPLAY: usize = 8;
/// Operations of the memory pass: twice over the pool, before timing.
const MEMORY_OPS: usize = 2 * gen::POOL;

struct Workload {
    name: &'static str,
    inputs: Inputs,
    refs: Vec<Expect>,
}

impl Workload {
    fn item(&self, i: usize) -> &Item {
        &self.inputs.items[i % self.inputs.items.len()]
    }

    fn expect(&self, i: usize) -> &Expect {
        &self.refs[i % self.refs.len()]
    }

    /// One untraced operation.
    fn op(&self, i: usize, session: Option<&Session>) -> Result<(Answer, Stats), String> {
        let item = self.item(i);
        match session {
            None => pipeline::eval(&pipeline::session(&item.program)?, &item.query),
            Some(s) if item.io => pipeline::run_main(s, &item.query),
            Some(s) => pipeline::eval(s, &item.query),
        }
    }

    /// The same operation through the traced replica.
    fn traced_op(
        &self,
        i: usize,
        tr: &mut Tracer,
        replica: Option<&Replica>,
        session: Option<&Session>,
    ) -> Result<(Answer, Stats), String> {
        let item = self.item(i);
        tr.op = i as u32;
        tr.span("op", |tr| match (replica, session) {
            (Some(_), Some(s)) if item.io => {
                tr.span("io.run_main", |_| pipeline::run_main(s, &item.query))
            }
            (Some(r), _) => r.eval(tr, &item.query),
            _ => {
                let mut r = Replica::new(tr);
                r.load(tr, &item.program)?;
                let image_ops = r.image(tr).op_count() as u64;
                let (answer, mut stats) = r.eval(tr, &item.query)?;
                stats.compile_ops += image_ops;
                Ok((answer, stats))
            }
        })
    }

    /// Tokens the lexer finds in every source operation `i` parses.
    fn tokens(&self, i: usize) -> u64 {
        let lex = |s: &str| urk_syntax::lexer::lex(s).map_or(0, |t| t.len() as u64);
        let item = self.item(i);
        if item.io {
            return 0;
        }
        let mut n = lex(&item.query);
        if self.name == "cli_cold" {
            n += lex(urk::prelude_source()) + lex(&item.program);
        }
        n
    }
}

pub fn run(name: &'static str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let inputs = match name {
        "cli_cold" => gen::cli_cold(seed),
        "eval_hot" => gen::eval_hot(seed),
        _ => gen::eval_raise(seed),
    };
    let refs = if name == "eval_hot" {
        inputs
            .items
            .iter()
            .map(|i| Expect::Value(i.expected.clone().expect("eval_hot items carry answers")))
            .collect()
    } else {
        reference::fetch(name, seed, seconds)?
    };
    let w = Workload { name, inputs, refs };

    // Set-up: the Prelude, the program and its validated tier-2 image.
    // `cli_cold` sets up each of its programs once (an operation without
    // the query); the others set up their one session repeatedly. Each
    // set-up is scaled by the speed readings on either side of it.
    let (mut setup_times, mut raw_setup_times) = (Vec::new(), Vec::new());
    let mut session = None;
    let mut kernel_before = speed::kernel_ms_median();
    let setups = if name == "cli_cold" {
        w.inputs.items.len()
    } else {
        SETUPS
    };
    for k in 0..setups {
        let t0 = Instant::now();
        let program = if name == "cli_cold" {
            &w.inputs.items[k].program
        } else {
            &w.inputs.program
        };
        let s = pipeline::session(program)?;
        let t = t0.elapsed().as_secs_f64();
        let kernel_after = speed::kernel_ms_median();
        raw_setup_times.push(t);
        setup_times.push(t * speed::factor(kernel_before, kernel_after));
        kernel_before = kernel_after;
        session = Some(s);
    }
    let session = if name == "cli_cold" { None } else { session };

    let mut notes = vec![("input_digest", format!("\"{:016x}\"", w.inputs.digest()))];
    let (replay_ok, replay_note) = replay(&w, session.as_ref(), seed)?;
    notes.push(("counter_replay", replay_note));

    let mut m = Metrics::default();
    let dur = Duration::from_secs_f64(seconds);
    let (attempted, failed, consistent) = if !traced {
        // A fixed amount of work, so the peak is a function of the
        // inputs alone: the symbol interner keeps every fresh name, and a
        // peak read after the timed loop would grow with the number of
        // operations the host's speed allowed (its tables double, so by
        // steps of megabytes). It also warms the caches before timing.
        let mut warm = Pass::default();
        for i in 0..MEMORY_OPS {
            let out = w.op(i, session.as_ref());
            record(&w, i, out, &mut warm, &mut |_| ());
        }
        let peak_rss = report::peak_rss_mb();
        let pass = timed(&w, session.as_ref(), dur);
        // A window the hypervisor stole from measured the neighbours, not
        // the program: the figures skip it, but keep at least the least
        // stolen third.
        let keep = speed::kept_windows(&pass.stolen, pass.windows.len().div_ceil(3));
        let kept: Vec<usize> = (0..pass.times.len())
            .filter(|&i| keep[pass.window[i]])
            .collect();
        let ms = |t: &[f64]| {
            let mut v: Vec<f64> = kept.iter().map(|&i| t[i] * 1e3).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let (lat, raw) = (ms(&pass.scaled), ms(&pass.times));
        let n = lat.len() as u64;
        let good = kept.iter().filter(|&&i| pass.good[i]).count();
        let (mut elapsed, mut scaled_elapsed) = (0.0, 0.0);
        for (k, &(t, f)) in pass.windows.iter().enumerate() {
            if keep[k] {
                elapsed += t;
                scaled_elapsed += t * f;
            }
        }
        let setup = report::median(&raw_setup_times);
        m.put(
            "setup_s",
            report::median(&setup_times),
            "s",
            setup_times.len() as u64,
        );
        m.put("ops_per_s", n as f64 / scaled_elapsed, "1/s", n);
        m.put("goodput_per_s", good as f64 / scaled_elapsed, "1/s", n);
        m.put("latency_p50_ms", report::quantile(&lat, 0.5), "ms", n);
        m.put("latency_p90_ms", report::quantile(&lat, 0.9), "ms", n);
        m.put("peak_rss_mb", peak_rss, "MiB", MEMORY_OPS as u64);
        notes.push(("latency_p99_ms", report::quantile(&lat, 0.99).to_string()));
        notes.push((
            "peak_rss_mb_after_timing",
            report::peak_rss_mb().to_string(),
        ));
        let clean = keep.iter().filter(|&&k| k).count();
        notes.push((
            "windows",
            format!(
                "{{\"run\": {}, \"counted\": {clean}, \"mean_stolen\": {}}}",
                pass.windows.len(),
                pass.stolen.iter().sum::<f64>() / pass.stolen.len().max(1) as f64
            ),
        ));
        notes.push((
            "unscaled",
            format!(
                "{{\"setup_s\": {setup}, \"ops_per_s\": {}, \"latency_p50_ms\": {}, \"latency_p90_ms\": {}, \"mean_speed_factor\": {}}}",
                n as f64 / elapsed,
                report::quantile(&raw, 0.5),
                report::quantile(&raw, 0.9),
                scaled_elapsed / elapsed
            ),
        ));
        let attempted = (pass.times.len() + MEMORY_OPS) as u64;
        (attempted, pass.failed + warm.failed, replay_ok)
    } else {
        let (a, f, same) = traced_run(&w, session.as_ref(), dur, &mut m, &mut notes, seed)?;
        (a, f, replay_ok && same)
    };
    Ok(Run {
        attempted,
        failed,
        consistent,
        metrics: m,
        notes,
    })
}

#[derive(Default)]
struct Pass {
    answers: Vec<Answer>,
    /// Per operation, seconds as measured.
    times: Vec<f64>,
    /// The same, scaled to the reference host speed.
    scaled: Vec<f64>,
    /// Per operation, whether its answer was right, and its window.
    good: Vec<bool>,
    window: Vec<usize>,
    /// Per window, its length in seconds and its speed factor.
    windows: Vec<(f64, f64)>,
    /// Per window, the share of CPU time the hypervisor stole.
    stolen: Vec<f64>,
    failed: u64,
}

/// Operations run for this long between two readings of the speed kernel.
const WINDOW: Duration = Duration::from_millis(100);

/// Operations from input 0 on, for `dur` of operation time; every answer
/// is checked.
fn timed(w: &Workload, session: Option<&Session>, dur: Duration) -> Pass {
    let mut pass = Pass::default();
    let mut measured = Duration::ZERO;
    let mut kernel_before = speed::kernel_ms_median();
    let mut i = 0;
    while measured < dur {
        let first = pass.times.len();
        let ticks = speed::cpu_ticks();
        let w0 = Instant::now();
        while w0.elapsed() < WINDOW && measured + w0.elapsed() < dur {
            let t0 = Instant::now();
            let out = w.op(i, session);
            pass.times.push(t0.elapsed().as_secs_f64());
            let failed = pass.failed;
            record(w, i, out, &mut pass, &mut |_| ());
            pass.good.push(pass.failed == failed);
            pass.window.push(pass.windows.len());
            i += 1;
        }
        let window = w0.elapsed();
        measured += window;
        pass.stolen.push(speed::stolen(ticks, speed::cpu_ticks()));
        let kernel_after = speed::kernel_ms_median();
        let f = speed::factor(kernel_before, kernel_after);
        kernel_before = kernel_after;
        pass.scaled
            .extend(pass.times[first..].iter().map(|t| t * f));
        pass.windows.push((window.as_secs_f64(), f));
    }
    pass
}

fn record(
    w: &Workload,
    i: usize,
    out: Result<(Answer, Stats), String>,
    pass: &mut Pass,
    each: &mut dyn FnMut(&Stats),
) {
    match out {
        Ok((answer, stats)) => {
            if !w.expect(i).admits(&answer) {
                eprintln!(
                    "{}: input {} answered {:?}, reference {:?}",
                    w.name,
                    i % w.inputs.items.len(),
                    answer,
                    w.expect(i)
                );
                pass.failed += 1;
            }
            each(&stats);
            pass.answers.push(answer);
        }
        Err(e) => {
            eprintln!("{}: input {} failed: {e}", w.name, i % w.inputs.items.len());
            pass.failed += 1;
            pass.answers.push(Answer {
                rendered: e,
                exception: None,
            });
        }
    }
}

/// Evaluates the first inputs twice and compares the exact counters;
/// then compares them with an earlier run of the same inputs on the same
/// sources, if one left its record.
fn replay(w: &Workload, session: Option<&Session>, seed: u64) -> Result<(bool, String), String> {
    let mut sums = [Counters::default(), Counters::default()];
    for sum in &mut sums {
        for i in 0..REPLAY {
            let (_, stats) = w.op(i, session)?;
            sum.add(&stats);
        }
    }
    let now = sums[0].replay_json();
    let mut ok = sums[0] == sums[1];
    if !ok {
        eprintln!(
            "{}: counters differ between two replays of one seed",
            w.name
        );
    }
    // Keyed by the inputs and by the sources of the program and of this
    // benchmark: only a rerun of the same code on the same inputs compares.
    let path = report::results_dir().join(format!(
        "counters-{}-s{seed}-{:016x}-{}.json",
        w.name,
        w.inputs.digest(),
        report::source_digest()
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() != now => {
            eprintln!(
                "{}: counters differ from an earlier run of this seed ({})",
                w.name,
                path.display()
            );
            ok = false;
        }
        Ok(_) => {}
        Err(_) => {
            std::fs::create_dir_all(report::results_dir()).map_err(|e| e.to_string())?;
            std::fs::write(&path, format!("{now}\n")).map_err(|e| e.to_string())?;
        }
    }
    Ok((
        ok,
        format!("{{\"inputs\": {REPLAY}, \"deterministic\": {ok}, \"counters\": {now}}}"),
    ))
}

/// Untraced and traced operations alternate over the same inputs, each
/// for half the time; the answers must agree, and the difference in time
/// per operation is the tracing overhead.
fn traced_run(
    w: &Workload,
    session: Option<&Session>,
    dur: Duration,
    m: &mut Metrics,
    notes: &mut Vec<(&'static str, String)>,
    seed: u64,
) -> Result<(u64, u64, bool), String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let replica = match session {
        Some(_) => {
            let mut discard = Tracer::new(epoch);
            let mut r = Replica::new(&mut discard);
            r.load(&mut discard, &w.inputs.program)?;
            r.image(&mut discard);
            Some(r)
        }
        None => None,
    };
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let mut counters = Counters::default();
    let (mut tokens, mut raises) = (0, 0);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < dur {
        let t0 = Instant::now();
        let out = w.op(i, session);
        plain.times.push(t0.elapsed().as_secs_f64());
        record(w, i, out, &mut plain, &mut |_| ());

        let t0 = Instant::now();
        let out = w.traced_op(i, &mut tr, replica.as_ref(), session);
        traced.times.push(t0.elapsed().as_secs_f64());
        record(w, i, out, &mut traced, &mut |s| counters.add(s));
        tokens += w.tokens(i);
        raises += w.item(i).raises;
        i += 1;
    }
    let ops = i as u64;

    let common = plain.answers.len().min(traced.answers.len());
    let same = plain.answers[..common] == traced.answers[..common];
    if !same {
        eprintln!("{}: traced and untraced answers differ", w.name);
    }
    let mean_ms = |t: &[f64]| t[..common].iter().sum::<f64>() * 1e3 / common.max(1) as f64;
    let (plain_ms, traced_ms) = (mean_ms(&plain.times), mean_ms(&traced.times));

    let hi = |op: u32| w.item(op as usize).band == 2;
    layers::from_spans(m, &tr.spans, ops, &counters, tokens, raises, &hi);
    let attempted = 2 * ops;
    let failed = plain.failed + traced.failed;
    m.ratio(
        "failed_frac",
        failed as f64,
        attempted as f64,
        "attempted operations",
    );
    m.put(
        "trace.overhead_ms",
        traced_ms - plain_ms,
        "ms",
        common as u64,
    );
    m.put(
        "trace.self_share",
        layers::self_share(&tr.spans, ops, plain_ms),
        "ratio",
        ops,
    );
    layers::complete(m);
    notes.push(("untraced_op_ms", plain_ms.to_string()));
    notes.push(("traced_op_ms", traced_ms.to_string()));

    let spans_path = report::results_dir().join(format!("{}-s{seed}-spans.jsonl", w.name));
    std::fs::create_dir_all(report::results_dir()).map_err(|e| e.to_string())?;
    crate::trace::write_spans(&spans_path, &tr.spans).map_err(|e| e.to_string())?;
    notes.push(("spans", report::json_str(&spans_path.display().to_string())));
    Ok((attempted, failed, same))
}
