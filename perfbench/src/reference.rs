//! References the compiler under test did not produce.
//!
//! `eval_hot` answers come from plain Rust (see `gen`). The other
//! workloads are checked against the `urk-denot` denotation, computed
//! before the timed loop in a child process (this binary with
//! `--reference`), so its time and memory stay out of the measured
//! process. A value must equal the denoted value; a raised exception must
//! be a member of the denoted set (the paper's *chosen ∈ denoted*).

use std::io::{BufRead, Write};
use std::process::{Command, Stdio};

use urk::Session;
use urk_denot::{show_denot, Denot, Env as DEnv};

use crate::gen::{self, Inputs};
use crate::pipeline::Answer;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Value(String),
    Raises(Vec<String>),
}

impl Expect {
    /// Whether the machine's answer refines the denotation.
    pub fn admits(&self, a: &Answer) -> bool {
        match (self, &a.exception) {
            (Expect::Value(v), None) => *v == a.rendered,
            (Expect::Raises(set), Some(e)) => set.contains(e),
            _ => false,
        }
    }

    fn line(&self) -> String {
        match self {
            Expect::Value(v) => format!("V {}", v.replace('\n', " ")),
            Expect::Raises(set) => format!("E {}", set.join("\t")),
        }
    }

    fn parse(line: &str) -> Option<Expect> {
        if let Some(v) = line.strip_prefix("V ") {
            Some(Expect::Value(v.to_string()))
        } else {
            line.strip_prefix("E ")
                .map(|s| Expect::Raises(s.split('\t').map(str::to_string).collect()))
        }
    }
}

/// The texts to be checked for `workload`: one per closed-loop item, or
/// one per distinct serve request (first-appearance order).
pub fn texts(workload: &str, seed: u64, seconds: f64) -> (Inputs, Vec<String>) {
    match workload {
        "cli_cold" => {
            let inputs = gen::cli_cold(seed);
            let texts = inputs.items.iter().map(|i| i.query.clone()).collect();
            (inputs, texts)
        }
        "eval_raise" => {
            let inputs = gen::eval_raise(seed);
            let texts = inputs.items.iter().map(|i| i.query.clone()).collect();
            (inputs, texts)
        }
        _ => {
            let mut seen = std::collections::HashSet::new();
            let mut texts = Vec::new();
            for phase in crate::serve::schedule(seed, seconds) {
                for r in phase.requests {
                    if seen.insert(r.text.clone()) {
                        texts.push(r.text);
                    }
                }
            }
            let inputs = Inputs {
                program: gen::serve_program(),
                items: Vec::new(),
            };
            (inputs, texts)
        }
    }
}

/// Child mode: prints the digest of the inputs, then one reference line
/// per text. The texts are split over the host's threads, each with its
/// own sessions on a large stack so the denotation's recursion fits.
pub fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<(), String> {
    let (inputs, texts) = texts(workload, seed, seconds);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lines: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (inputs, texts) = (&inputs, &texts);
                std::thread::Builder::new()
                    .stack_size(1 << 29)
                    .spawn_scoped(scope, move || {
                        let shared = match workload {
                            "cli_cold" => None,
                            _ => Some(denot_session(&inputs.program)?),
                        };
                        (t..texts.len())
                            .step_by(threads)
                            .map(|i| {
                                let item = inputs.items.get(i);
                                match &shared {
                                    None => {
                                        denote(&denot_session(&inputs.items[i].program)?, &texts[i])
                                    }
                                    Some(s) if item.is_some_and(|item| item.io) => {
                                        io_reference(s, &texts[i])
                                    }
                                    Some(s) => denote(s, &texts[i]),
                                }
                                .map(|e| e.line())
                            })
                            .collect()
                    })
                    .expect("spawning a reference thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a reference thread panicked".into()))
            })
            .collect()
    });
    let lines = lines.into_iter().collect::<Result<Vec<_>, _>>()?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "digest {:016x}",
        crate::rng::digest(texts.iter().map(String::as_str))
    )
    .map_err(io)?;
    for i in 0..texts.len() {
        writeln!(out, "{}", lines[i % threads][i / threads]).map_err(io)?;
    }
    out.flush().map_err(io)
}

fn denot_session(program: &str) -> Result<Session, String> {
    let mut s = Session::new();
    s.options.denot.fuel = 4_000_000_000;
    s.options.denot.max_depth = 200_000;
    s.load(program).map_err(|e| e.to_string())?;
    Ok(s)
}

fn denote(s: &Session, text: &str) -> Result<Expect, String> {
    let e = s.compile_expr(text).map_err(|e| e.to_string())?;
    let ev = s.denot_evaluator();
    let env = ev.bind_recursive(&s.program().binds, &DEnv::empty());
    let d = ev.eval(&e, &env);
    match &d {
        Denot::Ok(_) => Ok(Expect::Value(show_denot(&ev, &d, 32))),
        Denot::Bad(set) => match set.members() {
            Some(members) => Ok(Expect::Raises(
                members.iter().map(|m| m.to_string()).collect(),
            )),
            None => Err(format!("the denotation of {text:?} is bottom")),
        },
    }
}

/// The semantic IO run (§4.4's transition system) of `main` on `input`.
fn io_reference(s: &Session, input: &str) -> Result<Expect, String> {
    let out = s.run_main_semantic(input, 0).map_err(|e| e.to_string())?;
    match out.result {
        urk_io::SemIoResult::Done(v) => {
            Ok(Expect::Value(format!("done {v} / {}", out.trace.output())))
        }
        other => Err(format!("IO reference for {input:?} ended {other:?}")),
    }
}

/// Parent side: runs the child and reads its references.
pub fn fetch(workload: &str, seed: u64, seconds: f64) -> Result<Vec<Expect>, String> {
    let (_, texts) = texts(workload, seed, seconds);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args([
            "--reference",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the reference process: {e}"))?;
    let stdout = child.stdout.take().expect("piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut read = || -> Result<Vec<Expect>, String> {
        let header = lines
            .next()
            .ok_or("empty reference output")?
            .map_err(|e| e.to_string())?;
        let want = format!(
            "digest {:016x}",
            crate::rng::digest(texts.iter().map(String::as_str))
        );
        if header != want {
            return Err(format!("reference inputs differ: {header} vs {want}"));
        }
        let mut out = Vec::with_capacity(texts.len());
        for line in lines.by_ref() {
            let line = line.map_err(|e| e.to_string())?;
            out.push(Expect::parse(&line).ok_or_else(|| format!("bad reference line {line:?}"))?);
        }
        Ok(out)
    };
    let result = read();
    let status = child.wait().map_err(|e| e.to_string())?;
    let refs = result?;
    if !status.success() || refs.len() != texts.len() {
        return Err(format!(
            "reference process failed ({status}, {} of {} references)",
            refs.len(),
            texts.len()
        ));
    }
    Ok(refs)
}
