//! The certified pipeline every workload runs, and its traced replica.
//!
//! [`options`] is the one place the engine and tier are chosen. The
//! replica drives the same crates' public functions in the order
//! `urk::Session` calls them, with a span around each call, so the traced
//! run attributes time to layers without instrumenting the program.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use urk::{Backend, Options, Session, Tier};
use urk_machine::{
    compile_program, tier2_optimize_certified, validate_tier2, Code, Machine, Outcome, Stats,
};
use urk_syntax::core::{CoreProgram, Expr};
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv, Symbol};
use urk_types::{infer_expr, infer_program, Scheme};

use crate::trace::Tracer;

/// The certified pipeline: the compiled engine at tier 2, every image
/// translation-validated before it is linked.
pub fn options() -> Options {
    Options {
        backend: Backend::Compiled,
        tier: Tier::Two,
        validate_tier2: true,
        ..Options::default()
    }
}

/// A session with `program` loaded and its tier-2 image built.
pub fn session(program: &str) -> Result<Session, String> {
    let mut s = Session::new();
    s.options = options();
    s.load(program).map_err(|e| e.to_string())?;
    s.compiled_code();
    Ok(s)
}

/// What one evaluation answered, in the form every check compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub rendered: String,
    pub exception: Option<String>,
}

/// `Session::eval` on an untraced session.
pub fn eval(s: &Session, src: &str) -> Result<(Answer, Stats), String> {
    let r = s.eval(src).map_err(|e| e.to_string())?;
    Ok((
        Answer {
            rendered: r.rendered,
            exception: r.exception.map(|e| e.to_string()),
        },
        r.stats,
    ))
}

/// `Session::run_main`, answered as the final value plus the output.
pub fn run_main(s: &Session, input: &str) -> Result<(Answer, Stats), String> {
    let out = s.run_main(input).map_err(|e| e.to_string())?;
    let rendered = match out.result {
        urk_io::IoResult::Done(v) => format!("done {v} / {}", out.trace.output()),
        other => format!("{other:?}"),
    };
    Ok((
        Answer {
            rendered,
            exception: None,
        },
        Stats::default(),
    ))
}

/// The traced replica of a `Session`.
pub struct Replica {
    data: DataEnv,
    program: CoreProgram,
    types: HashMap<Symbol, Scheme>,
    code: Option<Arc<Code>>,
}

impl Replica {
    /// `Session::new`: the Prelude through parse, desugar and inference.
    pub fn new(tr: &mut Tracer) -> Replica {
        tr.span("session.new", |tr| {
            let mut r = Replica {
                data: DataEnv::new(),
                program: CoreProgram::default(),
                types: HashMap::new(),
                code: None,
            };
            r.load_inner(tr, urk::prelude_source())
                .expect("the embedded Prelude compiles");
            r
        })
    }

    /// `Session::load`.
    pub fn load(&mut self, tr: &mut Tracer, src: &str) -> Result<(), String> {
        tr.span("session.load", |tr| self.load_inner(tr, src))
    }

    fn load_inner(&mut self, tr: &mut Tracer, src: &str) -> Result<(), String> {
        let parsed = tr
            .span("syntax.parse", |_| parse_program(src))
            .map_err(|e| e.to_string())?;
        let new = tr
            .span("syntax.desugar", |_| {
                desugar_program(&parsed, &mut self.data)
            })
            .map_err(|e| e.to_string())?;
        for (name, _) in &new.binds {
            if self.program.binds.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate definition {name}"));
            }
        }
        self.program.binds.extend(new.binds);
        self.program.sigs.extend(new.sigs);
        self.code = None;
        self.types = tr
            .span("types.infer_program", |_| {
                infer_program(&self.program, &self.data)
            })
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// `Session::compiled_code` at tier 2 with validation on: lower,
    /// analyse, optimise, audit the facts, validate the certificate.
    pub fn image(&mut self, tr: &mut Tracer) -> Arc<Code> {
        let (program, data) = (&self.program, &self.data);
        let code = tr.span("image", |tr| {
            let base = tr.span("machine.lower", |_| compile_program(&program.binds));
            let facts = tr.span("analysis.analyze", |_| {
                urk::tier2_facts_for(urk::analyze_program(program, data), &program.binds)
            });
            let (t2, cert) = tr.span("machine.tier2", |_| tier2_optimize_certified(&base, &facts));
            let claimed = tr.span("analysis.analyze", |_| {
                urk::analyze_program(program, data).binding_facts(&program.binds)
            });
            tr.span("analysis.audit", |_| {
                urk_analysis::audit_binding_facts(program, data, &claimed)
            })
            .expect("the tier-2 facts pass their audit");
            let fresh = tr.span("analysis.analyze", |_| {
                urk::tier2_facts_for(urk::analyze_program(program, data), &program.binds)
            });
            tr.span("machine.validate", |_| {
                validate_tier2(&base, &t2, &cert, &fresh)
            })
            .expect("the tier-2 image validates");
            Arc::new(t2)
        });
        self.code = Some(Arc::clone(&code));
        code
    }

    /// `Session::compile_expr`: parse, desugar and type the query.
    pub fn front_end(&self, tr: &mut Tracer, src: &str) -> Result<Rc<Expr>, String> {
        let surface = tr
            .span("syntax.parse", |_| parse_expr_src(src))
            .map_err(|e| e.to_string())?;
        let core = tr
            .span("syntax.desugar", |_| desugar_expr(&surface, &self.data))
            .map_err(|e| e.to_string())?;
        tr.span("types.infer_expr", |_| {
            infer_expr(&core, &self.data, &self.types)
        })
        .map_err(|e| e.to_string())?;
        Ok(Rc::new(core))
    }

    /// `Session::eval`: front end for the query, link, execute, render.
    pub fn eval(&self, tr: &mut Tracer, src: &str) -> Result<(Answer, Stats), String> {
        tr.span("eval", |tr| {
            let core = self.front_end(tr, src)?;
            let code = Arc::clone(self.code.as_ref().expect("image built before eval"));
            let opts = options();
            let mut m = tr.span("machine.link", |_| {
                let mut m = Machine::new(opts.machine.clone());
                m.link_code(code);
                m
            });
            let out = tr
                .span("machine.exec", |_| m.eval_code_expr(&core, false))
                .map_err(|e| e.to_string())?;
            let answer = tr.span("machine.render", |_| match out {
                Outcome::Value(n) => Answer {
                    rendered: m.render(n, opts.render_depth),
                    exception: None,
                },
                Outcome::Caught(e) | Outcome::Uncaught(e) => Answer {
                    rendered: format!("(raise {e})"),
                    exception: Some(e.to_string()),
                },
            });
            Ok((answer, m.stats().clone()))
        })
    }
}
