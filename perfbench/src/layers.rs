//! The per-layer metrics: their names and units, and how spans and
//! machine counters turn into them.

use urk_machine::Stats;

use crate::report::Metrics;
use crate::trace::{self, Span};

/// Every per-layer metric a traced run reports, with its unit. A metric
/// whose layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("syntax.parse_ms", "ms"),
    ("syntax.parse_ms.depth_hi", "ms"),
    ("syntax.desugar_ms", "ms"),
    ("syntax.tokens_per_ms", "1/ms"),
    ("types.infer_program_ms", "ms"),
    ("types.infer_expr_ms", "ms"),
    ("session.new_ms", "ms"),
    ("session.new.parse_ms", "ms"),
    ("session.new.desugar_ms", "ms"),
    ("session.new.infer_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.audit_ms", "ms"),
    ("machine.lower_ms", "ms"),
    ("machine.code_ops", "count"),
    ("machine.tier2_ms", "ms"),
    ("machine.validate_ms", "ms"),
    ("machine.link_ms", "ms"),
    ("machine.exec_ms", "ms"),
    ("machine.steps", "count"),
    ("machine.ns_per_step", "ns"),
    ("machine.allocations", "count"),
    ("machine.thunk_updates", "count"),
    ("machine.max_stack_depth", "count"),
    ("machine.render_ms", "ms"),
    ("tier2.fused_steps", "count"),
    ("tier2.ic_hit_ratio", "ratio"),
    ("heap.minor_gcs", "count"),
    ("heap.major_gcs", "count"),
    ("heap.nodes_promoted", "count"),
    ("heap.gc_freed", "count"),
    ("heap.unboxed_ratio", "ratio"),
    ("raise.count", "count"),
    ("raise.frames_trimmed", "count"),
    ("raise.frames_per_raise", "count"),
    ("raise.thunks_poisoned", "count"),
    ("io.run_main_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_req", "bytes"),
    ("pool.job_ms", "ms"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.queue_depth_mean", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.generator_lag_ms", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.self_share", "ratio"),
];

/// Summed machine counters of a set of evaluations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub steps: u64,
    pub allocations: u64,
    pub unboxed_hits: u64,
    pub thunk_updates: u64,
    pub max_stack_depth: u64,
    pub frames_trimmed: u64,
    pub thunks_poisoned: u64,
    pub minor_gcs: u64,
    pub major_gcs: u64,
    pub gc_freed: u64,
    pub nodes_promoted: u64,
    pub fused_steps: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub compile_ops: u64,
}

impl Counters {
    pub fn add(&mut self, s: &Stats) {
        self.steps += s.steps;
        self.allocations += s.allocations;
        self.unboxed_hits += s.unboxed_hits;
        self.thunk_updates += s.thunk_updates;
        self.max_stack_depth = self.max_stack_depth.max(s.max_stack_depth as u64);
        self.frames_trimmed += s.frames_trimmed;
        self.thunks_poisoned += s.thunks_poisoned;
        self.minor_gcs += s.minor_gcs;
        self.major_gcs += s.major_gcs;
        self.gc_freed += s.gc_freed;
        self.nodes_promoted += s.nodes_promoted;
        self.fused_steps += s.fused_steps;
        self.ic_hits += s.ic_hits;
        self.ic_misses += s.ic_misses;
        self.compile_ops += s.compile_ops;
    }

    /// The exact counters a replay compares (times excluded).
    pub fn replay_json(&self) -> String {
        format!(
            "{{\"steps\": {}, \"allocations\": {}, \"minor_gcs\": {}, \"major_gcs\": {}, \
             \"nodes_promoted\": {}, \"fused_steps\": {}, \"ic_hits\": {}, \
             \"frames_trimmed\": {}, \"thunks_poisoned\": {}}}",
            self.steps,
            self.allocations,
            self.minor_gcs,
            self.major_gcs,
            self.nodes_promoted,
            self.fused_steps,
            self.ic_hits,
            self.frames_trimmed,
            self.thunks_poisoned
        )
    }
}

const MS: f64 = 1e6;

/// Per-operation layer metrics from the spans and counters of `ops`
/// traced operations. `hi_ops` names the operations in `cli_cold`'s top
/// nesting band; `tokens` is the lexer's count over every source the
/// operations parsed; `raises` is counted by the generators.
pub fn from_spans(
    m: &mut Metrics,
    spans: &[Span],
    ops: u64,
    counters: &Counters,
    tokens: u64,
    raises: u64,
    hi_ops: &dyn Fn(u32) -> bool,
) {
    let totals = trace::totals(spans);
    let n = ops.max(1) as f64;
    let incl = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let per_op_ms = |name: &str| incl(name) / MS / n;
    for (metric, span) in [
        ("syntax.parse_ms", "syntax.parse"),
        ("syntax.desugar_ms", "syntax.desugar"),
        ("types.infer_program_ms", "types.infer_program"),
        ("types.infer_expr_ms", "types.infer_expr"),
        ("session.new_ms", "session.new"),
        ("analysis.analyze_ms", "analysis.analyze"),
        ("analysis.audit_ms", "analysis.audit"),
        ("machine.lower_ms", "machine.lower"),
        ("machine.tier2_ms", "machine.tier2"),
        ("machine.validate_ms", "machine.validate"),
        ("machine.link_ms", "machine.link"),
        ("machine.exec_ms", "machine.exec"),
        ("machine.render_ms", "machine.render"),
        ("io.run_main_ms", "io.run_main"),
    ] {
        m.put(metric, per_op_ms(span), "ms", ops);
    }
    for (metric, child) in [
        ("session.new.parse_ms", "syntax.parse"),
        ("session.new.desugar_ms", "syntax.desugar"),
        ("session.new.infer_ms", "types.infer_program"),
    ] {
        m.put(
            metric,
            trace::under(spans, "session.new", child) as f64 / MS / n,
            "ms",
            ops,
        );
    }
    let hi: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "op" && hi_ops(s.op))
        .map(|s| s.op)
        .collect();
    let hi_parse = trace::inclusive_where(spans, "syntax.parse", |op| hi.contains(&op));
    m.put(
        "syntax.parse_ms.depth_hi",
        hi_parse as f64 / MS / (hi.len().max(1)) as f64,
        "ms",
        hi.len() as u64,
    );
    let parse_ms = incl("syntax.parse") / MS;
    m.put(
        "syntax.tokens_per_ms",
        if parse_ms > 0.0 {
            tokens as f64 / parse_ms
        } else {
            0.0
        },
        "1/ms",
        tokens,
    );

    let c = counters;
    let per_op = |v: u64| v as f64 / n;
    m.put("machine.code_ops", per_op(c.compile_ops), "count", ops);
    m.put("machine.steps", per_op(c.steps), "count", ops);
    let exec_ns = incl("machine.exec");
    m.put(
        "machine.ns_per_step",
        if c.steps > 0 {
            exec_ns / c.steps as f64
        } else {
            0.0
        },
        "ns",
        c.steps,
    );
    m.put("machine.allocations", per_op(c.allocations), "count", ops);
    m.put(
        "machine.thunk_updates",
        per_op(c.thunk_updates),
        "count",
        ops,
    );
    m.put(
        "machine.max_stack_depth",
        c.max_stack_depth as f64,
        "count",
        ops,
    );
    m.put("tier2.fused_steps", per_op(c.fused_steps), "count", ops);
    m.ratio(
        "tier2.ic_hit_ratio",
        c.ic_hits as f64,
        (c.ic_hits + c.ic_misses) as f64,
        "inline-cache lookups (hits + misses)",
    );
    m.put("heap.minor_gcs", per_op(c.minor_gcs), "count", ops);
    m.put("heap.major_gcs", per_op(c.major_gcs), "count", ops);
    m.put(
        "heap.nodes_promoted",
        per_op(c.nodes_promoted),
        "count",
        ops,
    );
    m.put("heap.gc_freed", per_op(c.gc_freed), "count", ops);
    m.ratio(
        "heap.unboxed_ratio",
        c.unboxed_hits as f64,
        (c.unboxed_hits + c.allocations) as f64,
        "value requests (unboxed hits + allocations)",
    );
    m.put("raise.count", per_op(raises), "count", ops);
    m.put(
        "raise.frames_trimmed",
        per_op(c.frames_trimmed),
        "count",
        ops,
    );
    m.put(
        "raise.frames_per_raise",
        if raises > 0 {
            c.frames_trimmed as f64 / raises as f64
        } else {
            0.0
        },
        "count",
        raises,
    );
    m.put(
        "raise.thunks_poisoned",
        per_op(c.thunks_poisoned),
        "count",
        ops,
    );
}

/// Share of `op_ms` (the untraced time of one operation) that the layer
/// spans' self times cover, per operation. Glue spans (`op`, `eval`,
/// `image`, `session.*`) are not layers.
pub fn self_share(spans: &[Span], ops: u64, op_ms: f64) -> f64 {
    let glue = [
        "op",
        "eval",
        "image",
        "session.new",
        "session.load",
        "serve.request",
    ];
    let layer_ns: u64 = trace::totals(spans)
        .iter()
        .filter(|(name, _)| !glue.contains(name))
        .map(|(_, t)| t.1)
        .sum();
    let per_op_ms = layer_ns as f64 / MS / ops.max(1) as f64;
    if op_ms > 0.0 {
        per_op_ms / op_ms
    } else {
        0.0
    }
}

/// Fills every per-layer metric the workload did not reach with 0.
pub fn complete(m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        if !m.0.contains_key(name) {
            m.put(name, 0.0, unit, 0);
        }
    }
}
