//! Seeded input generators, one per workload. The program under test
//! receives only the text these functions produce; everything else the
//! benchmark knows about an input (expected values, raise counts, depth
//! band) is computed here in plain Rust.

use crate::rng::{digest, Rng};

/// The `urk-bench` value shapes, loaded once by `eval_hot` and `serve_mixed`.
pub const HOT_DEFS: &str = "\
fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)
isPrime p = allFrom 2 p
allFrom d p = if d * d > p then True else (if p % d == 0 then False else allFrom (d + 1) p)
countPrimes lo hi acc = if lo > hi then acc else countPrimes (lo + 1) hi (if isPrime lo then acc + 1 else acc)
ins x ys = case ys of { [] -> [x]; z:zs -> if x <= z then x : z : zs else z : ins x zs }
isort xs = case xs of { [] -> []; y:ys -> ins y (isort ys) }
mklist n = if n == 0 then [] else (n * 37 % 101) : mklist (n - 1)
lsum xs = case xs of { [] -> 0; y:ys -> y + lsum ys }
checksum n = lsum (isort (mklist n))
upto n = if n == 0 then [] else n : upto (n - 1)
mapmul xs = case xs of { [] -> []; y:ys -> (y * 3) : mapmul ys }
keepeven xs = case xs of { [] -> []; y:ys -> if y % 2 == 0 then y : keepeven ys else keepeven ys }
total xs = case xs of { [] -> 0; y:ys -> y + total ys }
pipe n = total (keepeven (mapmul (upto n)))
";

/// The §3.3 raise shapes, loaded by `eval_raise` and `serve_mixed`.
pub const RAISE_DEFS: &str = "\
deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)
divSum k n = sum (map (\\i -> case unsafeGetException (k / (i % 3)) of { OK v -> v; Bad e -> 1 }) [1 .. n])
deepCatch d n = sum (map (\\i -> case unsafeGetException (deep d) of { OK v -> v; Bad e -> i }) [1 .. n])
poisonCount m n = length (filter (\\x -> case unsafeGetException x of { OK v -> False; Bad e -> True }) (map (\\i -> if i % m == 0 then i / 0 else i) [1 .. n]))
mapped d n = sum (map (\\i -> case unsafeGetException (mapException (\\e -> UserError \"mapped\") (deep d)) of { OK v -> v; Bad e -> i }) [1 .. n])
";

/// The IO `main` of `eval_raise`: per input digit, `getException` around
/// a division (raises on `0`) and around a 48–57-frame `deep`.
pub const IO_DEFS: &str = "\
ioStep c = do
  r <- getException (100 / (ord c - 48))
  case r of { OK v -> putStr (showInt v); Bad e -> putStr \"!\" }
  s <- getException (deep (ord c))
  case s of { OK v -> putStr \"?\"; Bad e -> putStr \"o\" }
ioLoop acc = do
  c <- getChar
  if ord c == 46 then return acc else ioStep c >> ioLoop (acc + 1)
main = ioLoop 0
";

/// One closed-loop input.
#[derive(Clone, Debug)]
pub struct Item {
    /// The program `cli_cold` loads for this operation (empty otherwise).
    pub program: String,
    /// The query evaluated, or the IO input for an IO item.
    pub query: String,
    /// True when `query` is the input of a `main` run, not an expression.
    pub io: bool,
    /// `eval_hot` only: the answer computed in plain Rust.
    pub expected: Option<String>,
    /// Exceptions the input raises, counted by construction.
    pub raises: u64,
    /// `cli_cold` only: the nesting band (0 low, 1 mid, 2 high).
    pub band: u8,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The program loaded once into the session (`eval_*`, serve).
    pub program: String,
    pub items: Vec<Item>,
}

impl Inputs {
    pub fn digest(&self) -> u64 {
        digest(
            std::iter::once(self.program.as_str()).chain(
                self.items
                    .iter()
                    .flat_map(|i| [i.program.as_str(), i.query.as_str()]),
            ),
        )
    }
}

/// Distinct inputs per closed-loop workload; operations cycle through them.
pub const POOL: usize = 48;

/// Sizes (and shapes) dealt from seeded permutations of fixed, evenly
/// spaced ladders: the seed decides which input gets which size, never
/// the total cost of a pool or of a stretch of requests.
struct Ladders {
    rng: Rng,
    decks: std::collections::HashMap<&'static str, Vec<i64>>,
}

impl Ladders {
    fn new(rng: Rng) -> Ladders {
        Ladders {
            rng,
            decks: std::collections::HashMap::new(),
        }
    }

    /// The next size for `key` from a ladder of `count` steps over
    /// `lo..=hi`; a used-up ladder is dealt again in a new order.
    fn draw(&mut self, key: &'static str, lo: i64, hi: i64, count: usize) -> i64 {
        let rng = &mut self.rng;
        let deck = self.decks.entry(key).or_default();
        if deck.is_empty() {
            let steps = (count.max(2) - 1) as i64;
            let mut d: Vec<i64> = (0..count as i64)
                .map(|j| lo + ((hi - lo) * j + steps / 2) / steps)
                .collect();
            for i in 0..d.len() {
                let j = i + rng.below(d.len() - i);
                d.swap(i, j);
            }
            *deck = d;
        }
        deck.pop().expect("a dealt ladder is not empty")
    }
}

pub fn cli_cold(seed: u64) -> Inputs {
    let mut rng = Rng::stream(seed, 1);
    // Bands, binding counts and Prelude use are spread evenly over the
    // pool rather than drawn, so that every seed's pool costs about the same.
    let items = (0..POOL)
        .map(|i| {
            let band = [0, 0, 1, 1, 2][i % 5];
            let nbinds = 3 + (i * 7) % 28;
            let program = cli_program(&mut rng, band, nbinds, (i * 11) % (TEMPLATES.len() + 1));
            let nbinds = program.lines().count();
            let query = format!("b{} {}", nbinds - 1, rng.range(0, 9));
            Item {
                program,
                query,
                io: false,
                expected: None,
                raises: 0,
                band,
            }
        })
        .collect();
    Inputs {
        program: String::new(),
        items,
    }
}

/// Prelude uses a `cli_cold` body may draw from; `{t}` is a let-bound
/// variable, so the argument is evaluated once.
const TEMPLATES: &[&str] = &[
    "sum (map (\\z -> z + {t}) [1 .. 4])",
    "length (filter even [{t} .. {t} + 6])",
    "foldl (\\p q -> p + q) {t} [1, 2, 3]",
    "head (sort [{t}, 3, 1])",
    "fromMaybe 0 (lookup 2 [(1, {t}), (2, 5)])",
    "length (reverse (replicate 3 {t}))",
    "abs {t}",
    "max {t} 4",
    "min {t} 9",
    "if elem 3 [{t}, 3] then 1 else 0",
    "product (take 2 [{t}, 2, 5])",
    "length (append [{t}] [1, 2])",
    "foldr (\\p q -> p + q) 0 (zipWith (\\p q -> p * q) [{t}, 1] [2, 3])",
    "if all even [{t}, 2] then 1 else 0",
    "if any odd [{t}, 2] then 1 else 0",
    "length (concat [[{t}], [1, 2]])",
    "sum (drop 1 [{t}, 2, 3])",
    "fst ({t}, 3)",
    "snd (2, {t})",
    "length (take {t} (iterate (\\w -> w + 1) 0))",
];

/// Nesting depth, node budget and paren-tower height per band. The high
/// band's tower is what makes the parser's section rewind visible.
const BANDS: [(u32, i32, (i64, i64)); 3] = [(2, 10, (0, 1)), (4, 24, (2, 5)), (6, 40, (11, 11))];

fn cli_program(rng: &mut Rng, band: u8, nbinds: usize, ntemplates: usize) -> String {
    let (depth, budget, tower) = BANDS[band as usize];
    let mut templates: Vec<usize> = (0..TEMPLATES.len()).collect();
    for i in 0..templates.len() {
        let j = i + rng.below(templates.len() - i);
        templates.swap(i, j);
    }
    templates.truncate(ntemplates);
    let mut out = String::new();
    for k in 0..nbinds {
        let mut g = ExprGen {
            rng: &mut *rng,
            fresh: 0,
            templates: &templates,
            calls_left: 1,
            callable: k,
            budget,
        };
        let mut vars = vec!["x".to_string()];
        let mut body = g.expr(depth, &mut vars);
        for _ in 0..rng.range(tower.0, tower.1) {
            body = format!("({} + {})", rng.range(1, 9), body);
        }
        out.push_str(&format!("b{k} x = ({body}) % 1000\n"));
    }
    out
}

struct ExprGen<'a> {
    rng: &'a mut Rng,
    fresh: u32,
    templates: &'a [usize],
    calls_left: u32,
    callable: usize,
    budget: i32,
}

impl ExprGen<'_> {
    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn atom(&mut self, vars: &[String]) -> String {
        if self.rng.chance(0.5) {
            vars[self.rng.below(vars.len())].clone()
        } else {
            self.rng.range(0, 20).to_string()
        }
    }

    /// An operand: compound expressions are parenthesised.
    fn operand(&mut self, depth: u32, vars: &mut Vec<String>) -> String {
        let e = self.expr(depth, vars);
        if e.contains(' ') {
            format!("({e})")
        } else {
            e
        }
    }

    fn expr(&mut self, depth: u32, vars: &mut Vec<String>) -> String {
        if depth == 0 || self.budget <= 0 {
            return self.atom(vars);
        }
        self.budget -= 1;
        let d = depth - 1;
        match self.rng.below(9) {
            0 => {
                let a = self.operand(d, vars);
                let b = self.operand(d, vars);
                let op = if self.rng.chance(0.5) { "+" } else { "-" };
                format!("{a} {op} {b}")
            }
            1 => {
                let a = self.operand(d, vars);
                format!("{a} * {}", self.rng.range(0, 3))
            }
            2 => {
                let v = self.name("v");
                let a = self.expr(d, vars);
                vars.push(v.clone());
                let b = self.expr(d, vars);
                vars.pop();
                format!("let {v} = {a} in {b}")
            }
            3 => {
                let a = self.operand(d, vars);
                let b = self.operand(d, vars);
                let c = self.expr(d, vars);
                let e = self.expr(d, vars);
                format!("if {a} < {b} then {c} else {e}")
            }
            4 => {
                let y = self.name("y");
                let t = self.name("t");
                let a = self.expr(d, vars);
                vars.push(y.clone());
                let b = self.operand(d, vars);
                vars.pop();
                format!("case [{a}] of {{ [] -> 0; {y}:{t} -> {y} + {b} }}")
            }
            5 => format!("({})", self.expr(d, vars)),
            6 if self.calls_left > 0 && self.callable > 0 => {
                self.calls_left -= 1;
                let j = self.rng.below(self.callable);
                let a = self.operand(d, vars);
                format!("b{j} {a}")
            }
            7 | 8 if !self.templates.is_empty() => {
                let t = self.name("t");
                let template = TEMPLATES[self.templates[self.rng.below(self.templates.len())]];
                let a = self.expr(d, vars);
                format!("let {t} = {a} in {}", template.replace("{t}", &t))
            }
            _ => {
                let a = self.operand(d, vars);
                let b = self.atom(vars);
                format!("{a} + {b}")
            }
        }
    }
}

/// `eval_hot`: every query sums four of eight value shapes, each sized
/// from a narrow band so that queries cost about the same; no exception
/// is raised. The expected value is computed in plain Rust.
pub fn eval_hot(seed: u64) -> Inputs {
    let mut rng = Ladders::new(Rng::stream(seed, 2));
    let items = (0..POOL)
        .map(|i| {
            // Every shape appears in exactly half of the queries.
            let mut terms = Vec::new();
            let mut expected: i64 = 0;
            for shape in [i, i + 1, i + 3, i + 5].map(|k| k % 8) {
                let (term, value) = hot_term(&mut rng, shape);
                terms.push(term);
                expected += value;
            }
            Item {
                program: String::new(),
                query: terms.join(" + "),
                io: false,
                expected: Some(expected.to_string()),
                raises: 0,
                band: 0,
            }
        })
        .collect();
    Inputs {
        program: HOT_DEFS.to_string(),
        items,
    }
}

fn hot_term(rng: &mut Ladders, shape: usize) -> (String, i64) {
    // Each shape is in half the queries.
    let mut size = |key, lo, hi| rng.draw(key, lo, hi, POOL / 2);
    match shape {
        0 => {
            let n = size("fib", 14, 16);
            (format!("fib {n}"), fib(n))
        }
        1 => {
            let n = size("sum_to", 2000, 5000);
            (format!("sumTo {n} 0"), n * (n + 1) / 2)
        }
        2 => {
            let h = size("primes", 300, 900);
            (format!("countPrimes 2 {h} 0"), count_primes(h))
        }
        3 => {
            let n = size("checksum", 40, 90);
            (format!("checksum {n}"), (1..=n).map(|i| i * 37 % 101).sum())
        }
        4 => {
            let n = size("pipe", 200, 500);
            let v = (1..=n).map(|y| y * 3).filter(|y| y % 2 == 0).sum();
            (format!("pipe {n}"), v)
        }
        5 => {
            let k = size("map_k", 2, 9);
            let n = size("map_n", 1000, 3000);
            let v = (1..=n).filter(|x| x % 2 == 0).map(|x| x * k).sum();
            (
                format!("sum (map (\\x -> x * {k}) (filter even [1 .. {n}]))"),
                v,
            )
        }
        6 => {
            let m = size("sort_m", 3, 97);
            let n = size("sort_n", 40, 90);
            let v = (1..=n).map(|i| i * m % 101).sum();
            (
                format!(
                    "foldl (\\a b -> a + b) 0 (sort (map (\\i -> (i * {m}) % 101) [1 .. {n}]))"
                ),
                v,
            )
        }
        _ => {
            let n = size("odd_n", 1000, 3000);
            let v = (1..=n).filter(|x| (x * 3 + 1) % 2 != 0).count() as i64;
            (
                format!("length (filter odd (map (\\x -> x * 3 + 1) [1 .. {n}]))"),
                v,
            )
        }
    }
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn count_primes(hi: i64) -> i64 {
    (2..=hi)
        .filter(|&p| (2..).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .count() as i64
}

/// `eval_raise`: the `eval_hot` shape, but every query raises and
/// catches densely; a quarter end in an uncaught raise whose denotation
/// has two members, and one item in eight is an IO `main` run.
pub fn eval_raise(seed: u64) -> Inputs {
    // One item in eight is IO; shape 3 is in half of the rest, the
    // uncaught tail in a quarter.
    const IO: usize = POOL / 8;
    const EVAL: usize = POOL - IO;
    let mut rng = Ladders::new(Rng::stream(seed, 3));
    let items = (0..POOL)
        .map(|i| {
            if i % 8 == 7 {
                let len = rng.draw("io_len", 16, 40, IO);
                let digits: String = (0..len)
                    .map(|_| char::from(b'0' + rng.rng.range(0, 9) as u8))
                    .collect();
                let zeros = digits.bytes().filter(|&b| b == b'0').count() as u64;
                return Item {
                    program: String::new(),
                    query: format!("{digits}."),
                    io: true,
                    expected: None,
                    raises: zeros + len as u64,
                    band: 0,
                };
            }
            let mut terms = Vec::new();
            let mut raises = 0;
            let mut size = |key, lo, hi, count| rng.draw(key, lo, hi, count);
            let n = size("div_n", 300, 900, EVAL);
            terms.push(format!("divSum {} {n}", size("div_k", 50, 150, EVAL)));
            raises += (n / 3) as u64;
            let n = size("catch_n", 40, 120, EVAL);
            terms.push(format!("deepCatch {} {n}", size("catch_d", 50, 120, EVAL)));
            raises += n as u64;
            let (m, n) = (
                size("poison_m", 3, 9, EVAL),
                size("poison_n", 300, 900, EVAL),
            );
            terms.push(format!("poisonCount {m} {n}"));
            raises += (n / m) as u64;
            if i % 2 == 0 {
                let n = size("mapped_n", 30, 80, POOL / 2);
                terms.push(format!(
                    "mapped {} {n}",
                    size("mapped_d", 50, 100, POOL / 2)
                ));
                raises += n as u64;
            }
            match i % 8 {
                2 => terms.push(format!(
                    "(deep {} + error \"Urk\")",
                    size("tail_d", 50, 120, POOL / 8)
                )),
                6 => terms.push("(1 / 0 + error \"Urk\")".to_string()),
                _ => {}
            }
            raises += u64::from(i % 4 == 2);
            Item {
                program: String::new(),
                query: terms.join(" + "),
                io: false,
                expected: None,
                raises,
                band: 0,
            }
        })
        .collect();
    Inputs {
        program: format!("{RAISE_DEFS}{IO_DEFS}"),
        items,
    }
}

/// The program `serve_mixed` loads into every worker.
pub fn serve_program() -> String {
    format!("{HOT_DEFS}{RAISE_DEFS}")
}

/// One open-loop request: its text and when it is due, in seconds from
/// the start of its phase.
#[derive(Clone, Debug)]
pub struct Request {
    pub text: String,
    pub due: f64,
}

/// Share of serve requests that repeat an earlier request verbatim: the
/// controlled input behind `cache.hit_ratio`.
pub const REPEAT_SHARE: f64 = 0.3;

/// Poisson arrivals at `rate` for `seconds`. Of every four fresh requests
/// one raises, one is costly and two are cheap; each fresh request adds a
/// random offset, so only the stated share of repeats can hit the cache.
pub fn serve_phase(seed: u64, phase: u64, rate: f64, seconds: f64) -> Vec<Request> {
    let mut deal = Ladders::new(Rng::stream(seed, 10 + phase));
    let mut out: Vec<Request> = Vec::new();
    let mut t = 0.0;
    let mut fresh = 0u64;
    loop {
        t += -(1.0 - deal.rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        if deal.draw("repeat", 0, 9, 10) < (REPEAT_SHARE * 10.0) as i64 && !out.is_empty() {
            let text = out[deal.rng.below(out.len())].text.clone();
            out.push(Request { text, due: t });
            continue;
        }
        fresh += 1;
        let shape = match fresh % 4 {
            0 => serve_raising(&mut deal),
            1 => serve_costly(&mut deal),
            _ => serve_cheap(&mut deal),
        };
        let text = format!("{shape} + {}", deal.rng.range(0, 999_999));
        out.push(Request { text, due: t });
    }
}

/// Ladder length for serve sizes.
const STEPS: usize = 12;

fn serve_cheap(d: &mut Ladders) -> String {
    match d.draw("cheap", 0, 5, 6) {
        0 => format!("{} * {}", d.rng.range(0, 9999), d.rng.range(0, 9999)),
        1 => format!("length [1 .. {}]", d.draw("length", 1, 300, STEPS)),
        2 => format!("fib {}", d.draw("small_fib", 5, 12, 8)),
        3 => format!("checksum {}", d.draw("small_checksum", 10, 40, STEPS)),
        4 => format!(
            "sum (map (\\x -> x + {}) [1 .. {}])",
            d.rng.range(0, 99),
            d.draw("map_n", 1, 200, STEPS)
        ),
        _ => format!("countPrimes 2 {} 0", d.draw("small_primes", 50, 300, STEPS)),
    }
}

fn serve_costly(d: &mut Ladders) -> String {
    match d.draw("costly", 0, 3, 4) {
        0 | 1 => format!("fib {}", d.draw("fib", 16, 19, 4)),
        2 => format!("countPrimes 2 {} 0", d.draw("primes", 800, 1500, STEPS)),
        _ => format!("checksum {}", d.draw("checksum", 80, 140, STEPS)),
    }
}

fn serve_raising(d: &mut Ladders) -> String {
    match d.draw("raising", 0, 6, 7) {
        0 => format!(
            "divSum {} {}",
            d.rng.range(10, 200),
            d.draw("div_n", 30, 200, STEPS)
        ),
        1 => format!("deep {}", d.draw("deep", 20, 200, STEPS)),
        2 => {
            let b = d.rng.range(0, 99);
            format!("{} / ({b} - {b})", d.rng.range(1, 9999))
        }
        3 => "(1 / 0) + error \"Urk\"".to_string(),
        4 => format!(
            "head (filter (\\x -> x > {}) [1 .. 10])",
            d.rng.range(10, 99)
        ),
        5 => format!(
            "deepCatch {} {}",
            d.draw("catch_d", 50, 100, STEPS),
            d.draw("catch_n", 5, 40, STEPS)
        ),
        _ => format!(
            "poisonCount {} {}",
            d.draw("poison_m", 2, 9, 8),
            d.draw("poison_n", 20, 200, STEPS)
        ),
    }
}

/// Byte-identical inputs for one seed, different inputs for another —
/// checked at the start of every run and by `--self-test`.
pub fn seed_self_test(workload: &str, seed: u64) -> Result<(), String> {
    let digest_of = |s: u64| -> u64 {
        match workload {
            "cli_cold" => cli_cold(s).digest(),
            "eval_hot" => eval_hot(s).digest(),
            "eval_raise" => eval_raise(s).digest(),
            _ => digest(
                serve_phase(s, 0, 200.0, 2.0)
                    .iter()
                    .map(|r| r.text.as_str()),
            ),
        }
    };
    let (a, b, c) = (digest_of(seed), digest_of(seed), digest_of(seed ^ 1));
    if a != b {
        return Err(format!(
            "{workload}: seed {seed} gave different inputs twice"
        ));
    }
    if a == c {
        return Err(format!(
            "{workload}: seeds {seed} and {} gave the same inputs",
            seed ^ 1
        ));
    }
    Ok(())
}
