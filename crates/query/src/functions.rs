//! Scalar and aggregate function implementations.
//!
//! Aggregates are built on *mergeable accumulators* ([`AggAcc`]): every
//! engine — the naive reference interpreter, the serial columnar executor
//! and the partition-parallel executor — feeds rows into the same
//! accumulator type and the parallel executor additionally merges partial
//! states across partitions. Floating-point sums use [`ExactSum`]
//! (Shewchuk-style error-free accumulation, finished with the `fsum`
//! rounding step), so a sum is the correctly rounded exact result and is
//! therefore *independent of partitioning*: serial, parallel and reference
//! results are bit-identical by construction, not by luck.
//!
//! Both aggregate operators hold their accumulators in [`AggColumn`]s over a
//! run of groups, one per aggregate call except that the calls that fold
//! from one argument's moments share one: the same states laid out a column
//! per field when the inputs are `f64`s and the aggregate is one of the
//! seven with a column form, an `AggAcc` per call and group otherwise. `AggAcc`
//! stays their definition (a slot that cannot stay dense becomes one) and
//! their oracle.

use crate::column::Column;
use crate::value::Value;
use crate::{QueryError, Result};

/// True when `name` (uppercase) is an aggregate function.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "AVG" | "SUM" | "MIN" | "MAX" | "COUNT" | "STDDEV" | "VARIANCE" | "PERCENTILE")
}

/// True when `name` (uppercase) is a window function.
pub fn is_window(name: &str) -> bool {
    matches!(name, "LAG" | "LEAD")
}

/// Evaluates a scalar function over already-evaluated arguments.
pub fn eval_scalar(name: &str, args: &[Value]) -> Result<Value> {
    match name {
        "CONCAT" => {
            // NULL inputs render as empty (Spark-style CONCAT returns NULL;
            // the paper's grouping keys are friendlier with empty) — we
            // follow the forgiving variant and document it.
            let mut s = String::new();
            for a in args {
                if !a.is_null() {
                    s.push_str(&a.render());
                }
            }
            Ok(Value::Str(s))
        }
        "SPLIT" => {
            expect_arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) => Ok(Value::Null),
                (Value::Str(s), Value::Str(sep)) => {
                    if sep.is_empty() {
                        return Err(QueryError::BadFunction(
                            "SPLIT separator must be non-empty".into(),
                        ));
                    }
                    Ok(Value::List(
                        s.split(sep.as_str()).map(|p| Value::Str(p.to_string())).collect(),
                    ))
                }
                _ => Err(QueryError::Type("SPLIT expects (string, string)".into())),
            }
        }
        "UPPER" => unary_string(name, args, |s| s.to_uppercase()),
        "LOWER" => unary_string(name, args, |s| s.to_lowercase()),
        "TRIM" => unary_string(name, args, |s| s.trim().to_string()),
        "LENGTH" => {
            expect_arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::List(l) => Ok(Value::Int(l.len() as i64)),
                _ => Err(QueryError::Type("LENGTH expects a string or list".into())),
            }
        }
        "COALESCE" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "GREATEST" => fold_numeric(name, args, f64::max),
        "LEAST" => fold_numeric(name, args, f64::min),
        "ABS" => unary_numeric(name, args, f64::abs),
        "SQRT" => unary_numeric(name, args, f64::sqrt),
        "LN" => unary_numeric(name, args, f64::ln),
        "EXP" => unary_numeric(name, args, f64::exp),
        "FLOOR" => unary_numeric(name, args, f64::floor),
        "CEIL" => unary_numeric(name, args, f64::ceil),
        "ROUND" => {
            if args.len() == 1 {
                return unary_numeric(name, args, |v| v.round());
            }
            expect_arity(name, args, 2)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let v = numeric_arg(name, &args[0])?;
            let digits = args[1]
                .as_i64()
                .ok_or_else(|| QueryError::Type("ROUND digits must be integer".into()))?;
            let scale = 10f64.powi(digits as i32);
            Ok(Value::Float((v * scale).round() / scale))
        }
        "POW" | "POWER" => {
            expect_arity(name, args, 2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let a = numeric_arg(name, &args[0])?;
            let b = numeric_arg(name, &args[1])?;
            Ok(Value::Float(a.powf(b)))
        }
        "SUBSTR" | "SUBSTRING" => {
            // SUBSTR(s, start_1_based[, len])
            if args.len() != 2 && args.len() != 3 {
                return Err(QueryError::BadFunction(format!("{name} expects 2 or 3 args")));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| QueryError::Type("SUBSTR expects a string".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| QueryError::Type("SUBSTR start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let begin = (start.max(1) as usize - 1).min(chars.len());
            let end = match args.get(2) {
                Some(l) => {
                    let len = l
                        .as_i64()
                        .ok_or_else(|| QueryError::Type("SUBSTR length must be integer".into()))?
                        .max(0) as usize;
                    (begin + len).min(chars.len())
                }
                None => chars.len(),
            };
            Ok(Value::Str(chars[begin..end].iter().collect()))
        }
        "REPLACE" => {
            expect_arity(name, args, 3)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            match (&args[0], &args[1], &args[2]) {
                (Value::Str(s), Value::Str(from), Value::Str(to)) => {
                    Ok(Value::Str(s.replace(from.as_str(), to)))
                }
                _ => Err(QueryError::Type("REPLACE expects three strings".into())),
            }
        }
        "HOSTGROUP" => {
            // The UDF from Appendix C: hostgroup('web-12') == 'web'.
            expect_arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => {
                    Ok(Value::Str(s.split('-').next().unwrap_or_default().to_string()))
                }
                _ => Err(QueryError::Type("HOSTGROUP expects a string".into())),
            }
        }
        "IF" => {
            expect_arity(name, args, 3)?;
            Ok(if args[0].is_true() { args[1].clone() } else { args[2].clone() })
        }
        "NULLIF" => {
            expect_arity(name, args, 2)?;
            if args[0].sql_cmp(&args[1]) == Some(std::cmp::Ordering::Equal) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        other => Err(QueryError::BadFunction(format!("unknown function {other}"))),
    }
}

/// Evaluates an aggregate function over a group's argument values.
///
/// `args_per_row` holds, for each row in the group, the evaluated argument
/// list. NULL first-arguments are skipped (SQL semantics) except by COUNT
/// whose argument convention here is `COUNT(*)` ≙ `COUNT(1)`.
pub fn eval_aggregate(name: &str, args_per_row: &[Vec<Value>]) -> Result<Value> {
    let mut acc = AggAcc::new(name)
        .ok_or_else(|| QueryError::BadFunction(format!("unknown aggregate {name}")))?;
    for row in args_per_row {
        acc.push(row)?;
    }
    acc.finish()
}

// ---------------------------------------------------------------------------
// Mergeable aggregate accumulators
// ---------------------------------------------------------------------------

/// Error-free f64 accumulation: a Shewchuk expansion of non-overlapping
/// partials whose sum is the *exact* real sum of everything added.
///
/// Because the expansion represents the exact sum, adding values (or
/// merging whole expansions) in any order produces the same final
/// [`ExactSum::value`] — the property the partition-parallel aggregate
/// relies on to match serial execution bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Non-overlapping partials, ascending in magnitude.
    partials: Vec<f64>,
    /// Plain running sum of non-finite inputs (inf/NaN poison the
    /// two-sum trick; they propagate here instead, order-independently).
    special: f64,
}

impl ExactSum {
    /// An expansion from its parts, as [`ExactSum::add`] left them.
    pub(crate) fn from_parts(partials: Vec<f64>, special: f64) -> ExactSum {
        ExactSum { partials, special }
    }

    /// Adds one value.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let (kept, top) = grow_expansion(&mut self.partials, x);
        self.partials.truncate(kept);
        self.partials.push(top);
    }

    /// Folds another expansion in (still exact).
    pub fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
        self.special += other.special;
    }

    /// The correctly rounded sum (CPython `math.fsum` finalization).
    pub fn value(&self) -> f64 {
        expansion_value(&self.partials, self.special)
    }
}

/// [`ExactSum::add`]'s walk of a finite `x` up an expansion: two-sums it
/// with each partial in ascending order, compacting the non-zero low parts
/// to the front. Returns how many low parts were kept and the new top
/// partial; the expansion is then `partials[..kept] ++ [top]`.
///
/// The step is Knuth's branch-free TwoSum, and the compaction stores every
/// low part but moves past only a non-zero one. Where nothing overflows,
/// TwoSum's low part is the exact rounding error, which the ordered step
/// (larger magnitude first, then subtract) gives too; where an intermediate
/// overflows it is not finite, and the ordered step is taken instead. So
/// the partials are the ordered step's, bit for bit, which the tests hold
/// the walk to.
#[inline]
fn grow_expansion(partials: &mut [f64], mut x: f64) -> (usize, f64) {
    let mut kept = 0;
    for j in 0..partials.len() {
        let y = partials[j];
        let hi = x + y;
        let yy = hi - x;
        let mut lo = (x - (hi - yy)) + (y - yy);
        if !lo.is_finite() {
            let (big, small) = if x.abs() < y.abs() { (y, x) } else { (x, y) };
            lo = small - (hi - big);
        }
        partials[kept] = lo;
        kept += usize::from(lo != 0.0);
        x = hi;
    }
    (kept, x)
}

/// The correctly rounded value of an expansion and its non-finite sum
/// ([`ExactSum::value`]).
fn expansion_value(partials: &[f64], special: f64) -> f64 {
    if special != 0.0 || special.is_nan() {
        return special + partials.iter().sum::<f64>();
    }
    let mut n = partials.len();
    if n == 0 {
        return 0.0;
    }
    n -= 1;
    let mut x = partials[n];
    let mut lo = 0.0;
    while n > 0 {
        n -= 1;
        let y = partials[n];
        let hi = x + y;
        lo = y - (hi - x);
        x = hi;
        if lo != 0.0 {
            break;
        }
    }
    // Round-half-even correction against the next lower partial.
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let z = x + y;
        if y == z - x {
            x = z;
        }
    }
    x
}

/// One aggregate's mergeable partial state.
///
/// Every engine computes aggregates by `new` → `push` per row → `finish`;
/// the partition-parallel executor additionally `merge`s partials in
/// partition order. For each function, `merge` is *exactly* equivalent to
/// having pushed the second partial's rows after the first's — sums are
/// error-free (see [`ExactSum`]), COUNT/SUM-over-Int are integer-exact,
/// MIN/MAX folds candidates per comparability class, and PERCENTILE gathers
/// raw values and only sorts at `finish` — so partitioning never changes a
/// result.
#[derive(Debug, Clone)]
pub enum AggAcc {
    /// `COUNT(x)`: non-null rows.
    Count {
        /// Rows counted so far.
        n: i64,
    },
    /// `SUM(x)`: Int-typed when every input is an Int, Float otherwise.
    Sum {
        /// Exact integer sum (i128 cannot overflow from i64 inputs).
        int: i128,
        /// Exact float sum over all numeric inputs.
        float: ExactSum,
        /// True once any non-Int numeric input was seen.
        saw_float: bool,
        /// Numeric inputs seen.
        n: usize,
    },
    /// `AVG(x)`.
    Avg {
        /// Exact sum.
        sum: ExactSum,
        /// Numeric inputs seen.
        n: usize,
    },
    /// `VARIANCE(x)` / `STDDEV(x)` — *sample* (n−1) variance.
    Var {
        /// Exact Σv.
        sum: ExactSum,
        /// Exact Σv².
        sumsq: ExactSum,
        /// Numeric inputs seen.
        n: usize,
        /// Take the square root at finish (STDDEV).
        stddev: bool,
    },
    /// `MIN(x)` / `MAX(x)`.
    MinMax {
        /// One running best per comparability class, in first-seen class
        /// order; the head is the fold result. Keeping per-class bests
        /// makes the merge order-equivalent to the serial row fold even
        /// when a group mixes incomparable types.
        candidates: Vec<Value>,
        /// MIN when true.
        want_min: bool,
    },
    /// `PERCENTILE(x, p)` with constant `p` per group.
    Percentile {
        /// Gathered numeric inputs (sorted at finish).
        vals: Vec<f64>,
        /// The pinned p (first non-null seen; later disagreement errors).
        p: Option<f64>,
    },
}

impl AggAcc {
    /// A fresh accumulator for the (uppercase) aggregate name.
    pub fn new(name: &str) -> Option<AggAcc> {
        Some(match name {
            "COUNT" => AggAcc::Count { n: 0 },
            "SUM" => AggAcc::Sum { int: 0, float: ExactSum::default(), saw_float: false, n: 0 },
            "AVG" => AggAcc::Avg { sum: ExactSum::default(), n: 0 },
            "VARIANCE" => AggAcc::Var {
                sum: ExactSum::default(),
                sumsq: ExactSum::default(),
                n: 0,
                stddev: false,
            },
            "STDDEV" => AggAcc::Var {
                sum: ExactSum::default(),
                sumsq: ExactSum::default(),
                n: 0,
                stddev: true,
            },
            "MIN" => AggAcc::MinMax { candidates: Vec::new(), want_min: true },
            "MAX" => AggAcc::MinMax { candidates: Vec::new(), want_min: false },
            "PERCENTILE" => AggAcc::Percentile { vals: Vec::new(), p: None },
            _ => return None,
        })
    }

    /// Feeds one row's evaluated argument list.
    pub fn push(&mut self, args: &[Value]) -> Result<()> {
        let first = args.first().unwrap_or(&Value::Null);
        match self {
            AggAcc::Count { n } => {
                if !first.is_null() {
                    *n += 1;
                }
            }
            AggAcc::Sum { int, float, saw_float, n } => match first {
                Value::Int(i) => {
                    *int += i128::from(*i);
                    float.add(*i as f64);
                    *n += 1;
                }
                other => {
                    if let Some(f) = other.as_f64() {
                        float.add(f);
                        *saw_float = true;
                        *n += 1;
                    }
                }
            },
            AggAcc::Avg { sum, n } => {
                if let Some(f) = first.as_f64() {
                    sum.add(f);
                    *n += 1;
                }
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                if let Some(f) = first.as_f64() {
                    sum.add(f);
                    sumsq.add(f * f);
                    *n += 1;
                }
            }
            AggAcc::MinMax { candidates, want_min } => {
                if !first.is_null() {
                    fold_minmax(candidates, first.clone(), *want_min);
                }
            }
            AggAcc::Percentile { vals, p } => {
                if let Some(pv) = args.get(1).and_then(Value::as_f64) {
                    if !(0.0..=1.0).contains(&pv) {
                        return Err(QueryError::BadFunction(
                            "PERCENTILE p must be in [0,1]".into(),
                        ));
                    }
                    match *p {
                        None => *p = Some(pv),
                        Some(prev) if prev == pv => {}
                        Some(prev) => {
                            return Err(QueryError::BadFunction(format!(
                                "PERCENTILE p must be constant within a group (saw {prev} and {pv})"
                            )))
                        }
                    }
                }
                if let Some(v) = first.as_f64() {
                    vals.push(v);
                }
            }
        }
        Ok(())
    }

    /// Feeds one non-null Float argument; exactly `push(&[Value::Float(v)])`
    /// minus the boxing (single-argument pushes can never hit PERCENTILE's
    /// p validation, so this is infallible). MIN / MAX compare directly
    /// while the one candidate is a Float and neither value is NaN — what
    /// [`fold_minmax`] does then, strict so a tie keeps the incumbent.
    pub fn push_f64(&mut self, v: f64) {
        match self {
            AggAcc::Count { n } => *n += 1,
            AggAcc::Sum { float, saw_float, n, .. } => {
                float.add(v);
                *saw_float = true;
                *n += 1;
            }
            AggAcc::Avg { sum, n } => {
                sum.add(v);
                *n += 1;
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                sum.add(v);
                sumsq.add(v * v);
                *n += 1;
            }
            AggAcc::MinMax { candidates, want_min } => match candidates.as_mut_slice() {
                [Value::Float(best)] if !v.is_nan() && !best.is_nan() => {
                    if (*want_min && v < *best) || (!*want_min && v > *best) {
                        *best = v;
                    }
                }
                _ => fold_minmax(candidates, Value::Float(v), *want_min),
            },
            AggAcc::Percentile { vals, .. } => vals.push(v),
        }
    }

    /// Feeds one non-null Int argument; exactly `push(&[Value::Int(v)])`
    /// minus the boxing. MIN / MAX compare directly while the one candidate
    /// is an Int.
    pub fn push_i64(&mut self, v: i64) {
        match self {
            AggAcc::Count { n } => *n += 1,
            AggAcc::Sum { int, float, n, .. } => {
                *int += i128::from(v);
                float.add(v as f64);
                *n += 1;
            }
            AggAcc::Avg { sum, n } => {
                sum.add(v as f64);
                *n += 1;
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                let f = v as f64;
                sum.add(f);
                sumsq.add(f * f);
                *n += 1;
            }
            AggAcc::MinMax { candidates, want_min } => match candidates.as_mut_slice() {
                [Value::Int(best)] => {
                    if (*want_min && v < *best) || (!*want_min && v > *best) {
                        *best = v;
                    }
                }
                _ => fold_minmax(candidates, Value::Int(v), *want_min),
            },
            AggAcc::Percentile { vals, .. } => vals.push(v as f64),
        }
    }

    /// Folds another partial in; equivalent to pushing `other`'s rows
    /// after this accumulator's rows.
    pub fn merge(&mut self, other: AggAcc) -> Result<()> {
        match (self, other) {
            (AggAcc::Count { n }, AggAcc::Count { n: o }) => *n += o,
            (
                AggAcc::Sum { int, float, saw_float, n },
                AggAcc::Sum { int: oi, float: of, saw_float: os, n: on },
            ) => {
                *int += oi;
                float.merge(&of);
                *saw_float |= os;
                *n += on;
            }
            (AggAcc::Avg { sum, n }, AggAcc::Avg { sum: os, n: on }) => {
                sum.merge(&os);
                *n += on;
            }
            (AggAcc::Var { sum, sumsq, n, .. }, AggAcc::Var { sum: os, sumsq: oss, n: on, .. }) => {
                sum.merge(&os);
                sumsq.merge(&oss);
                *n += on;
            }
            (AggAcc::MinMax { candidates, want_min }, AggAcc::MinMax { candidates: oc, .. }) => {
                for v in oc {
                    fold_minmax(candidates, v, *want_min);
                }
            }
            (AggAcc::Percentile { vals, p }, AggAcc::Percentile { vals: ov, p: op }) => {
                match (*p, op) {
                    (Some(a), Some(b)) if a != b => {
                        return Err(QueryError::BadFunction(format!(
                            "PERCENTILE p must be constant within a group (saw {a} and {b})"
                        )))
                    }
                    (None, some) => *p = some,
                    _ => {}
                }
                vals.extend(ov);
            }
            _ => unreachable!("merging mismatched aggregate accumulators"),
        }
        Ok(())
    }

    /// The aggregate's final value.
    pub fn finish(self) -> Result<Value> {
        match self {
            AggAcc::Count { n } => Ok(Value::Int(n)),
            AggAcc::Sum { int, float, saw_float, n } => {
                if n == 0 {
                    Ok(Value::Null)
                } else if !saw_float {
                    // All-Int input keeps Int typing; i64 overflow promotes
                    // to the exact float sum.
                    match i64::try_from(int) {
                        Ok(i) => Ok(Value::Int(i)),
                        Err(_) => Ok(Value::Float(float.value())),
                    }
                } else {
                    Ok(Value::Float(float.value()))
                }
            }
            AggAcc::Avg { sum, n } => Ok(finish_avg(&sum.partials, sum.special, n)),
            AggAcc::Var { sum, sumsq, n, stddev } => Ok(finish_var(
                (&sum.partials, sum.special),
                (&sumsq.partials, sumsq.special),
                n,
                stddev,
            )),
            AggAcc::MinMax { candidates, .. } => {
                Ok(candidates.into_iter().next().unwrap_or(Value::Null))
            }
            AggAcc::Percentile { mut vals, p } => {
                let p = p.ok_or_else(|| {
                    QueryError::BadFunction("PERCENTILE needs a p argument".into())
                })?;
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                vals.sort_by(f64::total_cmp);
                // Linear interpolation between closest ranks.
                let idx = p * (vals.len() - 1) as f64;
                let lo = idx.floor() as usize;
                let hi = idx.ceil() as usize;
                let frac = idx - lo as f64;
                Ok(Value::Float(vals[lo] * (1.0 - frac) + vals[hi] * frac))
            }
        }
    }
}

/// `AVG` of `n` inputs summing to the expansion `(partials, special)`.
fn finish_avg(partials: &[f64], special: f64, n: usize) -> Value {
    match n {
        0 => Value::Null,
        n => Value::Float(expansion_value(partials, special) / n as f64),
    }
}

/// `VARIANCE` / `STDDEV` of `n` inputs with the exact moments Σv and Σv².
fn finish_var(sum: (&[f64], f64), sumsq: (&[f64], f64), n: usize, stddev: bool) -> Value {
    if n < 2 {
        return Value::Null;
    }
    let s = expansion_value(sum.0, sum.1);
    let ss = expansion_value(sumsq.0, sumsq.1);
    // Sample (n−1) variance from exact moments; the subtraction can go
    // epsilon-negative, never meaningfully so.
    let mut var = (ss - s * s / n as f64) / (n as f64 - 1.0);
    if var < 0.0 {
        var = 0.0;
    }
    Value::Float(if stddev { var.sqrt() } else { var })
}

/// Partials a slot's expansion holds inline. A full slot spills before its
/// next finite add, which could need one more: on the benchmark's
/// `AVG` / `MAX` / `STDDEV` family statement (≈ 400k expansions, Σv and Σv²
/// of the one moments column) that is ≈ 805 slots a run, where three
/// inline would spill ≈ 40k.
const INLINE_PARTIALS: usize = 4;

/// The flag on [`AggColumn`]'s count of a spilled slot: the rest of the
/// word is the slot's index among the spilled slots.
const SPILLED: u64 = 1 << 63;

/// How an [`AggColumn`] holds its slots.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `COUNT` / `SUM` / `AVG` / `VARIANCE` / `STDDEV` calls over one
    /// argument, dense: a count, Σv when a call reads it and Σv² when a
    /// `VARIANCE` or `STDDEV` does.
    Moments { sum: bool, sumsq: bool },
    /// One `MIN` / `MAX` call, dense: a running best.
    MinMax { want_min: bool },
    /// Every slot an `AggAcc` per call from its first push on.
    Boxed,
}

/// One [`ExactSum`] per slot, struct-of-arrays: up to
/// [`INLINE_PARTIALS`] partials inline, and the non-finite sum.
#[derive(Debug, Default)]
struct Expansions {
    parts: Vec<[f64; INLINE_PARTIALS]>,
    len: Vec<u8>,
    special: Vec<f64>,
}

impl Expansions {
    fn new(slots: usize) -> Expansions {
        let parts = vec![[0.0; INLINE_PARTIALS]; slots];
        Expansions { parts, len: vec![0; slots], special: vec![0.0; slots] }
    }

    fn partials(&self, s: usize) -> &[f64] {
        &self.parts[s][..usize::from(self.len[s])]
    }

    /// Whether slot `s` has room to add `x`: a finite add grows an
    /// expansion by at most one partial.
    fn fits(&self, s: usize, x: f64) -> bool {
        !x.is_finite() || usize::from(self.len[s]) < INLINE_PARTIALS
    }

    /// [`ExactSum::add`] on slot `s`, which [`Expansions::fits`] `x`.
    fn add(&mut self, s: usize, x: f64) {
        if !x.is_finite() {
            self.special[s] += x;
            return;
        }
        let parts = &mut self.parts[s];
        let (kept, top) = grow_expansion(&mut parts[..usize::from(self.len[s])], x);
        parts[kept] = top;
        self.len[s] = (kept + 1) as u8;
    }

    /// Whether merging `other`'s slot `o` into slot `s` stays inline.
    fn merge_fits(&self, s: usize, other: &Expansions, o: usize) -> bool {
        usize::from(self.len[s] + other.len[o]) <= INLINE_PARTIALS
    }

    /// [`ExactSum::merge`] of `other`'s slot `o` into slot `s`, which
    /// [`Expansions::merge_fits`] it.
    fn merge(&mut self, s: usize, other: &Expansions, o: usize) {
        other.partials(o).iter().for_each(|&p| self.add(s, p));
        self.special[s] += other.special[o];
    }

    fn copy(&mut self, s: usize, other: &Expansions, o: usize) {
        self.parts[s] = other.parts[o];
        self.len[s] = other.len[o];
        self.special[s] = other.special[o];
    }

    fn exact(&self, s: usize) -> ExactSum {
        ExactSum::from_parts(self.partials(s).to_vec(), self.special[s])
    }
}

/// Accumulators over a run of slots — a table-aggregate morsel's groups, a
/// scan-aggregate block's grid slots — for one or more aggregate calls over
/// one argument ([`agg_column_calls`] says which), a column per field
/// instead of an [`AggAcc`] per slot and call: a count, inline
/// [`ExactSum`] expansions of Σv and Σv² as far as the calls read them, a
/// plain running best for `MIN` / `MAX`, fed non-null `f64`s by
/// [`AggColumn::fold`]. Any other aggregate, or a column asked to be boxed
/// because its inputs are not `f64`s, keeps an `AggAcc` per call and
/// touched slot instead.
///
/// Every slot stands for the `AggAcc` each of its calls would be after the
/// same pushes and merges, and finishes to that one's value by its bits:
/// the expansions run [`ExactSum::add`]'s own walk (the sums are exact, so
/// `AVG` finishes from Σv to the same bits whether or not a `STDDEV` shares
/// it), MIN / MAX keep the first seen of equals. A slot that cannot stay
/// dense — an expansion about to outgrow the inline capacity, a NaN
/// reaching MIN / MAX (its own comparability class), an input that is not
/// an `f64` — spills: it becomes those `AggAcc`s, partials moved over, and
/// continues there. A boxed column's slots spill at their first push. The
/// count carries the spill flag, so a dense slot pays nothing for it.
#[derive(Debug)]
pub struct AggColumn {
    kind: Kind,
    /// A fresh accumulator per call, in the order the calls were given:
    /// what an untouched slot stands for, and whose rule each call
    /// finishes by.
    calls: Vec<AggAcc>,
    /// Inputs per slot (zero: untouched), or [`SPILLED`] and the slot's
    /// index among the spilled slots.
    n: Vec<u64>,
    /// Σv (`SUM`, `AVG`, `VARIANCE`, `STDDEV`).
    sum: Expansions,
    /// Σv² (`VARIANCE`, `STDDEV`).
    sumsq: Expansions,
    /// The best input so far (`MIN`, `MAX`).
    best: Vec<f64>,
    /// The spilled slots' accumulators, `calls.len()` per slot.
    spilled: Vec<AggAcc>,
}

impl AggColumn {
    /// The (uppercase) aggregates `names` over one argument and `slots`
    /// untouched slots: dense when `dense` is asked for and the calls have
    /// a column form — moments only, or one `MIN` / `MAX` — boxed
    /// otherwise.
    pub fn new(names: &[&str], slots: usize, dense: bool) -> Result<AggColumn> {
        let calls = (names.iter())
            .map(|&name| {
                AggAcc::new(name)
                    .ok_or_else(|| QueryError::BadFunction(format!("unknown aggregate {name}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let kind = match calls.as_slice() {
            _ if !dense => Kind::Boxed,
            &[AggAcc::MinMax { want_min, .. }] => Kind::MinMax { want_min },
            calls if calls.iter().all(is_moment) => Kind::Moments {
                sum: calls.iter().any(|c| !matches!(c, AggAcc::Count { .. })),
                sumsq: calls.iter().any(|c| matches!(c, AggAcc::Var { .. })),
            },
            _ => Kind::Boxed,
        };
        Ok(AggColumn::of(kind, calls, slots))
    }

    fn of(kind: Kind, calls: Vec<AggAcc>, slots: usize) -> AggColumn {
        let sized = |yes: bool| if yes { Expansions::new(slots) } else { Expansions::default() };
        let (sum, sumsq) = match kind {
            Kind::Moments { sum, sumsq } => (sum, sumsq),
            _ => (false, false),
        };
        AggColumn {
            n: vec![0; slots],
            sum: sized(sum),
            sumsq: sized(sumsq),
            best: vec![0.0; if matches!(kind, Kind::MinMax { .. }) { slots } else { 0 }],
            spilled: Vec::new(),
            kind,
            calls,
        }
    }

    /// The same calls, held the same way, over `slots` untouched slots.
    pub fn fresh(&self, slots: usize) -> AggColumn {
        AggColumn::of(self.kind, self.calls.clone(), slots)
    }

    /// Feeds each `(slot, value)` in turn: `AggAcc::push` of `Float(value)`
    /// on each of the slot's accumulators.
    pub fn fold(&mut self, points: impl IntoIterator<Item = (usize, f64)>) {
        match self.kind {
            Kind::Moments { sum: false, .. } => self.fold_by(points, |_, _, _, _| true),
            Kind::Moments { sumsq: false, .. } => self.fold_by(points, |c, s, _, v| {
                c.sum.fits(s, v) && {
                    c.sum.add(s, v);
                    true
                }
            }),
            Kind::Moments { .. } => self.fold_by(points, |c, s, _, v| {
                let q = v * v;
                c.sum.fits(s, v) && c.sumsq.fits(s, q) && {
                    c.sum.add(s, v);
                    c.sumsq.add(s, q);
                    true
                }
            }),
            Kind::MinMax { want_min } => self.fold_by(points, |c, s, n, v| {
                let best = &mut c.best[s];
                // Strict: a tie keeps the first seen.
                if !v.is_nan() && (n == 0 || (want_min && v < *best) || (!want_min && v > *best)) {
                    *best = v;
                }
                !v.is_nan()
            }),
            Kind::Boxed => self.fold_by(points, |_, _, _, _| false),
        }
    }

    /// The fold loop: `step` updates a dense slot holding `n` inputs with
    /// `v`, or says the slot must spill first (before changing it).
    fn fold_by(
        &mut self,
        points: impl IntoIterator<Item = (usize, f64)>,
        step: impl Fn(&mut AggColumn, usize, u64, f64) -> bool,
    ) {
        for (s, v) in points {
            let n = self.n[s];
            if n & SPILLED == 0 && step(self, s, n, v) {
                self.n[s] = n + 1;
            } else {
                self.spill(s).iter_mut().for_each(|acc| acc.push_f64(v));
            }
        }
    }

    /// `AggAcc::push` of `Int(v)` on each of slot `s`'s accumulators.
    pub fn push_i64(&mut self, s: usize, v: i64) {
        self.spill(s).iter_mut().for_each(|acc| acc.push_i64(v));
    }

    /// `AggAcc::push` of one row's arguments on each of slot `s`'s
    /// accumulators.
    pub fn push(&mut self, s: usize, args: &[Value]) -> Result<()> {
        self.spill(s).iter_mut().try_for_each(|acc| acc.push(args))
    }

    /// Slot `s` as `AggAcc`s from now on: its accumulators, one per call.
    fn spill(&mut self, s: usize) -> &mut [AggAcc] {
        let k = self.calls.len();
        if self.n[s] & SPILLED == 0 {
            let at = self.spilled.len() / k;
            for call in 0..k {
                let acc = self.to_acc(s, call);
                self.spilled.push(acc);
            }
            self.n[s] = SPILLED | at as u64;
        }
        let at = (self.n[s] & !SPILLED) as usize;
        &mut self.spilled[at * k..][..k]
    }

    /// The `AggAcc` of call `call` that untouched or dense slot `s` stands
    /// for.
    fn to_acc(&self, s: usize, call: usize) -> AggAcc {
        let n = self.n[s] as usize;
        match &self.calls[call] {
            fresh if n == 0 => fresh.clone(),
            AggAcc::Count { .. } => AggAcc::Count { n: n as i64 },
            AggAcc::Sum { .. } => {
                AggAcc::Sum { int: 0, float: self.sum.exact(s), saw_float: true, n }
            }
            AggAcc::Avg { .. } => AggAcc::Avg { sum: self.sum.exact(s), n },
            &AggAcc::Var { stddev, .. } => {
                AggAcc::Var { sum: self.sum.exact(s), sumsq: self.sumsq.exact(s), n, stddev }
            }
            &AggAcc::MinMax { want_min, .. } => {
                AggAcc::MinMax { candidates: vec![Value::Float(self.best[s])], want_min }
            }
            AggAcc::Percentile { .. } => unreachable!("a percentile's slots are never dense"),
        }
    }

    /// Call `call`'s accumulator of slot `s`, taken out of a column that is
    /// being consumed.
    fn take_acc(&mut self, s: usize, call: usize) -> AggAcc {
        match self.n[s] & SPILLED {
            0 => self.to_acc(s, call),
            _ => {
                let at = (self.n[s] & !SPILLED) as usize * self.calls.len() + call;
                std::mem::replace(&mut self.spilled[at], AggAcc::Count { n: 0 })
            }
        }
    }

    /// Merges a later column of the same calls in, its slot `o` into slot
    /// `slot(o)`: equivalent to having fed its inputs after this column's.
    /// Into an untouched slot the accumulators move as they are; into a
    /// touched one they merge as [`AggAcc::merge`] would. A slot that is
    /// dense on one side only (the two columns may be held differently)
    /// merges as the `AggAcc`s it stands for.
    pub fn absorb(&mut self, slot: impl Fn(usize) -> usize, mut other: AggColumn) -> Result<()> {
        let k = self.calls.len();
        for o in 0..other.n.len() {
            let (s, theirs) = (slot(o), other.n[o]);
            let mine = self.n[s];
            if theirs == 0 {
                continue;
            }
            if (mine | theirs) & SPILLED == 0 && self.merge_fits(s, &other, o) {
                self.merge_dense(s, &other, o);
                continue;
            }
            if mine == 0 {
                self.n[s] = SPILLED | (self.spilled.len() / k) as u64;
                for call in 0..k {
                    self.spilled.push(other.take_acc(o, call));
                }
            } else {
                self.spill(s);
                let at = (self.n[s] & !SPILLED) as usize * k;
                for call in 0..k {
                    self.spilled[at + call].merge(other.take_acc(o, call))?;
                }
            }
        }
        Ok(())
    }

    /// Whether dense slot `o` of `other` merges into the untouched or dense
    /// slot `s` in place.
    fn merge_fits(&self, s: usize, other: &AggColumn, o: usize) -> bool {
        match self.kind {
            Kind::Moments { sum, sumsq } => {
                self.n[s] == 0
                    || ((!sum || self.sum.merge_fits(s, &other.sum, o))
                        && (!sumsq || self.sumsq.merge_fits(s, &other.sumsq, o)))
            }
            Kind::MinMax { .. } => true,
            // A boxed column's slot is `AggAcc`s once touched.
            Kind::Boxed => false,
        }
    }

    /// Dense slot `o` of `other` into dense slot `s`, which is untouched or
    /// [`AggColumn::merge_fits`] it.
    fn merge_dense(&mut self, s: usize, other: &AggColumn, o: usize) {
        let fresh = self.n[s] == 0;
        match self.kind {
            Kind::Moments { sum, sumsq } => {
                for (yes, mine, theirs) in
                    [(sum, &mut self.sum, &other.sum), (sumsq, &mut self.sumsq, &other.sumsq)]
                {
                    match (yes, fresh) {
                        (false, _) => {}
                        (true, true) => mine.copy(s, theirs, o),
                        (true, false) => mine.merge(s, theirs, o),
                    }
                }
            }
            Kind::MinMax { want_min } => {
                let (best, v) = (&mut self.best[s], other.best[o]);
                if fresh || (want_min && v < *best) || (!want_min && v > *best) {
                    *best = v;
                }
            }
            Kind::Boxed => unreachable!("a boxed column has no dense slot"),
        }
        self.n[s] += other.n[o];
    }

    /// Each call's finished values of `slots`, in order, as the column
    /// [`Column::from_values`] builds from them; one column per call, in
    /// the order the calls were given.
    pub fn finish(
        mut self,
        slots: impl IntoIterator<Item = usize, IntoIter: Clone>,
    ) -> Result<Vec<Column>> {
        let slots = slots.into_iter();
        (0..self.calls.len())
            .map(|call| {
                let mut out = match self.calls[call] {
                    AggAcc::Count { .. } => Column::Int(Vec::new()),
                    _ => Column::Float(Vec::new()),
                };
                for s in slots.clone() {
                    out.push(match self.n[s] & SPILLED {
                        0 => self.value(s, call)?,
                        _ => self.take_acc(s, call).finish()?,
                    });
                }
                // The typed guess held, or the values decide.
                Ok(match out {
                    Column::Values(values) => Column::from_values(values),
                    empty if empty.is_empty() => Column::empty(),
                    typed => typed,
                })
            })
            .collect()
    }

    /// Call `call`'s finished value of untouched or dense slot `s`, by the
    /// call's own rule.
    fn value(&self, s: usize, call: usize) -> Result<Value> {
        let n = self.n[s];
        let sum = || (self.sum.partials(s), self.sum.special[s]);
        Ok(match &self.calls[call] {
            fresh if n == 0 => return fresh.clone().finish(),
            AggAcc::Count { .. } => Value::Int(n as i64),
            AggAcc::Sum { .. } => Value::Float(expansion_value(sum().0, sum().1)),
            AggAcc::Avg { .. } => finish_avg(sum().0, sum().1, n as usize),
            &AggAcc::Var { stddev, .. } => {
                let sumsq = (self.sumsq.partials(s), self.sumsq.special[s]);
                finish_var(sum(), sumsq, n as usize, stddev)
            }
            AggAcc::MinMax { .. } => Value::Float(self.best[s]),
            AggAcc::Percentile { .. } => unreachable!("a percentile's slots are never dense"),
        })
    }
}

/// Whether `acc` is one of the aggregates an [`AggColumn`] folds from the
/// moments of its argument: `COUNT`, `SUM`, `AVG`, `VARIANCE`, `STDDEV`.
fn is_moment(acc: &AggAcc) -> bool {
    matches!(
        acc,
        AggAcc::Count { .. } | AggAcc::Sum { .. } | AggAcc::Avg { .. } | AggAcc::Var { .. }
    )
}

/// The [`AggColumn`]s a grouped statement's aggregate calls fold into, as
/// each column's calls (indices into `names`, ascending), in the order of
/// their first calls. A `COUNT` / `SUM` / `AVG` / `VARIANCE` / `STDDEV`
/// call shares the column of the first such call before it that `same_arg`
/// says reads the same single argument; every other call has a column of
/// its own. So `AVG(value), MAX(value), STDDEV(value)` fold Σv once, not
/// twice; the sums are exact, so every call finishes to the bits its own
/// column would give.
pub fn agg_column_calls(
    names: &[&str],
    same_arg: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<usize>> {
    let moment = |i: usize| AggAcc::new(names[i]).is_some_and(|acc| is_moment(&acc));
    let mut columns: Vec<Vec<usize>> = Vec::new();
    for i in 0..names.len() {
        let shared = (columns.iter_mut())
            .find(|calls| moment(i) && moment(calls[0]) && same_arg(calls[0], i));
        match shared {
            Some(calls) => calls.push(i),
            None => columns.push(vec![i]),
        }
    }
    columns
}

/// Per-column results (in [`agg_column_calls`]'s order, each in its calls'
/// order) back in call order.
pub fn in_call_order<T>(columns: &[Vec<usize>], results: Vec<Vec<T>>) -> Vec<T> {
    let mut out: Vec<(usize, T)> =
        (columns.iter().zip(results)).flat_map(|(calls, r)| calls.iter().copied().zip(r)).collect();
    out.sort_unstable_by_key(|&(call, _)| call);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One step of the MIN/MAX fold: replace the candidate `v` is comparable
/// with when `v` is strictly better, append `v` as a new class head when it
/// compares with nothing. Ties keep the incumbent (first-seen wins), which
/// is what makes the fold merge-associative.
fn fold_minmax(candidates: &mut Vec<Value>, v: Value, want_min: bool) {
    for c in candidates.iter_mut() {
        match v.sql_cmp(c) {
            Some(std::cmp::Ordering::Less) => {
                if want_min {
                    *c = v;
                }
                return;
            }
            Some(std::cmp::Ordering::Greater) => {
                if !want_min {
                    *c = v;
                }
                return;
            }
            Some(std::cmp::Ordering::Equal) => return,
            None => {}
        }
    }
    candidates.push(v);
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(QueryError::BadFunction(format!("{name} expects {n} argument(s), got {}", args.len())))
    }
}

fn numeric_arg(name: &str, v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| QueryError::Type(format!("{name} expects a numeric argument, got {v}")))
}

fn unary_numeric(name: &str, args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value> {
    expect_arity(name, args, 1)?;
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::Float(f(numeric_arg(name, &args[0])?)))
}

fn unary_string(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    expect_arity(name, args, 1)?;
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Str(f(s))),
        _ => Err(QueryError::Type(format!("{name} expects a string"))),
    }
}

fn fold_numeric(name: &str, args: &[Value], f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    if args.is_empty() {
        return Err(QueryError::BadFunction(format!("{name} needs arguments")));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let mut acc = numeric_arg(name, &args[0])?;
    for a in &args[1..] {
        acc = f(acc, numeric_arg(name, a)?);
    }
    Ok(Value::Float(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `vals` through `push_f64` onto `acc`.
    fn pushed_f64(mut acc: AggAcc, vals: &[f64]) -> Value {
        vals.iter().for_each(|&v| acc.push_f64(v));
        acc.finish().unwrap()
    }

    #[test]
    fn push_f64_preserves_nan_class_head_order() {
        // A NaN seen before any number is the head class and wins finish().
        match pushed_f64(AggAcc::new("MIN").unwrap(), &[f64::NAN, 1.0, -5.0]) {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected NaN head, got {other:?}"),
        }
        // Numbers first: the numeric class stays the head.
        let min = pushed_f64(AggAcc::new("MIN").unwrap(), &[1.0, f64::NAN, -5.0]);
        assert_eq!(min, Value::Float(-5.0));
    }

    #[test]
    fn push_f64_onto_int_incumbent_uses_exact_compare() {
        // MIN over an Int incumbent pushed floats: exact mixed compare.
        let after_int = |name: &str| {
            let mut acc = AggAcc::new(name).unwrap();
            acc.push(&[Value::Int((1 << 53) + 1)]).unwrap();
            acc
        };
        // 2^53 < 2^53+1 exactly, so the float replaces the int.
        let min = pushed_f64(after_int("MIN"), &[(1i64 << 53) as f64]);
        assert_eq!(min, Value::Float((1i64 << 53) as f64));
        let max = pushed_f64(after_int("MAX"), &[(1i64 << 53) as f64]);
        assert_eq!(max, Value::Int((1 << 53) + 1));
    }

    #[test]
    fn concat_renders_and_skips_nulls() {
        let v = eval_scalar(
            "CONCAT",
            &[Value::str("web"), Value::Int(1), Value::Null, Value::str("x")],
        )
        .unwrap();
        assert_eq!(v, Value::str("web1x"));
    }

    #[test]
    fn split_and_index_style_usage() {
        let v = eval_scalar("SPLIT", &[Value::str("web-1-a"), Value::str("-")]).unwrap();
        match v {
            Value::List(parts) => {
                assert_eq!(parts, vec![Value::str("web"), Value::str("1"), Value::str("a")]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(eval_scalar("SPLIT", &[Value::Null, Value::str("-")]).unwrap(), Value::Null);
        assert!(eval_scalar("SPLIT", &[Value::str("x"), Value::str("")]).is_err());
    }

    #[test]
    fn greatest_least_with_papers_usage() {
        // GREATEST(write_b - cancelled_write_b, 0)
        let v = eval_scalar("GREATEST", &[Value::Float(-3.0), Value::Int(0)]).unwrap();
        assert_eq!(v, Value::Float(0.0));
        let v = eval_scalar("LEAST", &[Value::Float(5.0), Value::Int(2)]).unwrap();
        assert_eq!(v, Value::Float(2.0));
        assert_eq!(eval_scalar("GREATEST", &[Value::Null, Value::Int(1)]).unwrap(), Value::Null);
    }

    #[test]
    fn hostgroup_udf() {
        assert_eq!(eval_scalar("HOSTGROUP", &[Value::str("web-12")]).unwrap(), Value::str("web"));
        assert_eq!(
            eval_scalar("HOSTGROUP", &[Value::str("standalone")]).unwrap(),
            Value::str("standalone")
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let v = eval_scalar("COALESCE", &[Value::Null, Value::Null, Value::Int(3)]).unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(eval_scalar("COALESCE", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn string_helpers() {
        assert_eq!(eval_scalar("UPPER", &[Value::str("ab")]).unwrap(), Value::str("AB"));
        assert_eq!(eval_scalar("LOWER", &[Value::str("AB")]).unwrap(), Value::str("ab"));
        assert_eq!(eval_scalar("TRIM", &[Value::str(" x ")]).unwrap(), Value::str("x"));
        assert_eq!(eval_scalar("LENGTH", &[Value::str("abc")]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_scalar("SUBSTR", &[Value::str("hello"), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            eval_scalar("REPLACE", &[Value::str("a-b"), Value::str("-"), Value::str("_")]).unwrap(),
            Value::str("a_b")
        );
    }

    #[test]
    fn math_helpers() {
        assert_eq!(eval_scalar("ABS", &[Value::Float(-2.5)]).unwrap(), Value::Float(2.5));
        assert_eq!(eval_scalar("SQRT", &[Value::Int(9)]).unwrap(), Value::Float(3.0));
        assert_eq!(
            eval_scalar("ROUND", &[Value::Float(2.345), Value::Int(2)]).unwrap(),
            Value::Float(2.35)
        );
        assert_eq!(
            eval_scalar("POW", &[Value::Int(2), Value::Int(10)]).unwrap(),
            Value::Float(1024.0)
        );
    }

    #[test]
    fn aggregate_avg_sum_count() {
        let rows = vec![vec![Value::Float(1.0)], vec![Value::Float(3.0)], vec![Value::Null]];
        assert_eq!(eval_aggregate("AVG", &rows).unwrap(), Value::Float(2.0));
        assert_eq!(eval_aggregate("SUM", &rows).unwrap(), Value::Float(4.0));
        assert_eq!(eval_aggregate("COUNT", &rows).unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_preserves_int_typing() {
        let ints = vec![vec![Value::Int(2)], vec![Value::Int(40)], vec![Value::Null]];
        assert_eq!(eval_aggregate("SUM", &ints).unwrap(), Value::Int(42));
        // One float input demotes the whole sum to Float.
        let mixed = vec![vec![Value::Int(2)], vec![Value::Float(1.5)]];
        assert_eq!(eval_aggregate("SUM", &mixed).unwrap(), Value::Float(3.5));
        // i64 overflow promotes to the (exact) float sum instead of wrapping.
        let big = vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MAX)]];
        assert_eq!(eval_aggregate("SUM", &big).unwrap(), Value::Float(2.0 * i64::MAX as f64));
    }

    #[test]
    fn aggregate_min_max_strings() {
        let rows = vec![vec![Value::str("b")], vec![Value::str("a")], vec![Value::str("c")]];
        assert_eq!(eval_aggregate("MIN", &rows).unwrap(), Value::str("a"));
        assert_eq!(eval_aggregate("MAX", &rows).unwrap(), Value::str("c"));
    }

    #[test]
    fn aggregate_empty_group() {
        let rows: Vec<Vec<Value>> = vec![];
        assert_eq!(eval_aggregate("AVG", &rows).unwrap(), Value::Null);
        assert_eq!(eval_aggregate("COUNT", &rows).unwrap(), Value::Int(0));
        assert_eq!(eval_aggregate("MIN", &rows).unwrap(), Value::Null);
    }

    #[test]
    fn aggregate_stddev_is_sample_not_population() {
        // [2, 4, 4, 4, 5, 5, 7, 9]: Σv = 40, Σv² = 232, n = 8 →
        // sample variance = (232 − 40²/8) / 7 = 32/7 (population would be 4).
        let rows: Vec<Vec<Value>> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&v| vec![Value::Float(v)])
            .collect();
        assert_eq!(eval_aggregate("VARIANCE", &rows).unwrap(), Value::Float(32.0 / 7.0));
        assert_eq!(eval_aggregate("STDDEV", &rows).unwrap(), Value::Float((32.0f64 / 7.0).sqrt()));
        // n < 2 has no sample variance.
        assert_eq!(eval_aggregate("VARIANCE", &rows[..1]).unwrap(), Value::Null);
    }

    #[test]
    fn percentile_interpolates() {
        let rows: Vec<Vec<Value>> =
            (1..=5).map(|v| vec![Value::Float(v as f64), Value::Float(0.5)]).collect();
        assert_eq!(eval_aggregate("PERCENTILE", &rows).unwrap(), Value::Float(3.0));
        let rows99: Vec<Vec<Value>> =
            (0..101).map(|v| vec![Value::Float(v as f64), Value::Float(0.99)]).collect();
        assert_eq!(eval_aggregate("PERCENTILE", &rows99).unwrap(), Value::Float(99.0));
        let bad: Vec<Vec<Value>> = vec![vec![Value::Float(1.0), Value::Float(2.0)]];
        assert!(eval_aggregate("PERCENTILE", &bad).is_err());
    }

    #[test]
    fn percentile_rejects_non_constant_p() {
        let rows = vec![
            vec![Value::Float(1.0), Value::Float(0.5)],
            vec![Value::Float(2.0), Value::Float(0.9)],
        ];
        let err = eval_aggregate("PERCENTILE", &rows).unwrap_err();
        assert!(matches!(err, QueryError::BadFunction(_)), "got {err:?}");
        // A NULL p row does not conflict with the pinned p.
        let rows = vec![
            vec![Value::Float(1.0), Value::Float(0.5)],
            vec![Value::Float(2.0), Value::Null],
            vec![Value::Float(3.0), Value::Float(0.5)],
        ];
        assert_eq!(eval_aggregate("PERCENTILE", &rows).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn exact_sum_is_order_and_partition_independent() {
        let values = [1e16, 3.25, -1e16, 2.75, 1e-9, 0.1, -0.3, 7.5e15, -7.5e15];
        let mut forward = ExactSum::default();
        for &v in &values {
            forward.add(v);
        }
        let mut backward = ExactSum::default();
        for &v in values.iter().rev() {
            backward.add(v);
        }
        assert_eq!(forward.value(), backward.value());
        // Split into two partials and merge: identical bits.
        let (mut a, mut b) = (ExactSum::default(), ExactSum::default());
        for &v in &values[..4] {
            a.add(v);
        }
        for &v in &values[4..] {
            b.add(v);
        }
        a.merge(&b);
        assert_eq!(a.value(), forward.value());
        // And the exact result is right where naive summation drifts.
        assert_eq!(forward.value(), 3.25 + 2.75 + 1e-9 + 0.1 - 0.3);
    }

    /// The walk before the branch-free step: order the pair by magnitude,
    /// then subtract, testing every low part before storing it. The oracle
    /// [`grow_expansion`] is held to.
    fn ordered_grow(partials: &mut [f64], mut x: f64) -> (usize, f64) {
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        (kept, x)
    }

    /// [`ExactSum::add`] over [`ordered_grow`].
    fn ordered_add(sum: &mut ExactSum, x: f64) {
        if !x.is_finite() {
            sum.special += x;
            return;
        }
        let (kept, top) = ordered_grow(&mut sum.partials, x);
        sum.partials.truncate(kept);
        sum.partials.push(top);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// One finite addend (a non-finite one never reaches the walk): a
    /// random bit pattern, a magnitude near `f64::MAX` (two of them overflow
    /// mid-walk), a subnormal, a signed zero, a small number, or one that
    /// cancels a partial of `sum` exactly or nearly.
    fn addend(s: &mut u64, sum: &ExactSum) -> f64 {
        let r = xorshift(s);
        let sign = (r >> 63) << 63;
        let partial = sum.partials.get((r >> 8) as usize % sum.partials.len().max(1));
        match r % 8 {
            // Clearing the exponent's top bit keeps a pattern finite.
            0 => f64::from_bits(match xorshift(s) {
                b if f64::from_bits(b).is_finite() => b,
                b => b & !(1 << 62),
            }),
            1 | 2 => f64::from_bits(sign | (0x7FC + (r >> 4) % 3) << 52 | xorshift(s) >> 12),
            3 => f64::from_bits(sign | xorshift(s) >> 12),
            4 => f64::from_bits(sign),
            5 => (xorshift(s) >> 11) as f64 * 2f64.powi((r >> 16) as i32 % 80 - 40),
            _ => match partial {
                Some(&p) if p.is_finite() => f64::from_bits((-p).to_bits() ^ ((r >> 20) % 4)),
                _ => 1.0,
            },
        }
    }

    /// The branch-free walk leaves every expansion as the ordered walk does,
    /// partial for partial by their bits, and so the same value, over
    /// 200,000 seeded sequences of [`addend`]s — merges included.
    #[test]
    fn branch_free_walk_is_the_ordered_walk_by_bits() {
        let bits = |sum: &ExactSum| -> Vec<u64> {
            sum.partials.iter().chain([&sum.special]).map(|p| p.to_bits()).collect()
        };
        let mut s = 0x243F_6A88_85A3_08D3;
        for seq in 0..200_000 {
            let (mut got, mut want) = (ExactSum::default(), ExactSum::default());
            for _ in 0..1 + xorshift(&mut s) % 12 {
                let x = addend(&mut s, &want);
                got.add(x);
                ordered_add(&mut want, x);
                assert_eq!(bits(&got), bits(&want), "sequence {seq}, after {x:e}");
            }
            let mut other = ExactSum::default();
            (0..xorshift(&mut s) % 4).for_each(|_| other.add(addend(&mut s, &want)));
            got.merge(&other);
            other.partials.iter().for_each(|&p| ordered_add(&mut want, p));
            want.special += other.special;
            assert_eq!(bits(&got), bits(&want), "sequence {seq}, merged");
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "sequence {seq}");
        }
    }

    /// An intermediate overflow: `f64::MAX + x` is finite, but TwoSum's
    /// `hi - x` is not, so its low part is NaN; the walk takes the ordered
    /// step there and keeps the exact error.
    #[test]
    fn an_overflowing_two_sum_takes_the_ordered_step() {
        let (top, x) = (f64::MAX, -4.190177620931627e307);
        let hi = top + x;
        let two_sum = (x - (hi - (hi - x))) + (top - (hi - x));
        assert!(two_sum.is_nan(), "plain TwoSum gives {two_sum}");
        let mut got = ExactSum::from_parts(vec![3.6149034303988903e27, top], 0.0);
        let mut want = got.clone();
        got.add(x);
        ordered_add(&mut want, x);
        assert!(got.partials.contains(&-9.9792015476736e291), "{:?}", got.partials);
        assert_eq!(got.partials, want.partials);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let rows: Vec<Vec<Value>> = [0.1, 0.2, 0.3, 0.7, -1.5, 2.5, 0.4, 1e15, -1e15]
            .iter()
            .map(|&v| vec![Value::Float(v), Value::Float(0.5)])
            .collect();
        for name in ["COUNT", "SUM", "AVG", "MIN", "MAX", "VARIANCE", "STDDEV", "PERCENTILE"] {
            let serial = eval_aggregate(name, &rows).unwrap();
            for split in [1, 4, 8] {
                let mut left = AggAcc::new(name).unwrap();
                for r in &rows[..split] {
                    left.push(r).unwrap();
                }
                let mut right = AggAcc::new(name).unwrap();
                for r in &rows[split..] {
                    right.push(r).unwrap();
                }
                left.merge(right).unwrap();
                assert_eq!(left.finish().unwrap(), serial, "{name} split at {split}");
            }
        }
    }

    #[test]
    fn minmax_merge_handles_incomparable_classes_like_the_serial_fold() {
        // Strings and numbers are mutually incomparable under sql_cmp: the
        // serial fold keeps the first value's class. Partition merges must
        // reproduce that, whatever the split.
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::str("zz")],
            vec![Value::Int(1)],
            vec![Value::str("aa")],
        ];
        let serial = eval_aggregate("MIN", &rows).unwrap();
        assert_eq!(serial, Value::Int(1));
        for split in 1..rows.len() {
            let mut l = AggAcc::new("MIN").unwrap();
            for r in &rows[..split] {
                l.push(r).unwrap();
            }
            let mut r_acc = AggAcc::new("MIN").unwrap();
            for r in &rows[split..] {
                r_acc.push(r).unwrap();
            }
            l.merge(r_acc).unwrap();
            assert_eq!(l.finish().unwrap(), serial, "split {split}");
        }
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval_scalar("NOPE", &[]), Err(QueryError::BadFunction(_))));
        assert!(eval_aggregate("NOPE", &[]).is_err());
    }

    #[test]
    fn classification_helpers() {
        assert!(is_aggregate("AVG") && is_aggregate("PERCENTILE"));
        assert!(!is_aggregate("CONCAT"));
        assert!(is_window("LAG") && is_window("LEAD"));
        assert!(!is_window("AVG"));
    }
}
