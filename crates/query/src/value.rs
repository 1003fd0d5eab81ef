//! The runtime value type of the query engine.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Exact `i64` vs `f64` SQL comparison: never rounds the integer through
/// `as f64` (which is lossy above 2^53). NaN is incomparable (`None`);
/// floats at or beyond ±2^63 order strictly outside every `i64`; finite
/// in-range floats compare against their truncation, with the fractional
/// part breaking the tie.
pub(crate) fn cmp_i64_f64(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    const TWO63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exactly representable
    if b >= TWO63 {
        return Some(Ordering::Less); // every i64 < b (covers +inf)
    }
    if b < -TWO63 {
        return Some(Ordering::Greater); // every i64 > b (covers -inf)
    }
    let t = b.trunc();
    let ti = t as i64; // exact: t ∈ [−2^63, 2^63)
    match a.cmp(&ti) {
        Ordering::Equal => {
            // a == trunc(b): the fractional part decides. trunc rounds
            // toward zero, so b > t means b has a positive fraction
            // (a < b) and b < t a negative one (a > b).
            if b > t {
                Some(Ordering::Less)
            } else if b < t {
                Some(Ordering::Greater)
            } else {
                Some(Ordering::Equal)
            }
        }
        ord => Some(ord),
    }
}

/// A dynamically typed SQL value.
///
/// `Map` carries the TSDB tag set (`tag['host']`); `List` is the result of
/// `SPLIT` and supports integer indexing.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer (timestamps, counts).
    Int(i64),
    /// 64-bit float (metric values).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean (comparison results).
    Bool(bool),
    /// String-to-string map (tag sets).
    Map(BTreeMap<String, String>),
    /// List of values (SPLIT results).
    List(Vec<Value>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats coerce; bools are 0/1; everything else
    /// is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Integer view (floats with no fractional part coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// String view (only true strings; use [`Value::render`] for display).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness for WHERE: NULL and false are not-true (SQL three-valued
    /// logic collapses to "row kept iff predicate is true").
    pub fn is_true(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            _ => false,
        }
    }

    /// SQL comparison. NULLs compare as "unknown" (`None`); numeric types
    /// compare across Int/Float; strings compare lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            // Exact numeric arms: i64 values above 2^53 must not round
            // through f64 (the generic as_f64 arm below would collapse
            // 2^53 and 2^53+1).
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => cmp_i64_f64(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_i64_f64(*b, *a).map(Ordering::reverse),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Ordering for ORDER BY / grouping keys: total, with NULLs first, then
    /// by type class, Int/Float merged numerically.
    pub fn order_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::List(_) => 4,
                Value::Map(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.order_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Map(a), Value::Map(b)) => a.cmp(b),
            _ if class(self) == 2 && class(other) == 2 => {
                let a = self.as_f64().expect("numeric"); // invariant: both classes verified numeric by the match
                let b = other.as_f64().expect("numeric"); // invariant: both classes verified numeric by the match
                a.total_cmp(&b)
            }
            _ => class(self).cmp(&class(other)),
        }
    }

    /// Key form for GROUP BY and hash-join hashing (string-rendered). Two
    /// numeric values share a key exactly when [`Value::sql_cmp`] calls
    /// them equal: an Int renders as its decimal integer, and so does an
    /// integral Float inside the `i64` range (`1` and `1.0` group together,
    /// `-0.0` groups with `0`, and 2^53 + 1 never meets 2^53).
    pub fn group_key(&self) -> String {
        const TWO63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::Null => "\u{0}null".into(),
            Value::Bool(b) => format!("\u{0}b{b}"),
            Value::Int(i) => format!("\u{0}n{i}"),
            Value::Float(f) if f.fract() == 0.0 && (-TWO63..TWO63).contains(f) => {
                format!("\u{0}n{}", *f as i64) // exact: integral and in range
            }
            Value::Float(f) => format!("\u{0}n{f}"),
            Value::Str(s) => format!("\u{0}s{s}"),
            Value::List(items) => {
                let mut out = String::from("\u{0}l[");
                for item in items {
                    out.push_str(&item.group_key());
                    out.push(',');
                }
                out.push(']');
                out
            }
            Value::Map(m) => format!("\u{0}m{m:?}"),
        }
    }

    /// Human-readable rendering (used by report printing and CONCAT).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Map(m) => {
                let inner: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{{{}}}", inner.join(","))
            }
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(","))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(4.0).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn sql_cmp_mixed_numerics() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(1.5)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::str("b")), Some(Ordering::Less));
    }

    #[test]
    fn sql_cmp_is_exact_above_2_pow_53() {
        let big = (1i64 << 53) + 1; // rounds down to 2^53 as f64
        assert_eq!(
            Value::Int(big).sql_cmp(&Value::Float((1i64 << 53) as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float((1i64 << 53) as f64).sql_cmp(&Value::Int(big)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(big).sql_cmp(&Value::Int(1 << 53)), Some(Ordering::Greater));
        // i64::MAX is below 2^63 = (i64::MAX as f64).
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(i64::MAX as f64)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(i64::MIN as f64)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_cmp_nan_and_infinities() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(f64::NAN)), None);
        assert_eq!(Value::Float(f64::NAN).sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Float(f64::NAN).sql_cmp(&Value::Float(f64::NAN)), None);
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn cmp_i64_f64_fraction_tiebreak() {
        assert_eq!(cmp_i64_f64(3, 3.5), Some(Ordering::Less));
        assert_eq!(cmp_i64_f64(3, 2.5), Some(Ordering::Greater));
        assert_eq!(cmp_i64_f64(-3, -3.5), Some(Ordering::Greater));
        assert_eq!(cmp_i64_f64(-3, -2.5), Some(Ordering::Less));
        assert_eq!(cmp_i64_f64(-4, -3.5), Some(Ordering::Less));
        assert_eq!(cmp_i64_f64(0, -0.0), Some(Ordering::Equal));
    }

    #[test]
    fn order_cmp_total_with_nulls_first() {
        let mut vals =
            [Value::str("z"), Value::Int(5), Value::Null, Value::Float(1.5), Value::Bool(true)];
        vals.sort_by(|a, b| a.order_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::str("z"));
    }

    #[test]
    fn group_key_unifies_int_and_float() {
        assert_eq!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::str("1").group_key());
        assert_ne!(Value::Null.group_key(), Value::str("null").group_key());
        // Keys agree with `sql_cmp` equality, also where f64 runs out of
        // integers and at signed zero.
        let p53 = 1i64 << 53;
        assert_ne!(Value::Int(p53 + 1).group_key(), Value::Int(p53).group_key());
        assert_eq!(Value::Int(p53).group_key(), Value::Float(p53 as f64).group_key());
        assert_ne!(Value::Int(i64::MAX).group_key(), Value::Float(i64::MAX as f64).group_key());
        assert_eq!(Value::Int(i64::MIN).group_key(), Value::Float(i64::MIN as f64).group_key());
        assert_eq!(Value::Float(-0.0).group_key(), Value::Int(0).group_key());
        assert_eq!(Value::Float(-0.0).group_key(), Value::Float(0.0).group_key());
        assert_ne!(Value::Float(0.5).group_key(), Value::Int(0).group_key());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Null.is_true());
        assert!(Value::Int(7).is_true());
        assert!(!Value::Int(0).is_true());
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Float(1.5).render(), "1.5");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::str("hi").render(), "hi");
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), "1".to_string());
        assert_eq!(Value::Map(m).render(), "{a=1}");
        assert_eq!(Value::List(vec![Value::Int(1), Value::str("x")]).render(), "[1,x]");
    }
}
