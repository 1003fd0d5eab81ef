//! Typed column vectors — the physical storage of the columnar executor.
//!
//! A [`Column`] stores homogeneous `Int` / `Float` / `Str` / `Bool` data in
//! dense native vectors and falls back to a boxed [`Value`] vector
//! (`Values`) for NULLs, maps, lists, or mixed content. Construction never
//! changes a value's identity: pushing `Value::Int` into a `Float` column
//! demotes the column to `Values` rather than silently rewriting the value
//! (explicit numeric coercion is a `UNION` policy, see
//! [`Column::append_coercing`]).
//!
//! The [`Column::Dict`] variant is a *dictionary-encoded* column: a shared
//! `Arc` dictionary of distinct values plus one `u32` code per row. The
//! TSDB scan emits its `metric_name` and `tag` columns this way — the
//! dictionary is built once per bound store, so scanning a million rows
//! clones one `Arc` instead of a million `String`s/tag maps — and the
//! vectorized kernels in [`crate::veval`] evaluate predicates per distinct
//! dictionary entry instead of per row.

use std::sync::Arc;

use crate::value::Value;

/// A single table column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dense non-null 64-bit integers.
    Int(Vec<i64>),
    /// Dense non-null 64-bit floats.
    Float(Vec<f64>),
    /// Dense non-null strings.
    Str(Vec<String>),
    /// Dense non-null booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded values: `values[codes[i]]` is row `i`'s value.
    /// The dictionary is shared (`Arc`) across columns, morsels and scans.
    Dict {
        /// Distinct values (may be any [`Value`], typically `Str` or `Map`).
        values: Arc<Vec<Value>>,
        /// Per-row index into `values`.
        codes: Vec<u32>,
    },
    /// Generic fallback: any values, including NULLs, maps and lists.
    Values(Vec<Value>),
}

impl Column {
    /// An empty generic column.
    pub fn empty() -> Column {
        Column::Values(Vec::new())
    }

    /// Builds a dictionary column from shared values and row codes.
    ///
    /// # Panics
    /// Panics (in debug builds) when a code is out of range.
    pub fn dict(values: Arc<Vec<Value>>, codes: Vec<u32>) -> Column {
        debug_assert!(codes.iter().all(|&c| (c as usize) < values.len()));
        Column::Dict { values, codes }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Values(v) => v.len(),
        }
    }

    /// True when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i` (cloned into a [`Value`]).
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Dict { values, codes } => values[codes[i] as usize].clone(),
            Column::Values(v) => v[i].clone(),
        }
    }

    /// Builds the densest representation of `values`: a typed vector when
    /// homogeneous and null-free, the generic fallback otherwise.
    pub fn from_values(values: Vec<Value>) -> Column {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Int,
            Float,
            Str,
            Bool,
            Mixed,
        }
        let mut kind: Option<Kind> = None;
        for v in &values {
            let k = match v {
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Str(_) => Kind::Str,
                Value::Bool(_) => Kind::Bool,
                _ => Kind::Mixed,
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => {
                    kind = Some(Kind::Mixed);
                    break;
                }
            }
        }
        match kind {
            Some(Kind::Int) => Column::Int(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => i,
                        _ => unreachable!("homogeneous int column"),
                    })
                    .collect(),
            ),
            Some(Kind::Float) => Column::Float(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(f) => f,
                        _ => unreachable!("homogeneous float column"),
                    })
                    .collect(),
            ),
            Some(Kind::Str) => Column::Str(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => s,
                        _ => unreachable!("homogeneous string column"),
                    })
                    .collect(),
            ),
            Some(Kind::Bool) => Column::Bool(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Bool(b) => b,
                        _ => unreachable!("homogeneous bool column"),
                    })
                    .collect(),
            ),
            _ => Column::Values(values),
        }
    }

    /// Demotes the column to the generic representation in place.
    fn make_generic(&mut self) -> &mut Vec<Value> {
        if !matches!(self, Column::Values(_)) {
            let generic: Vec<Value> = (0..self.len()).map(|i| self.get(i)).collect();
            *self = Column::Values(generic);
        }
        match self {
            Column::Values(v) => v,
            _ => unreachable!("just converted"),
        }
    }

    /// Appends one value, demoting the representation when the type does
    /// not match (value identity is always preserved).
    pub fn push(&mut self, value: Value) {
        match (&mut *self, value) {
            (Column::Int(v), Value::Int(i)) => v.push(i),
            (Column::Float(v), Value::Float(f)) => v.push(f),
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (Column::Bool(v), Value::Bool(b)) => v.push(b),
            (Column::Values(v), other) => v.push(other),
            (_, other) => self.make_generic().push(other),
        }
    }

    /// Selects the entries at `indices` into a new column.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Dict { values, codes } => Column::Dict {
                values: Arc::clone(values),
                codes: indices.iter().map(|&i| codes[i]).collect(),
            },
            Column::Values(v) => Column::Values(indices.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Selects the entries at the selection-vector row ids (the `u32`
    /// form the typed filter kernels produce) into a new column.
    pub fn gather_u32(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Str(v) => Column::Str(sel.iter().map(|&i| v[i as usize].clone()).collect()),
            Column::Bool(v) => Column::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Dict { values, codes } => Column::Dict {
                values: Arc::clone(values),
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
            },
            Column::Values(v) => {
                Column::Values(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Gather with optional indices: `None` produces NULL (used by outer
    /// joins to null-extend the unmatched side).
    ///
    /// Padding is type-preserving: a dictionary column stays
    /// dictionary-encoded (the dictionary grows a NULL entry instead of
    /// cloning a value per row), and dense columns demote to the generic
    /// representation whose present values keep their exact identity — an
    /// `Int` column padded with NULLs still yields `Value::Int` for every
    /// matched row, never a float or a rendered string.
    pub fn gather_opt(&self, indices: &[Option<usize>]) -> Column {
        if indices.iter().all(Option::is_some) {
            let dense: Vec<usize> = indices.iter().map(|i| i.expect("checked")).collect(); // invariant: the all-dense check on the line above
            return self.gather(&dense);
        }
        if let Column::Dict { values, codes } = self {
            let mut padded = values.as_ref().clone();
            let null_code = u32::try_from(padded.len()).expect("dictionary size fits u32"); // invariant: a dictionary never outgrows u32 codes
            padded.push(Value::Null);
            return Column::dict(
                Arc::new(padded),
                indices.iter().map(|i| i.map_or(null_code, |i| codes[i])).collect(),
            );
        }
        Column::Values(
            indices
                .iter()
                .map(|i| match i {
                    Some(i) => self.get(*i),
                    None => Value::Null,
                })
                .collect(),
        )
    }

    /// Copies the `[start, end)` subrange into a new column — the morsel
    /// cut of the partition-parallel executor. Cheap for dense numeric and
    /// dictionary columns (a memcpy of natives / codes).
    pub fn slice(&self, start: usize, end: usize) -> Column {
        match self {
            Column::Int(v) => Column::Int(v[start..end].to_vec()),
            Column::Float(v) => Column::Float(v[start..end].to_vec()),
            Column::Str(v) => Column::Str(v[start..end].to_vec()),
            Column::Bool(v) => Column::Bool(v[start..end].to_vec()),
            Column::Dict { values, codes } => {
                Column::Dict { values: Arc::clone(values), codes: codes[start..end].to_vec() }
            }
            Column::Values(v) => Column::Values(v[start..end].to_vec()),
        }
    }

    /// Truncates to the first `n` entries.
    pub fn truncate(&mut self, n: usize) {
        match self {
            Column::Int(v) => v.truncate(n),
            Column::Float(v) => v.truncate(n),
            Column::Str(v) => v.truncate(n),
            Column::Bool(v) => v.truncate(n),
            Column::Dict { codes, .. } => codes.truncate(n),
            Column::Values(v) => v.truncate(n),
        }
    }

    /// Appends another column with `UNION` numeric coercion: an `Int`
    /// column meeting a `Float` column (either way) becomes `Float`; any
    /// other combination behaves like [`Column::append_preserving`].
    pub fn append_coercing(&mut self, other: Column) {
        match (&mut *self, other) {
            (Column::Int(a), Column::Float(b)) => {
                let mut floats: Vec<f64> = a.iter().map(|&i| i as f64).collect();
                floats.extend(b);
                *self = Column::Float(floats);
            }
            (Column::Float(a), Column::Int(b)) => {
                a.extend(b.into_iter().map(|i| i as f64));
            }
            (_, b) => self.append_preserving(b),
        }
    }

    /// Appends another column *without* coercion: same-kind dense columns
    /// extend in place, anything else demotes to the generic
    /// representation, preserving every value's identity. This is how the
    /// partition-parallel executor concatenates morsel outputs so the
    /// result is value-identical to a single-pass evaluation.
    pub fn append_preserving(&mut self, other: Column) {
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend(b),
            (Column::Float(a), Column::Float(b)) => a.extend(b),
            (Column::Str(a), Column::Str(b)) => a.extend(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend(b),
            (Column::Dict { values: av, codes: ac }, Column::Dict { values: bv, codes: bc })
                if Arc::ptr_eq(av, &bv) =>
            {
                ac.extend(bc)
            }
            (Column::Values(a), b) => {
                for i in 0..b.len() {
                    a.push(b.get(i));
                }
            }
            (_, b) => {
                let generic = self.make_generic();
                for i in 0..b.len() {
                    generic.push(b.get(i));
                }
            }
        }
    }

    /// Iterates entries as [`Value`]s.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_picks_dense_representation() {
        let c = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(c, Column::Int(_)));
        let c = Column::from_values(vec![Value::Float(1.5)]);
        assert!(matches!(c, Column::Float(_)));
        let c = Column::from_values(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(c, Column::Values(_)));
        let c = Column::from_values(vec![Value::Null]);
        assert!(matches!(c, Column::Values(_)));
    }

    #[test]
    fn push_preserves_value_identity() {
        let mut c = Column::Int(vec![1]);
        c.push(Value::Float(2.5));
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Float(2.5));
    }

    #[test]
    fn gather_picks_rows_in_index_order() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 0]), Column::Int(vec![40, 10]));
    }

    #[test]
    fn gather_opt_null_extends() {
        let c = Column::Int(vec![1, 2]);
        let out = c.gather_opt(&[Some(1), None]);
        assert_eq!(out.get(0), Value::Int(2));
        assert_eq!(out.get(1), Value::Null);
    }

    #[test]
    fn gather_opt_padding_preserves_value_identity() {
        // Outer-join null padding must never rewrite the present values:
        // Int stays Int (not Float, not a rendered string).
        let c = Column::Int(vec![7, 8]);
        let out = c.gather_opt(&[Some(0), None, Some(1)]);
        assert_eq!(
            out.iter_values().collect::<Vec<_>>(),
            vec![Value::Int(7), Value::Null, Value::Int(8)]
        );
        let c = Column::Float(vec![1.5]);
        let out = c.gather_opt(&[None, Some(0)]);
        assert_eq!(out.get(1), Value::Float(1.5));
    }

    #[test]
    fn gather_opt_keeps_dictionary_encoding() {
        // A dictionary column survives null padding as a dictionary with a
        // NULL entry — no per-row value cloning through outer joins.
        let values = Arc::new(vec![Value::str("a"), Value::str("b")]);
        let c = Column::dict(values, vec![0, 1, 0]);
        let out = c.gather_opt(&[Some(2), None, Some(1)]);
        assert!(matches!(out, Column::Dict { .. }), "stays dict-encoded: {out:?}");
        assert_eq!(out.get(0), Value::str("a"));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::str("b"));
        // The all-matched fast path shares the original dictionary.
        let dense = c.gather_opt(&[Some(1), Some(0)]);
        assert!(matches!(dense, Column::Dict { .. }));
        assert_eq!(dense.get(0), Value::str("b"));
    }

    #[test]
    fn union_coercion_promotes_numerics() {
        let mut c = Column::Int(vec![1, 2]);
        c.append_coercing(Column::Float(vec![0.5]));
        assert_eq!(c, Column::Float(vec![1.0, 2.0, 0.5]));
        let mut c = Column::Float(vec![0.5]);
        c.append_coercing(Column::Int(vec![3]));
        assert_eq!(c, Column::Float(vec![0.5, 3.0]));
        let mut c = Column::Str(vec!["a".into()]);
        c.append_coercing(Column::Int(vec![1]));
        assert_eq!(c.get(1), Value::Int(1));
    }

    #[test]
    fn append_preserving_never_rewrites_values() {
        let mut c = Column::Int(vec![1, 2]);
        c.append_preserving(Column::Float(vec![0.5]));
        // No Int→Float coercion: identities survive, repr demotes.
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(2), Value::Float(0.5));
        let mut c = Column::Int(vec![1]);
        c.append_preserving(Column::Int(vec![2]));
        assert_eq!(c, Column::Int(vec![1, 2]));
    }

    fn sample_dict() -> Column {
        let values = Arc::new(vec![Value::str("cpu"), Value::str("disk"), Value::str("net")]);
        Column::dict(values, vec![0, 1, 0, 2, 1])
    }

    #[test]
    fn dict_column_basics() {
        let c = sample_dict();
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(0), Value::str("cpu"));
        assert_eq!(c.get(3), Value::str("net"));
        assert_eq!(c.gather(&[4, 0]).get(0), Value::str("disk"));
        let sliced = c.slice(1, 4);
        assert_eq!(sliced.len(), 3);
        assert_eq!(sliced.get(0), Value::str("disk"));
        let mut t = sample_dict();
        t.truncate(2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn dict_append_shares_or_demotes() {
        // Same dictionary: code-level extend.
        let mut a = sample_dict();
        let b = a.slice(0, 2);
        a.append_preserving(b);
        assert_eq!(a.len(), 7);
        assert!(matches!(a, Column::Dict { .. }));
        // Different dictionary: demote, values preserved.
        let mut a = sample_dict();
        let other = Column::dict(Arc::new(vec![Value::str("io")]), vec![0]);
        a.append_preserving(other);
        assert_eq!(a.len(), 6);
        assert_eq!(a.get(5), Value::str("io"));
        assert!(matches!(a, Column::Values(_)));
    }

    #[test]
    fn dict_push_demotes_to_generic() {
        let mut c = sample_dict();
        c.push(Value::str("new"));
        assert_eq!(c.len(), 6);
        assert_eq!(c.get(0), Value::str("cpu"));
        assert_eq!(c.get(5), Value::str("new"));
    }
}
