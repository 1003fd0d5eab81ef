//! Property tests for the typed minicolumn kernels: every branch-free
//! selection/arithmetic/fold loop in `explainit_query::kernel` (and the
//! `AggAcc` typed pushes, and the `AggColumn`s built on them) must agree
//! with the scalar `Value` reference semantics — `sql_cmp` three-valued
//! comparisons, exact Int/Float mixed ordering, per-element overflow
//! promotion, push-equivalent folds — over generated columns with NULL
//! runs, NaN/±infinity, signed zeros, i64 extremes, empty selections and
//! all-filtered inputs.

use explainit_query::kernel::{
    compile_i64_cmp, compile_i64_cmp_int, f64_arith_cols, f64_arith_const, i64_arith_cols,
    i64_arith_const, mini_from_values, refine_f64_between, refine_f64_cmp, refine_i64_between,
    refine_i64_test, ArithOp, CmpOp, IntArith, Mini,
};
use explainit_query::{AggAcc, Column, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

const CMP_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const ARITH_OPS: [ArithOp; 3] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul];

/// The scalar WHERE rule: a comparison keeps the row iff it is `true`
/// (unknown — incomparable operands — drops for every operator).
fn cmp_keeps(op: CmpOp, ord: Option<Ordering>) -> bool {
    let Some(ord) = ord else { return false };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Decodes a generated `(code, magnitude)` pair into an f64 that covers
/// the special values the kernels must not mishandle.
fn f64_case(code: usize, mag: f64) -> f64 {
    match code % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => mag,
        6 => -mag,
        _ => mag * 1e16, // pushes past 2^53 where f64 integers go sparse
    }
}

/// [`f64_case`] plus what an exact running sum must survive: subnormals,
/// finite values whose sum overflows, and magnitudes far enough apart
/// (1e300 … 1e-300) that no two share a partial.
fn stream_case(code: usize, mag: f64) -> f64 {
    match code {
        8 => mag * 1e-310,
        9 => f64::MAX,
        10 => -f64::MAX,
        11..=15 => mag * 10f64.powi(300 - 150 * (code as i32 - 11)),
        _ => f64_case(code, mag),
    }
}

/// A column's finished values by their bits (a Float by its bit pattern).
fn bits(c: &Column) -> Vec<String> {
    c.iter_values()
        .map(|v| match v {
            Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
            v => format!("{v:?}"),
        })
        .collect()
}

/// The `(slot, value)` pushes of the accumulator-column properties, cut
/// into blocks: each block over the slots its pushes reach (or all of
/// them), each dense or boxed as bit `b` of `boxed` says (bit 7 for the
/// merged column).
struct AggBlocks {
    pushes: Vec<(usize, f64)>,
    cuts: Vec<usize>,
    slots: usize,
    whole_blocks: bool,
    boxed: u8,
}

impl AggBlocks {
    /// The stream's pushes over `slots` slots, the seven-rung ladder
    /// spliced in whole at `ladder.1`, every number a signed zero if
    /// `zeros`.
    fn new(
        stream: &[(usize, usize, f64)],
        slots: usize,
        cuts: Vec<usize>,
        ladder: (usize, usize, bool),
        whole_blocks: bool,
        zeros: bool,
        boxed: u8,
    ) -> AggBlocks {
        let (ladder_slot, ladder_at, negative) = ladder;
        let mut pushes: Vec<(usize, f64)> =
            stream.iter().map(|&(s, code, mag)| (s % slots, stream_case(code, mag))).collect();
        let rung = |k: i32| {
            let r = 10f64.powi(300 - 100 * k);
            if negative {
                -r
            } else {
                r
            }
        };
        let at = ladder_at.min(pushes.len());
        pushes.splice(at..at, (0..7).map(|k| (ladder_slot % slots, rung(k))));
        if zeros {
            for (_, v) in pushes.iter_mut().filter(|(_, v)| !v.is_nan()) {
                *v = if v.is_sign_negative() { -0.0 } else { 0.0 };
            }
        }
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(pushes.len())).collect();
        cuts.extend([0, pushes.len()]);
        cuts.sort_unstable();
        cuts.dedup();
        AggBlocks { pushes, cuts, slots, whole_blocks, boxed }
    }

    fn blocks(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.cuts.windows(2).map(|w| &self.pushes[w[0]..w[1]])
    }

    /// The calls `names` over one argument, folded block by block into
    /// columns merged in order; their finished columns, one per call.
    fn fold(&self, names: &[&str]) -> Vec<Column> {
        use explainit_query::AggColumn;
        let dense = |bit: usize| self.boxed >> bit & 1 == 0;
        let mut merged = AggColumn::new(names, self.slots, dense(7)).expect("known aggregates");
        for (b, block) in self.blocks().enumerate() {
            let (lo, hi) = match self.whole_blocks {
                true => (0, self.slots),
                false => {
                    let reach = block.iter().map(|&(s, _)| s);
                    (reach.clone().min().unwrap_or(0), reach.max().map_or(0, |s| s + 1))
                }
            };
            let mut column = AggColumn::new(names, hi - lo, dense(b)).expect("known aggregates");
            column.fold(block.iter().map(|&(s, v)| (s - lo, v)));
            merged.absorb(|o| lo + o, column).expect("merges of these aggregates cannot fail");
        }
        merged.finish(0..self.slots).expect("finish")
    }
}

/// Decodes a generated `(code, magnitude)` pair into an i64 covering the
/// extremes and the 2^53 representability boundary.
fn i64_case(code: usize, mag: i64) -> i64 {
    match code % 8 {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => (1 << 53) + 1,
        4 => -(1 << 53) - 1,
        5 => mag,
        6 => -mag,
        _ => i64::MAX - mag.unsigned_abs().min(1000) as i64,
    }
}

/// Builds the kernel inputs from a generated row list: the dense slice,
/// the same values boxed, and a selection subset.
fn build_f64(rows: &[(usize, f64)], sel_bits: &[bool]) -> (Vec<f64>, Vec<Value>, Vec<u32>) {
    let floats: Vec<f64> = rows.iter().map(|&(c, m)| f64_case(c, m)).collect();
    let boxed: Vec<Value> = floats.iter().map(|&f| Value::Float(f)).collect();
    let sel: Vec<u32> = (0..rows.len())
        .filter(|&i| sel_bits.get(i).copied().unwrap_or(true))
        .map(|i| i as u32)
        .collect();
    (floats, boxed, sel)
}

proptest! {
    // The default config: 96 cases, or `PROPTEST_CASES`.

    /// `refine_f64_cmp` == filtering the selection by scalar `sql_cmp`
    /// over boxed values, across NaN/±inf/-0.0 data, NaN and infinite
    /// constants, and arbitrary (including empty) selections.
    #[test]
    fn f64_cmp_kernel_matches_scalar_reference(
        rows in proptest::collection::vec((0usize..8, -1e3f64..1e3), 0..80),
        sel_bits in proptest::collection::vec(any::<bool>(), 0..80),
        k_code in 0usize..8,
        k_mag in -1e3f64..1e3,
        op_idx in 0usize..CMP_OPS.len(),
    ) {
        let op = CMP_OPS[op_idx];
        let k = f64_case(k_code, k_mag);
        let (floats, boxed, sel) = build_f64(&rows, &sel_bits);
        let expected: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| cmp_keeps(op, boxed[i as usize].sql_cmp(&Value::Float(k))))
            .collect();
        let mut got = sel;
        refine_f64_cmp(op, &floats, k, &mut got);
        prop_assert_eq!(got, expected, "op {:?} k {}", op, k);
    }

    /// The compiled i64-vs-f64 threshold test == scalar `sql_cmp` of
    /// `Int(x)` against `Float(k)` — the exact mixed-comparison contract,
    /// including fractional constants, constants beyond ±2^63, NaN and
    /// the i64 extremes.
    #[test]
    fn compiled_i64_cmp_matches_scalar_reference(
        rows in proptest::collection::vec((0usize..8, -1_000_000i64..1_000_000), 0..80),
        sel_bits in proptest::collection::vec(any::<bool>(), 0..80),
        k_code in 0usize..10,
        k_mag in -1e3f64..1e3,
        op_idx in 0usize..CMP_OPS.len(),
    ) {
        let op = CMP_OPS[op_idx];
        let k = match k_code {
            8 => 9_223_372_036_854_775_808.0,  // 2^63: above every i64
            9 => -9_223_372_036_854_775_809.0, // below every i64
            c => f64_case(c, k_mag + 0.5),     // fractional magnitudes
        };
        let ints: Vec<i64> = rows.iter().map(|&(c, m)| i64_case(c, m)).collect();
        let sel: Vec<u32> = (0..ints.len())
            .filter(|&i| sel_bits.get(i).copied().unwrap_or(true))
            .map(|i| i as u32)
            .collect();
        let expected: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| cmp_keeps(op, Value::Int(ints[i as usize]).sql_cmp(&Value::Float(k))))
            .collect();
        let mut got = sel;
        refine_i64_test(compile_i64_cmp(op, k), &ints, &mut got);
        prop_assert_eq!(got, expected, "op {:?} k {}", op, k);
    }

    /// The pure-Int compiled test == scalar `sql_cmp` of two Ints.
    #[test]
    fn compiled_i64_cmp_int_matches_scalar_reference(
        rows in proptest::collection::vec((0usize..8, -1_000_000i64..1_000_000), 0..80),
        k_code in 0usize..8,
        k_mag in -1_000_000i64..1_000_000,
        op_idx in 0usize..CMP_OPS.len(),
    ) {
        let op = CMP_OPS[op_idx];
        let k = i64_case(k_code, k_mag);
        let ints: Vec<i64> = rows.iter().map(|&(c, m)| i64_case(c, m)).collect();
        let sel: Vec<u32> = (0..ints.len() as u32).collect();
        let expected: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| cmp_keeps(op, Value::Int(ints[i as usize]).sql_cmp(&Value::Int(k))))
            .collect();
        let mut got = sel;
        refine_i64_test(compile_i64_cmp_int(op, k), &ints, &mut got);
        prop_assert_eq!(got, expected, "op {:?} k {}", op, k);
    }

    /// BETWEEN kernels == the scalar two-sided rule: keep iff both
    /// comparisons are known and `lo <= x <= hi` (xor negated); any
    /// unknown side drops regardless of NOT.
    #[test]
    fn between_kernels_match_scalar_reference(
        int_rows in proptest::collection::vec((0usize..8, -1_000_000i64..1_000_000), 0..60),
        f_rows in proptest::collection::vec((0usize..8, -1e3f64..1e3), 0..60),
        lo_is_int in any::<bool>(),
        hi_is_int in any::<bool>(),
        lo_code in 0usize..8,
        hi_code in 0usize..8,
        lo_mag in -1e3f64..1e3,
        hi_mag in -1e3f64..1e3,
        negated in any::<bool>(),
    ) {
        let mk = |is_int: bool, code: usize, mag: f64| -> Value {
            if is_int {
                Value::Int(i64_case(code, mag as i64 * 1000))
            } else {
                Value::Float(f64_case(code, mag))
            }
        };
        let scalar = |x: &Value, lo: &Value, hi: &Value| -> bool {
            match (x.sql_cmp(lo), x.sql_cmp(hi)) {
                (Some(a), Some(b)) => {
                    (a != Ordering::Less && b != Ordering::Greater) != negated
                }
                _ => false,
            }
        };

        // Int column, Int-or-Float bounds.
        let lo = mk(lo_is_int, lo_code, lo_mag);
        let hi = mk(hi_is_int, hi_code, hi_mag);
        let ints: Vec<i64> = int_rows.iter().map(|&(c, m)| i64_case(c, m)).collect();
        let expected: Vec<u32> = (0..ints.len() as u32)
            .filter(|&i| scalar(&Value::Int(ints[i as usize]), &lo, &hi))
            .collect();
        let mut got: Vec<u32> = (0..ints.len() as u32).collect();
        refine_i64_between(&ints, &lo, &hi, negated, &mut got);
        prop_assert_eq!(got, expected, "int between {:?}..{:?} not={}", lo, hi, negated);

        // Float column, Float bounds (the kernel-eligible shape).
        let (lo_f, hi_f) = (f64_case(lo_code, lo_mag), f64_case(hi_code, hi_mag));
        let (floats, boxed, sel) = build_f64(&f_rows, &[]);
        let expected: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| scalar(&boxed[i as usize], &Value::Float(lo_f), &Value::Float(hi_f)))
            .collect();
        let mut got = sel;
        refine_f64_between(&floats, lo_f, hi_f, negated, &mut got);
        prop_assert_eq!(got, expected, "float between {}..{} not={}", lo_f, hi_f, negated);
    }

    /// Int arithmetic kernels == the exact scalar rule: compute in i128,
    /// keep Int when it fits i64, promote the overflowing *element* to the
    /// f64 of the exact result (never wrap, never panic).
    #[test]
    fn i64_arith_kernels_match_exact_scalar_rule(
        rows in proptest::collection::vec(((0usize..8, -1_000_000i64..1_000_000), (0usize..8, -1_000_000i64..1_000_000)), 0..60),
        k_code in 0usize..8,
        k_mag in -1_000_000i64..1_000_000,
        op_idx in 0usize..ARITH_OPS.len(),
        swapped in any::<bool>(),
    ) {
        let op = ARITH_OPS[op_idx];
        let k = i64_case(k_code, k_mag);
        let a: Vec<i64> = rows.iter().map(|&((c, m), _)| i64_case(c, m)).collect();
        let b: Vec<i64> = rows.iter().map(|&(_, (c, m))| i64_case(c, m)).collect();
        let exact = |x: i64, y: i64| -> Value {
            let wide = match op {
                ArithOp::Add => i128::from(x) + i128::from(y),
                ArithOp::Sub => i128::from(x) - i128::from(y),
                ArithOp::Mul => i128::from(x) * i128::from(y),
            };
            match i64::try_from(wide) {
                Ok(v) => Value::Int(v),
                Err(_) => Value::Float(wide as f64),
            }
        };
        let check = |got: IntArith, expected: Vec<Value>, label: &str| -> Result<(), TestCaseError> {
            let got: Vec<Value> = match got {
                IntArith::Ints(vs) => vs.into_iter().map(Value::Int).collect(),
                IntArith::Mixed(vs) => vs,
            };
            prop_assert_eq!(got, expected, "{} op {:?} k {}", label, op, k);
            Ok(())
        };

        let expected: Vec<Value> =
            a.iter().map(|&x| if swapped { exact(k, x) } else { exact(x, k) }).collect();
        check(i64_arith_const(op, &a, k, swapped), expected, "const")?;

        let expected: Vec<Value> = a.iter().zip(&b).map(|(&x, &y)| exact(x, y)).collect();
        check(i64_arith_cols(op, &a, &b), expected, "cols")?;
    }

    /// Float arithmetic kernels == plain scalar IEEE ops, bit-for-bit
    /// (NaN/±inf propagate; `to_bits` comparison catches sign-of-zero and
    /// NaN-payload deviations a `==` check would miss).
    #[test]
    fn f64_arith_kernels_match_scalar(
        rows in proptest::collection::vec(((0usize..8, -1e3f64..1e3), (0usize..8, -1e3f64..1e3)), 0..60),
        k_code in 0usize..8,
        k_mag in -1e3f64..1e3,
        op_idx in 0usize..ARITH_OPS.len(),
        swapped in any::<bool>(),
    ) {
        let op = ARITH_OPS[op_idx];
        let k = f64_case(k_code, k_mag);
        let a: Vec<f64> = rows.iter().map(|&((c, m), _)| f64_case(c, m)).collect();
        let b: Vec<f64> = rows.iter().map(|&(_, (c, m))| f64_case(c, m)).collect();
        let exact = |x: f64, y: f64| -> f64 {
            match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
            }
        };
        let bits = |vs: &[f64]| -> Vec<u64> { vs.iter().map(|f| f.to_bits()).collect() };

        let expected: Vec<f64> =
            a.iter().map(|&x| if swapped { exact(k, x) } else { exact(x, k) }).collect();
        prop_assert_eq!(bits(&f64_arith_const(op, &a, k, swapped)), bits(&expected));

        let expected: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| exact(x, y)).collect();
        prop_assert_eq!(bits(&f64_arith_cols(op, &a, &b)), bits(&expected));
    }

    /// The typed pushes == pushing the boxed values one by one, for every
    /// accumulator kind: a Float stream (NaN/±inf/signed zeros — in half the
    /// cases nothing else, so MIN / MAX ties decide the bits; a NULL row
    /// has no typed push, as the aggregate operators skip it), an Int stream
    /// (±2^53±1, the i64 extremes) and the two interleaved, each behind a
    /// head — none, an Int incumbent from the same ladder, or a NaN — so
    /// MIN / MAX's direct compare meets every candidate list it must leave
    /// to the class fold (finish() results compared by debug rendering so
    /// NaN outcomes stay comparable).
    #[test]
    fn typed_pushes_match_boxed_pushes(
        rows in proptest::collection::vec((0usize..8, -1e3f64..1e3, any::<bool>()), 0..60),
        int_rows in proptest::collection::vec((0usize..8, -1_000_000i64..1_000_000), 0..60),
        head in (0usize..3, 0usize..8, -1_000_000i64..1_000_000),
        zeros in any::<bool>(),
    ) {
        let float = |c: usize, m: f64| match f64_case(c, m) {
            f if zeros && !f.is_nan() => if f.is_sign_negative() { -0.0 } else { 0.0 },
            f => f,
        };
        let floats: Vec<Value> = rows
            .iter()
            .map(|&(c, m, null)| if null { Value::Null } else { Value::Float(float(c, m)) })
            .collect();
        let ints: Vec<Value> = int_rows.iter().map(|&(c, m)| Value::Int(i64_case(c, m))).collect();
        let interleaved: Vec<Value> =
            floats.iter().zip(&ints).flat_map(|(f, i)| [f.clone(), i.clone()]).collect();
        let head = match head {
            (0, ..) => None,
            (1, c, m) => Some(Value::Int(i64_case(c, m))),
            _ => Some(Value::Float(f64::NAN)),
        };
        for name in ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV", "MIN", "MAX", "PERCENTILE"] {
            for stream in [&floats, &ints, &interleaved] {
                let mut typed = AggAcc::new(name).expect("known aggregate");
                let mut boxed = typed.clone();
                for v in head.iter().chain(stream) {
                    boxed.push(std::slice::from_ref(v)).expect("single-arg push");
                    match *v {
                        Value::Float(f) => typed.push_f64(f),
                        Value::Int(i) => typed.push_i64(i),
                        _ => {}
                    }
                }
                prop_assert_eq!(
                    format!("{:?}", typed.finish()),
                    format!("{:?}", boxed.finish()),
                    "{} over {:?} after {:?}", name, stream, head
                );
            }
        }
    }

    /// The struct-of-arrays accumulator columns both aggregate operators
    /// fold into == one `AggAcc` per slot, for the seven kinds with a column
    /// form: a stream of `(slot, value)` pushes — NaN first and later, ±inf,
    /// subnormals, sums that overflow, and a magnitude ladder spliced in
    /// whole so the case grows some expansion past the inline capacity; or,
    /// in half the cases, only NaNs and signed zeros, so MIN / MAX ties
    /// decide the bits — is cut into blocks, each over the slots its pushes
    /// reach (or all of them) and each dense or boxed, merged in order into a
    /// dense or a boxed column. The oracle does the same with `AggAcc`s,
    /// moving a block's accumulator into an untouched slot and merging it
    /// into a touched one. Every slot finishes to the same value by its bits,
    /// and the column is the variant `Column::from_values` builds.
    #[test]
    fn agg_columns_match_agg_acc_blocks(
        stream in proptest::collection::vec((0usize..8, 0usize..16, -1e3f64..1e3), 0..80),
        slots in 1usize..6,
        cuts in proptest::collection::vec(0usize..90, 0..6),
        ladder in (0usize..8, 0usize..80, any::<bool>()),
        whole_blocks in any::<bool>(),
        zeros in any::<bool>(),
        boxed in any::<u8>(),
    ) {
        let blocks = AggBlocks::new(&stream, slots, cuts, ladder, whole_blocks, zeros, boxed);
        for name in ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV", "MIN", "MAX"] {
            let fresh = || AggAcc::new(name).expect("known aggregate");
            let mut want: Vec<Option<AggAcc>> = (0..slots).map(|_| None).collect();
            for block in blocks.blocks() {
                let mut accs: Vec<Option<AggAcc>> = (0..slots).map(|_| None).collect();
                for &(s, v) in block.iter() {
                    accs[s].get_or_insert_with(fresh).push(&[Value::Float(v)]).expect("push");
                }
                for (mine, theirs) in want.iter_mut().zip(accs) {
                    match (mine.as_mut(), theirs) {
                        (_, None) => {}
                        (None, theirs) => *mine = theirs,
                        (Some(mine), Some(theirs)) => mine.merge(theirs).expect("merge"),
                    }
                }
            }
            let want: Vec<Value> = want
                .into_iter()
                .map(|acc| acc.unwrap_or_else(fresh).finish().expect("finish"))
                .collect();
            let want = Column::from_values(want);
            let got = blocks.fold(&[name]).remove(0);
            prop_assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{}: {:?} vs {:?}", name, got, want
            );
            prop_assert_eq!(bits(&got), bits(&want), "{} over {:?}", name, blocks.pushes);
        }
    }

    /// One column shared by any of `COUNT`, `SUM`, `AVG`, `VARIANCE` and
    /// `STDDEV` over one argument — the widest kind they need — finishes
    /// every call to the bits, and the column variant, that the call's own
    /// column gives: over the same split-and-merged blocks as above, dense
    /// and boxed, with the expansions that outgrow the inline partials
    /// spilling (sooner in a shared column: Σv² fills first).
    #[test]
    fn a_shared_moments_column_finishes_each_call_as_its_own_column(
        stream in proptest::collection::vec((0usize..8, 0usize..16, -1e3f64..1e3), 0..80),
        slots in 1usize..6,
        cuts in proptest::collection::vec(0usize..90, 0..6),
        ladder in (0usize..8, 0usize..80, any::<bool>()),
        whole_blocks in any::<bool>(),
        zeros in any::<bool>(),
        boxed in any::<u8>(),
        calls in 1u8..32,
    ) {
        let blocks = AggBlocks::new(&stream, slots, cuts, ladder, whole_blocks, zeros, boxed);
        let names: Vec<&str> = ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"]
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| calls >> i & 1 == 1)
            .map(|(_, name)| name)
            .collect();
        let shared = blocks.fold(&names);
        prop_assert_eq!(shared.len(), names.len(), "a finished column per call");
        for (name, got) in names.iter().zip(&shared) {
            let own = blocks.fold(&[name]).remove(0);
            prop_assert_eq!(
                std::mem::discriminant(got),
                std::mem::discriminant(&own),
                "{} among {:?}: {:?} vs {:?}", name, names, got, own
            );
            prop_assert_eq!(bits(got), bits(&own), "{} among {:?}", name, names);
        }
    }

    /// `mini_from_values` extracts homogeneous numeric(+NULL) runs with a
    /// faithful validity bitmap and refuses mixed Int/Float runs (a shared
    /// f64 view would round i64 values above 2^53).
    #[test]
    fn mini_extraction_is_faithful(
        rows in proptest::collection::vec((0usize..3, 0usize..8, -1e3f64..1e3), 0..60),
        kind in 0usize..3,
    ) {
        use explainit_query::kernel::is_valid;
        // kind 0: Float(+NULL); 1: Int(+NULL); 2: mixed numerics.
        let boxed: Vec<Value> = rows
            .iter()
            .map(|&(slot, code, mag)| match (kind, slot) {
                (_, 0) => Value::Null,
                (0, _) => Value::Float(f64_case(code, mag)),
                (1, _) => Value::Int(i64_case(code, mag as i64 * 1000)),
                (_, 1) => Value::Float(f64_case(code, mag)),
                _ => Value::Int(i64_case(code, mag as i64 * 1000)),
            })
            .collect();
        let has_int = boxed.iter().any(|v| matches!(v, Value::Int(_)));
        let has_float = boxed.iter().any(|v| matches!(v, Value::Float(_)));
        match mini_from_values(&boxed) {
            None => prop_assert!(has_int && has_float, "only mixed runs may refuse"),
            Some(Mini::F64(vals, validity)) => {
                prop_assert!(!has_int);
                prop_assert_eq!(vals.len(), boxed.len());
                for (i, v) in boxed.iter().enumerate() {
                    match v {
                        Value::Float(f) => {
                            prop_assert!(is_valid(validity.as_deref(), i));
                            prop_assert_eq!(vals[i].to_bits(), f.to_bits());
                        }
                        _ => prop_assert!(!is_valid(validity.as_deref(), i)),
                    }
                }
            }
            Some(Mini::I64(vals, validity)) => {
                prop_assert!(!has_float);
                prop_assert_eq!(vals.len(), boxed.len());
                for (i, v) in boxed.iter().enumerate() {
                    match v {
                        Value::Int(x) => {
                            prop_assert!(is_valid(validity.as_deref(), i));
                            prop_assert_eq!(vals[i], *x);
                        }
                        _ => prop_assert!(!is_valid(validity.as_deref(), i)),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The column evaluator against the row walker
// ---------------------------------------------------------------------------

/// Expressions over the generated table `(i, f, n, m, d, s)`: dense Int
/// and Float, an Int column with NULL runs, a mixed Int/Float/NULL column,
/// a dictionary column (string entries plus one NULL and one Int entry, so
/// string functions fail on the rows that reference it) and dense strings.
/// Several raise a type error on some rows only, or only on rows a
/// short-circuit lets through.
const EXPRS: [&str; 58] = [
    "i + 1",
    "i * 2 - n",
    "-i",
    "-m",
    "f * 2 - i",
    "n + m",
    "m / n",
    "i % 3",
    "i > f",
    "m >= 1.5",
    "n = 2",
    "f != f",
    "9007199254740993 < f",
    "i <= 9223372036854775807.0",
    "s < d",
    "NULL = i",
    "i > 0 AND f < 1",
    "n > 0 OR m < 0",
    "NOT (n > 1)",
    "n AND m",
    "n IS NULL OR UPPER(i) = 'X'",
    "n IS NOT NULL AND d LIKE 'a%'",
    "i < 0 AND (f > 0 OR UPPER(n) = 'X')",
    "UPPER(s)",
    "UPPER(d)",
    "d LIKE 'a%'",
    "s GLOB 'a*'",
    "CONCAT(d, '-', i)",
    "CONCAT(UPPER(d), LENGTH(d))",
    "SPLIT(s, '-')[0]",
    "SPLIT(d, 'a')[n]",
    "LENGTH(d)",
    "COALESCE(n, m, 0)",
    "GREATEST(i, f)",
    "ABS(m)",
    "NULLIF(s, d)",
    "IF(n > 1, s, d)",
    "d IS NULL",
    "n IS NOT NULL",
    "d IN ('a', s)",
    "s IN (d, 'b', NULL)",
    "i NOT IN (n, m, 3)",
    "n IN (1, UPPER(n))",
    "i BETWEEN n AND 5",
    "f BETWEEN 0 AND 1.5",
    "m NOT BETWEEN 1 AND 2",
    "CASE WHEN n IS NULL THEN 'null' WHEN m > 0 THEN UPPER(s) ELSE d END",
    "CASE WHEN i > 0 THEN UPPER(i) END",
    "CASE WHEN d = 'a' THEN 1 WHEN d LIKE 'b%' THEN 2 ELSE LENGTH(d) END",
    "LAG(i)",
    "LEAD(f, 2, -1.0)",
    "LAG(d, n)",
    "LAG(s, i % 3, d)",
    "LAG(LAG(i), 1, 7)",
    "LEAD(i, 9223372036854775807)",
    "CASE WHEN i > 0 THEN LAG(m) ELSE 0 END",
    "LAG(n, 0) + LEAD(i, 0)",
    "AVG(i)",
];

fn parsed(sql: &str) -> explainit_query::Expr {
    let query = explainit_query::parse_query(&format!("SELECT {sql}")).expect(sql);
    match &query.selects[0].items[0] {
        explainit_query::SelectItem::Expr { expr, .. } => expr.clone(),
        explainit_query::SelectItem::Wildcard => panic!("not an expression: {sql}"),
    }
}

type Cell = ((usize, i64), (usize, f64), (usize, usize), usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `veval::eval` (row context) and `veval::eval_projection` (window
    /// context) agree with `eval_with_rows` value for value — and are `Err`
    /// exactly when the walker is `Err` for at least one row.
    #[test]
    fn column_evaluator_matches_the_row_walker(
        cells in proptest::collection::vec(
            ((0usize..8, 0i64..4), (0usize..8, -3.0f64..3.0), (0usize..4, 0usize..6), 0usize..4),
            1..14,
        ),
    ) {
        use explainit_query::eval::eval_with_rows;
        use explainit_query::{veval, Column, Schema};
        let cells: Vec<Cell> = cells;
        let dict = std::sync::Arc::new(vec![
            Value::str("a"), Value::str("b-a"), Value::str("abc"), Value::Null, Value::Int(7),
            Value::str("unreferenced unless a code says so"),
        ]);
        let strs = ["a", "b", "a-b", "web-1"];
        let cols = vec![
            Column::Int(cells.iter().map(|c| i64_case(c.0 .0, c.0 .1)).collect()),
            Column::Float(cells.iter().map(|c| f64_case(c.1 .0, c.1 .1)).collect()),
            Column::from_values(cells.iter().map(|c| match c.2 .0 {
                0 => Value::Null,
                slot => Value::Int(slot as i64 - 1),
            }).collect()),
            Column::from_values(cells.iter().map(|c| match (c.2 .0 + c.3) % 3 {
                0 => Value::Null,
                1 => Value::Int(c.0 .1),
                _ => Value::Float(c.1 .1),
            }).collect()),
            Column::dict(dict, cells.iter().map(|c| c.2 .1 as u32).collect()),
            Column::Str(cells.iter().map(|c| strs[c.3].to_string()).collect()),
        ];
        let schema = Schema::new(["i", "f", "n", "m", "d", "s"].map(String::from).to_vec());
        let len = cells.len();
        let rows: Vec<Vec<Value>> =
            (0..len).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
        for sql in EXPRS {
            let expr = parsed(sql);
            // Projection context sees every row; row context one at a time.
            let contexts = [
                (veval::eval_projection(&expr, &schema, &cols, len), true),
                (veval::eval(&expr, &schema, &cols, len), false),
            ];
            for (got, sees_all_rows) in contexts {
                let want: Result<Vec<Value>, _> = (0..len)
                    .map(|r| {
                        if sees_all_rows {
                            eval_with_rows(&expr, &schema, &rows, r)
                        } else {
                            eval_with_rows(&expr, &schema, &rows[r..r + 1], 0)
                        }
                    })
                    .collect();
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        let got: Vec<Value> = got.into_column(len).iter_values().collect();
                        // Rendered, so NaN cells compare too.
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", sql);
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!(
                        "{sql} over {rows:?}: evaluator {:?}, walker {:?}",
                        got.map(|c| c.into_column(len)),
                        want
                    ),
                }
            }
        }
    }
}
