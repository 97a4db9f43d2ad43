//! Compiled ClassAd VM vs the tree-walking reference evaluator.
//!
//! The compiled kernel (`CompiledExpr`) flattens an expression into a
//! postfix op-vec with jump-based short-circuiting; the tree walker is the
//! oracle.  Every random expression must evaluate to a bit-identical
//! value in both, with and without a TARGET ad, and the matchmaking
//! wrappers must agree on every random ad pair.
//!
//! Two properties of the ads themselves ride along: an ad and its
//! copy-on-write clone never see each other's mutations (and the
//! memoized wire size always matches the printed form), and attribute
//! references of any letter case resolve exactly when `ClassAd::get`
//! finds the name.

use classad::reference::{
    eval_reference, matches_constraint_reference, requirements_met_reference,
    symmetric_match_reference,
};
use classad::{matchmaker, parse_expr, BinOp, ClassAd, CompiledExpr, Expr, Scope, UnOp, Value};
use gridmon_diff::{value_repr, values_identical};
use proptest::prelude::*;

/// Arbitrary expressions over a deliberately small attribute alphabet so
/// references frequently resolve — and frequently collide into cycles.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Expr::int),
        (-100.0f64..100.0).prop_map(Expr::real),
        Just(Expr::int(0)), // divisors hit zero often enough to matter
        "[a-f]".prop_map(|s| Expr::attr(&s)),
        "[a-f]".prop_map(|s| Expr::scoped_attr(Scope::My, &s)),
        "[a-f]".prop_map(|s| Expr::scoped_attr(Scope::Target, &s)),
        "[a-zA-Z0-9 ]{0,6}".prop_map(|s| Expr::string(&s)),
        Just(Expr::boolean(true)),
        Just(Expr::boolean(false)),
        Just(Expr::Lit(Value::Undefined)),
        Just(Expr::Lit(Value::Error)),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::MetaEq),
            Just(BinOp::MetaNe),
        ];
        prop_oneof![
            (bin, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            (
                prop_oneof![
                    Just("floor"),
                    Just("ceiling"),
                    Just("round"),
                    Just("int"),
                    Just("real"),
                    Just("string"),
                    Just("isundefined"),
                    Just("iserror"),
                    Just("size"),
                    Just("tolower"),
                ],
                inner.clone()
            )
                .prop_map(|(f, a)| Expr::Call(f.into(), vec![a])),
            (
                prop_oneof![Just("min"), Just("max"), Just("strcat"), Just("strcmp")],
                inner.clone(),
                inner
            )
                .prop_map(|(f, a, b)| Expr::Call(f.into(), vec![a, b])),
        ]
    })
}

/// Arbitrary ads binding the same small alphabet, so generated expressions
/// resolve against them (including self- and mutually-recursive bodies).
fn arb_ad() -> impl Strategy<Value = ClassAd> {
    proptest::collection::vec(("[a-f]", arb_expr()), 0..6).prop_map(|attrs| {
        let mut ad = ClassAd::new();
        for (name, e) in attrs {
            ad.insert(&name, e);
        }
        ad
    })
}

/// One mutation of an ad under test.
#[derive(Debug, Clone)]
enum AdOp {
    /// Insert under a name of either case, often replacing an attribute.
    Insert(String, Expr),
    /// Re-insert the `i`-th attribute (mod length) under its upper-case
    /// name: a replacement that also changes the printed name.
    Replace(usize, Expr),
    Remove(String),
    Merge(ClassAd),
}

fn arb_op() -> impl Strategy<Value = AdOp> {
    prop_oneof![
        ("[a-fA-F]", arb_expr()).prop_map(|(n, e)| AdOp::Insert(n, e)),
        (0..6usize, arb_expr()).prop_map(|(i, e)| AdOp::Replace(i, e)),
        "[a-gA-G]".prop_map(AdOp::Remove),
        arb_ad().prop_map(AdOp::Merge),
    ]
}

fn apply(ad: &mut ClassAd, op: AdOp) {
    match op {
        AdOp::Insert(name, e) => ad.insert(&name, e),
        AdOp::Replace(i, e) => {
            let name = ad
                .iter()
                .nth(i % ad.len().max(1))
                .map(|(n, _)| n.to_uppercase());
            ad.insert(name.as_deref().unwrap_or("A"), e);
        }
        AdOp::Remove(name) => {
            ad.remove(&name);
        }
        AdOp::Merge(other) => ad.merge(&other),
    }
}

/// Base names for the case-folding property; the last is never inserted.
const NAMES: [&str; 4] = ["cpuload", "opsys", "memory", "disk"];

/// `base` with the letters whose bit is set in `mask` upper-cased.
fn cased(base: &str, mask: u64) -> String {
    base.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> i & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

fn assert_identical(e: &Expr, my: &ClassAd, target: Option<&ClassAd>) {
    let compiled = CompiledExpr::compile(e);
    let slow = eval_reference(e, my, target);
    let fast = compiled.eval(my, target);
    assert!(
        values_identical(&fast, &slow),
        "compiled {} != reference {} for {e}\n  my:\n{my}  target:\n{}",
        value_repr(&fast),
        value_repr(&slow),
        target.map(|t| t.to_string()).unwrap_or_default(),
    );
}

proptest! {
    /// Core agreement: any expression, any ad, no target.
    #[test]
    fn compiled_matches_reference_solo(e in arb_expr(), ad in arb_ad()) {
        assert_identical(&e, &ad, None);
    }

    /// With a TARGET ad: scope swaps, cross-ad references and the
    /// false-cycle bookkeeping must line up too.
    #[test]
    fn compiled_matches_reference_with_target(
        e in arb_expr(),
        my in arb_ad(),
        target in arb_ad(),
    ) {
        assert_identical(&e, &my, Some(&target));
    }

    /// Requirements matching: the compiled wrapper seeds its context the
    /// same way entering through the `requirements` attribute would.
    #[test]
    fn requirements_met_agrees(mut ad in arb_ad(), req in arb_expr(), target in arb_ad()) {
        ad.insert("Requirements", req);
        let compiled = matchmaker::compile_requirements(&ad);
        prop_assert_eq!(
            matchmaker::requirements_met_compiled(&ad, compiled.as_ref(), &target),
            requirements_met_reference(&ad, &target)
        );
        // An ad with no requirements is permissive in both.
        let open = ClassAd::new();
        prop_assert!(matchmaker::requirements_met_compiled(&open, None, &target));
        prop_assert!(requirements_met_reference(&open, &target));
    }

    /// Symmetric (gang) matching over random ad-store pairs.
    #[test]
    fn symmetric_match_agrees(
        mut a in arb_ad(),
        ra in arb_expr(),
        mut b in arb_ad(),
        rb in arb_expr(),
    ) {
        a.insert("Requirements", ra);
        b.insert("Requirements", rb);
        let ca = matchmaker::compile_requirements(&a);
        let cb = matchmaker::compile_requirements(&b);
        prop_assert_eq!(
            matchmaker::symmetric_match_compiled(&a, ca.as_ref(), &b, cb.as_ref()),
            symmetric_match_reference(&a, &b)
        );
    }

    /// Constraint scans (the Experiment-4 Hawkeye workload shape).
    #[test]
    fn matches_constraint_agrees(c in arb_expr(), ad in arb_ad()) {
        let compiled = CompiledExpr::compile(&c);
        prop_assert_eq!(
            matchmaker::matches_constraint_compiled(&ad, &compiled),
            matches_constraint_reference(&ad, &c)
        );
    }
}

proptest! {
    /// Copy-on-write isolation: mutating a clone never shows through in
    /// the original, and `wire_size` (memoized, shared by clones) always
    /// equals the printed length — asked between every two mutations, so
    /// a memo that survives a mutation is caught.
    #[test]
    fn cow_clone_isolation_and_wire_size(
        ad in arb_ad(),
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let printed = ad.to_string();
        prop_assert_eq!(ad.wire_size(), printed.len() as u64);
        let mut copy = ad.clone();
        prop_assert_eq!(copy.wire_size(), printed.len() as u64);
        for op in ops {
            apply(&mut copy, op);
            prop_assert_eq!(ad.to_string(), printed.clone());
            prop_assert_eq!(ad.wire_size(), printed.len() as u64);
            prop_assert_eq!(copy.wire_size(), copy.to_string().len() as u64);
        }
        // The original, in turn, is mutable without touching the copy.
        let copy_printed = copy.to_string();
        let mut original = ad;
        apply(&mut original, AdOp::Merge(copy.clone()));
        apply(&mut original, AdOp::Remove("a".into()));
        prop_assert_eq!(original.wire_size(), original.to_string().len() as u64);
        prop_assert_eq!(copy.to_string(), copy_printed.clone());
        prop_assert_eq!(copy.wire_size(), copy_printed.len() as u64);
    }

    /// Attribute names are case-insensitive: an ad built under mixed-case
    /// names answers a reference of any case — built by `Expr::attr` /
    /// `Expr::scoped_attr` or parsed, in MY and TARGET scope — exactly
    /// when `ClassAd::get` finds the name, with the stored value.
    #[test]
    fn attribute_references_fold_case_like_get(
        attrs in proptest::collection::vec((0..3usize, any::<u64>(), -9i64..9), 0..5),
        refs in proptest::collection::vec((0..4usize, any::<u64>()), 1..6),
    ) {
        let mut ad = ClassAd::new();
        for (i, mask, v) in attrs {
            ad.set_int(&cased(NAMES[i], mask), v);
        }
        let empty = ClassAd::new();
        for (i, mask) in refs {
            let name = cased(NAMES[i], mask);
            let want = match ad.get(&name) {
                Some(Expr::Lit(v)) => v.clone(),
                Some(other) => panic!("inserted literals only, got {other}"),
                None => Value::Undefined,
            };
            let parsed = |src: String| parse_expr(&src).expect("reference parses");
            let in_my = [
                Expr::attr(&name),
                Expr::scoped_attr(Scope::My, &name),
                parsed(name.clone()),
                parsed(format!("MY.{name}")),
            ];
            let in_target = [
                Expr::attr(&name),
                Expr::scoped_attr(Scope::Target, &name),
                parsed(name.clone()),
                parsed(format!("TARGET.{name}")),
            ];
            let cases = in_my.iter().map(|e| (e, &ad, None));
            let cases = cases.chain(in_target.iter().map(|e| (e, &empty, Some(&ad))));
            for (e, my, target) in cases {
                for got in [eval_reference(e, my, target), CompiledExpr::compile(e).eval(my, target)] {
                    prop_assert!(
                        values_identical(&got, &want),
                        "{e} gave {} but get({name:?}) says {}\n{ad}",
                        value_repr(&got),
                        value_repr(&want),
                    );
                }
            }
        }
    }
}
