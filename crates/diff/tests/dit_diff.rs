//! Indexed DIT search vs the exhaustive reference scan.
//!
//! The fast path prunes the tree walk (sorted child-walk, Sub fast path);
//! `search_reference` scans every entry.  Both must return the same
//! entries in the same order for any tree, base, scope and filter —
//! including after the mutation patterns (upserts, subtree removals) that
//! bump the generation counter the MDS result cache keys on.

use ldapdir::{Dit, Dn, Entry, Filter, Scope};
use proptest::prelude::*;

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-c]", "[a-z0-9]{1,4}").prop_map(|(a, v)| Filter::Eq(a, v)),
        "[a-c]".prop_map(Filter::Present),
        ("[a-c]", "[0-9]{1,2}").prop_map(|(a, v)| Filter::Ge(a, v)),
        ("[a-c]", "[0-9]{1,2}").prop_map(|(a, v)| Filter::Le(a, v)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

/// A random tree: suffix `o=grid`, depth-1 `vo=` entries, depth-2
/// `host=` children, attributes from the filter alphabet.
fn build_dit(spec: &[(String, Vec<(String, String)>)]) -> (Dit, Dn) {
    let suffix = Dn::parse("o=grid").unwrap();
    let mut dit = Dit::new(suffix.clone());
    for (i, (name, attrs)) in spec.iter().enumerate() {
        let dn = if i % 3 == 0 {
            suffix.child("vo", name)
        } else {
            suffix.child("vo", name).child("host", &format!("h{i}"))
        };
        let mut e = Entry::new(dn);
        e.add("objectclass", "thing");
        for (a, v) in attrs {
            e.add(a, v);
        }
        let _ = dit.upsert(e);
    }
    (dit, suffix)
}

fn arb_spec() -> impl Strategy<Value = Vec<(String, Vec<(String, String)>)>> {
    proptest::collection::vec(
        (
            "[a-z0-9]{1,5}",
            proptest::collection::vec(("[a-c]", "[a-z0-9]{1,4}"), 0..4),
        ),
        0..24,
    )
}

fn assert_same_search(dit: &Dit, base: &Dn, scope: Scope, filter: &Filter) {
    let fast: Vec<String> = dit
        .search(base, scope, filter)
        .iter()
        .map(|e| e.dn.to_string())
        .collect();
    let slow: Vec<String> = dit
        .search_reference(base, scope, filter)
        .iter()
        .map(|e| e.dn.to_string())
        .collect();
    assert_eq!(
        fast, slow,
        "search diverged for scope {scope:?} filter {filter}"
    );
}

proptest! {
    /// Every (tree, scope, filter) triple returns identical hit lists.
    #[test]
    fn search_agrees_with_reference(spec in arb_spec(), filter in arb_filter()) {
        let (dit, suffix) = build_dit(&spec);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert_same_search(&dit, &suffix, scope, &filter);
            assert_same_search(&dit, &suffix, scope, &Filter::any());
        }
        // Non-suffix bases too (including missing ones).
        if let Some((name, _)) = spec.first() {
            let base = suffix.child("vo", name);
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                assert_same_search(&dit, &base, scope, &filter);
            }
        }
        let missing = suffix.child("vo", "no-such-vo");
        assert_same_search(&dit, &missing, Scope::Sub, &filter);
    }

    /// Re-upserting every entry of a tree unchanged is not a mutation:
    /// the generation the MDS cache keys on stays put, and so does every
    /// search result.
    #[test]
    fn identical_reupsert_is_invisible(spec in arb_spec(), filter in arb_filter()) {
        let (mut dit, suffix) = build_dit(&spec);
        let before = dit.generation();
        let mut bases = vec![suffix.clone()];
        bases.extend(dit.iter().map(|e| e.dn.clone()));
        let snapshot = |dit: &Dit| -> Vec<Vec<Entry>> {
            let mut out = Vec::new();
            for base in &bases {
                for scope in [Scope::Base, Scope::One, Scope::Sub] {
                    for f in [&filter, &Filter::any()] {
                        out.push(dit.search(base, scope, f).into_iter().cloned().collect());
                    }
                }
            }
            out
        };
        let old = snapshot(&dit);
        let copies: Vec<Entry> = dit.iter().cloned().collect();
        for e in copies {
            prop_assert!(dit.upsert(e).is_ok());
        }
        // Rebuilding the tree from scratch gives equal entries with
        // separately allocated attribute maps: still no mutation.
        let (rebuilt, _) = build_dit(&spec);
        for e in rebuilt.iter().cloned() {
            prop_assert!(dit.upsert(e).is_ok());
        }
        prop_assert_eq!(dit.generation(), before);
        prop_assert_eq!(snapshot(&dit), old);
    }

    /// Mutations (remove_subtree + re-upsert) keep the paths agreeing and
    /// always bump the generation counter the MDS cache depends on.
    #[test]
    fn mutated_tree_still_agrees(spec in arb_spec(), filter in arb_filter()) {
        let (mut dit, suffix) = build_dit(&spec);
        let before = dit.generation();
        if let Some((name, _)) = spec.first() {
            let victim = suffix.child("vo", name);
            let _ = dit.remove_subtree(&victim);
            prop_assert!(dit.generation() > before, "mutation must bump generation");
        }
        let mut e = Entry::new(suffix.child("vo", "fresh"));
        e.add("objectclass", "thing");
        e.add("a", "zz9");
        let _ = dit.upsert(e);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert_same_search(&dit, &suffix, scope, &filter);
        }
    }
}
