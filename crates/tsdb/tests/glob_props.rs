//! Property tests for glob matching and the name-index range scan behind
//! `Tsdb::find`: the literal-prefix fast path must agree with brute force
//! on every pattern shape — empty prefixes, `*`-leading globs, prefixes
//! past the end of the name index — not just the happy paths the unit
//! tests cover.

use explainit_tsdb::{
    glob_literal_prefix, glob_match, is_glob, MetricFilter, SeriesId, SeriesKey, Tsdb,
};
use proptest::prelude::*;

/// Metric-name fragments; names are concatenations of a few of these, so
/// generated patterns share prefixes with (and diverge from) real names.
const FRAGS: [&str; 8] = ["disk", "net", "cpu", "pipeline", "_read", "_write", "0", "zz"];

fn name_from(picks: &[usize]) -> String {
    picks.iter().map(|&i| FRAGS[i % FRAGS.len()]).collect()
}

/// A generated store: each entry is a fragment-index list naming a series.
fn stores() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..FRAGS.len(), 1..4), 0..12)
}

fn build_db(names: &[Vec<usize>]) -> Tsdb {
    let mut db = Tsdb::new();
    for (i, picks) in names.iter().enumerate() {
        let key = SeriesKey::new(name_from(picks)).with_tag("host", format!("h{}", i % 3));
        db.try_insert(&key, i as i64, 1.0).expect("insert");
    }
    db
}

/// Brute-force oracle: filter every series key through `glob_match`.
fn brute_find(db: &Tsdb, pattern: &str) -> Vec<SeriesId> {
    db.iter()
        .filter(|(_, s)| {
            if is_glob(pattern) {
                glob_match(pattern, &s.key.name)
            } else {
                pattern == s.key.name
            }
        })
        .map(|(id, _)| id)
        .collect()
}

/// Mutates a base name into a pattern: star/question insertion at an
/// arbitrary byte-safe position, star-prefixing (empty literal prefix),
/// or appending a metacharacter (prefix = whole name).
fn mutate(base: &str, variant: usize, pos: usize) -> String {
    let cut = base
        .char_indices()
        .map(|(i, _)| i)
        .chain([base.len()])
        .cycle()
        .nth(pos % (base.chars().count() + 1))
        .unwrap_or(0);
    match variant % 6 {
        0 => format!("{}*{}", &base[..cut], &base[cut..]),
        1 => format!("{}?{}", &base[..cut], &base[cut..]),
        2 => format!("*{base}"),            // empty literal prefix
        3 => format!("{base}*"),            // prefix == a real name
        4 => format!("*{}*", &base[cut..]), // empty prefix, infix match
        _ => base.to_string(),              // exact (non-glob) lookup
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn find_agrees_with_brute_force_on_generated_patterns(
        names in stores(),
        base in proptest::collection::vec(0usize..FRAGS.len(), 1..4),
        variant in 0usize..6,
        pos in 0usize..16,
    ) {
        let db = build_db(&names);
        let pattern = mutate(&name_from(&base), variant, pos);
        prop_assert_eq!(
            db.find(&MetricFilter::name(pattern.clone())),
            brute_find(&db, &pattern),
            "pattern {}", pattern
        );
    }

    #[test]
    fn find_agrees_when_the_prefix_falls_past_the_index_end(
        names in stores(),
        variant in 0usize..3,
    ) {
        // Prefixes that sort at or beyond the end of `name_index`: the
        // range scan must terminate cleanly and return exactly the brute
        // matches (usually none).
        let db = build_db(&names);
        let pattern = match variant {
            0 => "zzzz*".to_string(),              // past every name
            1 => "\u{10FFFF}*".to_string(),        // maximal start character
            _ => {
                // One past the lexicographically last stored name.
                let last = db.metric_names().last().map(|s| s.to_string()).unwrap_or_default();
                format!("{last}z*")
            }
        };
        prop_assert_eq!(
            db.find(&MetricFilter::name(pattern.clone())),
            brute_find(&db, &pattern),
            "pattern {}", pattern
        );
    }

    #[test]
    fn literal_prefix_invariants(
        base in proptest::collection::vec(0usize..FRAGS.len(), 1..4),
        variant in 0usize..6,
        pos in 0usize..16,
        text in proptest::collection::vec(0usize..FRAGS.len(), 0..4),
    ) {
        let pattern = mutate(&name_from(&base), variant, pos);
        let prefix = glob_literal_prefix(&pattern);
        // The prefix is literal and is a prefix of the pattern itself.
        prop_assert!(!prefix.contains('*') && !prefix.contains('?'));
        prop_assert!(pattern.starts_with(prefix));
        // Every matching text starts with the literal prefix — the
        // invariant the name-index range scan depends on.
        let text = name_from(&text);
        if glob_match(&pattern, &text) {
            prop_assert!(text.starts_with(prefix), "pattern {} text {}", pattern, text);
        }
        // A non-glob pattern's "prefix" is the whole pattern.
        if !is_glob(&pattern) {
            prop_assert_eq!(prefix, pattern.as_str());
        }
    }

    #[test]
    fn find_composes_glob_names_with_tag_predicates(
        names in stores(),
        base in proptest::collection::vec(0usize..FRAGS.len(), 1..3),
        host in 0usize..3,
    ) {
        let db = build_db(&names);
        let pattern = format!("{}*", name_from(&base));
        let host = format!("h{host}");
        let f = MetricFilter::name(pattern.clone()).with_tag("host", &host);
        let brute: Vec<SeriesId> = db
            .iter()
            .filter(|(_, s)| glob_match(&pattern, &s.key.name) && s.key.tag("host") == Some(host.as_str()))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(db.find(&f), brute, "pattern {} host {}", pattern, host);
    }
}

/// Pinned edge cases around the ends of the name index.
#[test]
fn find_edge_cases_pinned() {
    let mut db = Tsdb::new();
    for name in ["alpha", "beta", "betamax", "omega"] {
        db.try_insert(&SeriesKey::new(name), 0, 1.0).expect("insert");
    }
    // Empty pattern: non-glob, matches nothing stored.
    assert!(db.find(&MetricFilter::name("")).is_empty());
    // Bare star: empty prefix, matches everything.
    assert_eq!(db.find(&MetricFilter::name("*")).len(), 4);
    // Star-leading: full scan path.
    assert_eq!(db.find(&MetricFilter::name("*eta*")).len(), 2);
    // Prefix equal to the last indexed name.
    assert_eq!(db.find(&MetricFilter::name("omega*")).len(), 1);
    // Prefix strictly past the last indexed name.
    assert!(db.find(&MetricFilter::name("omegb*")).is_empty());
    // Prefix that is a proper prefix of two adjacent names.
    assert_eq!(db.find(&MetricFilter::name("beta*")).len(), 2);
    assert_eq!(db.find(&MetricFilter::name("beta?ax")).len(), 1);
    // Question-leading: empty prefix, single-char wildcard.
    assert_eq!(db.find(&MetricFilter::name("?lpha")).len(), 1);
    // Empty store: every shape returns empty.
    let empty = Tsdb::new();
    for pat in ["", "*", "a*", "?"] {
        assert!(empty.find(&MetricFilter::name(pat)).is_empty(), "pattern {pat}");
    }
}
