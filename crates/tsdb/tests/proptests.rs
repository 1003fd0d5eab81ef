//! Property tests for the TSDB: index consistency, glob matching.

use explainit_tsdb::{glob_match, MetricFilter, SeriesKey, Tsdb};
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = SeriesKey> {
    ("[a-z]{1,6}", proptest::collection::btree_map("[a-z]{1,4}", "[a-z0-9]{1,4}", 0..3)).prop_map(
        |(name, tags)| {
            let mut k = SeriesKey::new(name);
            k.tags = tags;
            k
        },
    )
}

fn points_strategy() -> impl Strategy<Value = Vec<(i64, f64)>> {
    proptest::collection::btree_map(0i64..10_000, -1e6f64..1e6, 0..50)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #[test]
    fn insert_then_find_by_exact_name(key in key_strategy(), pts in points_strategy()) {
        let mut db = Tsdb::new();
        for &(ts, v) in &pts {
            db.insert(&key, ts, v);
        }
        if pts.is_empty() {
            return Ok(());
        }
        let hits = db.find(&MetricFilter::name(key.name.clone()));
        prop_assert_eq!(hits.len(), 1);
        let s = db.series(hits[0]);
        prop_assert_eq!(s.len(), pts.len());
        // Sorted invariant.
        prop_assert!(s.timestamps().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicate_timestamps_last_writer_wins(ts in 0i64..1000, a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("m");
        db.insert(&key, ts, a);
        db.insert(&key, ts, b);
        prop_assert_eq!(db.get(&key).expect("series").values(), vec![b]);
        prop_assert_eq!(db.point_count(), 1);
    }

    #[test]
    fn out_of_order_inserts_sort(mut pts in proptest::collection::vec((0i64..10_000, -5.0f64..5.0), 1..40)) {
        // Dedup timestamps keeping the last occurrence (insert semantics).
        let mut db = Tsdb::new();
        let key = SeriesKey::new("m");
        for &(ts, v) in &pts {
            db.insert(&key, ts, v);
        }
        pts.reverse();
        pts.dedup_by_key(|p| p.0);
        let s = db.get(&key).expect("series");
        prop_assert!(s.timestamps().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn glob_star_is_reflexive_and_prefix_safe(s in "[a-z0-9.-]{0,16}") {
        prop_assert!(glob_match(&s, &s), "literal self-match");
        prop_assert!(glob_match("*", &s));
        let suffixed = format!("{s}*");
        prop_assert!(glob_match(&suffixed, &s));
        let prefixed = format!("*{s}");
        prop_assert!(glob_match(&prefixed, &s));
        if !s.is_empty() {
            let with_prefix = format!("{}*", &s[..s.len() / 2]);
            prop_assert!(glob_match(&with_prefix, &s));
        }
    }

    #[test]
    fn ranged_scan_matches_brute_force_incl_extremes(
        pts in points_strategy(),
        with_min in any::<bool>(),
        with_max in any::<bool>(),
        bounds in 0usize..5,
    ) {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("m");
        for &(ts, v) in &pts {
            db.insert(&key, ts, v);
        }
        if with_min {
            db.insert(&key, i64::MIN, -1.0);
        }
        if with_max {
            db.insert(&key, i64::MAX, 1.0);
        }
        let series = match db.get(&key) {
            Some(s) => s,
            None => return Ok(()),
        };
        let (lo, hi) = [
            (i64::MIN, i64::MAX),
            (0, i64::MAX),
            (i64::MIN, 5_000),
            (i64::MAX, i64::MAX),
            (5_000, 0), // inverted -> empty
        ][bounds];
        let expect: Vec<(i64, f64)> =
            series.points().filter(|p| p.ts >= lo && p.ts <= hi).map(|p| (p.ts, p.value)).collect();
        let parts = db.scan_parts_ordered_between(&MetricFilter::all(), lo, hi).expect("scan");
        let got: Vec<(i64, f64)> = parts
            .iter()
            .flat_map(|p| p.timestamps.iter().copied().zip(p.values.iter().copied()))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_matches_iff_scan_finds(key in key_strategy(), other in key_strategy()) {
        let mut db = Tsdb::new();
        db.insert(&key, 0, 1.0);
        db.insert(&other, 0, 2.0);
        // Exact filter on the first key's name + all its tags.
        let mut filter = MetricFilter::name(key.name.clone());
        for (k, v) in &key.tags {
            filter = filter.with_tag(k.clone(), v.clone());
        }
        let hits = db.find(&filter);
        // The target key must be among the hits.
        prop_assert!(hits.iter().any(|&id| db.series(id).key == key));
        // Every hit must actually satisfy the filter.
        for &id in &hits {
            prop_assert!(filter.matches(&db.series(id).key));
        }
    }
}
