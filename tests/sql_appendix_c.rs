//! The paper's Appendix C queries, verbatim-shaped, against the TSDB
//! binding: target selection, network/process feature families, the
//! conditioning query, and the final hypothesis join.

use explainit::query::{Catalog, Table, Value};
use explainit::tsdb::{SeriesKey, Tsdb};

/// Builds a database resembling the paper's `tsdb`, `flows` and
/// `processes` sources.
fn build_catalog() -> Catalog {
    let mut db = Tsdb::new();
    // Pipeline runtime + input rate for two pipelines over 30 minutes.
    for p in ["p1", "p2"] {
        let runtime = SeriesKey::new("pipeline_runtime").with_tag("pipeline_name", p);
        let input = SeriesKey::new("pipeline_input_rate").with_tag("pipeline_name", p);
        for t in 0..30 {
            let ts = t * 60;
            db.try_insert(&runtime, ts, 10.0 + t as f64 + if p == "p2" { 5.0 } else { 0.0 })
                .expect("insert");
            db.try_insert(&input, ts, 1000.0 + 10.0 * t as f64).expect("insert");
        }
    }
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);

    // The flows table (Listing 2's source).
    let mut flow_rows = Vec::new();
    for t in 0..30i64 {
        for (src, port) in [("10.0.0.1", 9000i64), ("10.0.0.2", 9000)] {
            flow_rows.push(vec![
                Value::Int(t * 60),
                Value::str(src),
                Value::Int(port),
                Value::Float(100.0 + t as f64),
                Value::Float(90_000.0),
                Value::Float(1.2),
                Value::Float(if t % 7 == 0 { 8.0 } else { 1.0 }),
            ]);
        }
    }
    catalog.register(
        "flows",
        Table::from_rows(
            &[
                "timestamp",
                "src_address",
                "service_port",
                "pkts",
                "bytes",
                "network_latency",
                "retransmissions",
            ],
            flow_rows,
        ),
    );

    // The processes table (Listing 3's source).
    let mut proc_rows = Vec::new();
    for t in 0..30i64 {
        for host in ["web-1", "web-2", "app-1", "db-1", "pipeline-1"] {
            proc_rows.push(vec![
                Value::Int(t * 60),
                Value::str("svc"),
                Value::str(host),
                Value::Float(10.0),
                Value::Float(5.0),
                Value::Float(1024.0),
                Value::Float(100.0),
                Value::Float(400.0),
                Value::Float(500.0),
            ]);
        }
    }
    catalog.register(
        "processes",
        Table::from_rows(
            &[
                "timestamp",
                "service_name",
                "hostname",
                "stime",
                "utime",
                "statm_resident",
                "read_b",
                "cancelled_write_b",
                "write_b",
            ],
            proc_rows,
        ),
    );
    catalog
}

#[test]
fn listing_1_target_family() {
    let catalog = build_catalog();
    let t = catalog
        .execute(
            "SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec \
             FROM tsdb WHERE metric_name = 'pipeline_runtime' \
             AND timestamp BETWEEN 0 AND 1800 \
             GROUP BY timestamp, tag['pipeline_name'] ORDER BY timestamp ASC",
        )
        .expect("listing 1");
    assert_eq!(t.len(), 60); // 30 timestamps x 2 pipelines
}

#[test]
fn listing_2_network_features() {
    let catalog = build_catalog();
    let t = catalog
        .execute(
            "SELECT timestamp, CONCAT(src_address, service_port), \
             AVG(pkts), AVG(bytes), AVG(network_latency), AVG(retransmissions) \
             FROM flows WHERE timestamp BETWEEN 0 AND 1800 \
             GROUP BY timestamp, CONCAT(src_address, service_port) \
             ORDER BY timestamp ASC",
        )
        .expect("listing 2");
    assert_eq!(t.len(), 60);
    assert_eq!(t.schema().len(), 6);
}

#[test]
fn listing_3_process_features_with_hostgroups() {
    let catalog = build_catalog();
    let t = catalog
        .execute(
            "SELECT timestamp, CONCAT(service_name, SPLIT(hostname, '-')[0]), \
             AVG(stime + utime) AS cpu, AVG(statm_resident) AS mem, AVG(read_b), \
             AVG(GREATEST(write_b - cancelled_write_b, 0)) \
             FROM processes \
             WHERE SPLIT(hostname, '-')[0] IN ('web', 'app', 'db', 'pipeline') \
             AND timestamp BETWEEN 0 AND 1800 \
             GROUP BY timestamp, CONCAT(service_name, SPLIT(hostname, '-')[0]) \
             ORDER BY timestamp ASC",
        )
        .expect("listing 3");
    // 30 timestamps x 4 host groups.
    assert_eq!(t.len(), 120);
    // GREATEST clamps the cancelled-write subtraction at 0 -> 100 here.
    let v = t.rows()[0][5].as_f64().expect("numeric");
    assert_eq!(v, 100.0);
}

#[test]
fn listing_5_hypothesis_join() {
    let mut catalog = build_catalog();
    catalog
        .execute_into(
            "SELECT timestamp, tag['pipeline_name'] AS pipeline_name, AVG(value) AS runtime \
             FROM tsdb WHERE metric_name = 'pipeline_runtime' \
             GROUP BY timestamp, tag['pipeline_name']",
            "target",
        )
        .expect("target");
    catalog
        .execute_into(
            "SELECT timestamp, tag['pipeline_name'] AS pipeline_name, AVG(value) AS input_events \
             FROM tsdb WHERE metric_name = 'pipeline_input_rate' \
             GROUP BY timestamp, tag['pipeline_name']",
            "condition",
        )
        .expect("condition");
    catalog
        .execute_into(
            "SELECT timestamp, CONCAT(src_address, service_port) AS flow, AVG(pkts) AS pkts \
             FROM flows GROUP BY timestamp, CONCAT(src_address, service_port)",
            "ff",
        )
        .expect("features");
    let joined = catalog
        .execute(
            "SELECT ff.timestamp, ff.flow, ff.pkts, target.runtime, condition.input_events \
             FROM ff \
             FULL OUTER JOIN target ON ff.timestamp = target.timestamp \
             FULL OUTER JOIN condition ON \
                 target.timestamp = condition.timestamp AND \
                 target.pipeline_name = condition.pipeline_name \
             ORDER BY ff.timestamp ASC",
        )
        .expect("hypothesis join");
    // Every flow row matches both pipelines' target rows (2x), each of
    // which matches its own condition row.
    assert_eq!(joined.len(), 2 * 60);
    // No fully-NULL rows: every side had matches.
    assert!(joined.rows().iter().all(|r| !r[0].is_null() || !r[3].is_null()));
}

#[test]
fn union_of_heterogeneous_feature_queries() {
    // Figure 4: "users can write multiple Spark SQL queries ... we take the
    // union of the results from each query" — normalised to a shared
    // (ts, name, feature, value) shape.
    let catalog = build_catalog();
    let t = catalog
        .execute(
            "SELECT timestamp, 'flows' AS source, CONCAT(src_address, service_port) AS f, \
                    AVG(pkts) AS v \
             FROM flows GROUP BY timestamp, CONCAT(src_address, service_port) \
             UNION ALL \
             SELECT timestamp, 'proc' AS source, hostname AS f, AVG(stime + utime) AS v \
             FROM processes GROUP BY timestamp, hostname",
        )
        .expect("union");
    assert_eq!(t.len(), 60 + 150);
}
