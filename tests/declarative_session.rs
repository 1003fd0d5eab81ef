//! The declarative Session end-to-end: a §5-style case study — family
//! creation, conditioning, ranking — expressed as one `;`-separated SQL
//! script, asserted identical to the programmatic `Engine::rank` path.

use explainit::core::{Engine, EngineConfig, ScorerKind};
use explainit::query::{pivot_long, Catalog, QueryError, Value};
use explainit::tsdb::{SeriesKey, Tsdb};
use explainit::workloads::{simulate, ClusterSpec, Fault};
use explainit::{Session, SessionError, RANKING_TABLE};

/// §5.2's shape: hypervisor drops confounded with load — the case study
/// that needs conditioning on the pipeline input rate.
fn hypervisor_incident() -> explainit::workloads::SimOutput {
    simulate(&ClusterSpec {
        minutes: 360,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 6,
        metrics_per_noise_service: 2,
        seed: 77,
        faults: vec![Fault::HypervisorDrop { intensity: 0.3 }],
        ..ClusterSpec::default()
    })
}

/// The Appendix-C style stage-one query both paths share.
const STAGE_ONE: &str = "SELECT timestamp, metric_name, \
     CONCAT(tag['host'], tag['pipeline_name']) AS feat, AVG(value) AS v \
     FROM tsdb \
     GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name'])";

/// The long-layout family statement straight over the store — the shape
/// the planner runs as a scan pivot, with no stage-one table at all.
const RAW_STAGE_ONE: &str = "SELECT timestamp, metric_name, tag AS feat, value AS v FROM tsdb";

#[test]
fn script_ranking_matches_programmatic_engine_path() {
    let sim = hypervisor_incident();
    // Both stage-two executions: the table pivot (stage one aggregates)
    // and the scan pivot (stage one is the bare scan).
    for stage_one in [STAGE_ONE, RAW_STAGE_ONE] {
        // --- programmatic path: catalog → pivot → Engine::rank -----------
        let mut catalog = Catalog::new();
        catalog.register_tsdb("tsdb", &sim.db);
        let table = catalog.execute(stage_one).expect("stage-one query");
        let frames = pivot_long(&table, "timestamp", "metric_name", "feat", "v").expect("pivot");
        let mut engine = Engine::new(EngineConfig { top_k: 10, ..EngineConfig::default() });
        engine.add_frames_owned(frames);
        let programmatic = engine
            .rank("pipeline_runtime", &["pipeline_input_rate"], ScorerKind::L2)
            .expect("rank");

        // --- declarative path: the same case study as one SQL script -----
        let mut session = Session::new();
        session.bind_tsdb("tsdb", &sim.db);
        let create = format!(
            "CREATE FAMILY metrics WITH (layout = 'long', ts = 'timestamp', \
                 family = 'metric_name', feature = 'feat', value = 'v') AS {stage_one}"
        );
        let plan = session.execute(&format!("EXPLAIN {create}")).expect("explain").table;
        let root = plan.rows()[0][0].render();
        let expected =
            if stage_one == RAW_STAGE_ONE { "ScanPivot tsdb" } else { "Pivot layout=long" };
        assert!(root.starts_with(expected), "{root}");
        assert_eq!(session.engine().family_count(), 0, "EXPLAIN registers nothing");
        let script = format!(
            "{create};\n\
             EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate USING SCORER l2 TOP 10;"
        );
        let outcomes = session.execute_script(&script).expect("script");
        assert_eq!(outcomes.len(), 2);
        // Registration order is the pivot's family order.
        let registered: Vec<String> =
            outcomes[0].table.rows().iter().map(|r| r[0].render()).collect();
        let engine_names: Vec<String> =
            engine.family_names().iter().map(|n| n.to_string()).collect();
        assert_eq!(registered, engine_names);
        let ranking = &outcomes[1].table;

        // Top-K equality, entry by entry: same families, same order, and
        // bit-identical scores/p-values — the statement surface adds no
        // semantic drift over the library calls it replaces.
        assert_eq!(ranking.len(), programmatic.entries.len());
        assert_eq!(ranking.len(), 10);
        for (row, entry) in ranking.rows().iter().zip(&programmatic.entries) {
            assert_eq!(row[1], Value::Str(entry.family.clone()));
            match (&row[2], &row[3]) {
                (Value::Float(score), Value::Float(p)) => {
                    assert_eq!(score.to_bits(), entry.score.to_bits(), "family {}", entry.family);
                    assert_eq!(p.to_bits(), entry.p_value.to_bits(), "family {}", entry.family);
                }
                other => panic!("unexpected score/p_value cells: {other:?}"),
            }
        }
        // The conditioning clause really reached the engine.
        assert_eq!(programmatic.conditioned_on, vec!["pipeline_input_rate"]);
        assert!(ranking.rows().iter().all(|r| r[1] != Value::str("pipeline_input_rate")));
    }
}

#[test]
fn ranking_composes_with_downstream_sql() {
    let sim = hypervisor_incident();
    let mut session = Session::new();
    session.bind_tsdb("tsdb", &sim.db);
    let script = format!(
        "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS {STAGE_ONE};\n\
         EXPLAIN FOR pipeline_runtime USING SCORER corrmax TOP 5;\n\
         SELECT family, score FROM {RANKING_TABLE} WHERE rank <= 3 ORDER BY rank ASC"
    );
    let outcomes = session.execute_script(&script).expect("script");
    let full = &outcomes[1].table;
    let filtered = &outcomes[2].table;
    assert_eq!(filtered.len(), 3);
    for (i, row) in filtered.rows().iter().enumerate() {
        assert_eq!(row[0], full.rows()[i][1], "rank {} family", i + 1);
    }
}

#[test]
fn session_reranks_after_an_ingest_and_a_rebind() {
    // A long-lived session over a store that keeps ingesting: the binding
    // is a snapshot, and binding the store again brings the ingest in.
    let sim = hypervisor_incident();
    let mut db = sim.db.clone();
    let mut session = Session::new();
    session.bind_tsdb("tsdb", &db);

    let create = format!(
        "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS {STAGE_ONE}"
    );
    session.execute(&create).expect("create");
    let families_before = session.engine().family_count();

    // Ingest a brand-new metric and re-run the same statement: the new
    // family appears once the store is bound again, and not before.
    let range = sim.time_range();
    let key = SeriesKey::new("freshly_ingested").with_tag("host", "h0");
    let mut t = range.start;
    while t < range.end {
        db.try_insert(&key, t, (t % 17) as f64).expect("insert");
        t += 60;
    }
    session.execute(&create).expect("re-create over the snapshot");
    assert_eq!(session.engine().family_count(), families_before);
    session.bind_tsdb("tsdb", &db);
    session.execute(&create).expect("re-create after the re-bind");
    assert_eq!(session.engine().family_count(), families_before + 1);
    assert!(session.engine().family("freshly_ingested").is_some());
}

/// A chunk that cannot be read after the store was opened fails the
/// statement that reads it: `Err`, never a smaller family. A small store
/// decodes its chunks one by one; a large one on the worker pool.
#[test]
fn an_unreadable_chunk_fails_create_family() {
    const CREATE: &str = "CREATE FAMILY m WITH (layout = 'long', family = 'metric_name') \
                          AS SELECT timestamp, metric_name, tag, value FROM tsdb";
    for (size, series, minutes) in [("small", 3, 60), ("large", 40, 1200)] {
        for damage in ["flip", "truncate"] {
            let dir = std::env::temp_dir().join(format!(
                "explainit-session-unreadable-{size}-{damage}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            {
                let mut db = Tsdb::open(&dir).expect("open for writing");
                for s in 0..series {
                    let key = SeriesKey::new(format!("m{}", s % 4)).with_tag("host", s.to_string());
                    let points: Vec<(i64, f64)> =
                        (0..minutes).map(|t| (t * 60, (s * t) as f64)).collect();
                    db.try_insert_batch(&key, &points).expect("insert");
                }
                db.flush().expect("flush");
            }
            let db = Tsdb::open_read_only(&dir).expect("open read-only");
            let segment = std::fs::read_dir(&dir)
                .expect("list")
                .map(|e| e.expect("entry").path())
                .find(|p| p.extension().is_some_and(|e| e == "seg"))
                .expect("a segment");
            // The last byte of a segment is in its last chunk's payload.
            let mut bytes = std::fs::read(&segment).expect("read segment");
            let last = bytes.len() - 1;
            if damage == "flip" {
                bytes[last] ^= 0x10;
            } else {
                bytes.truncate(last);
            }
            std::fs::write(&segment, &bytes).expect("damage segment");

            let mut session = Session::new();
            session.bind_tsdb("tsdb", &db);
            let err = session.execute(CREATE).expect_err("an unreadable chunk is an error");
            assert!(
                matches!(&err, SessionError::Query(QueryError::Storage(_))),
                "{size}, {damage}: {err:?}"
            );
            let expect = if damage == "flip" { "chunk checksum mismatch" } else { "paging in" };
            assert!(err.to_string().contains(expect), "{size}, {damage}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
