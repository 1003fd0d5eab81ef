//! End-to-end integration: simulator → TSDB → SQL → feature families →
//! engine → ranking, across the crate boundaries.

use explainit::core::{Engine, EngineConfig, ScorerKind};
use explainit::query::{pivot_long, Catalog};
use explainit::tsdb::{TimeRange, Tsdb};
use explainit::workloads::{
    families_by_name, simulate, ClusterSpec, Fault, Label, FAMILIES_BY_METRIC,
};
use explainit::Session;

fn small_incident() -> explainit::workloads::SimOutput {
    simulate(&ClusterSpec {
        minutes: 360,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 6,
        metrics_per_noise_service: 2,
        seed: 2024,
        faults: vec![Fault::PacketDrop { start_min: 120, end_min: 240, rate: 0.1 }],
        ..ClusterSpec::default()
    })
}

#[test]
fn sql_pipeline_to_ranking_finds_cause() {
    let sim = small_incident();
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &sim.db);
    let range = sim.time_range();
    // Stage 1 (Figure 4): SQL into the feature-family layout.
    let table = catalog
        .execute(&format!(
            "SELECT timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) AS feat, \
             AVG(value) AS v FROM tsdb WHERE timestamp BETWEEN {} AND {} \
             GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name'])",
            range.start, range.end
        ))
        .expect("stage-1 query");
    // Stage 2: pivot to families.
    let frames = pivot_long(&table, "timestamp", "metric_name", "feat", "v").expect("pivot");
    assert!(frames.len() > 10);
    // Stage 3: hypothesis scoring (columnar frames move straight into the
    // engine, no row detour).
    let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
    engine.add_frames_owned(frames);
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking");
    let cause_rank = ranking.rank_of("tcp_retransmits");
    assert!(
        cause_rank.is_some_and(|r| r <= 10),
        "cause should be in the top 10, got {cause_rank:?}"
    );
}

/// `ScanPivot` ≡ `ScanAggregate` + `pivot_long`: the family statement and
/// the quickstart's grouped query build the same families, cell for cell
/// by bits. The feature labels differ (the tag map against `CONCAT` of two
/// tags), so a family's columns are compared as sorted multisets.
#[test]
fn direct_family_grouping_matches_sql_grouping() {
    let sim = small_incident();
    let direct = families_by_name(&sim.db, &sim.time_range()).expect("family statement");
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &sim.db);
    let table = catalog
        .execute(
            "SELECT timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']) AS feat, \
             AVG(value) AS v FROM tsdb \
             GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name'])",
        )
        .expect("query");
    let via_sql = pivot_long(&table, "timestamp", "metric_name", "feat", "v").expect("pivot");
    let direct_names: Vec<&str> = direct.iter().map(|f| f.name.as_str()).collect();
    let sql_names: Vec<&str> = via_sql.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(direct_names, sql_names, "same families in the same order via both paths");
    for (d, s) in direct.iter().zip(&via_sql) {
        assert_eq!(d.timestamps, s.timestamps, "family {}", d.name);
        let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut d_cols: Vec<Vec<u64>> = (0..d.width()).map(|j| bits(&d.data.column(j))).collect();
        let mut s_cols: Vec<Vec<u64>> = s.columns.iter().map(|c| bits(c)).collect();
        d_cols.sort();
        s_cols.sort();
        assert_eq!(d_cols, s_cols, "family {}", d.name);
    }
}

#[test]
fn conditioning_workflow_demotes_load_families() {
    // Hypervisor incident: unconditioned, input rate scores high; after
    // conditioning on it, it is excluded and the cause remains top.
    let sim = simulate(&ClusterSpec {
        minutes: 480,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 5,
        metrics_per_noise_service: 2,
        seed: 31,
        faults: vec![Fault::HypervisorDrop { intensity: 0.4 }],
        ..ClusterSpec::default()
    });
    let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
    for f in sim.families() {
        engine.add_family(f);
    }
    let conditioned =
        engine.rank("pipeline_runtime", &["pipeline_input_rate"], ScorerKind::L2).expect("ranking");
    let cause_rank = conditioned.rank_of("tcp_retransmits");
    assert!(cause_rank.is_some_and(|r| r <= 6), "conditioned cause rank {cause_rank:?}");
}

#[test]
fn durable_round_trip_preserves_rankings() {
    let sim = small_incident();
    let dir = std::env::temp_dir().join(format!("explainit-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = Tsdb::open(&dir).expect("open store");
    for (_, series) in sim.db.iter() {
        let points: Vec<(i64, f64)> = series.points().map(|p| (p.ts, p.value)).collect();
        writer.try_insert_batch(&series.key, &points).expect("ingest");
    }
    writer.flush().expect("flush");
    drop(writer);
    let reopened = Tsdb::open_read_only(&dir).expect("reopen");
    // The CLI's path: the family statement over the bound store, then rank.
    let rank = |db: &Tsdb| {
        let mut session = Session::new();
        session.bind_tsdb("tsdb", db);
        session.execute(FAMILIES_BY_METRIC).expect("family statement");
        session.engine().rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking")
    };
    let (memory, durable) = (rank(&sim.db), rank(&reopened));
    assert_eq!(memory.entries.len(), durable.entries.len());
    for (m, d) in memory.entries.iter().zip(&durable.entries) {
        assert_eq!(m.family, d.family);
        assert_eq!(m.score.to_bits(), d.score.to_bits(), "family {}", m.family);
        assert_eq!(m.p_value.to_bits(), d.p_value.to_bits(), "family {}", m.family);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ground_truth_labels_are_consistent_with_dag_roles() {
    let sim = small_incident();
    // Causes and effects are disjoint.
    for c in &sim.truth.cause_families {
        assert_eq!(sim.truth.label(c), Label::Cause);
        assert!(!sim.truth.effect_families.contains(c));
    }
    // Runtime itself is an effect-class family (the target).
    assert_eq!(sim.truth.label("pipeline_runtime"), Label::Effect);
}

#[test]
fn restricted_time_range_scoring() {
    // Scoring on a window that excludes the fault should NOT rank the cause
    // at the top (nothing to explain there).
    let sim = small_incident();
    let quiet = TimeRange::new(sim.start_ts, sim.start_ts + 100 * 60);
    // Large top_k so the low-scoring cause entry stays visible to the test.
    let mut engine =
        Engine::new(EngineConfig { workers: 2, top_k: 500, ..EngineConfig::default() });
    for f in families_by_name(&sim.db, &quiet).expect("the window holds points") {
        engine.add_family(f);
    }
    let ranking = engine.rank("pipeline_runtime", &[], ScorerKind::L2).expect("ranking");
    let quiet_cause =
        ranking.entries.iter().find(|e| e.family == "tcp_retransmits").expect("entry exists");
    assert!(
        quiet_cause.score < 0.35,
        "no fault in window -> low cause score, got {}",
        quiet_cause.score
    );
}
