//! Soundness of the conditional scoring procedure against ground-truth
//! d-separation (the empirical counterpart of Appendix B's proof):
//! on data sampled from a linear Gaussian SEM, `score(X, Y | Z) ≈ 0`
//! exactly when the causal graph d-separates X and Y given Z.

use std::collections::{BTreeSet, HashMap};

use explainit::causal::{d_separated, Dag, LinearGaussianSem, NodeSpec};
use explainit::core::scorers::{score_hypothesis, ScoreConfig, ScorerKind};
use explainit::linalg::Matrix;

/// Builds the SEM, samples, and scores X~Y|Z both graphically and
/// statistically.
fn check_consistency(
    dag: Dag,
    specs: HashMap<String, NodeSpec>,
    x: &str,
    y: &str,
    z: &[&str],
    seed: u64,
) -> (bool, f64) {
    let sem = LinearGaussianSem::new(dag, specs);
    let data = sem.sample(2500, seed);
    let col = |n: &str| {
        let id = sem.dag().node(n).expect("node");
        Matrix::column_vector(&data.column(id.0))
    };
    let z_mat = if z.is_empty() {
        None
    } else {
        let mut acc: Option<Matrix> = None;
        for zi in z {
            let c = col(zi);
            acc = Some(match acc {
                None => c,
                Some(prev) => prev.hcat(&c).expect("rows match"),
            });
        }
        acc
    };
    let detail =
        score_hypothesis(ScorerKind::L2, &col(x), &col(y), z_mat.as_ref(), &ScoreConfig::default())
            .expect("scoring succeeds");
    let zset: BTreeSet<_> = z.iter().map(|n| sem.dag().node(n).expect("node")).collect();
    let separated = d_separated(
        sem.dag(),
        sem.dag().node(x).expect("node"),
        sem.dag().node(y).expect("node"),
        &zset,
    );
    (separated, detail.score)
}

fn chain() -> (Dag, HashMap<String, NodeSpec>) {
    let mut dag = Dag::new();
    dag.add_edge_by_name("A", "B");
    dag.add_edge_by_name("B", "C");
    let mut specs = HashMap::new();
    specs.insert("A".into(), NodeSpec::default().noise(1.0));
    specs.insert("B".into(), NodeSpec::with_weights(&[("A", 1.4)]).noise(0.6));
    specs.insert("C".into(), NodeSpec::with_weights(&[("B", 1.2)]).noise(0.6));
    (dag, specs)
}

fn fork() -> (Dag, HashMap<String, NodeSpec>) {
    let mut dag = Dag::new();
    dag.add_edge_by_name("Z", "L");
    dag.add_edge_by_name("Z", "R");
    let mut specs = HashMap::new();
    specs.insert("Z".into(), NodeSpec::default().noise(1.0));
    specs.insert("L".into(), NodeSpec::with_weights(&[("Z", 1.5)]).noise(0.5));
    specs.insert("R".into(), NodeSpec::with_weights(&[("Z", -1.1)]).noise(0.5));
    (dag, specs)
}

fn collider() -> (Dag, HashMap<String, NodeSpec>) {
    let mut dag = Dag::new();
    dag.add_edge_by_name("L", "C");
    dag.add_edge_by_name("R", "C");
    let mut specs = HashMap::new();
    specs.insert("L".into(), NodeSpec::default().noise(1.0));
    specs.insert("R".into(), NodeSpec::default().noise(1.0));
    specs.insert("C".into(), NodeSpec::with_weights(&[("L", 1.0), ("R", 1.0)]).noise(0.4));
    (dag, specs)
}

#[test]
fn chain_marginal_dependence_detected() {
    for seed in [1, 2, 3] {
        let (dag, specs) = chain();
        let (sep, score) = check_consistency(dag, specs, "A", "C", &[], seed);
        assert!(!sep);
        assert!(score > 0.3, "seed {seed}: score {score}");
    }
}

#[test]
fn chain_conditional_independence_scores_near_zero() {
    for seed in [1, 2, 3] {
        let (dag, specs) = chain();
        let (sep, score) = check_consistency(dag, specs, "A", "C", &["B"], seed);
        assert!(sep);
        assert!(score < 0.05, "seed {seed}: score {score}");
    }
}

#[test]
fn fork_blocked_by_common_cause() {
    for seed in [4, 5] {
        let (dag, specs) = fork();
        let (sep_marg, score_marg) =
            check_consistency(dag.clone(), specs.clone(), "L", "R", &[], seed);
        assert!(!sep_marg);
        assert!(score_marg > 0.3, "marginal {score_marg}");
        let (sep_cond, score_cond) = check_consistency(dag, specs, "L", "R", &["Z"], seed);
        assert!(sep_cond);
        assert!(score_cond < 0.05, "conditional {score_cond}");
    }
}

#[test]
fn collider_opens_under_conditioning() {
    for seed in [6, 7] {
        let (dag, specs) = collider();
        let (sep_marg, score_marg) =
            check_consistency(dag.clone(), specs.clone(), "L", "R", &[], seed);
        assert!(sep_marg, "collider parents marginally separated");
        assert!(score_marg < 0.05, "marginal {score_marg}");
        let (sep_cond, score_cond) = check_consistency(dag, specs, "L", "R", &["C"], seed);
        assert!(!sep_cond, "conditioning on collider connects them");
        assert!(score_cond > 0.2, "conditional {score_cond}");
    }
}

#[test]
fn pseudocause_structure_of_figure_3() {
    // Cs -> Ys -> Y1 <- Yr <- Cr: conditioning on Ys blocks Cs but not Cr.
    let mut dag = Dag::new();
    dag.add_edge_by_name("Cs", "Ys");
    dag.add_edge_by_name("Ys", "Y1");
    dag.add_edge_by_name("Cr", "Yr");
    dag.add_edge_by_name("Yr", "Y1");
    let mut specs = HashMap::new();
    specs.insert("Cs".into(), NodeSpec::default().noise(1.0));
    specs.insert("Cr".into(), NodeSpec::default().noise(1.0));
    specs.insert("Ys".into(), NodeSpec::with_weights(&[("Cs", 1.3)]).noise(0.3));
    specs.insert("Yr".into(), NodeSpec::with_weights(&[("Cr", 1.3)]).noise(0.3));
    specs.insert("Y1".into(), NodeSpec::with_weights(&[("Ys", 1.0), ("Yr", 1.0)]).noise(0.2));
    let (sep_cs, score_cs) = check_consistency(dag.clone(), specs.clone(), "Cs", "Y1", &["Ys"], 8);
    assert!(sep_cs);
    assert!(score_cs < 0.05, "seasonality cause blocked: {score_cs}");
    let (sep_cr, score_cr) = check_consistency(dag, specs, "Cr", "Y1", &["Ys"], 8);
    assert!(!sep_cr);
    assert!(score_cr > 0.4, "residual cause boosted: {score_cr}");
}

#[test]
fn univariate_and_joint_scorers_agree_on_independence() {
    // Two isolated nodes: every scorer must report ~0.
    let mut dag = Dag::new();
    dag.add_node("P");
    dag.add_node("Q");
    let sem = LinearGaussianSem::new(dag, HashMap::new());
    let data = sem.sample(2000, 9);
    let x = Matrix::column_vector(&data.column(0));
    let y = Matrix::column_vector(&data.column(1));
    let cfg = ScoreConfig::default();
    for kind in [ScorerKind::CorrMean, ScorerKind::CorrMax, ScorerKind::L2] {
        let s = score_hypothesis(kind, &x, &y, None, &cfg).expect("score");
        assert!(s.score < 0.06, "{kind:?} on independent data: {}", s.score);
    }
}

/// Exathlon's stability criterion for an explanation: it must not change
/// with how the work was scheduled or what ran before it. On the
/// simulator's fleet the full ranking — families, score and p-value bits —
/// is the same for every worker count, when the same statement runs twice on
/// one session (nothing leaks from one `rank` call into the next), and after
/// an unchanged family is registered again.
#[test]
fn ranking_is_stable_across_workers_repeats_and_reregistration() {
    use explainit::query::Value;
    use explainit::workloads::{simulate, ClusterSpec, Fault};
    use explainit::Session;

    let sim = simulate(&ClusterSpec {
        minutes: 120,
        seed: 5,
        faults: vec![Fault::PacketDrop { start_min: 60, end_min: 80, rate: 0.1 }],
        ..ClusterSpec::default()
    });
    let mut session = Session::new();
    session.bind_tsdb("tsdb", &sim.db);
    session
        .execute(
            "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
             SELECT timestamp, metric_name, tag, value FROM tsdb",
        )
        .expect("create family");
    let families = session.engine().family_count();
    assert!(families > 100, "the default fleet has 138 metric names, got {families}");

    // (family, score bits, p-value bits) of every ranked hypothesis.
    let rank = |session: &mut Session, sql: &str| -> Vec<(String, u64, u64)> {
        let table = session.execute(sql).expect("explain for").table;
        let rows = table.rows().into_iter().map(|row| match (&row[1], &row[2], &row[3]) {
            (Value::Str(family), Value::Float(score), Value::Float(p)) => {
                (family.clone(), score.to_bits(), p.to_bits())
            }
            other => panic!("unexpected ranking cells: {other:?}"),
        });
        rows.collect()
    };
    let statements = [
        "EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate USING SCORER l2 TOP 200",
        "EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate, tcp_retransmits \
         USING SCORER corrmean TOP 200",
        "EXPLAIN FOR pipeline_latency USING SCORER l2p50 TOP 200",
    ];
    for sql in statements {
        session.engine_mut().config_mut().workers = 1;
        let reference = rank(&mut session, sql);
        assert!(reference.len() >= families - 3, "every candidate is ranked");
        assert_eq!(rank(&mut session, sql), reference, "the same statement, run again");
        for workers in [2, 5] {
            session.engine_mut().config_mut().workers = workers;
            assert_eq!(rank(&mut session, sql), reference, "{workers} workers");
        }
        // Re-register the target, a conditioning family and a candidate,
        // unchanged: same ranking.
        for name in ["pipeline_runtime", "pipeline_input_rate", "disk_util"] {
            let again = session.engine().family(name).cloned();
            session.add_family(again.unwrap_or_else(|| panic!("no family {name}")));
        }
        assert_eq!(rank(&mut session, sql), reference, "after add_family");
    }
}
