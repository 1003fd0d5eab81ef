//! The paper's workflow as *one SQL script*: family creation,
//! conditioning, hypothesis ranking and downstream composition, all
//! through the declarative [`Session`] — no imperative glue.
//!
//! This is the §5.2 hypervisor case study: receive-queue drops are
//! confounded with load, so the unconditioned ranking surfaces the input
//! rate first and conditioning on it (`GIVEN pipeline_input_rate`) lets
//! the true cause climb.
//!
//! Run with: `cargo run --release --example declarative_rca`

use explainit::workloads::{simulate, ClusterSpec, Fault};
use explainit::Session;

fn main() {
    let sim = simulate(&ClusterSpec {
        minutes: 360,
        datanodes: 4,
        pipelines: 2,
        service_hosts: 3,
        noise_services: 6,
        metrics_per_noise_service: 2,
        seed: 77,
        faults: vec![Fault::HypervisorDrop { intensity: 0.3 }],
        ..ClusterSpec::default()
    });
    println!("ground-truth causes: {:?}\n", sim.truth.cause_families);

    let mut session = Session::new();
    session.bind_tsdb("tsdb", &sim.db);

    // The whole case study is one script. Statement by statement:
    //  1. stage-one query + pivot into per-metric feature families;
    //  2. an unconditioned ranking (load confounds the cause);
    //  3. the conditioned ranking (the paper's step 3);
    //  4. ordinary SQL over the ranking relation.
    let script = "\
        CREATE FAMILY metrics WITH (layout = 'long', ts = 'timestamp', \
            family = 'metric_name', feature = 'feat', value = 'v') AS \
          SELECT timestamp, metric_name, \
                 CONCAT(tag['host'], tag['pipeline_name']) AS feat, \
                 AVG(value) AS v \
          FROM tsdb \
          GROUP BY timestamp, metric_name, CONCAT(tag['host'], tag['pipeline_name']);\n\
        SHOW FAMILIES;\n\
        EXPLAIN FOR pipeline_runtime USING SCORER l2 TOP 8;\n\
        EXPLAIN FOR pipeline_runtime GIVEN pipeline_input_rate USING SCORER l2 TOP 8;\n\
        SELECT family, score FROM ranking WHERE score > 0.2 ORDER BY rank ASC;";

    println!("script:\n{script}\n");
    let outcomes = session.execute_script(script).expect("script executes");
    for outcome in &outcomes {
        println!("=== {}", outcome.summary);
        for notice in &outcome.notices {
            println!("-- {notice}");
        }
        print!("{}", outcome.table.render(12));
        println!("({} rows)\n", outcome.table.len());
    }
}
