//! The datacentre simulator: metric generation from an explicit causal
//! model.
//!
//! Causal structure (per minute `t`):
//!
//! ```text
//! season(t) ──► input load ──────────────────────────┐
//! fault signals (packet drop / hypervisor / namenode │
//!   scan / RAID check / disk hog)                    ▼
//!        │            ┌──► tcp_retransmits ─────► pipeline_runtime ──► latency
//!        ├────────────┤    network_latency,          │                save_time
//!        │            │    hdfs_ack_rtt              ▼
//!        ├──► disk_util / disk latencies / load_avg / raid_temperature
//!        └──► namenode rpc rate / latency / threads (gc anti-correlated)
//! background services: seasonal + random-walk noise (no fault edge)
//! ```
//!
//! Pipeline runtime depends on the *actual intermediate metric series* (not
//! the fault signal directly), so cause families are literal ancestors of
//! the target in the generated data — matching the paper's definition of a
//! root cause as an ancestor of Y (§3.1).

use std::collections::BTreeSet;

use explainit_core::FeatureFamily;
use explainit_query::{parse_statement, Catalog, ExecOptions, Statement};
use explainit_tsdb::{SeriesKey, TimeRange, Tsdb};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cluster::ClusterSpec;
use crate::faults::Fault;

/// Ground-truth label of a family relative to the injected incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// On the causal path from the fault to the target (an ancestor of Y).
    Cause,
    /// A descendant of the target, or an expected driver the operator
    /// already understands (runtime/latency/save-time of pipelines, input
    /// rate).
    Effect,
    /// Neither — background noise.
    Irrelevant,
}

/// Ground truth emitted alongside the metrics.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Metric-name families that are causes of the incident.
    pub cause_families: BTreeSet<String>,
    /// Metric-name families that are effects/expected.
    pub effect_families: BTreeSet<String>,
    /// Fault kinds injected.
    pub fault_kinds: Vec<String>,
}

impl GroundTruth {
    /// Labels a family name.
    pub fn label(&self, family: &str) -> Label {
        if self.cause_families.contains(family) {
            Label::Cause
        } else if self.effect_families.contains(family) {
            Label::Effect
        } else {
            Label::Irrelevant
        }
    }
}

/// Simulator output: the populated store plus ground truth.
#[derive(Debug)]
pub struct SimOutput {
    /// The time series database with every generated metric.
    pub db: Tsdb,
    /// Cause/effect labels for the injected faults.
    pub truth: GroundTruth,
    /// Simulation horizon.
    pub minutes: usize,
    /// Timestamp of the first sample (epoch seconds).
    pub start_ts: i64,
    /// Sample period in seconds (always 60: per-minute observations, §2).
    pub step: i64,
}

impl SimOutput {
    /// The full simulated time range.
    pub fn time_range(&self) -> TimeRange {
        self.range_of((0, self.minutes))
    }

    /// The time range of minutes `lo..hi` from the simulation's start.
    pub fn range_of(&self, (lo, hi): (usize, usize)) -> TimeRange {
        let at = |minute: usize| self.start_ts + minute as i64 * self.step;
        TimeRange::new(at(lo), at(hi))
    }

    /// Groups every metric by name into feature families (the paper's
    /// default grouping for all §5 case studies): [`families_by_name`]
    /// over the whole simulated range.
    ///
    /// # Panics
    /// Panics if the simulation holds no points (`minutes == 0`).
    pub fn families(&self) -> Vec<FeatureFamily> {
        // invariant: the documented panic — a caller that simulated zero
        // minutes has no families to ask for.
        families_by_name(&self.db, &self.time_range()).expect("a simulation holds points")
    }
}

/// The §5 default grouping — one family per metric name, one feature per
/// series — as the statement the CLI's `rank` / `explain` run before they
/// rank and [`families_by_name`] runs under a time bound.
pub const FAMILIES_BY_METRIC: &str =
    "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') AS \
     SELECT timestamp, metric_name, tag, value FROM tsdb";

/// One [`FeatureFamily`] per metric name of `db` over `range`:
/// [`FAMILIES_BY_METRIC`] bounded by `timestamp BETWEEN`, executed the way
/// a session executes it (a `ScanPivot` plan). Families sit on the data's
/// own timestamps; a caller that wants a coarser grid says so with
/// [`FeatureFamily::restrict_to`]. A range that holds no point is the
/// statement's "returned no rows" error.
pub fn families_by_name(
    db: &Tsdb,
    range: &TimeRange,
) -> explainit_query::Result<Vec<FeatureFamily>> {
    let sql = format!(
        "{FAMILIES_BY_METRIC} WHERE timestamp BETWEEN {} AND {}",
        range.start,
        range.end - 1
    );
    let Statement::CreateFamily(cf) = parse_statement(&sql)? else {
        unreachable!("FAMILIES_BY_METRIC is a CREATE FAMILY statement")
    };
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", db);
    let frames = catalog.execute_family(&cf, ExecOptions::default())?;
    Ok(frames.into_iter().map(FeatureFamily::from_frame_owned).collect())
}

/// Runs the simulator.
pub fn simulate(spec: &ClusterSpec) -> SimOutput {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let t_len = spec.minutes;
    let step = 60i64;
    let ts_grid: Vec<i64> = (0..t_len).map(|t| spec.start_ts + t as i64 * step).collect();

    // ---- exogenous drivers -------------------------------------------------
    // Daily seasonality plus smooth load noise per pipeline.
    let season: Vec<f64> = (0..t_len)
        .map(|t| (2.0 * std::f64::consts::PI * (t % 1440) as f64 / 1440.0).sin())
        .collect();
    let mut load_per_pipeline: Vec<Vec<f64>> = Vec::with_capacity(spec.pipelines);
    for p in 0..spec.pipelines {
        let base = 50_000.0 * (1.0 + 0.2 * p as f64);
        let mut walk = 0.0;
        let col: Vec<f64> = (0..t_len)
            .map(|t| {
                walk = 0.97 * walk + gauss(&mut rng) * 0.02;
                base * (1.0 + 0.30 * season[t] + walk).max(0.05)
            })
            .collect();
        load_per_pipeline.push(col);
    }
    let load_norm: Vec<f64> = (0..t_len)
        .map(|t| {
            let total: f64 = load_per_pipeline.iter().map(|l| l[t]).sum();
            total / (50_000.0 * spec.pipelines as f64 * 1.2)
        })
        .collect();

    // ---- fault signals -----------------------------------------------------
    let mut drop_level = vec![0.0f64; t_len]; // packet-loss-like pressure
    let mut nn_level = vec![0.0f64; t_len];
    let mut raid_level = vec![0.0f64; t_len];
    let mut disk_hog = vec![0.0f64; t_len];
    for f in &spec.faults {
        for (t, (((d, nn), raid), hog)) in drop_level
            .iter_mut()
            .zip(nn_level.iter_mut())
            .zip(raid_level.iter_mut())
            .zip(disk_hog.iter_mut())
            .enumerate()
        {
            let a = f.activation(t);
            match f {
                Fault::PacketDrop { .. } => *d += a,
                Fault::HypervisorDrop { .. } => *d += a * load_norm[t].max(0.0) * 0.35,
                Fault::NamenodeScan { .. } => *nn += a,
                Fault::RaidCheck { .. } => *raid += a,
                Fault::DiskSaturation { .. } => *hog += a,
            }
        }
    }

    let cn = spec.cause_noise.max(0.0);
    let en = spec.effect_noise.max(0.0);
    let mut db = Tsdb::new();
    // One batch buffer for every series: a fresh one per series leaves
    // holes the allocator does not refill (about 8 MiB more resident for a
    // simulated day at the default size, with glibc's allocator).
    let mut batch: Vec<(i64, f64)> = Vec::with_capacity(t_len);
    let mut push = |db: &mut Tsdb, name: &str, tags: &[(&str, &str)], values: Vec<f64>| {
        let mut key = SeriesKey::new(name);
        for (k, v) in tags {
            key = key.with_tag(*k, *v);
        }
        batch.clear();
        batch.extend(ts_grid.iter().copied().zip(values));
        // invariant: an in-memory store has no log to append to and no
        // sealed chunk to read, so a batch insert into it cannot fail.
        db.try_insert_batch(&key, &batch).expect("in-memory batch insert");
    };

    // ---- per-host infrastructure metrics ----------------------------------
    let datanode_names: Vec<String> =
        (1..=spec.datanodes).map(|i| format!("datanode-{i}")).collect();
    let service_host_names: Vec<String> = (0..spec.service_hosts)
        .map(|i| {
            let role = ["web", "app", "db"][i % 3];
            format!("{role}-{}", i / 3 + 1)
        })
        .collect();

    // Collected for the pipeline-runtime equations (causal chain).
    let mut mean_retrans = vec![0.0f64; t_len];
    let mut mean_disk_read_lat = vec![0.0f64; t_len];
    let mut mean_ack_rtt = vec![0.0f64; t_len];

    for host in &datanode_names {
        let retrans: Vec<f64> = (0..t_len)
            .map(|t| {
                (4.0 + 420.0 * drop_level[t] * (1.0 + 0.15 * gauss(&mut rng))
                    + 1.5 * cn * gauss(&mut rng).abs())
                .max(0.0)
            })
            .collect();
        let net_lat: Vec<f64> = (0..t_len)
            .map(|t| {
                (0.8 + 18.0 * drop_level[t] + 0.4 * load_norm[t] + 0.15 * cn * gauss(&mut rng))
                    .max(0.0)
            })
            .collect();
        let ack: Vec<f64> = (0..t_len)
            .map(|t| {
                (2.0 + 28.0 * drop_level[t] + 0.8 * raid_level[t] + 0.3 * cn * gauss(&mut rng))
                    .max(0.0)
            })
            .collect();
        let util: Vec<f64> = (0..t_len)
            .map(|t| {
                (0.25
                    + 0.30 * load_norm[t]
                    + 0.55 * raid_level[t]
                    + 0.6 * disk_hog[t]
                    + 0.04 * cn * gauss(&mut rng))
                .clamp(0.0, 1.0)
            })
            .collect();
        let read_lat: Vec<f64> = (0..t_len)
            .map(|t| {
                (2.0 + 14.0 * raid_level[t]
                    + 11.0 * disk_hog[t]
                    + 3.0 * util[t]
                    + 0.4 * cn * gauss(&mut rng))
                .max(0.1)
            })
            .collect();
        let write_lat: Vec<f64> = (0..t_len)
            .map(|t| {
                (3.0 + 7.0 * raid_level[t]
                    + 9.0 * disk_hog[t]
                    + 2.0 * util[t]
                    + 0.4 * gauss(&mut rng))
                .max(0.1)
            })
            .collect();
        let load_avg: Vec<f64> = (0..t_len)
            .map(|t| {
                (1.0 + 3.0 * load_norm[t]
                    + 4.5 * raid_level[t]
                    + 3.5 * disk_hog[t]
                    + 0.3 * cn * gauss(&mut rng))
                .max(0.0)
            })
            .collect();
        let cpu: Vec<f64> = (0..t_len)
            .map(|t| (18.0 + 55.0 * load_norm[t] + 4.0 * gauss(&mut rng)).clamp(0.0, 100.0))
            .collect();
        let temp: Vec<f64> =
            (0..t_len).map(|t| 35.0 + 9.0 * raid_level[t] + 0.5 * gauss(&mut rng)).collect();
        for t in 0..t_len {
            mean_retrans[t] += retrans[t] / spec.datanodes as f64;
            mean_disk_read_lat[t] += read_lat[t] / spec.datanodes as f64;
            mean_ack_rtt[t] += ack[t] / spec.datanodes as f64;
        }
        push(&mut db, "tcp_retransmits", &[("host", host)], retrans);
        push(&mut db, "network_latency", &[("host", host)], net_lat);
        push(&mut db, "hdfs_ack_rtt", &[("host", host)], ack);
        push(&mut db, "disk_util", &[("host", host)], util);
        push(&mut db, "disk_read_latency", &[("host", host)], read_lat);
        push(&mut db, "disk_write_latency", &[("host", host)], write_lat);
        push(&mut db, "load_avg", &[("host", host)], load_avg);
        push(&mut db, "cpu_usage", &[("host", host)], cpu);
        push(&mut db, "raid_temperature", &[("host", host)], temp);
    }

    for host in &service_host_names {
        let cpu: Vec<f64> = (0..t_len)
            .map(|t| (15.0 + 40.0 * load_norm[t] + 5.0 * gauss(&mut rng)).clamp(0.0, 100.0))
            .collect();
        let mut mem_walk = 40.0;
        let mem: Vec<f64> = (0..t_len)
            .map(|_| {
                mem_walk = (mem_walk + gauss(&mut rng) * 0.3).clamp(10.0, 90.0);
                mem_walk
            })
            .collect();
        let retrans: Vec<f64> = (0..t_len)
            .map(|t| (1.0 + 60.0 * drop_level[t] + 0.8 * gauss(&mut rng).abs()).max(0.0))
            .collect();
        let load_avg: Vec<f64> = (0..t_len)
            .map(|t| (0.8 + 2.0 * load_norm[t] + 0.25 * gauss(&mut rng)).max(0.0))
            .collect();
        push(&mut db, "cpu_usage", &[("host", host)], cpu);
        push(&mut db, "mem_usage", &[("host", host)], mem);
        push(&mut db, "tcp_retransmits", &[("host", host)], retrans);
        push(&mut db, "load_avg", &[("host", host)], load_avg);
    }

    // ---- namenode ----------------------------------------------------------
    let rpc_rate: Vec<f64> = (0..t_len)
        .map(|t| {
            (120.0 + 950.0 * nn_level[t] + 40.0 * load_norm[t] + 8.0 * cn * gauss(&mut rng))
                .max(0.0)
        })
        .collect();
    let rpc_latency: Vec<f64> = (0..t_len)
        .map(|t| {
            (4.0 + 85.0 * nn_level[t] + 0.004 * rpc_rate[t] + 0.8 * cn * gauss(&mut rng)).max(0.1)
        })
        .collect();
    let live_threads: Vec<f64> = (0..t_len)
        .map(|t| (18.0 + 170.0 * nn_level[t] + 2.5 * cn * gauss(&mut rng)).max(1.0))
        .collect();
    // §5.3: GC time NEGATIVELY correlated with runtime during the scans
    // (the namenode is busy serving, not collecting).
    let gc_time: Vec<f64> = (0..t_len)
        .map(|t| (45.0 * (1.0 - 0.8 * nn_level[t]) * (1.0 + 0.15 * gauss(&mut rng))).max(0.0))
        .collect();
    let nn_rpc_latency = rpc_latency.clone();
    push(&mut db, "namenode_rpc_rate", &[("host", "namenode-1")], rpc_rate);
    push(&mut db, "namenode_rpc_latency", &[("host", "namenode-1")], rpc_latency);
    push(&mut db, "namenode_live_threads", &[("host", "namenode-1")], live_threads);
    push(&mut db, "namenode_gc_time", &[("host", "namenode-1")], gc_time);

    // ---- pipelines: the causal sinks ---------------------------------------
    for (p, load) in load_per_pipeline.iter().enumerate() {
        let pname = format!("pipeline-{}", p + 1);
        let runtime: Vec<f64> = (0..t_len)
            .map(|t| {
                (8.0 + 22.0 * (load[t] / 60_000.0)
                    + 0.45 * mean_retrans[t]
                    + 2.2 * mean_disk_read_lat[t]
                    + 0.5 * mean_ack_rtt[t]
                    + 0.30 * nn_rpc_latency[t]
                    + 1.5 * gauss(&mut rng))
                .max(1.0)
            })
            .collect();
        let latency: Vec<f64> = runtime
            .iter()
            .map(|&r| (55.0 + 1.6 * r + 2.0 * en * gauss(&mut rng)).max(0.0))
            .collect();
        let save_time: Vec<f64> =
            runtime.iter().map(|&r| (0.45 * r + 0.8 * en * gauss(&mut rng)).max(0.0)).collect();
        push(&mut db, "pipeline_input_rate", &[("pipeline_name", &pname)], load.clone());
        push(&mut db, "pipeline_runtime", &[("pipeline_name", &pname)], runtime);
        push(&mut db, "pipeline_latency", &[("pipeline_name", &pname)], latency);
        push(&mut db, "pipeline_save_time", &[("pipeline_name", &pname)], save_time);
    }

    // ---- background noise services ------------------------------------------
    for s in 0..spec.noise_services {
        let seasonal_weight = if s % 3 == 0 { 0.4 } else { 0.0 };
        for m in 0..spec.metrics_per_noise_service {
            let name = format!("svc_{s:03}_metric_{m}");
            for host in service_host_names.iter().chain(std::iter::once(&"shared-1".to_string())) {
                let mut walk = 0.0;
                let values: Vec<f64> = (0..t_len)
                    .map(|t| {
                        walk = 0.95 * walk + 0.3 * gauss(&mut rng);
                        10.0 + seasonal_weight * 4.0 * season[t] + walk + 0.5 * gauss(&mut rng)
                    })
                    .collect();
                push(&mut db, &name, &[("host", host)], values);
            }
        }
    }

    // ---- ground truth --------------------------------------------------------
    let mut cause_families = BTreeSet::new();
    for f in &spec.faults {
        for c in f.cause_families() {
            cause_families.insert(c.to_string());
        }
    }
    let effect_families: BTreeSet<String> =
        ["pipeline_runtime", "pipeline_latency", "pipeline_save_time", "pipeline_input_rate"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let truth = GroundTruth {
        cause_families,
        effect_families,
        fault_kinds: spec.faults.iter().map(|f| f.kind_name().to_string()).collect(),
    };
    SimOutput { db, truth, minutes: t_len, start_ts: spec.start_ts, step }
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_stats::{mean, pearson};

    fn quick_spec(faults: Vec<Fault>) -> ClusterSpec {
        ClusterSpec {
            minutes: 360,
            datanodes: 3,
            pipelines: 2,
            service_hosts: 3,
            noise_services: 4,
            metrics_per_noise_service: 2,
            faults,
            ..ClusterSpec::default()
        }
    }

    /// The store the simulator fills, pinned by content: a CRC-32 over every
    /// series' canonical key and each point's timestamp and value bits, in
    /// `db.iter()` order, and the point count.
    #[test]
    fn the_simulated_store_is_pinned() {
        let out = simulate(&ClusterSpec::default().with_minutes(60));
        let mut bytes = Vec::new();
        for (_, series) in out.db.iter() {
            bytes.extend_from_slice(series.key.canonical().as_bytes());
            for p in series.points() {
                bytes.extend_from_slice(&p.ts.to_le_bytes());
                bytes.extend_from_slice(&p.value.to_bits().to_le_bytes());
            }
        }
        let pin = (explainit_tsdb::storage::crc32(&bytes), out.db.point_count());
        assert_eq!(pin, (0x0B34_CA2F, 57_360));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = quick_spec(vec![]);
        let a = simulate(&spec);
        let b = simulate(&spec);
        assert_eq!(a.db.point_count(), b.db.point_count());
        let key = SeriesKey::new("pipeline_runtime").with_tag("pipeline_name", "pipeline-1");
        assert_eq!(a.db.get(&key).unwrap().values(), b.db.get(&key).unwrap().values());
    }

    #[test]
    fn families_cover_all_metric_names() {
        let out = simulate(&quick_spec(vec![]));
        let fams = out.families();
        assert_eq!(fams.len(), out.db.metric_names().len());
        // Every family has the full grid.
        for f in &fams {
            assert_eq!(f.len(), out.minutes);
        }
        // Multi-host metric has one feature per host.
        let retrans = fams.iter().find(|f| f.name == "tcp_retransmits").unwrap();
        assert_eq!(retrans.width(), 3 + 3); // datanodes + service hosts
    }

    #[test]
    fn families_by_name_is_the_bounded_family_statement() {
        let out = simulate(&quick_spec(vec![]));
        // The statement plans as the scan pivot: series to matrices, no rows.
        let Ok(Statement::CreateFamily(cf)) = parse_statement(FAMILIES_BY_METRIC) else {
            panic!("the family statement parses");
        };
        let mut catalog = Catalog::new();
        catalog.register_tsdb("tsdb", &out.db);
        let plan = catalog.explain_family(&cf).expect("plans");
        assert_eq!(
            plan.column("plan").expect("plan column")[0].render(),
            "ScanPivot tsdb layout=long ts=timestamp family=metric_name feature=tag value=value"
        );
        assert_eq!(plan.len(), 1);
        // The range is half-open and families sit on the data's own minutes.
        let window = TimeRange::new(out.start_ts + 10 * 60, out.start_ts + 20 * 60);
        let fams = families_by_name(&out.db, &window).expect("ten minutes of points");
        assert_eq!(fams.len(), out.db.metric_names().len());
        let minutes: Vec<i64> = (10..20).map(|m| out.start_ts + m * 60).collect();
        assert!(fams.iter().all(|f| f.timestamps == minutes));
        // A range without a point is the statement's error, not an empty list.
        let before = TimeRange::new(0, out.start_ts);
        let err = families_by_name(&out.db, &before).expect_err("no points");
        assert!(err.to_string().contains("returned no rows"), "{err}");
    }

    #[test]
    fn packet_drop_raises_retransmits_and_runtime() {
        let spec = quick_spec(vec![Fault::PacketDrop { start_min: 100, end_min: 160, rate: 0.10 }]);
        let out = simulate(&spec);
        let fams = out.families();
        let retrans = fams.iter().find(|f| f.name == "tcp_retransmits").unwrap();
        let runtime = fams.iter().find(|f| f.name == "pipeline_runtime").unwrap();
        // Features come out in label order: pick a datanode's column by name.
        let r0 = retrans.feature("{host=datanode-1}").expect("a datanode feature");
        let rt = runtime.data.column(0);
        let inside = mean(&r0[100..160]);
        let outside = mean(&r0[0..100]);
        assert!(inside > 5.0 * outside, "retransmits should spike: {inside} vs {outside}");
        assert!(mean(&rt[100..160]) > mean(&rt[0..100]) + 2.0, "runtime should rise");
        // Ground truth labels.
        assert_eq!(out.truth.label("tcp_retransmits"), Label::Cause);
        assert_eq!(out.truth.label("pipeline_latency"), Label::Effect);
        assert_eq!(out.truth.label("svc_000_metric_0"), Label::Irrelevant);
    }

    #[test]
    fn namenode_scan_is_periodic_and_gc_anticorrelated() {
        let spec = quick_spec(vec![Fault::NamenodeScan { period_min: 15, duration_min: 5 }]);
        let out = simulate(&spec);
        let fams = out.families();
        let rpc = fams.iter().find(|f| f.name == "namenode_rpc_latency").unwrap();
        let gc = fams.iter().find(|f| f.name == "namenode_gc_time").unwrap();
        let runtime = fams.iter().find(|f| f.name == "pipeline_runtime").unwrap();
        let rpc_col = rpc.data.column(0);
        let gc_col = gc.data.column(0);
        let rt = runtime.data.column(0);
        assert!(pearson(&rpc_col, &rt) > 0.5, "rpc latency drives runtime");
        assert!(pearson(&gc_col, &rt) < -0.2, "gc anti-correlated (§5.3)");
    }

    #[test]
    fn raid_check_hits_disks_weekly() {
        let spec = ClusterSpec {
            minutes: 2 * 10_080, // two weeks at minute granularity is heavy; use stride below
            ..quick_spec(vec![Fault::RaidCheck {
                period_min: 10_080,
                duration_min: 240,
                io_share: 0.2,
            }])
        };
        // Shrink: scale the period down 20x to keep the test fast while
        // preserving the periodic structure.
        let spec = ClusterSpec {
            minutes: 1008,
            faults: vec![Fault::RaidCheck { period_min: 504, duration_min: 12, io_share: 0.2 }],
            ..spec
        };
        let out = simulate(&spec);
        let fams = out.families();
        let util = fams.iter().find(|f| f.name == "disk_util").unwrap();
        let u = util.data.column(0);
        let in_check = mean(&u[0..12]).max(mean(&u[504..516]));
        let out_check = mean(&u[100..400]);
        assert!(in_check > out_check + 0.05, "check consumes IO: {in_check} vs {out_check}");
        assert_eq!(out.truth.label("raid_temperature"), Label::Cause);
    }

    #[test]
    fn hypervisor_drop_correlates_with_load() {
        let spec = quick_spec(vec![Fault::HypervisorDrop { intensity: 0.8 }]);
        let out = simulate(&spec);
        let fams = out.families();
        let retrans = fams.iter().find(|f| f.name == "tcp_retransmits").unwrap();
        let input = fams.iter().find(|f| f.name == "pipeline_input_rate").unwrap();
        let r = retrans.data.column(0);
        let l = input.data.column(0);
        assert!(pearson(&r, &l) > 0.3, "drops track load (the §5.2 confound)");
    }

    #[test]
    fn no_fault_means_no_cause_labels() {
        let out = simulate(&quick_spec(vec![]));
        assert!(out.truth.cause_families.is_empty());
        assert!(out.truth.fault_kinds.is_empty());
    }

    #[test]
    fn time_range_spans_the_horizon() {
        let out = simulate(&quick_spec(vec![]));
        let r = out.time_range();
        assert_eq!(r.duration(), 360 * 60);
    }
}
