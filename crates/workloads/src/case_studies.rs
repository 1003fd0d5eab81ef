//! The four §5 case studies.
//!
//! [`study`] is each study as it is analysed — the simulation, the range
//! the operator ranks over, the families and the `GIVEN` set — and is what
//! the CLI's `case-study` and the paper suite (`tests/paper.rs`) both run.
//! The generators under it return the "before" (faulty) simulation and,
//! where the paper shows a fix (Figures 6, 7, 9), the "after" counterpart.

use explainit_core::{FeatureFamily, ScorerKind};

use crate::cluster::ClusterSpec;
use crate::faults::Fault;
use crate::sim::{families_by_name, simulate, SimOutput};

/// The family every §5 study explains.
pub const TARGET: &str = "pipeline_runtime";

/// The scorer every §5 study ranks with (Tables 3–5).
pub const SCORER: ScorerKind = ScorerKind::L2;

/// One §5 case study, ready to rank [`TARGET`] with [`SCORER`].
#[derive(Debug)]
pub struct Study {
    /// What was injected and what the ranking should show.
    pub story: &'static str,
    /// The simulation (the "before" side where the paper shows a fix).
    pub sim: SimOutput,
    /// The injected fault's window in minutes, for a study that zooms to it.
    pub fault_window: Option<(usize, usize)>,
    /// The analysed range in minutes from the simulation's start.
    pub analysed: (usize, usize),
    /// [`crate::FAMILIES_BY_METRIC`] over the analysed range, at the data's
    /// own timestamps; §5.4 reads its month every ten minutes.
    pub families: Vec<FeatureFamily>,
    /// The `GIVEN` set: §5.2 conditions on the input load.
    pub given: Vec<&'static str>,
}

/// The §5 case study `id` (`"5.1"` … `"5.4"`); `None` for any other id.
pub fn study(id: &str) -> Option<Study> {
    // Each arm: the story, the simulation, the fault window the analysis
    // zooms to (whole simulation if none), the grid step in seconds the
    // families are read on (the data's own timestamps if none), `GIVEN`.
    let (story, sim, fault_window, grid_step, given) = match id {
        // Figure 2's workflow: zoom to the incident before ranking.
        "5.1" => (
            "controlled packet-drop injection (expect TCP retransmits in the top ranks)",
            packet_drop(),
            Some(packet_drop_window()),
            None,
            vec![],
        ),
        "5.2" => (
            "hypervisor drops confounded with load (ranked GIVEN pipeline_input_rate)",
            hypervisor().0,
            None,
            None,
            vec!["pipeline_input_rate"],
        ),
        "5.3" => (
            "15-minute periodic Namenode scans (expect namenode metrics in the top ranks)",
            namenode_periodic().0,
            None,
            None,
            vec![],
        ),
        // A month of minutes is read every ten.
        "5.4" => (
            "weekly RAID consistency check (expect disk/load metrics in the top ranks)",
            weekly_raid(),
            None,
            Some(600),
            vec![],
        ),
        _ => return None,
    };
    // A fault window is analysed with three hours either side.
    let analysed = fault_window.map_or((0, sim.minutes), |(w0, w1)| (w0 - 180, w1 + 180));
    let range = sim.range_of(analysed);
    // invariant: every study simulates points all through its range.
    let mut families = families_by_name(&sim.db, &range).expect("a study's range holds points");
    if let Some(step) = grid_step {
        let grid: Vec<i64> = (range.start..range.end).step_by(step).collect();
        families = families.into_iter().map(|f| f.restrict_to(&grid)).collect();
    }
    Some(Study { story, sim, fault_window, analysed, families, given })
}

/// §5.1 — controlled fault injection: 10% packet drops at all datanodes
/// for a two-hour window in a one-day trace.
pub fn packet_drop() -> SimOutput {
    let spec = ClusterSpec {
        minutes: 1440,
        datanodes: 8,
        pipelines: 5,
        service_hosts: 6,
        noise_services: 25,
        metrics_per_noise_service: 4,
        seed: 51,
        faults: vec![Fault::PacketDrop { start_min: 660, end_min: 780, rate: 0.10 }],
        ..ClusterSpec::default()
    };
    simulate(&spec)
}

/// The §5.1 fault window in minutes (for report annotations).
pub fn packet_drop_window() -> (usize, usize) {
    (660, 780)
}

/// §5.2 — hypervisor receive-queue drops whose intensity tracks the input
/// load. Returns `(before_fix, after_fix)`: the fix (buffering more
/// packets) removes the drop coupling; Figure 6 contrasts the two runtime
/// distributions.
pub fn hypervisor() -> (SimOutput, SimOutput) {
    let base = ClusterSpec {
        minutes: 1440,
        datanodes: 6,
        pipelines: 4,
        service_hosts: 6,
        noise_services: 20,
        metrics_per_noise_service: 4,
        seed: 52,
        ..ClusterSpec::default()
    };
    let before = simulate(&ClusterSpec {
        faults: vec![Fault::HypervisorDrop { intensity: 0.12 }],
        ..base.clone()
    });
    let after = simulate(&base);
    (before, after)
}

/// §5.3 — a service scanning the filesystem through the Namenode every 15
/// minutes. Returns `(before_fix, after_fix)` for Figure 7.
pub fn namenode_periodic() -> (SimOutput, SimOutput) {
    let base = ClusterSpec {
        minutes: 720,
        datanodes: 6,
        pipelines: 4,
        service_hosts: 6,
        noise_services: 20,
        metrics_per_noise_service: 4,
        seed: 53,
        ..ClusterSpec::default()
    };
    let before = simulate(&ClusterSpec {
        faults: vec![Fault::NamenodeScan { period_min: 15, duration_min: 5 }],
        ..base.clone()
    });
    let after = simulate(&base);
    (before, after)
}

/// §5.4 — the weekly RAID consistency check over a month-long range
/// (Figure 8). The default controller setting uses 20% of disk IO.
pub fn weekly_raid() -> SimOutput {
    let spec = ClusterSpec {
        minutes: 4 * 7 * 1440, // four weeks
        datanodes: 6,
        pipelines: 3,
        service_hosts: 3,
        noise_services: 8,
        metrics_per_noise_service: 3,
        seed: 54,
        faults: vec![Fault::RaidCheck { period_min: 7 * 1440, duration_min: 240, io_share: 0.20 }],
        ..ClusterSpec::default()
    };
    simulate(&spec)
}

/// §5.4's Figure 9 intervention timeline: default 20% consistency check,
/// then disabled, then re-enabled, then capped to 5%. Modelled as staged
/// disk-pressure windows over a 40-minute experiment (the paper's 20:00 to
/// 20:40 window).
pub fn raid_intervention() -> SimOutput {
    let spec = ClusterSpec {
        minutes: 40,
        datanodes: 6,
        pipelines: 3,
        service_hosts: 3,
        noise_services: 4,
        metrics_per_noise_service: 2,
        seed: 55,
        faults: vec![
            // 20:00–20:15: default 20% cap.
            Fault::DiskSaturation { start_min: 0, end_min: 15, intensity: 0.20 },
            // 20:15–20:20: check disabled (no fault).
            // 20:20–20:25: re-enabled at default.
            Fault::DiskSaturation { start_min: 20, end_min: 25, intensity: 0.20 },
            // 20:25 onward: capped to 5%.
            Fault::DiskSaturation { start_min: 25, end_min: 40, intensity: 0.05 },
        ],
        ..ClusterSpec::default()
    };
    simulate(&spec)
}

/// A compound incident: three *concurrent* faults in one day-long trace —
/// a packet-drop window, a disk-hogging rogue process overlapping it, and
/// a periodic Namenode scan running throughout. No single §5 case study
/// covers this shape; it exercises ranking when several true causes
/// compete for the top ranks, and it is the workload behind the
/// partition-sweep end-to-end test (simulate → `sql -f` → top-k must be
/// identical at every partition count).
pub fn multi_fault() -> SimOutput {
    simulate(&multi_fault_spec(240))
}

/// The [`multi_fault`] cluster spec with an explicit horizon (the CLI's
/// `simulate --fault multi` scales the fault windows to `--minutes`).
pub fn multi_fault_spec(minutes: usize) -> ClusterSpec {
    ClusterSpec {
        minutes,
        datanodes: 6,
        pipelines: 4,
        service_hosts: 5,
        noise_services: 16,
        metrics_per_noise_service: 4,
        seed: 56,
        faults: vec![
            Fault::PacketDrop {
                start_min: minutes / 2,
                end_min: minutes / 2 + minutes / 8,
                rate: 0.10,
            },
            Fault::DiskSaturation {
                start_min: minutes * 9 / 16,
                end_min: minutes * 3 / 4,
                intensity: 0.4,
            },
            Fault::NamenodeScan { period_min: 15, duration_min: 5 },
        ],
        ..ClusterSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainit_stats::mean;

    /// The first column of `o`'s runtime family over the whole simulation.
    fn runtime(o: &SimOutput) -> Vec<f64> {
        o.families().into_iter().find(|f| f.name == TARGET).unwrap().data.column(0)
    }

    #[test]
    fn packet_drop_case_study_shapes() {
        let out = packet_drop();
        assert_eq!(out.minutes, 1440);
        let fams = out.families();
        let runtime = fams.iter().find(|f| f.name == "pipeline_runtime").unwrap();
        assert_eq!(runtime.width(), 5);
        let (s, e) = packet_drop_window();
        let rt = runtime.data.column(0);
        // Compare against the seasonal neighbourhood on both sides of the
        // fault window, like the visual inspection of Figure 5.
        let neighbours = (mean(&rt[s - 120..s]) + mean(&rt[e..e + 120])) / 2.0;
        assert!(mean(&rt[s..e]) > neighbours + 3.0, "visible spike (Figure 5)");
    }

    #[test]
    fn hypervisor_fix_lowers_runtime() {
        let (before, after) = hypervisor();
        let (rt_before, rt_after) = (runtime(&before), runtime(&after));
        // The paper observed ~10% improvement after the fix.
        let improvement = 1.0 - mean(&rt_after) / mean(&rt_before);
        assert!(improvement > 0.02, "fix should reduce runtimes, got {improvement}");
    }

    #[test]
    fn namenode_fix_removes_periodicity() {
        let (before, after) = namenode_periodic();
        let acf_before = explainit_stats::autocorrelation(&runtime(&before), 15);
        let acf_after = explainit_stats::autocorrelation(&runtime(&after), 15);
        assert!(
            acf_before > acf_after + 0.1,
            "15-min autocorrelation should vanish after fix: {acf_before} vs {acf_after}"
        );
    }

    #[test]
    fn weekly_raid_has_weekly_spikes() {
        let out = weekly_raid();
        let rt = runtime(&out);
        // Runtime during the first check window exceeds quiet time.
        let check = mean(&rt[0..240]);
        let quiet = mean(&rt[2000..4000]);
        assert!(check > quiet + 2.0, "weekly check spike: {check} vs {quiet}");
        // And the next week repeats it.
        let next = mean(&rt[7 * 1440..7 * 1440 + 240]);
        assert!(next > quiet + 2.0, "second week spike");
    }

    #[test]
    fn multi_fault_labels_every_injected_cause() {
        let out = multi_fault();
        assert_eq!(out.minutes, 240);
        assert_eq!(out.truth.fault_kinds.len(), 3, "three concurrent faults");
        // Every fault's cause families are labelled, and they span more
        // than one fault's signature (the whole point of the workload).
        assert!(
            out.truth.cause_families.len() >= 3,
            "compound incident has several causes: {:?}",
            out.truth.cause_families
        );
        for cause in &out.truth.cause_families {
            assert_eq!(out.truth.label(cause), crate::sim::Label::Cause);
        }
        // The runtime family reflects the overlapping fault windows.
        let rt = runtime(&out);
        let quiet = mean(&rt[10..110]);
        let faulty = mean(&rt[125..175]);
        assert!(faulty > quiet, "overlapping faults raise runtime: {faulty} vs {quiet}");
    }

    #[test]
    fn raid_intervention_staircase() {
        let out = raid_intervention();
        let rt = runtime(&out);
        let at_default = mean(&rt[5..15]);
        let disabled = mean(&rt[16..20]);
        let capped = mean(&rt[30..40]);
        assert!(at_default > disabled, "disabling the check lowers runtime");
        assert!(at_default > capped, "5% cap lowers runtime vs default");
    }
}
