//! Synthetic datacentre workloads, fault injectors and evaluation
//! scenarios.
//!
//! The paper evaluates ExplainIt! on proprietary production incidents from
//! the Tetration Analytics clusters. This crate substitutes a ground-truth
//! simulator: a datacentre of datanodes, pipelines and auxiliary services
//! whose per-minute metrics are generated from an explicit causal model
//! (load → runtime, faults → subsystem metrics → runtime), with fault
//! injectors reproducing each §5 case study:
//!
//! * [`faults::Fault::PacketDrop`] — §5.1's iptables 10% drop experiment;
//! * [`faults::Fault::HypervisorDrop`] — §5.2's load-correlated hypervisor
//!   receive-queue drops (the case that needs conditioning on input size);
//! * [`faults::Fault::NamenodeScan`] — §5.3's 15-minute
//!   `GetContentSummary` filesystem scans;
//! * [`faults::Fault::RaidCheck`] — §5.4's weekly RAID consistency check;
//! * [`faults::Fault::DiskSaturation`] — a rogue-process disk hog used by
//!   extra scenarios.
//!
//! [`case_studies::study`] is each §5 study as it is analysed — the one the
//! CLI's `case-study` prints and the paper suite (`tests/paper.rs`) pins.
//!
//! Because the simulator knows the true causal graph, every emitted metric
//! family is labelled *cause*, *effect* or *irrelevant* for the injected
//! fault — the labels Table 6's ranking-accuracy metrics need.
//!
//! A store becomes feature families one way: [`families_by_name`] executes
//! the family statement [`FAMILIES_BY_METRIC`] — the §5 default grouping the
//! CLI's `rank` / `explain` run — under a `timestamp BETWEEN` bound through
//! `Catalog::execute_family`, so the simulator's families are the session's
//! families. There is no resampling onto a foreign grid: families sit on
//! the data's own timestamps, and a coarser view (§5.4's month at ten
//! minutes) is `FeatureFamily::restrict_to` on an explicit grid.

#![forbid(unsafe_code)]

pub mod case_studies;
pub mod cluster;
pub mod faults;
pub mod scenarios;
pub mod sim;

pub use cluster::ClusterSpec;
pub use faults::Fault;
pub use scenarios::{scenario_specs, ScenarioSpec};
pub use sim::{families_by_name, simulate, GroundTruth, Label, SimOutput, FAMILIES_BY_METRIC};
