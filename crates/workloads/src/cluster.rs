//! Cluster specification: topology and scale knobs for the simulator.

use crate::faults::Fault;

/// Shape and scale of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Simulated minutes (the paper analyses 1–2 days: 1440–2880).
    pub minutes: usize,
    /// Epoch-second timestamp of the first sample.
    pub start_ts: i64,
    /// Number of HDFS datanodes.
    pub datanodes: usize,
    /// Number of processing pipelines.
    pub pipelines: usize,
    /// Number of web/app/db service hosts.
    pub service_hosts: usize,
    /// Number of irrelevant background services (padding that drives the
    /// #families knob of Table 6).
    pub noise_services: usize,
    /// Metrics emitted per background service (drives #features).
    pub metrics_per_noise_service: usize,
    /// Extra per-feature noise multiplier on the *cause* metric families
    /// (tcp/network/disk/namenode). 1.0 = clean signatures; larger values
    /// bury each individual feature in noise so only joint scorers can see
    /// the cause — the knob that differentiates Table 6's scorers.
    pub cause_noise: f64,
    /// Noise multiplier on the *derived effect* families (pipeline latency
    /// and save time). 1.0 = tightly coupled effects that dominate the top
    /// ranks (Tables 3-5); large values decouple them, letting causes take
    /// rank 1 as in several Table-6 incidents.
    pub effect_noise: f64,
    /// RNG seed.
    pub seed: u64,
    /// Injected faults.
    pub faults: Vec<Fault>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            minutes: 1440,
            start_ts: 1_600_000_000,
            datanodes: 8,
            pipelines: 4,
            service_hosts: 6,
            noise_services: 30,
            metrics_per_noise_service: 4,
            cause_noise: 1.0,
            effect_noise: 1.0,
            seed: 42,
            faults: Vec::new(),
        }
    }
}

impl ClusterSpec {
    /// Builder: set the fault list.
    pub fn with_faults(mut self, faults: Vec<Fault>) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the horizon in minutes.
    pub fn with_minutes(mut self, minutes: usize) -> Self {
        self.minutes = minutes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_sane() {
        let s = ClusterSpec::default();
        assert!(s.minutes >= 1440);
        assert!(s.datanodes > 0 && s.pipelines > 0);
    }

    #[test]
    fn builders_compose() {
        let s = ClusterSpec::default()
            .with_seed(7)
            .with_minutes(2880)
            .with_faults(vec![Fault::HypervisorDrop { intensity: 0.5 }]);
        assert_eq!(s.seed, 7);
        assert_eq!(s.minutes, 2880);
        assert_eq!(s.faults.len(), 1);
    }
}
