//! Linear Gaussian structural equation models (SEMs).
//!
//! A SEM over a [`Dag`] assigns every node a linear function of its parents
//! plus independent Gaussian noise, optionally with a deterministic
//! exogenous driver (trend/seasonality/fault pulses). Sampling T steps
//! yields an observational dataset whose ground-truth conditional
//! independence structure is known — the foundation of both the workload
//! simulator and the scorer soundness tests (Appendix B: the conditional
//! score is zero iff `X ⊥ Y | Z` for jointly Gaussian data).

use std::collections::HashMap;

use explainit_linalg::Matrix;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dag::{Dag, NodeId};

/// Per-node structural equation specification.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Coefficient per parent (aligned with `Dag::parents` order at sample
    /// time via the name map; missing parents default to 1.0).
    pub parent_weights: HashMap<String, f64>,
    /// Standard deviation of the independent Gaussian noise term.
    pub noise_std: f64,
    /// Additive offset.
    pub bias: f64,
    /// Optional deterministic exogenous driver evaluated at each step.
    pub driver: Option<fn(usize) -> f64>,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { parent_weights: HashMap::new(), noise_std: 1.0, bias: 0.0, driver: None }
    }
}

impl NodeSpec {
    /// Spec with unit noise and the given parent weights.
    pub fn with_weights(weights: &[(&str, f64)]) -> Self {
        NodeSpec {
            parent_weights: weights.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
            ..NodeSpec::default()
        }
    }

    /// Builder: set noise standard deviation.
    pub fn noise(mut self, std: f64) -> Self {
        assert!(std >= 0.0, "noise std must be non-negative");
        self.noise_std = std;
        self
    }

    /// Builder: set bias.
    pub fn bias(mut self, bias: f64) -> Self {
        self.bias = bias;
        self
    }

    /// Builder: set a deterministic exogenous driver.
    pub fn driver(mut self, f: fn(usize) -> f64) -> Self {
        self.driver = Some(f);
        self
    }
}

/// A linear Gaussian SEM bound to a DAG.
#[derive(Debug, Clone)]
pub struct LinearGaussianSem {
    dag: Dag,
    specs: Vec<NodeSpec>,
}

impl LinearGaussianSem {
    /// Builds a SEM; nodes without an explicit spec get
    /// [`NodeSpec::default`].
    pub fn new(dag: Dag, mut specs: HashMap<String, NodeSpec>) -> Self {
        let ordered: Vec<NodeSpec> =
            (0..dag.len()).map(|i| specs.remove(dag.name(NodeId(i))).unwrap_or_default()).collect();
        assert!(specs.is_empty(), "specs given for unknown nodes: {:?}", specs.keys());
        LinearGaussianSem { dag, specs: ordered }
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Samples `t_steps` observations of every node, returning a
    /// `t_steps × n_nodes` matrix whose columns follow `Dag` node order.
    pub fn sample(&self, t_steps: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let order = self.dag.topological_order();
        let n = self.dag.len();
        let mut data = Matrix::zeros(t_steps, n);
        for t in 0..t_steps {
            for &node in &order {
                let spec = &self.specs[node.0];
                let mut v = spec.bias;
                for &p in self.dag.parents(node) {
                    let w = spec.parent_weights.get(self.dag.name(p)).copied().unwrap_or(1.0);
                    v += w * data[(t, p.0)];
                }
                if let Some(driver) = spec.driver {
                    v += driver(t);
                }
                if spec.noise_std > 0.0 {
                    v += spec.noise_std * crate::sem::normal(&mut rng);
                }
                data[(t, node.0)] = v;
            }
        }
        data
    }
}

/// Box–Muller standard normal (local copy to avoid a dependency edge back to
/// mlkit).
pub(crate) fn normal<R: rand::Rng>(rng: &mut R) -> f64 {
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
    use explainit_stats::pearson;

    fn chain_sem() -> LinearGaussianSem {
        // Z -> Y -> X with strong weights and modest noise.
        let mut dag = Dag::new();
        dag.add_edge_by_name("Z", "Y");
        dag.add_edge_by_name("Y", "X");
        let mut specs = HashMap::new();
        specs.insert("Z".into(), NodeSpec::default().noise(1.0));
        specs.insert("Y".into(), NodeSpec::with_weights(&[("Z", 2.0)]).noise(0.5));
        specs.insert("X".into(), NodeSpec::with_weights(&[("Y", 1.5)]).noise(0.5));
        LinearGaussianSem::new(dag, specs)
    }

    #[test]
    fn sample_shape_and_determinism() {
        let sem = chain_sem();
        let a = sem.sample(100, 7);
        let b = sem.sample(100, 7);
        assert_eq!(a.shape(), (100, 3));
        assert_eq!(a, b);
        let c = sem.sample(100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn chain_induces_correlations() {
        let sem = chain_sem();
        let data = sem.sample(2000, 1);
        let z = data.column(sem.dag().node("Z").unwrap().0);
        let y = data.column(sem.dag().node("Y").unwrap().0);
        let x = data.column(sem.dag().node("X").unwrap().0);
        assert!(pearson(&z, &y).abs() > 0.8, "Z-Y should correlate");
        assert!(pearson(&y, &x).abs() > 0.8, "Y-X should correlate");
        assert!(pearson(&z, &x).abs() > 0.6, "Z-X correlate through chain");
    }

    #[test]
    fn noise_free_node_is_deterministic_in_parents() {
        let mut dag = Dag::new();
        dag.add_edge_by_name("A", "B");
        let mut specs = HashMap::new();
        specs.insert("A".into(), NodeSpec::default().noise(1.0));
        specs.insert("B".into(), NodeSpec::with_weights(&[("A", 3.0)]).noise(0.0).bias(2.0));
        let sem = LinearGaussianSem::new(dag, specs);
        let data = sem.sample(50, 3);
        for t in 0..50 {
            let a = data[(t, sem.dag().node("A").unwrap().0)];
            let b = data[(t, sem.dag().node("B").unwrap().0)];
            assert!((b - (3.0 * a + 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn driver_shapes_the_series() {
        let mut dag = Dag::new();
        dag.add_node("S");
        let mut specs = HashMap::new();
        fn ramp(t: usize) -> f64 {
            t as f64
        }
        specs.insert("S".into(), NodeSpec::default().noise(0.0).driver(ramp));
        let sem = LinearGaussianSem::new(dag, specs);
        let data = sem.sample(10, 0);
        for t in 0..10 {
            assert_eq!(data[(t, 0)], t as f64);
        }
    }

    #[test]
    fn default_weight_is_one() {
        let mut dag = Dag::new();
        dag.add_edge_by_name("A", "B");
        let mut specs = HashMap::new();
        specs.insert("A".into(), NodeSpec::default().noise(0.0).bias(5.0));
        specs.insert("B".into(), NodeSpec::default().noise(0.0));
        let sem = LinearGaussianSem::new(dag, specs);
        let data = sem.sample(3, 0);
        for t in 0..3 {
            assert_eq!(data[(t, 1)], 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "unknown nodes")]
    fn spec_for_missing_node_rejected() {
        let mut dag = Dag::new();
        dag.add_node("A");
        let mut specs = HashMap::new();
        specs.insert("ZZZ".into(), NodeSpec::default());
        LinearGaussianSem::new(dag, specs);
    }
}
