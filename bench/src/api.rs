//! Every item of the program under test that the benchmark calls, in one
//! place so that API drift shows here. All are re-exports of crate roots,
//! the surface the `explainit` CLI itself is built on.

pub use explainit::core::{Engine, FeatureFamily, ScorerKind};
pub use explainit::query::{
    parse_statement, pivot_long, pivot_wide, Catalog, ExecOptions, Statement, Table, Value,
};
pub use explainit::tsdb::{
    MetricFilter, SeriesKey, SeriesSlice, StorageError, StorageOptions, Tsdb,
};
pub use explainit::workloads::{simulate, ClusterSpec, Fault, SimOutput};
pub use explainit::Session;
