//! The set-up every workload pays before its first pass: training the
//! per-kernel duration models and compiling the eight kernel sources in
//! all three FLEP transform modes. Workload-specific input lists are built
//! on top of this by each workload's `build`.

use flep_compile::TransformMode;
use flep_core::ModelStore;
use flep_workloads::BenchmarkId;

use crate::trace::{SpanId, Tracer};

const MODES: [TransformMode; 3] = [
    TransformMode::TemporalNaive,
    TransformMode::TemporalAmortized,
    TransformMode::Spatial,
];

/// Products of the shared set-up.
pub struct Shared {
    pub store: ModelStore,
}

impl Shared {
    /// Trains the model store from `seed` and parses and transforms every
    /// kernel source in every mode.
    ///
    /// # Panics
    ///
    /// If a checked-in kernel source fails to parse or transform: the
    /// sources are fixed inputs, so that is a defect of the program.
    pub fn build(seed: u64, tr: &Tracer, parent: SpanId) -> Self {
        let store = tr.span(
            parent,
            "perfmodel.train",
            || "models".into(),
            |_| (ModelStore::train(seed), Vec::new()),
        );
        let programs = tr.span(
            parent,
            "compile.parse",
            || "kernels".into(),
            |_| {
                let programs: Vec<_> = BenchmarkId::ALL
                    .iter()
                    .flat_map(|&id| {
                        MODES.iter().map(move |_| {
                            flep_minicu::parse(flep_workloads::source(id))
                                .unwrap_or_else(|e| panic!("{id} source does not parse: {e:?}"))
                        })
                    })
                    .collect();
                let n = programs.len() as f64;
                (programs, vec![("sources", n)])
            },
        );
        tr.span(
            parent,
            "compile.transform",
            || "kernels".into(),
            |_| {
                let mut kernels = 0usize;
                for (program, mode) in programs.iter().zip(MODES.iter().cycle()) {
                    let out = flep_compile::transform(program, *mode)
                        .unwrap_or_else(|e| panic!("transform {mode:?} failed: {e:?}"));
                    kernels += std::hint::black_box(out).kernels.len();
                }
                ((), vec![("kernels", kernels as f64)])
            },
        );
        Shared { store }
    }
}
