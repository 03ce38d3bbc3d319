//! Pieces every workload shares: staged training, row slicing, the
//! oracle's view of an index, and the per-layer probes of the traced run.

use crate::oracle::{Oracle, K};
use crate::report::{median, Ledger, Samples, Stopwatch, Values};
use crate::trace::Tracer;
use std::time::Duration;
use vaq_core::pipeline::ingress_check;
use vaq_core::{
    Neighbor, QueryEngine, SearchStats, SearchStrategy, Vaq, VaqConfig, VaqError, VarPcaStage,
};
use vaq_linalg::qtables::{accumulate_qsums, accumulate_qsums_with, kernel_supported, ScanKernel};
use vaq_linalg::{Matrix, QuantizedTables};

pub const EXACT: SearchStrategy = SearchStrategy::Quantized;
pub const SKIP: SearchStrategy = SearchStrategy::TiEa { visit_frac: 0.25 };

/// An answer as (id, distance bits), for byte-for-byte comparison.
pub fn bits(answer: &[Neighbor]) -> Vec<(u32, u32)> {
    answer.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Rows `lo..hi` of `m` as their own matrix.
pub fn rows_of(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let d = m.cols();
    Matrix::from_vec(hi - lo, d, m.as_slice()[lo * d..hi * d].to_vec())
}

/// A trained model, and optionally a twin of the same model without a TI
/// partition: the twin is fed the same rows in the same order as a
/// segmented index, so its `code(id)` is that index's code for `id`.
pub struct Trained {
    pub vaq: Vaq,
    pub twin: Option<Vaq>,
}

/// `Vaq::train`, run stage by stage so each stage gets its own span. Only
/// the stage calls are timed into `sw`; forking the twin is not.
pub fn train(
    tr: &mut Tracer,
    sw: &mut Stopwatch,
    sample: &Matrix,
    cfg: &VaqConfig,
    with_twin: bool,
) -> Result<Trained, VaqError> {
    let sanitized = sw.time(|| ingress_check(sample, cfg))?;
    let data = sanitized.as_ref().unwrap_or(sample);
    let pca = sw.time(|| tr.span("pipeline.varpca", |_| VarPcaStage::compute(data, cfg)))?;
    let plan = sw.time(|| tr.span("pipeline.subspace_plan", |_| pca.plan_subspaces(cfg)))?;
    let bits = sw.time(|| tr.span("pipeline.bit_plan", |_| plan.allocate_bits(cfg)))?;
    let dict =
        sw.time(|| tr.span("pipeline.dictionaries", |_| bits.train_dictionaries(data, cfg)))?;
    let twin_stage = with_twin.then(|| dict.clone());
    let vaq = sw.time(|| tr.span("pipeline.ti_build", |_| dict.build_ti(cfg)))?;
    let twin = match twin_stage {
        Some(stage) => Some(stage.build_ti(&cfg.clone().with_ti_clusters(0))?),
        None => None,
    };
    Ok(Trained { vaq, twin })
}

/// Codes of rows `lo..hi` of `vaq`, decoded with `Encoder::decode`.
pub fn decoded_rows(vaq: &Vaq, lo: usize, hi: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for i in lo..hi {
        out.extend(vaq.encoder().decode(vaq.code(i)));
    }
    out
}

/// An oracle over the pool `queries`, seeded with every row of `vaq`
/// (whose raw vectors are `raw`, in id order).
pub fn oracle_for(vaq: &Vaq, queries: &Matrix, raw: &Matrix) -> Result<Oracle, VaqError> {
    let mut pool = Vec::with_capacity(queries.rows());
    for q in queries.iter_rows() {
        pool.push((q.to_vec(), vaq.project_query(q)?));
    }
    let mut oracle = Oracle::new(queries.cols(), queries.cols(), pool);
    oracle.push(&decoded_rows(vaq, 0, vaq.len()), raw.as_slice());
    Ok(oracle)
}

/// Summed search counters of the exact and the skip strategy over a
/// probe set: deterministic for a given seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeStats {
    pub queries: usize,
    pub exact: SearchStats,
    pub skip: SearchStats,
}

impl ProbeStats {
    pub fn fill(&self, v: &mut Values) {
        let n = self.queries.max(1) as f64;
        let (e, s) = (&self.exact, &self.skip);
        v.insert("engine.exact_visited_per_query", e.vectors_visited as f64 / n);
        v.insert(
            "engine.exact_pruned_frac",
            e.quantized_pruned as f64 / e.vectors_visited.max(1) as f64,
        );
        v.insert(
            "engine.skip_skipped_frac",
            s.vectors_skipped as f64 / (s.vectors_visited + s.vectors_skipped).max(1) as f64,
        );
        v.insert("engine.skip_lookups_per_query", s.lookups as f64 / n);
    }
}

/// Median self time (ns) of the spans named `name`, converted by `scale`.
pub fn span_median(tr: &Tracer, name: &str, scale: f64) -> f64 {
    tr.self_times().get(name).map_or(0.0, |v| median(v) * scale)
}

const NS_TO_US: f64 = 1e-3;
pub const NS_TO_MS: f64 = 1e-6;

fn kernel_span(k: ScanKernel) -> (&'static str, &'static str) {
    match k {
        ScanKernel::Scalar => ("qtables.kernel.scalar", "qtables.kernel_scalar_gvec_per_s"),
        ScanKernel::Ssse3 => ("qtables.kernel.ssse3", "qtables.kernel_ssse3_gvec_per_s"),
        ScanKernel::Avx2 => ("qtables.kernel.avx2", "qtables.kernel_avx2_gvec_per_s"),
        ScanKernel::Avx512 => ("qtables.kernel.avx512", "qtables.kernel_avx512_gvec_per_s"),
        ScanKernel::Neon => ("qtables.kernel.neon", "qtables.kernel_neon_gvec_per_s"),
    }
}

/// The traced run's probes of the encoder, engine and qtables layers,
/// through a monolithic `vaq` holding every row of the index. Each call is
/// timed in its own span; the values are medians of the spans' self time.
pub fn probe_layers(
    tr: &mut Tracer,
    vaq: &Vaq,
    queries: &Matrix,
    encode_block: &Matrix,
    v: &mut Values,
) -> Result<(), VaqError> {
    let view = vaq.view();
    let mut engine = QueryEngine::for_view(&view);
    let mut projected = Vec::with_capacity(queries.rows());
    for q in queries.iter_rows() {
        projected.push(tr.span("encoder.project", |_| vaq.project_query(q))?);
    }

    let mut block = Matrix::zeros(encode_block.rows(), vaq.layout().perm.len());
    for (i, row) in encode_block.iter_rows().enumerate() {
        block.row_mut(i).copy_from_slice(&vaq.project_query(row)?);
    }
    for _ in 0..9 {
        std::hint::black_box(tr.span("encoder.encode_all", |_| vaq.encoder().encode_all(&block)));
    }

    let packed = view.packed().filter(|p| p.is_active());
    let mut qt = QuantizedTables::new();
    for p in &projected {
        tr.span("engine.prepare", |_| engine.prepare(&view, p));
        if let Some(packed) = packed {
            tr.span("qtables.quantize", |_| qt.quantize(engine.arena(), packed));
        }
    }
    if let Some(packed) = packed {
        let reps = (30_000_000 / packed.len().max(1)).clamp(5, 400);
        let mut sums = Vec::new();
        for _ in 0..reps {
            tr.span("qtables.kernel", |_| accumulate_qsums(packed, &qt, &mut sums));
        }
        for k in ScanKernel::ALL.into_iter().filter(|&k| kernel_supported(k)) {
            for _ in 0..reps {
                tr.span(kernel_span(k).0, |_| accumulate_qsums_with(k, packed, &qt, &mut sums));
            }
        }
        std::hint::black_box(&sums);
        let rows = packed.len() as f64;
        let gvec = |name: &str| {
            let ns = span_median(tr, name, 1.0);
            if ns > 0.0 {
                rows / ns
            } else {
                0.0
            }
        };
        v.insert("qtables.kernel_gvec_per_s", gvec("qtables.kernel"));
        for k in ScanKernel::ALL.into_iter().filter(|&k| kernel_supported(k)) {
            let (span, metric) = kernel_span(k);
            v.insert(metric, gvec(span));
        }
    }

    let batch = rows_of(queries, 0, 16.min(queries.rows()));
    for _ in 0..15 {
        tr.span("engine.batch16", |_| vaq.search_batch(&batch, K, EXACT))?;
    }

    let rows = encode_block.rows() as f64;
    let encode_ns = span_median(tr, "encoder.encode_all", 1.0);
    v.insert("encoder.project_us", span_median(tr, "encoder.project", NS_TO_US));
    v.insert(
        "encoder.encode_rows_per_s",
        if encode_ns > 0.0 { rows / encode_ns * 1e9 } else { 0.0 },
    );
    v.insert("engine.prepare_us", span_median(tr, "engine.prepare", NS_TO_US));
    v.insert("qtables.quantize_us", span_median(tr, "qtables.quantize", NS_TO_US));
    v.insert(
        "engine.batch16_us_per_query",
        span_median(tr, "engine.batch16", NS_TO_US) / batch.rows().max(1) as f64,
    );
    for (stage, metric) in [
        ("pipeline.varpca", "pipeline.varpca_ms"),
        ("pipeline.subspace_plan", "pipeline.subspace_plan_ms"),
        ("pipeline.bit_plan", "pipeline.bit_plan_ms"),
        ("pipeline.dictionaries", "pipeline.dictionaries_ms"),
        ("pipeline.ti_build", "pipeline.ti_build_ms"),
    ] {
        v.insert(metric, span_median(tr, stage, NS_TO_MS));
    }
    Ok(())
}

/// Samples and recall tallies of a measured phase, which may run in
/// several chunks.
#[derive(Debug, Default)]
pub struct Phase {
    pub exact: Samples,
    pub skip: Samples,
    pub add: Samples,
    exact_hits: usize,
    oracle_hits: usize,
    skip_hits: usize,
    tie_swaps: usize,
}

impl Phase {
    /// Records one timed query of pool query `qi` and checks its answer.
    pub fn query(
        &mut self,
        ledger: &mut Ledger,
        oracle: &Oracle,
        qi: usize,
        strategy: SearchStrategy,
        took: Duration,
        got: Result<Vec<Neighbor>, VaqError>,
    ) {
        let op = if strategy == EXACT { "query_exact" } else { "query_skip" };
        let Some(answer) = ledger.record(op, got) else { return };
        let checked = if strategy == EXACT {
            self.exact.push(took);
            oracle.check_exact(qi, &answer)
        } else {
            self.skip.push(took);
            oracle.check_skip(qi, &answer)
        };
        if let Ok(c) = &checked {
            if strategy == EXACT {
                self.exact_hits += c.hits;
                self.oracle_hits += c.oracle_hits;
                self.tie_swaps += usize::from(c.tie_swap);
            } else {
                self.skip_hits += c.hits;
            }
        }
        ledger.check(checked.map(|_| ()), || format!("{op} on pool query {qi}"));
    }

    pub fn tie_swaps(&self) -> usize {
        self.tie_swaps
    }

    /// Exact answers must score the recall of the oracle's own top-K
    /// (when no tie at the K-th distance went the other way).
    pub fn check_recall(&self, ledger: &mut Ledger) {
        if self.tie_swaps == 0 && self.exact_hits != self.oracle_hits {
            let msg = format!(
                "exact recall hits {} differ from the oracle's {}",
                self.exact_hits, self.oracle_hits
            );
            ledger.check(Err(msg), || "recall".into());
        }
    }

    /// Query, recall and add metrics: the plain names for the untraced
    /// run, and `trace.*` for the traced one (their difference is the
    /// tracing overhead).
    pub fn fill(&self, e2e: &mut Values, layers: &mut Values) {
        let recall = |hits: usize, n: usize| hits as f64 / (K * n.max(1)) as f64;
        e2e.insert("query_exact_p50_us", self.exact.pct(50.0));
        e2e.insert("query_exact_p90_us", self.exact.pct(90.0));
        e2e.insert("query_skip_p50_us", self.skip.pct(50.0));
        e2e.insert("query_skip_p90_us", self.skip.pct(90.0));
        e2e.insert("recall_exact_at_10", recall(self.exact_hits, self.exact.len()));
        e2e.insert("recall_skip_at_10", recall(self.skip_hits, self.skip.len()));
        e2e.insert("add_p50_us", self.add.pct(50.0));
        layers.insert("trace.query_exact_p50_us", self.exact.pct(50.0));
        layers.insert("trace.query_skip_p50_us", self.skip.pct(50.0));
        layers.insert("trace.add_p50_us", self.add.pct(50.0));
    }
}

/// Spreads `reps` set-ups over a run: set-up 0 builds the index that
/// serves; before each later chunk of the measured phase one more set-up
/// is built and dropped, so the phase's samples are spread over the whole
/// run rather than taken in one block.
pub const SETUP_REPS: usize = 3;
