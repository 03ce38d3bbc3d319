//! `serve-ram`: an in-RAM monolith under a read-heavy mix.
//!
//! 100k × 64-d sift-like rows; 48 bits over 8 subspaces with 1000 TI
//! clusters. Set-up is `Vaq::train` on a 20k-row sample, `Vaq::add` of the
//! other 80k rows, and `Vaq::save`. The measured phase alternates exact
//! and skip queries through one held `QueryEngine`, with one 16-row
//! `Vaq::add` per 100 queries, for a fixed number of rounds per second of
//! `--seconds`, so every run does the same work; each chunk of it ends
//! with reopen cycles (`Vaq::load`, then the first answer).

use crate::common::{
    self, bits, rows_of, span_median, Phase, Trained, EXACT, NS_TO_MS, SETUP_REPS, SKIP,
};
use crate::oracle::K;
use crate::report::{median, Stopwatch, Values};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::path::Path;
use std::time::Instant;
use vaq_core::{Neighbor, QueryEngine, SearchStrategy, Vaq, VaqConfig, VaqError};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::Matrix;

const ROWS: usize = 100_000;
const SAMPLE: usize = 20_000;
/// Rows the measured phase adds from, cyclically.
const RESERVOIR: usize = 4096;
const ADD_ROWS: usize = 16;
/// Exact+skip pairs per round; each round ends with one add. Adds stay a
/// trickle: with one add per 10 pairs, the queries after each add made
/// the p99 latency 2.5x the p50 and unsteady between runs.
const PAIRS_PER_ROUND: usize = 50;
/// Rounds per second of `--seconds`: about a second of work on the
/// reference machine.
const ROUNDS_PER_SECOND: f64 = 19.0;
const POOL: usize = 400;
/// Reopen cycles after each chunk of the measured phase.
const REOPENS_PER_CHUNK: usize = 10;

fn search(
    tr: &mut Tracer,
    vaq: &Vaq,
    engine: &mut QueryEngine,
    q: &[f32],
    strategy: SearchStrategy,
) -> Result<Vec<Neighbor>, VaqError> {
    let (outer, inner) = if strategy == EXACT {
        ("query.exact", "engine.exact")
    } else {
        ("query.skip", "engine.skip")
    };
    tr.span(outer, |tr| {
        let p = tr.span("encoder.project", |_| vaq.project_query(q))?;
        let view = vaq.view();
        Ok(tr.span(inner, |_| engine.search_with(&view, &p, K, strategy).0))
    })
}

/// One set-up: train, bulk add, save. Returns the index and its seconds.
fn build(
    tr: &mut Tracer,
    sample: &Matrix,
    bulk: &Matrix,
    cfg: &VaqConfig,
    path: &Path,
) -> Result<(Vaq, f64), VaqError> {
    let mut sw = Stopwatch::default();
    let Trained { mut vaq, .. } = common::train(tr, &mut sw, sample, cfg, false)?;
    sw.time(|| tr.span("setup.bulk_add", |_| vaq.add(bulk)))?;
    sw.time(|| tr.span("persist.save", |_| vaq.save(path)))?;
    Ok((vaq, sw.secs()))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let err = |e: VaqError| e.to_string();
    let spec = SyntheticSpec { dim: 64, ..SyntheticSpec::sift_like() };
    let ds = spec.generate(ROWS + RESERVOIR, POOL, ctx.seed);
    let cfg = VaqConfig::new(48, 8).with_ti_clusters(1000).with_seed(ctx.seed);
    let sample = rows_of(&ds.data, 0, SAMPLE);
    let bulk = rows_of(&ds.data, SAMPLE, ROWS);
    let reservoir = rows_of(&ds.data, ROWS, ROWS + RESERVOIR);
    let path = ctx.work.join("serve-ram.vaq");
    let spare = ctx.work.join("spare.vaq");

    let (mut vaq, secs) = build(&mut ctx.tr, &sample, &bulk, &cfg, &path).map_err(err)?;
    let mut setup = vec![secs];
    ctx.drain_degradations("setup", None);
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let mut oracle =
        common::oracle_for(&vaq, &ds.queries, &rows_of(&ds.data, 0, ROWS)).map_err(err)?;
    println!(
        "# oracle over {ROWS} rows x {POOL} queries built in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    // Probe: every pool query once per strategy on the set-up state. Its
    // counters repeat exactly for a seed; its exact answers are what each
    // reopened index must return.
    let mut probe = common::ProbeStats::default();
    let mut saved = Vec::new();
    for qi in 0..POOL {
        for strategy in [EXACT, SKIP] {
            let got = ctx.ledger.record("probe", vaq.search_with(oracle.query(qi), K, strategy));
            let Some((answer, stats)) = got else { continue };
            let checked = if strategy == EXACT {
                probe.exact += stats;
                saved.push(bits(&answer));
                oracle.check_exact(qi, &answer).map(|_| ())
            } else {
                probe.skip += stats;
                oracle.check_skip(qi, &answer).map(|_| ())
            };
            ctx.ledger.check(checked, || format!("probe query {qi}"));
        }
        probe.queries += 1;
    }

    let mut phase = Phase::default();
    let mut engine = vaq.engine();
    let mut reopen = Vec::new();
    let (mut qi, mut next_row) = (0usize, 0usize);
    let rounds_per_chunk = (ctx.seconds * ROUNDS_PER_SECOND / SETUP_REPS as f64).ceil() as usize;
    for chunk in 0..SETUP_REPS {
        if chunk > 0 {
            let (spare_index, secs) =
                build(&mut ctx.tr, &sample, &bulk, &cfg, &spare).map_err(err)?;
            drop(spare_index);
            setup.push(secs);
            ctx.drain_degradations("setup", None);
        }
        for _ in 0..rounds_per_chunk {
            for _ in 0..PAIRS_PER_ROUND {
                for strategy in [EXACT, SKIP] {
                    let t = Instant::now();
                    let got = search(&mut ctx.tr, &vaq, &mut engine, oracle.query(qi), strategy);
                    phase.query(&mut ctx.ledger, &oracle, qi, strategy, t.elapsed(), got);
                }
                qi = (qi + 1) % POOL;
            }
            let rows = rows_of(&reservoir, next_row, next_row + ADD_ROWS);
            next_row = (next_row + ADD_ROWS) % RESERVOIR;
            let t = Instant::now();
            let got = ctx.tr.span("index.add", |_| vaq.add(&rows));
            let took = t.elapsed();
            if let Some(first) = ctx.ledger.record("add", got) {
                phase.add.push(took);
                oracle.push(&common::decoded_rows(&vaq, first, first + ADD_ROWS), rows.as_slice());
            }
        }
        ctx.drain_degradations("serve", Some("query_exact"));

        // Reopen cycles: load the saved index, answer one exact query.
        for (r, want) in
            saved.iter().enumerate().skip(chunk * REOPENS_PER_CHUNK).take(REOPENS_PER_CHUNK)
        {
            let q = oracle.query(r);
            let t = Instant::now();
            let got = ctx.tr.span("persist.open", |_| Vaq::load(&path)).and_then(|loaded| {
                ctx.tr.span("persist.first_query", |_| {
                    let p = loaded.project_query(q)?;
                    let view = loaded.view();
                    Ok(QueryEngine::for_view(&view).search_with(&view, &p, K, EXACT).0)
                })
            });
            let took = t.elapsed();
            if let Some(answer) = ctx.ledger.record("reopen", got) {
                reopen.push(took.as_secs_f64() * 1e3);
                let same =
                    if bits(&answer) == *want { Ok(()) } else { Err("answer changed".into()) };
                ctx.ledger.check(same, || format!("reopen {r}"));
            }
        }
        ctx.drain_degradations("reopen", Some("reopen"));
    }
    phase.check_recall(&mut ctx.ledger);
    println!(
        "# serve-ram: {} exact, {} skip, {} adds; {} tie swaps",
        phase.exact.len(),
        phase.skip.len(),
        phase.add.len(),
        phase.tie_swaps()
    );

    let mut e2e = Values::new();
    let mut layers = Values::new();
    e2e.insert("setup_s", median(&setup));
    phase.fill(&mut e2e, &mut layers);
    e2e.insert("reopen_ms", median(&reopen));
    e2e.insert("index_bytes_per_row", file_bytes as f64 / ROWS as f64);

    if ctx.tr.enabled() {
        common::probe_layers(&mut ctx.tr, &vaq, &ds.queries, &reservoir, &mut layers)
            .map_err(err)?;
        probe.fill(&mut layers);
        let tr = &ctx.tr;
        layers.insert("engine.exact_us", span_median(tr, "engine.exact", 1e-3));
        layers.insert("engine.skip_us", span_median(tr, "engine.skip", 1e-3));
        layers.insert("persist.save_ms", span_median(tr, "persist.save", NS_TO_MS));
        layers.insert("persist.load_ms", span_median(tr, "persist.open", NS_TO_MS));
        layers.insert("persist.open_ms", span_median(tr, "persist.open", NS_TO_MS));
        layers.insert("persist.first_query_ms", span_median(tr, "persist.first_query", NS_TO_MS));
    }
    Ok(Outcome { e2e, layers })
}
