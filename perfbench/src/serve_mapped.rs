//! `serve-mapped`: an out-of-core segmented index opened by mmap.
//!
//! 32-d sift-like rows; 64 bits over 16 subspaces, the model trained on a
//! 100k-row sample with 1000 TI clusters. The remaining rows are ingested
//! in `SEAL`-row blocks under a sequential policy that seals at `SEAL` rows
//! (1000 TI clusters per sealed segment), then `flush` and `save_mapped`:
//! three mapped 100k-row segments and an empty write buffer. The buffer is
//! kept small on purpose: every `SegmentedVaq::add` copies the whole
//! buffer, so with 69k rows left in it each measured add was a ~6 MB copy.
//! The measured phase opens the file with `open_mapped`, then runs rounds
//! of 20 exact and skip query pairs, one 64-row add and one copy-on-write
//! delete of a sealed row, for a fixed number of rounds per second of
//! `--seconds`, so every run does the same work; each chunk of it ends
//! with reopen cycles timed from `open_mapped` to the first answer (lazy
//! CRC and page faults included).

use crate::common::{
    self, bits, rows_of, span_median, Phase, Trained, EXACT, NS_TO_MS, SETUP_REPS, SKIP,
};
use crate::oracle::K;
use crate::report::{median, Stopwatch, Values};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::path::Path;
use std::time::Instant;
use vaq_core::{SegmentPolicy, SegmentedVaq, Vaq, VaqConfig, VaqError};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::Matrix;

const ROWS: usize = 300_000;
const SAMPLE: usize = 100_000;
const SEAL: usize = 100_000;
/// Rows the measured phase adds from, cyclically.
const RESERVOIR: usize = 4096;
/// Rows per add: a 10 s run's adds (about 6k rows) stay far below `SEAL`,
/// so no measured add seals.
const ADD_ROWS: usize = 64;
/// Exact+skip pairs per round; each round ends with one add and one
/// delete. Writes stay a trickle: with one per pair, the queries after
/// them made the p99 latency 4-5x the p50 and unsteady between runs.
const PAIRS_PER_ROUND: usize = 20;
/// Rounds per second of `--seconds`: about a second of work on the
/// reference machine.
const ROUNDS_PER_SECOND: f64 = 9.5;
const POOL: usize = 200;
/// Reopen cycles after each chunk of the measured phase.
const REOPENS_PER_CHUNK: usize = 6;
/// Queries whose mapped answers must equal the in-RAM index's.
const PROBES: usize = 16;

/// What one set-up leaves behind.
struct Built {
    index: SegmentedVaq,
    twin: Vaq,
    secs: f64,
    seals: usize,
    compactions: usize,
    /// Durations (ms) of the ingest adds whose snapshot shape changed.
    seal_adds: Vec<f64>,
}

/// One set-up: train on the sample, ingest the rest blockwise, flush, and
/// save the page-aligned mapped file.
fn build(
    tr: &mut Tracer,
    data: &Matrix,
    cfg: &VaqConfig,
    policy: &SegmentPolicy,
    path: &Path,
) -> Result<Built, VaqError> {
    let mut sw = Stopwatch::default();
    let sample = rows_of(data, 0, SAMPLE);
    let Trained { vaq, twin } = common::train(tr, &mut sw, &sample, cfg, true)?;
    let index = sw.time(|| SegmentedVaq::from_vaq(vaq, policy.clone()));
    let (mut seals, mut compactions, mut seal_adds) = (0, 0, Vec::new());
    let mut at = SAMPLE;
    while at < ROWS {
        let block = rows_of(data, at, (at + SEAL).min(ROWS));
        let before = index.snapshot();
        let t = Instant::now();
        sw.time(|| tr.span("setup.ingest", |_| index.add(&block)))?;
        let took = t.elapsed();
        let after = index.snapshot();
        let sealed = usize::from(after.buffer_len() < before.buffer_len() + block.rows());
        seals += sealed;
        compactions += (before.num_segments() + sealed).saturating_sub(after.num_segments());
        if sealed > 0 || after.num_segments() != before.num_segments() {
            seal_adds.push(took.as_secs_f64() * 1e3);
        }
        at += block.rows();
    }
    sw.time(|| tr.span("setup.flush", |_| index.flush()));
    sw.time(|| tr.span("persist.save", |_| index.save_mapped(path)))?;
    let twin = twin.expect("train was asked for a twin");
    Ok(Built { index, twin, secs: sw.secs(), seals, compactions, seal_adds })
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let err = |e: VaqError| e.to_string();
    let spec = SyntheticSpec { dim: 32, ..SyntheticSpec::sift_like() };
    let ds = spec.generate(ROWS + RESERVOIR, POOL, ctx.seed);
    let cfg = VaqConfig::new(64, 16).with_ti_clusters(1000).with_seed(ctx.seed);
    let policy =
        SegmentPolicy::default().with_seal_threshold(SEAL).with_ti_clusters(1000).sequential();
    let reservoir = rows_of(&ds.data, ROWS, ROWS + RESERVOIR);
    let path = ctx.work.join("serve-mapped.vaq4");
    let spare = ctx.work.join("spare.vaq4");

    let built = build(&mut ctx.tr, &ds.data, &cfg, &policy, &path).map_err(err)?;
    let mut setup = vec![built.secs];
    ctx.drain_degradations("setup", None);
    let Built { index: in_ram, mut twin, seals, compactions, seal_adds, .. } = built;
    let shape = in_ram.snapshot();
    let (segments, buffer_rows) = (shape.num_segments(), shape.buffer_len());
    drop(shape);
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    // The in-RAM index's answers, which the mapped one must reproduce.
    let mut in_ram_answers = Vec::new();
    for qi in 0..PROBES {
        for strategy in [EXACT, SKIP] {
            let (answer, _) = in_ram.search_with(ds.queries.row(qi), K, strategy).map_err(err)?;
            in_ram_answers.push(bits(&answer));
        }
    }
    drop(in_ram);
    let first = twin.add(&rows_of(&ds.data, SAMPLE, ROWS)).map_err(err)?;
    if first != SAMPLE || twin.len() != ROWS {
        return Err(format!("twin holds {} rows from {first}", twin.len()));
    }
    let t = Instant::now();
    let mut oracle =
        common::oracle_for(&twin, &ds.queries, &rows_of(&ds.data, 0, ROWS)).map_err(err)?;
    println!(
        "# oracle over {ROWS} rows x {POOL} queries built in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    // The measured phase opens the file; a probe of every pool query on
    // the opened state gives counters that repeat exactly for a seed.
    let mapped = ctx.tr.span("persist.open", |_| SegmentedVaq::open_mapped(&path)).map_err(err)?;
    let mut searcher = mapped.searcher();
    let mut probe = common::ProbeStats::default();
    for qi in 0..POOL {
        for (s, strategy) in [EXACT, SKIP].into_iter().enumerate() {
            let got =
                ctx.ledger.record("probe", searcher.search_with(oracle.query(qi), K, strategy));
            let Some((answer, stats)) = got else { continue };
            if strategy == EXACT {
                probe.exact += stats;
                let checked = oracle.check_exact(qi, &answer).map(|_| ());
                ctx.ledger.check(checked, || format!("probe query {qi}"));
            } else {
                probe.skip += stats;
                let checked = oracle.check_skip(qi, &answer).map(|_| ());
                ctx.ledger.check(checked, || format!("probe query {qi}"));
            }
            if qi < PROBES && bits(&answer) != in_ram_answers[2 * qi + s] {
                ctx.ledger.check(Err("mapped answer differs from in-RAM".into()), || {
                    format!("probe {qi}")
                });
            }
        }
        probe.queries += 1;
    }
    ctx.drain_degradations("open", Some("probe"));

    let mut phase = Phase::default();
    let mut reopen = Vec::new();
    let (mut qi, mut next_row, mut round) = (0usize, 0usize, 0usize);
    let rounds_per_chunk = (ctx.seconds * ROUNDS_PER_SECOND / SETUP_REPS as f64).ceil() as usize;
    // Ids below this sit in sealed segments, which the file maps; the
    // measured adds go to the owned write buffer.
    let sealed_rows = ROWS - buffer_rows;
    for chunk in 0..SETUP_REPS {
        if chunk > 0 {
            let spare_index = build(&mut ctx.tr, &ds.data, &cfg, &policy, &spare).map_err(err)?;
            setup.push(spare_index.secs);
            drop(spare_index);
            ctx.drain_degradations("setup", None);
        }
        for _ in 0..rounds_per_chunk {
            for _ in 0..PAIRS_PER_ROUND {
                for strategy in [EXACT, SKIP] {
                    let span = if strategy == EXACT { "engine.exact" } else { "engine.skip" };
                    let q = oracle.query(qi);
                    let t = Instant::now();
                    let got = ctx.tr.span(span, |_| searcher.search_with(q, K, strategy));
                    let got = got.map(|(answer, _)| answer);
                    phase.query(&mut ctx.ledger, &oracle, qi, strategy, t.elapsed(), got);
                }
                qi = (qi + 1) % POOL;
            }
            let rows = rows_of(&reservoir, next_row, next_row + ADD_ROWS);
            next_row = (next_row + ADD_ROWS) % RESERVOIR;
            let t = Instant::now();
            let got = ctx.tr.span("index.add", |_| mapped.add(&rows));
            let took = t.elapsed();
            if let Some(ids) = ctx.ledger.record("add", got) {
                phase.add.push(took);
                let first = twin.add(&rows).map_err(err)?;
                if ids.first().copied() != Some(first as u32) {
                    return Err(format!("add assigned id {:?}, the twin {first}", ids.first()));
                }
                oracle.push(&common::decoded_rows(&twin, first, first + ADD_ROWS), rows.as_slice());
            }
            // Deletes walk the sealed rows, so each lands on a mapped
            // segment and copies its tombstone bitmap.
            let victim = ((round * 7919) % sealed_rows) as u32;
            round += 1;
            let got = ctx.tr.span("index.delete", |_| mapped.try_delete(victim));
            if let Some(killed) = ctx.ledger.record("delete", got) {
                let ok = if killed == oracle.is_live(victim) {
                    Ok(())
                } else {
                    Err(format!("delete {victim}"))
                };
                ctx.ledger.check(ok, || "delete".into());
                oracle.delete(victim);
            }
        }
        ctx.drain_degradations("serve", Some("query_exact"));

        // Reopen cycles: open the saved file again, answer one exact query.
        for r in chunk * REOPENS_PER_CHUNK..(chunk + 1) * REOPENS_PER_CHUNK {
            let p = r % PROBES;
            let t = Instant::now();
            let got = ctx.tr.span("persist.open", |_| SegmentedVaq::open_mapped(&path)).and_then(
                |index| {
                    ctx.tr.span("persist.first_query", |_| {
                        index.search_with(ds.queries.row(p), K, EXACT)
                    })
                },
            );
            let took = t.elapsed();
            if let Some((answer, _)) = ctx.ledger.record("reopen", got) {
                reopen.push(took.as_secs_f64() * 1e3);
                let same = if bits(&answer) == in_ram_answers[2 * p] {
                    Ok(())
                } else {
                    Err("answer changed".into())
                };
                ctx.ledger.check(same, || format!("reopen {r}"));
            }
        }
        ctx.drain_degradations("reopen", Some("reopen"));
    }
    phase.check_recall(&mut ctx.ledger);
    drop(searcher);
    drop(mapped);
    println!(
        "# serve-mapped: {ROWS} rows in {segments} segments + {buffer_rows} buffered; {} exact, {} skip, \
         {} adds; {} tie swaps",
        phase.exact.len(),
        phase.skip.len(),
        phase.add.len(),
        phase.tie_swaps()
    );
    if ctx.tr.enabled() {
        for _ in 0..3 {
            ctx.tr.span("persist.load", |_| SegmentedVaq::load(&path)).map_err(err)?;
        }
    }

    let mut e2e = Values::new();
    let mut layers = Values::new();
    e2e.insert("setup_s", median(&setup));
    phase.fill(&mut e2e, &mut layers);
    e2e.insert("reopen_ms", median(&reopen));
    e2e.insert("index_bytes_per_row", file_bytes as f64 / ROWS as f64);

    if ctx.tr.enabled() {
        common::probe_layers(&mut ctx.tr, &twin, &ds.queries, &reservoir, &mut layers)
            .map_err(err)?;
        probe.fill(&mut layers);
        let tr = &ctx.tr;
        layers.insert("engine.exact_us", span_median(tr, "engine.exact", 1e-3));
        layers.insert("engine.skip_us", span_median(tr, "engine.skip", 1e-3));
        layers.insert("segment.seal_add_ms", median(&seal_adds));
        layers.insert("segment.seals", seals as f64);
        layers.insert("segment.compactions", compactions as f64);
        layers.insert("segment.segments", segments as f64);
        layers.insert("segment.buffer_rows", buffer_rows as f64);
        layers
            .insert("segment.visited_per_query", probe.exact.vectors_visited as f64 / POOL as f64);
        layers.insert("persist.save_ms", span_median(tr, "persist.save", NS_TO_MS));
        layers.insert("persist.load_ms", span_median(tr, "persist.load", NS_TO_MS));
        layers.insert("persist.open_ms", span_median(tr, "persist.open", NS_TO_MS));
        layers.insert("persist.first_query_ms", span_median(tr, "persist.first_query", NS_TO_MS));
    }
    Ok(Outcome { e2e, layers })
}
