//! `ingest-durable`: a durable segmented index under a write-heavy mix.
//!
//! 64-d sift-like rows; 48 bits over 8 subspaces with 1000 TI clusters,
//! trained on a 20k-row sample. `SegmentedVaq::from_vaq` under
//! `SegmentPolicy::default().sequential()` (seals and compactions run
//! inline in the add that triggers them), then `make_durable`. Each step
//! of the measured phase adds a 128-row batch (logged and fsynced before
//! the add returns), deletes one earlier id with `try_delete`, and runs
//! one exact and one skip query; a checkpoint runs every
//! `CHECKPOINT_EVERY` steps. The step count is fixed by `--seconds`, so
//! every run grows the index to the same size. After the last checkpoint
//! `SUFFIX` more steps leave a fixed WAL suffix, and the phase ends with
//! `open_durable` reopen cycles that replay it. The two repeated set-ups
//! run between thirds of the steps, so the phase spans the whole run.

use crate::common::{
    self, bits, rows_of, span_median, Phase, Trained, EXACT, NS_TO_MS, SETUP_REPS, SKIP,
};
use crate::oracle::{Oracle, K};
use crate::report::{median, Stopwatch, Values};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vaq_core::{SegmentPolicy, SegmentedVaq, Vaq, VaqConfig, VaqError};
use vaq_dataset::SyntheticSpec;
use vaq_linalg::Matrix;

const SAMPLE: usize = 20_000;
const BATCH: usize = 128;
const CHECKPOINT_EVERY: usize = 128;
/// Checkpoint intervals per second of `--seconds`: at 10 s, 1056 steps.
const INTERVALS_PER_SECOND: f64 = 0.75;
/// Steps after the last checkpoint, replayed by every reopen.
const SUFFIX: usize = 32;
const POOL: usize = 128;
const REOPENS: usize = 11;
/// Queries whose answers must survive close and reopen unchanged.
const PROBES: usize = 8;

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// The WAL lives beside the manifest.
fn wal_of(manifest: &Path) -> PathBuf {
    let mut s = manifest.as_os_str().to_owned();
    s.push(".wal");
    s.into()
}

/// Deterministic id picker (splitmix64).
struct Picker(u64);

impl Picker {
    fn next(&mut self, below: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    }

    /// A live id, drawn uniformly from the acknowledged ones.
    fn live_id(&mut self, oracle: &Oracle) -> u32 {
        loop {
            let id = self.next(oracle.len()) as u32;
            if oracle.is_live(id) {
                return id;
            }
        }
    }
}

/// One set-up into `dir`: train, wrap as a segmented index, make durable.
fn build(
    tr: &mut Tracer,
    sample: &Matrix,
    cfg: &VaqConfig,
    dir: &Path,
) -> Result<(SegmentedVaq, Vaq, PathBuf, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("index.vaq3");
    let mut sw = Stopwatch::default();
    let Trained { vaq, twin } =
        common::train(tr, &mut sw, sample, cfg, true).map_err(|e| e.to_string())?;
    let index = sw.time(|| SegmentedVaq::from_vaq(vaq, SegmentPolicy::default().sequential()));
    sw.time(|| tr.span("persist.save", |_| index.make_durable(&path)))
        .map_err(|e| e.to_string())?;
    Ok((index, twin.ok_or("no twin")?, path, sw.secs()))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let err = |e: VaqError| e.to_string();
    let intervals = ((ctx.seconds * INTERVALS_PER_SECOND).round() as usize).max(1);
    let steps = intervals * CHECKPOINT_EVERY + SUFFIX;
    let spec = SyntheticSpec { dim: 64, ..SyntheticSpec::sift_like() };
    let ds = spec.generate(SAMPLE + steps * BATCH, POOL, ctx.seed);
    let cfg = VaqConfig::new(48, 8).with_ti_clusters(1000).with_seed(ctx.seed);
    let sample = rows_of(&ds.data, 0, SAMPLE);

    let (seg, mut twin, path, secs) = build(&mut ctx.tr, &sample, &cfg, &ctx.work.join("index"))?;
    let mut setup = vec![secs];
    ctx.drain_degradations("setup", None);
    let mut oracle = common::oracle_for(&twin, &ds.queries, &sample).map_err(err)?;

    let mut searcher = seg.searcher();
    let mut picker = Picker(ctx.seed ^ 0xde1e7e);
    let mut phase = Phase::default();
    let (mut deletes, mut checkpoints, mut seal_adds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seals, mut compactions) = (0usize, 0usize);
    let mut wal_bytes = 0u64;
    let mut qi = 0usize;
    for step in 0..steps {
        if (1..SETUP_REPS).any(|c| step == c * steps / SETUP_REPS) {
            // Serving-path entries so far are failures of the phase, not
            // the spare set-up's.
            ctx.drain_degradations("ingest", Some("add"));
            let spare = ctx.work.join(format!("spare-{step}"));
            let (spare_index, _, _, secs) = build(&mut ctx.tr, &sample, &cfg, &spare)?;
            drop(spare_index);
            setup.push(secs);
            let _ = std::fs::remove_dir_all(&spare);
            ctx.drain_degradations("setup", None);
        }
        let lo = SAMPLE + step * BATCH;
        let rows = rows_of(&ds.data, lo, lo + BATCH);
        let before = seg.snapshot();
        let t = Instant::now();
        let got = ctx.tr.span("index.add", |_| seg.add(&rows));
        let took = t.elapsed();
        if let Some(ids) = ctx.ledger.record("add", got) {
            phase.add.push(took);
            let after = seg.snapshot();
            let sealed = usize::from(after.buffer_len() < before.buffer_len() + BATCH);
            seals += sealed;
            compactions += (before.num_segments() + sealed).saturating_sub(after.num_segments());
            if sealed > 0 || after.num_segments() != before.num_segments() {
                seal_adds.push(took.as_secs_f64() * 1e3);
            }
            let first = twin.add(&rows).map_err(err)?;
            if (ids.first().copied(), ids.len()) != (Some(first as u32), BATCH) {
                return Err(format!(
                    "add assigned ids from {:?}, the twin from {first}",
                    ids.first()
                ));
            }
            oracle.push(&common::decoded_rows(&twin, first, first + BATCH), rows.as_slice());
        }

        let victim = picker.live_id(&oracle);
        let t = Instant::now();
        let got = ctx.tr.span("wal.delete", |_| seg.try_delete(victim));
        let took = t.elapsed();
        if let Some(killed) = ctx.ledger.record("delete", got) {
            deletes.push(took.as_secs_f64() * 1e6);
            let ok = if killed { Ok(()) } else { Err(format!("live id {victim} not deleted")) };
            ctx.ledger.check(ok, || format!("delete at step {step}"));
            oracle.delete(victim);
        }

        for strategy in [EXACT, SKIP] {
            let span = if strategy == EXACT { "engine.exact" } else { "engine.skip" };
            let q = oracle.query(qi);
            let t = Instant::now();
            let got = ctx.tr.span(span, |_| searcher.search_with(q, K, strategy));
            let got = got.map(|(answer, _)| answer);
            phase.query(&mut ctx.ledger, &oracle, qi, strategy, t.elapsed(), got);
            if strategy == SKIP {
                qi = (qi + 1) % POOL;
            }
        }

        if (step + 1) % CHECKPOINT_EVERY == 0 && step < intervals * CHECKPOINT_EVERY {
            wal_bytes += file_len(&wal_of(&path));
            let t = Instant::now();
            let got = ctx.tr.span("wal.checkpoint", |_| seg.checkpoint());
            let took = t.elapsed();
            if ctx.ledger.record("checkpoint", got).is_some() {
                checkpoints.push(took.as_secs_f64() * 1e3);
            }
        }
    }
    ctx.drain_degradations("ingest", Some("add"));
    wal_bytes += file_len(&wal_of(&path));
    phase.check_recall(&mut ctx.ledger);

    // Deterministic probe of the final state; its exact answers must
    // survive close and reopen.
    let mut probe = common::ProbeStats::default();
    let mut before_close = Vec::new();
    for pq in 0..POOL {
        for strategy in [EXACT, SKIP] {
            let got =
                ctx.ledger.record("probe", searcher.search_with(oracle.query(pq), K, strategy));
            let Some((answer, stats)) = got else { continue };
            if strategy == EXACT {
                probe.exact += stats;
                if pq < PROBES {
                    before_close.push(bits(&answer));
                }
            } else {
                probe.skip += stats;
            }
        }
        probe.queries += 1;
    }
    let shape = seg.snapshot();
    let (segments, buffer_rows) = (shape.num_segments(), shape.buffer_len());
    drop((shape, searcher, seg));
    let live = oracle.live_ids();
    let disk = file_len(&path) + file_len(&wal_of(&path));
    println!(
        "# ingest-durable: {steps} steps, {} live rows in {segments} segments + {buffer_rows} buffered; \
         {seals} seals, {compactions} compactions; {} tie swaps",
        live.len(),
        phase.tie_swaps()
    );

    let mut reopen = Vec::new();
    for r in 0..REOPENS {
        let q = oracle.query(r % PROBES);
        let t = Instant::now();
        let got =
            ctx.tr.span("persist.open", |_| SegmentedVaq::open_durable(&path)).and_then(|index| {
                let first =
                    ctx.tr.span("persist.first_query", |_| index.search_with(q, K, EXACT))?;
                Ok((index, first.0))
            });
        let took = t.elapsed();
        let Some((index, first)) = ctx.ledger.record("reopen", got) else { continue };
        reopen.push(took.as_secs_f64() * 1e3);
        let ok = if bits(&first) != before_close[r % PROBES] {
            Err("first answer changed".to_string())
        } else if index.live_ids() != live {
            Err("live ids differ from the ledger".to_string())
        } else {
            (0..PROBES).try_for_each(|p| match index.search_with(oracle.query(p), K, EXACT) {
                Ok((a, _)) if bits(&a) == before_close[p] => Ok(()),
                Ok(_) => Err(format!("probe {p} changed")),
                Err(e) => Err(format!("probe {p}: {e}")),
            })
        };
        ctx.ledger.check(ok, || format!("reopen {r}"));
    }
    ctx.drain_degradations("reopen", Some("reopen"));
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
    e2e.insert("index_bytes_per_row", disk as f64 / live.len().max(1) as f64);

    if ctx.tr.enabled() {
        let encode_block = rows_of(&ds.data, SAMPLE, SAMPLE + 4096);
        common::probe_layers(&mut ctx.tr, &twin, &ds.queries, &encode_block, &mut layers)
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
        layers.insert("wal.delete_p50_us", median(&deletes));
        layers.insert("wal.bytes_per_row", wal_bytes as f64 / (steps * BATCH) as f64);
        layers.insert("wal.checkpoint_ms", median(&checkpoints));
        layers.insert("persist.save_ms", span_median(tr, "persist.save", NS_TO_MS));
        layers.insert("persist.load_ms", span_median(tr, "persist.load", NS_TO_MS));
        layers.insert("persist.open_ms", span_median(tr, "persist.open", NS_TO_MS));
        layers.insert("persist.first_query_ms", span_median(tr, "persist.first_query", NS_TO_MS));
    }
    Ok(Outcome { e2e, layers })
}
