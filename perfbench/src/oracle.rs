//! Answer checks computed apart from the program.
//!
//! Two brute-force references are kept for a fixed pool of queries:
//!
//! - the exact ADC ranking: f64 distances from the query projected with
//!   `Vaq::project_query` to every live row's code decoded with
//!   `Encoder::decode`;
//! - the float 10-NN: f64 distances over the raw vectors, for recall.
//!
//! The index only grows at the end and loses rows by id, so each pool
//! query keeps the best few rows of both rankings and is updated as rows
//! are added and deleted; a list that deletes have thinned below what the
//! checks need is rebuilt from every live row. The oracle's `live` flags
//! double as the ledger of acknowledged adds and deletes.

use vaq_core::Neighbor;

/// Neighbours asked for by every query.
pub const K: usize = 10;
/// Entries kept per query in the ADC ranking: enough to see ties at the
/// K-th distance and to absorb a few deletes before a rebuild.
const ADC_KEEP: usize = 32;
const GT_KEEP: usize = 16;
/// Distances the program reports (unsquared f32, summed from f32 tables)
/// may differ from the f64 reference by this much, relative.
const REL_TOL: f64 = 1e-4;
const ABS_TOL: f64 = 1e-6;
/// Rows per block of the brute-force scans: the block stays in cache while
/// every pool query reads it.
const SCAN_BLOCK: usize = 512;

fn tol(d: f64) -> f64 {
    REL_TOL * d + ABS_TOL
}

#[inline(always)]
fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = [0f64; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for l in 0..8 {
            let d = f64::from(x[l]) - f64::from(y[l]);
            acc[l] += d * d;
        }
    }
    let mut s: f64 = acc.iter().sum();
    for (x, y) in ra.iter().zip(rb) {
        let d = f64::from(*x) - f64::from(*y);
        s += d * d;
    }
    s
}

/// The best rows of one ranking, ascending by (squared distance, id).
/// Invariant: `items` is exactly the best `items.len()` live rows.
#[derive(Debug, Clone)]
struct Best {
    keep: usize,
    items: Vec<(f64, u32)>,
    /// No row has ever been cut from the list, so it holds every live row.
    complete: bool,
}

impl Best {
    fn new(keep: usize) -> Best {
        Best { keep, items: Vec::with_capacity(keep + 1), complete: true }
    }

    fn offer(&mut self, d: f64, id: u32) {
        let beats_last = self.items.last().is_none_or(|&(ld, lid)| (d, id) < (ld, lid));
        if !(self.complete || beats_last) {
            return;
        }
        let pos = self.items.partition_point(|&e| e < (d, id));
        self.items.insert(pos, (d, id));
        if self.items.len() > self.keep {
            self.items.pop();
            self.complete = false;
        }
    }

    fn remove(&mut self, id: u32) {
        self.items.retain(|&(_, i)| i != id);
    }
}

/// The row arrays a scan reads.
struct Rows<'a> {
    decoded: &'a [f32],
    raw: &'a [f32],
    live: &'a [bool],
    pd: usize,
    rd: usize,
}

#[inline(always)]
fn scan_rows(rows: &Rows<'_>, queries: &mut [PoolQuery], lo: usize, hi: usize) {
    let (pd, rd) = (rows.pd, rows.rd);
    let mut start = lo;
    while start < hi {
        let end = (start + SCAN_BLOCK).min(hi);
        for q in queries.iter_mut() {
            for id in start..end {
                if !rows.live[id] {
                    continue;
                }
                let d = sq_dist(&q.proj, &rows.decoded[id * pd..(id + 1) * pd]);
                q.adc.offer(d, id as u32);
                let g = sq_dist(&q.raw, &rows.raw[id * rd..(id + 1) * rd]);
                q.gt.offer(g, id as u32);
            }
        }
        start = end;
    }
}

/// [`scan_rows`] compiled for AVX2: the same f64 arithmetic in wider
/// registers (no fused multiply-add, so results match the portable path).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(rows: &Rows<'_>, queries: &mut [PoolQuery], lo: usize, hi: usize) {
    scan_rows(rows, queries, lo, hi);
}

#[derive(Debug, Clone)]
struct PoolQuery {
    raw: Vec<f32>,
    proj: Vec<f32>,
    adc: Best,
    gt: Best,
}

/// Outcome of one checked answer: recall hits against the float 10-NN,
/// and (exact answers) the hits of the oracle's own top-K.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub hits: usize,
    pub oracle_hits: usize,
    /// The answer differs from the oracle's top-K only by rows tied (within
    /// tolerance) at the K-th distance.
    pub tie_swap: bool,
}

#[derive(Debug)]
pub struct Oracle {
    proj_dim: usize,
    raw_dim: usize,
    decoded: Vec<f32>,
    raw: Vec<f32>,
    live: Vec<bool>,
    live_count: usize,
    queries: Vec<PoolQuery>,
}

impl Oracle {
    /// `queries` holds each pool query as (raw vector, projected vector).
    pub fn new(proj_dim: usize, raw_dim: usize, queries: Vec<(Vec<f32>, Vec<f32>)>) -> Oracle {
        let queries = queries
            .into_iter()
            .map(|(raw, proj)| PoolQuery {
                raw,
                proj,
                adc: Best::new(ADC_KEEP),
                gt: Best::new(GT_KEEP),
            })
            .collect();
        Oracle {
            proj_dim,
            raw_dim,
            decoded: Vec::new(),
            raw: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            queries,
        }
    }

    pub fn query(&self, qi: usize) -> &[f32] {
        &self.queries[qi].raw
    }

    /// Rows acknowledged so far (live or deleted); the next id assigned.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// Ids of every live row, ascending: the ledger.
    pub fn live_ids(&self) -> Vec<u32> {
        (0..self.live.len()).filter(|&i| self.live[i]).map(|i| i as u32).collect()
    }

    /// Appends rows under the next ids: their decoded codes (projected
    /// space) and raw vectors, both row-major.
    pub fn push(&mut self, decoded: &[f32], raw: &[f32]) {
        let first = self.live.len();
        let rows = raw.len() / self.raw_dim;
        assert_eq!(decoded.len(), rows * self.proj_dim, "decoded rows disagree with raw rows");
        self.decoded.extend_from_slice(decoded);
        self.raw.extend_from_slice(raw);
        self.live.resize(first + rows, true);
        self.live_count += rows;
        self.scan(first, first + rows, None);
    }

    pub fn delete(&mut self, id: u32) {
        let Some(flag) = self.live.get_mut(id as usize) else { return };
        if !std::mem::replace(flag, false) {
            return;
        }
        self.live_count -= 1;
        let mut thin = Vec::new();
        for (qi, q) in self.queries.iter_mut().enumerate() {
            q.adc.remove(id);
            q.gt.remove(id);
            let short = |b: &Best| !b.complete && b.items.len() < K + 2;
            if short(&q.adc) || short(&q.gt) {
                thin.push(qi);
            }
        }
        for qi in thin {
            let q = &mut self.queries[qi];
            q.adc = Best::new(ADC_KEEP);
            q.gt = Best::new(GT_KEEP);
            self.scan(0, self.live.len(), Some(qi));
        }
    }

    /// Offers rows `lo..hi` to every pool query (or to query `only`).
    fn scan(&mut self, lo: usize, hi: usize, only: Option<usize>) {
        let range = match only {
            Some(qi) => qi..qi + 1,
            None => 0..self.queries.len(),
        };
        let rows = Rows {
            decoded: &self.decoded,
            raw: &self.raw,
            live: &self.live,
            pd: self.proj_dim,
            rd: self.raw_dim,
        };
        let queries = &mut self.queries[range];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            unsafe { scan_avx2(&rows, queries, lo, hi) };
            return;
        }
        scan_rows(&rows, queries, lo, hi);
    }

    /// Reference ADC distance (unsquared) from pool query `qi` to row `id`.
    pub fn adc_distance(&self, qi: usize, id: u32) -> f64 {
        let pd = self.proj_dim;
        let id = id as usize;
        sq_dist(&self.queries[qi].proj, &self.decoded[id * pd..(id + 1) * pd]).sqrt()
    }

    fn gt_hits(&self, qi: usize, ids: impl Iterator<Item = u32>) -> usize {
        let gt = &self.queries[qi].gt.items;
        let top = &gt[..K.min(gt.len())];
        ids.filter(|id| top.iter().any(|&(_, g)| g == *id)).count()
    }

    /// Every answer row is live and unique, carries the reference distance
    /// of its id, and the answer is ascending.
    fn check_rows(&self, qi: usize, answer: &[Neighbor]) -> Result<(), String> {
        let mut prev = f32::NEG_INFINITY;
        for (pos, n) in answer.iter().enumerate() {
            if !self.is_live(n.index) {
                return Err(format!("rank {pos}: id {} is not a live row", n.index));
            }
            if answer[..pos].iter().any(|m| m.index == n.index) {
                return Err(format!("rank {pos}: id {} returned twice", n.index));
            }
            let od = self.adc_distance(qi, n.index);
            if (f64::from(n.distance) - od).abs() > tol(od) {
                return Err(format!(
                    "rank {pos}: id {} at distance {} but the ADC reference says {od}",
                    n.index, n.distance
                ));
            }
            if n.distance < prev {
                return Err(format!("rank {pos}: distances not ascending"));
            }
            prev = n.distance;
        }
        Ok(())
    }

    /// Checks an exact (`Quantized`) answer: it must be the reference's
    /// top-K, except that rows tied within tolerance at the K-th distance
    /// may stand in for one another.
    pub fn check_exact(&self, qi: usize, answer: &[Neighbor]) -> Result<Checked, String> {
        let want = K.min(self.live_count);
        if answer.len() != want {
            return Err(format!("{} answers, expected {want}", answer.len()));
        }
        self.check_rows(qi, answer)?;
        let best = &self.queries[qi].adc.items;
        if best.len() < want {
            return Err(format!("oracle holds {} rows, needs {want}", best.len()));
        }
        let dk = best[want - 1].0.sqrt();
        for &(d, id) in best {
            if d.sqrt() < dk - tol(dk) && !answer.iter().any(|n| n.index == id) {
                return Err(format!("missing id {id} at reference distance {}", d.sqrt()));
            }
        }
        for n in answer {
            let od = self.adc_distance(qi, n.index);
            if od > dk + tol(dk) {
                return Err(format!(
                    "id {} at {od} lies beyond the reference top-{K} ({dk})",
                    n.index
                ));
            }
        }
        let top = &best[..want];
        let same = top.iter().all(|&(_, id)| answer.iter().any(|n| n.index == id));
        Ok(Checked {
            hits: self.gt_hits(qi, answer.iter().map(|n| n.index)),
            oracle_hits: self.gt_hits(qi, top.iter().map(|&(_, id)| id)),
            tie_swap: !same,
        })
    }

    /// Checks an approximate (skip) answer: right distances for its ids,
    /// ascending, live and unique rows.
    pub fn check_skip(&self, qi: usize, answer: &[Neighbor]) -> Result<Checked, String> {
        if answer.len() > K {
            return Err(format!("{} answers for k = {K}", answer.len()));
        }
        self.check_rows(qi, answer)?;
        Ok(Checked { hits: self.gt_hits(qi, answer.iter().map(|n| n.index)), ..Checked::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(rows: &[[f32; 2]]) -> Oracle {
        let q = vec![(vec![0.0, 0.0], vec![0.0, 0.0])];
        let mut o = Oracle::new(2, 2, q);
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        o.push(&flat, &flat);
        o
    }

    fn answer(o: &Oracle, ids: &[u32]) -> Vec<Neighbor> {
        ids.iter().map(|&i| Neighbor { index: i, distance: o.adc_distance(0, i) as f32 }).collect()
    }

    #[test]
    fn exact_answer_must_be_the_reference_top_k() {
        let rows: Vec<[f32; 2]> = (0..40).map(|i| [i as f32, 0.0]).collect();
        let mut o = oracle(&rows);
        let ids: Vec<u32> = (0..10).collect();
        let c = o.check_exact(0, &answer(&o, &ids)).unwrap();
        assert!(!c.tie_swap);
        assert_eq!(c.hits, 10);
        let mut wrong = ids.clone();
        wrong[9] = 11;
        assert!(o.check_exact(0, &answer(&o, &wrong)).is_err());
        o.delete(3);
        assert!(o.check_exact(0, &answer(&o, &ids)).is_err());
        let after: Vec<u32> = (0..11).filter(|&i| i != 3).collect();
        assert!(o.check_exact(0, &answer(&o, &after)).is_ok());
    }

    #[test]
    fn ties_at_the_kth_distance_may_swap() {
        let mut rows: Vec<[f32; 2]> = (0..9).map(|i| [i as f32, 0.0]).collect();
        rows.push([9.0, 0.0]);
        rows.push([0.0, 9.0]);
        rows.extend((0..20).map(|i| [50.0 + i as f32, 0.0]));
        let o = oracle(&rows);
        let mut ids: Vec<u32> = (0..9).collect();
        ids.push(10);
        assert!(o.check_exact(0, &answer(&o, &ids)).unwrap().tie_swap);
    }

    #[test]
    fn deletes_rebuild_thinned_lists() {
        let rows: Vec<[f32; 2]> = (0..100).map(|i| [i as f32, 0.0]).collect();
        let mut o = oracle(&rows);
        for id in 0..30 {
            o.delete(id);
        }
        let ids: Vec<u32> = (30..40).collect();
        assert!(o.check_exact(0, &answer(&o, &ids)).is_ok());
        assert_eq!(o.live_ids().len(), 70);
    }
}
