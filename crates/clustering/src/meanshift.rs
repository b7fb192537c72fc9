//! Mean Shift clustering (Fukunaga & Hostetler 1975) — the algorithm MOSAIC
//! uses to group trace segments that "share comparable duration and data
//! size" (§III-B3a). Clusters of size > 1 indicate periodic operations.
//!
//! The implementation is the classic mode-seeking procedure with a flat
//! kernel: every point repeatedly moves to the mean of the points within
//! the bandwidth `h` of it, and points whose ascents converge to the same
//! mode form one cluster. The flat kernel makes "comparable duration and
//! volume" a hard window, matching how the paper describes its empirically
//! set thresholds. It is exact (no binning or seeding heuristics) and
//! deterministic.
//!
//! # Grid-indexed neighbourhoods
//!
//! A step only needs the points within `h` of the current position.
//! [`MeanShift::fit`] keys every point by its uniform-grid cell
//! `floor(x / side)`, with `side = h · (1 + 2⁻²⁰)`, on the first step that
//! needs the grid. A step scans only the *block* of `3^D` cells around the
//! position's cell. Blocks are built lazily and memoized for the rest of
//! the fit, so a dense cluster's block is gathered once and then reused by
//! every ascent that passes through it. A step first tries the whole input
//! as one block; a fit in which that settles every step never builds the
//! grid.
//!
//! The result is bit-identical to the linear scan kept in [`reference`]:
//!
//! * **Complete.** After rounding, a point in range still lies within
//!   `h · (1 + 4ε)` of the position on every axis. The `2⁻²⁰` margin
//!   absorbs that and the rounding of `x / side` (keys are capped at `2³⁰`),
//!   so the two keys differ by at most one and the point is in the block.
//! * **Same order.** A block holds its points in ascending input order, and
//!   a step applies the scan's `d² > h²` test to them. The in-range points
//!   are therefore summed in the scan's order, with the same floating-point
//!   result.
//! * **Block certificate.** Floating-point subtract, square and add
//!   are monotone, so if the block's bounding-box corner farthest from the
//!   position is within `h²`, so is every block point. The step then
//!   returns the block's memoized mean, summed exactly as the scan sums
//!   it.
//! * **Whole-input certificate.** The whole input is one more block: its
//!   bounding box and mean, built once per fit in O(n). A step tries it
//!   before the grid. If the box corner farthest from the position is
//!   within `h²`, the scan's own `d² > h²` test keeps every point and sums
//!   them in input order, which is exactly how the block's mean was
//!   summed, so the step returns that mean. A single tight cluster settles
//!   every step this way and never keys or sorts its points. A step the
//!   certificate does not settle scans its grid block, or, when the input
//!   is not keyed, the whole input itself: below [`GRID_MIN_POINTS`]
//!   points, if a coordinate is not finite or too large to key, or if `h²`
//!   is not a normal float. That scan *is* the linear scan, NaN semantics
//!   included. A non-finite coordinate also leaves the whole input without
//!   a bounding box, which turns the certificate off.

use crate::point::{dist, dist2, Clustering};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Relative margin by which a grid cell's side exceeds the bandwidth
/// (2⁻²⁰): room for the rounding of distances and of `x / side`.
const CELL_MARGIN: f64 = 1.0 / 1_048_576.0;

/// Largest `|x / side|` a coordinate may have and still be keyed (2³⁰). The
/// rounding error of `x / side` then stays below 2⁻²³, far inside
/// [`CELL_MARGIN`], and `key ± 1` cannot overflow.
const MAX_KEY: f64 = 1_073_741_824.0;

/// Inputs with fewer points are not keyed: a step that the whole-input
/// certificate does not settle scans every point, which for a couple of
/// hundred points costs about as much as building the grid. Tight clusters
/// never reach the grid, so multi-cluster and scattered inputs set the
/// break-even. On 2-D inputs at `h = 0.15` (a 2-vCPU Intel Xeon), the grid
/// breaks even at about 45 points in three tight clusters and at about 130
/// scattered singletons, which it beats by under 25 % below ~700 points.
/// The cutoff stays at 256 because no fit of the `bluewaters_dir` or
/// `dense_periodic` benchmark workloads falls through the certificate
/// below it.
pub const GRID_MIN_POINTS: usize = 256;

/// Mean Shift configuration. Build with [`MeanShift::new`], then chain
/// setters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanShift {
    /// Kernel bandwidth `h` — the radius within which two segments count as
    /// "comparable".
    pub bandwidth: f64,
    /// Convergence threshold on the shift length, as a fraction of the
    /// bandwidth.
    pub tol: f64,
    /// Iteration cap per point (converges in a handful for real data).
    pub max_iter: usize,
    /// Two converged modes closer than `merge_frac · bandwidth` are fused.
    pub merge_frac: f64,
}

impl MeanShift {
    /// Mean Shift with the given bandwidth and default settings
    /// (`tol = 1e-3`, `max_iter = 300`, `merge_frac = 0.5`).
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        MeanShift { bandwidth, tol: 1e-3, max_iter: 300, merge_frac: 0.5 }
    }

    /// Set the convergence tolerance (fraction of bandwidth).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the iteration cap.
    pub fn max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Set the mode-merge radius (fraction of bandwidth).
    pub fn merge_frac(mut self, merge_frac: f64) -> Self {
        self.merge_frac = merge_frac;
        self
    }

    /// `h²`: the squared radius of a step's window.
    fn h2(&self) -> f64 {
        self.bandwidth * self.bandwidth
    }

    /// One mean-shift step from `pos` over the block around it: the mean
    /// of the points within `h`, or `None` if the neighbourhood is empty.
    fn step<const D: usize>(
        &self,
        pos: &[f64; D],
        (block, points): (&Block<D>, &[[f64; D]]),
    ) -> Option<[f64; D]> {
        let h2 = self.h2();
        if block.within(pos, h2) {
            return block.mean;
        }
        weighted_mean(points, |p| if dist2(pos, p) > h2 { None } else { Some(1.0) })
    }

    /// Run Mean Shift on `points`.
    ///
    /// Returns one label per point plus the converged mode of each cluster.
    /// Empty input yields an empty clustering.
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> Clustering<D> {
        let h2 = self.h2();
        let keyable = points.len() >= GRID_MIN_POINTS && h2.is_normal();
        let side = keyable.then_some(self.bandwidth * (1.0 + CELL_MARGIN));
        let whole = Block::new(points);
        let mut grid = None;
        self.ascend_and_fuse(points, |pos| {
            if whole.within(pos, h2) {
                return whole.mean;
            }
            let grid = grid.get_or_insert_with(|| Grid::new(points, &whole, side));
            self.step(pos, grid.block(pos))
        })
    }

    /// Mode-seek from every point with `step`, then fuse nearby modes into
    /// clusters. Shared by [`MeanShift::fit`] and [`reference::fit`], which
    /// differ only in how a step finds its neighbourhood.
    fn ascend_and_fuse<const D: usize>(
        &self,
        points: &[[f64; D]],
        mut step: impl FnMut(&[f64; D]) -> Option<[f64; D]>,
    ) -> Clustering<D> {
        if points.is_empty() {
            return Clustering { labels: Vec::new(), centers: Vec::new() };
        }
        let eps = self.tol * self.bandwidth;

        // Mode-seek from every point.
        let mut converged: Vec<[f64; D]> = Vec::with_capacity(points.len());
        for start in points {
            let mut pos = *start;
            for _ in 0..self.max_iter {
                let Some(next) = step(&pos) else { break };
                let moved = dist(&next, &pos);
                pos = next;
                if moved < eps {
                    break;
                }
            }
            converged.push(pos);
        }

        // Fuse modes closer than merge_frac · h; first-come order keeps the
        // procedure deterministic.
        let merge2 = (self.merge_frac * self.bandwidth).powi(2);
        let mut centers: Vec<[f64; D]> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut labels = Vec::with_capacity(points.len());
        for mode in &converged {
            let found = centers
                .iter_mut()
                .zip(counts.iter_mut())
                .enumerate()
                .find(|(_, (c, _))| dist2(mode, c) <= merge2);
            match found {
                Some((i, (center, count))) => {
                    // Running average keeps the fused mode centered.
                    let n = *count as f64;
                    for (c, m) in center.iter_mut().zip(mode) {
                        *c = (*c * n + m) / (n + 1.0);
                    }
                    *count += 1;
                    labels.push(i);
                }
                None => {
                    centers.push(*mode);
                    counts.push(1);
                    labels.push(centers.len() - 1);
                }
            }
        }
        Clustering { labels, centers }
    }
}

/// The mean of `points` weighted by `weight`, skipping points it maps to
/// `None`, or `None` if it skips them all. Every step, and every memoized
/// block mean, sums through this one function, so a certified step and a
/// scanned one perform the same floating-point operations.
#[inline]
fn weighted_mean<const D: usize>(
    points: &[[f64; D]],
    weight: impl Fn(&[f64; D]) -> Option<f64>,
) -> Option<[f64; D]> {
    let mut num = [0.0; D];
    let mut den = 0.0;
    for p in points {
        let Some(w) = weight(p) else { continue };
        for (n, &x) in num.iter_mut().zip(p) {
            *n += w * x;
        }
        den += w;
    }
    if den == 0.0 {
        return None;
    }
    for v in num.iter_mut() {
        *v /= den;
    }
    Some(num)
}

/// What the block certificate needs of one block: the points of the
/// `3^D` grid cells around one cell, or of the whole input.
struct Block<const D: usize> {
    /// Per-axis `(min, max)` of the points; `None` when the block is empty
    /// or holds a non-finite coordinate, which disables the certificate.
    bbox: Option<([f64; D], [f64; D])>,
    /// Mean of all the points.
    mean: Option<[f64; D]>,
}

impl<const D: usize> Block<D> {
    fn new(points: &[[f64; D]]) -> Self {
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        let mut finite = !points.is_empty();
        for p in points {
            for ((l, u), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
                finite &= x.is_finite();
                *l = l.min(x);
                *u = u.max(x);
            }
        }
        let mean = weighted_mean(points, |_| Some(1.0));
        Block { bbox: finite.then_some((lo, hi)), mean }
    }

    /// `true` when every block point is within `h2` of `pos` by the
    /// linear scan's own `dist2`: the bounding-box corner farthest from
    /// `pos` is, and `dist2` is monotone in each coordinate difference.
    fn within(&self, pos: &[f64; D], h2: f64) -> bool {
        let Some((lo, hi)) = &self.bbox else { return false };
        let mut far2 = 0.0;
        for ((&x, &l), &u) in pos.iter().zip(lo).zip(hi) {
            let (a, b) = (x - l, x - u);
            let d = if a.abs() >= b.abs() { a } else { b };
            far2 += d * d;
        }
        far2 <= h2
    }
}

/// The uniform grid of one fit, with its memoized blocks.
struct Grid<'a, const D: usize> {
    points: &'a [[f64; D]],
    /// Cell side, or `None` when the input is not keyed.
    side: Option<f64>,
    /// `(cell, input index)` of every point, sorted; empty without a side.
    cells: Vec<([i64; D], usize)>,
    /// The whole input as one block: the block of every position when the
    /// input is not keyed, and of a position that cannot be keyed.
    whole: &'a Block<D>,
    /// Index into `blocks` of each cell's block built so far.
    built: BTreeMap<[i64; D], usize>,
    /// Each built block with the span of its points in `arena`.
    blocks: Vec<(Block<D>, Range<usize>)>,
    /// Every built block's points in ascending input order, block after
    /// block.
    arena: Vec<[f64; D]>,
    /// Scratch for the input indices of the block being built.
    members: Vec<usize>,
}

impl<'a, const D: usize> Grid<'a, D> {
    /// Key every point by its cell of the given side. One unkeyable
    /// coordinate drops the side, making the whole input one block.
    fn new(points: &'a [[f64; D]], whole: &'a Block<D>, side: Option<f64>) -> Self {
        let cells: Option<Vec<([i64; D], usize)>> = side.and_then(|side| {
            points.iter().enumerate().map(|(i, p)| Some((cell_of(p, side)?, i))).collect()
        });
        let (side, mut cells) = match cells {
            Some(cells) => (side, cells),
            None => (None, Vec::new()),
        };
        cells.sort_unstable();
        Grid {
            points,
            side,
            cells,
            whole,
            built: BTreeMap::new(),
            blocks: Vec::new(),
            arena: Vec::new(),
            members: Vec::new(),
        }
    }

    /// The block around `pos` and its points: the `3^D` cells around its
    /// cell, or the whole input when `pos` (or the input) is not keyed.
    fn block(&mut self, pos: &[f64; D]) -> (&Block<D>, &[[f64; D]]) {
        let Grid { points, side, cells, whole, built, blocks, arena, members } = self;
        let Some(centre) = side.and_then(|side| cell_of(pos, side)) else {
            return (whole, points);
        };
        let at = *built.entry(centre).or_insert_with(|| {
            members.clear();
            gather(cells, &centre, members);
            members.sort_unstable();
            let start = arena.len();
            arena.extend(members.iter().filter_map(|&i| points.get(i)));
            let span = start..arena.len();
            blocks.push((Block::new(arena.get(span.clone()).unwrap_or_default()), span));
            blocks.len() - 1
        });
        #[expect(clippy::indexing_slicing, reason = "`built` only holds indices of pushed blocks")]
        let (block, span) = &blocks[at];
        (block, arena.get(span.clone()).unwrap_or_default())
    }
}

/// The grid cell of `x`, or `None` when a coordinate is not finite or
/// `|x / side|` exceeds [`MAX_KEY`].
fn cell_of<const D: usize>(x: &[f64; D], side: f64) -> Option<[i64; D]> {
    let mut cell = [0i64; D];
    for (c, &v) in cell.iter_mut().zip(x) {
        let q = (v / side).floor();
        if !q.is_finite() || q.abs() > MAX_KEY {
            return None;
        }
        // Exact: q is an integer with |q| <= 2^30.
        *c = q as i64;
    }
    Some(cell)
}

/// Push the input indices of the points in the `3^D` cells around `centre`
/// onto `members`. `cells` is sorted, so for each offset of the first
/// `D - 1` axes the three cells along the last axis form one run.
fn gather<const D: usize>(
    cells: &[([i64; D], usize)],
    centre: &[i64; D],
    members: &mut Vec<usize>,
) {
    for code in 0..3usize.pow(D.saturating_sub(1) as u32) {
        // Digit k of `code` (base 3) moves axis k by -1, 0 or +1.
        let (mut lo, mut hi) = (*centre, *centre);
        let mut digits = code;
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()).take(D.saturating_sub(1)) {
            let offset = (digits % 3) as i64 - 1;
            *l += offset;
            *h += offset;
            digits /= 3;
        }
        if let (Some(l), Some(h)) = (lo.last_mut(), hi.last_mut()) {
            *l -= 1;
            *h += 1;
        }
        let from = cells.partition_point(|(k, _)| *k < lo);
        let run = cells.get(from..).unwrap_or_default().iter().take_while(|(k, _)| *k <= hi);
        members.extend(run.map(|&(_, i)| i));
    }
}

/// The obviously-correct linear-scan Mean Shift: every step scans every
/// point, `O(n² · iterations)`. It is the reference that the
/// `meanshift-vs-reference` differential oracle and the clustering property
/// tests hold [`MeanShift::fit`] to, bit for bit. Production code never
/// calls it.
pub mod reference {
    use super::MeanShift;
    use crate::point::{dist2, Clustering};

    /// Run `ms` on `points`, every step a full linear scan.
    pub fn fit<const D: usize>(ms: &MeanShift, points: &[[f64; D]]) -> Clustering<D> {
        ms.ascend_and_fuse(points, |pos| step(ms, pos, points))
    }

    /// One mean-shift step from `pos`: the mean of the points within the
    /// bandwidth, or `None` if the neighbourhood is empty.
    fn step<const D: usize>(
        ms: &MeanShift,
        pos: &[f64; D],
        points: &[[f64; D]],
    ) -> Option<[f64; D]> {
        let h2 = ms.bandwidth * ms.bandwidth;
        let mut num = [0.0; D];
        let mut den = 0.0;
        for p in points {
            if dist2(pos, p) > h2 {
                continue;
            }
            for (n, x) in num.iter_mut().zip(p) {
                *n += x;
            }
            den += 1.0;
        }
        if den == 0.0 {
            return None;
        }
        for v in num.iter_mut() {
            *v /= den;
        }
        Some(num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..10 {
            let o = i as f64 * 0.01;
            pts.push([1.0 + o, 2.0 - o]);
            pts.push([10.0 - o, 20.0 + o]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs_flat() {
        let c = MeanShift::new(1.0).fit(&two_blobs());
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.cluster_sizes(), vec![10, 10]);
        // Modes land near blob centers.
        assert!(dist(&c.centers[0], &[1.045, 1.955]) < 0.1);
        assert!(dist(&c.centers[1], &[9.955, 20.045]) < 0.1);
    }

    #[test]
    fn singletons_remain_singletons() {
        let pts: Vec<[f64; 1]> = vec![[0.0], [100.0], [250.0]];
        let c = MeanShift::new(1.0).fit(&pts);
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.cluster_sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn one_big_bandwidth_gives_one_cluster() {
        let c = MeanShift::new(1000.0).fit(&two_blobs());
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.cluster_sizes(), vec![20]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<[f64; 2]> = Vec::new();
        let c = MeanShift::new(1.0).fit(&empty);
        assert_eq!(c.n_clusters(), 0);
        assert!(c.labels.is_empty());

        let single = vec![[3.0, 4.0]];
        let c = MeanShift::new(1.0).fit(&single);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.labels, vec![0]);
        assert_eq!(c.centers[0], [3.0, 4.0]);
    }

    #[test]
    fn identical_points_collapse_to_one_mode() {
        let pts = vec![[5.0, 5.0]; 50];
        let c = MeanShift::new(0.1).fit(&pts);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.cluster_sizes(), vec![50]);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = two_blobs();
        let ms = MeanShift::new(1.0);
        assert_eq!(ms.fit(&pts), ms.fit(&pts));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = MeanShift::new(0.0);
    }

    #[test]
    fn three_periodic_groups_plus_noise() {
        // Emulates the paper's scenario: checkpoint writes (long segments,
        // big volume), periodic reads (short segments, small volume), and a
        // couple of one-off operations.
        let mut pts: Vec<[f64; 2]> = Vec::new();
        for i in 0..20 {
            pts.push([60.0 + (i % 3) as f64 * 0.2, 8.0 + (i % 2) as f64 * 0.1]);
        }
        for i in 0..15 {
            pts.push([5.0 + (i % 4) as f64 * 0.05, 2.0]);
        }
        pts.push([300.0, 12.0]);
        pts.push([1500.0, 1.0]);
        let c = MeanShift::new(2.0).fit(&pts);
        let sizes = c.cluster_sizes();
        let periodic: Vec<_> = sizes.iter().filter(|&&s| s > 1).collect();
        assert_eq!(periodic.len(), 2, "sizes: {sizes:?}");
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 2);
    }
}
