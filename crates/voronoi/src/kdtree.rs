//! A 2-d kd-tree for nearest-neighbour and weighted nearest-dominator
//! queries.
//!
//! Used as the `O(log n)` proximity dispatch of the point-location data
//! structure (Theorem 3): given a query point, only the nearest station
//! can possibly be heard (Observation 2.2), and the kd-tree finds it
//! without the naive linear scan. For *non-uniform* power assignments
//! the analogous dispatch (Kantor–Lotker–Parter–Peleg) is a weighted
//! Voronoi — power-diagram — cell lookup: the only station that can be
//! heard at `p` is the one maximising `Pᵢ · att(d²(p, sᵢ))`.
//! [`KdTree::build_weighted`] + [`KdTree::strongest_mapped`] answer that
//! argmax exactly by best-first branch-and-bound over per-subtree
//! `(bbox, max weight)` aggregates.
//!
//! The same aggregates carry each subtree's **live weight sum**, kept
//! exact under [`KdTree::tombstone`], so [`KdTree::live_energy_bracket`]
//! can bracket the total received energy `Σ wᵢ · att(d²(p, sᵢ))` at a
//! query point without visiting every site: a subtree whose box is far
//! from `p` relative to its extent contributes one certified envelope
//! of its summed weight (energy is linear in weight and monotone in
//! distance), nearby sites contribute exactly.

use sinr_geometry::Point;

/// A static 2-d kd-tree over a set of sites.
///
/// Construction is `O(n log n)` by median splitting; nearest-neighbour
/// queries run in expected `O(log n)` for well-distributed sites (worst
/// case `O(n)`, as for all kd-trees).
///
/// # Examples
///
/// ```
/// use sinr_geometry::Point;
/// use sinr_voronoi::KdTree;
///
/// let tree = KdTree::build(vec![
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 5.0),
///     Point::new(-3.0, 4.0),
/// ]);
/// let (idx, dist) = tree.nearest(Point::new(4.5, 4.5)).unwrap();
/// assert_eq!(idx, 1);
/// assert!(dist < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Site positions in original order.
    sites: Vec<Point>,
    /// Tree nodes; `nodes[0]` is the root (when non-empty).
    nodes: Vec<Node>,
    /// Per-site weights (transmit powers), parallel to `sites`. Empty
    /// for trees built with [`KdTree::build`]; populated by
    /// [`KdTree::build_weighted`].
    weights: Vec<f64>,
    /// Per-node subtree aggregates, parallel to `nodes` (weighted trees
    /// only): the bounding box of every site in the subtree, the
    /// maximum weight found there — the branch-and-bound data of
    /// [`KdTree::strongest_mapped`] — and the live weight sum of
    /// [`KdTree::live_energy_bracket`]. Box and maximum weight cover
    /// *all* slots, tombstoned or not, so mapped pruning stays
    /// conservative; the live sum covers only slots not yet
    /// [tombstoned](KdTree::tombstone).
    agg: Vec<SubtreeAgg>,
    /// Per-site liveness for the live sums (weighted trees only).
    live: Vec<bool>,
    /// Site → index of the node holding it (weighted trees only).
    node_of: Vec<usize>,
    /// Each node's site coordinates and live weight (its weight, or 0
    /// once tombstoned), in node order (weighted trees only). Nodes are
    /// laid out in preorder, so every subtree is one contiguous node
    /// range — [`KdTree::live_energy_bracket`] sums small subtrees as
    /// one branch-free pass over these columns.
    node_xs: Vec<f64>,
    node_ys: Vec<f64>,
    node_live_w: Vec<f64>,
    /// Each node's site weight, live or not, in node order (weighted
    /// trees only) — the strength column of
    /// [`KdTree::select_with_bracket`].
    node_w: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index into `sites`.
    site: usize,
    /// Split axis: 0 = x, 1 = y.
    axis: u8,
    /// Left child index in `nodes`, `usize::MAX` for none.
    left: usize,
    /// Right child index in `nodes`, `usize::MAX` for none.
    right: usize,
    /// Parent index in `nodes`, `usize::MAX` for the root.
    parent: usize,
}

#[derive(Debug, Clone, Copy)]
struct SubtreeAgg {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    max_w: f64,
    /// Sum of the weights of the subtree's live sites, always computed
    /// as `own + left + right` in that order — a fresh bottom-up sum
    /// over the live set, never a running difference.
    live_w: f64,
    /// One past the subtree's last node: nodes are in preorder, so the
    /// subtree of node `i` is exactly the node range `i..end`.
    end: usize,
}

impl SubtreeAgg {
    /// Squared distance from `q` to this subtree's bounding box (zero
    /// when `q` lies inside it). For non-finite `q` the `max(0.0)`
    /// clamps turn NaN components into zero, so a NaN query is never
    /// pruned — the search degenerates to a full visit, as it must.
    fn min_dist_sq(&self, q: Point) -> f64 {
        let dx = (self.min_x - q.x).max(0.0).max(q.x - self.max_x);
        let dy = (self.min_y - q.y).max(0.0).max(q.y - self.max_y);
        dx * dx + dy * dy
    }

    /// Squared distance from `q` to the farthest corner of the box.
    fn max_dist_sq(&self, q: Point) -> f64 {
        let dx = (q.x - self.min_x).max(self.max_x - q.x);
        let dy = (q.y - self.min_y).max(self.max_y - q.y);
        dx * dx + dy * dy
    }

    /// Squared diagonal of the box.
    fn extent_sq(&self) -> f64 {
        let dx = self.max_x - self.min_x;
        let dy = self.max_y - self.min_y;
        dx * dx + dy * dy
    }
}

/// A bracket of the live weighted energy `Σ wᵢ · att(d²(q, sᵢ))` at one
/// query point, as returned by [`KdTree::live_energy_bracket`]: the
/// total lies in `[exact + far_lo, exact + far_hi]` up to the rounding
/// of the sums themselves (which callers absorb with their own margin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBracket {
    /// Sum of the exactly evaluated site energies `att(d²) · w`.
    pub exact: f64,
    /// Sum of the far subtrees' envelope bottoms.
    pub far_lo: f64,
    /// Sum of the far subtrees' envelope tops.
    pub far_hi: f64,
}

/// The dispatch rule of [`KdTree::select_with_bracket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominator {
    /// The nearest site, as [`KdTree::nearest_mapped`].
    Nearest,
    /// The site maximising `weight · att(d²)`, as
    /// [`KdTree::strongest_mapped`].
    Strongest,
}

/// What the bracket walk reports besides its sums: each exactly
/// evaluated node (`a = att(d²)`) and each enveloped far subtree.
trait SiteSink {
    fn site(&mut self, tree: &KdTree, node: usize, d2: f64, a: f64);
    fn far(&mut self, node: usize);
}

/// The plain bracket reports nowhere.
impl SiteSink for () {
    #[inline(always)]
    fn site(&mut self, _: &KdTree, _: usize, _: f64, _: f64) {}
    #[inline(always)]
    fn far(&mut self, _: usize) {}
}

/// Far subtrees [`KdTree::select_with_bracket`] lists for its follow-up
/// searches; a walk enveloping more falls back to one search of the
/// whole tree.
const FAR_CAP: usize = 64;

/// The selection state of [`KdTree::select_with_bracket`]: the best
/// candidate among exactly evaluated sites, `(label, d², strength)`,
/// and the far subtrees still to search.
struct Selection<'m, F> {
    rule: Dominator,
    map: &'m F,
    best: Option<(usize, f64, f64)>,
    far: [usize; FAR_CAP],
    n_far: usize,
}

impl<F: Fn(usize) -> Option<usize>> SiteSink for Selection<'_, F> {
    #[inline]
    fn site(&mut self, tree: &KdTree, node: usize, d2: f64, a: f64) {
        // The comparisons of `search_mapped` / `search_strongest`, with
        // the label lookup deferred until a site could win.
        match self.rule {
            Dominator::Nearest => {
                if self.best.is_none_or(|(_, bd, _)| d2 <= bd) {
                    if let Some(label) = (self.map)(tree.nodes[node].site) {
                        let better = match self.best {
                            None => true,
                            Some((bl, bd, _)) => d2 < bd || (d2 == bd && label < bl),
                        };
                        if better {
                            self.best = Some((label, d2, 0.0));
                        }
                    }
                }
            }
            Dominator::Strongest => {
                let strength = a * tree.node_w[node];
                if self.best.is_none_or(|(_, _, bs)| strength >= bs) {
                    if let Some(label) = (self.map)(tree.nodes[node].site) {
                        let better = match self.best {
                            None => true,
                            Some((bl, _, bs)) => strength > bs || (strength == bs && label < bl),
                        };
                        if better {
                            self.best = Some((label, d2, strength));
                        }
                    }
                }
            }
        }
    }

    #[inline]
    fn far(&mut self, node: usize) {
        if self.n_far < FAR_CAP {
            self.far[self.n_far] = node;
        }
        self.n_far += 1;
    }
}

const NONE: usize = usize::MAX;

/// Subtrees of at most this many sites are summed exactly by
/// [`KdTree::live_energy_bracket`] in one pass over their contiguous
/// node range: near the query point a walk would open them anyway, and
/// far from it a few exact terms cost no more than an envelope.
const EXACT_RUN: usize = 8;

/// Relative slack on the branch-and-bound upper bound of
/// [`KdTree::strongest_mapped`]: `att` is only *mathematically*
/// monotone in `d²`; its floating-point realisation (e.g.
/// `powf(-α/2)`) may wobble by an ulp across nearby arguments. Widening
/// the bound by one part in 10¹² keeps pruning sound against that
/// wobble without costing measurable extra visits.
const STRONGEST_BOUND_SLACK: f64 = 1e-12;

impl KdTree {
    /// Builds a kd-tree over the given sites (kept in original index
    /// order for stable identification).
    pub fn build(sites: Vec<Point>) -> Self {
        let mut order: Vec<usize> = (0..sites.len()).collect();
        let mut nodes = Vec::with_capacity(sites.len());
        if !sites.is_empty() {
            build_rec(&sites, &mut order[..], 0, NONE, &mut nodes);
        }
        KdTree {
            sites,
            nodes,
            weights: Vec::new(),
            agg: Vec::new(),
            live: Vec::new(),
            node_of: Vec::new(),
            node_xs: Vec::new(),
            node_ys: Vec::new(),
            node_live_w: Vec::new(),
            node_w: Vec::new(),
        }
    }

    /// Builds a kd-tree with a positive weight (transmit power) per
    /// site, enabling [`KdTree::strongest_mapped`] and
    /// [`KdTree::live_energy_bracket`]. The tree shape is identical to
    /// [`KdTree::build`] over the same sites — weights only add
    /// per-subtree `(bbox, max weight, live weight sum)` aggregates,
    /// computed in one reverse pass (children are pushed after their
    /// parent, so child aggregates are always ready first). Every site
    /// starts live.
    ///
    /// # Panics
    ///
    /// When `weights.len() != sites.len()`.
    pub fn build_weighted(sites: Vec<Point>, weights: Vec<f64>) -> Self {
        assert_eq!(
            sites.len(),
            weights.len(),
            "one weight per site ({} sites, {} weights)",
            sites.len(),
            weights.len()
        );
        let mut tree = KdTree::build(sites);
        tree.weights = weights;
        tree.agg = vec![
            SubtreeAgg {
                min_x: f64::INFINITY,
                min_y: f64::INFINITY,
                max_x: f64::NEG_INFINITY,
                max_y: f64::NEG_INFINITY,
                max_w: 0.0,
                live_w: 0.0,
                end: 0,
            };
            tree.nodes.len()
        ];
        tree.live = vec![true; tree.sites.len()];
        tree.node_of = vec![NONE; tree.sites.len()];
        tree.node_xs = tree.nodes.iter().map(|n| tree.sites[n.site].x).collect();
        tree.node_ys = tree.nodes.iter().map(|n| tree.sites[n.site].y).collect();
        tree.node_live_w = tree.nodes.iter().map(|n| tree.weights[n.site]).collect();
        tree.node_w = tree.node_live_w.clone();
        for i in (0..tree.nodes.len()).rev() {
            let node = tree.nodes[i];
            tree.node_of[node.site] = i;
            let site = tree.sites[node.site];
            let mut a = SubtreeAgg {
                min_x: site.x,
                min_y: site.y,
                max_x: site.x,
                max_y: site.y,
                max_w: 0.0,
                live_w: 0.0,
                end: i + 1,
            };
            for child in [node.left, node.right] {
                if child != NONE {
                    let c = tree.agg[child];
                    a.min_x = a.min_x.min(c.min_x);
                    a.min_y = a.min_y.min(c.min_y);
                    a.max_x = a.max_x.max(c.max_x);
                    a.max_y = a.max_y.max(c.max_y);
                    a.end = a.end.max(c.end);
                }
            }
            tree.agg[i] = a;
            tree.refresh_weights(i);
        }
        tree
    }

    /// Recomputes node `i`'s weight aggregates — maximum weight over all
    /// slots, live weight sum over live slots — from its own site and
    /// its children's aggregates (the box never changes).
    fn refresh_weights(&mut self, i: usize) {
        let node = self.nodes[i];
        let w = self.weights[node.site];
        let mut max_w = w;
        let mut live_w = if self.live[node.site] { w } else { 0.0 };
        self.node_w[i] = w;
        self.node_live_w[i] = live_w;
        for child in [node.left, node.right] {
            if child != NONE {
                max_w = max_w.max(self.agg[child].max_w);
                live_w += self.agg[child].live_w;
            }
        }
        self.agg[i].max_w = max_w;
        self.agg[i].live_w = live_w;
    }

    /// Refreshes the weight aggregates on the path from `site`'s node to
    /// the root.
    fn refresh_path(&mut self, site: usize) {
        let mut i = self.node_of[site];
        while i != NONE {
            self.refresh_weights(i);
            i = self.nodes[i].parent;
        }
    }

    /// Marks `site` dead for the live weight sums of a
    /// [weighted](KdTree::build_weighted) tree: its weight leaves the
    /// sum of every subtree containing it, updated by walking parent
    /// links from its node to the root — `O(depth)`. Each sum on the
    /// path is recomputed from its children rather than decremented, so
    /// after any sequence of tombstones and
    /// [re-weights](KdTree::set_weight) the sums equal a fresh
    /// bottom-up summation over the live sites — no cancellation drift.
    /// Boxes and maximum weights keep counting the dead site (both stay
    /// conservative for [`KdTree::strongest_mapped`]). Tombstoning a
    /// dead site, or any site of an unweighted tree, is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn tombstone(&mut self, site: usize) {
        assert!(site < self.sites.len(), "site {site} out of range");
        if self.agg.is_empty() || !self.live[site] {
            return;
        }
        self.live[site] = false;
        self.refresh_path(site);
    }

    /// Re-weights `site` of a [weighted](KdTree::build_weighted) tree in
    /// place: the maximum-weight and live-sum aggregates of every
    /// subtree containing it are recomputed on the way to the root —
    /// `O(depth)` — so [`KdTree::strongest_mapped`] and
    /// [`KdTree::live_energy_bracket`] see exactly the new weight. The
    /// tree shape depends only on positions, so it stays valid.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or the tree is unweighted.
    pub fn set_weight(&mut self, site: usize, weight: f64) {
        assert!(site < self.sites.len(), "site {site} out of range");
        assert!(!self.agg.is_empty(), "set_weight needs a weighted tree");
        self.weights[site] = weight;
        self.refresh_path(site);
    }

    /// True when `site` has not been [tombstoned](KdTree::tombstone)
    /// (always true for unweighted trees).
    #[cfg(test)]
    fn is_live(&self, site: usize) -> bool {
        self.live.get(site).copied().unwrap_or(true)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the tree holds no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site positions.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// The per-site weights, parallel to [`KdTree::sites`] — empty for
    /// trees built with [`KdTree::build`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The nearest site to `q`: returns `(site_index, distance)`, or
    /// `None` for an empty tree.
    pub fn nearest(&self, q: Point) -> Option<(usize, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best = (NONE, f64::INFINITY);
        self.search(0, q, &mut best);
        Some((best.0, best.1.sqrt()))
    }

    /// The nearest site under a relabelling: `map` sends each kd-tree
    /// site slot to its *current* label, or `None` for a tombstoned slot
    /// (which is skipped). Ties at equal squared distance break toward
    /// the smallest **label** — matching what [`KdTree::nearest`] over a
    /// freshly built tree of the live sites would report. Returns
    /// `(label, squared_distance)`, or `None` when the tree is empty or
    /// every slot is tombstoned.
    ///
    /// This is the query path of incrementally maintained trees (the
    /// engine-side tombstone + overflow scheme of
    /// `sinr_core::engine::VoronoiAssisted`): the static tree structure
    /// is untouched, dead slots merely stop contributing candidates —
    /// pruning stays conservative, so correctness is unaffected.
    pub fn nearest_mapped<F>(&self, q: Point, map: F) -> Option<(usize, f64)>
    where
        F: Fn(usize) -> Option<usize>,
    {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        self.search_mapped(0, q, &map, &mut best);
        best
    }

    /// The site maximising `weight · att(d²(q, site))` under a
    /// relabelling — the power-diagram (weighted Voronoi) cell lookup.
    ///
    /// `att` is the path-loss attenuation, a non-negative and
    /// (mathematically) non-increasing function of squared distance,
    /// e.g. `1/d²` or `d^(-α)`. `map` sends each kd-tree site slot to
    /// its current label, or `None` for a tombstoned slot (skipped).
    /// Ties at equal strength break toward the smallest **label**, so a
    /// linear argmax with the first-index rule over the live sites
    /// reports the same site. Returns `(label, squared_distance,
    /// strength)`, or `None` when the tree was not
    /// [weighted](KdTree::build_weighted), is empty, or every slot is
    /// tombstoned.
    ///
    /// The search is exact best-first branch-and-bound: a subtree is
    /// visited unless `att(d²_min-to-bbox) · max_weight`, widened by
    /// [`STRONGEST_BOUND_SLACK`], is *strictly* below the best strength
    /// so far — visiting on equality is what preserves the
    /// smallest-label tie rule.
    pub fn strongest_mapped<A, F>(&self, q: Point, att: A, map: F) -> Option<(usize, f64, f64)>
    where
        A: Fn(f64) -> f64,
        F: Fn(usize) -> Option<usize>,
    {
        if self.nodes.is_empty() || self.agg.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64, f64)> = None;
        self.search_strongest(0, q, &att, &map, &mut best);
        best
    }

    /// A certified bracket of the live weighted energy
    /// `Σ_live wᵢ · att(d²(q, sᵢ))` at `q` — the far-field
    /// (Barnes–Hut-style) interference sum of a
    /// [weighted](KdTree::build_weighted) tree.
    ///
    /// The walk descends from the root. Each opened node's own site, if
    /// live, contributes `att(d²) · w` to [`EnergyBracket::exact`], as
    /// does every live site of a subtree of at most [`EXACT_RUN`] sites
    /// (summed in one pass over its contiguous node range). Any other
    /// subtree whose tight bounding box is far
    /// from `q` relative to its extent — `extent² ≤ open_sq · d²_min`,
    /// with `d²_min > 0` the squared distance from `q` to the box — is
    /// not visited: it contributes `envelope(live_w, d²_min, d²_max)` to
    /// `[far_lo, far_hi]`, where `live_w` is its live weight sum and
    /// `d²_max` the squared distance to the box's farthest corner.
    /// Subtrees without live weight contribute nothing. `open_sq`
    /// trades walk length against bracket width: smaller values open
    /// more subtrees and tighten the bracket.
    ///
    /// The bracket is sound whenever `envelope(w, d²_min, d²_max)`
    /// brackets `w · att(d²)` for every `d²` in `[d²_min, d²_max]` —
    /// energy is linear in weight, so one envelope of the summed weight
    /// bounds the subtree's sum. `q` must be finite; returns `None` for
    /// unweighted trees. Exact terms are computed branch-free, dead
    /// sites with weight 0, so a tombstoned site *at* `q` makes the
    /// bracket NaN (`∞ · 0`) — callers must treat a non-finite bracket
    /// as inconclusive.
    pub fn live_energy_bracket<A, E>(
        &self,
        q: Point,
        open_sq: f64,
        att: A,
        envelope: E,
    ) -> Option<EnergyBracket>
    where
        A: Fn(f64) -> f64,
        E: Fn(f64, f64, f64) -> (f64, f64),
    {
        if self.nodes.is_empty() || self.agg.is_empty() {
            return None;
        }
        let mut acc = EnergyBracket {
            exact: 0.0,
            far_lo: 0.0,
            far_hi: 0.0,
        };
        self.bracket_subtree(0, q, open_sq, &att, &envelope, &mut acc, &mut ());
        Some(acc)
    }

    /// [`KdTree::live_energy_bracket`] fused with the dispatch search:
    /// alongside the bracket, the site [`KdTree::nearest_mapped`]
    /// ([`Dominator::Nearest`]) or [`KdTree::strongest_mapped`]
    /// ([`Dominator::Strongest`]) would select under `map` — the same
    /// site, by the same tie rule — as `(label, squared distance)`.
    ///
    /// One walk serves both: every exactly evaluated site is also a
    /// selection candidate, so when the bracket walk ends the best
    /// candidate is usually final, and an enveloped far subtree is
    /// searched afterwards only when its bound (box distance for
    /// `Nearest`, `att(d²_min) · max weight` for `Strongest`) could
    /// still match or beat it. `q` must be finite; returns `None` for
    /// unweighted trees. `map` must send exactly the live
    /// (un-[tombstoned](KdTree::tombstone)) sites to labels, so the
    /// selection and the bracket see the same sites.
    #[allow(clippy::type_complexity)]
    pub fn select_with_bracket<A, E, F>(
        &self,
        q: Point,
        open_sq: f64,
        rule: Dominator,
        att: A,
        envelope: E,
        map: F,
    ) -> Option<(Option<(usize, f64)>, EnergyBracket)>
    where
        A: Fn(f64) -> f64,
        E: Fn(f64, f64, f64) -> (f64, f64),
        F: Fn(usize) -> Option<usize>,
    {
        if self.nodes.is_empty() || self.agg.is_empty() {
            return None;
        }
        let mut acc = EnergyBracket {
            exact: 0.0,
            far_lo: 0.0,
            far_hi: 0.0,
        };
        let mut sel = Selection {
            rule,
            map: &map,
            best: None,
            far: [0; FAR_CAP],
            n_far: 0,
        };
        self.bracket_subtree(0, q, open_sq, &att, &envelope, &mut acc, &mut sel);
        // The far subtrees were bounded, not searched: finish the
        // selection inside those that could still hold the winner (the
        // whole tree again if there were too many to list).
        let roots: &[usize] = if sel.n_far > FAR_CAP {
            &[0]
        } else {
            &sel.far[..sel.n_far]
        };
        let best = match rule {
            Dominator::Strongest => {
                let mut best = sel.best;
                for &f in roots {
                    let a = &self.agg[f];
                    let ub = att(a.min_dist_sq(q)) * a.max_w * (1.0 + STRONGEST_BOUND_SLACK);
                    if best.is_none_or(|(_, _, bs)| ub >= bs) {
                        self.search_strongest(f, q, &att, &map, &mut best);
                    }
                }
                best.map(|(label, d2, _)| (label, d2))
            }
            Dominator::Nearest => {
                let mut best = sel.best.map(|(label, d2, _)| (label, d2));
                for &f in roots {
                    if best.is_none_or(|(_, bd)| self.agg[f].min_dist_sq(q) <= bd) {
                        self.search_mapped(f, q, &map, &mut best);
                    }
                }
                best
            }
        };
        Some((best, acc))
    }

    /// One subtree of [`KdTree::live_energy_bracket`]: skipped when it
    /// holds no live weight, enveloped when far, opened otherwise.
    #[allow(clippy::too_many_arguments)]
    fn bracket_subtree<A, E, S>(
        &self,
        node_idx: usize,
        q: Point,
        open_sq: f64,
        att: &A,
        envelope: &E,
        acc: &mut EnergyBracket,
        sink: &mut S,
    ) where
        A: Fn(f64) -> f64,
        E: Fn(f64, f64, f64) -> (f64, f64),
        S: SiteSink,
    {
        let a = &self.agg[node_idx];
        if a.live_w == 0.0 {
            return;
        }
        if a.end - node_idx <= EXACT_RUN {
            acc.exact += self.run_energy(node_idx..a.end, q, att, sink);
            return;
        }
        let d_min = a.min_dist_sq(q);
        if d_min > 0.0 && a.extent_sq() <= open_sq * d_min {
            let (lo, hi) = envelope(a.live_w, d_min, a.max_dist_sq(q));
            acc.far_lo += lo;
            acc.far_hi += hi;
            sink.far(node_idx);
            return;
        }
        acc.exact += self.run_energy(node_idx..node_idx + 1, q, att, sink);
        let node = self.nodes[node_idx];
        if node.left != NONE {
            self.bracket_subtree(node.left, q, open_sq, att, envelope, acc, sink);
        }
        if node.right != NONE {
            self.bracket_subtree(node.right, q, open_sq, att, envelope, acc, sink);
        }
    }

    /// `Σ att(d²(q, ·)) · live weight` over a contiguous node range —
    /// one pass over the node-ordered columns, branch-free unless the
    /// sink inspects the sites.
    #[inline]
    fn run_energy<A: Fn(f64) -> f64, S: SiteSink>(
        &self,
        range: std::ops::Range<usize>,
        q: Point,
        att: &A,
        sink: &mut S,
    ) -> f64 {
        let start = range.start;
        let xs = &self.node_xs[range.clone()];
        let ys = &self.node_ys[range.clone()];
        let ws = &self.node_live_w[range];
        let mut sum = 0.0;
        for (j, ((&x, &y), &w)) in xs.iter().zip(ys).zip(ws).enumerate() {
            let dx = x - q.x;
            let dy = y - q.y;
            let d2 = dx * dx + dy * dy;
            let a = att(d2);
            sum += a * w;
            sink.site(self, start + j, d2, a);
        }
        sum
    }

    fn search_strongest<A, F>(
        &self,
        node_idx: usize,
        q: Point,
        att: &A,
        map: &F,
        best: &mut Option<(usize, f64, f64)>,
    ) where
        A: Fn(f64) -> f64,
        F: Fn(usize) -> Option<usize>,
    {
        let node = self.nodes[node_idx];
        if let Some(label) = map(node.site) {
            let d2 = self.sites[node.site].dist_sq(q);
            let strength = att(d2) * self.weights[node.site];
            let better = match *best {
                None => true,
                Some((bl, _, bs)) => strength > bs || (strength == bs && label < bl),
            };
            if better {
                *best = Some((label, d2, strength));
            }
        }
        // Best-first: descend the child with the larger upper bound
        // first, then re-check the other child against the improved
        // best. Prune only on *strict* inequality.
        let bound = |child: usize| -> f64 {
            if child == NONE {
                return f64::NEG_INFINITY;
            }
            let a = self.agg[child];
            att(a.min_dist_sq(q)) * a.max_w * (1.0 + STRONGEST_BOUND_SLACK)
        };
        let (mut first, mut second) = (node.left, node.right);
        let (mut first_ub, mut second_ub) = (bound(first), bound(second));
        if second_ub > first_ub {
            std::mem::swap(&mut first, &mut second);
            std::mem::swap(&mut first_ub, &mut second_ub);
        }
        // The negated comparison is load-bearing: `ub >= bs` would
        // prune on NaN bounds (NaN query), `!(ub < bs)` never does.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let not_pruned = |ub: f64, best: &Option<(usize, f64, f64)>| match *best {
            None => true,
            Some((_, _, bs)) => !(ub < bs),
        };
        if first != NONE && not_pruned(first_ub, best) {
            self.search_strongest(first, q, att, map, best);
        }
        if second != NONE && not_pruned(second_ub, best) {
            self.search_strongest(second, q, att, map, best);
        }
    }

    fn search_mapped<F>(&self, node_idx: usize, q: Point, map: &F, best: &mut Option<(usize, f64)>)
    where
        F: Fn(usize) -> Option<usize>,
    {
        let node = self.nodes[node_idx];
        let site = self.sites[node.site];
        if let Some(label) = map(node.site) {
            let d2 = site.dist_sq(q);
            let better = match *best {
                None => true,
                Some((bl, bd)) => d2 < bd || (d2 == bd && label < bl),
            };
            if better {
                *best = Some((label, d2));
            }
        }
        let diff = if node.axis == 0 {
            q.x - site.x
        } else {
            q.y - site.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.search_mapped(near, q, map, best);
        }
        let radius = best.map_or(f64::INFINITY, |(_, d)| d);
        if far != NONE && diff * diff <= radius {
            self.search_mapped(far, q, map, best);
        }
    }

    fn search(&self, node_idx: usize, q: Point, best: &mut (usize, f64)) {
        let node = self.nodes[node_idx];
        let site = self.sites[node.site];
        let d2 = site.dist_sq(q);
        if d2 < best.1 || (d2 == best.1 && node.site < best.0) {
            *best = (node.site, d2);
        }
        let diff = if node.axis == 0 {
            q.x - site.x
        } else {
            q.y - site.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.search(near, q, best);
        }
        if far != NONE && diff * diff <= best.1 {
            self.search(far, q, best);
        }
    }
}

fn build_rec(
    sites: &[Point],
    order: &mut [usize],
    axis: u8,
    parent: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    debug_assert!(!order.is_empty());
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        let (ka, kb) = if axis == 0 {
            (sites[a].x, sites[b].x)
        } else {
            (sites[a].y, sites[b].y)
        };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let site = order[mid];
    let this = nodes.len();
    nodes.push(Node {
        site,
        axis,
        left: NONE,
        right: NONE,
        parent,
    });
    let next_axis = 1 - axis;
    // Split the order slice around the median without re-borrowing `this`.
    let (left_slice, rest) = order.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    if !left_slice.is_empty() {
        let l = build_rec(sites, left_slice, next_axis, this, nodes);
        nodes[this].left = l;
    }
    if !right_slice.is_empty() {
        let r = build_rec(sites, right_slice, next_axis, this, nodes);
        nodes[this].right = r;
    }
    this
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_nearest;

    fn pseudo_points(n: usize, seed: u64, scale: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * scale - scale / 2.0
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn empty_and_single() {
        assert!(KdTree::build(vec![]).nearest(Point::ORIGIN).is_none());
        let t = KdTree::build(vec![Point::new(1.0, 2.0)]);
        let (i, d) = t.nearest(Point::ORIGIN).unwrap();
        assert_eq!(i, 0);
        assert!((d - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_naive_on_random_sets() {
        for n in [2usize, 3, 10, 100, 500] {
            let sites = pseudo_points(n, 0xC0FFEE + n as u64, 20.0);
            let tree = KdTree::build(sites.clone());
            let queries = pseudo_points(200, 0xBEEF + n as u64, 30.0);
            for q in queries {
                let naive = naive_nearest(&sites, q).unwrap();
                let (found, dist) = tree.nearest(q).unwrap();
                // Equal distance is fine (ties); otherwise indexes must match.
                let dn = sites[naive].dist(q);
                assert!(
                    (dist - dn).abs() < 1e-9,
                    "n={n}: kd dist {dist} vs naive {dn} at {q}"
                );
                if (sites[found].dist(q) - dn).abs() > 1e-12 {
                    panic!("n={n}: kd-tree returned non-nearest site");
                }
            }
        }
    }

    #[test]
    fn nearest_mapped_skips_tombstones_and_relabels() {
        let sites = pseudo_points(200, 0xABBA, 20.0);
        let tree = KdTree::build(sites.clone());
        // Tombstone every third site; relabel the rest by `+ 1000`.
        let map = |s: usize| (!s.is_multiple_of(3)).then_some(s + 1000);
        let queries = pseudo_points(100, 0x5EED, 25.0);
        for q in queries {
            let got = tree.nearest_mapped(q, map);
            // Brute force over live sites with the same tie rule.
            let mut want: Option<(usize, f64)> = None;
            for (s, p) in sites.iter().enumerate() {
                let Some(label) = map(s) else { continue };
                let d2 = p.dist_sq(q);
                let better = match want {
                    None => true,
                    Some((bl, bd)) => d2 < bd || (d2 == bd && label < bl),
                };
                if better {
                    want = Some((label, d2));
                }
            }
            assert_eq!(got, want, "nearest_mapped mismatch at {q}");
        }
        // Everything tombstoned → no answer.
        assert_eq!(tree.nearest_mapped(Point::ORIGIN, |_| None), None);
    }

    /// Brute-force weighted argmax with the exact tie rule of
    /// `strongest_mapped`: strictly stronger wins, equal strength
    /// breaks toward the smaller label.
    fn naive_strongest(
        sites: &[Point],
        weights: &[f64],
        q: Point,
        att: impl Fn(f64) -> f64,
        map: impl Fn(usize) -> Option<usize>,
    ) -> Option<(usize, f64, f64)> {
        let mut want: Option<(usize, f64, f64)> = None;
        for (s, p) in sites.iter().enumerate() {
            let Some(label) = map(s) else { continue };
            let d2 = p.dist_sq(q);
            let strength = att(d2) * weights[s];
            let better = match want {
                None => true,
                Some((bl, _, bs)) => strength > bs || (strength == bs && label < bl),
            };
            if better {
                want = Some((label, d2, strength));
            }
        }
        want
    }

    fn pseudo_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0.25 + ((state >> 33) as f64 / (1u64 << 32) as f64) * 4.0
            })
            .collect()
    }

    #[test]
    fn strongest_mapped_agrees_with_naive_argmax() {
        for n in [2usize, 3, 10, 100, 500] {
            let sites = pseudo_points(n, 0xC0FFEE + n as u64, 20.0);
            let weights = pseudo_weights(n, 0xF1E5 + n as u64);
            let tree = KdTree::build_weighted(sites.clone(), weights.clone());
            let queries = pseudo_points(200, 0xBEEF + n as u64, 30.0);
            // Both supported path-loss shapes: exact-op 1/d² and the
            // powf-based general α (where the bound slack matters).
            type Att = fn(f64) -> f64;
            let atts: [(&str, Att); 2] =
                [("inv_sq", |d2| 1.0 / d2), ("alpha3", |d2| d2.powf(-1.5))];
            for (name, att) in atts {
                for q in &queries {
                    let got = tree.strongest_mapped(*q, att, Some);
                    let want = naive_strongest(&sites, &weights, *q, att, Some);
                    assert_eq!(got, want, "{name} n={n}: strongest mismatch at {q}");
                }
                // Queries at site positions: infinite strength, ties by
                // label.
                for s in &sites {
                    let got = tree.strongest_mapped(*s, att, Some);
                    let want = naive_strongest(&sites, &weights, *s, att, Some);
                    assert_eq!(got, want, "{name} n={n}: site-query mismatch at {s}");
                }
            }
        }
    }

    #[test]
    fn strongest_mapped_skips_tombstones_and_relabels() {
        let sites = pseudo_points(300, 0xABBA, 20.0);
        let weights = pseudo_weights(300, 0x77E1);
        let tree = KdTree::build_weighted(sites.clone(), weights.clone());
        let map = |s: usize| (!s.is_multiple_of(3)).then_some(s + 1000);
        let att = |d2: f64| 1.0 / d2;
        for q in pseudo_points(150, 0x5EED, 25.0) {
            let got = tree.strongest_mapped(q, att, map);
            let want = naive_strongest(&sites, &weights, q, att, map);
            assert_eq!(got, want, "strongest_mapped mismatch at {q}");
        }
        // Everything tombstoned → no answer; unweighted trees have no
        // aggregates and decline rather than guessing.
        assert_eq!(tree.strongest_mapped(Point::ORIGIN, att, |_| None), None);
        let unweighted = KdTree::build(sites);
        assert_eq!(unweighted.strongest_mapped(Point::ORIGIN, att, Some), None);
    }

    #[test]
    fn strongest_mapped_handles_non_finite_queries() {
        let sites = pseudo_points(64, 0x404, 10.0);
        let weights = pseudo_weights(64, 0x405);
        let tree = KdTree::build_weighted(sites.clone(), weights.clone());
        let att = |d2: f64| 1.0 / d2;
        // Infinite queries: every strength is an exact 0.0, so the
        // label tie rule fully determines the answer.
        for q in [
            Point::new(f64::INFINITY, 1.0),
            Point::new(-2.0, f64::NEG_INFINITY),
        ] {
            let got = tree.strongest_mapped(q, att, Some);
            let want = naive_strongest(&sites, &weights, q, att, Some);
            assert_eq!(got, want, "infinite query {q}");
        }
        // NaN queries: all strengths are NaN and no order is defined, so
        // the contract is weaker — the search must still answer (NaN
        // bounds never prune into `None`) with a NaN strength the caller
        // resolves to Silent, and the label must be a live site.
        for q in [Point::new(f64::NAN, 0.0), Point::new(0.0, f64::NAN)] {
            let (label, d2, strength) = tree
                .strongest_mapped(q, att, Some)
                .expect("NaN query still answers");
            assert!(label < sites.len());
            assert!(d2.is_nan() && strength.is_nan(), "NaN query {q}");
        }
    }

    /// The live weight sums after recomputing every node bottom-up from
    /// scratch — what `tombstone`'s path updates must reproduce.
    fn fresh_live_sums(tree: &KdTree) -> Vec<f64> {
        let mut fresh = tree.clone();
        for i in (0..fresh.nodes.len()).rev() {
            fresh.refresh_weights(i);
        }
        fresh.agg.iter().map(|a| a.live_w).collect()
    }

    #[test]
    fn tombstone_keeps_live_sums_exact() {
        let sites = pseudo_points(500, 0xD1E, 20.0);
        let weights = pseudo_weights(500, 0xD1F);
        let mut tree = KdTree::build_weighted(sites, weights.clone());
        for (k, site) in [7usize, 0, 499, 250, 7, 13, 128].into_iter().enumerate() {
            tree.tombstone(site);
            assert!(!tree.is_live(site));
            let sums: Vec<f64> = tree.agg.iter().map(|a| a.live_w).collect();
            assert_eq!(sums, fresh_live_sums(&tree), "after tombstone #{k}");
        }
        let live_total: f64 = (0..500)
            .filter(|&s| tree.is_live(s))
            .map(|s| weights[s])
            .sum();
        assert!((tree.agg[0].live_w - live_total).abs() <= 1e-12 * live_total);
        // Everything dead: every sum is exactly zero.
        for s in 0..500 {
            tree.tombstone(s);
        }
        assert!(tree.agg.iter().all(|a| a.live_w == 0.0));
        // Re-weighting keeps sums exact and the argmax search correct.
        let sites = pseudo_points(300, 0xD2E, 20.0);
        let mut weights = pseudo_weights(300, 0xD2F);
        let mut tree = KdTree::build_weighted(sites.clone(), weights.clone());
        for (k, site) in [5usize, 17, 5, 299, 0].into_iter().enumerate() {
            let w = 0.5 + k as f64 * 3.0;
            tree.set_weight(site, w);
            weights[site] = w;
            tree.tombstone((site + 1) % 300);
            let sums: Vec<f64> = tree.agg.iter().map(|a| a.live_w).collect();
            assert_eq!(sums, fresh_live_sums(&tree), "after re-weight #{k}");
        }
        let map = |s: usize| tree.is_live(s).then_some(s);
        for q in pseudo_points(100, 0xD30, 25.0) {
            let att = |d2: f64| 1.0 / d2;
            let want = naive_strongest(&sites, &weights, q, att, map);
            assert_eq!(
                tree.strongest_mapped(q, att, map),
                want,
                "re-weighted at {q}"
            );
        }
        // Unweighted trees have no sums; tombstoning is a no-op.
        let mut plain = KdTree::build(pseudo_points(10, 1, 5.0));
        plain.tombstone(3);
        assert!(plain.is_live(3));
    }

    #[test]
    fn live_energy_bracket_contains_brute_force_sum() {
        let sites = pseudo_points(400, 0xB0B, 40.0);
        let weights = pseudo_weights(400, 0xB0C);
        let mut tree = KdTree::build_weighted(sites.clone(), weights.clone());
        for s in (0..400).step_by(5) {
            tree.tombstone(s);
        }
        type Att = fn(f64) -> f64;
        let atts: [Att; 2] = [|d2| 1.0 / d2, |d2| d2.powf(-1.5)];
        for att in atts {
            let envelope = |w: f64, d_min: f64, d_max: f64| {
                (
                    w * att(d_max) * (1.0 - 1e-12),
                    w * att(d_min) * (1.0 + 1e-12),
                )
            };
            // Near queries (boxes open) and far ones (whole subtrees
            // enveloped, with tight brackets that expose a wrong sum).
            let mut queries = pseudo_points(100, 0x5EE, 50.0);
            queries.extend(
                pseudo_points(20, 0x5EF, 50.0)
                    .into_iter()
                    .map(|p| Point::new(p.x + 2000.0, p.y)),
            );
            for q in queries {
                let want: f64 = (0..400)
                    .filter(|&s| tree.is_live(s))
                    .map(|s| att(sites[s].dist_sq(q)) * weights[s])
                    .sum();
                for open_sq in [0.0, 0.25, 1.0, 4.0, 1e6] {
                    let b = tree.live_energy_bracket(q, open_sq, att, envelope).unwrap();
                    let (lo, hi) = (b.exact + b.far_lo, b.exact + b.far_hi);
                    let tol = 1e-12 * want;
                    assert!(
                        lo <= want + tol && want <= hi + tol,
                        "{q} θ²={open_sq}: {want} ∉ [{lo}, {hi}]"
                    );
                    if open_sq == 0.0 {
                        // Nothing is far: the walk sums every live site.
                        assert_eq!((b.far_lo, b.far_hi), (0.0, 0.0));
                        assert!((b.exact - want).abs() <= tol);
                    }
                }
            }
        }
        assert!(KdTree::build(sites)
            .live_energy_bracket(Point::ORIGIN, 1.0, |d2| 1.0 / d2, |_, _, _| (0.0, 0.0))
            .is_none());
    }

    #[test]
    fn select_with_bracket_matches_the_plain_searches() {
        let envelope =
            |w: f64, d_min: f64, d_max: f64| (w / d_max * (1.0 - 1e-12), w / d_min * (1.0 + 1e-12));
        let att = |d2: f64| 1.0 / d2;
        // A mid-size tree with tombstones and co-located sites, and a
        // large one whose θ² = 0.25 walks envelope more far subtrees
        // (up to ~150) than the follow-up list holds.
        let mut small = pseudo_points(600, 0x5E1, 40.0);
        small.extend_from_within(..12);
        for (n_sites, seed, opens) in [
            (small.len(), 0x5E2, &[0.0, 0.25, 1.0, 36.0, 1e9][..]),
            (6000, 0x5E3, &[0.0004, 0.25, 36.0][..]),
        ] {
            let sites = if n_sites == small.len() {
                small.clone()
            } else {
                pseudo_points(n_sites, seed, 200.0)
            };
            let weights = pseudo_weights(sites.len(), seed ^ 1);
            let mut tree = KdTree::build_weighted(sites.clone(), weights);
            for s in (0..sites.len()).step_by(7) {
                tree.tombstone(s);
            }
            let map = |s: usize| tree.is_live(s).then_some(s + 3);
            let mut queries = pseudo_points(60, seed ^ 2, 60.0);
            queries.extend(sites.iter().step_by(41).copied());
            for q in queries {
                let nearest = tree.nearest_mapped(q, map);
                let strongest = tree.strongest_mapped(q, att, map).map(|(l, d2, _)| (l, d2));
                for &open_sq in opens {
                    let plain = tree.live_energy_bracket(q, open_sq, att, envelope);
                    for (rule, want) in [
                        (Dominator::Nearest, nearest),
                        (Dominator::Strongest, strongest),
                    ] {
                        let (got, bracket) = tree
                            .select_with_bracket(q, open_sq, rule, att, envelope, map)
                            .unwrap();
                        assert_eq!(got, want, "{rule:?} at {q}, θ²={open_sq}");
                        // Bitwise: a tombstoned site at `q` makes both NaN.
                        let bits =
                            |b: EnergyBracket| [b.exact, b.far_lo, b.far_hi].map(f64::to_bits);
                        assert_eq!(
                            Some(bits(bracket)),
                            plain.map(bits),
                            "bracket at {q}, θ²={open_sq}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_sites_handled() {
        let sites = vec![Point::new(1.0, 1.0); 8];
        let tree = KdTree::build(sites);
        let (i, d) = tree.nearest(Point::new(1.0, 1.0)).unwrap();
        assert!(i < 8);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn collinear_sites() {
        let sites: Vec<Point> = (0..20).map(|k| Point::new(k as f64, 0.0)).collect();
        let tree = KdTree::build(sites.clone());
        for k in 0..20 {
            let q = Point::new(k as f64 + 0.3, 5.0);
            let (i, _) = tree.nearest(q).unwrap();
            assert_eq!(i, k, "query over site {k}");
        }
    }

    #[test]
    fn query_at_site_positions() {
        let sites = pseudo_points(50, 99, 10.0);
        let tree = KdTree::build(sites.clone());
        for (k, s) in sites.iter().enumerate() {
            let (i, d) = tree.nearest(*s).unwrap();
            assert!(d < 1e-12);
            // Another site could coincide; distances must agree regardless.
            assert!((sites[i].dist(*s)) < 1e-12, "site {k}");
        }
    }
}
