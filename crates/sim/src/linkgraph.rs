//! The synthetic hyperlink graph.
//!
//! Majestic ranks sites by *backlinks* — distinct referring domains — and the
//! paper finds that link counts correlate only weakly with traffic and skew
//! hard toward institutions (government, news, travel) while missing adult,
//! gambling, and abuse content. The generator encodes exactly those
//! mechanisms: link targets are sampled by `popularity^α × link_propensity`,
//! so a mid-traffic government portal out-collects a high-traffic adult site.
//!
//! Storage is CSR (compressed sparse rows) over source sites, which the
//! crawler vantage walks edge-by-edge.

use topple_stats::cast;

use crate::alias::AliasTable;
use crate::ids::SiteId;
use crate::rng::poisson;

/// The link graph in CSR form plus per-target counts.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    /// CSR row offsets: out-edges of site `s` are `targets[offsets[s]..offsets[s+1]]`.
    offsets: Vec<u32>,
    /// Flattened out-link targets.
    targets: Vec<u32>,
    /// Per-site backlink page counts, computed once at build time.
    in_degrees: Vec<u32>,
    /// Per-site distinct referring-domain counts, computed once at build time.
    referring: Vec<u32>,
}

/// A link graph's CSR rows, appended block by block in source-site order
/// (the sharded generator folds each shard's rows in as it arrives).
#[derive(Debug)]
pub(crate) struct LinkRows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl LinkRows {
    /// No rows yet, with room for `n_sites` row offsets.
    pub(crate) fn with_capacity(n_sites: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_sites + 1);
        offsets.push(0);
        LinkRows {
            offsets,
            targets: Vec::new(),
        }
    }

    /// Appends consecutive rows: row `j` holds the next `row_lens[j]`
    /// entries of `targets`.
    pub(crate) fn append(&mut self, row_lens: &[u32], targets: &[u32]) {
        let mut end = self.targets.len();
        for &len in row_lens {
            end += cast::usize_from_u32(len);
            self.offsets.push(cast::u32_from_usize(end));
        }
        self.targets.extend_from_slice(targets);
        debug_assert_eq!(end, self.targets.len());
    }

    /// The graph over every appended row.
    pub(crate) fn finish(self) -> LinkGraph {
        LinkGraph::finish(self.offsets, self.targets)
    }
}

/// Sub-linear exponent tying link volume to popularity: links accrue with
/// popularity but much less than proportionally.
const POPULARITY_EXPONENT: f64 = 0.45;

impl LinkGraph {
    /// Target-attractiveness weight: sub-linear in popularity, scaled by the
    /// category's link propensity; non-public sites are near-invisible.
    pub(crate) fn attractiveness(weight: f64, link_propensity: f64, public_web: bool) -> f64 {
        let vis = if public_web { 1.0 } else { 0.02 };
        weight.powf(POPULARITY_EXPONENT) * link_propensity * vis
    }

    /// Draws one site's out-link row into `targets` from its own
    /// `Stream::GenLink(site)` substream, which is what makes rows
    /// shard-independent. `mean_outlinks` is the Poisson mean of distinct
    /// outbound links per *public* site (non-public sites neither give nor
    /// effectively receive public links).
    pub(crate) fn sample_row(
        rng: &mut rand::rngs::SmallRng,
        site_idx: u32,
        site_weight: f64,
        public_web: bool,
        table: &AliasTable,
        mean_outlinks: f64,
        targets: &mut Vec<u32>,
    ) {
        if !public_web {
            return;
        }
        // Bigger sites host more pages and thus more outbound links.
        let scale = (site_weight.powf(0.25)).clamp(0.4, 4.0);
        let degree = poisson(rng, mean_outlinks * scale);
        // topple-lint: hot-path-begin
        for _ in 0..degree {
            let mut t = table.sample(rng);
            // Avoid trivial self-links.
            if t == site_idx {
                t = table.sample(rng);
            }
            if t != site_idx {
                targets.push(t);
            }
        }
        // topple-lint: hot-path-end
    }

    /// Finalizes a CSR pair into a graph, computing the per-target counts
    /// (`in_degrees`, `referring_domains`) once so lookups are slice reads.
    fn finish(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        let n = offsets.len() - 1;
        let mut in_degrees = vec![0u32; n];
        for &t in &targets {
            in_degrees[cast::usize_from_u32(t)] += 1;
        }
        let mut referring = vec![0u32; n];
        let mut seen: Vec<u32> = vec![u32::MAX; n]; // last source seen per target
        for s in 0..n {
            let lo = cast::usize_from_u32(offsets[s]);
            let hi = cast::usize_from_u32(offsets[s + 1]);
            let s32 = cast::u32_from_usize(s);
            for &t in &targets[lo..hi] {
                let ti = cast::usize_from_u32(t);
                if seen[ti] != s32 {
                    seen[ti] = s32;
                    referring[ti] += 1;
                }
            }
        }
        LinkGraph {
            offsets,
            targets,
            in_degrees,
            referring,
        }
    }

    /// Number of sites the graph covers.
    pub fn site_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total directed edges (with multiplicity).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-links of a site (with multiplicity — one entry per linking page).
    pub fn out_links(&self, s: SiteId) -> &[u32] {
        let lo = cast::usize_from_u32(self.offsets[s.index()]);
        let hi = cast::usize_from_u32(self.offsets[s.index() + 1]);
        &self.targets[lo..hi]
    }

    /// Full-graph in-degree (backlink pages) per site. Computed once at
    /// build time; this is a slice read, not a recount.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Full-graph count of distinct referring domains per site. Computed
    /// once at build time; this is a slice read, not a recount.
    pub fn referring_domains(&self) -> &[u32] {
        &self.referring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::world::World;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(77)).unwrap()
    }

    #[test]
    fn csr_shape_is_consistent() {
        let w = tiny_world();
        let g = &w.link_graph;
        assert_eq!(g.site_count(), w.sites.len());
        let total: usize = (0..w.sites.len())
            .map(|i| g.out_links(SiteId(i as u32)).len())
            .sum();
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn no_self_links() {
        let w = tiny_world();
        for (i, _) in w.sites.iter().enumerate() {
            for &t in w.link_graph.out_links(SiteId(i as u32)) {
                assert_ne!(t as usize, i, "self-link at {i}");
            }
        }
    }

    #[test]
    fn referring_domains_bounded_by_in_degree() {
        let w = tiny_world();
        let refs = w.link_graph.referring_domains();
        let degs = w.link_graph.in_degrees();
        for (r, d) in refs.iter().zip(degs) {
            assert!(r <= d);
        }
    }

    #[test]
    fn institutions_outcollect_grey_content() {
        // Aggregate in-degree per category: government should beat adult by a
        // wide margin per site even though adult sites get more traffic.
        use crate::taxonomy::Category;
        let w = World::generate(WorldConfig::small(3)).unwrap();
        let refs = w.link_graph.referring_domains();
        let mean_for = |cat: Category| {
            let mut sum = 0.0;
            let mut n = 0.0;
            for s in &w.sites {
                if s.category == cat {
                    sum += refs[s.id.index()] as f64;
                    n += 1.0;
                }
            }
            if n == 0.0 {
                0.0
            } else {
                sum / n
            }
        };
        let gov = mean_for(Category::Government);
        let adult = mean_for(Category::Adult);
        assert!(
            gov > adult * 3.0,
            "government sites should be link-rich: gov={gov:.2}, adult={adult:.2}"
        );
    }

    #[test]
    fn non_public_sites_rarely_linked() {
        let w = World::generate(WorldConfig::small(4)).unwrap();
        let refs = w.link_graph.referring_domains();
        let (mut pub_sum, mut pub_n, mut priv_sum, mut priv_n) = (0.0, 0.0, 0.0, 0.0);
        for s in &w.sites {
            if s.public_web {
                pub_sum += refs[s.id.index()] as f64;
                pub_n += 1.0;
            } else {
                priv_sum += refs[s.id.index()] as f64;
                priv_n += 1.0;
            }
        }
        assert!(priv_n > 0.0, "tiny world should include non-public sites");
        assert!(pub_sum / pub_n > 5.0 * (priv_sum / priv_n).max(0.01));
    }
}
