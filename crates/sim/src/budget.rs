//! Generation memory budgets.
//!
//! The web-scale tiers (`WorldConfig::large` / `WorldConfig::web`) are sized
//! by a [`GenBudget`]: a per-component estimate of the peak resident bytes
//! the sharded generator (generation epoch 2) needs to build a world. The
//! estimate is computed *before* any allocation happens, so an over-budget
//! configuration fails fast with a [`crate::WorldError`] instead of OOM-ing
//! half way through a multi-million-site build.
//!
//! The arithmetic is deliberately simple and conservative: fixed per-entity
//! costs derived from the in-memory layout (`Site`/`Client` AoS records, the
//! SoA columns in [`crate::soa`], the CSR link graph, the 48 navigation alias
//! tables, the domain index) plus transient shard scratch. It over-estimates
//! the string-heavy component (domain names) on purpose — the budget is a
//! ceiling, not an accounting identity. Measured peak RSS for the shipped
//! tiers is recorded in EXPERIMENTS.md next to each estimate.

use topple_stats::cast;

use crate::config::WorldConfig;

/// Estimated average bytes of one `Site` AoS record and the heap it owns:
/// the 232-byte record (fixed fields, the country-mix array, the one-byte
/// host mask its host names are derived from), the `String` domain (label +
/// suffix + allocation header, at most 48 bytes for generated names) and
/// the third-party vector (at most four 8-byte entries plus header), with
/// slack.
const SITE_AOS_BYTES: u64 = 352;

/// Bytes per `Client` AoS record (fixed-size: no owned heap besides the
/// struct itself and its IP/browser enums).
const CLIENT_AOS_BYTES: u64 = 64;

/// Bytes per site across every `SiteSoa` column (f32 columns, flag bytes,
/// masks, and the third-party CSR headers).
const SITE_SOA_BYTES: u64 = 40;

/// Bytes per third-party CSR edge (`tp_zone: u32` + `tp_prob: f32`).
const TP_EDGE_BYTES: u64 = 8;

/// Average third-party dependencies per site (draw is uniform in 1..=4, and
/// infrastructure/parked sites draw none; 3 is a safe ceiling).
const TP_EDGES_PER_SITE: u64 = 3;

/// Bytes per client across every `ClientSoa` column.
const CLIENT_SOA_BYTES: u64 = 12;

/// Bytes per link-graph CSR edge (`targets: u32`) plus the amortised offset,
/// in-degree, and referring-domain columns.
const LINK_EDGE_BYTES: u64 = 4;

/// Mean outgoing links per public site (the generator draws Poisson around
/// `mean_outlinks * popularity scale`; 10.0 is the configured mean and the
/// clamp keeps the scale within [0.4, 4.0], so 16 is a ceiling).
const LINK_EDGES_PER_SITE: u64 = 16;

/// Bytes per site per navigation alias table cell (`prob: f64` +
/// `alias: u32`, padded) times the 48 (country x mobile x weekend) cells.
const NAV_CELL_BYTES: u64 = 12;
const NAV_CELLS: u64 = 48;

/// Bytes per site of the domain -> id index: one `u32` slot per site at a
/// load factor of at least 1/4 (slot counts are powers of two, at least
/// twice the site count). Keys are not stored; lookups confirm against the
/// site's own domain.
const NAME_INDEX_BYTES: u64 = 16;

/// Transient scratch per in-flight shard (draw buffers, shard-local CSR
/// segments) — multiplied by the worker count since each worker holds one
/// shard's scratch at a time.
const SHARD_SCRATCH_BYTES: u64 = 512;

/// Per-component peak-resident estimate for building one world.
///
/// All figures are bytes. [`GenBudget::total`] is the enforcement figure
/// compared against [`WorldConfig::gen_budget_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenBudget {
    /// AoS `Vec<Site>` records including owned strings.
    pub sites_aos: u64,
    /// AoS `Vec<Client>` records.
    pub clients_aos: u64,
    /// All `SiteSoa` + `ClientSoa` columns including the third-party CSR.
    pub soa: u64,
    /// Link-graph CSR (offsets, targets, in-degrees, referring domains).
    pub link_graph: u64,
    /// The 48 navigation alias tables.
    pub nav_tables: u64,
    /// Domain-name -> `SiteId` index.
    pub name_index: u64,
    /// Transient per-worker shard scratch (peak, not cumulative).
    pub shard_scratch: u64,
}

impl GenBudget {
    /// Estimate the peak-resident bytes for generating `config`'s world.
    pub fn for_config(config: &WorldConfig) -> Self {
        let sites = cast::u64_from_usize(config.n_sites);
        let clients = cast::u64_from_usize(config.n_clients);
        let workers = cast::u64_from_usize(config.effective_workers());
        let shard = cast::u64_from_usize(config.effective_gen_shard());
        GenBudget {
            sites_aos: sites * SITE_AOS_BYTES,
            clients_aos: clients * CLIENT_AOS_BYTES,
            soa: sites * (SITE_SOA_BYTES + TP_EDGES_PER_SITE * TP_EDGE_BYTES)
                + clients * CLIENT_SOA_BYTES,
            link_graph: sites * LINK_EDGES_PER_SITE * LINK_EDGE_BYTES,
            nav_tables: sites * NAV_CELL_BYTES * NAV_CELLS,
            name_index: sites * NAME_INDEX_BYTES,
            shard_scratch: workers * shard * SHARD_SCRATCH_BYTES,
        }
    }

    /// Total estimated peak-resident bytes across every component.
    pub fn total(&self) -> u64 {
        self.sites_aos
            + self.clients_aos
            + self.soa
            + self.link_graph
            + self.nav_tables
            + self.name_index
            + self.shard_scratch
    }

    /// Check the estimate against a configured cap. `Ok(())` when no cap is
    /// set or the estimate fits; `Err` carries a human-readable breakdown.
    pub fn check(&self, cap_bytes: Option<u64>) -> Result<(), String> {
        let Some(cap) = cap_bytes else {
            return Ok(());
        };
        let total = self.total();
        if total <= cap {
            return Ok(());
        }
        Err(format!(
            "generation budget exceeded: estimated {} bytes > cap {} bytes ({})",
            total,
            cap,
            self.breakdown()
        ))
    }

    /// One-line per-component breakdown, MiB-denominated, for logs.
    pub fn breakdown(&self) -> String {
        const MIB: f64 = 1024.0 * 1024.0;
        format!(
            "sites_aos={:.1}MiB clients_aos={:.1}MiB soa={:.1}MiB link_graph={:.1}MiB \
             nav_tables={:.1}MiB name_index={:.1}MiB shard_scratch={:.1}MiB",
            self.sites_aos as f64 / MIB,
            self.clients_aos as f64 / MIB,
            self.soa as f64 / MIB,
            self.link_graph as f64 / MIB,
            self.nav_tables as f64 / MIB,
            self.name_index as f64 / MIB,
            self.shard_scratch as f64 / MIB,
        )
    }
}

/// Peak resident set size of this process in bytes, read from the `VmHWM`
/// line of `/proc/self/status`. Returns `None` off Linux or if the file is
/// unreadable / unparsable. Std-only: no new dependencies.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            // Format: "VmHWM:     123456 kB"
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_world_size() {
        let small = GenBudget::for_config(&WorldConfig::small(1));
        let medium = GenBudget::for_config(&WorldConfig::medium(1));
        assert!(medium.total() > small.total());
        assert!(small.total() > 0);
    }

    #[test]
    fn shipped_tiers_fit_their_declared_caps() {
        for cfg in [WorldConfig::large(1), WorldConfig::web(1)] {
            let budget = GenBudget::for_config(&cfg);
            budget
                .check(cfg.gen_budget_bytes)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn over_budget_reports_breakdown() {
        let budget = GenBudget::for_config(&WorldConfig::web(1));
        let err = budget.check(Some(1)).expect_err("1 byte cannot fit");
        assert!(err.contains("generation budget exceeded"), "{err}");
        assert!(err.contains("sites_aos="), "{err}");
    }

    #[test]
    fn vm_hwm_parses_on_linux() {
        // Only asserts on Linux where /proc exists; elsewhere the reader
        // must degrade to None, not panic.
        if std::path::Path::new("/proc/self/status").exists() {
            let hwm = vm_hwm_bytes().expect("VmHWM should parse on Linux");
            assert!(hwm > 0);
        } else {
            assert!(vm_hwm_bytes().is_none());
        }
    }

    #[test]
    fn site_record_fits_its_share_of_the_estimate() {
        // The per-site figure prices the record plus its two small heap
        // blocks; a record that grows past this no longer leaves room.
        let record = cast::u64_from_usize(std::mem::size_of::<crate::site::Site>());
        assert!(record <= 232, "Site is {record} bytes");
        assert!(record + 48 + 48 <= SITE_AOS_BYTES);
    }

    #[test]
    fn total_is_the_component_sum() {
        let b = GenBudget::for_config(&WorldConfig::tiny(1));
        assert_eq!(
            b.total(),
            b.sites_aos
                + b.clients_aos
                + b.soa
                + b.link_graph
                + b.nav_tables
                + b.name_index
                + b.shard_scratch
        );
    }
}
