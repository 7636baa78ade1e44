//! The world's registrable-domain → site-id index.
//!
//! An open-addressed table of `u32` site ids with linear probing, keyed by
//! a hash of the domain and confirmed against `sites[id].domain`: the
//! domain strings stay where they live (in the `Site` records), so building
//! the index clones none of them. At most half the slots are full, so a
//! miss ends at an empty slot after a short probe.

use topple_stats::cast;

use crate::site::Site;

/// Marks an empty slot (site ids are dense and below `u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Domain → site lookup over one world's sites.
#[derive(Debug)]
pub(crate) struct DomainIndex {
    /// Site id per slot, or [`EMPTY`]; the length is a power of two.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
}

impl DomainIndex {
    /// Indexes every site by its domain. Domains are unique within a world.
    pub(crate) fn build(sites: &[Site]) -> DomainIndex {
        let len = (2 * sites.len()).max(2).next_power_of_two();
        let mut index = DomainIndex {
            slots: vec![EMPTY; len],
            shift: 64 - len.trailing_zeros(),
        };
        let mask = len - 1;
        for s in sites {
            let mut slot = index.home(s.domain.as_str());
            while index.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index.slots[slot] = s.id.0;
        }
        index
    }

    /// The site whose domain is `domain`, if any. `sites` must be the slice
    /// the index was built from.
    pub(crate) fn get<'a>(&self, sites: &'a [Site], domain: &str) -> Option<&'a Site> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(domain);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            let site = &sites[cast::usize_from_u32(id)];
            if site.domain.as_str() == domain {
                return Some(site);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The first slot probed for `domain`: FNV-1a over its bytes, then a
    /// Fibonacci multiply so the top bits (which pick the slot) depend on
    /// every input byte.
    fn home(&self, domain: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in domain.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        cast::usize_from_u64(h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::ids::SiteId;
    use crate::world::World;

    #[test]
    fn finds_every_site_and_rejects_strangers() {
        let w = World::generate(WorldConfig::tiny(7)).unwrap();
        let index = DomainIndex::build(&w.sites);
        assert!(index.slots.len() >= 2 * w.sites.len());
        let reference: std::collections::BTreeMap<&str, SiteId> =
            w.sites.iter().map(|s| (s.domain.as_str(), s.id)).collect();
        for s in &w.sites {
            let found = index.get(&w.sites, s.domain.as_str()).map(|f| f.id);
            assert_eq!(found, Some(s.id));
            // Host names and near misses find only what the reference has.
            let www = format!("www.{}", s.domain);
            let tail = &s.domain.as_str()[1..];
            for probe in [www.as_str(), tail] {
                let found = index.get(&w.sites, probe).map(|f| f.id);
                assert_eq!(found, reference.get(probe).copied());
            }
        }
        assert!(index.get(&w.sites, "").is_none());
    }

    #[test]
    fn an_empty_world_indexes_nothing() {
        let index = DomainIndex::build(&[]);
        assert!(index.get(&[], "example.com").is_none());
    }
}
