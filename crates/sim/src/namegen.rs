//! Synthetic domain-name generation.
//!
//! Mints unique, realistic registrable domains under the built-in PSL:
//! global sites draw from generic TLDs, locally-focused sites from their home
//! country's suffixes, and a small share lands on private registry suffixes
//! (`*.github.io`-style tenants). Each site draws a `(label, suffix)`
//! candidate from its own substream; [`resolve_names`] then makes the names
//! unique with a numeric-suffix fallback.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::Rng;
use topple_psl::DomainName;

use crate::taxonomy::{Category, Country};

const ADJECTIVES: &[&str] = &[
    "swift", "bright", "quiet", "brave", "lunar", "solar", "amber", "cobalt", "crimson", "emerald",
    "golden", "iron", "jade", "mellow", "noble", "onyx", "pearl", "rapid", "scarlet", "teal",
    "urban", "vivid", "wild", "young", "zesty", "arc", "bold", "calm", "deep", "early", "fresh",
    "grand", "happy", "ideal", "jolly", "keen", "lively", "magic", "nimble", "open", "prime",
    "quick", "royal", "sunny", "tidy", "ultra", "vast", "warm", "alpha", "beta",
];

const NOUNS: &[&str] = &[
    "river", "forest", "market", "harbor", "studio", "garden", "bridge", "castle", "desert",
    "engine", "falcon", "glacier", "hollow", "island", "jungle", "kernel", "lantern", "meadow",
    "nebula", "orchid", "prairie", "quartz", "ridge", "summit", "tiger", "umbrella", "valley",
    "willow", "xenon", "yarrow", "zephyr", "anchor", "beacon", "canyon", "dolphin", "ember",
    "fjord", "grove", "harvest", "iris", "jasper", "knoll", "lagoon", "mosaic", "north", "opal",
    "pixel", "quill", "raven", "spruce",
];

const CATEGORY_HINTS: &[(&str, &[&str])] = &[
    (
        "news",
        &["daily", "times", "herald", "press", "wire", "report"],
    ),
    (
        "shop",
        &["store", "mart", "deals", "cart", "bazaar", "outlet"],
    ),
    ("tech", &["labs", "cloud", "stack", "byte", "code", "data"]),
    (
        "game",
        &["play", "arcade", "quest", "arena", "guild", "pixelgames"],
    ),
];

/// Per-country TLD pools (suffixes must exist in the built-in PSL).
fn country_tlds(c: Country) -> &'static [&'static str] {
    match c {
        Country::Brazil => &["com.br", "net.br", "org.br", "br"],
        Country::Germany => &["de"],
        Country::Egypt => &["com.eg", "eg"],
        Country::UnitedKingdom => &["co.uk", "org.uk", "uk"],
        Country::Indonesia => &["co.id", "web.id", "id"],
        Country::India => &["co.in", "in", "org.in"],
        Country::Japan => &["co.jp", "ne.jp", "or.jp", "jp"],
        Country::Nigeria => &["com.ng", "ng"],
        Country::UnitedStates => &["com", "us", "org", "net"],
        Country::SouthAfrica => &["co.za", "za"],
        Country::China => &["com.cn", "cn", "net.cn"],
        Country::Rest => &["com", "net", "org", "io"],
    }
}

const GENERIC_TLDS: &[&str] = &[
    "com", "net", "org", "io", "co", "info", "xyz", "online", "site", "app", "dev", "me",
];

const PRIVATE_SUFFIXES: &[&str] = &["github.io", "blogspot.com", "pages.dev", "netlify.app"];

fn gov_tld(c: Country) -> &'static str {
    match c {
        Country::Brazil => "gov.br",
        Country::Egypt => "gov.eg",
        Country::UnitedKingdom => "gov.uk",
        Country::Indonesia => "go.id",
        Country::India => "gov.in",
        Country::Japan => "go.jp",
        Country::Nigeria => "gov.ng",
        Country::SouthAfrica => "gov.za",
        Country::China => "gov.cn",
        _ => "gov",
    }
}

fn edu_tld(c: Country) -> &'static str {
    match c {
        Country::Brazil => "edu.br",
        Country::Egypt => "edu.eg",
        Country::UnitedKingdom => "ac.uk",
        Country::Indonesia => "ac.id",
        Country::India => "ac.in",
        Country::Japan => "ac.jp",
        Country::Nigeria => "edu.ng",
        Country::SouthAfrica => "ac.za",
        Country::China => "edu.cn",
        _ => "edu",
    }
}

/// Draws a name label (`swiftriver`, `amber-quill`, `boldnews`, …) from the
/// word tables. The labels are digit-free by construction (every word-table
/// entry is lowercase letters, optionally hyphen-joined), which
/// [`resolve_names`] relies on for its collision fallback.
pub fn pick_label(rng: &mut SmallRng, category: Category) -> String {
    let adj = ADJECTIVES[rng.random_range(0..ADJECTIVES.len())];
    let noun = NOUNS[rng.random_range(0..NOUNS.len())];
    // A third of names get a category-flavoured word instead of the noun.
    let hint = match category {
        Category::News => Some("news"),
        Category::Shopping => Some("shop"),
        Category::Technology => Some("tech"),
        Category::Gaming => Some("game"),
        _ => None,
    };
    if let Some(key) = hint {
        if rng.random::<f64>() < 0.35 {
            let pool = CATEGORY_HINTS
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, words)| *words)
                .unwrap_or(NOUNS);
            let w = pool[rng.random_range(0..pool.len())];
            return format!("{adj}{w}");
        }
    }
    if rng.random::<f64>() < 0.5 {
        format!("{adj}{noun}")
    } else {
        format!("{adj}-{noun}")
    }
}

/// Draws the public suffix for a site: governments and schools get their
/// country's institutional TLD, blogs sometimes land on private registry
/// suffixes, global sites use generic TLDs, the rest mostly use their home
/// country's pool.
pub fn pick_suffix(
    rng: &mut SmallRng,
    category: Category,
    home: Country,
    is_global: bool,
) -> &'static str {
    match category {
        Category::Government => return gov_tld(home),
        Category::Education => return edu_tld(home),
        Category::Blog if rng.random::<f64>() < 0.3 => {
            return PRIVATE_SUFFIXES[rng.random_range(0..PRIVATE_SUFFIXES.len())];
        }
        _ => {}
    }
    if is_global || rng.random::<f64>() < 0.25 {
        GENERIC_TLDS[rng.random_range(0..GENERIC_TLDS.len())]
    } else {
        let pool = country_tlds(home);
        pool[rng.random_range(0..pool.len())]
    }
}

/// Deterministic collision resolution for shard-minted name candidates.
///
/// Shards draw `(label, suffix)` candidates independently from per-site
/// substreams, so two sites can draw the same pair. This pass walks the
/// candidates in id order: the first occurrence of a pair keeps
/// `{label}.{suffix}`, every later duplicate takes `{label}{id}.{suffix}`.
///
/// The fallback is provably unique without a retry loop: labels from the
/// word tables are digit-free, so `{label}{id}` parses unambiguously back to
/// `(label, id)` (the digit boundary separates them) — two distinct ids can
/// never produce the same fallback, and a fallback can never equal a base
/// candidate (which has no trailing digits).
#[allow(clippy::expect_used)]
pub fn resolve_names(candidates: &[(String, &'static str)]) -> Vec<DomainName> {
    // topple-lint: allow(string-set): world-generation uniqueness set while resolving names, not a result path
    let mut used: HashSet<String> = HashSet::with_capacity(candidates.len());
    let mut names = Vec::with_capacity(candidates.len());
    for (id, (label, suffix)) in candidates.iter().enumerate() {
        let base = format!("{label}.{suffix}");
        let name = if used.insert(base.clone()) {
            base
        } else {
            format!("{label}{id}.{suffix}")
        };
        // topple-lint: allow(unwrap): labels come from fixed lowercase-ASCII word tables
        names.push(DomainName::new(&name).expect("generated names are valid by construction"));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{substream, Stream};
    use topple_psl::PublicSuffixList;

    #[test]
    fn government_sites_use_gov_suffixes() {
        let mut rng = substream(6, Stream::GenSite, 0);
        for _ in 0..50 {
            let suffix = pick_suffix(&mut rng, Category::Government, Country::Japan, false);
            assert_eq!(suffix, "go.jp");
        }
    }

    #[test]
    fn word_tables_are_digit_free() {
        // resolve_names' collision fallback `{label}{id}.{suffix}` is only
        // provably unique if base labels never end in a digit.
        for w in ADJECTIVES.iter().chain(NOUNS) {
            assert!(!w.chars().any(|c| c.is_ascii_digit()), "{w}");
        }
        for (_, pool) in CATEGORY_HINTS {
            for w in *pool {
                assert!(!w.chars().any(|c| c.is_ascii_digit()), "{w}");
            }
        }
    }

    #[test]
    fn resolve_names_keeps_first_and_renames_later_duplicates() {
        let candidates = vec![
            ("swiftriver".to_owned(), "com"),
            ("swiftriver".to_owned(), "com"),
            ("amber-quill".to_owned(), "net"),
            ("swiftriver".to_owned(), "com"),
        ];
        let names = resolve_names(&candidates);
        assert_eq!(names[0].as_str(), "swiftriver.com");
        assert_eq!(names[1].as_str(), "swiftriver1.com");
        assert_eq!(names[2].as_str(), "amber-quill.net");
        assert_eq!(names[3].as_str(), "swiftriver3.com");
        let set: HashSet<_> = names.iter().map(|d| d.as_str()).collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn resolve_names_is_unique_at_scale() {
        let psl = PublicSuffixList::builtin();
        let mut candidates = Vec::new();
        for i in 0..20_000 {
            let mut rng = substream(11, Stream::GenSite, i as u64);
            let cat = Category::ALL[i % Category::COUNT];
            let home = Country::ALL[i % Country::COUNT];
            let label = pick_label(&mut rng, cat);
            let suffix = pick_suffix(&mut rng, cat, home, i % 3 == 0);
            candidates.push((label, suffix));
        }
        let names = resolve_names(&candidates);
        let mut seen = HashSet::new();
        for d in &names {
            assert!(seen.insert(d.as_str().to_owned()), "duplicate {d}");
            let reg = psl.registrable_domain(d).unwrap();
            assert_eq!(&reg, d, "{d} is not a registrable domain");
        }
    }
}
