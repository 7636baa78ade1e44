//! The determinism-epoch contract: RNG taint analysis over the call graph.
//!
//! Every byte-identity guarantee in this workspace reduces to one property:
//! the *sequence* of RNG draws issued under the result roots never changes
//! without a versioned epoch bump. This module computes that sequence
//! statically — it marks every function that binds a `SmallRng` (parameter
//! or `substream(..)` binding) or issues a draw, walks the call graph from
//! [`ROOTS`], and emits each reachable draw site with its ordered draw-kind
//! signature. The result is compared against the checked-in
//! `determinism.epoch*.toml` manifests: any divergence is `epoch-drift`, RNG
//! consumed outside the reachable set is `rng-leak`, and the same
//! function-body machinery powers the cross-statement
//! `unordered-iteration` check the per-line rules cannot express.
//!
//! # Multiple live epochs
//!
//! A workspace may keep several draw-sequence universes alive at once (a
//! frozen reference generator next to its restructured successor). Epoch
//! membership is declared by function-name suffix: a function named
//! `…_epoch{N}` belongs to traffic epoch N only, and unsuffixed functions
//! to every epoch. Each epoch gets its own reachable set — computed by
//! cutting the *other* epochs' suffixed functions out of the traversal —
//! and its own manifest file, `determinism.epoch{N}.toml`; a workspace with
//! one traffic epoch keeps the suffix-free `determinism.epoch.toml`. This
//! workspace has one: `simulate_day_epoch2`, whose suffix stays because
//! the generation carve below keys on it. The live example of several
//! epochs side by side is the generation pair `generate_gen1` /
//! `generate_gen2`, pinned in `determinism.gen1.toml` and
//! `determinism.gen2.toml`.
//!
//! # The generation dimension
//!
//! World *generation* versions independently of traffic simulation: a
//! `_gen{N}` suffix (`generate_gen2`) declares generation-epoch membership
//! the same way `_epoch{N}` declares traffic membership. When any
//! gen-suffixed function exists, the two dimensions carve the draw universe
//! in half: traffic manifests exclude every gen-suffixed function (and thus
//! everything reachable only through generation), and generation manifests
//! (`determinism.gen{N}.toml`, or bare `determinism.gen.toml` for a single
//! gen epoch) exclude every traffic-suffixed function. Shared helpers
//! reachable from both remain in both contracts. The `GENERATION_EPOCH`
//! constant is the *default* generation epoch and — unlike
//! `DETERMINISM_EPOCH`, which must be the newest traffic epoch — is only
//! required to be a *member* of the declared set: a workspace may freeze its
//! byte pins on an old generation epoch while a newer one matures behind an
//! opt-in. Workspaces with no gen-suffixed functions see no change: the
//! dimension is inert and only the traffic manifests exist.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::config::{Config, Severity};
use crate::graph::{self, CallSite};
use crate::symbols::{self, FnSym};
use crate::{rules, Finding, LexedFile, LintError};

/// File name of the manifest at the workspace root (single-epoch form).
pub const MANIFEST_FILE: &str = "determinism.epoch.toml";

/// The manifest file name for one epoch of a workspace declaring `epochs`:
/// the bare [`MANIFEST_FILE`] when only one epoch is live, else the
/// per-epoch `determinism.epoch{N}.toml`.
pub fn manifest_file(epochs: &[u32], epoch: u32) -> String {
    if epochs.len() <= 1 {
        MANIFEST_FILE.to_owned()
    } else {
        format!("determinism.epoch{epoch}.toml")
    }
}

/// The epoch a function name claims membership of via an `_epoch{N}` suffix
/// (`simulate_day_epoch2` → `Some(2)`); `None` for epoch-neutral names.
fn epoch_suffix(name: &str) -> Option<u32> {
    numeric_suffix(name, "_epoch")
}

/// The generation epoch a function name claims membership of via a
/// `_gen{N}` suffix (`generate_gen2` → `Some(2)`); `None` for neutral names.
fn gen_suffix(name: &str) -> Option<u32> {
    numeric_suffix(name, "_gen")
}

fn numeric_suffix(name: &str, marker: &str) -> Option<u32> {
    let (_, tail) = name.rsplit_once(marker)?;
    (!tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()))
        .then(|| tail.parse().ok())
        .flatten()
}

/// The manifest file name for one generation epoch: the bare
/// `determinism.gen.toml` when only one generation epoch is live, else the
/// per-epoch `determinism.gen{N}.toml`. The `determinism.gen` prefix is what
/// distinguishes a pinned generation manifest from a traffic one.
pub fn gen_manifest_file(gen_epochs: &[u32], epoch: u32) -> String {
    if gen_epochs.len() <= 1 {
        "determinism.gen.toml".to_owned()
    } else {
        format!("determinism.gen{epoch}.toml")
    }
}

/// Whether a pinned manifest file name declares a *generation* contract
/// (see [`gen_manifest_file`]) rather than a traffic one.
pub fn is_gen_manifest(file: &str) -> bool {
    file.starts_with("determinism.gen")
}

/// The result roots: every draw reachable from these is part of the epoch
/// contract. `(owner, name)` pairs matched against the symbol table.
pub const ROOTS: &[(&str, &str)] = &[("World", "simulate_day_into"), ("Study", "run")];

/// One draw issued by a function body: a call-site offset plus its kind
/// (`substream`, `uniform`, `range`, `normal`, `poisson`, `chance`, `alias`,
/// or the callee name for nested draw functions).
#[derive(Debug, Clone)]
pub struct Draw {
    /// Absolute byte offset of the call in the file's masked text.
    pub at: usize,
    /// Canonical draw-kind label.
    pub kind: String,
}

/// The full workspace analysis: symbols, per-function draws, reachability.
#[derive(Debug)]
pub struct EpochAnalysis {
    /// Every function item in the workspace.
    pub fns: Vec<FnSym>,
    /// `draws[f]` — f's draw sites in source order.
    pub draws: Vec<Vec<Draw>>,
    /// Indices of functions reachable from [`ROOTS`] under *any* epoch.
    pub reachable: BTreeSet<usize>,
    /// Live epochs declared by `_epoch{N}` function suffixes, sorted;
    /// `[epoch_const or 1]` when no suffixed functions exist.
    pub epochs: Vec<u32>,
    /// Per-epoch reachability: the [`ROOTS`] traversal with every *other*
    /// epoch's suffixed functions (and, when the generation dimension is
    /// live, every gen-suffixed function) cut out.
    pub reachable_by_epoch: BTreeMap<u32, BTreeSet<usize>>,
    /// Live generation epochs declared by `_gen{N}` function suffixes,
    /// sorted; empty when the dimension is inert (no gen-suffixed fns).
    pub gen_epochs: Vec<u32>,
    /// Per-generation-epoch reachability: the [`ROOTS`] traversal with every
    /// *other* generation epoch's suffixed functions and every
    /// traffic-suffixed function cut out.
    pub reachable_by_gen: BTreeMap<u32, BTreeSet<usize>>,
    /// Whether at least one root function was found.
    pub roots_found: bool,
    /// Value of the `DETERMINISM_EPOCH` constant found in the sources.
    pub epoch_const: Option<u32>,
    /// Value of the `GENERATION_EPOCH` constant found in the sources.
    pub gen_epoch_const: Option<u32>,
    /// Cross-statement unordered-iteration findings: (fn index, offset,
    /// message).
    pub unordered: Vec<(usize, usize, String)>,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The binding name declared before the `:` that `head` runs up to
/// (`"rng: &mut rand::rngs::"` → `rng`), skipping `::` path separators.
fn binding_before_colon(head: &str) -> Option<String> {
    let b = head.as_bytes();
    let mut k = b.len();
    while k > 0 {
        k -= 1;
        if b[k] == b':' {
            if k > 0 && b[k - 1] == b':' {
                k -= 1;
                continue;
            }
            if b.get(k + 1) == Some(&b':') {
                continue;
            }
            let name: String = head[..k]
                .trim_end()
                .chars()
                .rev()
                .take_while(|&c| is_ident(c))
                .collect();
            let name: String = name.chars().rev().collect();
            return (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()))
                .then_some(name);
        }
    }
    None
}

/// The `let [mut] NAME` binding that opens the statement `upto` sits in.
fn let_binding_of_stmt(masked: &str, range_lo: usize, upto: usize) -> Option<String> {
    let stmt_start = masked[range_lo..upto]
        .rfind([';', '{', '}'])
        .map(|p| range_lo + p + 1)
        .unwrap_or(range_lo);
    let stmt = &masked[stmt_start..upto];
    let let_at = rules::word_occurrences(stmt, "let").last().copied()?;
    let mut rest = stmt[let_at + 3..].trim_start();
    if let Some(r) = rest.strip_prefix("mut ") {
        rest = r.trim_start();
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Identifiers bound to a `SmallRng` inside one function: `&mut SmallRng`
/// parameters plus `let [mut] x = substream(..)` / `SmallRng::..` bindings.
fn rng_idents(masked: &str, f: &FnSym, sites: &[CallSite]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let sig = &masked[f.sig_span.0..f.sig_span.1];
    for at in rules::word_occurrences(sig, "SmallRng") {
        if let Some(name) = binding_before_colon(&sig[..at]) {
            out.insert(name);
        }
    }
    for c in sites {
        let creates_rng = c.name == "substream"
            || (c.name == "seed_from_u64" && c.qualifier.as_deref() == Some("SmallRng"));
        if !creates_rng {
            continue;
        }
        if let Some(name) = let_binding_of_stmt(masked, f.body_span.0, c.at) {
            out.insert(name);
        }
    }
    out
}

/// Classifies one call site as a draw, if it consumes or derives RNG.
fn classify(c: &CallSite, masked: &str, rngs: &BTreeSet<String>) -> Option<String> {
    if c.name == "substream" {
        return Some("substream".to_owned());
    }
    if c.name == "seed_from_u64" && c.qualifier.as_deref() == Some("SmallRng") {
        return Some("seed".to_owned());
    }
    if c.method {
        if let Some(r) = &c.receiver {
            if rngs.contains(r) {
                return Some(match c.name.as_str() {
                    "random" => "uniform".to_owned(),
                    "random_range" => "range".to_owned(),
                    "random_bool" | "random_ratio" => "chance".to_owned(),
                    "next_u64" | "next_u32" => "word".to_owned(),
                    other => other.to_owned(),
                });
            }
        }
    }
    // RNG passed onward as an argument (a borrow/move, not as the receiver
    // of a nested call — `f(rng.random())` passes a value, not the stream).
    // Only depth-0 occurrences count: in `cast(table.sample(&mut rng))` the
    // stream flows into `sample`, which is its own call site.
    let args = &masked[c.args.0..c.args.1];
    for r in rngs {
        for at in rules::word_occurrences(args, r) {
            let depth = args[..at].bytes().filter(|&b| b == b'(').count() as isize
                - args[..at].bytes().filter(|&b| b == b')').count() as isize;
            if depth != 0 {
                continue;
            }
            let next = args[at + r.len()..].trim_start().chars().next();
            if next != Some('.') {
                return Some(match c.name.as_str() {
                    "normal" | "take_normal" => "normal".to_owned(),
                    "log_normal" | "take_log_normal" => "log-normal".to_owned(),
                    "poisson" | "take_poisson" => "poisson".to_owned(),
                    "chance" | "take_chance" => "chance".to_owned(),
                    "sample" => "alias".to_owned(),
                    // Batched (epoch-2) block samplers draw from the same
                    // stream; canonicalize to the scalar kind vocabulary.
                    "take_word" => "word".to_owned(),
                    "take_f64" => "uniform".to_owned(),
                    "take_index" => "range".to_owned(),
                    other => other.to_owned(),
                });
            }
        }
    }
    None
}

/// Finds the value of a `name: u32 = N` constant in the sources
/// (`DETERMINISM_EPOCH`, `GENERATION_EPOCH`).
fn find_const(files: &[LexedFile], name: &str) -> Option<u32> {
    for f in files {
        for at in rules::word_occurrences(&f.model.masked, name) {
            let window = &f.model.masked[at..(at + 64).min(f.model.masked.len())];
            let Some(eq) = window.find('=') else { continue };
            let digits: String = window[eq + 1..]
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(v) = digits.parse() {
                return Some(v);
            }
        }
    }
    None
}

/// Cross-statement check: a binding collected from hash-container iteration
/// that is later consumed without an intervening sort.
fn check_unordered(
    masked: &str,
    ranges: &[(usize, usize)],
    hash_names: &BTreeSet<String>,
    out: &mut Vec<(usize, String)>,
) {
    for &(lo, hi) in ranges {
        let text = &masked[lo..hi];
        for name in hash_names {
            for at in rules::word_occurrences(text, name) {
                let after = text[at + name.len()..].trim_start();
                if !rules::ITER_METHODS.iter().any(|m| after.starts_with(m)) {
                    continue;
                }
                let stmt_end_rel = match text[at..].find(';') {
                    Some(p) => at + p,
                    None => continue,
                };
                if !text[at..stmt_end_rel].contains(".collect") {
                    continue;
                }
                let Some(binding) = let_binding_of_stmt(masked, lo, lo + at) else {
                    continue;
                };
                let rest = &text[stmt_end_rel..];
                let mut sorted = false;
                let mut consumed = false;
                for use_at in rules::word_occurrences(rest, &binding) {
                    let tail = rest[use_at + binding.len()..].trim_start();
                    if tail.starts_with(".sort") {
                        sorted = true;
                        break;
                    }
                    if tail.starts_with(".len()")
                        || tail.starts_with(".is_empty()")
                        || tail.starts_with(".capacity()")
                    {
                        continue;
                    }
                    consumed = true;
                }
                if !sorted && consumed {
                    out.push((
                        lo + at,
                        format!(
                            "`{binding}` collects `{name}` in hash-iteration order and is \
                             consumed without sorting"
                        ),
                    ));
                }
            }
        }
    }
}

/// Runs the full workspace analysis: symbols → call graph → taint →
/// reachability → unordered-iteration.
pub fn analyze(files: &[LexedFile]) -> EpochAnalysis {
    let fns = symbols::scan(files);
    let g = graph::build(files, &fns);
    let mut draws = Vec::with_capacity(fns.len());
    let mut unordered = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        let masked = &files[f.file].model.masked;
        let rngs = rng_idents(masked, f, &g.sites[i]);
        let mut fn_draws = Vec::new();
        for c in &g.sites[i] {
            if let Some(kind) = classify(c, masked, &rngs) {
                fn_draws.push(Draw { at: c.at, kind });
            }
        }
        draws.push(fn_draws);
        if !f.is_test {
            let ranges = symbols::own_body_ranges(&fns, i);
            let hash_names = rules::hash_container_names(masked);
            let mut hits = Vec::new();
            check_unordered(masked, &ranges, &hash_names, &mut hits);
            unordered.extend(hits.into_iter().map(|(at, msg)| (i, at, msg)));
        }
    }
    let roots: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && ROOTS
                    .iter()
                    .any(|(o, n)| f.owner.as_deref() == Some(*o) && f.name == *n)
        })
        .map(|(i, _)| i)
        .collect();
    let roots_found = !roots.is_empty();
    let epoch_const = find_const(files, "DETERMINISM_EPOCH");
    let gen_epoch_const = find_const(files, "GENERATION_EPOCH");
    // Live epochs: the `_epoch{N}` suffix set over non-test functions, or
    // the single declared/default epoch when nothing is suffixed.
    let mut suffixes: BTreeSet<u32> = fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| epoch_suffix(&f.name))
        .collect();
    if suffixes.is_empty() {
        suffixes.insert(epoch_const.unwrap_or(1));
    }
    let epochs: Vec<u32> = suffixes.into_iter().collect();
    // Live generation epochs: the `_gen{N}` suffix set. No default — an
    // empty set means the generation dimension is inert.
    let gen_epochs: Vec<u32> = fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| gen_suffix(&f.name))
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    // Traffic epoch e: cut the other traffic epochs *and* (when the
    // generation dimension is live) every gen-suffixed function, so draws
    // reachable only through generation live in the gen manifests alone.
    let mut reachable_by_epoch = BTreeMap::new();
    for &e in &epochs {
        let excluded: BTreeSet<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && (epoch_suffix(&f.name).is_some_and(|s| s != e)
                        || gen_suffix(&f.name).is_some())
            })
            .map(|(i, _)| i)
            .collect();
        reachable_by_epoch.insert(e, graph::reachable_excluding(&g, &roots, &excluded));
    }
    // Generation epoch g: the mirror carve — cut the other generation
    // epochs and every traffic-suffixed function.
    let mut reachable_by_gen = BTreeMap::new();
    for &ge in &gen_epochs {
        let excluded: BTreeSet<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && (gen_suffix(&f.name).is_some_and(|s| s != ge)
                        || epoch_suffix(&f.name).is_some())
            })
            .map(|(i, _)| i)
            .collect();
        reachable_by_gen.insert(ge, graph::reachable_excluding(&g, &roots, &excluded));
    }
    let reachable = reachable_by_epoch
        .values()
        .chain(reachable_by_gen.values())
        .flat_map(|s| s.iter().copied())
        .collect();
    EpochAnalysis {
        fns,
        draws,
        reachable,
        epochs,
        reachable_by_epoch,
        gen_epochs,
        reachable_by_gen,
        roots_found,
        epoch_const,
        gen_epoch_const,
        unordered,
    }
}

/// A contract-level inconsistency between the `DETERMINISM_EPOCH` constant
/// and the epochs the sources declare: the constant (the *default* epoch)
/// must be the newest live one.
pub fn epoch_const_mismatch(a: &EpochAnalysis) -> Option<String> {
    let newest = *a.epochs.last()?;
    let konst = a.epoch_const?;
    (konst != newest).then(|| {
        format!(
            "DETERMINISM_EPOCH is {konst} but the newest epoch-suffixed \
             generator declares epoch {newest}"
        )
    })
}

/// A contract-level inconsistency in the generation dimension. Weaker than
/// the traffic rule by design: `GENERATION_EPOCH` (the default) need only be
/// a *member* of the declared set — byte pins may stay frozen on an old
/// generation epoch while a newer one matures behind an explicit opt-in.
pub fn gen_const_mismatch(a: &EpochAnalysis) -> Option<String> {
    if a.gen_epochs.is_empty() {
        return None;
    }
    let declared = || {
        a.gen_epochs
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    match a.gen_epoch_const {
        None => Some(format!(
            "gen-suffixed generators declare generation epochs {{{}}} but no \
             GENERATION_EPOCH constant was found",
            declared()
        )),
        Some(konst) if !a.gen_epochs.contains(&konst) => Some(format!(
            "GENERATION_EPOCH is {konst} but the gen-suffixed generators \
             declare generation epochs {{{}}}",
            declared()
        )),
        Some(_) => None,
    }
}

/// The versioned draw-site contract: an epoch number plus each reachable
/// draw site's ordered kind signature, keyed by qualified function name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Declared epoch version.
    pub epoch: u32,
    /// `fn qname → ordered draw kinds`.
    pub sites: BTreeMap<String, Vec<String>>,
}

impl Manifest {
    /// Builds the manifest the current sources imply for one epoch, over
    /// that epoch's reachable set (falling back to the any-epoch union for
    /// an epoch the sources do not declare, so drift against a stale pinned
    /// file still reports site-level differences).
    pub fn from_analysis(a: &EpochAnalysis, epoch: u32) -> Manifest {
        Manifest::from_reachable(a, epoch, a.reachable_by_epoch.get(&epoch))
    }

    /// Builds the *generation* manifest the current sources imply for one
    /// generation epoch, over that epoch's gen-reachable set (same stale-pin
    /// fallback as [`Manifest::from_analysis`]).
    pub fn from_gen(a: &EpochAnalysis, epoch: u32) -> Manifest {
        Manifest::from_reachable(a, epoch, a.reachable_by_gen.get(&epoch))
    }

    fn from_reachable(
        a: &EpochAnalysis,
        epoch: u32,
        reachable: Option<&BTreeSet<usize>>,
    ) -> Manifest {
        let reachable = reachable.unwrap_or(&a.reachable);
        let mut sites = BTreeMap::new();
        for &i in reachable {
            let f = &a.fns[i];
            if f.is_test || a.draws[i].is_empty() {
                continue;
            }
            sites.insert(
                f.qname.clone(),
                a.draws[i].iter().map(|d| d.kind.clone()).collect(),
            );
        }
        Manifest { epoch, sites }
    }

    /// Renders the manifest in its checked-in TOML form (traffic header).
    pub fn render(&self) -> String {
        self.render_with(
            "# Determinism-epoch contract (generated by `topple-lint epoch emit --write`).\n\
             #\n\
             # Every function below is reachable from the result roots\n\
             # (World::simulate_day_into, Study::run) and issues seeded RNG draws; the\n\
             # `draws` list is its static draw-site sequence in source order. Any change\n\
             # here alters the byte-identical output contract: bump DETERMINISM_EPOCH in\n\
             # crates/sim, regenerate this file, and re-pin the snapshot digest in\n\
             # tests/determinism.rs (see DESIGN.md §14 for the workflow).\n\n",
        )
    }

    /// Renders the manifest with the generation-contract header.
    pub fn render_gen(&self) -> String {
        self.render_with(
            "# Generation-epoch contract (generated by `topple-lint epoch emit --write`).\n\
             #\n\
             # Every function below is reachable from the result roots through the\n\
             # world *generator* for this generation epoch (`_gen{N}`-suffixed dispatch)\n\
             # and issues seeded RNG draws; the `draws` list is its static draw-site\n\
             # sequence in source order. Any change here alters the generated world's\n\
             # byte-identity contract: add a new `_gen{N}` generator (or bump\n\
             # GENERATION_EPOCH if the default moves), regenerate this file, and re-pin\n\
             # the world digests in crates/sim/tests/worldgen.rs (DESIGN.md §18).\n\n",
        )
    }

    fn render_with(&self, header: &str) -> String {
        let mut out = String::new();
        out.push_str(header);
        out.push_str(&format!("epoch = {}\n", self.epoch));
        for (qname, draws) in &self.sites {
            out.push_str("\n[[site]]\n");
            out.push_str(&format!("fn = \"{qname}\"\n"));
            let kinds: Vec<String> = draws.iter().map(|d| format!("\"{d}\"")).collect();
            out.push_str(&format!("draws = [{}]\n", kinds.join(", ")));
        }
        out
    }

    /// Parses the checked-in TOML subset form.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut epoch = None;
        let mut sites = BTreeMap::new();
        let mut current: Option<(String, Vec<String>)> = None;
        let mut pending_site = false;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[site]]" {
                if let Some(done) = current.take() {
                    sites.insert(done.0, done.1);
                }
                pending_site = true;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("{MANIFEST_FILE}:{line_no}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "epoch" => {
                    epoch = Some(
                        value
                            .parse::<u32>()
                            .map_err(|_| format!("{MANIFEST_FILE}:{line_no}: bad epoch"))?,
                    );
                }
                "fn" if pending_site => {
                    let name = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("{MANIFEST_FILE}:{line_no}: fn must be quoted"))?;
                    current = Some((name.to_owned(), Vec::new()));
                }
                "draws" => {
                    let inner = value
                        .strip_prefix('[')
                        .and_then(|v| v.strip_suffix(']'))
                        .ok_or_else(|| {
                            format!("{MANIFEST_FILE}:{line_no}: draws must be a list")
                        })?;
                    let kinds: Vec<String> = inner
                        .split(',')
                        .map(|s| s.trim().trim_matches('"').to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                    match &mut current {
                        Some((_, draws)) => *draws = kinds,
                        None => {
                            return Err(format!("{MANIFEST_FILE}:{line_no}: draws before fn"));
                        }
                    }
                }
                other => {
                    return Err(format!("{MANIFEST_FILE}:{line_no}: unknown key `{other}`"));
                }
            }
        }
        if let Some(done) = current.take() {
            sites.insert(done.0, done.1);
        }
        Ok(Manifest {
            epoch: epoch.ok_or_else(|| format!("{MANIFEST_FILE}: missing `epoch = N`"))?,
            sites,
        })
    }

    /// Loads the named manifest from the workspace root, if present.
    pub fn load(root: &Path, file: &str) -> Result<Option<Manifest>, LintError> {
        let path = root.join(file);
        if !path.is_file() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path).map_err(|source| LintError::Io {
            path: path.clone(),
            source,
        })?;
        Manifest::parse(&text)
            .map(Some)
            .map_err(|message| LintError::Config(crate::config::ConfigError { line: 0, message }))
    }
}

/// Human-readable differences between the computed and pinned manifests.
/// Empty means the contract holds. `file` names the pinned manifest in
/// messages.
pub fn drift(computed: &Manifest, pinned: &Manifest, file: &str) -> Vec<String> {
    let mut out = Vec::new();
    if computed.epoch != pinned.epoch {
        out.push(format!(
            "sources imply epoch {} but {file} declares epoch {}",
            computed.epoch, pinned.epoch
        ));
    }
    for (qname, draws) in &pinned.sites {
        match computed.sites.get(qname) {
            None => out.push(format!(
                "draw site removed: `{qname}` (pinned [{}])",
                draws.join(", ")
            )),
            Some(now) if now != draws => out.push(format!(
                "draw sequence changed in `{qname}`: pinned [{}], computed [{}]",
                draws.join(", "),
                now.join(", ")
            )),
            Some(_) => {}
        }
    }
    for (qname, draws) in &computed.sites {
        if !pinned.sites.contains_key(qname) {
            out.push(format!(
                "draw site added: `{qname}` (computed [{}])",
                draws.join(", ")
            ));
        }
    }
    out
}

/// Appends the graph-rule findings (`rng-leak`, `epoch-drift`,
/// `unordered-iteration`) for an analyzed workspace. `pinned` carries every
/// checked-in manifest as `(file name, manifest)`; drift is computed per
/// manifest against its own epoch's reachable set.
pub fn graph_findings(
    files: &[LexedFile],
    analysis: &EpochAnalysis,
    pinned: &[(String, Manifest)],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let push = |findings: &mut Vec<Finding>,
                rule: &'static str,
                krate: &str,
                file: &str,
                line: usize,
                column: usize,
                message: String,
                suggestion: &'static str,
                snippet: String| {
        let builtin = rules::rule_info(rule)
            .map(|r| r.builtin)
            .unwrap_or(Severity::Warn);
        let severity = config.severity(krate, rule, builtin);
        if severity == Severity::Allow {
            return;
        }
        findings.push(Finding {
            krate: krate.to_owned(),
            file: file.to_owned(),
            rule,
            severity,
            line,
            column,
            message,
            suggestion,
            snippet,
        });
    };

    // rng-leak: RNG bound or drawn in a function outside the reachable set.
    for (i, f) in analysis.fns.iter().enumerate() {
        if f.is_test || analysis.reachable.contains(&i) {
            continue;
        }
        let masked = &files[f.file].model.masked;
        let has_rng = !analysis.draws[i].is_empty()
            || !rng_idents(
                masked,
                f,
                &[], // signature-only: body bindings imply draws already
            )
            .is_empty();
        if !has_rng {
            continue;
        }
        let model = &files[f.file].model;
        if let Some(d) = model.allow_for("rng-leak", f.line) {
            d.used.set(true);
            continue;
        }
        push(
            findings,
            "rng-leak",
            &f.krate,
            &files[f.file].rel,
            f.line,
            model.column_of(model.line_starts[f.line - 1]),
            format!(
                "`{}` consumes seeded RNG but is not reachable from the determinism roots",
                f.qname
            ),
            rules::SUGGEST_RNG_LEAK,
            model.raw_line(f.line).trim().to_owned(),
        );
    }

    // epoch-drift: computed contract vs each pinned per-epoch manifest,
    // plus the constant-vs-declared-epochs consistency check.
    let mut drift_msgs: Vec<(String, String)> = Vec::new();
    if let Some(msg) = epoch_const_mismatch(analysis) {
        drift_msgs.push((manifest_file(&analysis.epochs, analysis.epochs[0]), msg));
    }
    if let Some(msg) = gen_const_mismatch(analysis) {
        drift_msgs.push((
            gen_manifest_file(&analysis.gen_epochs, analysis.gen_epochs[0]),
            msg,
        ));
    }
    for (manifest_name, pinned) in pinned {
        let computed = if is_gen_manifest(manifest_name) {
            Manifest::from_gen(analysis, pinned.epoch)
        } else {
            Manifest::from_analysis(analysis, pinned.epoch)
        };
        for msg in drift(&computed, pinned, manifest_name) {
            drift_msgs.push((manifest_name.clone(), msg));
        }
    }
    for (manifest_name, msg) in drift_msgs {
        // Anchor changed/added sites at their function; removed sites
        // (and epoch mismatches) at the manifest itself.
        let site = analysis
            .fns
            .iter()
            .find(|f| msg.contains(&format!("`{}`", f.qname)));
        let (krate, file, line, snippet) = match site {
            Some(f) => (
                f.krate.clone(),
                files[f.file].rel.clone(),
                f.line,
                files[f.file].model.raw_line(f.line).trim().to_owned(),
            ),
            None => {
                let krate = msg
                    .split('`')
                    .nth(1)
                    .and_then(|q| q.split("::").next())
                    .unwrap_or("workspace")
                    .to_owned();
                (krate, manifest_name, 1, String::new())
            }
        };
        push(
            findings,
            "epoch-drift",
            &krate,
            &file,
            line,
            1,
            msg,
            rules::SUGGEST_EPOCH_DRIFT,
            snippet,
        );
    }

    // unordered-iteration: cross-statement collect-then-consume.
    for &(i, at, ref msg) in &analysis.unordered {
        let f = &analysis.fns[i];
        let model = &files[f.file].model;
        let line = model.line_of(at);
        if model.is_test_line(line) {
            continue;
        }
        if let Some(d) = model.allow_for("unordered-iteration", line) {
            d.used.set(true);
            continue;
        }
        push(
            findings,
            "unordered-iteration",
            &f.krate,
            &files[f.file].rel,
            line,
            model.column_of(at),
            msg.clone(),
            rules::SUGGEST_UNORDERED,
            model.raw_line(line).trim().to_owned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceModel;

    fn lex(src: &str) -> Vec<LexedFile> {
        vec![LexedFile {
            krate: "topple-sim".into(),
            rel: "crates/sim/src/lib.rs".into(),
            model: SourceModel::parse(src),
        }]
    }

    const SIM: &str = "\
pub const DETERMINISM_EPOCH: u32 = 3;
pub fn substream(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
pub fn chance(rng: &mut SmallRng, p: f64) -> bool { rng.random::<f64>() < p }
struct World;
impl World {
    pub fn simulate_day_into(&self, seed: u64) {
        let mut rng = substream(seed);
        if chance(&mut rng, 0.5) { let _ = rng.random_range(0..4); }
    }
}
struct Study;
impl Study {
    pub fn run(w: &World) { w.simulate_day_into(7); }
}
fn stray(rng: &mut SmallRng) -> f64 { rng.random() }
";

    #[test]
    fn taint_reaches_through_the_graph() {
        let files = lex(SIM);
        let a = analyze(&files);
        assert!(a.roots_found);
        assert_eq!(a.epoch_const, Some(3));
        assert_eq!(a.epochs, [3], "no suffixed fns → the declared epoch");
        let m = Manifest::from_analysis(&a, 3);
        assert_eq!(m.epoch, 3);
        let names: Vec<&str> = m.sites.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "topple-sim::lib::World::simulate_day_into",
                "topple-sim::lib::chance",
                "topple-sim::lib::substream",
            ],
            "{m:#?}"
        );
        assert_eq!(
            m.sites["topple-sim::lib::World::simulate_day_into"],
            ["substream", "chance", "range"]
        );
        assert_eq!(m.sites["topple-sim::lib::chance"], ["uniform"]);
        assert_eq!(m.sites["topple-sim::lib::substream"], ["seed"]);
        // `stray` consumes RNG but is unreachable.
        let stray = a
            .fns
            .iter()
            .position(|f| f.name == "stray")
            .expect("stray present");
        assert!(!a.reachable.contains(&stray));
        assert!(!a.draws[stray].is_empty());
    }

    #[test]
    fn manifest_round_trips_and_diffs() {
        let files = lex(SIM);
        let computed = Manifest::from_analysis(&analyze(&files), 3);
        let parsed = Manifest::parse(&computed.render()).expect("round trip");
        assert_eq!(parsed, computed);
        assert!(drift(&computed, &parsed, MANIFEST_FILE).is_empty());

        let mut pinned = computed.clone();
        pinned
            .sites
            .insert("topple-sim::lib::gone".into(), vec!["uniform".into()]);
        if let Some(draws) = pinned.sites.get_mut("topple-sim::lib::chance") {
            draws.push("uniform".into());
        }
        pinned.sites.remove("topple-sim::lib::substream");
        pinned.epoch = 2;
        let msgs = drift(&computed, &pinned, MANIFEST_FILE);
        assert_eq!(msgs.len(), 4, "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains("declares epoch 2")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("removed: `topple-sim::lib::gone`")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("changed in `topple-sim::lib::chance`")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("added: `topple-sim::lib::substream`")));
    }

    #[test]
    fn value_passing_calls_are_not_draws() {
        // `nav_host(mobile, rng.random())` passes a value, not the stream:
        // the inner `.random()` is the draw, the outer call is not.
        let src = "\
struct World;
impl World {
    pub fn simulate_day_into(&self, rng: &mut SmallRng) {
        let h = nav_host(true, rng.random());
        let i = widen(pick(rng));
    }
}
struct Study;
impl Study { pub fn run() {} }
fn nav_host(mobile: bool, coin: f64) -> u8 { 0 }
fn pick(rng: &mut SmallRng) -> u32 { rng.random() }
fn widen(x: u32) -> usize { x as usize }
";
        let files = lex(src);
        let m = Manifest::from_analysis(&analyze(&files), 1);
        assert_eq!(
            m.sites["topple-sim::lib::World::simulate_day_into"],
            ["uniform", "pick"],
            "{m:#?}"
        );
        assert!(!m.sites.contains_key("topple-sim::lib::nav_host"));
        // `widen` receives a drawn value, never the stream.
        assert!(!m.sites.contains_key("topple-sim::lib::widen"));
    }

    #[test]
    fn suffixed_variants_split_the_contract_per_epoch() {
        // A dispatcher root fanning out to per-epoch generator variants:
        // each epoch's manifest must contain only its own variant (plus the
        // shared helpers), and the batched draw names canonicalize.
        let src = "\
pub const DETERMINISM_EPOCH: u32 = 2;
struct World;
impl World {
    pub fn simulate_day_into(&self, seed: u64) {
        self.simulate_day_epoch1(seed);
        self.simulate_day_epoch2(seed);
    }
    fn simulate_day_epoch1(&self, seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random::<f64>();
    }
    fn simulate_day_epoch2(&self, seed: u64) {
        let mut rng = substream(seed);
        let _ = block.take_poisson(&mut rng, 2.0);
        let _ = block.take_index(&mut rng, 4);
    }
}
struct Study;
impl Study { pub fn run(w: &World) { w.simulate_day_into(7); } }
pub fn substream(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
";
        let files = lex(src);
        let a = analyze(&files);
        assert_eq!(a.epochs, [1, 2]);
        assert!(epoch_const_mismatch(&a).is_none());
        assert_eq!(manifest_file(&a.epochs, 1), "determinism.epoch1.toml");

        let m1 = Manifest::from_analysis(&a, 1);
        let m2 = Manifest::from_analysis(&a, 2);
        assert!(m1
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_epoch1"));
        assert!(!m1
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_epoch2"));
        assert!(!m2
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_epoch1"));
        assert_eq!(
            m2.sites["topple-sim::lib::World::simulate_day_epoch2"],
            ["substream", "poisson", "range"],
            "{m2:#?}"
        );
        // Shared helper appears in both epochs' contracts.
        assert!(m1.sites.contains_key("topple-sim::lib::substream"));
        assert!(m2.sites.contains_key("topple-sim::lib::substream"));
    }

    #[test]
    fn gen_suffixes_carve_an_independent_generation_dimension() {
        // Traffic epochs 1/2 and generation epochs 1/2 live side by side:
        // traffic manifests must exclude everything reachable only through
        // the gen-suffixed generators, and vice versa, while shared helpers
        // stay in both. The GENERATION_EPOCH constant (1, the frozen
        // default) is a member of {1, 2} — membership is sufficient.
        let src = "\
pub const DETERMINISM_EPOCH: u32 = 2;
pub const GENERATION_EPOCH: u32 = 1;
struct World;
impl World {
    pub fn generate(seed: u64) {
        Self::generate_gen1(seed);
        Self::generate_gen2(seed);
    }
    fn generate_gen1(seed: u64) {
        let mut rng = substream(seed);
        mint(&mut rng);
    }
    fn generate_gen2(seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random::<f64>();
        mint(&mut rng);
    }
    pub fn simulate_day_into(&self, seed: u64) {
        self.simulate_day_epoch1(seed);
        self.simulate_day_epoch2(seed);
    }
    fn simulate_day_epoch1(&self, seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random::<f64>();
    }
    fn simulate_day_epoch2(&self, seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random_range(0..4);
    }
}
struct Study;
impl Study {
    pub fn run(w: &World) {
        World::generate(7);
        w.simulate_day_into(7);
    }
}
pub fn substream(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
fn mint(rng: &mut SmallRng) -> u32 { rng.random() }
";
        let files = lex(src);
        let a = analyze(&files);
        assert_eq!(a.epochs, [1, 2]);
        assert_eq!(a.gen_epochs, [1, 2]);
        assert_eq!(a.gen_epoch_const, Some(1));
        assert!(epoch_const_mismatch(&a).is_none());
        assert!(gen_const_mismatch(&a).is_none(), "membership suffices");
        assert_eq!(gen_manifest_file(&a.gen_epochs, 1), "determinism.gen1.toml");
        assert_eq!(gen_manifest_file(&[2], 2), "determinism.gen.toml");
        assert!(is_gen_manifest("determinism.gen2.toml"));
        assert!(!is_gen_manifest("determinism.epoch2.toml"));

        // Traffic manifests: no generator functions, no gen-only helpers.
        let t1 = Manifest::from_analysis(&a, 1);
        assert!(t1
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_epoch1"));
        assert!(!t1
            .sites
            .contains_key("topple-sim::lib::World::generate_gen1"));
        assert!(
            !t1.sites.contains_key("topple-sim::lib::mint"),
            "mint is reachable only through generation: {t1:#?}"
        );
        assert!(t1.sites.contains_key("topple-sim::lib::substream"));

        // Generation manifests: only the matching generator plus shared
        // helpers; no traffic simulators.
        let g1 = Manifest::from_gen(&a, 1);
        let g2 = Manifest::from_gen(&a, 2);
        assert!(g1
            .sites
            .contains_key("topple-sim::lib::World::generate_gen1"));
        assert!(!g1
            .sites
            .contains_key("topple-sim::lib::World::generate_gen2"));
        assert!(!g2
            .sites
            .contains_key("topple-sim::lib::World::generate_gen1"));
        assert_eq!(
            g2.sites["topple-sim::lib::World::generate_gen2"],
            ["substream", "uniform", "mint"],
            "{g2:#?}"
        );
        assert!(g1.sites.contains_key("topple-sim::lib::mint"));
        assert!(!g1
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_epoch1"));

        // Both dimensions contribute to the rng-leak reachable union.
        let mint_idx = a.fns.iter().position(|f| f.name == "mint").unwrap();
        assert!(a.reachable.contains(&mint_idx));

        // A gen manifest round-trips through the gen renderer.
        let parsed = Manifest::parse(&g2.render_gen()).expect("round trip");
        assert_eq!(parsed, g2);
    }

    #[test]
    fn gen_dimension_is_inert_without_suffixed_generators() {
        let files = lex(SIM);
        let a = analyze(&files);
        assert!(a.gen_epochs.is_empty());
        assert!(a.reachable_by_gen.is_empty());
        assert!(gen_const_mismatch(&a).is_none());
    }

    #[test]
    fn gen_const_must_be_a_declared_member() {
        let src = "\
pub const GENERATION_EPOCH: u32 = 3;
struct World;
impl World {
    pub fn simulate_day_into(&self, seed: u64) { Self::generate_gen2(seed); }
    fn generate_gen2(seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random::<f64>();
    }
}
struct Study;
impl Study { pub fn run() {} }
pub fn substream(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
";
        let files = lex(src);
        let a = analyze(&files);
        assert_eq!(a.gen_epochs, [2]);
        let msg = gen_const_mismatch(&a).expect("3 is not a declared gen epoch");
        assert!(msg.contains("GENERATION_EPOCH is 3"), "{msg}");
        assert!(msg.contains("{2}"), "{msg}");
    }

    #[test]
    fn epoch_const_must_match_the_newest_variant() {
        let src = "\
pub const DETERMINISM_EPOCH: u32 = 1;
struct World;
impl World {
    pub fn simulate_day_into(&self, rng: &mut SmallRng) { self.simulate_day_epoch2(rng); }
    fn simulate_day_epoch2(&self, rng: &mut SmallRng) { let _ = rng.random::<f64>(); }
}
struct Study;
impl Study { pub fn run() {} }
";
        let files = lex(src);
        let a = analyze(&files);
        let msg = epoch_const_mismatch(&a).expect("constant lags the sources");
        assert!(msg.contains("DETERMINISM_EPOCH is 1"), "{msg}");
        assert!(msg.contains("epoch 2"), "{msg}");
    }

    #[test]
    fn unordered_iteration_flags_unsorted_consumption() {
        let src = "\
fn bad(m: &HashMap<u32, u32>) -> u32 {
    let mut v: Vec<u32> = m.keys().copied().collect();
    v.first().copied().unwrap_or(0)
}
fn good(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = m.keys().copied().collect();
    v.sort();
    v
}
";
        let files = lex(src);
        let a = analyze(&files);
        assert_eq!(a.unordered.len(), 1, "{:#?}", a.unordered);
        let (i, _, msg) = &a.unordered[0];
        assert_eq!(a.fns[*i].name, "bad");
        assert!(msg.contains("without sorting"), "{msg}");
    }
}
