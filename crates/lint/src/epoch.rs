//! The determinism-epoch contract: RNG taint analysis over the call graph.
//!
//! Every byte-identity guarantee in this workspace reduces to one property:
//! the *sequence* of RNG draws issued under the result roots never changes
//! without a versioned epoch bump. This module computes that sequence
//! statically — it marks every function that binds a `SmallRng` (parameter
//! or `substream(..)` binding) or issues a draw, walks the call graph from
//! [`ROOTS`], and emits each reachable draw site with its ordered draw-kind
//! signature. The result is compared against the checked-in manifests: any
//! divergence is `epoch-drift`, RNG consumed outside the reachable set is
//! `rng-leak`, and the same function-body machinery powers the
//! cross-statement `unordered-iteration` check the per-line rules cannot
//! express.
//!
//! # Two contracts, split by root
//!
//! World *generation* versions independently of traffic simulation, so the
//! draw universe is split into two contracts by where the traversal starts:
//!
//! * the **generation** contract is everything [`GEN_ROOT`]
//!   (`World::generate_instrumented`) reaches, pinned in
//!   [`GEN_MANIFEST_FILE`] under the `GENERATION_EPOCH` constant;
//! * the **traffic** contract is everything [`ROOTS`] reach once
//!   [`GEN_ROOT`] is cut out of the graph, pinned in [`MANIFEST_FILE`] under
//!   the `DETERMINISM_EPOCH` constant.
//!
//! Calls resolve by name, so the generation traversal likewise stops at
//! [`ROOTS`]: a generic method name inside the generator must not pull the
//! traffic simulator into the generation contract.
//!
//! Shared helpers reachable from both (`substream`, say) appear in both
//! manifests. A workspace without a [`GEN_ROOT`] has only the traffic
//! contract.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::config::{Config, Severity};
use crate::graph::{self, CallSite};
use crate::symbols::{self, FnSym};
use crate::{rules, Finding, LexedFile, LintError};

/// File name of the traffic manifest at the workspace root.
pub const MANIFEST_FILE: &str = "determinism.epoch.toml";

/// File name of the generation manifest at the workspace root.
pub const GEN_MANIFEST_FILE: &str = "determinism.gen.toml";

/// The result roots: every draw reachable from these is part of one of the
/// two contracts. `(owner, name)` pairs matched against the symbol table.
pub const ROOTS: &[(&str, &str)] = &[("World", "simulate_day_into"), ("Study", "run")];

/// The generation root: everything it reaches is the generation contract,
/// and the traffic traversal stops at it.
pub const GEN_ROOT: (&str, &str) = ("World", "generate_instrumented");

/// One of the two pinned draw-sequence contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Traffic simulation, versioned by `DETERMINISM_EPOCH`.
    Traffic,
    /// World generation, versioned by `GENERATION_EPOCH`.
    Generation,
}

impl Contract {
    /// The pinned manifest's file name at the workspace root.
    pub fn file(self) -> &'static str {
        match self {
            Contract::Traffic => MANIFEST_FILE,
            Contract::Generation => GEN_MANIFEST_FILE,
        }
    }

    /// Label used in `epoch verify` / `epoch emit --write` output.
    pub fn label(self) -> &'static str {
        match self {
            Contract::Traffic => "epoch",
            Contract::Generation => "gen epoch",
        }
    }

    fn header(self) -> &'static str {
        match self {
            Contract::Traffic => {
                "# Determinism-epoch contract (generated by `topple-lint epoch emit --write`).\n\
                 #\n\
                 # Every function below is reachable from the result roots\n\
                 # (World::simulate_day_into, Study::run) once world generation\n\
                 # (World::generate_instrumented) is cut out, and issues seeded RNG draws; the\n\
                 # `draws` list is its static draw-site sequence in source order. Any change\n\
                 # here alters the byte-identical output contract: bump DETERMINISM_EPOCH in\n\
                 # crates/sim, regenerate this file, and re-pin the snapshot digest in\n\
                 # tests/determinism.rs (see DESIGN.md §14 for the workflow).\n\n"
            }
            Contract::Generation => {
                "# Generation-epoch contract (generated by `topple-lint epoch emit --write`).\n\
                 #\n\
                 # Every function below is reachable from the world generator\n\
                 # (World::generate_instrumented) and issues seeded RNG draws; the `draws`\n\
                 # list is its static draw-site sequence in source order. Any change here\n\
                 # alters the generated world's byte-identity contract: bump\n\
                 # GENERATION_EPOCH in crates/sim, regenerate this file, and re-pin the world\n\
                 # digests in crates/sim/tests/worldgen.rs (DESIGN.md §18).\n\n"
            }
        }
    }
}

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
    /// Indices of functions in either contract (the `rng-leak` baseline).
    pub reachable: BTreeSet<usize>,
    /// The traffic contract: reachable from [`ROOTS`] with [`GEN_ROOT`] cut.
    pub traffic: BTreeSet<usize>,
    /// The generation contract: reachable from [`GEN_ROOT`] with [`ROOTS`]
    /// cut; empty exactly when the sources define no generation root.
    pub generation: BTreeSet<usize>,
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
    let find = |root: &[(&str, &str)]| -> Vec<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && root
                        .iter()
                        .any(|(o, n)| f.owner.as_deref() == Some(*o) && f.name == *n)
            })
            .map(|(i, _)| i)
            .collect()
    };
    // Each traversal stops at the other contract's roots: calls resolve by
    // name, so without the cut a generic call inside the generator (a
    // thread `spawn`, say) would pull the whole study into generation.
    let roots = find(ROOTS);
    let gen_roots = find(&[GEN_ROOT]);
    let generation = graph::reachable_excluding(&g, &gen_roots, &roots.iter().copied().collect());
    let traffic = graph::reachable_excluding(&g, &roots, &gen_roots.iter().copied().collect());
    EpochAnalysis {
        reachable: traffic.union(&generation).copied().collect(),
        roots_found: !roots.is_empty(),
        epoch_const: find_const(files, "DETERMINISM_EPOCH"),
        gen_epoch_const: find_const(files, "GENERATION_EPOCH"),
        fns,
        draws,
        traffic,
        generation,
        unordered,
    }
}

impl EpochAnalysis {
    /// The contracts the sources define: traffic always, generation when
    /// they define [`GEN_ROOT`].
    pub fn contracts(&self) -> Vec<Contract> {
        let mut out = vec![Contract::Traffic];
        if !self.generation.is_empty() {
            out.push(Contract::Generation);
        }
        out
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
    /// Builds the manifest the current sources imply for one contract: its
    /// reachable draw sites under the epoch its constant declares (1 when
    /// the constant is absent).
    pub fn from_analysis(a: &EpochAnalysis, contract: Contract) -> Manifest {
        let (reachable, konst) = match contract {
            Contract::Traffic => (&a.traffic, a.epoch_const),
            Contract::Generation => (&a.generation, a.gen_epoch_const),
        };
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
        Manifest {
            epoch: konst.unwrap_or(1),
            sites,
        }
    }

    /// Renders the manifest in its checked-in TOML form, under the
    /// contract's header.
    pub fn render(&self, contract: Contract) -> String {
        let mut out = String::new();
        out.push_str(contract.header());
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
/// checked-in manifest with its contract; drift is computed per manifest
/// against its own contract's reachable set.
pub fn graph_findings(
    files: &[LexedFile],
    analysis: &EpochAnalysis,
    pinned: &[(Contract, Manifest)],
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

    // epoch-drift: each contract's computed manifest vs its pinned one.
    let mut drift_msgs: Vec<(String, String)> = Vec::new();
    for (contract, pinned) in pinned {
        let computed = Manifest::from_analysis(analysis, *contract);
        for msg in drift(&computed, pinned, contract.file()) {
            drift_msgs.push((contract.file().to_owned(), msg));
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
        assert_eq!(a.contracts(), [Contract::Traffic], "no generation root");
        let m = Manifest::from_analysis(&a, Contract::Traffic);
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
        let computed = Manifest::from_analysis(&analyze(&files), Contract::Traffic);
        let parsed = Manifest::parse(&computed.render(Contract::Traffic)).expect("round trip");
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
        let m = Manifest::from_analysis(&analyze(&files), Contract::Traffic);
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
    fn generation_root_splits_the_contracts() {
        // The generation contract is what the generator reaches; the traffic
        // contract is what the result roots reach with the generator cut
        // out. Shared helpers stay in both.
        let src = "\
pub const DETERMINISM_EPOCH: u32 = 2;
pub const GENERATION_EPOCH: u32 = 5;
struct World;
impl World {
    pub fn generate(seed: u64) { Self::generate_instrumented(seed); }
    pub fn generate_instrumented(seed: u64) {
        let mut rng = substream(seed);
        let _ = rng.random::<f64>();
        mint(&mut rng);
        fan_out(seed);
    }
    pub fn simulate_day_into(&self, seed: u64) {
        let mut rng = substream(seed);
        let _ = block.take_poisson(&mut rng, 2.0);
        let _ = block.take_index(&mut rng, 4);
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
fn fan_out(seed: u64) { Study::run(&World); }
";
        let files = lex(src);
        let a = analyze(&files);
        assert_eq!(a.contracts(), [Contract::Traffic, Contract::Generation]);

        // Traffic: no generator, no generation-only helper; the batched
        // draw names canonicalize.
        let t = Manifest::from_analysis(&a, Contract::Traffic);
        assert_eq!(t.epoch, 2);
        assert_eq!(
            t.sites["topple-sim::lib::World::simulate_day_into"],
            ["substream", "poisson", "range"],
            "{t:#?}"
        );
        assert!(!t
            .sites
            .contains_key("topple-sim::lib::World::generate_instrumented"));
        assert!(
            !t.sites.contains_key("topple-sim::lib::mint"),
            "mint is reachable only through generation: {t:#?}"
        );
        assert!(t.sites.contains_key("topple-sim::lib::substream"));

        // Generation: the generator and its helpers, no traffic simulator
        // (not even through `fan_out`, which reaches a traffic root).
        let g = Manifest::from_analysis(&a, Contract::Generation);
        assert_eq!(g.epoch, 5);
        assert_eq!(
            g.sites["topple-sim::lib::World::generate_instrumented"],
            ["substream", "uniform", "mint"],
            "{g:#?}"
        );
        assert!(g.sites.contains_key("topple-sim::lib::mint"));
        assert!(g.sites.contains_key("topple-sim::lib::substream"));
        assert!(!g
            .sites
            .contains_key("topple-sim::lib::World::simulate_day_into"));

        // Both contracts feed the rng-leak reachable union.
        let mint_idx = a.fns.iter().position(|f| f.name == "mint").unwrap();
        assert!(a.reachable.contains(&mint_idx));

        // A generation manifest round-trips through its own header.
        let parsed = Manifest::parse(&g.render(Contract::Generation)).expect("round trip");
        assert_eq!(parsed, g);
    }

    #[test]
    fn generation_contract_is_inert_without_its_root() {
        let files = lex(SIM);
        let a = analyze(&files);
        assert!(a.generation.is_empty());
        assert_eq!(a.contracts(), [Contract::Traffic]);
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
