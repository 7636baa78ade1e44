//! The lint rules.
//!
//! Three rule families, mirroring the invariants the reproduction depends on:
//!
//! * **Determinism (L1)** — `hash-iter`, `wall-clock`, `unseeded-rng`. The
//!   paper's comparisons are rank correlations over full list snapshots; any
//!   nondeterministic ordering or entropy source upstream of a list silently
//!   changes every downstream figure.
//! * **Panic-freedom (L2)** — `unwrap`, `panic`, `indexing`. Library crates
//!   must surface errors as values; a panic half-way through a month-long
//!   simulated study loses the run.
//! * **Float hygiene (L3)** — `float-eq`, `lossy-cast`. Exact float equality
//!   and truncating casts are where rank/score arithmetic quietly diverges
//!   between platforms.
//!
//! Detection is token-textual over the masked source (see `lexer`): no type
//! inference, so each rule leans on local declarations plus conservative
//! heuristics, with `// topple-lint: allow(rule): why` as the escape hatch.

use std::collections::BTreeSet;

use crate::config::Severity;
use crate::lexer::SourceModel;

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable identifier, used in config and allow directives.
    pub id: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
    /// Severity when neither `lint.toml` table mentions the rule.
    pub builtin: Severity,
}

/// Every rule the linter knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iter",
        summary: "iterating a std HashMap/HashSet in a result path (nondeterministic order)",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "wall-clock",
        summary: "reading the wall clock (SystemTime::now/Instant::now) in deterministic code",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "unseeded-rng",
        summary: "entropy-seeded RNG (thread_rng/from_entropy) breaks reproducibility",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "unwrap",
        summary: ".unwrap()/.expect() in library code",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "panic",
        summary: "panic!/unreachable!/todo!/unimplemented! in library code",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "indexing",
        summary: "slice/array indexing that can panic",
        builtin: Severity::Warn,
    },
    RuleInfo {
        id: "float-eq",
        summary: "exact == / != comparison on floating point",
        builtin: Severity::Warn,
    },
    RuleInfo {
        id: "lossy-cast",
        summary: "truncating `as` cast to an integer type",
        builtin: Severity::Allow,
    },
    RuleInfo {
        id: "string-set",
        summary: "HashSet of domain strings in a result path (intern to dense ids instead)",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "hot-alloc",
        summary: "heap allocation inside a tagged per-event hot path (hot-path-begin/end region)",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "rng-leak",
        summary: "seeded RNG consumed outside the determinism-epoch call graph",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "epoch-drift",
        summary:
            "reachable draw-site set differs from determinism.epoch.toml for the declared epoch",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "unordered-iteration",
        summary: "hash-container iteration collected and later consumed without sorting",
        builtin: Severity::Warn,
    },
    RuleInfo {
        id: "allow-empty",
        summary: "topple-lint allow directive without a justification",
        builtin: Severity::Deny,
    },
    RuleInfo {
        id: "allow-unused",
        summary: "topple-lint allow directive that suppresses nothing",
        builtin: Severity::Warn,
    },
];

/// Looks a rule up by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// A violation before severity resolution (no crate/file context yet).
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// What was found.
    pub message: String,
    /// How to fix it (rendered in `--suggest` mode).
    pub suggestion: &'static str,
}

const SUGGEST_HASH_ITER: &str = "switch the container to BTreeMap/BTreeSet, collect-and-sort \
     before consuming, or justify with `// topple-lint: allow(hash-iter): <why order cannot leak>`";
const SUGGEST_WALL_CLOCK: &str = "thread simulated time through explicitly; wall-clock reads \
     belong only in timing harnesses behind `// topple-lint: allow(wall-clock): <why>`";
const SUGGEST_UNSEEDED_RNG: &str =
    "derive the RNG from the study seed (SmallRng::seed_from_u64) so runs reproduce";
const SUGGEST_UNWRAP: &str = "return a typed error (crate error enum + `?`) or, if genuinely \
     infallible, justify with `// topple-lint: allow(unwrap): <invariant>`";
const SUGGEST_PANIC: &str =
    "convert to a Result with the crate's error enum, or justify the invariant in an allow directive";
const SUGGEST_INDEXING: &str =
    "use .get()/.get_mut() and handle None, or justify the bound in an allow directive";
const SUGGEST_FLOAT_EQ: &str =
    "compare with an explicit epsilon ((a - b).abs() < EPS) or total_cmp for orderings";
const SUGGEST_LOSSY_CAST: &str =
    "go through a checked-cast helper (e.g. topple_stats::cast) so truncation is a handled error";
const SUGGEST_STRING_SET: &str = "intern the domains once (topple_lists::DomainTable) and \
     compare sorted id slices (topple_stats::sets::jaccard_sorted / compare::IdCut); a string \
     set re-hashes every entry on every comparison";
const SUGGEST_HOT_ALLOC: &str = "hoist the allocation into reusable scratch (epoch-stamped \
     tables, see topple_vantage::scratch) or out of the per-event loop; if the allocation is \
     genuinely amortized, justify with `// topple-lint: allow(hot-alloc): <why>`";
pub(crate) const SUGGEST_RNG_LEAK: &str = "route the function through the declared roots \
     (World::simulate_day_into / Study::run) so its draws join the epoch manifest, drop the RNG \
     parameter, or justify with `// topple-lint: allow(rng-leak): <why>`";
pub(crate) const SUGGEST_EPOCH_DRIFT: &str = "the draw sequence changed: bump DETERMINISM_EPOCH \
     in crates/sim, regenerate the manifest with `topple-lint epoch emit --write`, and re-pin the \
     byte snapshot in tests/determinism.rs";
pub(crate) const SUGGEST_UNORDERED: &str = "sort the collected values before consuming them \
     (`v.sort()` / `v.sort_unstable()`), switch to a BTree container, or justify with \
     `// topple-lint: allow(unordered-iteration): <why order cannot leak>`";
const SUGGEST_ALLOW_EMPTY: &str =
    "write the justification: `// topple-lint: allow(rule): <why this is sound>`";
const SUGGEST_ALLOW_UNUSED: &str = "delete the stale directive (or fix the rule id typo)";

/// Integer types a cast to which is potentially truncating.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Hash-container methods that iterate in arbitrary order (shared with the
/// cross-statement `unordered-iteration` analysis in `epoch`).
pub(crate) const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Chain tails that consume an iterator order-insensitively; iteration feeding
/// only these is not a determinism hazard.
const ORDER_INSENSITIVE: &[&str] = &[
    ".sum",
    ".count(",
    ".min(",
    ".max(",
    ".all(",
    ".any(",
    ".product",
    ".contains",
    "BTree",
    "sort",
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of `needle` in `hay` with identifier boundaries on both ends.
pub(crate) fn word_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        from = at + needle.len().max(1);
        let before_ok = at == 0 || !hay[..at].chars().next_back().map(is_ident).unwrap_or(false);
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.map(is_ident).unwrap_or(false);
        if before_ok && after_ok {
            out.push(at);
        }
    }
    out
}

/// Plain substring offsets (for needles that carry their own delimiters,
/// like `.unwrap()`).
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        out.push(from + rel);
        from = from + rel + needle.len().max(1);
    }
    out
}

/// Runs every rule over one lexed file.
pub fn check_file(model: &SourceModel) -> Vec<RawViolation> {
    let mut out = check_lexical(model);
    check_directives(model, &mut out);
    out.sort_by_key(|v| (v.line, v.column));
    out
}

/// Runs the per-line lexical rules only — no directive audit. The workspace
/// driver uses this so the call-graph pass can consume allow directives
/// before [`check_directives_pass`] decides which ones are stale.
pub fn check_lexical(model: &SourceModel) -> Vec<RawViolation> {
    let mut out = Vec::new();
    check_hash_iter(model, &mut out);
    check_wall_clock(model, &mut out);
    check_unseeded_rng(model, &mut out);
    check_unwrap(model, &mut out);
    check_panic(model, &mut out);
    check_indexing(model, &mut out);
    check_float_eq(model, &mut out);
    check_lossy_cast(model, &mut out);
    check_string_set(model, &mut out);
    check_hot_alloc(model, &mut out);
    out.sort_by_key(|v| (v.line, v.column));
    out
}

/// Audits allow directives (`allow-empty`, `allow-unused`) — run last, after
/// every rule that could mark a directive used.
pub fn check_directives_pass(model: &SourceModel) -> Vec<RawViolation> {
    let mut out = Vec::new();
    check_directives(model, &mut out);
    out
}

/// Records a violation unless the line is test-only or covered by a matching
/// allow directive (which gets marked used either way).
fn push(
    model: &SourceModel,
    out: &mut Vec<RawViolation>,
    rule: &'static str,
    offset: usize,
    message: String,
    suggestion: &'static str,
) {
    let line = model.line_of(offset);
    if model.is_test_line(line) {
        return;
    }
    if let Some(d) = model.allow_for(rule, line) {
        d.used.set(true);
        return;
    }
    out.push(RawViolation {
        rule,
        line,
        column: model.column_of(offset),
        message,
        suggestion,
    });
}

// ---- L1: determinism ------------------------------------------------------

/// Names bound to a `HashMap`/`HashSet` anywhere in the file: `let` bindings,
/// struct fields and fn parameters (`name: HashMap<..>`).
pub(crate) fn hash_container_names(masked: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for at in word_occurrences(masked, ty) {
            let stmt_start = masked[..at]
                .rfind([';', '{', '}'])
                .map(|p| p + 1)
                .unwrap_or(0);
            let span = &masked[stmt_start..at];
            if let Some(let_at) = word_occurrences(span, "let").first().copied() {
                let mut rest = span[let_at + 3..].trim_start();
                if let Some(r) = rest.strip_prefix("mut ") {
                    rest = r.trim_start();
                }
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                if !name.is_empty() {
                    names.insert(name);
                }
                continue;
            }
            // `name: HashMap<..>` — field or parameter. Find the single colon
            // closest before the type (skipping `::`).
            let bytes = span.as_bytes();
            let mut k = span.len();
            while k > 0 {
                k -= 1;
                if bytes[k] == b':' {
                    if k > 0 && bytes[k - 1] == b':' {
                        k -= 1;
                        continue;
                    }
                    if bytes.get(k + 1) == Some(&b':') {
                        continue;
                    }
                    // `fn f(x: T) -> HashMap<..>`: the colon belongs to a
                    // parameter, the type is a return type — no binding.
                    if span[k..].contains("->") {
                        break;
                    }
                    let head = span[..k].trim_end();
                    let name: String = head
                        .chars()
                        .rev()
                        .take_while(|&c| is_ident(c))
                        .collect::<String>();
                    let name: String = name.chars().rev().collect();
                    if !name.is_empty() && !name.chars().next().unwrap_or('_').is_ascii_digit() {
                        names.insert(name);
                    }
                    break;
                }
            }
        }
    }
    names
}

fn check_hash_iter(model: &SourceModel, out: &mut Vec<RawViolation>) {
    let masked = &model.masked;
    for name in hash_container_names(masked) {
        for at in word_occurrences(masked, &name) {
            // Method chains often break the line after the receiver.
            let after = masked[at + name.len()..].trim_start();
            let mut hit: Option<&str> = None;
            for m in ITER_METHODS {
                if after.starts_with(m) {
                    // Skip chains that end in an order-insensitive consumer.
                    let stmt_end = after
                        .find(';')
                        .map(|p| p.min(300))
                        .unwrap_or_else(|| after.len().min(300));
                    let tail = &after[..stmt_end];
                    if !ORDER_INSENSITIVE.iter().any(|b| tail.contains(b)) {
                        hit = Some(m.trim_end_matches('('));
                    }
                    break;
                }
            }
            if hit.is_none() {
                // `for x in name {` / `for x in &name {`.
                let before = masked[..at]
                    .trim_end_matches([' ', '&'])
                    .trim_end_matches("mut ");
                let next = after.trim_start().chars().next();
                if before.ends_with(" in")
                    && word_occurrences(&before[before.len().saturating_sub(90)..], "for")
                        .last()
                        .is_some()
                    && next == Some('{')
                {
                    hit = Some("for-in");
                }
            }
            if let Some(how) = hit {
                push(
                    model,
                    out,
                    "hash-iter",
                    at,
                    format!("`{name}` is a hash container; `{how}` iterates it in arbitrary order"),
                    SUGGEST_HASH_ITER,
                );
            }
        }
    }
}

fn check_wall_clock(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for pat in ["SystemTime::now(", "Instant::now("] {
        for at in find_all(&model.masked, pat) {
            push(
                model,
                out,
                "wall-clock",
                at,
                format!("`{}` reads the wall clock", pat.trim_end_matches('(')),
                SUGGEST_WALL_CLOCK,
            );
        }
    }
}

fn check_unseeded_rng(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for pat in ["thread_rng(", "from_entropy(", "from_os_rng("] {
        for at in find_all(&model.masked, pat) {
            let before_ok = {
                let head = &model.masked[..at];
                !head.chars().next_back().map(is_ident).unwrap_or(false)
                    || head.ends_with('.')
                    || head.ends_with(':')
            };
            if before_ok {
                push(
                    model,
                    out,
                    "unseeded-rng",
                    at,
                    format!("`{}` seeds from process entropy", pat.trim_end_matches('(')),
                    SUGGEST_UNSEEDED_RNG,
                );
            }
        }
    }
}

// ---- L2: panic-freedom ----------------------------------------------------

fn check_unwrap(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for at in find_all(&model.masked, ".unwrap()") {
        push(
            model,
            out,
            "unwrap",
            at,
            "`.unwrap()` panics on the error path".into(),
            SUGGEST_UNWRAP,
        );
    }
    for at in find_all(&model.masked, ".expect(") {
        push(
            model,
            out,
            "unwrap",
            at,
            "`.expect(..)` panics on the error path".into(),
            SUGGEST_UNWRAP,
        );
    }
}

fn check_panic(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
        for at in find_all(&model.masked, mac) {
            let before_ok = !model.masked[..at]
                .chars()
                .next_back()
                .map(is_ident)
                .unwrap_or(false);
            if before_ok {
                push(
                    model,
                    out,
                    "panic",
                    at,
                    format!("`{}..)` aborts the study on this path", mac),
                    SUGGEST_PANIC,
                );
            }
        }
    }
}

fn check_indexing(model: &SourceModel, out: &mut Vec<RawViolation>) {
    let bytes = model.masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let prev = model.masked[..i].trim_end().chars().next_back();
        let indexes = matches!(prev, Some(c) if is_ident(c) || c == ')' || c == ']');
        if !indexes {
            continue;
        }
        // Full-range slicing `x[..]` cannot panic.
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let content = model
            .masked
            .get(i + 1..j.saturating_sub(1))
            .unwrap_or("")
            .trim();
        if content == ".." {
            continue;
        }
        push(
            model,
            out,
            "indexing",
            i,
            format!("indexing `[{content}]` panics when out of bounds"),
            SUGGEST_INDEXING,
        );
    }
}

// ---- L3: float hygiene ----------------------------------------------------

/// A token that is visibly floating point: a float literal (`1.0`, `2.`,
/// `1e-9`, `3f64`) or an `f32`/`f64` path head.
///
/// The tokenizer stops at an exponent's sign, so `1e-9` arrives as `1e`:
/// an exponent is a digit run, `e`, and optional digits. An integer suffix
/// that merely ends in `e` (`0usize`, `0isize`) is not one.
fn is_floatish(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    if tok == "f32" || tok == "f64" {
        return true;
    }
    let first = tok.chars().next().unwrap_or(' ');
    if !first.is_ascii_digit() {
        return false;
    }
    tok.contains('.')
        || tok.ends_with("f32")
        || tok.ends_with("f64")
        || tok
            .trim_end_matches(|c: char| c.is_ascii_digit())
            .strip_suffix('e')
            .is_some_and(|mantissa| mantissa.chars().all(|c| c.is_ascii_digit() || c == '_'))
}

/// Names locally declared as floats: `name: f64`, `let name = 1.0`,
/// `let name = .. as f64`.
fn float_names(masked: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in ["f32", "f64"] {
        for at in word_occurrences(masked, ty) {
            let head = masked[..at].trim_end();
            if let Some(head) = head.strip_suffix(':') {
                let name: String = head
                    .trim_end()
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident(c))
                    .collect();
                let name: String = name.chars().rev().collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            }
        }
    }
    for at in word_occurrences(masked, "let") {
        let mut rest = masked[at + 3..].trim_start();
        if let Some(r) = rest.strip_prefix("mut ") {
            rest = r.trim_start();
        }
        let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() {
            continue;
        }
        let Some(eq) = rest.find('=') else { continue };
        if rest[..eq].contains(';') || rest[..eq].contains('\n') {
            continue;
        }
        let value: String = rest[eq + 1..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident(c) || c == '.')
            .collect();
        let stmt_end = rest[eq..].find(';').map(|p| eq + p).unwrap_or(rest.len());
        if is_floatish(&value)
            || rest[eq..stmt_end].contains(" as f64")
            || rest[eq..stmt_end].contains(" as f32")
        {
            names.insert(name);
        }
    }
    names
}

fn check_float_eq(model: &SourceModel, out: &mut Vec<RawViolation>) {
    let masked = &model.masked;
    let floats = float_names(masked);
    for op in ["==", "!="] {
        for at in find_all(masked, op) {
            // Exclude `=>`, `<=`, `>=`, `==` inside `!=` scans, pattern `..=`.
            let before = &masked[..at];
            let prevc = before.chars().next_back().unwrap_or(' ');
            if op == "==" && matches!(prevc, '!' | '<' | '>' | '=') {
                continue;
            }
            if masked[at + 2..].starts_with('=') {
                continue;
            }
            let left: String = before
                .trim_end()
                .chars()
                .rev()
                .take_while(|&c| is_ident(c) || c == '.')
                .collect();
            let left: String = left.chars().rev().collect();
            let right: String = masked[at + 2..]
                .trim_start()
                .chars()
                .take_while(|&c| is_ident(c) || c == '.')
                .collect();
            let flags = |t: &str| {
                is_floatish(t)
                    || floats.contains(t.rsplit('.').next_back().unwrap_or(t))
                    || floats.contains(t.split('.').next().unwrap_or(t))
            };
            if flags(&left) || flags(&right) {
                push(
                    model,
                    out,
                    "float-eq",
                    at,
                    format!("exact float comparison `{} {op} {}`", left, right),
                    SUGGEST_FLOAT_EQ,
                );
            }
        }
    }
}

fn check_lossy_cast(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for at in word_occurrences(&model.masked, "as") {
        let target: String = model.masked[at + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if INT_TYPES.contains(&target.as_str()) {
            push(
                model,
                out,
                "lossy-cast",
                at,
                format!("`as {target}` silently truncates or wraps"),
                SUGGEST_LOSSY_CAST,
            );
        }
    }
}

/// The performance cousin of `hash-iter`: a `HashSet` keyed by domain
/// *strings* (`String` / `&str`). Every membership test re-hashes the whole
/// string; the interned-id path (`DomainTable` + sorted-slice merge-walks)
/// does the same comparison allocation- and hash-free. Token-textual: flags
/// `HashSet<String, ..>` and `HashSet<&str>` / `HashSet<&'a str>` type
/// mentions (declarations, annotations, turbofish).
fn check_string_set(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for at in word_occurrences(&model.masked, "HashSet") {
        let after = &model.masked[at + "HashSet".len()..];
        let Some(args) = after.trim_start().strip_prefix('<') else {
            continue;
        };
        let arg = args.trim_start();
        let stringy = if let Some(rest) = arg.strip_prefix("String") {
            // Word boundary: not `StringId` etc.
            !rest.chars().next().map(is_ident).unwrap_or(false)
        } else if let Some(rest) = arg.strip_prefix('&') {
            // `&str` or `&'a str`.
            let rest = rest.trim_start();
            let rest = match rest.strip_prefix('\'') {
                Some(lt) => lt.trim_start_matches(is_ident).trim_start(),
                None => rest,
            };
            rest.strip_prefix("str")
                .map(|r| !r.chars().next().map(is_ident).unwrap_or(false))
                .unwrap_or(false)
        } else {
            false
        };
        if stringy {
            push(
                model,
                out,
                "string-set",
                at,
                "`HashSet` of domain strings re-hashes every entry per comparison".into(),
                SUGGEST_STRING_SET,
            );
        }
    }
}

// ---- directive hygiene ----------------------------------------------------

// ---- L4: hot-path allocation ----------------------------------------------

/// Allocating constructors and adaptors that have no place in per-event
/// code. Token-textual like everything else: the region markers carry the
/// "this runs per event" knowledge the linter cannot infer.
const HOT_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "VecDeque::new",
    "vec![",
    ".collect",
    ".to_vec(",
    "Box::new",
    "String::new",
    ".to_string(",
    ".to_owned(",
    "format!(",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "BTreeSet::new",
    "with_capacity(",
];

fn check_hot_alloc(model: &SourceModel, out: &mut Vec<RawViolation>) {
    if !model.in_hot_path.iter().any(|&h| h) {
        return;
    }
    for pat in HOT_ALLOC_PATTERNS {
        for at in find_all(&model.masked, pat) {
            if !model.is_hot_line(model.line_of(at)) {
                continue;
            }
            push(
                model,
                out,
                "hot-alloc",
                at,
                format!("`{}` allocates inside a tagged per-event hot path", pat),
                SUGGEST_HOT_ALLOC,
            );
        }
    }
}

fn check_directives(model: &SourceModel, out: &mut Vec<RawViolation>) {
    for d in &model.allows {
        if model.is_test_line(d.line) {
            continue;
        }
        if d.justification.is_empty() {
            out.push(RawViolation {
                rule: "allow-empty",
                line: d.line,
                column: 1,
                message: format!("allow({}) has no justification", d.rule),
                suggestion: SUGGEST_ALLOW_EMPTY,
            });
        } else if !d.used.get() {
            out.push(RawViolation {
                rule: "allow-unused",
                line: d.line,
                column: 1,
                message: format!("allow({}) suppresses nothing here", d.rule),
                suggestion: SUGGEST_ALLOW_UNUSED,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<RawViolation> {
        check_file(&SourceModel::parse(src))
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn detects_hash_iteration() {
        let src = "fn f() { let mut best: HashMap<u32, u32> = HashMap::new(); for (k, v) in &best { out.push(v); } }";
        assert!(rules_hit(src).contains(&"hash-iter"), "{:?}", run(src));
        let meth = "struct S { seen: HashSet<u32> } fn g(s: &S) { let v: Vec<_> = s.seen.iter().collect(); }";
        assert!(rules_hit(meth).contains(&"hash-iter"));
    }

    #[test]
    fn order_insensitive_consumers_pass() {
        let src = "fn f(m: HashMap<u32, u32>) -> u32 { m.values().sum() }";
        assert!(!rules_hit(src).contains(&"hash-iter"), "{:?}", run(src));
        let sorted = "fn f(m: HashMap<u32, u32>) -> Vec<u32> { let mut v: Vec<u32> = m.into_keys().collect(); v.sort();\n v }";
        // The collect feeds a sort on the same statement chain? It does not —
        // but the BTree/sort lookahead only scans the same statement, so this
        // still flags; the allow directive is the documented escape hatch.
        let _ = sorted;
    }

    #[test]
    fn detects_wall_clock_and_rng() {
        assert!(rules_hit("let t = std::time::Instant::now();").contains(&"wall-clock"));
        assert!(rules_hit("let now = SystemTime::now();").contains(&"wall-clock"));
        assert!(rules_hit("let mut rng = rand::thread_rng();").contains(&"unseeded-rng"));
    }

    #[test]
    fn detects_unwrap_and_panic() {
        assert_eq!(rules_hit("fn f() { x.unwrap(); }"), vec!["unwrap"]);
        assert_eq!(rules_hit("fn f() { x.expect(\"boom\"); }"), vec!["unwrap"]);
        assert!(rules_hit("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(rules_hit("fn f() { x.expect_err(\"e\"); }").is_empty());
        assert_eq!(rules_hit("fn f() { panic!(\"no\"); }"), vec!["panic"]);
        assert!(rules_hit("fn f() { dont_panic!(1); }").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(\"ok\"); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_justification() {
        let ok = "// topple-lint: allow(unwrap): length checked above\nlet v = x.unwrap();\n";
        assert!(run(ok).is_empty(), "{:?}", run(ok));
        let empty = "// topple-lint: allow(unwrap)\nlet v = x.unwrap();\n";
        assert_eq!(rules_hit(empty), vec!["allow-empty"]);
        let stale = "// topple-lint: allow(unwrap): nothing here\nlet v = 1;\n";
        assert_eq!(rules_hit(stale), vec!["allow-unused"]);
    }

    #[test]
    fn detects_indexing() {
        assert!(rules_hit("fn f(v: &[u32]) -> u32 { v[3] }").contains(&"indexing"));
        assert!(!rules_hit("fn f(v: &[u32]) -> &[u32] { &v[..] }").contains(&"indexing"));
        assert!(!rules_hit("#[derive(Debug)]\nstruct S;").contains(&"indexing"));
        assert!(!rules_hit("let a = [1, 2, 3];").contains(&"indexing"));
        assert!(!rules_hit("let v = vec![1];").contains(&"indexing"));
    }

    #[test]
    fn detects_float_eq() {
        assert!(rules_hit("fn f(x: f64) -> bool { x == 0.0 }").contains(&"float-eq"));
        assert!(rules_hit("fn f(x: f64, y: f64) -> bool { x != y }").contains(&"float-eq"));
        assert!(rules_hit("fn f() { if rho == f64::NAN {} }").contains(&"float-eq"));
        assert!(!rules_hit("fn f(x: u32) -> bool { x == 0 }").contains(&"float-eq"));
        assert!(!rules_hit("fn f(x: u32) -> bool { x <= 1 || x >= 2 }").contains(&"float-eq"));
        assert!(!rules_hit("match x { Pat => 1.0, _ => 0.0 };").contains(&"float-eq"));
        // Integer suffixes ending in `e` declare integers, not floats.
        let ints = "fn f() -> bool { let mut depth = 0isize; let i = 0usize; let j = i; \
                    depth == 0 || i == 0 || j == i }";
        assert!(!rules_hit(ints).contains(&"float-eq"));
    }

    #[test]
    fn exponent_literals_are_floats_and_integer_suffixes_are_not() {
        for tok in ["1e5", "1e", "2.5e", "1_000e3", "3f64", "2."] {
            assert!(is_floatish(tok), "{tok}");
        }
        for tok in ["0usize", "0isize", "12usize", "0xde", "7", "e5"] {
            assert!(!is_floatish(tok), "{tok}");
        }
        // `1e-3` and `2.5e+4` reach the rule split at the sign, and still hit.
        assert!(rules_hit("fn f(x: u32) -> bool { x == 1e-3 }").contains(&"float-eq"));
        assert!(rules_hit("fn f(x: u32) -> bool { x == 2.5e+4 }").contains(&"float-eq"));
        assert!(rules_hit("fn f(x: u32) -> bool { x == 1e5 }").contains(&"float-eq"));
    }

    #[test]
    fn detects_lossy_cast() {
        assert!(rules_hit("let n = x as usize;").contains(&"lossy-cast"));
        assert!(rules_hit("let n = score as u32;").contains(&"lossy-cast"));
        assert!(!rules_hit("let n = x as f64;").contains(&"lossy-cast"));
    }

    #[test]
    fn detects_string_sets() {
        assert!(rules_hit("let s: HashSet<String> = HashSet::new();").contains(&"string-set"));
        assert!(rules_hit("let s: HashSet<&str> = names.iter().collect();").contains(&"string-set"));
        assert!(
            rules_hit("fn f<'a>(x: HashSet<&'a str>) {}").contains(&"string-set"),
            "{:?}",
            run("fn f<'a>(x: HashSet<&'a str>) {}")
        );
        assert!(rules_hit("let s = names.collect::<HashSet<String>>();").contains(&"string-set"));
        // Id- or number-keyed sets are the fix, not a violation.
        assert!(!rules_hit("let s: HashSet<u64> = HashSet::new();").contains(&"string-set"));
        assert!(!rules_hit("let s: HashSet<DomainId> = HashSet::new();").contains(&"string-set"));
        // Word boundary: a type merely starting with `String` is fine.
        assert!(!rules_hit("let s: HashSet<StringId> = HashSet::new();").contains(&"string-set"));
        let allowed = "// topple-lint: allow(string-set): reference path for equivalence tests\nlet s: HashSet<&str> = x.collect();\n";
        assert!(run(allowed).is_empty(), "{:?}", run(allowed));
    }

    #[test]
    fn violations_are_position_sorted() {
        let src = "fn f() { x.unwrap(); }\nfn g() { panic!(\"no\"); }\n";
        let v = run(src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
        assert_eq!(v[0].line, 1);
        assert!(v[0].column > 1);
    }
}
