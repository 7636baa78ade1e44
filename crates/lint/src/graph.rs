//! Cross-crate call graph over the symbol table.
//!
//! Resolution is name-based and conservative: a call site `name(..)` or
//! `recv.name(..)` edges to *every* workspace function with that simple name
//! (narrowed by the `Owner::` qualifier when one is written). That
//! over-approximates reachability — safe for the determinism-epoch analysis,
//! where a missed edge could hide a draw site but a spurious edge can only
//! include a function that really does consume RNG somewhere.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{FnSym, KEYWORDS};
use crate::LexedFile;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Absolute byte offset of the callee identifier in the file's `masked`.
    pub at: usize,
    /// Callee simple name.
    pub name: String,
    /// `Owner::name(..)` qualifier segment, if written (maps `Self` to the
    /// enclosing impl type before storage).
    pub qualifier: Option<String>,
    /// Whether this is a method call (`recv.name(..)`).
    pub method: bool,
    /// The receiver identifier for simple method calls (`rng.random()` →
    /// `rng`); `None` for chained or non-ident receivers.
    pub receiver: Option<String>,
    /// Absolute byte span of the argument text (inside the parens).
    pub args: (usize, usize),
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Extracts every call site in the given masked-byte ranges of one file, in
/// source order.
pub fn call_sites(masked: &str, ranges: &[(usize, usize)], owner: Option<&str>) -> Vec<CallSite> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for &(lo, hi) in ranges {
        let mut i = lo;
        while i < hi {
            if !is_ident(bytes[i]) || bytes[i].is_ascii_digit() || (i > 0 && is_ident(bytes[i - 1]))
            {
                i += 1;
                continue;
            }
            let start = i;
            while i < hi && is_ident(bytes[i]) {
                i += 1;
            }
            let name = &masked[start..i];
            let mut j = i;
            while j < hi && (bytes[j] == b' ' || bytes[j] == b'\n') {
                j += 1;
            }
            // Macro invocation (`name!(..)`) — not a function call.
            if j < hi && bytes[j] == b'!' {
                continue;
            }
            // Turbofish between name and arguments.
            if j + 2 < hi && bytes[j] == b':' && bytes[j + 1] == b':' && bytes[j + 2] == b'<' {
                let mut depth = 0isize;
                let mut k = j + 2;
                while k < hi {
                    match bytes[k] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = (k + 1).min(hi);
                while j < hi && (bytes[j] == b' ' || bytes[j] == b'\n') {
                    j += 1;
                }
            }
            if j >= hi || bytes[j] != b'(' || KEYWORDS.contains(&name) {
                continue;
            }
            // Argument span via paren matching (clamped to the range).
            let mut depth = 0isize;
            let mut k = j;
            let mut args_end = hi;
            while k < hi {
                match bytes[k] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            args_end = k;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            // What precedes the name: `.` (method), `::` (qualified), other.
            let mut p = start;
            while p > lo && bytes[p - 1].is_ascii_whitespace() {
                p -= 1;
            }
            let mut method = false;
            let mut qualifier = None;
            let mut receiver = None;
            if p > lo && bytes[p - 1] == b'.' {
                method = true;
                // Simple receiver: an identifier directly before the dot.
                let mut r = p - 1;
                while r > lo && is_ident(bytes[r - 1]) {
                    r -= 1;
                }
                if r < p - 1 && (r == lo || bytes[r - 1] != b'.') {
                    receiver = Some(masked[r..p - 1].to_owned());
                }
            } else if p > lo + 1 && bytes[p - 1] == b':' && bytes[p - 2] == b':' {
                let mut r = p - 2;
                while r > lo && is_ident(bytes[r - 1]) {
                    r -= 1;
                }
                if r < p - 2 {
                    let q = &masked[r..p - 2];
                    qualifier = Some(if q == "Self" {
                        owner.unwrap_or(q).to_owned()
                    } else {
                        q.to_owned()
                    });
                }
            }
            out.push(CallSite {
                at: start,
                name: name.to_owned(),
                qualifier,
                method,
                receiver,
                args: (j + 1, args_end),
            });
        }
    }
    out
}

/// The workspace call graph: per-function callee index lists plus the raw
/// call sites they were resolved from.
#[derive(Debug)]
pub struct CallGraph {
    /// `edges[f]` — indices of functions `f` may call (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// `sites[f]` — every call site in `f`'s own body, in source order.
    pub sites: Vec<Vec<CallSite>>,
}

/// Builds the call graph for the scanned symbol table. Test functions get
/// their call sites extracted (they may be roots of fixture analyses) but
/// resolution never targets them.
pub fn build(files: &[LexedFile], fns: &[FnSym]) -> CallGraph {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        by_name.entry(&f.name).or_default().push(i);
        if let Some(o) = &f.owner {
            by_owner_name.entry((o, &f.name)).or_default().push(i);
        }
    }
    let mut edges = Vec::with_capacity(fns.len());
    let mut sites = Vec::with_capacity(fns.len());
    for (i, f) in fns.iter().enumerate() {
        let masked = &files[f.file].model.masked;
        let ranges = crate::symbols::own_body_ranges(fns, i);
        let cs = call_sites(masked, &ranges, f.owner.as_deref());
        let mut callees = BTreeSet::new();
        for c in &cs {
            let qualified = c
                .qualifier
                .as_deref()
                .and_then(|q| by_owner_name.get(&(q, c.name.as_str())));
            let targets = match qualified {
                Some(t) => t,
                None => match by_name.get(c.name.as_str()) {
                    Some(t) => t,
                    None => continue,
                },
            };
            callees.extend(targets.iter().copied());
        }
        edges.push(callees.into_iter().collect());
        sites.push(cs);
    }
    CallGraph { edges, sites }
}

/// Indices of functions reachable from `roots` (inclusive).
pub fn reachable(graph: &CallGraph, roots: &[usize]) -> BTreeSet<usize> {
    reachable_excluding(graph, roots, &BTreeSet::new())
}

/// Indices of functions reachable from `roots` (inclusive) without
/// traversing into `excluded` functions. The determinism-epoch analysis uses
/// this to split its two contracts: each traversal stops at the other
/// contract's roots, so a draw helper reachable *only* through the
/// generator belongs to the generation contract, not the traffic one.
pub fn reachable_excluding(
    graph: &CallGraph,
    roots: &[usize],
    excluded: &BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut seen: BTreeSet<usize> = roots
        .iter()
        .copied()
        .filter(|i| !excluded.contains(i))
        .collect();
    let mut stack: Vec<usize> = seen.iter().copied().collect();
    while let Some(f) = stack.pop() {
        for &c in &graph.edges[f] {
            if !excluded.contains(&c) && seen.insert(c) {
                stack.push(c);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceModel;
    use crate::symbols;

    fn lex(src: &str) -> Vec<LexedFile> {
        vec![LexedFile {
            krate: "t".into(),
            rel: "crates/t/src/lib.rs".into(),
            model: SourceModel::parse(src),
        }]
    }

    #[test]
    fn resolves_free_method_and_qualified_calls() {
        let files = lex("fn a() { b(); s.c(); D::e(); f::<u32>(1); }\n\
             fn b() {}\n\
             struct S; impl S { fn c(&self) {} }\n\
             struct D; impl D { fn e() {} }\n\
             fn f<T>(x: T) {}\n");
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        let a = fns.iter().position(|f| f.name == "a").expect("a");
        let names: Vec<&str> = g.edges[a].iter().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(names, ["b", "c", "e", "f"], "{:#?}", g.sites[a]);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let files =
            lex("fn a() { if (x) {} format!(\"{}\", 1); matches!(x, 1); }\nfn format() {}\n");
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        assert!(g.edges[0].is_empty(), "{:#?}", g.sites[0]);
    }

    #[test]
    fn receiver_and_argument_spans_are_extracted() {
        let files = lex("fn a(rng: &mut R) { rng.random(); poisson(&mut rng, 2.0); x.y.z(); }\n");
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        let sites = &g.sites[0];
        let random = sites.iter().find(|c| c.name == "random").expect("random");
        assert!(random.method);
        assert_eq!(random.receiver.as_deref(), Some("rng"));
        let poisson = sites.iter().find(|c| c.name == "poisson").expect("poisson");
        let args = &files[0].model.masked[poisson.args.0..poisson.args.1];
        assert_eq!(args, "&mut rng, 2.0");
        let z = sites.iter().find(|c| c.name == "z").expect("z");
        assert!(z.method);
        assert_eq!(z.receiver, None, "chained receiver must not resolve");
    }

    #[test]
    fn reachability_walks_transitively() {
        let files = lex("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() { c(); }\n");
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        let a = fns.iter().position(|f| f.name == "a").expect("a");
        let island = fns.iter().position(|f| f.name == "island").expect("island");
        let r = reachable(&g, &[a]);
        assert_eq!(r.len(), 3);
        assert!(!r.contains(&island));
    }

    #[test]
    fn exclusion_cuts_exclusive_subtrees_but_keeps_shared_ones() {
        // root → {v1, v2}; v1 → shared; v2 → {shared, only2}. Excluding v2
        // must drop only2 but keep shared (still reachable through v1).
        let files = lex("fn root() { v1(); v2(); }\nfn v1() { shared(); }\n\
             fn v2() { shared(); only2(); }\nfn shared() {}\nfn only2() {}\n");
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        let idx = |n: &str| fns.iter().position(|f| f.name == n).expect("fn present");
        let excluded: BTreeSet<usize> = [idx("v2")].into_iter().collect();
        let r = reachable_excluding(&g, &[idx("root")], &excluded);
        assert!(r.contains(&idx("v1")));
        assert!(r.contains(&idx("shared")));
        assert!(!r.contains(&idx("v2")));
        assert!(!r.contains(&idx("only2")));
    }

    #[test]
    fn self_qualifier_maps_to_enclosing_impl() {
        let files = lex(
            "struct S;\nimpl S { fn a(&self) { Self::helper(); } fn helper() {} }\n\
             fn helper() { loop {} }\n",
        );
        let fns = symbols::scan(&files);
        let g = build(&files, &fns);
        let a = fns.iter().position(|f| f.name == "a").expect("a");
        let method_helper = fns
            .iter()
            .position(|f| f.name == "helper" && f.owner.is_some())
            .expect("method");
        assert_eq!(g.edges[a], vec![method_helper], "{:#?}", g.sites[a]);
    }
}
