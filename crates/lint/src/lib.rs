//! `topple-lint`: workspace-specific static analysis.
//!
//! The reproduction's claims rest on two properties ordinary tests cannot
//! guarantee exhaustively: every pipeline run with the same seed must produce
//! byte-identical lists (determinism), and library crates must fail with
//! typed errors rather than panics (a panic mid-study loses the run). This
//! crate walks every workspace source file and enforces those properties
//! statically; see `rules` for the rule set and `lexer` for why the analysis
//! is token-textual rather than AST-based.

pub mod config;
pub mod epoch;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

use config::{Config, Severity};
use lexer::SourceModel;

/// One resolved finding: a rule violation with its effective severity.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Package name the file belongs to (e.g. `topple-core`).
    pub krate: String,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Rule id.
    pub rule: &'static str,
    /// Effective severity after config resolution (never `Allow`).
    pub severity: Severity,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A whole-workspace lint run.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// All findings, ordered by (file, line, column).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings at deny severity.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Findings at warn severity.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }
}

/// Anything that stops a lint run before a report exists.
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `lint.toml` is malformed.
    Config(config::ConfigError),
    /// The root does not look like the workspace.
    BadRoot(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::Config(e) => write!(f, "{e}"),
            LintError::BadRoot(p) => {
                write!(
                    f,
                    "{}: not a workspace root (no Cargo.toml with [workspace])",
                    p.display()
                )
            }
        }
    }
}

impl std::error::Error for LintError {}

impl From<config::ConfigError> for LintError {
    fn from(e: config::ConfigError) -> Self {
        LintError::Config(e)
    }
}

fn read(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// One lexed workspace source file: the unit the symbol/call-graph pass
/// works over (lexical rules see one file at a time; the epoch analysis
/// needs all of them at once).
pub struct LexedFile {
    /// Package name the file belongs to.
    pub krate: String,
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Masked + raw source with line tables.
    pub model: SourceModel,
}

/// A crate to lint: its package name and the source files under it.
struct CrateFiles {
    name: String,
    files: Vec<PathBuf>,
}

/// Pulls `name = "..."` out of a crate manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(v) = line.strip_prefix("name") {
                let v = v.trim_start().strip_prefix('=')?.trim();
                return Some(v.trim_matches('"').to_owned());
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for e in entries {
        let e = e.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        paths.push(e.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

/// Finds every workspace crate's lintable sources: `src/` of each member
/// under `crates/`, plus the facade package's own `src/` if present. The
/// `vendor/` stand-ins, `tests/`, `benches/` and `examples/` are exempt —
/// the invariants apply to library and binary code, not to test harnesses.
fn workspace_crates(root: &Path) -> Result<Vec<CrateFiles>, LintError> {
    let root_manifest = read(&root.join("Cargo.toml"))?;
    if !root_manifest.contains("[workspace]") {
        return Err(LintError::BadRoot(root.to_path_buf()));
    }
    let mut crates = Vec::new();
    if let Some(name) = package_name(&root_manifest) {
        let src = root.join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            rs_files(&src, &mut files)?;
            crates.push(CrateFiles { name, files });
        }
    }
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|source| LintError::Io {
            path: crates_dir.clone(),
            source,
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        let manifest_path = member.join("Cargo.toml");
        if !manifest_path.is_file() {
            continue;
        }
        let Some(name) = package_name(&read(&manifest_path)?) else {
            continue;
        };
        let src = member.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        crates.push(CrateFiles { name, files });
    }
    Ok(crates)
}

/// Resolves raw violations against the config and appends surviving ones.
fn resolve(
    model: &SourceModel,
    krate: &str,
    file: &str,
    config: &Config,
    raws: Vec<rules::RawViolation>,
    findings: &mut Vec<Finding>,
) {
    for v in raws {
        let builtin = rules::rule_info(v.rule)
            .map(|r| r.builtin)
            .unwrap_or(Severity::Warn);
        let severity = config.severity(krate, v.rule, builtin);
        if severity == Severity::Allow {
            continue;
        }
        findings.push(Finding {
            krate: krate.to_owned(),
            file: file.to_owned(),
            rule: v.rule,
            severity,
            line: v.line,
            column: v.column,
            message: v.message,
            suggestion: v.suggestion,
            snippet: model.raw_line(v.line).trim().to_owned(),
        });
    }
}

/// Lints one already-lexed file, resolving severities against the config.
fn lint_model(
    model: &SourceModel,
    krate: &str,
    file: &str,
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    resolve(
        model,
        krate,
        file,
        config,
        rules::check_file(model),
        findings,
    );
}

/// Lints a single file path (used by tests and `--file`).
pub fn lint_file(path: &Path, krate: &str, config: &Config) -> Result<Vec<Finding>, LintError> {
    let text = read(path)?;
    let model = SourceModel::parse(&text);
    let mut findings = Vec::new();
    lint_model(
        &model,
        krate,
        &path.display().to_string().replace('\\', "/"),
        config,
        &mut findings,
    );
    Ok(findings)
}

/// Lexes every workspace source file once, for both the per-file lexical
/// rules and the cross-file symbol/call-graph pass.
pub fn lex_workspace(root: &Path) -> Result<Vec<LexedFile>, LintError> {
    let mut out = Vec::new();
    for krate in workspace_crates(root)? {
        for path in &krate.files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string()
                .replace('\\', "/");
            let text = read(path)?;
            out.push(LexedFile {
                krate: krate.name.clone(),
                rel,
                model: SourceModel::parse(&text),
            });
        }
    }
    Ok(out)
}

/// Lints the whole workspace rooted at `root`: per-file lexical rules, then
/// the call-graph pass (`rng-leak`, `unordered-iteration`, and — when
/// `determinism.epoch.toml` / `determinism.gen.toml` manifests are checked
/// in — `epoch-drift` over the traffic and generation contracts).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Report, LintError> {
    let files = lex_workspace(root)?;
    let mut findings = Vec::new();
    for f in &files {
        resolve(
            &f.model,
            &f.krate,
            &f.rel,
            config,
            rules::check_lexical(&f.model),
            &mut findings,
        );
    }
    let analysis = epoch::analyze(&files);
    let mut pinned = Vec::new();
    for contract in analysis.contracts() {
        if let Some(m) = epoch::Manifest::load(root, contract.file())? {
            pinned.push((contract, m));
        }
    }
    epoch::graph_findings(&files, &analysis, &pinned, config, &mut findings);
    // Directive audit last: the graph pass above may have consumed
    // `rng-leak` / `unordered-iteration` allows.
    for f in &files {
        resolve(
            &f.model,
            &f.krate,
            &f.rel,
            config,
            rules::check_directives_pass(&f.model),
            &mut findings,
        );
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    Ok(Report {
        files_scanned: files.len(),
        findings,
    })
}

/// Loads `lint.toml` from the root, or the built-in defaults if absent.
pub fn load_config(root: &Path, explicit: Option<&Path>) -> Result<Config, LintError> {
    let path = match explicit {
        Some(p) => p.to_path_buf(),
        None => {
            let p = root.join("lint.toml");
            if !p.is_file() {
                return Ok(Config::default());
            }
            p
        }
    };
    Ok(Config::parse(&read(&path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_manifest() {
        let m =
            "[workspace]\nmembers = []\n\n[package]\nname = \"topple-core\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(m).as_deref(), Some("topple-core"));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn severity_resolution_drops_allowed() {
        let cfg = Config::parse("[default]\nunwrap = \"allow\"\n").expect("parses");
        let model = SourceModel::parse("fn f() { x.unwrap(); }");
        let mut out = Vec::new();
        lint_model(&model, "topple-core", "f.rs", &cfg, &mut out);
        assert!(out.is_empty());
        let cfg = Config::parse("[default]\nunwrap = \"deny\"\n").expect("parses");
        lint_model(&model, "topple-core", "f.rs", &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Deny);
        assert_eq!(out[0].snippet, "fn f() { x.unwrap(); }");
    }
}
