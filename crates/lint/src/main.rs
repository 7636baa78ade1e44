//! `topple-lint` CLI.
//!
//! ```text
//! cargo run -p topple-lint                       # text report on the workspace
//! cargo run -p topple-lint -- --format json      # machine-readable report
//! cargo run -p topple-lint -- --suggest          # include fix suggestions
//! cargo run -p topple-lint -- --list-rules       # rule catalogue
//! cargo run -p topple-lint -- epoch emit         # print the computed manifests
//! cargo run -p topple-lint -- epoch emit --write # regenerate determinism.{epoch,gen}.toml
//! cargo run -p topple-lint -- epoch verify       # check sources against the manifests
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 deny-level findings or epoch
//! drift, 2 usage or configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use topple_lint::{
    config::Severity, epoch, lex_workspace, lint_workspace, load_config, report, rules,
};

struct Options {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    suggest: bool,
    list_rules: bool,
    epoch: Option<EpochAction>,
}

/// What `topple-lint epoch ...` was asked to do.
enum EpochAction {
    Emit { write: bool },
    Verify,
}

const USAGE: &str = "usage: topple-lint [--root DIR] [--config FILE] [--format text|json] \
    [--suggest] [--list-rules] [epoch emit [--write] | epoch verify]";

/// The workspace root: `--root`, else the manifest dir's grandparent when
/// cargo provides it (crates/lint -> root), else the current directory.
fn default_root() -> PathBuf {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let md = PathBuf::from(md);
        if let Some(root) = md.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        config: None,
        json: false,
        suggest: false,
        list_rules: false,
        epoch: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "epoch" => {
                // `--emit`/`--verify` flag spellings are accepted too.
                opts.epoch = Some(match args.next().as_deref() {
                    Some("emit" | "--emit") => EpochAction::Emit { write: false },
                    Some("verify" | "--verify") => EpochAction::Verify,
                    _ => return Err("epoch needs `emit` or `verify`".into()),
                });
            }
            "--write" => match &mut opts.epoch {
                Some(EpochAction::Emit { write }) => *write = true,
                _ => return Err("--write only applies to `epoch emit`".into()),
            },
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--config" => {
                opts.config = Some(PathBuf::from(args.next().ok_or("--config needs a value")?));
            }
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                _ => return Err("--format must be `text` or `json`".into()),
            },
            "--suggest" => opts.suggest = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("topple-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in rules::RULES {
            println!("{:<20} {:<6} {}", r.id, r.builtin.name(), r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(action) = &opts.epoch {
        return run_epoch(&opts.root, action);
    }

    let config = match load_config(&opts.root, opts.config.as_deref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("topple-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match lint_workspace(&opts.root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("topple-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = if opts.json {
        report::to_json(&report, opts.suggest)
    } else {
        report::to_text(&report, opts.suggest)
    };
    print!("{rendered}");

    if report.findings.iter().any(|f| f.severity == Severity::Deny) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `topple-lint epoch emit|verify`: compute the traffic and generation
/// manifests from the sources and print, write, or compare them.
fn run_epoch(root: &std::path::Path, action: &EpochAction) -> ExitCode {
    let files = match lex_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("topple-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = epoch::analyze(&files);
    if !analysis.roots_found {
        eprintln!(
            "topple-lint: no determinism roots found (expected World::simulate_day_into \
             and/or Study::run)"
        );
        return ExitCode::from(2);
    }
    let manifests: Vec<(epoch::Contract, epoch::Manifest)> = analysis
        .contracts()
        .into_iter()
        .map(|c| (c, epoch::Manifest::from_analysis(&analysis, c)))
        .collect();
    let many = manifests.len() > 1;
    match action {
        EpochAction::Emit { write } => {
            for (contract, computed) in &manifests {
                let rendered = computed.render(*contract);
                if *write {
                    let path = root.join(contract.file());
                    if let Err(err) = std::fs::write(&path, &rendered) {
                        eprintln!("topple-lint: {}: {err}", path.display());
                        return ExitCode::from(2);
                    }
                    println!(
                        "wrote {} ({} draw sites, {} {})",
                        path.display(),
                        computed.sites.len(),
                        contract.label(),
                        computed.epoch
                    );
                } else {
                    if many {
                        println!("# ==== {} ====", contract.file());
                    }
                    print!("{rendered}");
                }
            }
            ExitCode::SUCCESS
        }
        EpochAction::Verify => {
            let mut drift_total = 0usize;
            for (contract, computed) in &manifests {
                let name = contract.file();
                let pinned = match epoch::Manifest::load(root, name) {
                    Ok(Some(m)) => m,
                    Ok(None) => {
                        eprintln!(
                            "topple-lint: {name} not found; generate it with \
                             `topple-lint epoch emit --write`"
                        );
                        return ExitCode::from(2);
                    }
                    Err(err) => {
                        eprintln!("topple-lint: {err}");
                        return ExitCode::from(2);
                    }
                };
                let drift = epoch::drift(computed, &pinned, name);
                if drift.is_empty() {
                    println!(
                        "{} {} verified: {} draw sites match {name}",
                        contract.label(),
                        pinned.epoch,
                        pinned.sites.len()
                    );
                } else {
                    for msg in &drift {
                        eprintln!("epoch-drift: {msg}");
                    }
                    drift_total += drift.len();
                }
            }
            match drift_total {
                0 => ExitCode::SUCCESS,
                drift_total => {
                    eprintln!(
                        "topple-lint: determinism contract drifted ({drift_total} differences); \
                         if the change is intentional bump DETERMINISM_EPOCH (traffic) or \
                         GENERATION_EPOCH (generation), re-run `topple-lint epoch emit --write`, \
                         and re-pin the affected digests"
                    );
                    ExitCode::FAILURE
                }
            }
        }
    }
}
