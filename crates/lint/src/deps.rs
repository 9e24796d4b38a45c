//! (3b) Hermeticity of the dependency graph.
//!
//! Walks the root `Cargo.toml` and every `crates/*/Cargo.toml` with a
//! purpose-built line parser (the linter is dependency-free, so no
//! `toml` crate) and asserts that every dependency in
//! `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
//! and `[workspace.dependencies]` is workspace-internal: a `fairem-*`
//! crate declared via `workspace = true` or a `path = "…"` entry.
//!
//! The single sanctioned escape is a dependency that is `optional`
//! **and** activated only by the non-default `heavy` feature (the slot
//! reserved for criterion-class benchmarking extras) — everything else
//! is a finding, because an external crate is an unpinned source of
//! nondeterminism and build drift.

use crate::rules::Finding;

/// Rule name shared by all manifest findings.
pub const RULE: &str = "hermetic_deps";

/// Check one manifest. `rel` is the workspace-relative path used in
/// findings; `src` is the file body.
pub fn check_manifest(rel: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    // Dependencies seen as (name, line, declared_hermetic, optional).
    let mut deps: Vec<(String, usize, bool, bool)> = Vec::new();
    // Contents of `[features] heavy = […]`.
    let mut heavy_feature: Vec<String> = Vec::new();

    for (i, raw) in src.lines().enumerate() {
        let line = strip_toml_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('[') {
            section = trimmed
                .trim_matches(|c: char| c == '[' || c == ']')
                .to_owned();
            continue;
        }
        let Some((key_part, value)) = trimmed.split_once('=') else {
            continue;
        };
        let key = key_part.trim();
        let value = value.trim();

        if section == "features" && key == "heavy" {
            heavy_feature = value
                .trim_matches(|c: char| c == '[' || c == ']')
                .split(',')
                .map(|s| s.trim().trim_matches('"').to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            continue;
        }
        let dep_section = matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies" | "workspace.dependencies"
        );
        if !dep_section {
            continue;
        }
        // `name.workspace = true` dotted form.
        let (name, spec) = match key.split_once('.') {
            Some((n, attr)) => (n.trim(), format!("{attr} = {value}")),
            None => (key, value.to_owned()),
        };
        let hermetic = spec.contains("workspace = true") || spec.contains("path =");
        let optional = spec.contains("optional = true");
        deps.push((name.to_owned(), i + 1, hermetic, optional));
    }

    for (name, line, hermetic, optional) in deps {
        let internal = name.starts_with("fairem-") || name.starts_with("fairem_");
        if internal && hermetic {
            continue;
        }
        let heavy_gated = optional
            && heavy_feature
                .iter()
                .any(|f| f == &format!("dep:{name}") || f.starts_with(&format!("{name}/")));
        if heavy_gated {
            continue;
        }
        let why = if !internal {
            "external crate"
        } else {
            "not declared via workspace/path"
        };
        out.push(Finding {
            rel: rel.to_owned(),
            line,
            rule: RULE,
            msg: format!(
                "dependency `{name}` is not workspace-internal ({why}) and not gated behind the `heavy` feature"
            ),
        });
    }
    out
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for our manifests: `#` never appears inside the
    // string values we write.
    match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_workspace_deps_pass() {
        let src =
            "[dependencies]\nfairem-core.workspace = true\nfairem-rng = { workspace = true }\n";
        assert!(check_manifest("crates/x/Cargo.toml", src).is_empty());
    }

    #[test]
    fn path_deps_pass_in_workspace_table() {
        let src = "[workspace.dependencies]\nfairem-rng = { path = \"crates/rng\" }\n";
        assert!(check_manifest("Cargo.toml", src).is_empty());
    }

    #[test]
    fn external_dep_is_a_finding_with_line() {
        let src = "[dependencies]\nfairem-core.workspace = true\nserde = \"1.0\"\n";
        let f = check_manifest("crates/x/Cargo.toml", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("serde"));
    }

    #[test]
    fn heavy_gated_optional_dep_passes() {
        let src = "[dependencies]\ncriterion = { version = \"0.5\", optional = true }\n\n[features]\nheavy = [\"dep:criterion\"]\n";
        assert!(check_manifest("crates/bench/Cargo.toml", src).is_empty());
    }

    #[test]
    fn optional_but_default_activated_dep_fails() {
        let src = "[dependencies]\ncriterion = { version = \"0.5\", optional = true }\n\n[features]\ndefault = [\"dep:criterion\"]\n";
        assert_eq!(check_manifest("crates/bench/Cargo.toml", src).len(), 1);
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let src = "[package]\nname = \"fairem-bench\"\n\n[[bench]]\nname = \"bench_textsim\"\nharness = false\n";
        assert!(check_manifest("crates/bench/Cargo.toml", src).is_empty());
    }

    #[test]
    fn internal_dep_pinned_by_version_only_fails() {
        let src = "[dependencies]\nfairem-core = \"0.1\"\n";
        assert_eq!(check_manifest("crates/x/Cargo.toml", src).len(), 1);
    }
}
