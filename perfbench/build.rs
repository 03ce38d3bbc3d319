//! Records the toolchain and source revision for the run's environment
//! fingerprint. Both are best-effort: a checkout without `.git` reports
//! the revision as `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_rev(Path::new("../.git")));
    println!("cargo:rerun-if-changed=build.rs");
}

/// Resolves `HEAD` by reading the git directory directly (no `git`
/// binary needed): a detached hash, or a ref looked up as a loose file
/// and then in `packed-refs`.
/// Each file read is also registered with `rerun-if-changed`; a missing
/// one is not, since Cargo would then rerun the script on every build.
fn git_rev(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if git.join(name).exists() {
        println!("cargo:rerun-if-changed={}", git.join(name).display());
    }
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
