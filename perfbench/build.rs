//! Records the provenance of the sources the benchmark was built from: the
//! git commit when the checkout has one, and a digest of the repository's
//! crate sources, which identifies the code in any checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "html")
        {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest
        .parent()
        .expect("the benchmark lives inside the repository");

    let commit = if repo.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );

    let crates = repo.join("crates");
    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(repo).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
    println!("cargo:rerun-if-changed={}", crates.display());
    for path in git_watch(&repo.join(".git")) {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The files in `git` that change when the checked-out commit does: `HEAD`
/// (switching branches), its reflog (every commit, checkout and reset),
/// and the branch's ref, loose or packed. Only files that exist are
/// named, because cargo reruns the script on every build for a missing one.
fn git_watch(git: &Path) -> Vec<PathBuf> {
    let head = git.join("HEAD");
    let mut paths = vec![head.clone(), git.join("logs/HEAD"), git.join("packed-refs")];
    if let Some(branch) = std::fs::read_to_string(&head)
        .ok()
        .and_then(|h| h.strip_prefix("ref: ").map(|r| r.trim().to_owned()))
    {
        paths.push(git.join(branch));
    }
    paths.retain(|p| p.is_file());
    paths
}
