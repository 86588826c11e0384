//! Git worktrees for the binaries that build another revision of this
//! repository beside the working tree: `seeded` (HEAD, with one bug at a
//! time put in) and `pair` (a parent and a change, benchmarked in
//! alternation).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root: the directory `git` and `cargo` run from.
pub fn workspace_root() -> PathBuf {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    std::fs::canonicalize(&root).unwrap_or(root)
}

/// Runs `git -C root <args>` and returns what it printed on stdout,
/// trimmed.
pub fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    } else {
        Err(format!(
            "git {} exited {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Checks `rev` out, detached, into a worktree at `tree`. A worktree an
/// interrupted run left there is replaced.
pub fn add(root: &Path, tree: &Path, rev: &str) -> Result<(), String> {
    if tree.exists() {
        remove(root, tree);
    }
    let _ = git(root, &["worktree", "prune"]);
    let tree = tree.to_string_lossy();
    git(
        root,
        &["worktree", "add", "--quiet", "--detach", &tree, rev],
    )
    .map(drop)
}

/// Removes the worktree at `tree`, and anything in it. `git worktree
/// remove` leaves a directory that is not a registered worktree (one a
/// run of a side's detbench recreated after its tree was gone), so what
/// is still there afterwards is deleted.
pub fn remove(root: &Path, tree: &Path) {
    let path = tree.to_string_lossy();
    let _ = git(root, &["worktree", "remove", "--force", &path]);
    let _ = std::fs::remove_dir_all(tree);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stray_directory_at_the_tree_path_does_not_block_add() {
        let root = workspace_root();
        let tree = root.join("target/worktree-test/tree");
        let stray = tree.join("benchmark/out");
        std::fs::create_dir_all(&stray).unwrap();
        std::fs::write(stray.join("spans.json"), "{}").unwrap();
        let added = add(&root, &tree, "HEAD");
        let checked_out = tree.join("Cargo.toml").exists();
        remove(&root, &tree);
        assert_eq!(added, Ok(()));
        assert!(checked_out, "HEAD is checked out at the tree path");
        assert!(!tree.exists(), "remove leaves nothing behind");
    }
}
