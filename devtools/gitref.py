"""A git ref, or the working tree, of this checkout as a directory of files,
for the devtools that run a ref against the working tree."""

from __future__ import annotations

import os
import shutil
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(ref: str, dest: str) -> None:
    """Write the files of `git archive <ref>` into dest, made if absent.
    Raises ValueError with git's message if the ref cannot be archived."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise ValueError(f"git archive {ref}: {archive.stderr.decode().strip()}")
    os.makedirs(dest, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def copy_worktree(dest: str, root: str = ROOT) -> None:
    """Copy into dest, made if absent, each existing file of root's working
    tree that `git ls-files --cached --others --exclude-standard` lists:
    the files an archive of the tree would hold, so nothing ignored, such as
    a __pycache__ directory, comes along."""
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout.decode()
    for name in dict.fromkeys(filter(None, listed.split("\0"))):
        source = os.path.join(root, name)
        if os.path.isfile(source):  # a deleted file stays listed until staged
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
