"""A git ref of this checkout as a directory of files, for the devtools that
run a ref against the working tree."""

from __future__ import annotations

import os
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
