"""The src/ tree of a commit, for tools that run it beside the working tree.

    with commit_src("HEAD~1") as src:
        ...   # src is a Path to the commit's src/, removed on exit
"""

import contextlib
import subprocess
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def commit_src(commit):
    """Extract src/ of commit with `git archive` into a temporary directory
    and yield its path; the directory is removed when the block ends."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", commit, "src"],
                                 cwd=ROOT, capture_output=True, check=True)
        tar_path = Path(tmp) / "src.tar"
        tar_path.write_bytes(archive.stdout)
        with tarfile.open(tar_path) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp) / "src"
