"""Every output byte of a fixed request corpus, pinned.

Each line of ``tests/golden/outputs.txt`` holds the sha256 of one
request's (exit code, stdout, stderr) and its argv, from
``corpus.digest_argvs``.  The graph files the argvs load are written to
a temporary directory, whose path is replaced by ``corpus.DIGEST_DIR``
in the argv and in the output before hashing.  After a deliberate change
of output, regenerate the file with ``PYTHONPATH=src:tests python
tests/test_digests.py --write``.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

from dualcycles.cli import main
from corpus import DIGEST_DIR, digest_argvs, write_digest_graphs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.txt")


def digest_lines(directory: str) -> list[str]:
    """One "<sha256> <argv>" line per request of the corpus, run in this
    process on the graph files in ``directory``."""
    write_digest_graphs(directory)
    lines = []
    for argv in digest_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([a.replace(DIGEST_DIR, directory) for a in argv], out=out)
        seen = (code, out.getvalue().replace(directory, DIGEST_DIR),
                err.getvalue().replace(directory, DIGEST_DIR))
        lines.append(hashlib.sha256(repr(seen).encode()).hexdigest() + " " + " ".join(argv))
    return lines


def test_outputs_match_their_digests(tmp_path):
    start = time.monotonic()
    got = digest_lines(str(tmp_path))
    elapsed = time.monotonic() - start
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    differ = next((g.split(" ", 1)[1] for g, w in zip(got, want) if g != w), None)
    assert differ is None, f"first request whose output differs: {differ}"
    assert len(got) == len(want), (len(got), len(want))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN}")
    if not parser.parse_args().write:
        parser.error("nothing to do without --write (pytest runs the check)")
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} digests written to {GOLDEN}", file=sys.stderr)
