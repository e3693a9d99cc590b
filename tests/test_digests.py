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

import pytest

from dualcycles import cli
from dualcycles.cli import EXIT_VALIDATION, main
from dualcycles.invariants import CycleError, InvalidGraphError, _pointwise, fundamental_cycle, validate
from corpus import DIGEST_DIR, digest_argvs, write_digest_graphs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.txt")


def run_request(argv: list[str], directory: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one request of the corpus, run in
    this process on the graph files in ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([a.replace(DIGEST_DIR, directory) for a in argv], out=out)
    return code, out.getvalue(), err.getvalue()


def digest_lines(directory: str) -> list[str]:
    """One "<sha256> <argv>" line per request of the corpus, run in this
    process on the graph files in ``directory``."""
    write_digest_graphs(directory)
    lines = []
    for argv in digest_argvs():
        seen = tuple(x if type(x) is int else x.replace(directory, DIGEST_DIR)
                     for x in run_request(argv, directory))
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


class Stdout:
    """A stdout that keeps the text of each call that writes to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def writelines(self, pieces):
        self.writes.append("".join(pieces))

    def flush(self):
        pass


def test_each_request_writes_stdout_at_most_once(tmp_path):
    # Over the digest corpus, main writes each request's stdout in one call,
    # after the whole of it is built: a request that ends with an error:
    # line has written nothing.  Exit codes 1 and 3 alone do not mean an
    # error, as validate and verify-rdp print their reports with them.
    write_digest_graphs(tmp_path)
    errors = 0
    for argv in digest_argvs():
        out, err = Stdout(), io.StringIO()
        with contextlib.redirect_stderr(err):
            main([a.replace(DIGEST_DIR, str(tmp_path)) for a in argv], out=out)
        assert len(out.writes) <= 1, argv
        if "error:" in err.getvalue():
            assert out.writes == [], argv
            errors += 1
    assert errors > 3000


def failures(directory: str, command: str):
    """(parsed arguments, graph, stderr) of each request of the corpus for
    ``command`` that exits 1, run on the graph files in ``directory``."""
    write_digest_graphs(directory)
    for argv in digest_argvs():
        if command in argv:
            code, _, err = run_request(argv, directory)
            if code == EXIT_VALIDATION:
                args = cli._parse([a.replace(DIGEST_DIR, directory) for a in argv])
                yield args, cli._resolve_graph(args), err


def test_invariants_refuses_a_cycle_as_the_library_does(tmp_path):
    # One owner of a cycle's preconditions: on a graph that validate
    # accepts, every invariants request that exits 1 prints the error of
    # _pointwise on its graph and cycle, and once the cycle passes, only
    # the JSON form's filtration can refuse it.
    refused = 0
    for args, g, err in failures(str(tmp_path), "invariants"):
        record = validate(g)
        if not record.ok:
            assert err.startswith("error: invalid graph: "), err
            continue
        try:
            _pointwise(g, cli._int_list(args.cycle, "cycle"), record)
        except CycleError as e:
            assert err == f"error: {e}\n"
            refused += 1
        else:
            assert args.format == "json" and "filtration has more than" in err, err
    assert refused > 1000


def test_fundamental_refuses_a_graph_as_the_library_does(tmp_path):
    # One owner of the Z_0 gate: every fundamental request without
    # --support that exits 1 prints the error of fundamental_cycle(g),
    # including on a graph both disconnected and indefinite.
    refused = set()
    for args, g, err in failures(str(tmp_path), "fundamental"):
        if args.support is None:
            with pytest.raises(InvalidGraphError) as e:
                fundamental_cycle(g)
            assert err == f"error: {e.value}\n"
            record = validate(g)
            refused.add((record.connected, record.negative_definite))
    assert refused == {(True, False), (False, False)}


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
