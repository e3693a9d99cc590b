"""Every output byte of a fixed request corpus, pinned, and the checks
that read the whole corpus, all from one pass over it.

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
from collections import namedtuple

import pytest

import dualcycles
from dualcycles import classify, cli, invariants
from dualcycles.cli import EXIT_VALIDATION, main
from dualcycles.invariants import (
    CycleError,
    InvalidGraphError,
    _pointwise,
    _rational,
    fundamental_cycle,
    validate,
)
from corpus import DIGEST_DIR, counting, digest_argvs, write_digest_graphs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.txt")


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


Request = namedtuple("Request", "argv code writes err calls")


def run_corpus(directory: str) -> list[Request]:
    """Each request of the corpus, run once in this process on the graph
    files in ``directory``: its argv, exit code, the text of each write to
    its stdout, its stderr, and its calls of ``validate`` and of the
    oracle's ``_search_plan``, in order."""
    write_digest_graphs(directory)
    calls, requests = [], []
    spy = counting(calls, "validate", invariants.validate)
    with pytest.MonkeyPatch.context() as patch:
        for module in (dualcycles, invariants, cli):  # every module holding the name
            patch.setattr(module, "validate", spy)
        patch.setattr(classify, "_search_plan", counting(calls, "plan", classify._search_plan))
        for argv in digest_argvs():
            calls.clear()
            out, err = Stdout(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([a.replace(DIGEST_DIR, directory) for a in argv], out=out)
            requests.append(Request(argv, code, out.writes, err.getvalue(), tuple(calls)))
    return requests


def digest_lines(requests: list[Request], directory: str) -> list[str]:
    """One "<sha256> <argv>" line per request run on the graph files in
    ``directory``."""
    lines = []
    for r in requests:
        seen = (r.code, *(text.replace(directory, DIGEST_DIR) for text in ("".join(r.writes), r.err)))
        lines.append(hashlib.sha256(repr(seen).encode()).hexdigest() + " " + " ".join(r.argv))
    return lines


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(directory, requests, seconds): the one pass over the corpus that
    every test here reads."""
    directory = str(tmp_path_factory.mktemp("digests"))
    start = time.monotonic()
    requests = run_corpus(directory)
    return directory, requests, time.monotonic() - start


def test_outputs_match_their_digests(corpus):
    directory, requests, elapsed = corpus
    got = digest_lines(requests, directory)
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    differ = next((g.split(" ", 1)[1] for g, w in zip(got, want) if g != w), None)
    assert differ is None, f"first request whose output differs: {differ}"
    assert len(got) == len(want), (len(got), len(want))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_each_request_writes_stdout_at_most_once(corpus):
    # Over the digest corpus, main writes each request's stdout in one call,
    # after the whole of it is built: a request that ends with an error:
    # line has written nothing.  Exit codes 1 and 3 alone do not mean an
    # error, as validate and verify-rdp print their reports with them.
    errors = 0
    for r in corpus[1]:
        assert len(r.writes) <= 1, r.argv
        if "error:" in r.err:
            assert r.writes == [], r.argv
            errors += 1
    assert errors > 3000


def test_each_request_validates_once_and_plans_once(corpus):
    # Over the digest corpus, a request computes its graph's report
    # at most once and passes it down, and an oracle request plans its
    # box search at most once; nothing is kept between requests.
    seen = set()
    for r in corpus[1]:
        assert r.calls.count("validate") <= 1, r.argv
        assert r.calls.count("plan") <= ("oracle" in r.argv), r.argv
        seen.update(r.calls)
    assert seen == {"validate", "plan"}


def failures(corpus, command: str):
    """(parsed arguments, graph, stderr) of each request of the corpus for
    ``command`` that exits 1."""
    directory, requests, _ = corpus
    for r in requests:
        if command in r.argv and r.code == EXIT_VALIDATION:
            args = cli._parse([a.replace(DIGEST_DIR, directory) for a in r.argv])
            yield args, cli._resolve_graph(args), r.err


def test_classification_refuses_a_graph_as_the_library_does(corpus):
    # One gate for the graphs the classification cannot take: every
    # classify, oracle and invariants request that exits 1 on a graph
    # validate rejects prints the gate's InvalidGraphError, one of
    # validate's own findings.
    refused = set()
    for command in ("classify", "oracle", "invariants"):
        for _, g, err in failures(corpus, command):
            record = validate(g)
            if not record.ok:
                with pytest.raises(InvalidGraphError) as e:
                    _rational(g)
                assert err == f"error: {e.value}\n", (command, err)
                assert str(e.value) in record.failures
                refused.add((command, str(e.value).split(":")[0]))
    assert {reason for _, reason in refused} == {
        "intersection matrix is not negative definite", "graph is not connected", "not rational"}
    assert {command for command, _ in refused} == {"classify", "oracle", "invariants"}


def test_invariants_refuses_a_cycle_as_the_library_does(corpus):
    # One owner of a cycle's preconditions: on a graph that validate
    # accepts, every invariants request that exits 1 prints the error of
    # _pointwise on its graph and cycle, and once the cycle passes, only
    # the JSON form's filtration can refuse it.  A graph that validate
    # rejects is the graph gate's (the test above).
    refused = 0
    for args, g, err in failures(corpus, "invariants"):
        record = validate(g)
        if not record.ok:
            continue
        try:
            _pointwise(g, cli._int_list(args.cycle, "cycle"), record)
        except CycleError as e:
            assert err == f"error: {e}\n"
            refused += 1
        else:
            assert args.format == "json" and "filtration has more than" in err, err
    assert refused > 1000


def test_fundamental_refuses_a_graph_as_the_library_does(corpus):
    # One owner of the Z_0 gate: every fundamental request without
    # --support that exits 1 prints the error of fundamental_cycle(g),
    # on a graph disconnected, indefinite or both.
    refused = set()
    for args, g, err in failures(corpus, "fundamental"):
        if args.support is None:
            with pytest.raises(InvalidGraphError) as e:
                fundamental_cycle(g)
            assert err == f"error: {e.value}\n"
            record = validate(g)
            refused.add((record.connected, record.negative_definite))
    assert refused == {(True, False), (False, False), (False, True)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN}")
    if not parser.parse_args().write:
        parser.error("nothing to do without --write (pytest runs the check)")
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(run_corpus(tmp), tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} digests written to {GOLDEN}", file=sys.stderr)
