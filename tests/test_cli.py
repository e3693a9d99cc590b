"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import resource
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dualcycles
import dualcycles.cli as cli
from dualcycles import classify, invariants, lattice
from dualcycles.builders import MAX_DIGITS, build_ade, build_cyclic, parse_graph, serialize_graph
from dualcycles.classify import enumerate_special, enumerate_ulrich
from dualcycles.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from dualcycles.lattice import DualGraph
from corpus import (
    CATERPILLAR,
    CATERPILLAR_Z0,
    DIGEST_FILES,
    INDEFINITE_STAR,
    NON_RATIONAL_TREE,
    STAR,
    counting,
    graph_of,
    run_child,
    tree_classes,
    write_digest_graphs,
)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run("--format", "json", *argv)
    return code, json.loads(text) if text else None


class TestSerializer:
    @pytest.mark.parametrize(
        "g",
        [
            build_ade("A", 1),
            build_ade("D", 6),
            build_ade("E", 8),
            build_cyclic(7, 3),
            build_cyclic(19, 7),
            STAR,
        ],
    )
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_omits_default_weights(self):
        text = serialize_graph(build_ade("A", 3))
        assert "weight" not in text
        assert text.startswith("vertices 3\n")

    def test_emits_non_default_weights(self):
        assert "weight 1 -3" in serialize_graph(build_cyclic(7, 3))


class TestGraphCommand:
    def test_ade_prints_text_format(self):
        code, out = run("graph", "ade", "--family", "A", "--index", "3")
        assert code == EXIT_OK
        assert parse_graph(out) == build_ade("A", 3)

    def test_load_round_trip(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text(serialize_graph(STAR))
        code, out = run("graph", "load", str(src))
        assert code == EXIT_OK
        assert parse_graph(out) == STAR

    @pytest.mark.parametrize("name", DIGEST_FILES)
    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path, capsys, name):
        # A file saved with a UTF-8 byte-order mark once failed with "line 1:
        # 'vertices' must be the first directive", exit 2.
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        write_digest_graphs(plain)
        text = (plain / f"{name}.txt").read_bytes()
        (marked / f"{name}.txt").write_bytes(b"\xef\xbb\xbf" + text)
        ones, seen = ",".join(["1"] * DIGEST_FILES[name].vertex_count), {}
        for where in (plain, marked):
            graph = str(where / f"{name}.txt")
            for form in ([], ["--format", "json"]):
                for argv in (["graph", "load", graph], ["validate", "--graph", graph],
                             ["fundamental", "--graph", graph], ["classify", "--graph", graph],
                             ["invariants", "--graph", graph, "--cycle", ones],
                             ["oracle", "--graph", graph, "--bound", "2"]):
                    code, out = run(*form, *argv)
                    seen.setdefault(where, []).append((code, out, capsys.readouterr().err))
        assert seen[marked] == seen[plain]
        assert seen[plain][0][0] == EXIT_OK  # graph load reads every one of these files

    def test_out_file(self, tmp_path):
        dst = tmp_path / "out.txt"
        code, _ = run("graph", "cyclic", "--n", "7", "--q", "3", "--out", str(dst))
        assert code == EXIT_OK
        assert parse_graph(dst.read_text()) == build_cyclic(7, 3)

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_unopenable_out_file_exits_two(self, tmp_path, capsys, fmt):
        # --out "" once printed the graph to stdout and exited 0.
        for dst in ("", str(tmp_path)):
            code, out = run(*fmt, "graph", "ade", "--family", "A", "--index", "3", "--out", dst)
            err = capsys.readouterr().err
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error:") and err.count("\n") == 1

    def test_json_document_shape(self):
        code, doc = run_json("graph", "ade", "--family", "E", "--index", "6")
        assert code == EXIT_OK
        assert doc["tool"]["name"] == "dualcycles"
        assert doc["command"] == "graph"
        assert doc["graph"]["vertices"] == 6
        assert [1, 2] in doc["graph"]["edges"]


class TestValidateCommand:
    def test_good_graph(self):
        code, _ = run("validate", "--family", "D", "--index", "5")
        assert code == EXIT_OK

    def test_bad_graph_exits_one(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("vertices 2\n")  # disconnected
        code, _ = run("validate", "--graph", str(src))
        assert code == EXIT_VALIDATION

    def test_json_fields(self):
        code, doc = run_json("validate", "--n", "7", "--q", "3")
        assert code == EXIT_OK
        res = doc["results"]
        assert res["rational"] is True
        assert res["gorenstein"] is False
        assert res["multiplicity"] == 3
        assert res["failures"] == []
        # The report's trailing fields (Z_0, its pairing and the formula
        # site's constants) stay out of the document.
        assert list(res) == ["connected", "negative_definite", "tree", "rational",
                             "gorenstein", "multiplicity", "failures"]


class TestFundamentalCommand:
    def test_full_graph(self):
        code, doc = run_json("fundamental", "--family", "E", "--index", "6")
        assert code == EXIT_OK
        assert doc["results"]["cycle"] == [1, 2, 3, 2, 1, 2]

    def test_sub_support(self):
        code, doc = run_json(
            "fundamental", "--family", "D", "--index", "5", "--support", "2,3,4,5"
        )
        assert code == EXIT_OK
        assert doc["results"]["cycle"] == [0, 1, 2, 1, 1]

    def test_disconnected_support_fails(self):
        code, _ = run("fundamental", "--family", "A", "--index", "4", "--support", "1,3")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "g, err",
        [
            # Definite: it once exited 2, naming a support never given.
            (DualGraph((-2,) * 4, [(0, 1), (2, 3)]), "error: graph is not connected\n"),
            # Definiteness is checked first.
            (
                DualGraph((-2,) * 7, INDEFINITE_STAR.edges),
                "error: intersection matrix is not negative definite\n",
            ),
        ],
        ids=["definite", "indefinite"],
    )
    def test_disconnected_graph_exits_one(self, tmp_path, capsys, g, err):
        src = tmp_path / "g.txt"
        src.write_text(serialize_graph(g))
        assert run("fundamental", "--graph", str(src)) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("support", ["0", "99", ""])
    def test_support_out_of_range_exits_two(self, capsys, support):
        # "0" once printed 0 0 0 and exited 0; "99" ended in a traceback;
        # "" printed Z_0 and exited 0.
        code, out = run("fundamental", "--family", "A", "--index", "3", "--support", support)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("support", ["1,x", ",", ""])
    def test_malformed_support_names_the_option(self, capsys, support):
        # These once passed int()'s own message through.
        code, out = run("fundamental", "--family", "A", "--index", "3", "--support", support)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: support {support!r} is not a comma-separated integer list\n"

    def test_one_bareiss_pass(self, tmp_path, monkeypatch):
        # No elimination on a connected definite graph, whose Laufer loop
        # certifies it; one on a graph whose loop runs past its bump budget.
        passes = []
        spy = counting(passes, "elimination", invariants.is_negative_definite)
        monkeypatch.setattr(invariants, "is_negative_definite", spy)
        code, out = run("fundamental", "--n", "97", "--q", "13")
        assert (code, len(passes)) == (EXIT_OK, 0)
        assert out == "1 1 1\n"
        src = tmp_path / "caterpillar.txt"
        src.write_text(serialize_graph(CATERPILLAR))
        code, out = run("fundamental", "--graph", str(src))
        assert (code, len(passes)) == (EXIT_OK, 1)
        assert out == " ".join(map(str, CATERPILLAR_Z0)) + "\n"

    def test_indefinite_graph_exits_one_in_time(self, tmp_path):
        # Laufer's loop never ends on this graph; the command must refuse it.
        src = tmp_path / "star.txt"
        src.write_text(serialize_graph(INDEFINITE_STAR))
        proc = run_child("-m", "dualcycles.cli", "fundamental", "--graph", str(src))
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("support, code, out, err", [
        # A definite sub-support of an indefinite graph: once refused with
        # exit 1 before fundamental_cycle saw the support.
        ("2", EXIT_OK, "0 1 0 0 0 0\n", ""),
        ("1,2,3,4,5,6", EXIT_USAGE, "",
         "error: fundamental cycle needs a negative definite support\n"),
        ("2,3", EXIT_USAGE, "", "error: fundamental cycle needs a connected support\n"),
        ("0", EXIT_USAGE, "", "error: support has vertices outside the graph's 6 vertices\n"),
    ], ids=["definite", "full", "disconnected", "outside"])
    def test_support_on_indefinite_graph(self, tmp_path, capsys, support, code, out, err):
        src = tmp_path / "star.txt"
        src.write_text(serialize_graph(INDEFINITE_STAR))
        assert run("fundamental", "--graph", str(src), "--support", support) == (code, out)
        assert capsys.readouterr().err == err


class TestInvariantsCommand:
    def test_values(self):
        code, doc = run_json(
            "invariants", "--family", "A", "--index", "3", "--cycle", "1,2,1"
        )
        assert code == EXIT_OK
        res = doc["results"]
        assert res["colength"] == 2
        assert res["multiplicity"] == 4
        assert res["min_gens"] == 3
        assert res["u_invariant"] == 0
        assert res["special_module_indices"] == [2]

    def test_filtration_in_output(self):
        code, doc = run_json(
            "invariants", "--family", "A", "--index", "3", "--cycle", "1,2,1"
        )
        filt = doc["results"]["filtration"]
        assert filt["base"] == [1, 1, 1]
        assert filt["steps"] == [{"increment": [0, 1, 0], "cycle": [1, 2, 1]}]

    def test_non_anti_nef_exits_one(self):
        code, _ = run("invariants", "--family", "A", "--index", "3", "--cycle", "0,2,1")
        assert code == EXIT_VALIDATION

    def test_malformed_cycle_exits_two(self):
        code, _ = run("invariants", "--family", "A", "--index", "3", "--cycle", "1,x,1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_non_rational_graph_exits_one(self, tmp_path, capsys, fmt):
        src = tmp_path / "tree.txt"
        src.write_text(serialize_graph(NON_RATIONAL_TREE))
        code, out = run(
            "--format", fmt, "invariants", "--graph", str(src), "--cycle", "2,1,1,2,1,2,1,1,1"
        )
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


    def test_table_form_builds_no_filtration_in_time(self, capsys):
        # The filtration has one step per multiple of Z_0 below Z: 2,000,000
        # here.  Table output never prints it.
        a = 2_000_000
        start = time.perf_counter()
        code, out = run("invariants", "--family", "A", "--index", "1", "--cycle", str(a))
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert out == (
            f"  virtual_genus: {1 - a * a}\n"
            f"  colength: {a * a}\n"
            f"  multiplicity: {2 * a * a}\n"
            f"  min_gens: {1 + 2 * a}\n"
            f"  u_invariant: {2 * a**3 - 2 * a * a}\n"
            "  special_module_indices: []\n"
        )
        assert capsys.readouterr().err == ""
        assert elapsed < 2.0

    def test_json_form_checks_the_cycle_once(self, monkeypatch):
        # The filtration is built from the cycle the invariants already
        # checked: one pointwise record and one pairing vector.
        argv = ["--format", "json", "invariants", "--family", "E", "--index", "6",
                "--cycle", "2,3,4,3,2,2"]
        expected = run(*argv)  # the validate report is built here
        calls = []
        pointwise = counting(calls, "_pointwise", invariants._pointwise)
        pairing = counting(calls, "pairing_vector", invariants.pairing_vector)
        monkeypatch.setattr(invariants, "_pointwise", pointwise)
        monkeypatch.setattr(cli, "_pointwise", pointwise, raising=False)
        for module in (invariants, lattice):  # every module holding the name
            monkeypatch.setattr(module, "pairing_vector", pairing)
        assert run(*argv) == expected
        assert calls.count("_pointwise") == 1
        assert calls.count("pairing_vector") == 1

    def test_table_form_prints_the_json_values(self):
        argv = ["invariants", "--family", "E", "--index", "6", "--cycle", "2,3,4,3,2,2"]
        code, out = run(*argv)
        _, doc = run_json(*argv)
        assert code == EXIT_OK
        keys = list(doc["results"])[1:-1]  # between "cycle" and "filtration"
        assert out == "".join(f"  {k}: {doc['results'][k]}\n" for k in keys)


def two_walk_classify(g, max_colength=None, special=True, ulrich=True):
    """Reference for ``cli._classify``: the special walk, then the Ulrich
    walk, each list None when it is not asked for.  The cap is checked
    after the graph, whichever lists are asked for; None lets every
    walked cycle through (10 r is past the longest chain)."""
    specials = enumerate_special(g, 10 * g.vertex_count if max_colength is None else max_colength)
    return specials if special else None, enumerate_ulrich(g) if ulrich else None


class TestClassifyCommand:
    def test_both_lists_by_default(self):
        code, doc = run_json("classify", "--n", "7", "--q", "3")
        assert code == EXIT_OK
        assert [e["cycle"] for e in doc["results"]["special"]] == [[1, 1, 1], [1, 2, 1]]
        assert [e["cycle"] for e in doc["results"]["ulrich"]] == [[1, 1, 1]]

    def test_only_ulrich(self):
        code, doc = run_json("classify", "--family", "D", "--index", "5", "--ulrich")
        assert code == EXIT_OK
        assert "special" not in doc["results"]
        assert len(doc["results"]["ulrich"]) == 3

    def test_entry_fields(self):
        _, doc = run_json("classify", "--family", "A", "--index", "3", "--special")
        entry = doc["results"]["special"][0]
        assert set(entry) == {
            "cycle",
            "colength",
            "multiplicity",
            "min_gens",
            "module_indices",
            "chain",
            "kind",
        }

    def test_table_output_marks_module_vertices(self):
        code, out = run("classify", "--n", "7", "--q", "3", "--ulrich")
        assert code == EXIT_OK
        assert "1* 1* 1*" in out

    def test_invalid_graph_exits_one(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("vertices 3\nedge 1 2\nedge 2 3\nedge 1 3\n")  # triangle
        code, _ = run("classify", "--graph", str(src))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_max_colength_exits_two(self, capsys, cap):
        code, out = run("classify", "--family", "A", "--index", "3", "--max-colength", cap)
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == "error: max_colength must be >= 1\n"


    @pytest.mark.parametrize(
        "source", [["--family", "A", "--index", "3"], ["--n", "5", "--q", "2"]], ids=["A3", "cyclic5_2"]
    )
    def test_negative_max_steps_exits_two(self, capsys, source):
        # A_3 has multiplicity 2, (1/5)(1,2) multiplicity 3.  The walk's
        # depth is bounded by a lemma, so --max-steps is gone and argparse
        # refuses it as an unknown option.
        code, out = run("classify", *source, "--ulrich", "--max-steps", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.endswith("error: unrecognized arguments: --max-steps -1\n")

    @pytest.mark.parametrize("kind", [[], ["--special"], ["--ulrich"]], ids=["both", "special", "ulrich"])
    @pytest.mark.parametrize(
        "caps, message",
        [(["--max-colength", "0"], "max_colength must be >= 1")],
        ids=["colength"],
    )
    def test_bad_cap_exits_two_on_every_form(self, capsys, kind, caps, message):
        # The cap is checked whether or not its list is printed.
        code, out = run("classify", "--family", "A", "--index", "3", *kind, *caps)
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", [[], ["--special"], ["--ulrich"]], ids=["both", "special", "ulrich"])
    def test_graph_is_checked_before_the_caps(self, tmp_path, capsys, kind):
        src = tmp_path / "tree.txt"
        src.write_text(serialize_graph(NON_RATIONAL_TREE))
        code, out = run(
            "classify", "--graph", str(src), *kind, "--max-colength", "0"
        )
        assert (code, out) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == "error: not rational: fundamental cycle has virtual genus 1\n"


    @pytest.mark.parametrize("source", ["A9", "D8", "star"])
    def test_one_walk_matches_two_walks(self, tmp_path, capsys, monkeypatch, source):
        # A_9 and D_8 have multiplicity 2, the star multiplicity 3; all
        # three take one walk for both lists.
        if source == "star":
            g = STAR
            path = tmp_path / "star.txt"
            path.write_text(serialize_graph(STAR))
            argv = ["classify", "--graph", str(path)]
        else:
            g = build_ade(source[0], int(source[1:]))
            argv = ["classify", "--family", source[0], "--index", source[1:]]
        longest = max(len(e.chain.steps) for e in enumerate_ulrich(g))
        caps = [0, None, *range(1, longest + 4)]  # a bad cap first: it is checked before the walk

        def outputs():
            got = []
            for colength in caps:
                extra = [] if colength is None else ["--max-colength", str(colength)]
                for fmt in ("table", "json"):
                    code, out = run("--format", fmt, *argv, *extra)
                    got.append((fmt, colength, code, out, capsys.readouterr().err))
            return got

        shared = outputs()
        monkeypatch.setattr(cli, "_classify", two_walk_classify)
        reference = outputs()
        assert shared == reference
        refused = [r for r in reference if r[1] == 0]
        assert refused and all(r[2:] == (EXIT_USAGE, "", "error: max_colength must be >= 1\n")
                               for r in refused)

    def test_plain_classify_walks_once(self, tmp_path, monkeypatch):
        # Both lists of the -3 star cost no more Laufer loops than the
        # special list alone at the same cap: one walk, not two.
        loops = []
        real = classify._laufer

        def spy(g, verts, *args):
            loops.append(verts)
            return real(g, verts, *args)

        monkeypatch.setattr(classify, "_laufer", spy)
        path = tmp_path / "star.txt"
        path.write_text(serialize_graph(STAR))
        enumerate_special(STAR, 10 * STAR.vertex_count)
        alone = len(loops)
        code, _ = run("classify", "--graph", str(path))
        assert code == EXIT_OK
        assert 0 < len(loops) - alone <= alone

    def test_table_form_builds_no_json_text(self, monkeypatch):
        calls = []
        for owner, name in ((cli, "_classify_chunks"), (cli, "_ints"), (cli, "_int_rows"),
                            (json, "dumps")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _name=name, _real=real, **kw: (
                calls.append(_name) or _real(*a, **kw)))
        code, out = run("classify", "--family", "A", "--index", "9")
        assert code == EXIT_OK and "ulrich cycles (5):" in out
        code, out = run("oracle", "--family", "A", "--index", "9", "--bound", "5")
        assert code == EXIT_OK and "ulrich cycles (5):" in out
        assert calls == []
        # JSON form writes the results from the entries once.
        code, doc = run_json("classify", "--family", "A", "--index", "9")
        assert code == EXIT_OK and len(doc["results"]["ulrich"]) == 5
        assert calls.count("_classify_chunks") == 1 and "dumps" not in calls
        # The oracle's two cycle lists come from _int_rows, not json.dumps;
        # on a multiplicity-2 graph they are one list, written from one text.
        calls.clear()
        code, doc = run_json("oracle", "--family", "A", "--index", "9", "--bound", "5")
        assert code == EXIT_OK and len(doc["results"]["ulrich"]) == 5
        assert calls.count("_int_rows") == 1 and "dumps" not in calls
        calls.clear()
        code, doc = run_json("oracle", "--n", "7", "--q", "3", "--bound", "4")
        assert code == EXIT_OK and doc["results"]["ulrich"] != doc["results"]["special"]
        assert calls.count("_int_rows") == 2 and "dumps" not in calls


class TestOracleCommand:
    def test_agrees_with_classify(self):
        _, oracle_doc = run_json("oracle", "--n", "7", "--q", "3", "--bound", "4")
        _, chain_doc = run_json("classify", "--n", "7", "--q", "3")
        assert oracle_doc["results"]["special"] == [
            e["cycle"] for e in chain_doc["results"]["special"]
        ]
        assert oracle_doc["results"]["ulrich"] == [
            e["cycle"] for e in chain_doc["results"]["ulrich"]
        ]


class TestVerifyRdpCommand:
    def test_match_exits_zero(self):
        code, doc = run_json("verify-rdp", "--family", "E", "--index", "7")
        assert code == EXIT_OK
        assert doc["results"]["matched"] is True
        assert doc["results"]["actual_count"] == 3

    def test_table_output(self):
        code, out = run("verify-rdp", "--family", "A", "--index", "4")
        assert code == EXIT_OK
        assert "A4: match" in out

    def test_mismatch_exits_three(self, monkeypatch):
        import dualcycles.cli as cli
        from dualcycles.classify import RdpVerification

        def fake_verify(family, index):
            return RdpVerification(
                family="A",
                index=2,
                matched=False,
                expected=[((1, 1), 1)],
                actual=[],
                expected_count=1,
                missing=[(1, 1)],
                extra=[],
                colength_mismatches=[],
            )

        monkeypatch.setattr(cli, "verify_rdp", fake_verify)
        code, _ = run("verify-rdp", "--family", "A", "--index", "2")
        assert code == EXIT_MISMATCH

    @staticmethod
    def full_mismatch(family, index):
        # One missing cycle, one extra cycle and one colength mismatch.
        from dualcycles.classify import RdpVerification

        return RdpVerification(
            family="A",
            index=3,
            matched=False,
            expected=[((1, 1, 1), 1), ((1, 2, 1), 2)],
            actual=[((1, 1, 1), 2), ((2, 2, 2), 1)],
            expected_count=2,
            missing=[(1, 2, 1)],
            extra=[(2, 2, 2)],
            colength_mismatches=[((1, 1, 1), 1, 2)],
        )

    def test_mismatch_report_in_table_form(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_rdp", self.full_mismatch)
        code, out = run("verify-rdp", "--family", "A", "--index", "3")
        assert code == EXIT_MISMATCH
        assert out == "A3: MISMATCH, 2 cycles (expected 2)\n  1 1 1  colength=2\n  2 2 2  colength=1\n"
        assert capsys.readouterr().err == (
            "missing: 1 2 1\n"
            "extra: 2 2 2\n"
            "colength mismatch at 1 1 1: expected 1, got 2\n"
        )

    def test_mismatch_report_in_json_form(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_rdp", self.full_mismatch)
        code, doc = run_json("verify-rdp", "--family", "A", "--index", "3")
        assert code == EXIT_MISMATCH
        assert capsys.readouterr().err == ""
        results = doc["results"]
        assert results["matched"] is False
        assert results["missing"] == [[1, 2, 1]]
        assert results["extra"] == [[2, 2, 2]]
        assert results["colength_mismatches"] == [{"cycle": [1, 1, 1], "expected": 1, "actual": 2}]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _ = run("frobnicate")
        assert code == EXIT_USAGE

    def test_no_graph_source(self):
        code, _ = run("validate")
        assert code == EXIT_USAGE

    def test_incomplete_graph_source(self):
        code, _ = run("validate", "--family", "A")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("source", [["--n", "7"], ["--q", "3"]], ids=["n-alone", "q-alone"])
    def test_half_given_cyclic_source(self, capsys, source):
        code, out = run("validate", *source)
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: --n and --q go together\n"

    @pytest.mark.parametrize(
        "sources",
        [
            ["--graph", "A2", "--family", "E", "--index", "8", "--n", "7", "--q", "3"],
            ["--graph", "A2", "--n", "7"],
            ["--family", "A", "--index", "3", "--n", "7", "--q", "3"],
            ["--index", "3", "--q", "3"],
            ["--graph", "/nonexistent/g.txt", "--family", "A"],  # refused before it is read
        ],
        ids=["all-three", "file-and-n", "ade-and-cyclic", "halves", "missing-file"],
    )
    def test_two_graph_sources(self, tmp_path, capsys, sources):
        (tmp_path / "A2").write_text("vertices 2\nedge 1 2\n")
        sources = [str(tmp_path / a) if a == "A2" else a for a in sources]
        for sub in ("validate", "fundamental", "classify", "oracle", "invariants"):
            extra = {"oracle": ["--bound", "2"], "invariants": ["--cycle", "1,1"]}.get(sub, [])
            code, out = run(sub, *sources, *extra)
            assert (code, out) == (EXIT_USAGE, ""), sub
            assert capsys.readouterr().err == (
                "error: choose one graph source: --graph, --family/--index or --n/--q\n"
            )

    def test_missing_file(self):
        code, _ = run("validate", "--graph", "/nonexistent/g.txt")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        "invariants --family A --index 3 --cycle=--",
        "fundamental --family A --index 3 --support=--",
        "classify --graph=--",
        "classify --family A --index=--",
        "classify --n=-- --q 2",
        "classify --family A --index 3 --max-colength=--",
        "oracle --family A --index 3 --bound=--",
        "graph ade --family A --index=--",
    ])
    def test_dash_dash_value_is_a_usage_error(self, capsys, argv):
        # Argparse 3.10-3.12.1 read "--opt=--" as an empty list, 3.13 as
        # the string "--": both end in one usage error.
        code, out = run(*argv.split())
        err = capsys.readouterr().err
        assert (code, out) == (EXIT_USAGE, "")
        assert "Traceback" not in err and "error:" in err.splitlines()[-1]

    def test_version_flag(self):
        code, _ = run("--version")
        assert code == EXIT_OK

    def test_version_is_the_project_version(self):
        # --version and every JSON document's tool.version read __version__,
        # its one owner: pyproject.toml's [project] table holds no literal
        # version and reads it from the package.  The file's text, not
        # tomllib, which Python 3.10 lacks, nor setuptools' reader, which
        # warns that the dynamic table is a beta.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            tables = dict(re.findall(r"^\[(.*)\]\n((?:(?!\[).*\n)*)", fh.read(), re.MULTILINE))
        assert not re.search(r"^version\s*=", tables["project"], re.MULTILINE)
        assert 'dynamic = ["version"]\n' in tables["project"]
        assert tables["tool.setuptools.dynamic"].strip() == 'version = {attr = "dualcycles.__version__"}'
        assert re.fullmatch(r"\d+\.\d+\.\d+", dualcycles.__version__)


class TestLastResort:
    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_exhaustion_exits_one_with_one_error_line(self, capsys, monkeypatch, error):
        def exhausted(g, bound):
            raise error()

        monkeypatch.setattr(cli, "oracle_classify", exhausted)
        code, out = run("oracle", "--family", "E", "--index", "8", "--bound", "1000")
        assert code == EXIT_VALIDATION and out == ""
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0][len("error: "):].strip()

    @pytest.mark.parametrize("fails", ["writelines", "flush"])
    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_failed_write_exits_one_with_one_error_line(self, capsys, fmt, fails):
        # A closed pipe or a full disk is not a usage error: the request ran.
        class Refusing:
            def writelines(self, pieces):
                if fails == "writelines":
                    raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise OSError(28, "No space left on device")

        code = main([*fmt, "classify", "--family", "A", "--index", "3"], Refusing())
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == ("error: [Errno 32] Broken pipe\n" if fails == "writelines"
                       else "error: [Errno 28] No space left on device\n")

    def test_import_leaves_dataclasses_unloaded(self):
        proc = run_child("-c", "import sys, dualcycles.cli\nprint('dataclasses' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
        # With site off (site alone loads re, typing and enum): a table
        # request and the templated JSON documents load none of these four,
        # and a json.dumps document loads json on first use.
        code = (
            "import io, sys\n"
            "def loaded(): print([m for m in ('typing', 're', 'json', 'enum') if m in sys.modules])\n"
            "import dualcycles.cli as cli\n"
            "loaded()\n"
            "for argv in (['classify', '--family', 'A', '--index', '3'],\n"
            "             ['--format', 'json', 'classify', '--n', '7', '--q', '3'],\n"
            "             ['--format', 'json', 'oracle', '--family', 'D', '--index', '5', '--bound', '2'],\n"
            "             ['--format', 'json', 'validate', '--family', 'E', '--index', '6']):\n"
            "    print(cli.main(argv, io.StringIO()), end=' ')\n"
            "    loaded()\n"
        )
        proc = run_child("-S", "-c", code)
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines()
        assert lines == ["[]", "0 []", "0 []", "0 []"]
        assert last.startswith("0 [") and "'json'" in last  # json imports re, which imports enum

    def test_well_formed_request_leaves_argparse_unloaded(self):
        # argparse (and gettext, which it imports) load with the first argv
        # that needs the top parser, and not before.
        code = (
            "import io, sys\n"
            "def loaded(): print([m for m in ('argparse', 'gettext') if m in sys.modules])\n"
            "import dualcycles.cli as cli\n"
            "loaded()\n"
            "cli.main(['--format', 'json', 'classify', '--n', '7', '--q', '3'], io.StringIO())\n"
            "loaded()\n"
            "cli.main(['frobnicate'])\n"
            "loaded()\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n['argparse', 'gettext']\n"

    def test_graph_file_request_leaves_the_bom_codec_unloaded(self, tmp_path):
        # A graph file is read as utf-8 and one leading byte-order mark is
        # dropped by hand: opening it as utf-8-sig loads that codec's module
        # on a process's first file request.
        path = tmp_path / "star.txt"
        path.write_bytes(b"\xef\xbb\xbf" + serialize_graph(STAR).encode())
        code = (
            "import io, sys\n"
            "import dualcycles.cli as cli\n"
            f"for argv in (['classify', '--graph', {str(path)!r}], ['graph', 'load', {str(path)!r}]):\n"
            "    print(cli.main(argv, io.StringIO()), 'encodings.utf_8_sig' in sys.modules)\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n0 False\n"


def run_capped(*argv):
    """One request in a child process whose address space is capped at
    1.5 GB, in that child only, with a 20 s timeout: a request that
    allocates or loops without end cannot exhaust the machine.  Returns
    (exit code, stdout, stderr, seconds)."""
    cap = 1536 * 2**20  # 1.5 GB

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.monotonic()
    proc = run_child("-m", "dualcycles.cli", *argv, timeout=20, preexec_fn=limit)
    return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - start


class TestSizeLimits:
    """Requests too large to answer are refused up front, each in time with
    its documented exit code and one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ["classify", "--n", "1000000000", "--q", "999999999"],
                EXIT_USAGE,
                "the chain of n/q has more than 1000000 vertices",
            ),
            (
                ["classify", "--family", "A", "--index", "1000000000"],
                EXIT_USAGE,
                "A_1000000000 has more than 1000000 vertices",
            ),
            (
                ["validate", "--graph", "{file}"],
                EXIT_USAGE,
                "line 1: vertex count must be <= 1000000, got 1000000000",
            ),
            (
                ["--format", "json", "invariants", "--family", "A", "--index", "1",
                 "--cycle", "100000000000000000000"],
                EXIT_VALIDATION,
                "the filtration has more than 100000 coefficients",
            ),
        ],
        ids=["cyclic", "ade", "file", "filtration"],
    )
    def test_oversized_request_is_refused_in_time(self, tmp_path, argv, code, message):
        path = tmp_path / "huge.txt"
        path.write_text("vertices 1000000000\n")
        got = run_capped(*(str(path) if a == "{file}" else a for a in argv))
        assert got[:3] == (code, "", f"error: {message}\n")
        assert got[3] < 2.0, f"took {got[3]:.2f}s"

    @pytest.mark.parametrize(
        "argv",
        [
            # An A_1 box of 10^8 cycles: once still running after 10 s.
            ["oracle", "--n", "2", "--q", "1", "--bound", "99999999"],
            # Once allocated until MemoryError under a 1.5 GB cap (16.6 s).
            ["oracle", "--family", "E", "--index", "8", "--bound", "1000"],
        ],
        ids=["A1", "E8"],
    )
    def test_oversized_oracle_box_is_refused_in_time(self, argv):
        got = run_capped(*argv)
        message = (f"the box holds more than {classify.MAX_BOX} coefficients "
                   "of anti-nef cycles (cycles times vertices)")
        assert got[:3] == (EXIT_VALIDATION, "", f"error: {message}\n")
        assert got[3] < 10.0, f"took {got[3]:.2f}s"

    @pytest.mark.parametrize("where", ["weight", "cycle", "n"])
    def test_input_integers_of_at_most_max_digits(self, tmp_path, capsys, where):
        # A graph-file weight, a --cycle entry and --n of MAX_DIGITS digits
        # are answered, in both forms where the answer fits; one more digit
        # is refused with exit 2, one error: line that names the cap and
        # nothing on stdout.
        for digits in (MAX_DIGITS, MAX_DIGITS + 1):
            big = "9" * digits
            path = tmp_path / f"{digits}.txt"
            path.write_text(f"vertices 2\nweight 1 -{big}\nweight 2 -3\nedge 1 2\n")
            argv = {
                "weight": ["classify", "--graph", str(path)],
                "cycle": ["invariants", "--family", "A", "--index", "2", "--cycle", f"{big},{big}"],
                "n": ["classify", "--n", big, "--q", "1"],
            }[where]
            # JSON invariants would also list the filtration's 10**400 steps
            forms = ([],) if where == "cycle" else ([], ["--format", "json"])
            for form in forms:
                code, out = run(*form, *argv)
                err = capsys.readouterr().err
                if digits == MAX_DIGITS:
                    assert (code, err) == (EXIT_OK, ""), argv
                    assert big in out
                    continue
                what = {"weight": "line 2: 'weight' argument", "cycle": "a cycle entry", "n": "--n"}
                assert (code, out) == (EXIT_USAGE, ""), argv
                assert err == f"error: {what[where]} has more than {MAX_DIGITS} digits\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "--family", "A", "--index"],
        ["graph", "cyclic", "--q", "1", "--n"],
        ["classify", "--n", "7", "--q"],
        ["oracle", "--family", "A", "--index", "3", "--bound"],
        ["classify", "--family", "A", "--index", "3", "--max-colength"],
    ], ids=lambda a: a[-1])
    def test_integer_options_of_more_than_max_digits(self, capsys, argv):
        # Each integer option past the cap exits 2 with one error: line that
        # names the option and the cap, no echo of the value and nothing on
        # stdout: given as "--opt value" or "--opt=value", which the scan
        # reads when well-formed, abbreviated, which only argparse reads,
        # and before an unknown option, which argparse refuses last.
        *head, flag = argv
        abbreviated = {"--index": "--ind", "--bound": "--bou", "--max-colength": "--max"}
        for digits in (MAX_DIGITS + 1, 4300, 5000):
            big = "9" * digits
            tails = [[flag, big], [f"{flag}={big}"], [flag, big, "--unknown"]]
            tails += [[abbreviated[flag], big]] if flag in abbreviated else []
            for form, tail in itertools.product(([], ["--format", "json"]), tails):
                assert run(*form, *head, *tail) == (EXIT_USAGE, ""), tail
                assert capsys.readouterr().err == f"error: {flag} has more than {MAX_DIGITS} digits\n"

    def test_largest_output_integer_at_the_cap(self, tmp_path):
        # U(Z) on two joined vertices of MAX_DIGITS-digit weight, at a cycle
        # of MAX_DIGITS-digit coefficients: about 5 * MAX_DIGITS digits,
        # well under CPython's 4,300-digit limit on str(int).
        big = "9" * MAX_DIGITS
        path = tmp_path / "g.txt"
        path.write_text(f"vertices 2\nweight 1 -{big}\nweight 2 -{big}\nedge 1 2\n")
        code, out = run("invariants", "--graph", str(path), "--cycle", f"{big},{big}")
        assert code == EXIT_OK
        digits = {key.strip(): len(value.lstrip("-")) for key, value in
                  (line.split(": ") for line in out.splitlines())}
        assert digits["u_invariant"] == max(digits.values()) == 5 * MAX_DIGITS + 1

    def test_library_and_cli_refuse_an_oracle_box_alike(self, monkeypatch, capsys):
        monkeypatch.setattr(classify, "MAX_BOX", 100)
        g = build_ade("E", 6)
        with pytest.raises(classify.BoxLimitError) as err:
            classify.oracle_classify(g, 4)
        with pytest.raises(classify.BoxLimitError) as again:
            classify.brute_force_anti_nef(g, 4)
        assert str(again.value) == str(err.value)
        code, out = run("oracle", "--family", "E", "--index", "6", "--bound", "4")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_library_and_cli_refuse_a_filtration_alike(self, capsys):
        g = build_ade("A", 1)
        with pytest.raises(invariants.CycleError) as err:
            invariants.filtration(g, (10**20,))
        code, out = run("--format", "json", "invariants", "--family", "A", "--index", "1",
                        "--cycle", str(10**20))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == f"error: {err.value}\n"


# Whole documents, byte for byte: the key order of the records' fields.
TRIANGLE_VALIDATE = """\
{
  "tool": {
    "name": "dualcycles",
    "version": "0.3.0"
  },
  "command": "validate",
  "graph": {
    "vertices": 3,
    "weights": [
      -3,
      -3,
      -3
    ],
    "edges": [
      [
        1,
        2
      ],
      [
        1,
        3
      ],
      [
        2,
        3
      ]
    ]
  },
  "results": {
    "connected": true,
    "negative_definite": true,
    "tree": false,
    "rational": false,
    "gorenstein": false,
    "multiplicity": 3,
    "failures": [
      "not rational: fundamental cycle has virtual genus 1"
    ]
  }
}
"""

A2_VERIFY_RDP = """\
{
  "tool": {
    "name": "dualcycles",
    "version": "0.3.0"
  },
  "command": "verify-rdp",
  "graph": {
    "vertices": 2,
    "weights": [
      -2,
      -2
    ],
    "edges": [
      [
        1,
        2
      ]
    ]
  },
  "results": {
    "family": "A",
    "index": 2,
    "matched": true,
    "expected_count": 1,
    "actual_count": 1,
    "expected": [
      {
        "cycle": [
          1,
          1
        ],
        "colength": 1
      }
    ],
    "actual": [
      {
        "cycle": [
          1,
          1
        ],
        "colength": 1
      }
    ],
    "missing": [],
    "extra": [],
    "colength_mismatches": []
  }
}
"""


# (1/7)(1,3): the chain -3 -2 -2.
C73_GRAPH = """\
{
  "tool": {
    "name": "dualcycles",
    "version": "0.3.0"
  },
  "command": "graph",
  "graph": {
    "vertices": 3,
    "weights": [
      -3,
      -2,
      -2
    ],
    "edges": [
      [
        1,
        2
      ],
      [
        2,
        3
      ]
    ]
  },
  "results": {
    "text": "vertices 3\\nweight 1 -3\\nedge 1 2\\nedge 2 3\\n"
  }
}
"""


class TestGoldenDocuments:
    def test_validate_of_a_failing_graph(self, tmp_path):
        # Three -3 curves meeting pairwise: definite, not a tree, p_a(Z_0) = 1.
        src = tmp_path / "triangle.txt"
        src.write_text(serialize_graph(DualGraph((-3, -3, -3), [(0, 1), (1, 2), (0, 2)])))
        assert run("--format", "json", "validate", "--graph", str(src)) == (
            EXIT_VALIDATION, TRIANGLE_VALIDATE
        )

    def test_verify_rdp_a2(self):
        assert run("--format", "json", "verify-rdp", "--family", "A", "--index", "2") == (
            EXIT_OK, A2_VERIFY_RDP
        )

    def test_graph_load(self, tmp_path):
        src = tmp_path / "c73.txt"
        src.write_text(serialize_graph(build_cyclic(7, 3)))
        assert run("--format", "json", "graph", "load", str(src)) == (EXIT_OK, C73_GRAPH)


class TestGoldenFailures:
    """Exit code, stdout and stderr of failing requests, byte for byte:
    every handler raises, and ``main`` writes the one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (
                ["graph", "ade", "--family", "A", "--index", "0"],
                EXIT_USAGE,
                "error: A_n requires n >= 1, got 0\n",
            ),
            (
                ["graph", "cyclic", "--n", "6", "--q", "4"],
                EXIT_USAGE,
                "error: n=6 and q=4 are not coprime\n",
            ),
            (
                ["graph", "load"],
                EXIT_USAGE,
                "usage: dualcycles graph load [-h] [--out FILE] FILE\n"
                "dualcycles graph load: error: the following arguments are required: FILE\n",
            ),
            (
                ["invariants", "--family", "A", "--index", "3", "--cycle", "1,0,1"],
                EXIT_VALIDATION,
                "error: cycle is not anti-nef (represents no ideal)\n",
            ),
        ],
        ids=["ade-index", "cyclic-coprime", "load-no-file", "invariants-anti-nef"],
    )
    def test_request(self, capsys, monkeypatch, argv, code, err):
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
        assert run(*argv) == (code, "")
        assert capsys.readouterr().err == err

    def test_graph_load_of_a_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert run("graph", "load", missing) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["fundamental"], "error: intersection matrix is not negative definite\n"),
            (
                ["invariants", "--cycle", "1,1,1,1,1,1"],
                "error: intersection matrix is not negative definite\n",
            ),
        ],
        ids=["fundamental", "invariants"],
    )
    def test_indefinite_graph(self, tmp_path, capsys, argv, err):
        src = tmp_path / "star.txt"
        src.write_text(serialize_graph(INDEFINITE_STAR))
        assert run(argv[0], "--graph", str(src), *argv[1:]) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == err


@pytest.fixture
def built_parsers(monkeypatch):
    """With the top parser's cache cleared, the prog of every
    ArgumentParser constructed from then on, in order."""
    cli._top_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: (
        built.append(kw.get("prog")) or init(self, *a, **kw)))
    return built


class TestParserReuse:
    SEQUENCE = [
        ["classify", "--family", "A"],
        ["--format", "json", "classify", "--n", "7", "--q", "3", "--ulrich"],
        ["classify", "--n", "7", "--q", "3"],
        ["--version"],
        ["--format", "xml", "validate"],
        ["fundamental", "--family", "D", "--index", "5", "--support", "2,3,4,5"],
        ["--format", "json", "classify", "--n", "7", "--q", "3", "--special"],
        ["frobnicate"],
        ["classify", "--n", "7", "--q", "3"],
        ["classify", "--version"],
        ["--format=json", "classify", "--n", "7", "--q", "3"],
        ["classify", "--fam", "A", "--index", "3"],
    ]

    def test_calls_in_one_process_match_calls_alone(self, capsys, monkeypatch):
        # Usage text wraps at the terminal width; fix it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        cli._top_parser.cache_clear()
        for argv in self.SEQUENCE:
            code = main(list(argv))
            captured = capsys.readouterr()
            alone = run_child("-m", "dualcycles.cli", *argv, COLUMNS="80")
            assert (code, captured.out, captured.err) == (
                alone.returncode,
                alone.stdout,
                alone.stderr,
            ), argv
        # The top parser is built once, for the first argv that needs it,
        # and reused.
        assert cli._top_parser.cache_info().misses == 1

    def test_well_formed_requests_build_no_parser(self, built_parsers):
        for argv in JSON_REQUESTS:
            for fmt in ([], ["--format", "json"]):
                assert main([*fmt, *argv], out=io.StringIO()) == EXIT_OK
        assert built_parsers == []


JSON_REQUESTS = [
    ["graph", "ade", "--family", "E", "--index", "6"],
    ["graph", "cyclic", "--n", "19", "--q", "7"],
    ["validate", "--family", "D", "--index", "5"],
    ["validate", "--n", "7", "--q", "3"],
    ["fundamental", "--family", "D", "--index", "5", "--support", "2,3,4,5"],
    ["invariants", "--family", "E", "--index", "6", "--cycle", "2,3,4,3,2,2"],
    ["classify", "--family", "D", "--index", "6"],
    ["classify", "--n", "19", "--q", "7", "--ulrich"],
    ["oracle", "--family", "A", "--index", "3", "--bound", "3"],
    ["verify-rdp", "--family", "E", "--index", "7"],
]

# Tokens of the argv grammar below: every option of every subcommand,
# abbreviations, the removed --max-steps (both parsers must refuse it),
# good and bad values, and the strings argparse treats specially.
ARGV_HEADS = [[], [], [], ["--format", "json"], ["--format", "table"], ["--format=json"],
              ["--format", "xml"], ["--format"], ["--fo", "json"], ["--version"], ["-h"], ["--"]]
SUBCOMMANDS = ["graph", "validate", "fundamental", "invariants", "classify", "oracle",
               "verify-rdp", "frobnicate", "classif", "", "--format"]
GRAPH_SUBCOMMANDS = ["ade", "cyclic", "load", "x", "-h"]
OPTIONS = ["--graph", "--family", "--fam", "--index", "--n", "--q", "--support", "--cycle",
           "--special", "--ulrich", "--max-colength", "--max-steps", "--max", "--bound", "--out",
           "--family=E", "--index=6", "--cycle=1,2,1", "--n=7", "-h", "--help", "--version",
           "--format", "--", "", "--out=x", "--special=1", "--graph=g.txt", "--max-colength=3",
           "--bound=-2"]
# "9" * 5000 is past int's default digit limit.
VALUES = ["A", "D", "E", "a", "x", "3", "6", "7", "-1", "0", "1,2,1", "1,x", "", "g.txt",
          "json", "--n", "-3", "+7", " 7", "7_0", "\u0663", "-0", "1e3", "9" * 5000]


# Each subcommand's own options, with the values drawn for each (None for
# a flag, "" for graph load's FILE), for the half of the sample that is
# near well-formed: the other half seldom gets past the top parser's
# checks, so it would seldom test what the scan reads.
INTS = ["3", "7", "+7", " 7", "7_0", "\u0663", "0", "-2", "1e3", "9" * 5000]
TEXTS = ["g.txt", "1,2,1", "", "x y", "-", "--"]
FAMILIES = ["A", "D", "E", "e", "", "ADE", "F"]
SOURCE = {"--graph": TEXTS, "--family": FAMILIES, "--index": INTS, "--n": INTS, "--q": INTS}
OWN_OPTIONS = {
    "graph ade": {"--family": FAMILIES, "--index": INTS, "--out": TEXTS},
    "graph cyclic": {"--n": INTS, "--q": INTS, "--out": TEXTS},
    "graph load": {"": TEXTS, "--out": TEXTS},
    "validate": SOURCE,
    "fundamental": {**SOURCE, "--support": TEXTS},
    "invariants": {**SOURCE, "--cycle": TEXTS},
    "classify": {**SOURCE, "--special": None, "--ulrich": None, "--max-colength": INTS},
    "oracle": {**SOURCE, "--bound": INTS},
    "verify-rdp": {"--family": FAMILIES, "--index": INTS},
}


def near_argv(rng: random.Random) -> list[str]:
    """A head, a subcommand and a random subset of its own options in a
    random order, each value given as ``--opt value`` or ``--opt=value``."""
    command = rng.choice(list(OWN_OPTIONS))
    options = OWN_OPTIONS[command]
    argv = rng.choice([[], ["--format", "json"], ["--format", "table"]]) + command.split()
    for flag in rng.sample(list(options), rng.randint(0, len(options))):
        values = options[flag]
        if values is None:  # a flag
            argv.append(flag)
        elif not flag:  # graph load's FILE
            argv.append(rng.choice(values))
        elif rng.random() < 0.5:
            argv.append(f"{flag}={rng.choice(values)}")
        else:
            argv += [flag, rng.choice(values)]
    return argv


def sample_argv(rng: random.Random) -> list[str]:
    """One argv of the grammar: half of them near well-formed; the others a
    head, a subcommand and up to five options, each followed by zero, one
    or two values."""
    if rng.random() < 0.5:
        return near_argv(rng)
    argv = list(rng.choice(ARGV_HEADS)) + [rng.choice(SUBCOMMANDS)]
    if argv[-1] == "graph" and rng.random() < 0.9:
        argv.append(rng.choice(GRAPH_SUBCOMMANDS))
    for _ in range(rng.randrange(6)):
        argv.append(rng.choice(OPTIONS))
        argv += rng.choices(VALUES, k=rng.choice([0, 1, 1, 1, 2]))
    return argv


def parse_outcome(parse, argv: list[str]) -> tuple:
    """The namespace of ``parse(argv)``, its exit code or the OverflowError
    of an integer option past the digit cap, with what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as e:
            result = e.code
        except OverflowError as e:
            result = repr(e)
    return result, out.getvalue(), err.getvalue()


def split_parse_differences(count: int, seed: int) -> tuple[list[list[str]], int]:
    """The argvs of a seeded sample on which ``cli._parse`` and its top
    parser path (``cli._parse`` with ``_scan`` reading nothing) differ, and
    how many of them ``cli._scan`` read without the top parser.  Off the
    argvs the scan leaves to it, that path is the top parser's
    ``parse_args`` as it stands, except that it refuses an option whose
    value argparse 3.10-3.12.1 reads as a list (``--opt=--``).

    The top parser's cache is cleared and the parser built first; an argv
    that ``_parse`` answers without calling it again leaves its cache
    statistics as they were.
    """
    cli._top_parser.cache_clear()
    rng = random.Random(seed)
    argvs = [sample_argv(rng) for _ in range(count)]
    cli._top_parser()
    mine, split = [], 0
    for argv in argvs:
        calls = cli._top_parser.cache_info()
        mine.append(parse_outcome(cli._parse, argv))
        split += cli._top_parser.cache_info() == calls
    with mock.patch.object(cli, "_scan", lambda argv: None):
        differ = [argv for argv, m in zip(argvs, mine) if m != parse_outcome(cli._parse, argv)]
    return differ, split


class TestScan:
    # Argvs the scan reads, each into the top parser's namespace.
    READ = [
        ["--format", "json", "classify", "--n", "37", "--q", "10", "--ulrich"],
        ["classify", "--family=E", "--index", "+7", "--special", "--max-colength=0"],
        ["oracle", "--bound=-2", "--n", " 7", "--q", "7_0"],
        ["invariants", "--graph", "", "--cycle=1,2=3"],
        ["--format", "table", "fundamental", "--support", "x y", "--family", "d", "--index", "4"],
        ["verify-rdp", "--index", "\u0663", "--family", "D"],
        ["validate"],
        ["graph", "ade", "--family", "e", "--index", "6", "--out=x"],
        ["graph", "cyclic", "--q=3", "--n", "7"],
        ["graph", "load", "--out", "x", "g.txt"],
        ["graph", "load", "g.txt"],
    ]
    # Argvs the scan leaves to the top parser, each for one reason.
    LEFT = [
        ["classify", "--family", "F", "--index", "3"],  # not a choice
        ["classify", "--family=", "--index", "3"],  # '' is in "ADEade", not in the list
        ["oracle", "--n", "7", "--q", "3"],  # --bound is required
        ["graph", "load", "--out", "x"],  # so is FILE
        ["graph", "ade", "--family", "E"],  # --index is required too
        ["classify", "--n", "7", "--q", "3", "--special", "--ulrich"],  # exclusive
        ["oracle", "--n", "7", "--q", "3", "--bound", "-2"],  # a separate value with "-"
        ["classify", "--n", "7", "--q", "3", "--n", "8"],  # repeated
        ["classify", "--special", "--special"],
        ["classify", "--n", "x", "--q", "3"],  # not an int
        ["classify", "--n", "9" * 5000, "--q", "3"],  # past the digit cap
        ["classify", "--n", "7", "--q", "3", "--special=1"],  # a flag takes no value
        ["invariants", "--n", "7", "--q", "3", "--cycle=--"],  # argparse drops "--"
        ["classify", "--", "--n", "7"],
        ["classify", "--fam", "A", "--index", "3"],  # an abbreviation
        ["classify", "-h"], ["classify", "--help"], ["--version"], ["-h"],
        ["classify", "--bound", "3"],  # another subcommand's option
        ["classify", "--n"],  # no value
        ["frobnicate"], [], ["--format", "xml", "validate"], ["--format", "json"],
        ["graph"], ["graph", "x"], ["graph", "load", "a", "b"], ["validate", "g.txt"],
    ]

    @pytest.mark.parametrize("argv", READ, ids=" ".join)
    def test_reads_the_top_parsers_namespace(self, argv):
        ns = cli._scan(argv)
        assert ns is not None
        assert vars(ns) == vars(cli._top_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", LEFT, ids=lambda a: " ".join(a)[:40])
    def test_leaves_every_other_argv_to_the_top_parser(self, argv):
        assert cli._scan(argv) is None


HELP_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "help")


class TestHelpText:
    """Help texts at 80 columns, byte for byte as the per-subcommand
    argparse builder functions printed them before the option tables
    replaced them (on Python 3.10-3.12; classify's since --max-steps
    went).  From 3.13 argparse breaks long usage lines elsewhere, so
    there only the words are compared."""

    @pytest.mark.parametrize("argv", [
        [], ["graph"], ["validate"], ["fundamental"], ["invariants"], ["classify"], ["oracle"],
        ["verify-rdp"], ["graph", "ade"], ["graph", "cyclic"], ["graph", "load"],
    ], ids=lambda a: "-".join(a) or "dualcycles")
    def test_matches_the_golden_text(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([*argv, "-h"]) == EXIT_OK
        with open(os.path.join(HELP_DIR, ("-".join(argv) or "dualcycles") + ".txt"),
                  encoding="utf-8") as fh:
            golden = fh.read()
        text = capsys.readouterr().out
        if sys.version_info >= (3, 13):
            text, golden = " ".join(text.split()), " ".join(golden.split())
        assert text == golden


class TestSplitParse:
    def test_matches_the_top_parser(self, monkeypatch):
        # Usage text wraps at the terminal width; fix it.
        monkeypatch.setenv("COLUMNS", "80")
        differ, split = split_parse_differences(2000, seed=1)
        assert differ == []
        assert 200 < split < 1800  # both paths are taken


INT_SEQS = st.lists(st.integers()) | st.lists(st.integers()).map(tuple)


def entry_doc(e) -> dict:
    """The JSON value of a ClassificationEntry in a classify document."""
    steps = [{"increment": y, "cycle": z} for y, z in e.chain.steps]
    return {
        "cycle": e.cycle,
        "colength": e.colength,
        "multiplicity": e.multiplicity,
        "min_gens": e.min_gens,
        "module_indices": sorted(i + 1 for i in e.module_indices),
        "chain": {"base": e.chain.base, "steps": steps},
        "kind": e.kind,
    }


class TestJsonEmitter:
    @pytest.fixture
    def emitted_docs(self, monkeypatch):
        """Record the whole document of every ``_emit`` call, rebuilt from
        its arguments: the tool, the command, the graph and the results,
        which for classify are rebuilt from the entries ``_classify``
        returned."""
        docs, classified = [], []
        real_emit, real_classify = cli._emit, cli._classify

        def classify_spy(*args):
            classified.append(real_classify(*args))
            return classified[-1]

        def spy(command, g, results):
            doc_results = results
            if command == "classify":
                special, ulrich = classified.pop()
                assert results[0] is special and results[1] is ulrich
                doc_results = {name: [entry_doc(e) for e in entries]
                               for name, entries in (("special", special), ("ulrich", ulrich))
                               if entries is not None}
            edges = [[i + 1, j + 1] for i, j in sorted(g.edges)]
            docs.append({
                "tool": {"name": "dualcycles", "version": dualcycles.__version__},
                "command": command,
                "graph": {"vertices": g.vertex_count, "weights": g.weights, "edges": edges},
                "results": doc_results,
            })
            return real_emit(command, g, results)

        monkeypatch.setattr(cli, "_classify", classify_spy)
        monkeypatch.setattr(cli, "_emit", spy)
        return docs

    @pytest.mark.parametrize("argv", JSON_REQUESTS, ids=lambda a: "-".join(a[:2]))
    def test_matches_json_dumps(self, argv, emitted_docs):
        code, out = run("--format", "json", *argv)
        assert code == EXIT_OK
        assert len(emitted_docs) == 1
        assert out == json.dumps(emitted_docs[0], indent=2) + "\n"

    def test_census_documents_match_json_dumps(self, tmp_path, emitted_docs):
        # Every rational tree class up to five vertices: classify in all
        # three forms (equal lists, differing lists and one list) and the
        # oracle.
        src = tmp_path / "g.txt"
        documents = 0
        for code in tree_classes(5):
            g = graph_of(code)
            if not dualcycles.validate(g).rational:
                continue
            src.write_text(serialize_graph(g))
            for argv in (["classify"], ["classify", "--special"], ["classify", "--ulrich"],
                         ["oracle", "--bound", "2"]):
                got = run("--format", "json", *argv, "--graph", str(src))
                assert got == (EXIT_OK, json.dumps(emitted_docs[-1], indent=2) + "\n"), (code, argv)
                documents += 1
        assert documents == len(emitted_docs) > 1500

    def test_failed_validation_and_mismatch_documents(self, tmp_path, monkeypatch, emitted_docs):
        from dualcycles.classify import RdpVerification

        src = tmp_path / "g.txt"
        src.write_text("vertices 2\n")
        code, out = run("--format", "json", "validate", "--graph", str(src))
        assert code == EXIT_VALIDATION
        assert out == json.dumps(emitted_docs[-1], indent=2) + "\n"

        monkeypatch.setattr(
            cli,
            "verify_rdp",
            lambda family, index: RdpVerification(
                family="A", index=2, matched=False, expected=[((1, 1), 1)],
                actual=[], expected_count=1, missing=[(1, 1)], extra=[],
                colength_mismatches=[],
            ),
        )
        code, out = run("--format", "json", "verify-rdp", "--family", "A", "--index", "2")
        assert code == EXIT_MISMATCH
        assert out == json.dumps(emitted_docs[-1], indent=2) + "\n"

    @pytest.mark.parametrize(
        "text, argv, code",
        [
            ("vertices 1\n", ["classify"], EXIT_OK),  # "edges": []
            ("vertices 3\nedge 1 2\n", ["validate"], EXIT_VALIDATION),  # disconnected
            ("vertices 3\nweight 1 -5\nweight 3 -3\nedge 1 2\nedge 3 2\n", ["oracle", "--bound", "2"],
             EXIT_OK),
        ],
        ids=["one-vertex", "disconnected", "weights"],
    )
    def test_document_heads(self, tmp_path, emitted_docs, text, argv, code):
        src = tmp_path / "g.txt"
        src.write_text(text)
        assert run("--format", "json", *argv, "--graph", str(src)) == (
            code, json.dumps(emitted_docs[0], indent=2) + "\n"
        )
        assert len(emitted_docs) == 1

    def test_streams_in_pieces(self):
        class Pieces(io.StringIO):
            largest = 0

            def write(self, s):
                self.largest = max(self.largest, len(s))
                return super().write(s)

        out = Pieces()
        assert main(["--format", "json", "classify", "--family", "D", "--index", "20"], out) == EXIT_OK
        assert 0 < out.largest < len(out.getvalue()) / 100

    @settings(max_examples=200, deadline=None)
    @given(st.lists(INT_SEQS) | st.lists(INT_SEQS).map(tuple), st.integers(0, 16))
    @example([(-1, 0, 10**30), [], ()], 2)
    @example([(0, -1, -1, 10**30, 0), [10**30, -(10**30), 0, 0], (-1,)], 6)
    @example([], 14)
    @example((), 4)
    @example([(-1025, -1024, 1023, 1024)], 0)
    def test_int_writers_match_json_dumps(self, rows, depth):
        # The writers give json.dumps's text for a value whose enclosing
        # level is indented by pad, with the process's one integer table
        # shared by every call at every pad, as by every document.
        table = cli._INT_TEXT
        pad = "\n" + " " * depth
        for p in (pad, pad + "  ", "\n"):
            assert cli._int_rows(rows, p, table.__getitem__) == (
                json.dumps(rows, indent=2).replace("\n", p))
            for r in rows:
                assert cli._ints(r, p, table.__getitem__) == json.dumps(r, indent=2).replace("\n", p)
        # It holds each in-range integer's text, once: every lookup
        # returns the one string kept.
        for k in {k for r in rows for k in r if -1024 <= k < 1024}:
            assert dict.get(table, k) == str(k) and table[k] is dict.get(table, k)
        # It keeps no integer outside -1024..1023, 10**30 included.
        assert all(-1024 <= k < 1024 for k in table)

    def test_each_step_text_is_built_once(self, monkeypatch):
        # Every distinct chain step of D_30's witness chains is formatted
        # once per request, and its text is one piece wherever a chain
        # holds it.
        formatted, classified = [], []
        real, real_classify = cli._ints, cli._classify
        monkeypatch.setattr(cli, "_ints", lambda v, pad, fmt: (
            formatted.append((id(v), pad)) or real(v, pad, fmt)))
        monkeypatch.setattr(cli, "_classify", lambda *a: classified.append(real_classify(*a))
                            or classified[-1])

        class Pieces(io.StringIO):
            def write(self, s):
                pieces.append(s)
                return super().write(s)

        pieces = []
        out = Pieces()
        assert main(["--format", "json", "classify", "--family", "D", "--index", "30"], out) == EXIT_OK
        [(special, ulrich)] = classified
        assert ulrich is special
        held = [pair for e in special for pair in e.chain.steps]
        distinct = {id(pair): pair for pair in held}
        assert len(distinct) < len(held) / 2  # chains share most of their steps
        at_steps = [key for key, pad in formatted if pad == "\n" + " " * 14]
        assert sorted(at_steps) == sorted(id(v) for pair in distinct.values() for v in pair)
        # Z_0 once, each entry's cycle and module indices once: the ulrich
        # list, being the special list, repeats the special list's pieces.
        assert len(formatted) == 1 + 2 * len(special) + 2 * len(distinct)
        for y, z in distinct.values():
            text = json.dumps({"increment": y, "cycle": z}, indent=2).replace("\n", "\n" + " " * 12)
            # both lists are one object: the special list's pieces repeat
            assert pieces.count(text) == 2 * sum(pair == (y, z) for pair in held)

    def test_document_with_shared_steps_round_trips(self):
        # D_30's witness chains share most of their steps
        code, out = run("--format", "json", "classify", "--family", "D", "--index", "30")
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


MALFORMED_LINES = [
    "vertices 3",
    "vertices 0",
    "weight 1",
    "weight 99 -2",
    "edge 1 1",
    "edge 1 x",
    "edge 1 2 3",
    "frobnicate",
    "# a comment",
    "",
]


@st.composite
def fuzz_graphs(draw) -> tuple[str, str, str]:
    """(graph text, cycle argument, support argument).

    Graphs have at most 8 vertices: a random forest plus arbitrary extra
    edges, so trees, cycles and disconnected graphs.  One draw in four
    allows weights up to 0 and adds a malformed line.  Cycle and support
    arguments mostly have one entry per vertex (sometimes all equal), else
    any length or text.
    """
    n = draw(st.integers(1, 8))
    rough = draw(st.integers(0, 3)) == 0
    lines = [f"vertices {n}"]
    for i in range(1, n + 1):
        w = draw(st.integers(-6, 0 if rough else -2))
        if w != -2 or draw(st.booleans()):
            lines.append(f"weight {i} {w}")
    edges = set()
    for v in range(2, n + 1):
        if draw(st.integers(0, 5)):  # else v starts a new component
            edges.add((draw(st.integers(1, v - 1)), v))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    lines += [f"edge {j} {i}" if draw(st.booleans()) else f"edge {i} {j}" for i, j in sorted(edges)]
    if rough:
        junk = draw(st.sampled_from(MALFORMED_LINES) | st.text(max_size=10))
        lines.insert(draw(st.integers(0, len(lines))), junk)

    def arg(low: int, high: int) -> str:
        z = draw(
            st.lists(st.integers(low, high), min_size=n, max_size=n)
            | st.integers(low, high).map(lambda a: [a] * n)  # anti-nef on chains
            | st.lists(st.integers(-2, 12), min_size=1, max_size=9)
        )
        return ",".join(map(str, z)) if draw(st.integers(0, 7)) else draw(st.text(max_size=6))

    return "\n".join(lines) + "\n", arg(0, 6), arg(1, n)


# Positive integers of 1, 2, MAX_DIGITS - 1, MAX_DIGITS and MAX_DIGITS + 1
# digits.
NEAR_THE_CAP = st.sampled_from((1, 2, MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1)).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10**d - 1))


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        graph=fuzz_graphs(),
        cap=st.integers(-1, 4),
        bound=st.integers(-1, 2),
        family=st.sampled_from("ADEx"),
        index=st.integers(-1, 9),
        fmt=st.sampled_from(["table", "json"]),
    )
    def test_every_subcommand_ends_with_a_documented_exit_code(
        self, tmp_path_factory, graph, cap, bound, family, index, fmt
    ):
        text, cycle, support = graph
        src = tmp_path_factory.mktemp("fuzz") / "g.txt"
        src.write_text(text, encoding="utf-8")
        graph = ["--graph", str(src)]
        requests = [
            ["graph", "load", str(src)],
            ["validate", *graph],
            ["fundamental", *graph],
            ["fundamental", *graph, "--support", support],
            ["invariants", *graph, "--cycle", cycle],
            ["classify", *graph, "--max-colength", str(cap + 1)],
            ["classify", *graph, "--ulrich"],
            ["classify", *graph, "--special", "--max-colength", str(cap)],
            ["oracle", *graph, "--bound", str(bound)],
            ["verify-rdp", "--family", family, "--index", str(index)],
        ]
        for argv in requests:
            start = time.perf_counter()
            code = main(["--format", fmt, *argv], out=io.StringIO())
            elapsed = time.perf_counter() - start
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_MISMATCH), argv
            assert elapsed < 2.0, f"{argv} took {elapsed:.2f}s on\n{text}"

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(NEAR_THE_CAP, min_size=1, max_size=3),
        cycle=st.lists(NEAR_THE_CAP, min_size=1, max_size=3),
        n=NEAR_THE_CAP,
        fmt=st.sampled_from(["table", "json"]),
    )
    def test_failed_requests_near_the_digit_cap_write_nothing(
        self, tmp_path_factory, weights, cycle, n, fmt
    ):
        # Integers of up to MAX_DIGITS + 1 digits in a chain's weights, a
        # --cycle and --n: each request ends with a documented exit code,
        # and one that fails writes one error: line and nothing to stdout.
        src = tmp_path_factory.mktemp("digits") / "g.txt"
        r = len(weights)
        src.write_text(f"vertices {r}\n"
                       + "".join(f"weight {i} {-max(w, 2)}\n" for i, w in enumerate(weights, 1))
                       + "".join(f"edge {i} {i + 1}\n" for i in range(1, r)), encoding="utf-8")
        graph = ["--graph", str(src)]
        requests = [
            ["validate", *graph],
            ["classify", *graph],
            ["invariants", *graph, "--cycle", ",".join(map(str, cycle))],
            ["oracle", *graph, "--bound", "1"],
            ["classify", "--n", str(n), "--q", "1"],
        ]
        for argv in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--format", fmt, *argv], out=out)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE), argv
            if "error:" in err.getvalue():
                assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
