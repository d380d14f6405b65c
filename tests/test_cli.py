import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chibound
from chibound import cli
from chibound.cli import main
from chibound.constructions import (cycle, extremal_omega5, extremal_witnesses,
                                    wheel6)
from chibound import corpus, invariants
from chibound.corpus import enumerate_class
from chibound.graphs import (complete_graph, disjoint_union, empty_graph, join,
                             parse_graph6, serialize_graph6)
from oracles import (bf_independent_triple, check_invariants_record,
                     chromatic_exact_clique_first, dsatur_greedy_max_keyed,
                     is_class_member_closed_list, max_clique_by_reconstruction,
                     random_graph, triangle_free_complement)


def cycle6():
    return serialize_graph6(cycle(6))


def c5():
    return serialize_graph6(cycle(5))


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCheck:
    def test_member(self, capsys):
        code, out, err = run(capsys, "check", c5())
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["connected"] is True

    def test_excluded_exit_2(self, capsys):
        code, out, err = run(capsys, "check", cycle6())
        assert code == 2
        payload = json.loads(out)
        assert payload["member"] is False
        assert payload["witness"]["kind"] == "ThreeK1"
        assert payload["witness"]["vertices"] == [0, 2, 4]

    def test_stdin_pipeline(self, capsys, monkeypatch):
        code, out, err = run(capsys, "check", "-",
                             stdin=f"{c5()}\n{cycle6()}\n",
                             monkeypatch=monkeypatch)
        assert code == 2  # one line excluded
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [p["member"] for p in lines] == [True, False]

    def test_stream_goes_on_after_bad_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, "check", "-", stdin="DUW\n\nD?\nE?~o\n",
                             monkeypatch=monkeypatch)
        assert code == 1  # a failed line outranks the exclusion of line 4
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[1] == {"line": 3, "error": "truncated graph6 body at offset 2"}
        assert [lines[0]["member"], lines[2]["member"]] == [True, False]
        assert "line 3: truncated graph6 body" in err

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        stdin = tmp_path / "in.g6"
        stdin.write_text(f"{cycle6()}\n" * 3000)  # far more than a pipe holds
        env = {**os.environ, "PYTHONPATH": str(Path(chibound.__file__).parents[1])}
        with open(stdin) as fh:
            proc = subprocess.Popen([sys.executable, "-m", "chibound.cli", "check", "-"],
                                    stdin=fh, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env)
        assert json.loads(proc.stdout.readline())["member"] is False
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err

    def test_bad_graph6_exit_1(self, capsys):
        code, out, err = run(capsys, "check", "D?")
        assert code == 1
        assert "error" in err

    def test_non_ascii_graph6_exit_1(self, capsys):
        code, out, err = run(capsys, "check", "DéW")
        assert code == 1
        assert out == ""
        assert "offset 1" in err

    def test_stream_names_first_bad_character(self, capsys, monkeypatch):
        # The '!' at offset 1 comes before the non-ASCII 'é' at offset 3.
        code, out, err = run(capsys, "check", "-", stdin="D!!é\n",
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out) == {"line": 1, "error": "invalid graph6 byte at offset 1"}

    def test_stream_offsets_count_leading_blanks(self, capsys, monkeypatch):
        # The extra '?' stands at offset 4 of the line, after its tab.
        code, out, err = run(capsys, "check", "-", stdin="\tD?{?\n",
                             monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out) == {"line": 1, "error": "trailing garbage at offset 4"}

    def test_stream_blanks_are_ascii_only(self, capsys, monkeypatch):
        # \x1f is whitespace to str.strip() but not a blank: line 1 fails
        # at it, and line 2, holding only it, is a failed line, not skipped.
        code, out, err = run(capsys, "check", "-", stdin="D?{\x1f\n\x1f\n \t\r\nD?{\n",
                             monkeypatch=monkeypatch)
        assert code == 1
        first, second, third = [json.loads(line) for line in out.splitlines()]
        assert first == {"line": 1, "error": "invalid graph6 byte at offset 3"}
        assert second == {"line": 2, "error": "invalid graph6 byte at offset 0"}
        assert third["graph6"] == "D?{"

    def test_undecodable_byte_is_one_failed_line(self, capsys, monkeypatch):
        # A stdin that decodes strictly, as under a UTF-8 locale.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"D?{\n\xff\xfe\nD?{\n"), encoding="utf-8", errors="strict"))
        code, out, err = run(capsys, "check", "-")
        assert code == 1
        first, second, third = [json.loads(line) for line in out.splitlines()]
        assert second == {"line": 2, "error": "invalid graph6 byte at offset 0"}
        assert first == third and first["graph6"] == "D?{"

    def test_undecodable_dimacs_byte_located(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"p edge 2 1\ne 1 2\xff\n"), encoding="utf-8", errors="strict"))
        code, out, err = run(capsys, "check", "-", "--format", "dimacs")
        assert code == 1
        assert out == ""
        assert err == ("chibound: error: expected a non-negative integer, "
                       "got '2\\udcff' at line 2\n")

    def test_dimacs_input(self, capsys, monkeypatch):
        dimacs = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
        code, out, err = run(capsys, "check", "-", "--format", "dimacs",
                             stdin=dimacs, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["member"] is True


class TestInvariants:
    def test_report(self, capsys):
        code, out, err = run(capsys, "invariants", c5())
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["omega"], d["chi"], d["bound"], d["tight"]) == \
               (5, 2, 3, 3, True)

    def test_null_graph_not_tight(self, capsys):
        code, out, err = run(capsys, "invariants", "?")
        assert code == 0
        assert out == ('{"n": 0, "omega": 0, "chi": 0, "delta": 0, "bound": 0, '
                       '"tight": false, "clique": [], "coloring": []}\n')

    def test_forced_engines(self, capsys):
        for flag in ("--exact", "--matching"):
            code, out, err = run(capsys, "invariants", c5(), flag)
            assert code == 0
            assert json.loads(out)["chi"] == 3

    def test_engines_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", c5(), "--exact", "--matching"])
        assert exc.value.code == 1
        assert "not allowed with" in capsys.readouterr().err


class TestDecompose:
    def test_default_pair(self, capsys):
        code, out, err = run(capsys, "decompose", c5())
        assert code == 0
        d = json.loads(out)
        assert (d["v"], d["w"]) == (0, 2)
        assert d["properties"]["1.1"]["status"] == "holds"

    def test_explicit_pair(self, capsys):
        code, out, err = run(capsys, "decompose", c5(), "--pair", "1", "3")
        assert code == 0
        assert json.loads(out)["v"] == 1

    def test_not_in_class(self, capsys):
        code, out, err = run(capsys, "decompose", cycle6())
        assert code == 1
        assert "not in the class" in err

    def test_stream_goes_on_after_failed_line(self, capsys, monkeypatch):
        w6 = serialize_graph6(wheel6())  # its hub leaves no partitioning pair
        code, out, err = run(capsys, "decompose", "-", stdin=f"{c5()}\n{w6}\n{c5()}\n",
                             monkeypatch=monkeypatch)
        assert code == 1
        first, failed, last = [json.loads(line) for line in out.splitlines()]
        assert first == last and (first["v"], first["w"]) == (0, 2)
        assert failed["line"] == 2
        assert failed["error"].startswith("no partitioning pair")


# The first 30 members of sample_class(12, 30, 7), frozen so that the pins
# below do not move with the sampler.
SAMPLED_N12 = r"""
KtLI\rpRa[hr KMYRSindZsNP KyTY|@]F~ASJ KwzvWoTEWrbN KRlULTUirxTY
KVi|\}nQi_iB KJ\z{m@yKnON KesepGdH]sZP KmfpRNte`UdZ Kw~fGoXEWn{p
K[m~ZE}SQaiJ K~}aquchGN~e KwsvOziFPiej KeGm`Wls`ZYQ K|RnWoXE\bbN
KezUhngLpRdN K\PlctLZLeHm K`K~h{~N}CX@ KwdvOw\yfSbk KYik{|o[J`rw
KkLmefRZEfLa KnIKX^oJs]}C KT\I\rE^q\wt KwK^Ek{ynEfe KzFr{OZE~I]p
KJaK[\obr`MD KQT^Ix^gdqsR KZ]bsIDU|JOn KpNEMMwmI}Jx K}JpOsZzejYl
""".split()


def pinned_stream() -> str:
    """The seven extremal witnesses, 30 sampled n = 12 members, C6, the
    5-pattern, K4 plus two isolated vertices (a 3K1) and a dense G(18, 0.7)."""
    tail = [cycle(6),
            join(empty_graph(2), disjoint_union(complete_graph(2), empty_graph(1))),
            disjoint_union(complete_graph(4), empty_graph(2)),
            random_graph(18, 0.7, random.Random(18))]
    lines = [*map(serialize_graph6, extremal_witnesses()), *SAMPLED_N12,
             *map(serialize_graph6, tail)]
    return "".join(line + "\n" for line in lines)


def dense_stream() -> str:
    """60 G(n, p) graphs with n from 10 to 20 and p from 0.5 to 0.95, then
    20 complements of maximal triangle-free graphs with n from 9 to 14."""
    rng = random.Random(2014)
    graphs = [random_graph(rng.randint(10, 20), rng.uniform(0.5, 0.95), rng)
              for _ in range(60)]
    graphs += [triangle_free_complement(rng.randint(9, 14), rng) for _ in range(20)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def witness_stream() -> str:
    """240 complements of maximal triangle-free graphs with n from 9 to 14:
    no 3K1, so every non-member among them (128) is named by its
    5-pattern."""
    rng = random.Random(2016)
    graphs = [triangle_free_complement(rng.randint(9, 14), rng) for _ in range(240)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def backtrack_stream() -> str:
    """60 G(n, p) graphs with n from 16 to 20 and p from 0.45 to 0.75, each
    with a 3K1, so chi comes from the exact engine; on 25 of them pure
    DSATUR greedy exceeds omega."""
    rng = random.Random(2017)
    graphs = [random_graph(rng.randint(16, 20), rng.uniform(0.45, 0.75), rng)
              for _ in range(60)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def large_stream() -> str:
    """30 complements of maximal triangle-free graphs with n from 21 to 64,
    above the exact chromatic engine's limit."""
    rng = random.Random(2015)
    graphs = [triangle_free_complement(rng.randint(21, 64), rng) for _ in range(30)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def bound_stream() -> str:
    """Six G(n, p) graphs at each n in 20, 32, 33 and 64, with p from 0.05
    to 0.95: both sides of the 32-vertex bound of graph6's table decoder."""
    rng = random.Random(2032)
    graphs = [random_graph(n, rng.uniform(0.05, 0.95), rng)
              for n in (20, 32, 33, 64) for _ in range(6)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def certify_invariants(capsys, monkeypatch, stream, out):
    """Every record of the invariants pass over stream, whose stdout is
    out, certifies itself, and a pass whose exact engine is the clique-first
    reference prints the same."""
    for line, record in zip(stream().split(), out.splitlines(), strict=True):
        check_invariants_record(parse_graph6(line), json.loads(record))
    with monkeypatch.context() as m:
        m.setattr(invariants, "chromatic_exact",
                  lambda g, clique=None: chromatic_exact_clique_first(g))
        _, ref, _ = run(capsys, "invariants", "-", stdin=stream(), monkeypatch=m)
    assert ref == out


class TestPerGraphBytes:
    # The sha256 of each pass's stdout over one fixed stream: every record,
    # decompose's error records for graphs without a partitioning pair
    # included, must stay byte-identical across refactors.  The invariants
    # digests were taken from passes whose exact engine was the clique-first
    # reference, which each invariants case runs again.
    @pytest.mark.parametrize("cmd, code, digest", [
        ("check", 2, "2ae0ab5dfe205b550627d547313a44f20f068ff5542bed9e4be231bfe577327c"),
        ("invariants", 0, "38a2769c434477043dbbc1b65fe306495f21b0c969f4315e1cfcb17488b51521"),
        ("decompose", 1, "d9aded4982626324c14e75824c1b211d25665db23092be0b82b5672ad91d498e"),
    ])
    def test_stream_bytes_pinned(self, capsys, monkeypatch, cmd, code, digest):
        got, out, err = run(capsys, cmd, "-", stdin=pinned_stream(),
                            monkeypatch=monkeypatch)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if cmd == "invariants":
            certify_invariants(capsys, monkeypatch, pinned_stream, out)

    # The same over dense_stream(), where most lines are non-members with a
    # witness to find and omega runs up to 14.
    @pytest.mark.parametrize("cmd, code, digest", [
        ("check", 2, "5e3beb6fe50352faf0c028fe551b96c9103651f88ee3804b9cd6e51d04edf3a7"),
        ("invariants", 0, "124edcfcb257ef080f14941668cf2ec65f8952f0618a76611af97a8e341dcbde"),
        ("decompose", 1, "2c4796bc4686d5ed51a791c974e8b75cee73c74c2bb4e7b77ff967956eeb7208"),
    ])
    def test_dense_stream_bytes_pinned(self, capsys, monkeypatch, cmd, code, digest):
        got, out, err = run(capsys, cmd, "-", stdin=dense_stream(),
                            monkeypatch=monkeypatch)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if cmd == "invariants":
            certify_invariants(capsys, monkeypatch, dense_stream, out)

    # The 5-pattern witnesses of 3K1-free non-members, and the exact chi and
    # colouring where the branch and bound has to search.
    @pytest.mark.parametrize("stream, cmd, code, digest", [
        (witness_stream, "check", 2,
         "855823bc056996de154bf02f75ddbfbe949f85627428ca07bab4fc5f93800906"),
        (backtrack_stream, "invariants", 0,
         "882cc3e4d30a7d1e6be53b8d682d6ce91e98c6128e316d600c7b2892c98c1433"),
    ])
    def test_search_stream_bytes_pinned(self, capsys, monkeypatch, stream, cmd,
                                        code, digest):
        got, out, err = run(capsys, cmd, "-", stdin=stream(),
                            monkeypatch=monkeypatch)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if cmd == "invariants":
            certify_invariants(capsys, monkeypatch, stream, out)

    def test_search_streams_reach_the_searches(self):
        graphs = [parse_graph6(line) for line in witness_stream().split()]
        assert not any(bf_independent_triple(g) for g in graphs)
        assert sum(not is_class_member_closed_list(g) for g in graphs) == 128
        backtracking = 0
        for line in backtrack_stream().split():
            g = parse_graph6(line)
            assert bf_independent_triple(g) is not None
            greedy = max(dsatur_greedy_max_keyed(g)) + 1
            backtracking += greedy > max_clique_by_reconstruction(g)[0]
        assert backtracking == 25

    # The check records, the graph6 echo included, on either side of the
    # decoder's table bound.
    def test_bound_stream_check_pinned(self, capsys, monkeypatch):
        got, out, err = run(capsys, "check", "-", stdin=bound_stream(),
                            monkeypatch=monkeypatch)
        assert got == 2
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "d4d0912a78a85806265adfca37355e3ca41a8d6e6f82af82868f395fa2f87ccc"

    # Above the exact engine's limit only chi_via_matching gives chi.
    def test_large_stream_invariants_pinned(self, capsys, monkeypatch):
        got, out, err = run(capsys, "invariants", "-", stdin=large_stream(),
                            monkeypatch=monkeypatch)
        assert got == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "c52f19b94a22f5d0acabe8263ed037d68ea7ff68d422b03ec952216795f38f40"
        for line, record in zip(large_stream().split(), out.splitlines(), strict=True):
            check_invariants_record(parse_graph6(line), json.loads(record))


class TestGen:
    def test_bare_graph6(self, capsys):
        code, out, err = run(capsys, "gen", "c5")
        assert code == 0
        assert out.strip() == c5()

    def test_omega5_verify(self, capsys):
        code, out, err = run(capsys, "gen", "omega5", "--verify")
        assert code == 0
        d = json.loads(out)
        assert d["graph6"] == serialize_graph6(extremal_omega5())
        r = d["report"]
        assert (r["n"], r["omega"], r["chi"], r["tight"]) == (16, 5, 8, True)

    def test_every_family_stays_in_class(self, capsys, monkeypatch):
        # Every family but the negative control "boundary" is in the class;
        # that one is excluded by a 5-pattern, not by an independent triple.
        for family in cli._GENERATORS:
            code, out, err = run(capsys, "gen", family)
            assert code == 0
            code, out, err = run(capsys, "check", "-", stdin=out,
                                 monkeypatch=monkeypatch)
            verdicts = [json.loads(line) for line in out.splitlines()]
            if family == "boundary":
                assert code == 2
                assert [v["witness"]["kind"] for v in verdicts] == ["TwoK1JoinK2K1"]
                assert verdicts[0]["witness"]["vertices"] == [0, 1, 3, 4, 6]
            else:
                assert code == 0
                assert verdicts and all(v["member"] for v in verdicts)
        assert "boundary" in cli._GENERATORS

    def test_boundary_breaks_the_bound(self, capsys):
        code, out, err = run(capsys, "gen", "boundary", "--verify")
        assert code == 0
        d = json.loads(out)
        assert d["graph6"] == "LUxtuxmluv\\m\\m"
        r = d["report"]
        assert (r["n"], r["omega"], r["chi"], r["bound"], r["tight"]) == \
               (13, 4, 7, 6, False)

    def test_extremal_tight_for_omega_1_to_7(self, capsys, monkeypatch):
        code, out, err = run(capsys, "gen", "extremal")
        assert code == 0
        code, out, err = run(capsys, "invariants", "-", stdin=out,
                             monkeypatch=monkeypatch)
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["omega"] for r in reports] == list(range(1, 8))
        assert all(r["tight"] for r in reports)

    # The sha256 of each family's `gen --verify` stdout: the invariant
    # reports must stay byte-identical across refactors.
    @pytest.mark.parametrize("family, digest", [
        ("c5", "f76a80fe3a82b4c8b3a90590f0be5e66ffe6d178777ec7cf92fd28e9622372e2"),
        ("w6", "187c2e5a6d1b9d5aa90db347cab4bd6b240b4f888812d677f098021e78979c63"),
        ("omega5", "f87af1becddeca33e4d38343cbf83b117853b5b2992589651f1a28765957629c"),
        ("extremal", "913c16e12e26dea2bd20db143cd6504dc12686053177be0c63fab90f1a39cc7c"),
    ])
    def test_verify_bytes_pinned(self, capsys, family, digest):
        code, out, err = run(capsys, "gen", family, "--verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("family, param", [("c5", "7"), ("omega5", "3")])
    def test_parameter_rejected(self, capsys, family, param):
        with pytest.raises(SystemExit) as exc:
            main(["gen", family, param])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {param}" in err

    @pytest.mark.parametrize("family", ["even", "odd"])
    def test_pentagon_join_families_gone(self, capsys, family):
        with pytest.raises(SystemExit) as exc:
            main(["gen", family, "2"])
        assert exc.value.code == 1
        assert f"invalid choice: '{family}'" in capsys.readouterr().err


class TestCorpus:
    def test_exhaustive_clean_exit(self, capsys):
        code, out, err = run(capsys, "corpus", "exhaustive", "5",
                             "--checks", "bound,oracle")
        assert code == 0
        d = json.loads(out)
        assert d["violations"] == []
        assert d["oracle"]["disagreements"] == 0

    def test_sample(self, capsys):
        code, out, err = run(capsys, "corpus", "sample", "9", "50", "42")
        assert code == 0
        d = json.loads(out)
        assert d["members"] == 50

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus"])
        assert exc.value.code == 1

    def test_bad_params(self, capsys):
        exhaustive, sample = "corpus exhaustive takes: n", "corpus sample takes: n count seed"
        for params, message in [(("exhaustive",), exhaustive),
                                (("exhaustive", "3", "4"), exhaustive),
                                (("sample",), sample),
                                (("sample", "9"), sample),
                                (("sample", "9", "50", "42", "1"), sample),
                                (("--jobs", "2", "sample", "9", "50"), sample)]:
            code, out, err = run(capsys, "corpus", *params)
            assert (code, out) == (1, ""), params
            assert err == f"chibound: error: {message}\n", params

    def test_options_before_the_mode(self, capsys):
        code, out, err = run(capsys, "corpus", "--jobs", "2", "--checks", "oracle",
                             "exhaustive", "3")
        assert code == 0
        assert out == run(capsys, "corpus", "exhaustive", "3", "--checks", "oracle")[1]
        assert json.loads(out)["oracle"] == {"checked": 8, "disagreements": 0}

    @pytest.mark.parametrize("params, message", [
        (("exhaustive", "-1"), "1 <= n <= 7, got n=-1"),
        (("exhaustive", "0"), "1 <= n <= 7, got n=0"),
        (("sample", "9", "-5", "1"), "count must be >= 0, got -5"),
        (("sample", "10", "20", "-5"), "seed must be >= 0, got -5"),
    ])
    def test_bad_sizes_exit_1(self, capsys, params, message):
        code, out, err = run(capsys, "corpus", *params)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("checks", ["", ","])
    def test_no_checks_exit_1(self, capsys, checks):
        code, out, err = run(capsys, "corpus", "exhaustive", "3", "--checks", checks)
        assert code == 1
        assert out == ""
        assert "no checks given; valid: ('bound', 'lemma1', 'lemma2', 'oracle')" in err

    # The sha256 of each campaign's stdout: a report must stay byte-identical
    # across refactors and worker counts.
    @pytest.mark.parametrize("argv, digest", [
        (("exhaustive", "6", "--checks", "bound,lemma1,lemma2,oracle", "--jobs", "2"),
         "0456bc82baf9e81e698a8fb3e2aeae15cefbe334bbafe4728576f765840c4b4e"),
        (("sample", "10", "1000", "42", "--checks", "bound,lemma2"),
         "9796b5b7d34a711493a2524891ac3d3db402e7d9ce8572e818d626eb4d716812"),
        (("sample", "14", "2000", "42", "--checks", "bound,lemma2"),
         "1be9cedc39d2a1a3a0d02553c0ef1462086a54f42e9f713dd981eb4daf7870ed"),
        # Eight chunks through the jobs=2 in-flight window: the same bytes.
        (("sample", "14", "2000", "42", "--checks", "bound,lemma2", "--jobs", "2"),
         "1be9cedc39d2a1a3a0d02553c0ef1462086a54f42e9f713dd981eb4daf7870ed"),
        # Lemma 1 above n = 7: 4,348 pairs, where 1.5 and 1.7 hold on some.
        (("sample", "12", "300", "7", "--checks", "bound,lemma1,lemma2,oracle"),
         "9311ae237c191cddf064c57db70401b48ec84b046f4065f1fca6ac0e2b888142"),
        (("sample", "12", "300", "7", "--checks", "bound,lemma1,lemma2,oracle",
          "--jobs", "2"),
         "9311ae237c191cddf064c57db70401b48ec84b046f4065f1fca6ac0e2b888142"),
    ])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "corpus", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unwritable_dump_fails_before_campaign(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "run_verification", lambda *a, **k: calls.append(a))
        path = tmp_path / "no" / "such" / "x.g6"
        code, out, err = run(capsys, "corpus", "exhaustive", "3",
                             "--dump-violations", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("chibound: error: ") and str(path) in err
        assert calls == []

    def test_empty_dump_path_fails_before_campaign(self, capsys, monkeypatch):
        # An empty path is opened like any other; only an absent option
        # means no dump.
        calls = []
        monkeypatch.setattr(cli, "run_verification", lambda *a, **k: calls.append(a))
        code, out, err = run(capsys, "corpus", "exhaustive", "3", "--dump-violations", "")
        assert code == 1
        assert out == ""
        assert err.startswith("chibound: error: ") and err.endswith(": ''\n")
        assert calls == []

    def test_bad_checks_leave_no_dump_file(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        code, out, err = run(capsys, "corpus", "exhaustive", "3", "--checks",
                             "bogus", "--dump-violations", str(path))
        assert code == 1
        assert out == ""
        assert "unknown check 'bogus'" in err
        assert not path.exists()

    def test_dump_without_violations_is_empty(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        code, out, err = run(capsys, "corpus", "exhaustive", "4",
                             "--dump-violations", str(path))
        assert code == 0
        assert path.read_text() == ""

    def test_dump_writes_each_violating_graph_once(self, capsys, monkeypatch, tmp_path):
        # Every member then fails twice: chi exceeds the bound, and the
        # engines disagree.
        monkeypatch.setattr(corpus, "chi_via_matching", lambda g: (99, ()))
        monkeypatch.setattr(corpus, "chromatic_exact", lambda g: (98, ()))
        monkeypatch.setattr(corpus, "_crosscheck_selected", lambda g: True)
        path = tmp_path / "bad.g6"
        code, out, err = run(capsys, "corpus", "exhaustive", "3",
                             "--dump-violations", str(path))
        assert code == 3
        members = [serialize_graph6(g) for g in enumerate_class(3)]
        assert [v["graph6"] for v in json.loads(out)["violations"]] == \
               [line for line in members for _ in range(2)]
        assert path.read_text().splitlines() == members

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "exhaustive", "3", "--jobs", jobs])
        assert exc.value.code == 1
        assert f"must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_jobs_not_an_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "exhaustive", "3", "--jobs", "abc"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --jobs: must be an integer, got 'abc'" in err
        assert "_job_count" not in err

    # int() would read each of these as a number: another script's digit, a
    # digit group, a '+' sign and a leading space.
    @pytest.mark.parametrize("text", ["\u0663", "1_0", "+3", " 2"])
    @pytest.mark.parametrize("argv", [
        ("corpus", "exhaustive", "{}"),
        ("corpus", "exhaustive", "3", "--jobs", "{}"),
        ("decompose", "DUW", "--pair", "0", "{}"),
    ])
    def test_integer_arguments_are_ascii_decimal(self, capsys, monkeypatch,
                                                 argv, text):
        calls = []
        monkeypatch.setattr(cli, "run_verification", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "decompose", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main([arg.format(text) for arg in argv])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"must be an integer, got {text!r}" in err
        assert calls == []

    def jobs_passed(self, capsys, monkeypatch, jobs):
        seen = []
        real = cli.run_verification

        def record(population, checks, jobs):
            seen.append(jobs)
            return real(population, checks, jobs=1)

        monkeypatch.setattr(cli, "run_verification", record)
        code, out, err = run(capsys, "corpus", "exhaustive", "3", "--jobs", jobs)
        assert code == 0
        return seen

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        # Without CPU affinity (as on macOS and Windows), the host's count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert self.jobs_passed(capsys, monkeypatch, "100000") == [os.cpu_count()]

    def test_jobs_clamped_to_cpus_this_process_may_use(self, capsys, monkeypatch):
        # As under `taskset -c 0` on a host with more CPUs.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.jobs_passed(capsys, monkeypatch, "8") == [1]
