import io
import json

import pytest

from chibound.cli import main
from chibound.constructions import extremal_omega5
from chibound.graphs import from_edges, serialize_graph6


def cycle6():
    return serialize_graph6(from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))


def c5():
    return serialize_graph6(from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))


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

    def test_bad_graph6_exit_1(self, capsys):
        code, out, err = run(capsys, "check", "D?")
        assert code == 1
        assert "error" in err

    def test_non_ascii_graph6_exit_1(self, capsys):
        code, out, err = run(capsys, "check", "DéW")
        assert code == 1
        assert out == ""
        assert "offset 1" in err

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

    def test_forced_engines(self, capsys):
        for flag in ("--exact", "--matching"):
            code, out, err = run(capsys, "invariants", c5(), flag)
            assert code == 0
            assert json.loads(out)["chi"] == 3


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

    def test_even_requires_param(self, capsys):
        code, out, err = run(capsys, "gen", "even")
        assert code == 1

    def test_even_two(self, capsys):
        code, out, err = run(capsys, "gen", "even", "2")
        assert code == 0
        assert len(out.strip()) > 0


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
        code, out, err = run(capsys, "corpus", "sample", "9")
        assert code == 1

    @pytest.mark.parametrize("params, message", [
        (("exhaustive", "-1"), "1 <= n <= 7, got n=-1"),
        (("exhaustive", "0"), "1 <= n <= 7, got n=0"),
        (("sample", "9", "-5", "1"), "count must be >= 0, got -5"),
    ])
    def test_bad_sizes_exit_1(self, capsys, params, message):
        code, out, err = run(capsys, "corpus", *params)
        assert code == 1
        assert out == ""
        assert message in err
