import json

import pytest
from hypothesis import given, strategies as st

from restless_reach import (
    Cnf34Formula,
    ParseError,
    SubsetSumInstance,
    WaitBoundError,
    gen_ladder,
    gen_subset_sum_instance,
    interval_graph,
    oracle_reachable,
    oracle_traces,
    parse_dimacs_cnf,
    parse_graph,
    parse_graph_ex,
    point_graph,
    retrieve_path,
    serialize_dimacs_cnf,
    serialize_graph,
    solve_general,
    solve_unit,
)
from restless_reach.cli import main

from conftest import point_graph_strategy

# Random token soups for the parsers: format keywords, integers of every
# sign and size, spellings ``int`` reads but the formats refuse, and
# arbitrary short text, joined by spaces, tabs and line breaks.  Some
# start with a valid header, so the arc and clause lines are reached.
SOUP_TOKENS = ["point", "interval", "nonstrict", "#", "label", "p", "cnf", "c",
               "0", "1", "-1", "+2", "1_0", "\u0661", "\uff11", "-", "\u00e1"]
soups = st.tuples(
    st.sampled_from(["", "point 3\n", "point 3 nonstrict\n", "interval 3\n", "p cnf 3 2\n"]),
    st.lists(st.tuples(
        st.one_of(st.sampled_from(SOUP_TOKENS), st.integers(-3, 2**65).map(str),
                  st.text(max_size=3)),
        st.sampled_from([" ", " ", "\n", "\t", "\r\n"]),
    ), max_size=30),
).map(lambda drawn: drawn[0] + "".join(tok + sep for tok, sep in drawn[1]))

clause_lists = st.lists(st.lists(st.integers(-40, 40).filter(bool), max_size=5), max_size=8)

FOUR_NODE_TEXT = """point 4
# label 0 s
# label 1 u
# label 2 v
# label 3 t
0 1 1 1
1 2 4 2
1 3 5 2
2 3 6 1
1 2 7 5
"""


@pytest.fixture
def four_node_file(tmp_path):
    path = tmp_path / "four.graph"
    path.write_text(FOUR_NODE_TEXT)
    return str(path)


class TestParsing:
    def test_point_single_arc(self):
        g = parse_graph("point 2\n0 1 3 1\n")
        assert [(a.u, a.v, a.tau, a.delta) for a in g.arcs] == [(0, 1, 3, 1)]

    def test_interval_single_arc(self):
        g = parse_graph("interval 2\n0 1 2 4 1\n")
        assert [(a.u, a.v, a.tau_start, a.tau_end, a.delta) for a in g.arcs] == [(0, 1, 2, 4, 1)]

    def test_unsorted_input_sorted_and_reported(self):
        res = parse_graph_ex("point 2\n0 1 9 1\n1 0 2 1\n")
        assert not res.input_was_sorted
        assert [a.tau for a in res.graph.arcs] == [2, 9]

    def test_labels_parsed(self):
        res = parse_graph_ex(FOUR_NODE_TEXT)
        assert res.labels == {0: "s", 1: "u", 2: "v", 3: "t"}

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("point 2\n0 1 x 1\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("point 2\n0 1 1 1\n0 7 1 1\n")
        with pytest.raises(ParseError, match="zero delay"):
            parse_graph("point 2\n0 1 1 0\n")
        with pytest.raises(ParseError, match="end before start"):
            parse_graph("interval 2\n0 1 4 2 1\n")
        with pytest.raises(ParseError, match="header"):
            parse_graph("digraph 2\n")

    @pytest.mark.parametrize("text", [
        "point 2\n0 1 1_0 1\n",
        "point 2\n0 1 \u0661\u0662 1\n",
        "point 2\n0 1 \uff11 1\n",
        "point 1_0\n",
        "point \u0662\n",
        "interval 2\n0 1 2 1_0 1\n",
        "point 2\n# label \u0661 x\n",
    ])
    def test_rejects_non_ascii_and_underscore_integers(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)

    def test_accepts_signed_integers_and_non_ascii_labels(self):
        res = parse_graph_ex("point 2\n# label 1 \u00e1\n0 +1 3 1\n")
        assert res.labels == {1: "\u00e1"}
        assert [(a.u, a.v) for a in res.graph.arcs] == [(0, 1)]

    @pytest.mark.parametrize("text", [
        "p cnf 1_0 1\n1 0\n",
        "p cnf \u0661 1\n1 0\n",
        "p cnf 1 1\n1_0 0\n",
        "p cnf 1 1\n\u0661 0\n",
    ])
    def test_dimacs_rejects_non_ascii_and_underscore_integers(self, text):
        with pytest.raises(ParseError):
            parse_dimacs_cnf(text)

    def test_nonstrict_header_token(self):
        g = parse_graph("point 2 nonstrict\n0 1 1 0\n")
        assert g.non_strict

    @given(point_graph_strategy())
    def test_round_trip_point(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(point_graph_strategy())
    def test_round_trip_unsorted_construction(self, g):
        arcs = list(zip(g.u, g.v, g.tau, g.delta))
        as_given = point_graph(g.n, arcs, sort=False)
        assert parse_graph(serialize_graph(as_given)) == g
        shuffled = point_graph(g.n, arcs[::-1], sort=False)
        res = parse_graph_ex(serialize_graph(shuffled))
        assert res.graph == point_graph(g.n, arcs[::-1])
        assert res.input_was_sorted == (len(set(g.tau)) <= 1)

    def test_round_trip_non_strict(self):
        g = point_graph(3, [(0, 1, 2, 0), (1, 2, 2, 0)], non_strict=True)
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_interval_with_labels(self):
        g = interval_graph(3, [(0, 1, 2, 9, 3), (1, 2, 4, 4, 1)])
        labels = {0: "a", 2: "z"}
        res = parse_graph_ex(serialize_graph(g, labels))
        assert res.graph == g
        assert res.labels == labels

    def test_round_trip_generated_files(self):
        for g in (gen_ladder(5), gen_subset_sum_instance(SubsetSumInstance((1, 2), 2)).graph):
            assert parse_graph(serialize_graph(g)) == g

    def test_dimacs_round_trip(self):
        text = "c comment\np cnf 3 4\n1 2 3 0\n-1 2 3 0\n1 -2 3 0\n-1 -2 -3 0\n"
        f = parse_dimacs_cnf(text)
        assert f.n == 3
        assert len(f.clauses) == 4
        assert parse_dimacs_cnf(serialize_dimacs_cnf(f)) == f

    @given(st.integers(0, 40), clause_lists)
    def test_dimacs_round_trip_random_clauses(self, n, clauses):
        f = Cnf34Formula(n, clauses)
        assert parse_dimacs_cnf(serialize_dimacs_cnf(f)) == f

    @given(soups)
    def test_token_soup_parses_or_raises_parse_error(self, text):
        for parse in (parse_graph_ex, parse_dimacs_cnf):
            try:
                parse(text)
            except ParseError:
                pass


class TestSolveCommand:
    def test_yes_with_witness(self, four_node_file, capsys):
        assert main(["solve", four_node_file, "--source", "s", "--target", "t",
                     "--delta", "2", "--path"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "YES"
        assert out[1:] == ["0 1 1 1", "1 2 4 2", "2 3 6 1"]

    def test_no_when_wait_bound_tight(self, four_node_file, capsys):
        assert main(["solve", four_node_file, "--source", "s", "--target", "t",
                     "--delta", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "NO"

    def test_source_equals_target(self, four_node_file, capsys):
        assert main(["solve", four_node_file, "--source", "s", "--target", "s",
                     "--delta", "0", "--path"]) == 0
        assert capsys.readouterr().out.splitlines() == ["YES"]

    def test_json_document(self, four_node_file, capsys):
        assert main(["solve", four_node_file, "--source", "0", "--target", "3",
                     "--delta", "2", "--path", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reachable"] == [0, 1, 2, 3]
        assert doc["path"] == [[0, 1, 1, 1], [1, 2, 4, 2], [2, 3, 6, 1]]
        assert doc["width"] == 3

    def test_reachable_set_without_target(self, four_node_file, capsys):
        assert main(["solve", four_node_file, "--source", "s", "--delta", "1"]) == 0
        assert capsys.readouterr().out.strip() == "reachable: 0 1"

    def test_mixed_delays_rejected_by_solve_and_check(self, tmp_path, capsys):
        path = tmp_path / "mixed.graph"
        path.write_text("point 3 nonstrict\n0 1 5 0\n1 2 5 1\n")
        for argv in (["solve", str(path), "--source", "0", "--delta", "0"],
                     ["check", str(path), "--source", "0", "--delta", "0"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "all positive or all zero" in captured.err

    def test_parse_error_is_usage(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("point 2\n0 1 zz 1\n")
        assert main(["solve", str(bad), "--source", "0", "--delta", "1"]) == 2

    def test_interval_input_expanded(self, tmp_path, capsys):
        path = tmp_path / "iv.graph"
        inst = gen_subset_sum_instance(SubsetSumInstance((1,), 1))
        path.write_text(serialize_graph(inst.graph))
        assert main(["solve", str(path), "--source", "0", "--target", "2",
                     "--delta", "0", "--path"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "YES"
        assert all("window=" in line for line in out[1:])

    def test_interval_json_witness_is_lifted(self, tmp_path, capsys):
        path = tmp_path / "iv.graph"
        path.write_text("interval 3\n0 1 2 4 1\n1 2 5 9 2\n")
        assert main(["solve", str(path), "--source", "0", "--target", "2",
                     "--delta", "0", "--path", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # [u, v, departure, delta, tau_start, tau_end]; with no waiting
        # the only witness departs at 4 and then at 5.
        assert doc["path"] == [[0, 1, 4, 1, 2, 4], [1, 2, 5, 2, 5, 9]]

    def test_expansion_cap_is_guard_exit(self, tmp_path):
        path = tmp_path / "iv.graph"
        path.write_text("interval 2\n0 1 0 1000000 1\n")
        assert main(["solve", str(path), "--source", "0", "--delta", "0",
                     "--expansion-cap", "10"]) == 3

    def test_nonstrict_flag(self, tmp_path, capsys):
        path = tmp_path / "ns.graph"
        path.write_text("point 3 nonstrict\n0 1 5 0\n1 2 5 0\n")
        assert main(["solve", str(path), "--source", "0", "--delta", "0"]) == 0
        assert capsys.readouterr().out.strip() == "reachable: 0 1 2"


class TestWidthCommand:
    def test_ladder_file(self, tmp_path, capsys):
        path = tmp_path / "ladder.graph"
        path.write_text(serialize_graph(gen_ladder(5)))
        assert main(["width", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_arc_width(self, four_node_file, capsys):
        assert main(["width", four_node_file, "--arc"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text("point 3\n")
        assert main(["width", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_interval_vertex_width(self, tmp_path, capsys):
        path = tmp_path / "iv.graph"
        inst = gen_subset_sum_instance(SubsetSumInstance((1, 2, 3), 4))
        path.write_text(serialize_graph(inst.graph))
        assert main(["width", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert main(["width", str(path), "--arc"]) == 2


class TestGenerateCommand:
    def test_subsetsum_file(self, capsys):
        assert main(["generate", "subsetsum", "1,2", "3"]) == 0
        out = capsys.readouterr().out
        g = parse_graph(out)
        assert g.n == 4
        assert len(g.arcs) == 5

    def test_ladder_file(self, capsys):
        assert main(["generate", "ladder", "3"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 6
        assert len(g.arcs) == 14

    def test_sat_requires_34_shape(self, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        assert main(["generate", "sat", str(cnf)]) == 2

    def test_sat_gadget_solvable_end_to_end(self, tmp_path, capsys):
        from restless_reach import gen_random_34sat

        cnf = tmp_path / "ok.cnf"
        cnf.write_text(serialize_dimacs_cnf(gen_random_34sat(3, seed=4)))
        assert main(["generate", "sat", str(cnf)]) == 0
        text = capsys.readouterr().out
        res = parse_graph_ex(text)
        source = [l for l in text.splitlines() if l.startswith("# source")][0].split()[-1]
        target = [l for l in text.splitlines() if l.startswith("# target")][0].split()[-1]
        assert res.graph.uniform_delay_one
        assert int(source) == 0 and int(target) < res.graph.n

    def test_random_deterministic(self, capsys):
        assert main(["generate", "random", "--nodes", "5", "--arcs", "9", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "random", "--nodes", "5", "--arcs", "9", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


class TestCheckCommand:
    def test_file_match(self, four_node_file, capsys):
        assert main(["check", four_node_file, "--source", "0", "--delta", "2"]) == 0
        assert capsys.readouterr().out.startswith("MATCH")

    def test_random_batch(self, capsys):
        assert main(["check", "--trials", "8", "--seed", "11"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(1 for line in out if line.startswith("MATCH")) == 8
        assert out[-1] == "all match"

    def test_guard_exit(self, tmp_path):
        from restless_reach import gen_random_point

        path = tmp_path / "big.graph"
        path.write_text(serialize_graph(gen_random_point(30, 60, 9, 1, seed=0)))
        assert main(["check", str(path), "--source", "0", "--delta", "1"]) == 3


class TestBenchCommand:
    def test_json_records(self, capsys):
        assert main(["bench", "ladder", "--sizes", "60,120", "--delta", "1",
                     "--repeats", "2", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert all(set(r) >= {"instance", "n", "m", "k", "delta", "wall_s",
                              "peak_entries", "reachable", "repeat"} for r in records)
        assert [r["repeat"] for r in records] == [0, 1, 0, 1]

    def test_human_table(self, capsys):
        assert main(["bench", "random", "--sizes", "30", "--delta", "2",
                     "--seed", "5", "--max-delay", "3"]) == 0
        assert "time=" in capsys.readouterr().out


class TestNegativeWaitBound:
    """A negative wait bound is refused everywhere, never solved: with no
    wait before the first arc, the solvers and the oracle disagreed."""

    @pytest.mark.parametrize("entry", [
        lambda g: solve_unit(g, 0, -1),
        lambda g: solve_general(g, 0, -1),
        lambda g: oracle_reachable(g, 0, -1),
        lambda g: oracle_traces(g, 0, -1, 1, 2),
        lambda g: retrieve_path(solve_unit(g, 0, 1, record_paths=True), g, 0, 2, -1),
    ], ids=["solve_unit", "solve_general", "oracle_reachable", "oracle_traces",
            "retrieve_path"])
    def test_library_raises(self, entry):
        with pytest.raises(WaitBoundError):
            entry(point_graph(3, [(0, 1, 0), (1, 2, 1)]))

    @pytest.mark.parametrize("argv", [
        ["solve", "{path}", "--source", "0", "--delta", "-1"],
        ["check", "{path}", "--source", "0", "--delta", "-1"],
        ["bench", "random", "--sizes", "30", "--delta", "-5"],
    ], ids=["solve", "check", "bench"])
    def test_cli_usage_exit(self, argv, tmp_path, capsys):
        path = tmp_path / "ns.graph"
        path.write_text("point 3 nonstrict\n0 1 0 0\n1 2 1 0\n")
        assert main([arg.format(path=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is negative" in captured.err
