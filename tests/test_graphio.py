"""Text round-tripping of factor graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayespace.graphio import (dumps_graph, loads_graph, load_graph, dump_graph,
                               register_factor_type)
from bayespace.gvi import (Factor, FactorGraph, odom_factor, prior_factor,
                           range_factor, stereo_factor)


def sample_graph():
    return FactorGraph(3, (
        prior_factor(0, 0.5, 2.0),
        odom_factor(0, 1, 1.25, 0.01),
        range_factor(1, 2, 7.5, 0.25, 2.0),
        stereo_factor(2, 1.8, 400.0, 0.1, 0.09),
    ))


class TestRoundTrip:
    def test_dumps_then_loads(self):
        graph = sample_graph()
        back = loads_graph(dumps_graph(graph))
        assert back.num_vars == graph.num_vars
        assert len(back.factors) == len(graph.factors)
        rng = np.random.default_rng(0)
        for f, g in zip(graph.factors, back.factors):
            assert (f.kind, f.indices, f.params) == (g.kind, g.indices, g.params)
            x = rng.uniform(1.0, 8.0, size=(5, f.arity))
            assert np.allclose(f.phi(x), g.phi(x), rtol=1e-15)

    def test_file_round_trip(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "graph.txt"
        dump_graph(graph, path)
        assert load_graph(path).num_vars == 3

    def test_rewrite_replaces_file_instead_of_writing_through(self, tmp_path):
        # The target is unlinked and written anew, never truncated in place,
        # so another name for the old file keeps its bytes.
        path = tmp_path / "graph.txt"
        dump_graph(sample_graph(), path)
        (tmp_path / "old.txt").hardlink_to(path)
        before = path.read_bytes()
        dump_graph(FactorGraph(1, (prior_factor(0, 1.0, 2.0),)), path)
        assert (tmp_path / "old.txt").read_bytes() == before
        assert path.read_bytes() != before

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        VAR 2
        FACTOR prior 0 0.0 1.0   # trailing comment
        FACTOR odom 0 1 1.0 0.5
        """
        graph = loads_graph(text)
        assert graph.num_vars == 2 and len(graph.factors) == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            loads_graph("FACTOR prior 0 0.0 1.0\n")  # missing VAR
        with pytest.raises(ValueError):
            loads_graph("VAR 1\nFACTOR nope 0 1.0\n")
        with pytest.raises(ValueError):
            loads_graph("VAR 1\nFACTOR prior 0 1.0\n")  # wrong arity
        with pytest.raises(ValueError):
            loads_graph("VAR 1\nWHAT 3\n")

    @pytest.mark.parametrize("record, build", [
        pytest.param(record, build, id=record) for record, build in [
            # non-finite parameter
            ("FACTOR prior 0 nan 1.0", lambda: prior_factor(0, float("nan"), 1.0)),
            # negative and zero variance
            ("FACTOR prior 1 0 -1", lambda: prior_factor(1, 0.0, -1.0)),
            ("FACTOR odom 0 1 1.0 0", lambda: odom_factor(0, 1, 1.0, 0.0)),
            ("FACTOR range 0 1 inf 0.25 2.0", lambda: range_factor(0, 1, float("inf"), 0.25, 2.0)),
            ("FACTOR stereo 1 1.8 400 0.1 -0.09", lambda: stereo_factor(1, 1.8, 400.0, 0.1, -0.09)),
            ("FACTOR prior 0 abc 1.0", None),   # unparsable number
            # indices not increasing
            ("FACTOR odom 1 1 1.0 0.5", lambda: odom_factor(1, 1, 1.0, 0.5)),
            ("FACTOR range 1 0 3.0 0.25 2.0", lambda: range_factor(1, 0, 3.0, 0.25, 2.0)),
            ("FACTOR", None),                   # bare record
        ]])
    def test_invalid_factor_names_its_line(self, record, build):
        with pytest.raises(ValueError, match=r"^line 3: ") as err:
            loads_graph(f"VAR 2\nFACTOR prior 0 0.0 1.0\n{record}\nFACTOR prior 1 0.0 1.0\n")
        if build is not None:  # the builder's own message follows the line number
            with pytest.raises(ValueError) as built:
                build()
            assert str(err.value) == f"line 3: {built.value}"

    @pytest.mark.parametrize("count", ["10000000000000", "9223372036854775807"])
    def test_huge_var_count_is_a_value_error(self, count):
        # Coverage is checked without a per-variable array, so a damaged
        # count neither allocates nor escapes as MemoryError.
        with pytest.raises(ValueError, match="appear in no factor"):
            loads_graph(f"VAR {count}\nFACTOR prior 0 0.0 1.0\n")

    @pytest.mark.parametrize("record", ["VAR", "VAR 2 3", "VAR x", "VAR -1"])
    def test_invalid_var_names_its_line(self, record):
        with pytest.raises(ValueError, match=r"^line 2: "):
            loads_graph(f"# header\n{record}\nFACTOR prior 0 0.0 1.0\n")

    def test_custom_type_registration(self):
        def cubic(idx, params):
            a, = params
            return Factor(indices=tuple(idx),
                          phi=lambda x: a * x[:, 0] ** 2,
                          kind="cubic-pull", params=(a,))

        register_factor_type("cubic-pull", 1, 1, cubic)
        graph = FactorGraph(1, (cubic([0], [0.3]),))
        back = loads_graph(dumps_graph(graph))
        assert back.factors[0].kind == "cubic-pull"
        assert back.factors[0].params == (0.3,)

    @pytest.mark.parametrize("kind", ["a b", "a\tb", "a#b", ""])
    def test_type_id_must_be_one_token_without_a_comment(self, kind):
        def builder(idx, params):
            return Factor(indices=tuple(idx), phi=lambda x: x[:, 0] ** 2, kind=kind)

        with pytest.raises(ValueError, match="is not one token without '#'"):
            register_factor_type(kind, 1, 0, builder)
        with pytest.raises(ValueError, match="is not registered for serialization"):
            dumps_graph(FactorGraph(1, (builder([0], []),)))

    def test_empty_block_triple_dumps_like_the_graph_without_it(self):
        blocks = [("prior", np.array([[0]]), np.array([[0.5, 2.0]])),
                  ("odom", np.array([[0, 1]]), np.array([[1.25, 0.01]]))]
        empty = ("range", np.zeros((0, 2), int), np.zeros((0, 3)))
        graph = FactorGraph.from_blocks(2, blocks[:1] + [empty] + blocks[1:])
        assert [b.kind.name for b in graph.blocks] == ["prior", "odom"]
        text = dumps_graph(graph)
        assert text == dumps_graph(FactorGraph.from_blocks(2, blocks))
        assert dumps_graph(loads_graph(text)) == text


_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                      allow_subnormal=True)


@st.composite
def random_graphs(draw):
    """Graphs over 1 to 6 variables with factors of every built-in kind, in any order."""
    n = draw(st.integers(1, 6))
    factors = []
    for kind in draw(st.lists(st.sampled_from(["prior", "odom", "range", "stereo"]),
                              max_size=12)):
        if kind in ("odom", "range") and n < 2:
            kind = "prior"
        i = draw(st.integers(0, n - 1 - (kind in ("odom", "range"))))
        j = draw(st.integers(i + 1, n - 1)) if kind in ("odom", "range") else None
        if kind == "prior":
            factors.append(prior_factor(i, draw(_FINITE), draw(_POSITIVE)))
        elif kind == "odom":
            factors.append(odom_factor(i, j, draw(_FINITE), draw(_POSITIVE)))
        elif kind == "range":
            factors.append(range_factor(i, j, draw(_FINITE), draw(_POSITIVE), draw(_FINITE)))
        else:
            factors.append(stereo_factor(i, draw(_FINITE), draw(_FINITE), draw(_FINITE),
                                         draw(_POSITIVE)))
    covered = {i for f in factors for i in f.indices}
    factors += [prior_factor(i, draw(_FINITE), draw(_POSITIVE))
                for i in range(n) if i not in covered]
    return FactorGraph(n, tuple(draw(st.permutations(factors))))


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_graphs())
    def test_round_trip_keeps_every_factor(self, graph):
        text = dumps_graph(graph)
        back = loads_graph(text)
        assert back.num_vars == graph.num_vars
        assert ([(f.kind, f.indices, f.params) for f in back.factors]
                == [(f.kind, f.indices, f.params) for f in graph.factors])
        assert dumps_graph(back) == text

    # Tokens a damaged or hand-edited file may hold: record tags, kind ids,
    # numbers the parser must reject or accept, and odd whitespace.
    _TOKENS = ["VAR", "FACTOR", "var", "prior", "odom", "range", "stereo", "nope", "#",
               "0", "1", "2", "-1", "7", "0.5", "-0.0", "nan", "inf", "-inf", "1e400",
               "1e-400", "0x10", "1_000", "+2", "1.5.2", "x", "", " ", "\t", "\n", "\r",
               "\x0b", "\u2028", "\x00", "\u0663", "10000000000000", "99999999999999999999"]

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(), st.data())
    def test_parser_raises_only_value_error_on_mutated_text(self, graph, data):
        lines = [line.split(" ") for line in dumps_graph(graph).splitlines()]
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["replace", "insert", "delete", "drop_line",
                                            "copy_line", "swap_lines", "char"]))
            row = data.draw(st.integers(0, len(lines) - 1)) if lines else None
            if row is None:
                lines.append([data.draw(st.sampled_from(self._TOKENS))])
            elif op in ("replace", "insert", "delete"):
                at = data.draw(st.integers(0, max(len(lines[row]) - 1, 0)))
                token = data.draw(st.sampled_from(self._TOKENS))
                if op == "replace" and lines[row]:
                    lines[row][at] = token
                elif op == "insert":
                    lines[row].insert(at, token)
                elif lines[row]:
                    del lines[row][at]
            elif op == "drop_line":
                del lines[row]
            elif op == "copy_line":
                lines.insert(data.draw(st.integers(0, len(lines))), list(lines[row]))
            elif op == "swap_lines":
                other = data.draw(st.integers(0, len(lines) - 1))
                lines[row], lines[other] = lines[other], lines[row]
            else:
                text = " ".join(lines[row])
                at = data.draw(st.integers(0, len(text)))
                lines[row] = (text[:at] + data.draw(st.characters()) + text[at:]).split(" ")
        text = "\n".join(" ".join(line) for line in lines)
        try:
            back = loads_graph(text)
        except ValueError:
            return
        assert isinstance(back, FactorGraph)
