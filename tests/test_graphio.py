"""Text round-tripping of factor graphs."""

import numpy as np
import pytest

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

    @pytest.mark.parametrize("record", [
        "FACTOR prior 0 nan 1.0",      # non-finite parameter
        "FACTOR prior 1 0 -1",         # negative variance
        "FACTOR odom 0 1 1.0 0",       # zero variance
        "FACTOR range 0 1 inf 0.25 2.0",
        "FACTOR stereo 1 1.8 400 0.1 -0.09",
        "FACTOR prior 0 abc 1.0",      # unparsable number
        "FACTOR odom 1 1 1.0 0.5",     # indices not increasing
        "FACTOR",                      # bare record
    ])
    def test_invalid_factor_names_its_line(self, record):
        with pytest.raises(ValueError, match=r"^line 3: "):
            loads_graph(f"VAR 2\nFACTOR prior 0 0.0 1.0\n{record}\nFACTOR prior 1 0.0 1.0\n")

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
