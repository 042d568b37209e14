"""State grids: the 5-state matrix over (P-state x cores x memory)."""

import pytest

from repro.core.evaluation import evaluate_server
from repro.core.grid import (
    StateGrid,
    evaluate_grid,
    evaluation_digest,
    grid_to_dict,
)
from repro.core.states import core_levels
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.hardware.specs import get_server
from repro.hardware.zoo import get_zoo_server


class TestStateGridAxes:
    def test_builtin_defaults_are_the_paper_matrix(self):
        server = get_server("Xeon-E5462")
        grid = StateGrid(server)
        assert grid.pstates == (0,)
        assert grid.core_counts == core_levels(server)
        assert grid.states_per_cell == 10
        assert grid.n_states == 10

    def test_zoo_defaults_span_the_full_ladder(self):
        server = get_zoo_server("Xeon-E5-2658")
        grid = StateGrid(server)
        assert grid.pstates == tuple(range(server.n_pstates))
        assert grid.n_cells == server.n_pstates
        assert grid.n_states == grid.n_cells * grid.states_per_cell

    def test_explicit_axes(self):
        server = get_zoo_server("Xeon-E5-2658")
        grid = StateGrid(
            server,
            pstates=(0, 2),
            core_counts=(1, 16),
            memory_fractions=(0.5,),
        )
        assert grid.n_cells == 2
        assert grid.states_per_cell == 1 + 2 + 2

    def test_duplicate_pstates_rejected(self):
        with pytest.raises(ConfigurationError):
            StateGrid(get_zoo_server("Xeon-E5-2658"), pstates=(0, 0))

    def test_pstate_off_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            StateGrid(get_server("Xeon-E5462"), pstates=(0, 1))

    def test_bad_core_count_rejected(self):
        with pytest.raises(ConfigurationError):
            StateGrid(get_server("Xeon-E5462"), core_counts=(999,))

    def test_bad_memory_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            StateGrid(get_server("Xeon-E5462"), memory_fractions=(1.5,))
        with pytest.raises(ConfigurationError):
            StateGrid(get_server("Xeon-E5462"), memory_fractions=())


class TestDegenerateGridIsThePaper:
    """One P-state, default axes == evaluate_server, bit for bit."""

    @pytest.mark.parametrize(
        "name", ["Xeon-E5462", "Opteron-8347", "Xeon-4870"]
    )
    def test_single_cell_matches_evaluate_server(self, name):
        server = get_server(name)
        grid_result = evaluate_grid(StateGrid(server), seed=0)
        direct = evaluate_server(server, Simulator(server, seed=0))
        assert grid_result.n_states == 10
        [cell] = grid_result.cells
        assert cell.digest == evaluation_digest(direct)


class TestEvaluateGrid:
    @pytest.fixture(scope="class")
    def k20(self):
        server = get_zoo_server("Tesla-K20-Node")
        return server, evaluate_grid(StateGrid(server), seed=0)

    def test_one_cell_per_pstate(self, k20):
        server, result = k20
        assert [c.pstate for c in result.cells] == list(
            range(server.n_pstates)
        )

    def test_frequency_falls_down_the_ladder(self, k20):
        _, result = k20
        freqs = [c.frequency_mhz for c in result.cells]
        assert freqs == sorted(freqs, reverse=True)
        assert result.cells[0].frequency_ratio == 1.0

    def test_cells_are_distinct_operating_points(self, k20):
        _, result = k20
        digests = {c.digest for c in result.cells}
        assert len(digests) == len(result.cells)

    def test_cell_lookup(self, k20):
        _, result = k20
        assert result.cell(1).pstate == 1
        with pytest.raises(ConfigurationError):
            result.cell(99)

    def test_best_cell_has_top_score(self, k20):
        _, result = k20
        assert result.best_cell.score == max(c.score for c in result.cells)

    def test_seed_determinism(self, k20):
        server, result = k20
        again = evaluate_grid(StateGrid(server), seed=0)
        assert again.digest == result.digest


class TestGridDocument:
    def test_schema(self):
        server = get_zoo_server("Atom-C2750")
        result = evaluate_grid(StateGrid(server, pstates=(0, 1)), seed=0)
        doc = grid_to_dict(result)
        assert doc["kind"] == "grid_evaluation"
        assert doc["schema_version"] == 1
        assert doc["server"] == "Atom-C2750"
        assert doc["axes"]["pstates"] == [0, 1]
        assert doc["digest"] == result.digest
        assert len(doc["cells"]) == 2
        for cell_doc, cell in zip(doc["cells"], result.cells):
            assert cell_doc["digest"] == cell.digest
            assert cell_doc["evaluation"]["kind"] == "evaluation"
