import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricolor.embedding import validate
from tricolor.generators import GenSpec, InvalidSpec, augmented, generate, grid, quad
from tricolor.graphio import serialize
from tricolor.oracle import SimpleGraph, face_orbits, is_triangle_free


class TestGrid:
    def test_three_by_three(self):
        g = grid(3)
        assert (g.n_alive, g.m_alive) == (9, 12)
        inner = [o for o in face_orbits(g) if len(o) == 4]
        assert len(inner) == 4

    def test_deletions_keep_validity(self):
        for seed in range(5):
            g = grid(6, delete_prob=0.3, seed=seed)
            validate(g)
            assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_deletion_determinism(self):
        assert serialize(grid(5, 0.2, 9)) == serialize(grid(5, 0.2, 9))


class TestQuad:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_valid_and_even_faced(self, seed):
        g = quad(17, seed)
        validate(g)
        assert g.n_alive == 17
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))
        assert all(len(o) % 2 == 0 for o in face_orbits(g))

    def test_determinism(self):
        assert serialize(quad(40, 5)) == serialize(quad(40, 5))


class TestAugmented:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_triangle_free(self, seed):
        g = augmented(17, seed)
        validate(g)
        assert is_triangle_free(SimpleGraph.from_plane_graph(g))

    def test_produces_odd_faces_somewhere(self):
        assert any(
            any(len(o) % 2 for o in face_orbits(augmented(30, seed)))
            for seed in range(8))


class TestGenSpec:
    def test_generate_validates(self):
        g = generate(GenSpec("quad", 25, seed=3))
        assert g.n_alive == 25

    def test_grid_size_rounds_to_square(self):
        g = generate(GenSpec("grid", 10, seed=0))
        assert g.n_alive == 9

    @pytest.mark.parametrize("spec", [
        GenSpec("brick", 10), GenSpec("grid", 0), GenSpec("grid", 9, 0, 1.5),
        GenSpec("quad", 10, 0, 0.5),
    ])
    def test_invalid_specs(self, spec):
        with pytest.raises(InvalidSpec):
            generate(spec)
