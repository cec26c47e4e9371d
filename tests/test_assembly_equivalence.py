"""Bit-for-bit equivalence of vectorised and loop-built assembly.

The vectorised production assembly and the nested-loop reference of
``tests/reference_assembly.py`` share only the deterministic
:class:`~repro.thermal.assembly.ConductanceBuilder`; index arithmetic
and conductance evaluation are derived independently.  Equality is
asserted on the raw CSR arrays with ``==`` — no tolerances — so any
reordering, index slip or formula drift fails loudly.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.thermal.assembly import ConductanceBuilder
from repro.thermal.model import CompactThermalModel

from .reference_assembly import reference_assemble


def _assert_csr_identical(produced: csr_matrix, reference: csr_matrix) -> None:
    assert produced.shape == reference.shape
    assert produced.nnz == reference.nnz
    assert np.array_equal(produced.indptr, reference.indptr)
    assert np.array_equal(produced.indices, reference.indices)
    # Bitwise: == on float64, not allclose.
    assert np.array_equal(produced.data, reference.data)


STACKS = {
    "liquid-2tier": lambda: build_3d_mpsoc(2),
    "air-2tier": lambda: build_3d_mpsoc(2, CoolingMode.AIR),
    "liquid-4tier": lambda: build_3d_mpsoc(4),
    "two-phase-2tier": lambda: build_3d_mpsoc(2, two_phase=True),
}


@pytest.fixture(scope="module", params=sorted(STACKS), name="pair")
def _pair(request):
    model = CompactThermalModel(STACKS[request.param](), nx=12, ny=10)
    return model, reference_assemble(model)


def test_base_matrix_bit_for_bit(pair):
    model, ref = pair
    _assert_csr_identical(model._a_base, ref.a_base)


def test_advection_matrices_bit_for_bit(pair):
    model, ref = pair
    assert sorted(model._cavity_levels) == sorted(ref.per_cavity_adv)
    for name, matrix in ref.per_cavity_adv.items():
        _assert_csr_identical(model.cavity_advection_matrix(name), matrix)
    _assert_csr_identical(model._a_adv, ref.a_adv)


def test_vectors_bit_for_bit(pair):
    model, ref = pair
    assert np.array_equal(model._b_base, ref.b_base)
    assert np.array_equal(model._b_adv, ref.b_adv)
    assert np.array_equal(model.capacitance, ref.capacitance)
    for name, vector in model._per_cavity_b.items():
        assert np.array_equal(vector, ref.per_cavity_b[name])


def test_non_square_grid_bit_for_bit():
    """nx != ny catches transposed index arithmetic."""
    model = CompactThermalModel(build_3d_mpsoc(2), nx=9, ny=14)
    ref = reference_assemble(model)
    _assert_csr_identical(model._a_base, ref.a_base)
    _assert_csr_identical(model._a_adv, ref.a_adv)


def test_builder_rejects_duplicate_off_diagonals():
    builder = ConductanceBuilder(4)
    builder.add_edges([0], [1], 1.0)
    builder.add_edges([0], [1], 2.0)  # same edge again: contract violation
    with pytest.raises(AssertionError, match="duplicate"):
        builder.to_csr()


def test_injection_matches_per_block_spreading():
    """The injection operator equals power/cells spreading per block.

    The operator stores ``1/cells`` and multiplies by the block power,
    where the seed divided ``power/cells`` directly — mathematically
    identical, so the comparison uses a one-ulp-tight tolerance rather
    than bitwise equality.
    """
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    masks = model.block_masks()
    rng = np.random.default_rng(7)
    powers = {ref: float(p) for ref, p in zip(masks, rng.uniform(0.5, 4.0, len(masks)))}
    expected = np.zeros(model.grid.size)
    for ref, mask in masks.items():
        level = model.grid.level_of(ref[0])
        cells = model.grid.flat_indices(level, mask)
        expected[cells] += powers[ref] / cells.size
    produced = model.power_vector(powers)
    np.testing.assert_allclose(produced, expected, rtol=1e-15, atol=0.0)


def test_builder_accumulates_the_diagonal_in_input_order():
    """Each cell's diagonal is the sequential sum of its contributions
    in emission order, bitwise against a Python loop: float addition is
    not associative, so any reordering of the reduction would show.
    The reference assembly shares the builder, so only this test pins
    the accumulation order itself."""
    rng = np.random.default_rng(7)
    n = 257
    builder = ConductanceBuilder(n)
    expected = np.zeros(n)
    i, j = rng.integers(0, n, size=(2, 1000))
    g = rng.normal(scale=1e3, size=1000)
    builder.add_edges(i, j, g)
    for endpoints in (i, j):
        for cell, weight in zip(endpoints, g):
            expected[cell] += weight
    for _ in range(10):
        cells = rng.integers(0, n, size=1000)
        weights = rng.normal(scale=1e3, size=1000)
        builder.add_diagonal(cells, weights)
        for cell, weight in zip(cells, weights):
            expected[cell] += weight
    assert np.array_equal(builder.diagonal(), expected)  # bitwise


def test_builder_gathers_the_nonzero_diagonal():
    """``to_csr`` stores exactly the nonzero diagonal entries, in index
    order, with their accumulated values; an empty builder stores none."""
    rng = np.random.default_rng(8)
    n = 500
    values = np.where(rng.random(n) < 0.4, 0.0, rng.normal(size=n))
    builder = ConductanceBuilder(n)
    builder.add_diagonal(np.arange(n), values)
    matrix = builder.to_csr()
    expected = [k for k in range(n) if values[k] != 0.0]
    assert np.array_equal(matrix.indices, expected)
    assert np.array_equal(matrix.data, values[expected])
    assert np.array_equal(np.diff(matrix.indptr), values != 0.0)
    empty = ConductanceBuilder(4)
    assert np.array_equal(empty.diagonal(), np.zeros(4))
    assert empty.to_csr().nnz == 0
