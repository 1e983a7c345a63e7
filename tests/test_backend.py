"""Backend conformance suite: the ``xp`` shim behind kernels and sweeps.

Three layers of assurance, all runnable on CPU-only CI:

- **Op conformance** — every backend's curated op surface (``OPS``)
  matches the NumPy reference semantics on adversarial little inputs
  (duplicate scatter columns, all-inf rows, empty selections).
- **Kernel equivalence** — the portable xp BFS / delta-stepping
  formulations reproduce the specialised host kernels: *exactly* for
  integer BFS levels (representation-independent), within ``1e-9`` for
  weighted distances.
- **Sweep equivalence** — :class:`~repro.core.sweep.DeviceSweep` under
  ``gdb_refine`` converges to the host engine's objective within
  ``1e-6``.

The instrumented backend (numpy-wrapping, call-recording, non-default
creation dtypes) and an array-API adapter over the NumPy namespace run
everywhere; the ``array_api_strict`` parametrisations auto-skip when
the library is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    OPS,
    ArrayAPIBackend,
    ArrayBackend,
    InstrumentedBackend,
    NumpyBackend,
    available_backends,
    resolve_backend,
)
from repro.core.backbone import build_backbone
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import GDBConfig, gdb_refine
from repro.datasets import flickr_like
from repro.queries import ReliabilityQuery, ShortestPathQuery
from repro.sampling import MonteCarloEstimator, WorldSampler
from repro.sampling.batch import (
    BATCH_BYTES_ENV,
    DEFAULT_BATCH_BYTES,
    auto_chunk_size,
    kernel_world_bytes,
)

_OPTIONAL = ("array_api_strict",)


def _backend_params():
    """Every non-reference backend, optional ones marked for auto-skip."""
    avail = available_backends()
    params = [
        pytest.param("instrumented", id="instrumented"),
        pytest.param("numpy_api", id="numpy_api"),
    ]
    for name in _OPTIONAL:
        marks = ()
        if name not in avail:
            marks = (pytest.mark.skip(reason=f"backend {name!r} not installed"),)
        params.append(pytest.param(name, id=name, marks=marks))
    return params


@pytest.fixture(params=_backend_params())
def xp(request) -> ArrayBackend:
    """A non-reference backend (the portable-kernel dispatch trigger)."""
    if request.param == "numpy_api":
        return ArrayAPIBackend(np, name="numpy_api")
    return resolve_backend(request.param)


@pytest.fixture
def sampler(small_power_law) -> WorldSampler:
    return WorldSampler(small_power_law)


# -- registry ----------------------------------------------------------------

class TestRegistry:
    def test_default_is_numpy_reference(self):
        backend = resolve_backend(None)
        assert isinstance(backend, NumpyBackend)
        assert backend.is_reference
        assert backend.key == "numpy:cpu"
        assert backend.spec == "numpy"

    def test_name_resolution_is_singleton(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")
        assert resolve_backend("instrumented") is resolve_backend("instrumented")

    def test_instance_passthrough(self):
        backend = InstrumentedBackend(label="mine")
        assert resolve_backend(backend) is backend

    def test_available_backends_always_offer_cpu_testables(self):
        avail = available_backends()
        assert "numpy" in avail
        assert "instrumented" in avail

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("not-a-backend")

    def test_non_string_raises(self):
        with pytest.raises(ValueError, match="must be None, a name"):
            resolve_backend(42)

    def test_unavailable_name_raises(self):
        missing = [n for n in _OPTIONAL if n not in available_backends()]
        if not missing:
            pytest.skip("every optional backend is installed here")
        with pytest.raises(ValueError, match="not available"):
            resolve_backend(missing[0])

    def test_spec_round_trips_for_registry_backends(self):
        for name in available_backends():
            backend = resolve_backend(name)
            assert resolve_backend(backend.spec) is backend

    def test_only_numpy_is_reference(self):
        for name in available_backends():
            backend = resolve_backend(name)
            assert backend.is_reference == (name == "numpy")


# -- op conformance ----------------------------------------------------------

class TestOpConformance:
    """Each op against the NumPy reference on small adversarial inputs."""

    def test_asarray_to_host_round_trip(self, xp):
        host = np.array([[1.5, -2.0, np.inf], [0.0, 3.25, -0.5]])
        back = np.asarray(xp.to_host(xp.asarray(host, xp.float64)), dtype=np.float64)
        np.testing.assert_array_equal(back, host)

    def test_creation_with_explicit_dtypes(self, xp):
        z = np.asarray(xp.to_host(xp.zeros((2, 3), xp.float64)), dtype=np.float64)
        np.testing.assert_array_equal(z, np.zeros((2, 3)))
        f = np.asarray(xp.to_host(xp.full((2, 2), np.inf, xp.float64)), dtype=np.float64)
        assert np.all(np.isinf(f))

    def test_elementwise_suite(self, xp):
        a = xp.asarray(np.array([[1.0, -4.0, np.inf], [0.25, 2.0, -1.5]]), xp.float64)
        b = xp.asarray(np.array([[0.5, -5.0, 3.0], [1.0, 1.0, 1.0]]), xp.float64)
        np.testing.assert_allclose(
            np.asarray(xp.to_host(xp.minimum(a, b)), dtype=np.float64),
            [[0.5, -5.0, 3.0], [0.25, 1.0, -1.5]],
        )
        np.testing.assert_array_equal(
            np.asarray(xp.to_host(xp.isfinite(a)), dtype=bool),
            [[True, True, False], [True, True, True]],
        )
        np.testing.assert_allclose(
            np.asarray(xp.to_host(xp.clip(b, 0.0, 1.0)), dtype=np.float64),
            [[0.5, 0.0, 1.0], [1.0, 1.0, 1.0]],
        )
        np.testing.assert_allclose(
            np.asarray(xp.to_host(xp.abs(b)), dtype=np.float64),
            [[0.5, 5.0, 3.0], [1.0, 1.0, 1.0]],
        )

    def test_where_accepts_python_scalars(self, xp):
        cond = xp.asarray(np.array([[True, False], [False, True]]), xp.bool_)
        vals = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]), xp.float64)
        out = np.asarray(xp.to_host(xp.where(cond, vals, np.inf)), dtype=np.float64)
        np.testing.assert_array_equal(out, [[1.0, np.inf], [np.inf, 4.0]])

    def test_take_gathers_along_both_axes(self, xp):
        a = xp.asarray(np.arange(12, dtype=np.float64).reshape(3, 4), xp.float64)
        idx = xp.asarray(np.array([3, 0, 0, 2]), xp.int64)
        out = np.asarray(xp.to_host(xp.take(a, idx, 1)), dtype=np.float64)
        np.testing.assert_array_equal(
            out, np.take(np.arange(12.0).reshape(3, 4), [3, 0, 0, 2], axis=1)
        )
        ridx = xp.asarray(np.array([2, 2, 1]), xp.int64)
        out0 = np.asarray(xp.to_host(xp.take(a, ridx, 0)), dtype=np.float64)
        np.testing.assert_array_equal(
            out0, np.take(np.arange(12.0).reshape(3, 4), [2, 2, 1], axis=0)
        )

    def test_expand_cols_broadcasts(self, xp):
        flat = xp.asarray(np.array([1.0, 2.0]), xp.float64)
        wide = xp.asarray(np.ones((2, 3)), xp.float64)
        out = np.asarray(xp.to_host(xp.expand_cols(flat) * wide), dtype=np.float64)
        np.testing.assert_array_equal(out, [[1.0] * 3, [2.0] * 3])

    def test_reductions_with_axis(self, xp):
        a = xp.asarray(np.array([[True, False], [False, False]]), xp.bool_)
        np.testing.assert_array_equal(
            np.asarray(xp.to_host(xp.any(a, axis=1)), dtype=bool), [True, False]
        )
        np.testing.assert_array_equal(
            np.asarray(xp.to_host(xp.all(a, axis=1)), dtype=bool), [False, False]
        )
        v = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]), xp.float64)
        assert xp.float_scalar(xp.sum(v)) == 10.0
        assert xp.float_scalar(xp.min(v)) == 1.0

    def test_scatter_min_cols_duplicates_and_inf(self, xp):
        # Two directed edges land in column 1 of row 0; row 1 is all-inf.
        col_idx = xp.asarray(np.array([1, 1, 0]), xp.int64)
        values = xp.asarray(
            np.array([[3.0, 2.0, np.inf], [np.inf, np.inf, np.inf]]), xp.float64
        )
        out = np.asarray(
            xp.to_host(xp.scatter_min_cols((2, 3), col_idx, values)),
            dtype=np.float64,
        )
        np.testing.assert_array_equal(
            out, [[np.inf, 2.0, np.inf], [np.inf, np.inf, np.inf]]
        )

    def test_scatter_or_cols_duplicates_and_empty(self, xp):
        col_idx = xp.asarray(np.array([2, 2, 0]), xp.int64)
        values = xp.asarray(
            np.array([[True, False, False], [False, False, False]]), xp.bool_
        )
        out = np.asarray(
            xp.to_host(xp.scatter_or_cols((2, 3), col_idx, values)), dtype=bool
        )
        np.testing.assert_array_equal(
            out, [[False, False, True], [False, False, False]]
        )
        empty = np.asarray(
            xp.to_host(
                xp.scatter_or_cols(
                    (2, 3), col_idx,
                    xp.asarray(np.zeros((2, 3), dtype=bool), xp.bool_),
                )
            ),
            dtype=bool,
        )
        assert not empty.any()

    def test_put_scatter_assign_unique_indices(self, xp):
        a = xp.asarray(np.zeros(5), xp.float64)
        idx = xp.asarray(np.array([4, 1]), xp.int64)
        vals = xp.asarray(np.array([9.0, -2.0]), xp.float64)
        a = xp.put(a, idx, vals)
        np.testing.assert_array_equal(
            np.asarray(xp.to_host(a), dtype=np.float64), [0.0, -2.0, 0.0, 0.0, 9.0]
        )

    def test_operators_are_part_of_the_contract(self, xp):
        a = xp.asarray(np.array([1.0, 2.0, 3.0]), xp.float64)
        b = xp.asarray(np.array([3.0, 2.0, 1.0]), xp.float64)
        np.testing.assert_array_equal(
            np.asarray(xp.to_host((a + b) * a - b / b), dtype=np.float64),
            [3.0, 7.0, 11.0],
        )
        lt = np.asarray(xp.to_host(a < b), dtype=bool)
        ge = np.asarray(xp.to_host(a >= b), dtype=bool)
        np.testing.assert_array_equal(lt, [True, False, False])
        np.testing.assert_array_equal(ge, [False, True, True])
        m = xp.asarray(np.array([True, False, True]), xp.bool_)
        n = xp.asarray(np.array([True, True, False]), xp.bool_)
        np.testing.assert_array_equal(
            np.asarray(xp.to_host((m & n) | ~n), dtype=bool), [True, False, True]
        )

    def test_identity_and_introspection(self, xp):
        assert xp.is_reference is False
        assert xp.key.startswith(f"{xp.name}:")
        assert xp.world_bytes(100, 50) > 0
        assert xp.world_bytes(0, 0) > 0
        xp.synchronize()  # must be harmless on every backend

    def test_ops_surface_is_complete(self, xp):
        for op in OPS:
            assert callable(getattr(xp, op)), op


# -- kernel equivalence ------------------------------------------------------

class TestKernelEquivalence:
    def test_bfs_distances_exact(self, sampler, xp):
        ref = sampler.sample_batch(24, rng=11)
        dev = sampler.sample_batch(24, rng=11, backend=xp)
        for source in (0, 7, sampler.n - 1):
            np.testing.assert_array_equal(
                dev.bfs_distances(source), ref.bfs_distances(source)
            )

    def test_bfs_distances_with_targets_exact(self, sampler, xp):
        ref = sampler.sample_batch(16, rng=3)
        dev = sampler.sample_batch(16, rng=3, backend=xp)
        targets = [1, 5, sampler.n - 2]
        got = dev.bfs_distances(0, targets=targets)
        want = ref.bfs_distances(0, targets=targets)
        # Early exit leaves non-target columns unspecified: compare the
        # target columns (the contract) against the host kernel.
        np.testing.assert_array_equal(got[:, targets], want[:, targets])

    def test_bfs_source_is_target_trivial_exit(self, sampler, xp):
        dev = sampler.sample_batch(4, rng=9, backend=xp)
        distances = dev.bfs_distances(2, targets=[2])
        np.testing.assert_array_equal(distances[:, 2], np.zeros(4, dtype=np.int64))

    def test_weighted_distances_tolerance(self, sampler, xp):
        ref = sampler.sample_batch(24, rng=11)
        dev = sampler.sample_batch(24, rng=11, backend=xp)
        for source in (0, 9):
            np.testing.assert_allclose(
                dev.weighted_distances(source),
                ref.weighted_distances(source),
                rtol=0.0, atol=1e-9,
            )

    def test_weighted_distances_with_targets(self, sampler, xp):
        ref = sampler.sample_batch(12, rng=4)
        dev = sampler.sample_batch(12, rng=4, backend=xp)
        targets = [3, 8]
        got = dev.weighted_distances(1, targets=targets)
        want = ref.weighted_distances(1, targets=targets)
        np.testing.assert_allclose(
            got[:, targets], want[:, targets], rtol=0.0, atol=1e-9
        )

    def test_numpy_backend_stays_bit_identical(self, sampler):
        ref = sampler.sample_batch(16, rng=2)
        via_name = sampler.sample_batch(16, rng=2, backend="numpy")
        np.testing.assert_array_equal(
            via_name.bfs_distances(0), ref.bfs_distances(0)
        )
        np.testing.assert_array_equal(
            via_name.weighted_distances(0), ref.weighted_distances(0)
        )

    def test_portable_kernels_on_reference_ops_match(self, sampler):
        """The xp formulations themselves, run on raw NumPy reference ops
        (via an adapter flagged non-reference), match the specialised
        kernels bit for bit — the shim adds no arithmetic of its own."""
        numpy_api = ArrayAPIBackend(np, name="numpy_api")
        ref = sampler.sample_batch(20, rng=7)
        dev = sampler.sample_batch(20, rng=7, backend=numpy_api)
        np.testing.assert_array_equal(dev.bfs_distances(3), ref.bfs_distances(3))
        np.testing.assert_array_equal(
            dev.weighted_distances(3), ref.weighted_distances(3)
        )


# -- sweep equivalence -------------------------------------------------------

class TestSweepEquivalence:
    @pytest.mark.parametrize("relative", [False, True])
    def test_gdb_refine_converged_objective(self, small_power_law, xp, relative):
        backbone = build_backbone(small_power_law, 0.4, method="bgi", rng=5)
        config = GDBConfig(relative=relative, max_sweeps=2000)

        host = SparsificationState(small_power_law)
        host.select_edges(backbone)
        host_sweeps = gdb_refine(host, config)

        dev = SparsificationState(small_power_law)
        dev.select_edges(backbone)
        dev_sweeps = gdb_refine(dev, config, backend=xp)

        assert host_sweeps < config.max_sweeps
        assert dev_sweeps < config.max_sweeps
        assert abs(host.d1(relative=relative) - dev.d1(relative=relative)) <= 1e-6
        dev.verify(tol=1e-8)

    def test_device_path_rebuilds_sequential_only_plan(self, small_power_law, xp):
        from repro.core.sweep import build_sweep_plan

        backbone = build_backbone(small_power_law, 0.4, method="bgi", rng=5)
        state = SparsificationState(small_power_law)
        state.select_edges(backbone)
        plan = build_sweep_plan(state, sequential_only=True)
        reference = SparsificationState(small_power_law)
        reference.select_edges(backbone)
        config = GDBConfig(max_sweeps=2000)
        gdb_refine(reference, config)
        gdb_refine(state, config, plan=plan, backend=xp)
        assert abs(state.d1() - reference.d1()) <= 1e-6


# -- instrumented backend specifics ------------------------------------------

class TestInstrumentedBackend:
    def test_records_every_kernel_call(self, sampler):
        backend = InstrumentedBackend(label="probe")
        batch = sampler.sample_batch(8, rng=1, backend=backend)
        batch.bfs_distances(0)
        assert backend.calls["scatter_or_cols"] > 0
        assert backend.calls["take"] > 0
        batch.weighted_distances(0)
        assert backend.calls["scatter_min_cols"] > 0
        assert backend.calls["where"] > 0

    def test_dtype_traps_default_to_narrow_dtypes(self):
        backend = InstrumentedBackend()
        assert backend.asarray(np.zeros(3)).dtype == np.float32
        assert backend.asarray(np.zeros(3, dtype=np.int64)).dtype == np.int32
        assert backend.zeros((2, 2)).dtype == np.float32
        assert backend.full((2, 2), 1.0).dtype == np.float32
        # Explicit dtypes pass through untouched — the trap only fires
        # on kernel code that *forgot* to pin its dtype.
        assert backend.asarray(np.zeros(3), np.float64).dtype == np.float64

    def test_labels_give_distinct_cache_keys(self):
        a = InstrumentedBackend(label="a")
        b = InstrumentedBackend(label="b")
        assert a.key != b.key
        assert resolve_backend("instrumented").key not in (a.key, b.key)


# -- per-batch device cache ---------------------------------------------------

class TestBatchBackendCache:
    def test_plan_cached_per_backend_key(self, sampler):
        backend = InstrumentedBackend(label="cache")
        batch = sampler.sample_batch(8, rng=1, backend=backend)
        batch.bfs_distances(0)
        uploads = backend.calls["asarray"]
        batch.bfs_distances(1)
        # The device plan (alive mask + endpoint columns) is reused, so
        # the second source re-uploads only per-source state.
        assert backend.calls["asarray"] < 2 * uploads
        assert batch._xp_plan[0] == backend.key

    def test_backend_swap_invalidates_stale_plan(self, sampler):
        first = InstrumentedBackend(label="first")
        second = InstrumentedBackend(label="second")
        ref = sampler.sample_batch(8, rng=1)
        batch = sampler.sample_batch(8, rng=1, backend=first)
        np.testing.assert_array_equal(
            batch.bfs_distances(0), ref.bfs_distances(0)
        )
        assert batch._xp_plan[0] == first.key
        batch.backend = second
        np.testing.assert_array_equal(
            batch.bfs_distances(0), ref.bfs_distances(0)
        )
        assert batch._xp_plan[0] == second.key
        assert second.calls["asarray"] > 0


# -- chunk autosizing (footprint model regression) ----------------------------

class TestChunkAutosizing:
    M, N = 10_000, 1_000  # packed/world = 72 kB

    def test_kernel_world_bytes_model(self):
        assert kernel_world_bytes(self.M, self.N) == 72_000
        assert kernel_world_bytes(0, 0) > 0

    def test_pinned_chunk_sizes_per_kernel(self):
        budget = 1_000_000
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=budget) == 13

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BATCH_BYTES_ENV, "352000")
        assert auto_chunk_size(100, self.M, self.N) == 4
        # An explicit budget always beats the environment.
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=1_000_000) == 13

    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv(BATCH_BYTES_ENV, raising=False)
        assert auto_chunk_size(10**9, self.M, self.N) == \
            DEFAULT_BATCH_BYTES // 72_000

    def test_backend_supplied_footprint(self):
        # Non-reference backends size by their own dense-kernel model:
        # 20*2m + 40n = 440 kB/world here.
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=1_000_000,
                               backend="instrumented") == 2
        # The reference backend keeps the host kernel model.
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=1_000_000,
                               backend="numpy") == 13

    def test_floors_and_caps(self):
        assert auto_chunk_size(500, 10**9, budget_bytes=1) == 1
        assert auto_chunk_size(500, 1, budget_bytes=2**40) == 500
        assert auto_chunk_size(0, 0) == 1
        assert auto_chunk_size(7, 1, 1) == 7


# -- estimator integration ----------------------------------------------------

class TestEstimatorIntegration:
    def test_outcomes_bit_identical_for_hop_queries(self, small_power_law, xp):
        pairs = [(0, 10), (3, 40), (7, 22)]
        query = ShortestPathQuery(pairs)
        ref = MonteCarloEstimator(small_power_law, n_samples=40)
        dev = MonteCarloEstimator(small_power_law, n_samples=40, backend=xp)
        np.testing.assert_array_equal(
            dev.run(query, rng=5).outcomes, ref.run(query, rng=5).outcomes
        )

    def test_reliability_unchanged(self, small_power_law, xp):
        query = ReliabilityQuery([(0, 10), (3, 40)])
        ref = MonteCarloEstimator(small_power_law, n_samples=40)
        dev = MonteCarloEstimator(small_power_law, n_samples=40, backend=xp)
        np.testing.assert_array_equal(
            dev.run(query, rng=5).outcomes, ref.run(query, rng=5).outcomes
        )

    def test_numpy_backend_estimator_is_bit_identical(self, small_power_law):
        query = ShortestPathQuery([(0, 10), (3, 40)], weighted=True)
        ref = MonteCarloEstimator(small_power_law, n_samples=30)
        named = MonteCarloEstimator(small_power_law, n_samples=30, backend="numpy")
        np.testing.assert_array_equal(
            named.run(query, rng=9).outcomes, ref.run(query, rng=9).outcomes
        )
