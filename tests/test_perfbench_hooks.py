"""The traced benchmark patches package entry points by name; these checks
keep those names alive and the traced outputs identical to untraced ones.

The benchmark rebuilds each conserved quantity from its name, value and
gradient only, so a correction that relied on anything else carried by a
quantity would compute something different in traced passes.
"""

import sys
from pathlib import Path

import numpy as np

from rons import fv, nls, swe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_patched_entry_point_resolves():
    for module, attribute, _ in layers.patches(Tracer()):
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"


def _outputs(U, A, basis):
    swe_cfg = swe.SweConfig()
    grid = fv.build_grid(10.0, U.shape[-1])
    scheme = swe.central_upwind_scheme(swe_cfg)
    swe_qs = swe.swe_quantities(grid, swe_cfg)
    rom_qs = nls.rom_quantities(basis)
    return [
        fv.fvrons_rhs(U, scheme, grid, swe_qs),
        fv.fvrons_rhs(U[0], scheme, grid, swe_qs),
        nls.rom_rhs(A, basis, rom_qs),
        nls.rom_rhs(A[0], basis, rom_qs),
    ]


def test_rewrapped_quantities_leave_outputs_bitwise_unchanged(rng):
    swe_cfg = swe.SweConfig()
    grid = fv.build_grid(10.0, 64)
    U = np.stack([swe.random_oscillatory_ic(s, grid, swe_cfg) for s in range(3)])
    U[:, 1] = 0.3 * np.roll(U[:, 0], 5, axis=-1)
    snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
    basis = nls.compute_pod(snaps, 4, 16.0 * np.pi)
    A = 0.4 * rng.standard_normal((3, 8))

    untraced = _outputs(U, A, basis)
    tracer = Tracer()
    with tracer.installed(layers.patches(tracer)):
        traced = _outputs(U, A, basis)
    names = {span[0] for span in tracer.spans}
    assert {"swe.grad", "nls.rom.grad", "core.apply_invariant_correction"} <= names
    for before, after in zip(untraced, traced):
        assert np.array_equal(before, after)
