"""Envelope DNS and a snapshot-based reduced basis.

Integrates the nonlinear Schrodinger envelope pseudo-spectrally from a
random-phase initial condition, checks that the discrete mass and energy
barely move, then extracts an orthonormal basis from the snapshots and looks
at how much snapshot energy a handful of modes capture.

The saved basis file is what the reduced-model demo (06) and the ``rons pod``
command produce; reduced experiments reload it instead of recomputing DNS.
"""

from pathlib import Path

import numpy as np

from rons import io, nls

OUT = Path(__file__).parent / "output" / "nls_pod"
LENGTH = nls.DEFAULT_LENGTH          # 32 pi, a 16-wavelength periodic box
N_GRID = nls.DEFAULT_MODES           # 2^8 collocation points
HORIZON = 100.0

print(f"DNS on [0, {LENGTH:.1f}] with {N_GRID} modes to t = {HORIZON} ...")
ic = nls.nls_random_ic(100, LENGTH, N_GRID)
series, diag = nls.dns_run(ic, HORIZON, snapshot_cadence=0.5)
print(f"  {diag['n_steps']} RK4 steps at dt = {diag['dt']:.5f}")
print(f"  mass drift   {diag['mass_drift']:.2e}")
print(f"  energy drift {diag['energy_drift']:.2e}")

second, _ = nls.dns_run(nls.nls_random_ic(101, LENGTH, N_GRID), HORIZON, 0.5)
snapshots = np.vstack([series.snapshots, second.snapshots])
print(f"\nsnapshot matrix: {snapshots.shape[0]} fields x {snapshots.shape[1]} points")

basis = nls.compute_pod(snapshots, 9, LENGTH)
energies = basis.singular_values**2
cumulative = np.cumsum(energies) / np.sum(energies)
print("\nmode  sigma       cumulative snapshot energy")
for i in range(9):
    print(f"{i + 1:4d}  {basis.singular_values[i]:9.4f}  {cumulative[i] * 100:6.2f}%")

OUT.mkdir(parents=True, exist_ok=True)
io.save_snapshots(OUT / "training_snapshots.npz", series)
io.save_pod_basis(OUT / "basis.npz", basis)
print(f"\nsnapshots and basis written under {OUT}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 6))
    axes[0].semilogy(np.arange(1, len(basis.singular_values) + 1),
                     basis.singular_values, "o-")
    axes[0].set_xlim(0, 30)
    axes[0].set_xlabel("mode")
    axes[0].set_ylabel("singular value")
    x = np.arange(N_GRID) * (LENGTH / N_GRID)
    for i in range(3):
        axes[1].plot(x, basis.modes[i].real, label=f"mode {i + 1}")
    axes[1].set_xlabel("x")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig(OUT / "pod_summary.png", dpi=150)
    print(f"plot written to {OUT / 'pod_summary.png'}")
except ImportError:
    print("matplotlib not installed; skipping the plot")
