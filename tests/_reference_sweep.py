"""Reference composition and Picard sweep: Horner evaluation, node by node.

``compose`` here is the direct form of ``torusflow.fourier.compose`` on
single maps: it evaluates u and g with ``FourierMap.eval`` at the points of
the oversampled real grid, not by the FFT synthesis of the kernel, and fits
the values with the shared fitter.  ``reference_sweep`` is the slow form of
one application of the integral-equation map: one such ``compose`` per
collocation node, with its own reach check (inner strip eps, outer strip
2 eps), reality check and truncation budget.  Both are differential oracles
for the package's one composition kernel.
"""

import numpy as np

from torusflow.errors import DomainEscape, RealityDefect
from torusflow.fourier import (OVERSAMPLE, TOL_TRUNC, FourierMap, _grid_axes,
                               fit_grid, imag_reach)
from torusflow.timepaths import FIT_NODES, _FIT_VANDER_INV

from _reference_loops import _poly_antiderivative, _poly_eval


def compose(g, perturb, *, order=None, oversample=OVERSAMPLE,
            tol_trunc=TOL_TRUNC, outer_scale=None, inner_scale=None):
    """Truncated expansion of x -> g(x + perturb(x)) for FourierMaps."""
    if perturb.ncomp != g.m or perturb.m != g.m:
        raise ValueError("perturbation must be a self-map displacement")
    if outer_scale is not None:
        eps_in = inner_scale if inner_scale is not None else outer_scale / 2.0
        reach = imag_reach(perturb, eps_in)
        if reach > outer_scale * (1 + 1e-12):
            raise DomainEscape(
                f"imaginary reach {reach:.6g} exceeds outer strip {outer_scale:.6g}")
    n_out = g.order if order is None else order
    M = oversample * (2 * n_out + 1)
    pts = _grid_axes(M, g.m).reshape(g.m, -1).T
    u = perturb.with_order(min(perturb.order, n_out))
    u_vals = u.eval(pts)
    if u.imag_bound() > 1e-9 * max(1.0, float(np.abs(u_vals).max())):
        raise RealityDefect("perturbation is not real on the real grid")
    vals = g.eval(pts + u_vals)
    shape = vals.shape[:-2] + (M,) * g.m + (g.ncomp,)
    return fit_grid(vals.reshape(shape), n_out, g.m, tol_trunc, context="compose")


def reference_sweep(gam, path, eps, tol_trunc):
    """(snapshots, pieces) of one sweep of ``path`` under the field ``gam``.

    ``gam`` must already live on ``path.grid`` (``field.on_grid(path.grid)``).
    """
    ts = path.grid.floats
    new_pieces = []
    zero = FourierMap.zero(gam.order, gam.m, gam.ncomp)
    snaps = [zero]
    acc = zero
    for j in range(len(path.grid) - 1):
        h = ts[j + 1] - ts[j]
        samples = []
        for tau in FIT_NODES:
            g_s = FourierMap(_poly_eval(gam.pieces[j], tau), check=False)
            u_s = FourierMap(_poly_eval(path.pieces[j], tau), check=False)
            comp = compose(g_s, u_s, order=gam.order, tol_trunc=tol_trunc,
                           outer_scale=2 * eps, inner_scale=eps)
            samples.append(comp.coeffs)
        flat = np.stack(samples).reshape(4, -1)
        poly = (_FIT_VANDER_INV @ flat).reshape((4,) + samples[0].shape)
        anti = _poly_antiderivative(poly, h)
        piece = anti.copy()
        piece[0] += acc.coeffs
        new_pieces.append(piece)
        acc = acc + FourierMap(_poly_eval(anti, 1.0), check=False)
        snaps.append(acc)
    return snaps, new_pieces
