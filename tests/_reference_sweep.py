"""Reference Picard sweep: one ``compose`` per collocation node.

This is the slow, direct form of one application of the integral-equation
map, kept as the differential oracle for the batched sweep in
``torusflow.flow``.  Each node runs ``compose`` with its own reach check
(inner strip eps, outer strip 2 eps), reality check and truncation budget.
"""

import numpy as np

from torusflow.fourier import FourierMap, compose
from torusflow.timepaths import (FIT_NODES, _FIT_VANDER_INV,
                                 _poly_antiderivative, _poly_eval)


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
