"""The float quadrics and point samples of the export surfaces."""

import pytest

from celestial import sampling
from celestial.segre import mu_transform, toric_projection


def test_surface_quadrics_keep_both_parts_of_complex_forms():
    counts = {s: len(sampling.surface_quadrics(s)) for s in sampling.SURFACES}
    # six of the nine dp6 quadrics are not real in the x frame of sigma_2
    assert counts == {"dp6": 15, "ring": 2, "spindle": 2, "horn": 2, "veronese": 6}
    _, span = toric_projection({5, 6})
    q = next(q for q in span.basis if not mu_transform(2, q, span.coords).is_real)
    x = mu_transform(2, q, span.coords)
    im = [[float(a.im) for a in row] for row in x.matrix.entries()]
    assert im in sampling.surface_quadrics("dp6")


def test_unknown_surface_is_rejected():
    with pytest.raises(ValueError, match="unknown surface"):
        sampling.surface_quadrics("klein-bottle")
