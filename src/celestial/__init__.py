"""Exact classification of surfaces in the Moebius quadric that carry at
least two circles through a general point and a symmetry group of dimension
two or more.

The subpackages split along the objects involved:

    exact     rational and Gaussian-rational arithmetic, exact linear algebra
    lattice   lattice polygons, involutions, and the grid classification
    segre     the double Segre surface, its quadrics and real structures
    liealg    sl2+sl2, its real structures, and the invariant-form solver
    forms     the hyperquadric family and the record of each member
    geometry  blowup combinatorics, cyclide models, the Veronese track
    sampling  floating-point point-cloud export
    verify    the end-to-end verification suite and the one copy of the
              paper's tables: lattice rows and the eight celestial records

Reference implementations that only the tests compare against live in
``tests/oracles.py``, not in the package.  The version lives in
``pyproject.toml`` alone.
"""
