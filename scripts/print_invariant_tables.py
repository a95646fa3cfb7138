#!/usr/bin/env python3
"""Print the classification tables this package recomputes.

Three tables: the lattice types with their circle directions, the
invariant quadratic form bases of the named symmetry algebras in both
frames, and the eight classification records.
"""

from celestial import forms, lattice, liealg, verify
from celestial.cli import form_to_text
from celestial.segre import FormSpan, i2_segre, mu_transform


def main() -> None:
    print("== lattice types ==")
    rows, unmatched = verify.match_lattice_rows(lattice.classify_grid())
    for row in rows:
        dirs = " ".join(
            lattice.ARROWS.get(d, str(d)) for d in sorted(row.lattice_type.directions)
        )
        merge = f" (same surface as {row.merges_with})" if row.merges_with else ""
        i, b, d = row.computed_counts()
        print(f"  {row.ref:<4} {row.name:<18} i={i} b={b} d={d}  {dirs}{merge}")
    for lt in unmatched:
        print(f"  {verify.unmatched_orbit(lt)}")

    print("\n== invariant quadratic forms ==")
    ambient = i2_segre()
    for name, sigma in (("so2xso2", 2), ("so2xsx1", 1), ("so2xse1", 1), ("sl2xsl2", 0)):
        span = liealg.invariant_forms(liealg.NAMED_ALGEBRAS[name], ambient)
        fixed = liealg.real_basis(span, sigma)
        x_span = FormSpan(tuple(mu_transform(sigma, q) for q in fixed.basis))
        print(f"  {name} (real frame of sigma_{sigma}):")
        for q in x_span.basis:
            print(f"    {form_to_text(q, 'x')}")

    print("\n== classification records ==")
    seen = set()
    for coeffs in ((1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (0, 1, 0, 1)):
        rec = forms.classify_family(forms.FamilyCoeffs(*coeffs))
        if rec.name not in seen:
            seen.add(rec.name)
            print(f"  {rec.to_json()}")
    for rec in verify.fixed_records():
        print(f"  {rec.to_json()}")


if __name__ == "__main__":
    main()
