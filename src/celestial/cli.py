"""Command line entry point.

Subcommands:

    verify            run the full verification suite (exit 0 iff all pass)
    classify-lattice  print the classified lattice types
    invariant-forms   invariant quadratic forms of a symmetry algebra
    family            classify one member of the hyperquadric family
    sample            export a floating-point point cloud of a surface

Every verification path is exact; floating point is confined to `sample`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import Matrix, gauss
from .segre import FormSpan, QuadraticForm, i2_segre, mu_transform
from . import forms, geometry, lattice, liealg, sampling, verify


def _form_to_json(q: QuadraticForm) -> list[list[str]]:
    return [
        [str(a.re), str(a.im)]
        for row in q.matrix.entries()
        for a in row
    ]


def _span_to_json(frame: str, span: FormSpan) -> dict:
    return {
        "frame": frame,
        "coords": list(span.coords),
        "basis": [_form_to_json(q) for q in span.basis],
    }


def form_to_text(q: QuadraticForm, var: str) -> str:
    labels = []
    n = q.dim
    for i in range(n):
        for j in range(i, n):
            c = q.matrix[i, j] if i == j else q.matrix[i, j] * 2
            if not c:
                continue
            mono = f"{var}{i}^2" if i == j else f"{var}{i}*{var}{j}"
            labels.append(f"({c})*{mono}")
    return " + ".join(labels) if labels else "0"


def _cmd_verify(args) -> int:
    results = verify.run_checks(only=args.only, seed=args.seed)
    if args.json:
        entries = [
            {"check_id": r.check_id, "ref": r.ref, "status": r.status, "detail": r.detail}
            for r in results
        ]
        if args.timings:
            for entry, r in zip(entries, results):
                entry["elapsed_s"] = round(r.elapsed_s, 4)
        payload = {
            "entries": entries,
            "summary": {
                "pass": sum(r.ok for r in results),
                "fail": sum(not r.ok for r in results),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            elapsed = f"{r.elapsed_s:7.3f}s  " if args.timings else ""
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.check_id:<24} {elapsed}{r.detail}")
        npass = sum(r.ok for r in results)
        print(f"{npass}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


def _cmd_classify_lattice(args) -> int:
    rows, unmatched = verify.match_lattice_rows(lattice.classify_grid())
    for lt in unmatched:
        print(f"error: {verify.unmatched_orbit(lt)}", file=sys.stderr)
    payload = []
    for row in rows:
        if row.merges_with and not args.raw:
            continue
        lt = row.lattice_type
        payload.append(
            {
                "table_ref": row.ref,
                "name": row.name,
                "polygon_vertices": [list(v) for v in lt.polygon.vertices],
                "involution_matrix": [list(r) for r in lt.involution.m],
                "directions": sorted(list(d) for d in lt.directions),
                "counts": dict(zip("ibd", row.computed_counts())),
                "merges_with": row.merges_with,
            }
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for item in payload:
            dirs = " ".join(
                lattice.ARROWS.get(tuple(d), str(tuple(d))) for d in item["directions"]
            )
            merge = f"  (same surface as {item['merges_with']})" if item["merges_with"] else ""
            counts = item["counts"]
            print(
                f"{item['table_ref']:<4} {item['name']:<18} "
                f"i={counts['i']} b={counts['b']} d={counts['d']}  "
                f"circles: {dirs}{merge}"
            )
    return 1 if unmatched else 0


def _named_algebras(ambient: str) -> dict:
    if ambient == "segre":
        return liealg.NAMED_ALGEBRAS
    return {"so3": geometry.so3_basis(), "sl3": tuple(geometry.SL3_BASIS.values())}


def _parse_algebra(name_or_path: str, ambient: str):
    named = _named_algebras(ambient)
    if name_or_path in named:
        return list(named[name_or_path])
    if name_or_path in _named_algebras("veronese" if ambient == "segre" else "segre"):
        raise ValueError(
            f"algebra {name_or_path!r} does not act on the {ambient} ambient, which "
            f"accepts {', '.join(named)} or a JSON file"
        )
    return _algebra_from_file(name_or_path, size=2 if ambient == "segre" else 3)


def _algebra_from_file(path: str, size: int = 2):
    """Algebra elements from a JSON file {"elements": [...]}.

    An sl2+sl2 element (size 2) is a [left, right] pair of 2x2 matrices, a
    Veronese element (size 3) one 3x3 matrix; entries are integers or Q(i)
    strings such as "1/2-i".  Every error names the file.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
        raise ValueError(f"{path}: expected a JSON object with an \"elements\" list")
    try:
        if size == 2:
            pairs = (_json_element(e, (2, 2, 2), "[left, right] pair of 2x2 matrices")
                     for e in data["elements"])
            return [liealg.LieElement(Matrix(left), Matrix(right)) for left, right in pairs]
        return [Matrix(_json_element(e, (3, 3), "3x3 matrix")) for e in data["elements"]]
    except ValueError as exc:  # a bad shape or entry, or a half with a trace
        raise ValueError(f"{path}: {exc}") from None


def _json_element(element, shape, what: str):
    """Nested JSON lists of the given shape, with the leaves coerced into Q(i)."""

    def build(value, dims):
        if dims:
            if not isinstance(value, list) or len(value) != dims[0]:
                raise ValueError(f"algebra element {element!r} is not a {what}")
            return [build(v, dims[1:]) for v in value]
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"algebra entry {value!r} is neither an integer nor a Q(i) string")
        try:
            return gauss(value)
        except ZeroDivisionError:
            raise ValueError(f"algebra entry {value!r} divides by zero") from None

    return build(element, shape)


def _cmd_invariant_forms(args) -> int:
    if args.ambient == "segre":
        algebra = _parse_algebra(args.algebra, "segre")
        span = liealg.invariant_forms(algebra, i2_segre())
        spans = {"y": span}
        if args.sigma is not None:
            fixed = liealg.real_basis(span, args.sigma)
            x_span = FormSpan(tuple(mu_transform(args.sigma, q) for q in fixed.basis))
            spans["x"] = x_span
            if not all(q.is_real for q in x_span.basis):
                print("warning: complex residue in the x frame; "
                      "the algebra is not compatible with this real structure",
                      file=sys.stderr)
    else:
        if args.sigma not in (None, 0):
            raise ValueError("the Veronese ambient only carries the plain real structure (sigma 0)")
        algebra = _parse_algebra(args.algebra, "veronese")
        spans = {"y": geometry.veronese_invariant_forms(algebra)}

    if args.json:
        print(json.dumps({k: _span_to_json(k, s) for k, s in spans.items()},
                         indent=2, sort_keys=True))
    else:
        for frame, span in spans.items():
            print(f"frame {frame}: {len(span)} generator(s)")
            for q in span.basis:
                print(f"  {form_to_text(q, frame)}")
    return 0


def _cmd_family(args) -> int:
    tokens = args.coeffs.split(",")
    try:
        if len(tokens) != 4:
            raise ValueError(f"expected four coefficients c1,c3,c5,c7, got {len(tokens)}")
        coeffs = forms.FamilyCoeffs(*(Fraction(tok) for tok in tokens))
    except ZeroDivisionError:
        raise ValueError(f"bad coefficient vector {args.coeffs!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad coefficient vector {args.coeffs!r}: {exc}") from None
    record = forms.classify_family(coeffs)
    if args.json:
        print(json.dumps(record.to_json(), indent=2, sort_keys=True))
    else:
        data = record.to_json()
        lam, d, n = data["type"]
        print(f"{data['name']}: type ({lam},{d},{n})")
        print(f"  singular locus : {data['singular'] or 'smooth'}")
        print(f"  symmetry group : {data['group']}")
        print(f"  moduli dim     : {data['moduli_dim']}")
        print(f"  group is full  : {data['moebius_equals_aut']}")
    return 0


def _cmd_sample(args) -> int:
    projection = sampling.load_projection(args.proj) if args.proj else None
    try:
        count, skipped, worst = sampling.export(
            args.surface, args.resolution, projection, args.out, args.format
        )
    except sampling.ResidualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {count} points to {args.out} "
        f"({skipped} degenerate samples skipped, "
        f"max quadric residual {worst:.3e})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celestial",
        description="exact classification toolkit for surfaces in the Moebius quadric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="run a single check by id")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true", help="report the wall time of each check")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify-lattice", help="list the classified lattice types")
    p.add_argument("--json", action="store_true")
    p.add_argument("--raw", action="store_true", help="keep the merged involution variants")
    p.set_defaults(fn=_cmd_classify_lattice)

    p = sub.add_parser("invariant-forms", help="invariant quadratic forms of an algebra")
    p.add_argument("--algebra", required=True,
                   help="named algebra (so2xso2, so2xsx1, so2xse1, sl2xsl2, so3, sl3) or a JSON file")
    p.add_argument("--ambient", choices=("segre", "veronese"), default="segre")
    p.add_argument("--sigma", type=int, choices=(0, 1, 2, 3))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invariant_forms)

    p = sub.add_parser("family", help="classify a member of the hyperquadric family")
    p.add_argument("--coeffs", required=True, help="c1,c3,c5,c7 as rationals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("sample", help="export a point cloud of a surface")
    p.add_argument("--surface", required=True, choices=sampling.SURFACES)
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--proj", help="file with a 3-row projection matrix")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "ply"), default="csv")
    p.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input values, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
