#!/usr/bin/env python3
"""Export point clouds for all sample surfaces into a directory.

Writes one PLY file per surface, plus a CSV of the degree-six surface at a
higher resolution for plotting; prints the residual summary.
"""

import argparse
import pathlib

from celestial import sampling


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="clouds")
    parser.add_argument("--resolution", type=int, default=80)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for surface in sampling.SURFACES:
        path = out / f"{surface}.ply"
        count, _, worst = sampling.export(surface, args.resolution, None, str(path), "ply")
        print(f"{surface:<9} {count:>6} points  max residual {worst:.2e}  -> {path}")
    count, _, _ = sampling.export("dp6", 2 * args.resolution, None, str(out / "dp6_dense.csv"), "csv")
    print(f"dp6 dense {count:>6} points  -> {out / 'dp6_dense.csv'}")


if __name__ == "__main__":
    main()
