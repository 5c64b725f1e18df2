#!/usr/bin/env python3
"""Print canonical heights and the Gram matrix for a record's points.

The Gram determinant of the height pairing certifies independence when it
clears the accumulated error bound; the determinant itself estimates the
regulator of the span.
"""

import argparse

from diocurves import dataset_record
from diocurves.heights import gram_certificate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("record", nargs="?", default="s5-rank4")
    parser.add_argument("--eps", type=float, default=1e-3)
    args = parser.parse_args()

    try:
        rec = dataset_record(args.record)
    except KeyError:
        raise SystemExit(f"unknown record {args.record!r}")
    if rec.curve is None:
        raise SystemExit(f"{args.record} stores no curve")
    E, points = rec.curve, rec.points

    # the heights are the diagonal of the certificate's own pairing matrix
    cert = gram_certificate(E, points, eps=args.eps)
    print(f"{rec.record_id}: {len(points)} stored points\n")
    for i, P in enumerate(points):
        print(f"  P{i + 1}  height {cert.matrix[i][i]:.6f}  x = {P.x}")

    print("\npairing matrix:")
    for row in cert.matrix:
        print("  " + "  ".join(f"{v:9.4f}" for v in row))

    print(f"\ndet = {cert.determinant:.4f}  error bound "
          f"{cert.error_bound:.4f}  independent: {cert.independent}")


if __name__ == "__main__":
    main()
