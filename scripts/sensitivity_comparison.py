#!/usr/bin/env python3
"""Compare the maximum ODMR slope of the pure-14N and pure-15N compositions
on equal footing (shared linewidth, slope normalized by contrast) and report
the sensitivity gain. Optionally writes both slope curves as CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from vbodmr.analysis import relative_sensitivity, spectral_slope
from vbodmr.spectrum import SpectrumModel


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--linewidth", type=float, default=50.0, help="shared FWHM, MHz")
    parser.add_argument("--a14", type=float, default=43.0)
    parser.add_argument("--a15", type=float, default=64.0)
    parser.add_argument("--out", default=None, help="optional directory for slope CSVs")
    args = parser.parse_args()

    f_center = 2308.0
    grid = np.linspace(f_center - 300.0, f_center + 300.0, 12001)
    common = dict(f_center=f_center, contrast=0.1, linewidth=args.linewidth)
    report15 = spectral_slope(
        SpectrumModel(a14=args.a14, a15=args.a15, p15=1.0, **common), grid, "per_contrast"
    )
    report14 = spectral_slope(
        SpectrumModel(a14=args.a14, a15=args.a15, p15=0.0, **common), grid, "per_contrast"
    )
    gain = 1.0 / relative_sensitivity(report15, report14)
    print(f"max slope per contrast, 15N: {report15.max_slope:.4e} /MHz")
    print(f"max slope per contrast, 14N: {report14.max_slope:.4e} /MHz")
    print(f"sensitivity gain 15N over 14N: {gain:.3f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report15.slope_curve.to_csv(out / "slope_15n.csv", value_name="slope_per_mhz")
        report14.slope_curve.to_csv(out / "slope_14n.csv", value_name="slope_per_mhz")
        print(f"slope curves written to {out}/")


if __name__ == "__main__":
    main()
