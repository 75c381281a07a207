"""Check that two barrier studies of one case agree.

    python tests/compare_barrier_summaries.py REFERENCE.csv OTHER.csv

Reads the `barrier_summary.csv` of each study.  Both must list the same
schemes, every scheme of both must have converged and balance fluid
content to 1e-8, and each scheme's final compartment averages in OTHER
must lie within 2e-5 of REFERENCE's, relative to REFERENCE's.  Prints
each figure it checks and exits 1 naming every failure.
"""

import csv
import sys

MAX_GAP = 2e-5  # twice the elastic rtol 1e-5
MAX_DEFECT = 1e-8


def by_scheme(path):
    with open(path) as handle:
        return {row["scheme"]: row for row in csv.DictReader(handle)}


def main(reference_path, other_path):
    reference, other = by_scheme(reference_path), by_scheme(other_path)
    bad = []
    if reference.keys() != other.keys():
        bad.append(f"schemes {sorted(reference)} against {sorted(other)}")
    for path, rows in ((reference_path, reference), (other_path, other)):
        for scheme, row in rows.items():
            defect = float(row["mass_defect"])
            print(f"{path} {scheme}: converged {row['converged']}, mass defect {defect:.3e}")
            if row["converged"] != "1":
                bad.append(f"{scheme} unconverged in {path}")
            if not defect <= MAX_DEFECT:
                bad.append(f"{scheme} mass defect {defect:.3e} in {path}")
    for scheme in [s for s in reference if s in other]:
        for key in ("final_avg_dp_omega1", "final_avg_dp_omega2"):
            want, got = float(reference[scheme][key]), float(other[scheme][key])
            gap = abs(got - want) / abs(want)
            print(f"{scheme} {key}: {want!r} against {got!r}, relative gap {gap:.2e}")
            if not gap <= MAX_GAP:
                bad.append(f"{scheme} {key} ({gap:.2e})")
    if bad:
        sys.exit(f"barrier studies disagree: {', '.join(bad)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
