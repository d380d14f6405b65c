"""Write perfbench/exhaustive7_pins.json: the sha256 and counts of every
exhaustive7 slice report, checked against the full campaign.

Runs run_verification(exhaustive_population(7), all checks) once and every
slice once (about a minute and a half on one core), and refuses to write the
pins unless the slices add up to the full report: the same graph, member,
pair and lemma2 counts, omega histogram, property tallies and violations.

    python3 perfbench/pin_exhaustive7.py           # write the pins
    python3 perfbench/pin_exhaustive7.py --check   # compare with the file
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chibound import corpus  # noqa: E402

import workloads as w  # noqa: E402


def tallies(report) -> Counter:
    """Every additive count in a report, keyed by its place in the report."""
    c = Counter(w.slice_counts(report))
    c["disconnected"] = report.disconnected_members
    c["oracle_checked"] = report.oracle["checked"]
    for omega, h in report.omega_histogram.items():
        c[f"omega{omega}.count"] += h["count"]
        c[f"omega{omega}.violations"] += h["violations"]
    for name, statuses in report.lemma1["properties"].items():
        for status, k in statuses.items():
            c[f"{name}.{status}"] += k
    return c


def main(argv=None) -> int:
    check_only = "--check" in (argv if argv is not None else sys.argv[1:])
    full = corpus.run_verification(corpus.exhaustive_population(7), w.EXHAUSTIVE_CHECKS)
    full_counts = w.slice_counts(full)
    if full_counts != w.EXHAUSTIVE7_TOTALS:
        print(f"full campaign counts {full_counts} != {w.EXHAUSTIVE7_TOTALS}")
        return 1
    slices, summed, max_chi = [], Counter(), {}
    for k in range(w.SLICES):
        report = corpus.run_verification(w.SlicePopulation(k), w.EXHAUSTIVE_CHECKS)
        slices.append({"sha256": w.report_digest(report), **w.slice_counts(report)})
        summed += tallies(report)
        for omega, h in report.omega_histogram.items():
            max_chi[omega] = max(max_chi.get(omega, 0), h["max_chi"])
    if summed != tallies(full) or max_chi != {
            o: h["max_chi"] for o, h in full.omega_histogram.items()}:
        print("slices do not add up to the full campaign")
        return 1
    pins = {"full_sha256": w.report_digest(full), "totals": full_counts,
            "slices": slices}
    text = json.dumps(pins, indent=1) + "\n"
    if check_only:
        same = w.PINS_PATH.read_text() == text
        print("pins match" if same else "pins differ")
        return 0 if same else 1
    w.PINS_PATH.write_text(text)
    print(f"wrote {w.PINS_PATH.name}: {len(slices)} slices, "
          f"members per slice {min(s['members'] for s in slices)}.."
          f"{max(s['members'] for s in slices)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
