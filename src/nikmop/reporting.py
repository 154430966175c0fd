"""Deterministic serialization of experiment results: convergence
records, JSON with stable key order, RFC-4180 CSV tables, and
gnuplot-ready data blocks.  Nothing here may depend on wall-clock time;
timestamps belong to the run metadata written by the CLI."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

from mpmath import mp


def format_value(x, digits: int = 20) -> str:
    """Stable decimal rendering for floats, mpf, and complex values."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        return mp.nstr(x, digits)
    if isinstance(x, complex):
        return mp.nstr(mp.mpc(x), digits)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def config_hash(obj) -> str:
    """SHA-256 of the canonical JSON encoding, for run provenance."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ConvergenceRecord:
    """Raw measurements of one limit along one index ray.

    ``values[i][s]`` is the measured quantity at test point i and ray
    sample s; ``targets[i]`` the limit predicted for that point (None
    when only stabilization is claimed); ``errors[i][s]`` the absolute
    deviations, recorded verbatim.  Trend assertions live with the
    caller, not here.
    """

    label: str
    points: tuple
    sample_sizes: tuple
    values: tuple
    targets: tuple = None
    errors: tuple = None

    def trend_ok(self) -> bool:
        """True when every point's error shrinks from the first ray
        sample to the last."""
        if self.errors is None:
            raise ValueError(f"record {self.label!r} carries no errors")
        return all(row[-1] < row[0] for row in self.errors)

    def stabilization(self) -> tuple:
        """Sup-over-points metric of successive-sample movement: entry s
        is max_i |values[i][s+1] - values[i][s]|."""
        out = []
        for s in range(len(self.sample_sizes) - 1):
            out.append(
                max(abs(row[s + 1] - row[s]) for row in self.values)
            )
        return tuple(out)

    def to_rows(self) -> list:
        """Flat rows (point, sample_size, value, target, error) for CSV."""
        rows = []
        for i, pt in enumerate(self.points):
            for s, size in enumerate(self.sample_sizes):
                rows.append(
                    (
                        format_value(pt),
                        size,
                        format_value(self.values[i][s]),
                        format_value(self.targets[i])
                        if self.targets is not None
                        else "",
                        format_value(self.errors[i][s])
                        if self.errors is not None
                        else "",
                    )
                )
        return rows


CSV_HEADER = ("point", "sample_size", "value", "target", "abs_error")


def write_csv(path, rows, header=CSV_HEADER) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload: dict) -> None:
    """JSON with sorted keys, two-space indent and a trailing newline;
    re-running the same experiment must reproduce the file byte for
    byte."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_gnuplot_dat(path, columns: dict, comment: str = "") -> None:
    """Whitespace-separated data block: one column per dict entry, keys
    in the header comment line."""
    names = list(columns)
    length = len(columns[names[0]])
    for name in names:
        if len(columns[name]) != length:
            raise ValueError(f"column {name!r} has mismatched length")
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("# " + " ".join(names) + "\n")
        for r in range(length):
            fh.write(
                " ".join(format_value(columns[name][r]) for name in names)
                + "\n"
            )
