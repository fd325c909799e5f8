"""Deterministic report serialization.

Two formats: CSV with a pinned column order for table consumers, and a
structured-text format that additionally carries the sparse families
themselves (escape intervals as z/y/k/sign records, slab masks as
run-length-encoded boolean grids).  All floats are written with repr,
the shortest round-trip form, so identical runs serialize to identical
bytes.
"""

from __future__ import annotations

import csv
import io
import os

import numpy as np

from .gn import POINTWISE_CONSTANT, STABILITY_TOL
from .operator import MODULAR_SLACK
from .sparse1d import OVERLAP_LIMIT_1D, POINTWISE_SLACK
from .sparse2d import OVERLAP_LIMIT_2D

CSV_COLUMNS = (
    "case-id",
    "mode",
    "j",
    "k",
    "X",
    "Y",
    "Z",
    "lhs",
    "rhs-x",
    "rhs-y",
    "ratio",
    "overlap-max",
    "pointwise-max",
    "verdicts",
    "n",
    "tolerances",
)


def format_float(value) -> str:
    return repr(float(value))


def tolerance_note() -> str:
    """One provenance string describing every threshold the verdicts use."""
    return (
        f"overlap<={OVERLAP_LIMIT_1D}|{OVERLAP_LIMIT_2D}"
        f" pointwise<={POINTWISE_CONSTANT:g}*(1+{POINTWISE_SLACK!r})"
        f" modular<=1+{MODULAR_SLACK!r} gn-drift<={STABILITY_TOL!r}"
    )


def rle_encode(mask) -> str:
    """Row-major run lengths, 'RxC:a,b,c,...', first run counting False cells."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    flat = mask.ravel()
    if flat.size == 0:
        return f"{rows}x{cols}:"
    breaks = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [flat.size]))
    runs = (ends - starts).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return f"{rows}x{cols}:" + ",".join(str(r) for r in runs)


def _verdict_text(result) -> str:
    return ";".join(f"{name}={verdict}" for name, verdict in result.verdicts)


def _csv_row(result, note: str):
    case = result.case
    rep = result.report
    return [
        case.case_id(),
        case.mode,
        str(case.j),
        str(case.k),
        case.x_space.format(),
        case.y_space.format(),
        result.z_text,
        format_float(rep.lhs) if rep else "",
        format_float(rep.rhs_x) if rep else "",
        format_float(rep.rhs_y) if rep else "",
        format_float(rep.ratio) if rep else "",
        "" if result.overlap_max is None else str(result.overlap_max),
        "" if result.pointwise_max is None else format_float(result.pointwise_max),
        _verdict_text(result),
        str(case.n),
        note,
    ]


def csv_report(results) -> str:
    note = tolerance_note()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for result in results:
        writer.writerow(_csv_row(result, note))
    return buffer.getvalue()


def text_report(results) -> str:
    lines = ["gnsparse-report 1", f"tolerances {tolerance_note()}", f"cases {len(results)}"]
    for result in results:
        case = result.case
        lines.append(f"case {case.case_id()}")
        lines.append(f"  mode {case.mode} j {case.j} k {case.k} axis {case.axis} n {case.n}")
        lines.append(
            f"  spaces X {case.x_space.format()} Y {case.y_space.format()} Z {result.z_text}"
        )
        rep = result.report
        if rep is not None:
            lines.append(
                "  norms lhs {} rhs-x {} rhs-y {} ratio {} refined {} drift {}".format(
                    format_float(rep.lhs),
                    format_float(rep.rhs_x),
                    format_float(rep.rhs_y),
                    format_float(rep.ratio),
                    format_float(rep.refined_ratio),
                    format_float(rep.drift),
                )
            )
        if result.overlap_max is not None or result.pointwise_max is not None:
            overlap = "-" if result.overlap_max is None else str(result.overlap_max)
            pointwise = (
                "-" if result.pointwise_max is None else format_float(result.pointwise_max)
            )
            lines.append(f"  family overlap-max {overlap} pointwise-max {pointwise}")
        for name, verdict in result.verdicts:
            lines.append(f"  verdict {name} {verdict}")
        table = result.intervals
        if len(table):
            lines.append(f"  intervals {len(table)}")
            for z, y, k, sign in zip(table.z.tolist(), table.y.tolist(), table.k.tolist(), table.sign.tolist()):
                lines.append(f"  interval z {format_float(z)} y {format_float(y)} k {k} sign {sign}")
        if result.slabs:
            lines.append(f"  slabs {len(result.slabs)}")
            for slab in result.slabs:
                lines.append(
                    f"  slab k {slab.k} sign {slab.sign} delta {format_float(slab.delta)}"
                    f" steps {slab.delta_steps} rle {rle_encode(slab.mask)}"
                )
        if result.error:
            lines.append(f"  error {result.error}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)
