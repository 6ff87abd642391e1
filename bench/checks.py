"""Output checks for the three workloads.

Each check takes plain data parsed from the program's outputs (cycle JSON
artifacts, `hhc floquet` report lines, the diagram's CSV and JSON files, or
branch points converted to the same record shape) and returns a list of
failure messages; an empty list means the outputs passed.  The expected
values come from reference.py, from fixed published values, or from
properties the method must have; none is copied from an earlier run.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

import reference

# tolerances
PERIOD_RTOL = 1e-5          # solvers agree on the period of one cycle
RETURN_TOL = 1e-2           # |x(T) - x(0)|, mV (gates x100), reference DOP853
TRIVIAL_TOL = 1e-2          # |mu_trivial - 1|
LEADING_TOL = 1e-3          # leading multiplier, shooting vs HB report
FOLD_TOL = 1e-3             # knee folds against the published currents
FOLD_MU_TOL = 0.05          # fold certificate multiplier against +1
PD_TOL = 1e-5               # period-doubling current against the reference
PD_MU_TOL = 0.02            # period-doubling multiplier against -1
LOW_HOPF_TOL = 1e-4         # low Hopf event against reference eigenvalues
HIGH_HOPF_TOL = 0.02        # branch-end Hopf event (amplitude extrapolation)

KNEE_FOLDS = (7.84655, 7.92199)
PERIOD_DOUBLING = 7.921978


@dataclass
class CycleRecord:
    """One computed cycle with its Floquet spectrum, solver-neutral."""

    source: str
    current: float
    period: float
    x0: np.ndarray              # state at t = 0 of the stored representation
    trivial: complex
    multipliers: List[complex]  # nontrivial, |.| descending
    stability: str


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def fourier_state_at_zero(coeffs) -> np.ndarray:
    """x(0) of a series stored as rows (A0, A1, B1, ..., AK, BK)."""
    c = np.asarray(coeffs, dtype=float)
    return c[:, 0] + c[:, 1::2].sum(axis=1)


def record_from_artifact(doc: dict, source: str) -> CycleRecord:
    """Cycle record from a parsed `hhc cycle` JSON artifact."""
    if "coefficients" in doc:
        x0 = fourier_state_at_zero(doc["coefficients"])
    elif "samples" in doc:
        x0 = np.asarray(doc["samples"][0], dtype=float)
    elif "mesh_states" in doc:
        x0 = np.asarray(doc["mesh_states"][0], dtype=float)
    else:
        raise ValueError(f"{source}: artifact holds no cycle state")
    spec = doc["spectrum"]
    return CycleRecord(source=source, current=float(doc["current"]),
                       period=float(doc["period"]), x0=x0,
                       trivial=_complex(spec["trivial"]),
                       multipliers=[_complex(m) for m in spec["multipliers"]],
                       stability=spec["stability"])


_FLOAT = r"[+-](?:inf|nan|\d+(?:\.\d*)?(?:e[+-]\d+)?)"
_MU = re.compile(rf"mu(\d+)=({_FLOAT})({_FLOAT})j")


def parse_floquet_report(line: str) -> dict:
    """Fields of one `hhc floquet` line: I, multipliers, trivial error, verdict."""
    words = line.split()
    if not words or not words[0].startswith("I="):
        raise ValueError(f"not a floquet report: {line!r}")
    mus = [complex(float(re_), float(im)) for _, re_, im in _MU.findall(line)]
    err = re.search(r"trivial_error=([^ ]+)", line)
    if len(mus) < 2 or err is None:
        raise ValueError(f"malformed floquet report: {line!r}")
    return {"current": float(words[0][2:]), "trivial": mus[0],
            "multipliers": mus[1:], "trivial_error": float(err.group(1)),
            "stability": words[-1]}


def check_spectrum(rec_or_report, label: str) -> List[str]:
    """Stable cycle: trivial multiplier near +1, verdict 'stable'."""
    if isinstance(rec_or_report, CycleRecord):
        trivial, stability = rec_or_report.trivial, rec_or_report.stability
    else:
        trivial, stability = rec_or_report["trivial"], rec_or_report["stability"]
    out = []
    if abs(trivial - 1.0) > TRIVIAL_TOL:
        out.append(f"{label}: trivial multiplier {trivial:.6g} not within "
                   f"{TRIVIAL_TOL} of 1")
    if stability != "stable":
        out.append(f"{label}: verdict {stability!r}, expected 'stable'")
    return out


def check_return(rec: CycleRecord) -> List[str]:
    """The stored state comes back to itself after one period."""
    err = reference.return_error(rec.x0, rec.period, rec.current)
    if not err <= RETURN_TOL:
        return [f"{rec.source}: return error {err:.3g} after one period "
                f"exceeds {RETURN_TOL}"]
    return []


def check_cycle_solvers(records: Dict[str, CycleRecord],
                        reports: Dict[str, dict]) -> List[str]:
    """One current: three solver artifacts and two floquet reports.

    records maps 'shoot' | 'hb' | 'collocation' to artifact records;
    reports maps 'shoot' | 'hb' to parsed floquet lines.
    """
    out = []
    T_ref = records["shoot"].period
    for method, rec in records.items():
        if abs(rec.period - T_ref) > PERIOD_RTOL * T_ref:
            out.append(f"{rec.source}: period {rec.period:.10g} differs from "
                       f"shooting {T_ref:.10g} by more than {PERIOD_RTOL:g} rel")
        out += check_return(rec)
        out += check_spectrum(rec, rec.source)
    for method, rep in reports.items():
        out += check_spectrum(rep, f"floquet report on {method}")
    lead_s = reports["shoot"]["multipliers"][0]
    lead_h = reports["hb"]["multipliers"][0]
    if abs(lead_s - lead_h) > LEADING_TOL:
        out.append(f"leading multiplier: shooting {lead_s:.6g} vs HB "
                   f"{lead_h:.6g} differ by more than {LEADING_TOL}")
    return out


def check_stable_branch(records: Sequence[CycleRecord], returns_at: Sequence[int],
                        hopf_events: Sequence[float],
                        hopf_reference: float) -> List[str]:
    """Branch up the stable side: all stable, a few return, ends in Hopf."""
    out = []
    for rec in records:
        out += check_spectrum(rec, rec.source)
    for j in returns_at:
        out += check_return(records[j])
    if len(hopf_events) != 1:
        out.append(f"expected one Hopf endpoint event, found {len(hopf_events)}")
    elif abs(hopf_events[0] - hopf_reference) > HIGH_HOPF_TOL:
        out.append(f"branch-end Hopf at I={hopf_events[0]:.6f}, reference "
                   f"eigenvalues give {hopf_reference:.6f}")
    return out


def _read_csv_rows(path: str) -> List[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _read_events(path: str) -> List[dict]:
    """events.csv rows: kind, I_star, then the evidence JSON to the line end.

    The evidence is written unquoted and holds commas of its own, so a CSV
    reader would split it; the first two commas delimit the columns.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines or lines[0] != "kind,I_star,evidence":
        raise ValueError(f"{path}: unexpected header {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        kind, I_star, evidence = ln.split(",", 2)
        rows.append({"kind": kind, "I_star": float(I_star),
                     "evidence": json.loads(evidence)})
    return rows


def read_diagram(out_dir: str) -> dict:
    """Parse every artifact `hhc diagram` wrote; raises on a malformed file."""
    parsed = {"events": _read_events(os.path.join(out_dir, "events.csv")),
              "records": _read_csv_rows(os.path.join(out_dir, "diagram.csv"))}
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        parsed["manifest"] = json.load(fh)
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.startswith("branch_") and name.endswith(".json"):
            with open(path) as fh:
                json.load(fh)
        elif name.endswith(".dat"):
            with open(path) as fh:
                for ln in fh:
                    if len([float(s) for s in ln.split()]) != 2:
                        raise ValueError(f"{name}: expected 'I value' rows")
    for row in parsed["records"]:
        float(row["I"]), float(row["period"])
    return parsed


def _pd_multiplier(evidence: dict, I_star: float) -> Optional[complex]:
    rows = evidence.get("rows") or []
    if not rows:
        return None
    row = min(rows, key=lambda r: abs(r["I"] - I_star))
    mus = [complex(m) for m in row["multipliers"]]
    return min(mus, key=lambda m: abs(m + 1.0))


def check_knee_diagram(diagram: dict, low_hopf_reference: float) -> List[str]:
    """Knee folds, their certificates, the low Hopf point, and any PD event."""
    out = []
    events = diagram["events"]
    folds = sorted(e["I_star"] for e in events if e["kind"] == "fold")
    if len(folds) != len(KNEE_FOLDS):
        out.append(f"expected {len(KNEE_FOLDS)} knee folds, found {folds}")
    else:
        for got, want in zip(folds, KNEE_FOLDS):
            if abs(got - want) > FOLD_TOL:
                out.append(f"fold at I={got:.6f}, want {want} +/- {FOLD_TOL}")
    for e in events:
        if e["kind"] == "fold":
            mu = complex(e["evidence"]["multiplier"])
            if abs(mu - 1.0) > FOLD_MU_TOL:
                out.append(f"fold at I={e['I_star']:.6f}: certificate "
                           f"multiplier {mu:.6g} not within {FOLD_MU_TOL} of +1")
    hopfs = [e["I_star"] for e in events if e["kind"] == "hopf"]
    if not hopfs:
        out.append("no Hopf event in the diagram")
    elif abs(min(hopfs) - low_hopf_reference) > LOW_HOPF_TOL:
        out.append(f"low Hopf at I={min(hopfs):.6f}, reference eigenvalues "
                   f"give {low_hopf_reference:.6f}")
    for e in events:
        if e["kind"] != "period_doubling":
            continue
        if abs(e["I_star"] - PERIOD_DOUBLING) > PD_TOL:
            out.append(f"period doubling at I={e['I_star']:.8f}, want "
                       f"{PERIOD_DOUBLING} +/- {PD_TOL}")
        mu = _pd_multiplier(e["evidence"], e["I_star"])
        if mu is None or abs(mu + 1.0) > PD_MU_TOL:
            out.append(f"period doubling multiplier {mu} not within "
                       f"{PD_MU_TOL} of -1")
    bad = [b for b in diagram["manifest"].get("branches", [])
           if b.get("status") != "complete"]
    if bad:
        out.append(f"diagram branches not complete: {bad}")
    return out
