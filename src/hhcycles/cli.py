"""Command-line front end: equilibria sweeps, cycle solves, diagrams, reports.

Commands
    hhc equilibria --range I0:I1:STEP     equilibrium sweep CSV
    hhc cycle --current I --method hb     single-cycle JSON artifact
    hhc diagram                           full bifurcation-diagram pipeline
    hhc floquet --cycle-file F            multiplier report for a saved cycle
    hhc hopf --range I0:I1                Hopf points from equilibrium eigenvalues

Configuration is a flat key=value text file ('#' comments, dotted keys);
unknown keys are rejected so typos fail loudly.  Every artifact header
carries the sha256 hash of the effective configuration, making reruns
verifiable.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure or an unreadable cycle file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import (collocation, continuation, floquet, hb, model, newton,
               shooting)
from .errors import HHCyclesError
from .fields import hh_field
from .hb import FourierCycle

TOOL_VERSION = "hhcycles 0.1.0"

DEFAULT_CONFIG = {
    "model.c": 1.0,
    "model.g_na": 120.0,
    "model.g_k": 36.0,
    "model.g_l": 0.3,
    "model.e_na": -115.0,
    "model.e_k": 12.0,
    "model.e_l": -10.599,
    "solver.hb.k": 50,
    "solver.hb.oversample": 4,
    "solver.hb.tol": 1e-10,
    "solver.collocation.n": 100,
    "solver.collocation.max_n": 2000,
    "solver.collocation.tol": 1e-6,
    "solver.shooting.tol": 1e-10,
    "continuation.step.initial": 0.05,
    "continuation.step.max": 0.25,
    "continuation.step.min": 1e-9,
    "continuation.collapse_amplitude": 0.4,
    "continuation.max_orbit_jump": 25.0,
    "continuation.max_points": 400,
    "diagram.i_min": 6.2,
    "diagram.i_max": 160.0,
    "diagram.i_seed": 20.0,
    "floquet.steps": 4000,
    "gibbs.ripple_threshold": 0.05,
}


class ConfigError(Exception):
    pass


def _parse_value(key: str, raw: str):
    default = DEFAULT_CONFIG[key]
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def load_config(path=None) -> dict:
    """Defaults overlaid with a key=value file; unknown keys rejected."""
    cfg = dict(DEFAULT_CONFIG)
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = _parse_value(key, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    for key in ("solver.hb.tol", "solver.collocation.tol",
                "solver.shooting.tol", "continuation.step.initial",
                "continuation.step.max", "continuation.step.min",
                "continuation.collapse_amplitude",
                "continuation.max_orbit_jump"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["diagram.i_min"] >= cfg["diagram.i_max"]:
        raise ConfigError("diagram.i_min must be below diagram.i_max")
    # every integer key is a count: harmonics, oversampling, mesh, points, steps
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, int) and cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")


def config_hash(cfg: dict) -> str:
    text = "\n".join(f"{k}={_fmt(cfg[k])}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def params_from_config(cfg: dict) -> model.HHParams:
    return model.HHParams(C=cfg["model.c"], gNa=cfg["model.g_na"],
                          gK=cfg["model.g_k"], gL=cfg["model.g_l"],
                          ENa=cfg["model.e_na"], EK=cfg["model.e_k"],
                          EL=cfg["model.e_l"])


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _header_lines(cfg: dict) -> list:
    return [f"# {TOOL_VERSION}", f"# config {config_hash(cfg)}"]


def _write_csv(path, cfg, columns, rows):
    with open(path, "w") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"range must be I0:I1[:STEP], got {spec!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"malformed range {spec!r}")
    lo, hi = vals[0], vals[1]
    step = vals[2] if len(vals) == 3 else 1.0
    if not (np.all(np.isfinite(vals)) and lo < hi and step > 0):
        raise ConfigError(f"empty or non-finite range {spec!r}")
    return lo, hi, step


def _range_samples(lo, hi, step):
    """lo, lo + step, ... below hi, then hi itself: the grid ends on hi
    whether or not step divides the range."""
    Is = np.arange(lo, hi + 0.5 * step, step)
    return np.append(Is[Is < hi], hi)


# ---------------------------------------------------------------------------
# cycle JSON serialization

CYCLE_SCHEMA = 1
_CYCLE_FIELDS = {"schema", "current", "method", "period", "harmonics",
                 "coefficients", "mesh_tau", "mesh_states", "mesh_mid",
                 "samples_t", "samples", "spectrum", "residual",
                 "gibbs_warning", "gibbs_ripple"}
# the artifact's method names the class that reads it back
_CYCLE_CLASSES = {"shoot": shooting.Cycle, "hb": FourierCycle,
                  "collocation": collocation.CollocationSolution}
# and the fields that hold the cycle's states, as (name, array, the shape
# it must have for dim state components)
_STATE_ARRAYS = {
    "shoot": lambda c, dim: [
        ("samples", c.samples.states, (len(c.samples.times), dim))],
    "hb": lambda c, dim: [("coefficients", c.coeffs, (dim, 2 * c.K + 1))],
    "collocation": lambda c, dim: [("mesh_states", c.y, (c.mesh.N, dim)),
                                   ("mesh_mid", c.mid, (c.mesh.N, dim))],
}


def _spectrum_dict(spec: floquet.FloquetSpectrum) -> dict:
    return {
        "trivial": [spec.trivial.real, spec.trivial.imag],
        "trivial_error": spec.trivial_error,
        "liouville_error": spec.liouville_error,
        "multipliers": [[m.real, m.imag] for m in spec.multipliers],
        "stability": spec.stability,
        "flags": sorted(spec.flags),
    }


def write_cycle_json(path, I, method, cyc, spec, residual, cfg,
                     gibbs_ripple=None):
    doc = {"schema": CYCLE_SCHEMA, "current": I, "method": method,
           **cyc.to_json(), "spectrum": _spectrum_dict(spec),
           "residual": float(residual)}
    if gibbs_ripple is not None:
        doc["gibbs_ripple"] = float(gibbs_ripple)
        doc["gibbs_warning"] = bool(
            gibbs_ripple > cfg["gibbs.ripple_threshold"])
    with open(path, "w") as fh:
        # json.dumps, not json.dump: only the one-shot encode takes the C
        # encoder, and a collocation artifact holds thousands of floats
        fh.write(json.dumps({"_meta": {"tool": TOOL_VERSION,
                                       "config": config_hash(cfg)}, **doc}))
        fh.write("\n")


def read_cycle_json(path, cfg=None):
    """Load a cycle artifact as (current, cycle); unknown fields are rejected.

    The artifact's method picks the cycle class.  A collocation cycle is
    rebuilt on the Hodgkin-Huxley field of cfg (default: DEFAULT_CONFIG) at
    the artifact's current.  The current must be finite, the period finite
    and positive, and every state array must fit the model's state
    components and the artifact's sample, harmonic or mesh-interval count.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a cycle object")
    doc.pop("_meta", None)
    unknown = set(doc) - _CYCLE_FIELDS
    if unknown:
        raise ConfigError(f"{path}: unknown cycle fields {sorted(unknown)}")
    if doc.get("schema") != CYCLE_SCHEMA:
        raise ConfigError(f"{path}: unsupported schema {doc.get('schema')!r}")
    cls = _CYCLE_CLASSES.get(doc.get("method"))
    if cls is None:
        raise ConfigError(f"{path}: unknown cycle method {doc.get('method')!r}")
    try:
        I = float(doc["current"])
        if not np.isfinite(I):
            raise ConfigError(f"{path}: current {I!r} is not finite")
        T = float(doc["period"])
        if not 0.0 < T < np.inf:
            raise ConfigError(f"{path}: period {T!r} is not finite and positive")
        fld = hh_field(params_from_config(cfg or DEFAULT_CONFIG), I)
        cyc = cls.from_json(doc, fld)
        for name, states, shape in _STATE_ARRAYS[doc["method"]](cyc, fld.dim):
            if states.shape != shape:
                raise ConfigError(f"{path}: {name} of shape {states.shape}, "
                                  f"expected {shape}")
        return I, cyc
    except KeyError as exc:
        raise ConfigError(f"{path}: missing cycle field {exc}")
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed cycle field: {exc}")


def _load_cycle_file(path, cfg):
    """read_cycle_json for a command: None, reported on stderr, if unreadable."""
    try:
        return read_cycle_json(path, cfg)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"cannot read cycle file: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# commands


def cmd_hopf(args, cfg) -> int:
    p = params_from_config(cfg)
    lo, hi, step = _parse_range(args.range)
    found = scan_hopf(lo, hi, step, p)
    if not found:
        print("no Hopf crossings found in range")
        return 0
    for I_star, omega in found:
        print(f"hopf I={_fmt(I_star)} omega={_fmt(omega)} "
              f"period={_fmt(2.0 * np.pi / omega)}")
    return 0


def scan_hopf(lo, hi, step, p):
    """Sign changes of the leading equilibrium eigenvalue's real part on
    the grid, each refined by detect_hopf."""
    Is = _range_samples(lo, hi, step)
    lam = model.eigenvalues(model.find_equilibrium(Is, p), p)
    sign = np.sign(lam[:, 0].real)
    return [model.detect_hopf(float(Is[a]), float(Is[a + 1]), p=p)
            for a in np.flatnonzero(sign[:-1] != sign[1:])]


def cmd_equilibria(args, cfg) -> int:
    p = params_from_config(cfg)
    lo, hi, step = _parse_range(args.range)
    Is = _range_samples(lo, hi, step)
    try:
        xs = model.find_equilibrium(Is, p)
    except HHCyclesError as exc:
        print(f"equilibrium solve failed: {exc}", file=sys.stderr)
        return 2
    max_re = model.eigenvalues(xs, p)[:, 0].real
    rows = [(I, *x, re, "stable" if re < 0 else "unstable")
            for I, x, re in zip(Is.tolist(), xs.tolist(), max_re.tolist())]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "equilibria.csv")
    _write_csv(path, cfg,
               ["I", "V", "n", "h", "m", "max_re", "stability"], rows)
    if args.verbose:
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _solve_single_cycle(I, method, cfg, p, init=None):
    """Shared cycle-solve used by cmd_cycle; returns (cycle, residual)."""
    fld = hh_field(p, I)
    if init is None:
        init = shooting.cold_start(I, p, cfg["solver.shooting.tol"])
    elif method == "shoot":
        init = shooting.shoot(fld, init, tol=cfg["solver.shooting.tol"])
    if method == "shoot":
        # the samples are states of shoot's last pass: its return gap
        states = init.samples.states
        return init, float(np.max(np.abs(states[-1] - states[0])))
    if method == "hb":
        ops = hb.build_operators(cfg["solver.hb.k"], cfg["solver.hb.oversample"])
        carry = newton.FactorCarry()
        cyc = hb.solve_hb(init, fld, ops, tol=cfg["solver.hb.tol"],
                          carry=carry)
        return cyc, float(carry.residual)
    if method == "collocation":
        sol = collocation.solve_bvp(fld, init,
                                    tol=cfg["solver.collocation.tol"],
                                    N=cfg["solver.collocation.n"],
                                    max_N=cfg["solver.collocation.max_n"])
        return sol, float(np.max(sol.residual_profile()))
    raise ConfigError(f"unknown method {method!r}")


def cmd_cycle(args, cfg) -> int:
    p = params_from_config(cfg)
    I = args.current
    if not np.isfinite(I):
        raise ConfigError(f"--current must be finite, got {I}")
    if args.harmonics is not None:
        cfg = dict(cfg)
        cfg["solver.hb.k"] = args.harmonics
    if args.mesh is not None:
        cfg = dict(cfg)
        cfg["solver.collocation.n"] = args.mesh
    _validate(cfg)
    init = None
    if args.init:
        loaded = _load_cycle_file(args.init, cfg)
        if loaded is None:
            return 2
        _, init = loaded
    try:
        cyc, residual = _solve_single_cycle(I, args.method, cfg, p, init)
        spec = floquet.spectrum(cyc, hh_field(p, I),
                                nsteps=cfg["floquet.steps"])
    except HHCyclesError as exc:
        print(f"cycle solve failed at I={I}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    ripple = hb.gibbs_ripple(cyc) if args.method == "hb" else None
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"cycle_I{_fmt(float(I))}_{args.method}.json")
    write_cycle_json(path, I, args.method, cyc, spec, residual, cfg,
                     gibbs_ripple=ripple)
    if args.verbose:
        print(f"wrote {path} (period {_fmt(cyc.period)}, "
              f"residual {residual:.3g})")
    return 0


def cmd_floquet(args, cfg) -> int:
    steps = cfg["floquet.steps"] if args.steps is None else args.steps
    if steps < 1:
        raise ConfigError("--steps must be >= 1")
    p = params_from_config(cfg)
    loaded = _load_cycle_file(args.cycle_file, cfg)
    if loaded is None:
        return 2
    I, cyc = loaded
    try:
        spec = floquet.spectrum(cyc, hh_field(p, I), nsteps=steps)
    except HHCyclesError as exc:
        print(f"floquet failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    mus = spec.all_multipliers()
    cols = "  ".join(f"mu{j+1}={m.real:+.6g}{m.imag:+.3g}j"
                     for j, m in enumerate(mus))
    print(f"I={_fmt(float(I))}  {cols}  trivial_error={spec.trivial_error:.3g}"
          f"  liouville_error={spec.liouville_error:.3g}  {spec.stability}")
    return 0


def run_diagram(cfg, out_dir, verbose=False):
    """continuation.diagram of the config, from the Hopf points of scan_hopf,
    with its artifacts in out_dir; the manifest, flushed as each branch
    ends, marks any branch that failed.  Returns the Diagram."""
    p = params_from_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    lo, hi = cfg["diagram.i_min"], cfg["diagram.i_max"]
    hopfs = scan_hopf(max(lo, 0.5), hi, 1.0, p)
    if verbose:
        for I_star, _ in hopfs:
            print(f"hopf at I={I_star:.6f}")
    manifest = {"branches": [], "events": "pending"}

    def note(name, status):
        manifest["branches"].append({"name": name, "status": status})
        _flush_manifest(out_dir, manifest, cfg)

    diagram = continuation.diagram(
        hopfs, (lo, hi), cfg["diagram.i_seed"], continuation.StepControl(
            initial=cfg["continuation.step.initial"],
            max_step=cfg["continuation.step.max"],
            min_step=cfg["continuation.step.min"],
            collapse_amplitude=cfg["continuation.collapse_amplitude"],
            max_orbit_jump=cfg["continuation.max_orbit_jump"]),
        cfg["solver.hb.k"], p, hb_oversample=cfg["solver.hb.oversample"],
        shoot_tol=cfg["solver.shooting.tol"],
        spectrum_steps=cfg["floquet.steps"],
        max_points=cfg["continuation.max_points"], note=note)
    if verbose:
        for miss in diagram.misses:
            print(miss)
        for name, (solves, fresh, tried, kept, climbs) in \
                diagram.work.items():
            print(f"{name}: {solves} corrections, {fresh} fresh "
                  f"factorizations, carried factors kept in {kept} of "
                  f"{tried} tries")
            if name in diagram.branches:
                Ks = [pt.cycle.K for pt in diagram.branches[name].points]
                print(f"{name}: points on K={min(Ks)}..{max(Ks)}, "
                      f"{climbs} re-solves one rung up")
    manifest["events"] = "complete"
    _flush_manifest(out_dir, manifest, cfg)
    _write_diagram_files(diagram, out_dir, cfg)
    return diagram


def _flush_manifest(out_dir, manifest, cfg):
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"tool": TOOL_VERSION, "config": config_hash(cfg),
                   **manifest}, fh, indent=1)
        fh.write("\n")


def _write_diagram_files(diagram, out_dir, cfg):
    _write_csv(os.path.join(out_dir, "diagram.csv"), cfg,
               ["branch_id", "I", "stability", "v_min", "v_max", "period"],
               [(r["branch_id"], r["I"], r["stability"], r["v_min"],
                 r["v_max"], r["period"]) for r in diagram.records])
    _write_csv(os.path.join(out_dir, "events.csv"), cfg,
               ["kind", "I_star", "evidence"],
               [(e.kind, e.I_star, json.dumps(e.evidence, default=str))
                for e in diagram.events])
    for bid, br in enumerate(diagram.branches.values()):
        for tag, attr in (("vmin", "v_min"), ("vmax", "v_max")):
            path = os.path.join(out_dir, f"branch_{bid}_{tag}.dat")
            with open(path, "w") as fh:
                for pt in br.points:
                    fh.write(f"{_fmt(pt.I)} {_fmt(getattr(pt, attr))}\n")
        payload = {"schema": CYCLE_SCHEMA, "solver": br.solver,
                   "points": [{"I": pt.I, "period": pt.period,
                               "v_min": pt.v_min, "v_max": pt.v_max,
                               "stability": pt.spectrum.stability}
                              for pt in br.points]}
        with open(os.path.join(out_dir, f"branch_{bid}.json"), "w") as fh:
            fh.write(json.dumps(payload))
            fh.write("\n")


def cmd_diagram(args, cfg) -> int:
    try:
        diagram = run_diagram(cfg, args.out, verbose=args.verbose)
    except HHCyclesError as exc:
        print(f"diagram run failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    print(f"{len(diagram.records)} points, {len(diagram.events)} events "
          f"-> {args.out}")
    for ev in diagram.events:
        print(f"  {ev.kind:16s} I*={_fmt(ev.I_star)}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hhc", description="Periodic orbits and bifurcations of the "
        "Hodgkin-Huxley neuron across the stimulus current.")
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equilibria", help="equilibrium sweep CSV")
    eq.add_argument("--range", required=True, help="I0:I1:STEP")

    cy = sub.add_parser("cycle", help="solve one periodic orbit")
    cy.add_argument("--current", type=float, required=True)
    cy.add_argument("--method", choices=("hb", "collocation", "shoot"),
                    default="hb")
    cy.add_argument("--harmonics", type=int, default=None)
    cy.add_argument("--mesh", type=int, default=None)
    cy.add_argument("--init", default=None, help="cycle JSON used as seed")

    sub.add_parser("diagram", help="full bifurcation diagram pipeline")

    fl = sub.add_parser("floquet", help="multiplier report for a cycle file")
    fl.add_argument("--cycle-file", required=True)
    fl.add_argument("--steps", type=int, default=None,
                    help="RK4 steps per period (default: floquet.steps)")

    hp = sub.add_parser("hopf", help="Hopf points from equilibrium eigenvalues")
    hp.add_argument("--range", default="1:160", help="I0:I1[:STEP]")
    return ap


COMMANDS = {
    "equilibria": cmd_equilibria,
    "cycle": cmd_cycle,
    "diagram": cmd_diagram,
    "floquet": cmd_floquet,
    "hopf": cmd_hopf,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HHCyclesError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
