"""Command-line interface.

One executable with subcommands::

    statetexture texture --state FILE [--basis computational|fourier|PATH]
    statetexture texture extrema --state FILE
    statetexture purity --state FILE [--alpha 2,3,0.5]
    statetexture monotone {coherence,magic,entangle,ggm} --state FILE [--cut A:B]
    statetexture convexroof --state FILE --theory entangle [--restarts N] ...
    statetexture ising point --n N --h H [--g G] [--method ...] [--observable ...]
    statetexture ising scan --n N --axis h --from A --to B --step S --out CSV ...
    statetexture selftest

Exit codes: 0 success, 1 numerical failure (invalid state file,
non-convergence), 2 usage error, an output path that is unwritable or names
the command's --state or another output included: all are checked before
anything is computed.  Numeric output uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import StateTextureError, UsageError
from .states import PureState

_THEORY_BY_FLAG = {
    "coherence": "coherence",
    "magic": "nonstabilizerness",
    "entangle": "entanglement_bipartite",
    "ggm": "gme",
}

MAX_SCAN_POINTS = 10 ** 6

_ALIAS = {
    ("texture", "extrema"): "texture-extrema",
    ("ising", "point"): "ising-point",
    ("ising", "scan"): "ising-scan",
}


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(pairs, human: bool) -> None:
    width = max((len(k) for k, _ in pairs), default=0)
    for key, value in pairs:
        if human:
            print(f"{key.ljust(width)}  {_fmt(value)}")
        else:
            print(f"{key} {_fmt(value)}")


def _parse_cut(text: Optional[str], dims: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    if text is None:
        return None
    left, _, right = text.partition(":")
    try:
        side_a, side_b = (tuple(sorted(int(tok) for tok in side.split(",") if tok != ""))
                          for side in (left, right))
    except ValueError as exc:
        raise UsageError(f"malformed cut {text!r}") from exc
    if right and side_b != tuple(k for k in range(len(dims)) if k not in side_a):
        raise UsageError(f"cut sides {side_a}:{side_b} do not partition {len(dims)} parties")
    return side_a


def _cmd_texture(args) -> list:
    from . import stateio, texture
    state = stateio.load_state(args.state)
    dim = state.dim
    if args.basis == "computational":
        basis = texture.computational_basis(dim)
    elif args.basis == "fourier":
        basis = texture.fourier_basis(dim)
    else:
        basis = texture.OrthonormalBasis(stateio.load_unitary(args.basis))
    rep = texture.texture_in_basis(state, basis)
    return [("grand_sum", rep.grand_sum), ("texture", rep.texture),
            ("rugosity", rep.rugosity), ("imag_residual", rep.imag_residual)]


def _cmd_texture_extrema(args) -> list:
    from . import stateio, texture
    ex = texture.texture_extrema(stateio.load_state(args.state))
    return [("t_max", ex.t_max), ("t_min", ex.t_min)]


def _cmd_purity(args) -> list:
    from . import purity, stateio
    state = stateio.load_state(args.state)
    try:
        alphas = [float(tok) for tok in args.alpha.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"malformed --alpha list {args.alpha!r}") from exc
    report = purity.check_renyi2_bound(state, alphas or (2.0,))
    pairs = [("texture_purity", report.texture_purity)]
    for a in sorted(report.renyi_purities):
        pairs.append((f"renyi_purity_{a:g}", report.renyi_purities[a]))
    pairs += [("renyi2_bound_rhs", report.renyi2_bound_rhs),
              ("bound_satisfied", report.bound_satisfied),
              ("single_shot_cost", report.single_shot_cost)]
    if report.single_shot_cost is not None:
        pairs.append(("rank_tolerance", purity.RANK_TOL))
    return pairs


def _cmd_monotone(args) -> list:
    from . import monotones, stateio
    psi = stateio.load_state(args.state)
    if not isinstance(psi, PureState):
        raise UsageError("this command needs a pure state file (kind = 'pure')")
    theory = _THEORY_BY_FLAG[args.theory]
    result = monotones.pure_state_monotone(psi, theory,
                                           cut=_parse_cut(args.cut, psi.subsystem_dims))
    return ([("theory", theory), ("value", result.value)]
            + [(f"witness_{k}", v) for k, v in sorted(result.witness.items())])


def _cmd_convexroof(args) -> list:
    from . import roof, stateio
    state = stateio.load_state(args.state)
    theory = _THEORY_BY_FLAG[args.theory]
    cut = _parse_cut(args.cut, state.subsystem_dims)
    # optimizer flags left out are absent from args, so RoofConfig's defaults apply
    cfg = roof.RoofConfig(**{f.name: getattr(args, f.name)
                             for f in fields(roof.RoofConfig) if hasattr(args, f.name)})
    result = roof.convex_roof(state, theory, cfg, cut=cut)
    if args.dump_decomposition:
        stateio.save_decomposition(args.dump_decomposition, result.decomposition)
    return [("theory", theory), ("value", result.value), ("lower_bound", result.lower_bound),
            ("converged", result.converged), ("decomposition_size", len(result.decomposition))]


def _default_method(method: Optional[str], g: float, axis: str = "h") -> str:
    if method is not None:
        return method
    if axis == "g" or g != 0.0:
        return "ed"
    return "analytic"


def _cmd_ising_point(args) -> list:
    from . import ising
    spec = ising.ChainSpec(args.n, args.h, args.g)
    method = _default_method(args.method, args.g)
    pairs = [("n", args.n), ("h", args.h), ("g", args.g), ("method", method),
             ("observable", args.observable)]
    if args.observable == "full":
        value = (ising.analytic_rugosity(spec) if method == "analytic"
                 else ising.ed_rugosity(spec))
        return pairs + [("rugosity", value), ("normalized_rugosity", value / args.n)]
    obs = (ising.pair_observables(spec) if method == "analytic"
           else ising.ed_pair_observables(spec))
    return pairs + [("m_z", obs.m_z), ("c_xx", obs.c_xx), ("c_yy", obs.c_yy),
                    ("c_zz", obs.c_zz), ("pair_rugosity", obs.pair_rugosity),
                    ("pair_rugosity_normalized", obs.pair_rugosity / args.n)]


def _scan_csv_lines(pts: np.ndarray, grid) -> List[str]:
    lines = ["point,rugosity,normalized_rugosity,d1,d2"]
    npts = pts.size
    for k in range(npts):
        d1 = _fmt(grid.first_derivative[k - 1]) if 1 <= k <= npts - 2 else ""
        d2 = _fmt(grid.second_derivative[k - 2]) if 2 <= k <= npts - 3 else ""
        lines.append(",".join([_fmt(float(pts[k])), _fmt(float(grid.rugosity[k])),
                               _fmt(float(grid.normalized_rugosity[k])), d1, d2]))
    if grid.kink_estimate is not None:
        lines.append(f"# kink_estimate = {_fmt(grid.kink_estimate)}")
    return lines


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Plot a rugosity scan CSV (auto-generated).\"\"\"
import csv
import matplotlib.pyplot as plt

points, normalized = [], []
with open({csv!r}) as handle:
    for row in csv.reader(line for line in handle if not line.startswith('#')):
        if row[0] == 'point':
            continue
        points.append(float(row[0]))
        normalized.append(float(row[2]))

fig, ax = plt.subplots()
ax.plot(points, normalized)
ax.set_xlabel({xlabel!r})
ax.set_ylabel('normalized rugosity')
fig.tight_layout()
plt.show()
"""


def _cmd_ising_scan(args) -> list:
    from . import ising
    if args.emit_plot and not args.out:
        raise UsageError("--emit-plot needs --out: the plot script reads the CSV from that file")
    # the swept field takes the grid's values, so a fixed one is rejected, not dropped
    if getattr(args, args.axis) is not None:
        raise UsageError(f"--{args.axis} is swept by this scan and takes no fixed value")
    if args.axis == "h":
        spec = ising.ChainSpec(args.n, h=0.0, g=0.0 if args.g is None else args.g)
    else:
        if args.h is None:
            raise UsageError("a fixed --h is required for a g-axis scan")
        spec = ising.ChainSpec(args.n, h=args.h, g=0.0)
    if not all(math.isfinite(v) for v in (args.start, args.stop, args.step)):
        raise UsageError("--from, --to and --step must be finite")
    if args.step <= 0:
        raise UsageError("--step must be positive")
    if args.stop < args.start:
        raise UsageError("--to must not be below --from")
    span = (args.stop - args.start) / args.step
    if not span < MAX_SCAN_POINTS - 0.5:
        raise UsageError(f"the scan grid exceeds {MAX_SCAN_POINTS} points; use a larger --step")
    count = int(round(span))
    pts = args.start + args.step * np.arange(count + 1)
    pts = pts[pts <= args.stop + 1e-12 * max(1.0, abs(args.stop))]
    window = None
    if args.kink_window is not None:
        try:
            lo, hi = (float(tok) for tok in args.kink_window.split(","))
        except ValueError as exc:
            raise UsageError(f"malformed --kink-window {args.kink_window!r}") from exc
        window = (lo, hi)
    method = _default_method(args.method, spec.g, args.axis)
    grid = ising.scan(spec, args.axis, pts, observable=args.observable,
                      method=method, kink_window=window)
    csv = "\n".join(_scan_csv_lines(pts, grid))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(csv + "\n")
    else:
        print(csv)
    if args.emit_plot:
        xlabel = "transverse field h" if args.axis == "h" else "longitudinal field g"
        with open(args.emit_plot, "w") as handle:
            handle.write(_PLOT_TEMPLATE.format(csv=str(args.out), xlabel=xlabel))
    return [("axis", args.axis), ("n", args.n), ("points", pts.size),
            ("observable", args.observable), ("method", method),
            ("kink_estimate", grid.kink_estimate), ("out", args.out or "-")]


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 1 if run_selftest() else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statetexture",
        description="Quantum state texture measures, monotones and Ising scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("human", "structured"), default="human")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True)
    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--n", type=int, required=True)
    chain.add_argument("--method", choices=("analytic", "ed"))
    chain.add_argument("--observable", choices=("full", "pair"), default="full")

    def command(name, func, help, parents=(), writes=()):
        """A subcommand; ``writes`` names the destinations of its output-path flags."""
        p = sub.add_parser(name, help=help, parents=[fmt, *parents])
        p.set_defaults(func=func, writes=writes)
        return p

    p = command("texture", _cmd_texture, "texture report of a state in a basis",
                parents=[state])
    p.add_argument("--basis", default="computational",
                   help="computational, fourier, or a unitary file path")

    command("texture-extrema", _cmd_texture_extrema, "extremal textures over all bases",
            parents=[state])

    p = command("purity", _cmd_purity, "texture purity and Renyi purities", parents=[state])
    p.add_argument("--alpha", default="2", help="comma list of Renyi orders")

    # a parent, so that the positional stays ahead of --state in usage errors
    theory = argparse.ArgumentParser(add_help=False)
    theory.add_argument("theory", choices=sorted(_THEORY_BY_FLAG))
    p = command("monotone", _cmd_monotone, "closed-form pure-state monotones",
                parents=[theory, state])
    p.add_argument("--cut", help="bipartition such as 0,1:2,3")

    p = command("convexroof", _cmd_convexroof,
                "convex roof of a mixed state: exact, with a lower bound, for entangle "
                "on two qubits and coherence or magic on one; else a descent upper bound",
                parents=[state], writes=("dump_decomposition",))
    p.add_argument("--theory", choices=sorted(_THEORY_BY_FLAG), required=True)
    p.add_argument("--cut", help="bipartition such as 0:1")
    for flag, kind in (("--restarts", int), ("--cardinality", int), ("--tolerance", float),
                       ("--seed", int)):
        p.add_argument(flag, type=kind, default=argparse.SUPPRESS,
                       help="descent only; validated, then unused, by the exact cases")
    p.add_argument("--dump-decomposition", help="write the decomposition to this file")

    p = command("ising-point", _cmd_ising_point, "rugosity observables at one parameter point",
                parents=[chain])
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--g", type=float, default=0.0)

    p = command("ising-scan", _cmd_ising_scan, "rugosity scan over h or g with derivatives",
                parents=[chain], writes=("out", "emit_plot"))
    p.add_argument("--axis", choices=("h", "g"), required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--h", type=float, help="fixed transverse field for g-axis scans")
    p.add_argument("--g", type=float, help="fixed longitudinal field for h-axis scans (default 0)")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.add_argument("--kink-window", help="window LO,HI for the curvature extremum")
    p.add_argument("--emit-plot", help="write a plotting script that reads the --out CSV")

    command("selftest", _cmd_selftest,
            "cross-check independent code paths (purity bound, analytic vs ED Ising)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) >= 2 and (argv[0], argv[1]) in _ALIAS:
        argv = [_ALIAS[(argv[0], argv[1])]] + argv[2:]
    # argparse reads a value such as -1e-3 or -1.2,-0.8 as an option; no option
    # here starts with a digit or a dot, so such a token joins the flag before it
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"--\w[^=]*$", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        taken = {os.path.realpath(args.state)} if hasattr(args, "state") else set()
        for path in filter(None, (getattr(args, dest) for dest in args.writes)):
            folder = os.path.dirname(os.path.abspath(path))
            if (os.path.isdir(path) or not os.path.isdir(folder)
                    or not os.access(path if os.path.exists(path) else folder, os.W_OK)):
                raise UsageError(f"cannot write {path}")
            if os.path.realpath(path) in taken:
                raise UsageError(f"cannot write {path}: this command already reads or writes it")
            taken.add(os.path.realpath(path))
        result = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StateTextureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, int):  # selftest's own exit code
        return result
    _emit(result, args.format == "human")
    return 0


if __name__ == "__main__":
    sys.exit(main())
