"""Command-line driver: verify, braid, adiabatic and resources pipelines.

Results go to stdout or --out as JSON ({"config", "results", "meta"}) or CSV
with a fixed header.  Floats are printed with 12 significant digits and the
config/results payload is byte-deterministic for a given config; wall time
lives only in the separate meta field.  Exit codes: 0 all requested checks
pass, 1 a check failed its tolerance, 2 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import compiler, simulator
from .hamiltonians import TrijunctionParams, trijunction_h
from .majorana import PROTOCOL_CONFIGS, build_sub_operators, conjugate_hamiltonian
from .majorana import protocol_steps
from .mappings import layout_for

__all__ = ["main", "cmd_verify", "cmd_braid", "cmd_adiabatic", "cmd_resources"]

PHASE_TOL = 1e-9
BRAID_FIDELITY_TOL = 1e-9

_EXPECTED_DPHI = {0: 0.0, 3: math.pi / 2.0, 6: math.pi}

# ``braid`` output is nearly all the 2^Q [re, im] pairs of ``final_state_plus``.
# ``cmd_braid`` leaves the complex128 state there, and ``_emit`` renders it once
# with ``_indented_state`` (``json.dumps`` with an indent runs the pure-Python
# encoder, and a rounded list would convert each part to decimal twice) and
# splices it in over the value ``_SLOT``.  A quote after ": " is never inside a
# string, so ``_SLOT_TEXT`` matches only a value equal to ``_SLOT``, and no flag
# choice or result holds a NUL.
_PAIRS_KEY = "final_state_plus"
_SLOT = "\x00"
_SLOT_TEXT = f'"{_PAIRS_KEY}": {json.dumps(_SLOT)}'

# Each command's flags, as dests, with the value an omitted flag means.  The
# parser registers exactly these plus --format and --out, and ``config``
# echoes them (``resources --method braiding`` drops the ``_TROTTER`` pair).
_GAPS = {"delta": 1.0, "alpha": 1.0, "tcoupling": 1.0}
_LATTICE = {"sites": 1, "mapping": "coupler", **_GAPS}
_TROTTER = {"trotter_steps": 10, "reps": 1}
_DEFAULTS = {
    "verify": {**_LATTICE, "steps": None},
    "braid": {**_LATTICE, "steps": None},
    "adiabatic": {**_LATTICE, "tau": 1.0, **_TROTTER},
    "resources": {"sites": 4, "mapping": "both", "method": "both", **_TROTTER},
}
_OUTPUT = {"format": "json", "out": None}


def _ruled(cast, test, rule: str):
    """An argparse ``type``: ``cast`` the text, then reject a value that fails ``test``."""
    def parse(text: str):
        value = cast(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    parse.__name__ = cast.__name__  # keeps argparse's "invalid int value: '1.5'"
    return parse


_COUNT = _ruled(int, lambda v: v >= 1, ">= 1")
_GAP = _ruled(
    float,
    lambda v: math.isfinite(v) and v != 0,
    "finite and nonzero (a zero coupling leaves extra zero modes)",
)
# argparse reads a token that starts with "-" as a flag's value only if this
# matches it; its own pattern takes -1 and -0.5 but not -1e-5 or -inf.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|nan)$", re.I)
_PATH = _ruled(
    str,
    lambda path: path != "" and os.path.isdir(os.path.dirname(path) or "."),
    "a file in an existing directory",
)

# argparse keywords per dest; a ``type`` rejects what its flag's rule forbids,
# and a command's default is always one of the choices.
_ARGUMENTS = {
    "sites": {"type": _COUNT},
    "mapping": {"choices": ["coupler", "continuous"]},
    "method": {"choices": ["braiding", "adiabatic", "both"]},
    "steps": {"type": _ruled(int, lambda v: 0 <= v <= 6, "in [0, 6]")},
    "tau": {"type": _ruled(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")},
    "trotter_steps": {"type": _COUNT},
    "reps": {"type": _COUNT},
    "delta": {"type": _GAP},
    "alpha": {"type": _GAP},
    "tcoupling": {"type": _GAP},
    "format": {"choices": ["json", "csv"]},
    "out": {"type": _PATH},
}


def params(config: argparse.Namespace) -> TrijunctionParams:
    return TrijunctionParams(
        n=config.sites, delta=config.delta, alpha=config.alpha, t_junction=config.tcoupling
    )


def _f(value: float) -> float:
    """Round-trip a float through 12 significant digits for stable output."""
    return float(format(float(value), ".12g"))


def _complex_pairs(v: np.ndarray) -> list:
    """``[[_f(z.real), _f(z.imag)] for z in v]``, rounded in one pass over
    the interleaved parts of a complex128 vector."""
    flat = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    parts = iter([float(format(x, ".12g")) for x in flat.tolist()])
    return [[re, im] for re, im in zip(parts, parts)]


def _conjugation_cycle(n: int) -> list[dict]:
    """Symbolic check that each step maps its configuration Hamiltonian to
    the next one exactly, built at the default gaps whatever the run's, so
    the rows do not depend on --delta, --alpha or --tcoupling.  The run's own
    H_ab closes on every step exactly when delta == alpha or n == 1: the
    exchanges carry a donor arm's delta bonds onto the trivial arm's alpha terms."""
    defaults = TrijunctionParams(n=n)
    h = {c: trijunction_h(c, defaults) for c in PROTOCOL_CONFIGS}
    rows = []
    for k, (c_from, c_to) in enumerate(protocol_steps(), start=1):
        got = conjugate_hamiltonian(h[c_from], build_sub_operators((c_from, c_to), n))
        rows.append({"step": k, "ok": got == h[c_to]})
    return rows


def cmd_verify(config: argparse.Namespace) -> tuple[dict, bool]:
    layout = layout_for(config.mapping, config.sites)
    gs = simulator.trijunction_ground_space(PROTOCOL_CONFIGS[0], params(config), layout)
    results: dict = {"ground_energies": [_f(e) for e in gs.energies]}
    ok = True
    if config.steps is None:
        single = simulator.braid_unitary(layout, 3, gs.basis)
        # steps 4-6 repeat steps 1-3, so the double braid is the single one twice
        double = simulator.braid_unitary(layout, 3, single)
        braids = [("single", 3, single), ("double", 6, double)]
    else:
        UG = simulator.braid_unitary(layout, config.steps, gs.basis)
        braids = [(f"steps{config.steps}", config.steps, UG)]
    for tag, steps, UG in braids:
        report = simulator.project_braid(UG, gs)
        results[f"dphi_{tag}"] = _f(report.dphi)
        results[f"ugs_{tag}"] = [_complex_pairs(row) for row in report.ugs]
        results[f"unitarity_defect_{tag}"] = _f(report.unitarity_defect)
        expected = _EXPECTED_DPHI.get(steps)
        if expected is not None:
            passed = (
                abs(report.dphi - expected) <= PHASE_TOL
                and report.unitarity_defect < 1e-8
            )
            results[f"dphi_{tag}_ok"] = passed
            ok = ok and passed
    chain = _conjugation_cycle(config.sites)
    results["conjugation_chain"] = chain
    ok = ok and all(row["ok"] for row in chain)
    results["checks_passed"] = ok
    return results, ok


def cmd_braid(config: argparse.Namespace) -> tuple[dict, bool]:
    layout = layout_for(config.mapping, config.sites)
    steps = 6 if config.steps is None else config.steps
    gs = simulator.trijunction_ground_space(PROTOCOL_CONFIGS[0], params(config), layout)
    results: dict = {"steps": steps}
    ok = True
    plus, minus = simulator.prepare_initial(gs, +1), simulator.prepare_initial(gs, -1)
    final_plus = simulator.apply_braid(plus, layout, steps)
    final_minus = simulator.apply_braid(minus, layout, steps)
    results["fidelity_plus_to_opposite"] = _f(simulator.fidelity(minus, final_plus))
    results["fidelity_minus_to_opposite"] = _f(simulator.fidelity(plus, final_minus))
    if steps == 6:
        passed = all(
            abs(results[f"fidelity_{tag}_to_opposite"] - 1.0) <= BRAID_FIDELITY_TOL
            for tag in ("plus", "minus")
        )
        results["swap_ok"] = passed
        ok = passed
    results[_PAIRS_KEY] = final_plus  # rendered by ``_emit``
    results["checks_passed"] = ok
    return results, ok


def cmd_adiabatic(config: argparse.Namespace) -> tuple[dict, bool]:
    layout = layout_for(config.mapping, config.sites)
    _, fid = simulator.run_adiabatic(
        layout, params(config), config.tau, config.trotter_steps, config.reps
    )
    circuit = compiler.compile_adiabatic(
        layout, params(config), config.tau, config.trotter_steps, config.reps
    )
    report = compiler.count_resources(circuit)
    results = {
        "braid_fidelity": _f(fid),
        "two_qubit_count": report.two_qubit_count,
        "depth": report.depth,
        "per_transition_two_qubit": list(report.per_step),
        "minimal_setting": config.trotter_steps == 10 and config.reps == 1,
    }
    return results, True


def cmd_resources(config: argparse.Namespace) -> tuple[list[dict], bool]:
    methods = (
        ("adiabatic", "braiding") if config.method == "both" else (config.method,)
    )
    mappings = (
        ("continuous", "coupler") if config.mapping == "both" else (config.mapping,)
    )
    n_values = range(1, config.sites + 1)
    trotter = {}
    if "reps" in vars(config):  # --method braiding has no Trotter flags
        trotter = {"substeps": config.trotter_steps, "reps": config.reps}
    reports = compiler.sweep(n_values, methods, mappings, **trotter)
    rows = [{k: v for k, v in vars(r).items() if k != "per_step"} for r in reports]
    return rows, True


def _is_json_text(text: str) -> bool:
    """Whether ``format(x, ".12g")`` is already json's text of ``_f(x)``:
    a finite float with a point or a negative exponent, and normal, so its
    12 digits are the shortest repr.  Integral values need ".0", and repr is
    positional below 1e16 where the format writes an "e+" exponent."""
    mantissa, _, exponent = text.partition("e")
    if exponent:
        return exponent[0] == "-" and int(exponent) > -308
    return "." in mantissa


def _indented_state(v: np.ndarray, indent: str) -> str:
    """``_complex_pairs(v)`` exactly as ``json.dumps(..., indent=2)`` prints
    it as a value whose key line starts with ``indent``.  One ``%`` call
    writes each part with 12 digits; a text that is not json's own takes
    ``json.dumps(float(text))``, and ``float(text)`` is ``_f(x)``."""
    parts = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).tolist()
    if not parts:
        return "[]"
    texts = ("%.12g " * len(parts) % tuple(parts)).split()
    odd = {t: json.dumps(float(t)) for t in set(texts) if not _is_json_text(t)}
    texts = [odd.get(t, t) for t in texts]
    outer, inner = indent + "  ", indent + "    "
    pairs = f"\n{outer}],\n{outer}[\n{inner}".join([f"%s,\n{inner}%s"] * (len(texts) // 2))
    return f"[\n{outer}[\n{inner}{pairs}\n{outer}]\n{indent}]" % tuple(texts)


def _emit(config: argparse.Namespace, payload, wall_time: float):
    """Write the payload as JSON or CSV to stdout or ``--out``.

    JSON is ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte
    for byte; the braid state is rendered and spliced in by ``_indented_state``.
    """
    if config.format == "json":
        echo = {k: _f(v) if isinstance(v, float) else v for k, v in vars(config).items()}
        del echo["out"]
        state = payload.get(_PAIRS_KEY) if isinstance(payload, dict) else None
        doc = {
            "config": echo,
            "results": payload if state is None else {**payload, _PAIRS_KEY: _SLOT},
            "meta": {"wall_time_s": wall_time},
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if state is not None:  # results sit at depth 2: their keys indent by 4
            spliced = f'"{_PAIRS_KEY}": ' + _indented_state(state, "    ")
            text = text.replace(_SLOT_TEXT, spliced, 1)
    else:
        rows = payload  # resources: one row per report
        if config.command != "resources":
            scalar = (int, float, str)
            rows = [{k: v for k, v in payload.items() if isinstance(v, scalar)}]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow(
                [format(v, ".12g") if isinstance(v, float) else v for v in row.values()]
            )
        text = buffer.getvalue()
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out {config.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Each command registers only the flags in its ``_DEFAULTS`` row, so any
    other flag exits 2.  Built once per process: parsing reads the parser and
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="trijunction",
        description="Trijunction braid emulation: verification, state "
        "protocols and gate-resource sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "verify": "braid-phase and symbolic-conjugation checks",
        "braid": "apply the exchange protocol to the ground superpositions",
        "adiabatic": "Trotterised interpolation run with resource pairing",
        "resources": "two-qubit count / depth sweep over sizes (n = 1..sites)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for dest, default in {**_DEFAULTS[name], **_OUTPUT}.items():
            kwargs = dict(_ARGUMENTS[dest])
            if "choices" in kwargs and default not in kwargs["choices"]:
                kwargs["choices"] = [*kwargs["choices"], default]
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "braid": cmd_braid,
    "adiabatic": cmd_adiabatic,
    "resources": cmd_resources,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    given = vars(args)
    defaults = _DEFAULTS[args.command]
    try:
        # Only ``resources`` has --method; its braiding sweep is not
        # Trotterised, so it neither takes nor echoes the Trotter flags.
        if given.get("method") == "braiding":
            for name in _TROTTER:
                if name in given:
                    raise ValueError(
                        f"--{name.replace('_', '-')} is not read by --method braiding"
                    )
            defaults = {k: v for k, v in defaults.items() if k not in _TROTTER}
        config = argparse.Namespace(**{**defaults, **_OUTPUT, **given})
        start = time.perf_counter()
        payload, ok = _COMMANDS[config.command](config)
        _emit(config, payload, time.perf_counter() - start)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a ground-pair certificate that fails
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1
