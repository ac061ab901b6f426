"""Command-line front end: build networks, evaluate them, run the checks.

    snn build strassen-pow2 --k 2 --eps 0.01 --K 1 --out net.json
    snn eval --net net.json --a A.csv --b B.csv --layout ab --out C.csv
    snn verify --suite strassen --seed 42
    snn report bounds --out bounds.csv

Each build kind and each report is its own subcommand, which takes only
the value flags it reads (``KINDS``); its flags follow the kind, and any
other flag exits 1.

Exit codes: 0 success, 1 validation failure (bad parameters, bad files,
shape mismatches), 2 verification failure (a suite criterion did not hold).
The default seed is 42, overridden by an explicit --seed.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

import numpy as np

from .core import counts_satisfied, realize
from .gadgets import FACTORIES, GadgetSpec, gadget_count_reference
from .inversion import (InversionSpec, build_inv, inv_count_reference,
                        neumann_depth, series_length_estimate)
from .io import load_matrix, load_network, save_matrix, save_network
from .strassen import (RectShape, build_str_pow2, build_str_rect,
                       build_str_square, pow2_count_reference,
                       rect_count_reference)
from .verification import (_MIN_R2, DEFAULT_SEED, SUITES, gadget_growth_fit,
                           pow2_growth_rows, run_suite)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; keep 2 for verification
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: value flag -> its argparse keywords; the sizes k, m, n, p are required
FLAGS = {"k": dict(type=int, required=True, help="recursion depth"),
         "m": dict(type=int, required=True),
         "n": dict(type=int, required=True),
         "p": dict(type=int, required=True),
         "eps": dict(type=float, default=0.5),
         "K": dict(type=float, default=1.0),
         "alpha": dict(type=float, default=1.0),
         "delta": dict(type=float, default=0.5)}

#: build kind -> (value flags, spec, builder, count reference); spec reads
#: the parsed flags once, and builder and reference are both called as
#: f(*spec(args), factory)
KINDS = {
    "strassen-pow2": (("k", "eps", "K"), lambda a: (a.k, a.eps, a.K),
                      build_str_pow2, pow2_count_reference),
    "strassen-rect": (("m", "n", "p", "eps", "K"),
                      lambda a: (RectShape(a.m, a.n, a.p), a.eps, a.K),
                      build_str_rect, rect_count_reference),
    "strassen-square": (("n", "eps", "K"), lambda a: (a.n, a.eps, a.K),
                        build_str_square,
                        lambda n, eps, K, f: rect_count_reference(
                            RectShape(n, n, n), eps, K, f)),
    "inverse": (("n", "alpha", "eps", "delta"),
                lambda a: (InversionSpec(a.n, a.alpha, a.eps, a.delta),),
                build_inv, inv_count_reference),
    "gadget": (("eps", "K"), lambda a: (GadgetSpec(a.eps, a.K),),
               lambda spec, f: f.build(spec), gadget_count_reference),
}


def build_network_and_report(args):
    """The network of ``args`` and its report: measured counts against the
    count reference, as ``formula_M``/``formula_L`` when it is exact
    (equality expected) or ``bound_M``/``bound_L`` (measured <= bound), and
    the ``leaves`` ``[epsilon, K]`` of each gadget the builder asked for."""
    factory = FACTORIES[args.activation]
    _, spec, builder, reference = KINDS[args.kind]
    spec = spec(args)
    leaves = []

    def build(leaf):  # the factory's own, recording each leaf it builds
        leaves.append([leaf.epsilon, leaf.K])
        return factory.build(leaf)
    net = builder(*spec, dataclasses.replace(factory, build=build))
    M_ref, L_ref, exact = ref = reference(*spec, factory)
    kind = "formula" if exact else "bound"
    report = {"measured_M": net.num_weights, "measured_L": net.num_layers,
              f"{kind}_M": M_ref, f"{kind}_L": L_ref,
              "satisfied": counts_satisfied(net, ref)}
    if args.kind == "inverse":
        inv, = spec
        depth = neumann_depth(inv)
        # at eps / alpha, read as the largest float where it overflows, as
        # build_inv reads it
        ratio = min(inv.epsilon / inv.alpha, sys.float_info.max)
        report.update(N=depth.N, Sigma=depth.Sigma,
                      series_length_estimate=series_length_estimate(
                          ratio, inv.delta))
    report["leaves"] = leaves
    return net, report


def _opened(path, newline=None):
    """``path`` opened for writing, or stdout when no path is given."""
    return (open(path, "w", newline=newline) if path
            else contextlib.nullcontext(sys.stdout))


def cmd_build(args) -> int:
    net, report = build_network_and_report(args)
    save_network(net, args.out)
    with _opened(args.report) as fh:
        print(json.dumps(report, indent=1), file=fh)
    return 0


def cmd_eval(args) -> int:
    net = load_network(args.net)
    if args.input is not None:
        X = load_matrix(args.input)
    else:
        A = load_matrix(args.a)
        B = load_matrix(args.b)
        layout = args.layout or "ab"
        left = A.T if layout == "atb" else A
        if left.shape[0] != B.shape[0]:
            raise ValueError(
                f"operands do not stack: left block is {left.shape[0]} rows, "
                f"right block is {B.shape[0]} (layout {layout})")
        X = np.hstack([left, B])
    expect = (net.input_shape.rows, net.input_shape.cols)
    if X.shape != expect:
        raise ValueError(f"input is {X.shape[0]}x{X.shape[1]} but the network "
                         f"expects {expect[0]}x{expect[1]}")
    save_matrix(realize(net, X), args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: measured={res.measured:.6g} "
              f"[{res.threshold}] cases={res.cases}")
    doc = {"suite": args.suite, "seed": args.seed,
           "all_passed": all(r.passed for r in results),
           "results": [dataclasses.asdict(r) for r in results]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if doc["all_passed"] else 2


def _growth_table(args):
    rows = [["series", "x", "measured_M", "reference", "satisfied"],
            *pow2_growth_rows(args.activation)]
    es, gms, pred, r2 = gadget_growth_fit()
    for e, gm, pv in zip(es, gms, pred):
        rows.append(["gadget", int(e), int(gm), round(float(pv), 3), ""])
    rows.append(["gadget-fit-r2", "", round(r2, 6), _MIN_R2, r2 >= _MIN_R2])
    return rows


def _bounds_table(args):
    """One row per n in (2, 4, 8): the report of ``snn build inverse``."""
    rows = [["n", "alpha", "eps", "delta", "N", "series_length_estimate",
             "measured_M", "bound_M", "measured_L", "bound_L", "satisfied"]]
    for n in (2, 4, 8):
        a = argparse.Namespace(**{**vars(args), "kind": "inverse", "n": n})
        doc = build_network_and_report(a)[1]
        kind = "formula" if "formula_M" in doc else "bound"
        rows.append([n, a.alpha, a.eps, a.delta, doc["N"],
                     round(doc["series_length_estimate"], 3),
                     doc["measured_M"], round(float(doc[f"{kind}_M"]), 1),
                     doc["measured_L"], round(float(doc[f"{kind}_L"]), 1),
                     doc["satisfied"]])
    return rows


def cmd_report(args) -> int:
    rows = (_growth_table if args.kind == "growth" else _bounds_table)(args)
    with _opened(args.out, newline="") as fh:
        csv.writer(fh).writerows(rows)
    return 0


def _add_flags(parser, flags, activation) -> None:
    for flag in flags:
        parser.add_argument("--" + flag, **FLAGS[flag])
    parser.add_argument("--activation", choices=sorted(FACTORIES),
                        default=activation)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="snn",
                     description="Build, evaluate, and check matrix networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a network and write it as JSON")
    kinds = b.add_subparsers(dest="kind", required=True)
    for kind, (flags, *_) in KINDS.items():
        k = kinds.add_parser(kind)
        _add_flags(k, flags, "relu")
        k.add_argument("--out", required=True, help="network JSON path")
        k.add_argument("--report", default=None,
                       help="report JSON path (default: stdout)")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="apply a stored network to a CSV matrix")
    e.add_argument("--net", required=True)
    e.add_argument("--input", default=None,
                   help="CSV already laid out as the network expects")
    e.add_argument("--a", default=None, help="left operand CSV")
    e.add_argument("--b", default=None, help="right operand CSV")
    e.add_argument("--layout", choices=["ab", "atb"], default=None,
                   help="stack --a and --b as (A|B) or (A^T|B) (default: ab)")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run an acceptance suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--out", default=None, help="report JSON path")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="emit a CSV table of counts vs targets")
    reports = r.add_subparsers(dest="kind", required=True)
    for kind, flags in (("growth", ()), ("bounds", ("alpha", "eps", "delta"))):
        rk = reports.add_parser(kind)
        _add_flags(rk, flags, "relu2")
        rk.add_argument("--out", default=None,
                        help="CSV path (default: stdout)")
    reports.choices["bounds"].set_defaults(eps=0.1)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if (argv[:1] in (["build"], ["report"]) and len(argv) > 1
            and argv[1].startswith("-") and argv[1] not in ("-h", "--help")):
        # argparse would take the flag's value for the kind
        parser.error(f"argument {argv[1].split('=')[0]}: flags follow the "
                     f"kind, as in: snn {argv[0]} <kind> {argv[1]} ...")
    args = parser.parse_args(argv)
    if args.command == "eval":
        has_pair = args.a is not None and args.b is not None
        if (args.input is None) == (not has_pair):
            parser.error("eval needs either --input or both --a and --b")
        if args.input is not None and args.layout is not None:
            parser.error("eval reads --layout only with --a and --b")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"snn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
