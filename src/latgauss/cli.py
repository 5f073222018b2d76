"""Command-line entry points.

Verbs: gen-lattice, preprocess, decode, reduce, experiment, verify. All
output is plain text or CSV. Exit status is 1 when an experiment assertion
or a verification verdict fails, and 2 on bad input or when a search runs
past the enumeration node budget. The environment variable LATGAUSS_BUDGET
sets that budget (10,000,000 nodes per search by default).
"""

from __future__ import annotations

import argparse
import sys

from ._validation import as_float_vector, as_fraction_vector
from .decoder import BddDecoder, FrameAbort
from .enumeration import BudgetExceeded
from .experiments import parse_config, run_experiment
from .generators import generate_lattice
from .lattice import format_basis, read_basis, write_basis
from .reductions import (
    KannanReducer,
    MasterReducer,
    PromiseReducer,
    SparsifyReducer,
    bdd_inner,
    oracle_inner,
)
from .verify import verify_suite


def _cmd_gen_lattice(args):
    basis = generate_lattice(args.spec, args.seed)
    if args.out:
        write_basis(args.out, basis)
    else:
        sys.stdout.write(format_basis(basis))
    return 0


def _cmd_preprocess(args):
    basis = read_basis(args.lattice)
    dec = BddDecoder(args.eps, n_advice=args.n_advice, seed=args.seed)
    dec.fit(basis)
    dec.save(args.out)
    print(f"advice written to {args.out}")
    print(f"decoding radius = {dec.radius_!r}")
    print(f"iterations = {dec.iterations_}")
    return 0


def _cmd_decode(args):
    dec = BddDecoder.load(args.advice)
    target = as_fraction_vector(args.target.replace(",", " ").split(), dec.basis_.ambient)
    res = dec.decode(as_float_vector(target), trace=args.trace)
    print("vector = " + " ".join(str(x) for x in res.vector))
    if res.coeffs is not None:
        print("coeffs = " + " ".join(str(c) for c in res.coeffs))
    print(f"status = {res.status}")
    print(f"iterations = {res.iterations_run}")
    if res.note:
        print(f"note = {res.note}")
    if args.trace:
        print("step,norm,f")
        for i, (norm, val) in enumerate(res.trace):
            print(f"{i},{norm!r},{val!r}")
    return 0


def _cmd_reduce(args):
    basis = read_basis(args.lattice)
    target = as_fraction_vector(args.target.replace(",", " ").split(), basis.ambient)
    if args.inner == "oracle":
        inner = oracle_inner()
    else:
        inner = bdd_inner(alpha=args.alpha, seed=args.seed)
    if args.scheme == "kannan":
        red = KannanReducer(alpha=args.alpha, inner=inner)
    elif args.scheme == "master":
        red = MasterReducer(g=args.g, h=args.h, alpha=args.alpha, inner=inner)
    elif args.scheme == "promise":
        red = PromiseReducer(inner=inner)
    else:
        red = SparsifyReducer(tau=args.tau, inner=inner, mode=args.mode,
                              trials=args.trials, seed=args.seed)
    out = red.fit(basis).reduce(target)
    sparsify = args.scheme == "sparsify"
    print("vector = " + " ".join(str(x) for x in (out.vector if sparsify else out)))
    if sparsify:
        print(f"solver_hit = {int(out.ok)}")
        print(f"trials = {out.trials}")
    return 0


def _cmd_experiment(args):
    with open(args.config, encoding="ascii") as fh:
        cfg = parse_config(fh.read())
    report = run_experiment(cfg)
    csv_text = report.csv()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_verify(args):
    verdicts = verify_suite(advice_path=args.advice)
    for v in verdicts:
        print(v.line())
    return 0 if all(v.ok for v in verdicts) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="latgauss",
        description="Lattice decoding with periodic Gaussian gradient ascent",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-lattice", help="write a generated lattice basis")
    p.add_argument("--spec", required=True,
                   help="kind:rank[,key=value...], e.g. random-integer:4,bound=10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(run=_cmd_gen_lattice)

    p = sub.add_parser("preprocess", help="fit decoding advice for a lattice")
    p.add_argument("--lattice", required=True, help="basis file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-advice", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="decoder state file")
    p.set_defaults(run=_cmd_preprocess)

    p = sub.add_parser("decode", help="decode a target with saved advice")
    p.add_argument("--advice", required=True, help="decoder state file")
    p.add_argument("--target", required=True, help="comma-separated coordinates")
    p.add_argument("--trace", action="store_true",
                   help="record and print the ascent trace (one more pass over the advice)")
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser("reduce", help="approximate CVP through promise queries")
    p.add_argument("scheme", choices=("kannan", "master", "promise", "sparsify"))
    p.add_argument("--lattice", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--inner", choices=("oracle", "bdd"), default="oracle")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--mode", choices=("paper", "oracle"), default="paper")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", help="CSV output file (stdout when omitted)")
    p.set_defaults(run=_cmd_experiment)

    p = sub.add_parser("verify", help="run the release-gate checks")
    p.add_argument("--advice", help="decoder state file to validate")
    p.set_defaults(run=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, FrameAbort, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
