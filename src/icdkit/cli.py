"""Command line entry point: generate / run / bounds / spectrum."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from icdkit import block_angular, bounds, harness, mmio


def _add_instance_options(p):
    """The block-angular instance options shared by generate and spectrum."""
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--rows-per-block", type=int, default=60, dest="M_i")
    p.add_argument("--cols-per-block", type=int, default=20, dest="N_i")
    p.add_argument("--linking-rows", type=int, default=2, dest="ell")
    p.add_argument("--shape", choices=["tall", "wide"], default="tall")
    p.add_argument("--seed", type=int, default=0)


def _add_generate(sub):
    p = sub.add_parser("generate", help="generate a block-angular instance and write it out")
    _add_instance_options(p)
    p.add_argument("--nnz-per-col", type=int, default=20)
    p.add_argument("--d-fill", type=float, default=0.1)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--prefix", default="instance")


def _add_run(sub):
    p = sub.add_parser("run", help="run the experiment described by a config file")
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("--no-files", action="store_true", help="skip CSV emission")


def _add_bounds(sub):
    p = sub.add_parser("bounds", help="evaluate iteration-complexity bounds")
    p.add_argument("--theorem", required=True, choices=list(bounds.THEOREMS))
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--xi0", type=float, default=1.0)
    p.add_argument("--n", type=int)
    p.add_argument("--radius-squared", type=float, dest="R2")
    p.add_argument("--mu-f", type=float, dest="mu_f")
    p.add_argument("--mu-psi", type=float, default=0.0, dest="mu_psi")


def _add_spectrum(sub):
    p = sub.add_parser("spectrum", help="spectrum report for a preconditioned block")
    _add_instance_options(p)
    p.add_argument("--which", choices=["PB", "PhatB", "PhatP"], default="PB")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--rho-shift", type=float, default=0.5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icdkit",
        description="inexact block coordinate descent experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_run(sub)
    _add_bounds(sub)
    _add_spectrum(sub)
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except (ValueError, OSError) as e:
        parser.error(str(e))
    return 0


def _dispatch(args):
    if args.command == "generate":
        spec = block_angular.GeneratorSpec(
            n=args.n, M_i=args.M_i, N_i=args.N_i, ell=args.ell,
            nnz_per_col=args.nnz_per_col, d_fill=args.d_fill,
            shape=args.shape, seed=args.seed,
        )
        mat, x_star, b = block_angular.generate(spec)
        out = harness.output_dir(args.out_dir)
        note = f"seed={args.seed} shape={args.shape}"
        mmio.write_matrix_market(os.path.join(out, f"{args.prefix}_A.mtx"), mat.assemble(), note)
        mmio.write_vector_market(os.path.join(out, f"{args.prefix}_b.mtx"), b, note)
        mmio.write_vector_market(os.path.join(out, f"{args.prefix}_xstar.mtx"), x_star, note)
        print(f"wrote {args.prefix}_A.mtx ({mat.M}x{mat.N}), b and x* to {out}")

    elif args.command == "run":
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
        summaries, _ = harness.run_experiment(cfg, write_files=not args.no_files)
        for method, s in summaries.items():
            print(
                f"{method}: runs={len(s.block_updates)} "
                f"block_updates={s.mean_block_updates:.1f} "
                f"inner_iters={s.mean_inner_iterations:.1f} "
                f"time={s.mean_wall_time:.3f}s "
                f"failures={len(s.failures)}"
            )
            for fail in s.failures:
                print(f"  failure: {fail}")

    elif args.command == "bounds":
        row = harness.bounds_report(
            args.theorem, args.eps, args.rho, args.alpha, args.beta,
            args.xi0, n=args.n, R2=args.R2, mu_f=args.mu_f, mu_psi=args.mu_psi,
        )
        print(json.dumps(row, default=_json_default, indent=2))

    else:  # spectrum
        spec = block_angular.GeneratorSpec(
            n=args.n, M_i=args.M_i, N_i=args.N_i, ell=args.ell,
            shape=args.shape, seed=args.seed,
        )
        mat, _, _ = block_angular.generate(spec)
        rep = block_angular.spectrum_report(
            mat, args.block, args.which, rho_shift=args.rho_shift
        )
        payload = {
            "which": rep.which,
            "rank_D": rep.rank_D,
            "rank_A": rep.rank_A,
            "counts": rep.counts,
            "trace_lhs": rep.trace_lhs,
            "trace_rhs": rep.trace_rhs,
            "trace_bound": rep.trace_bound,
            "eigenvalues": rep.eigenvalues.tolist(),
        }
        print(json.dumps(payload, default=_json_default, indent=2))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


if __name__ == "__main__":
    sys.exit(main())
