"""Batch command line: derive / simulate / train / track / tunes / check.

Every command reads and writes files and returns a summary line; main
digests the files it reads first, then writes a manifest next to the
primary output (same stem, `.manifest.json`) and prints the summary.  Exit
code 0 means all outputs were written and finite; parse errors, divergence,
and invalid inputs exit 1 with one `error:` line on stderr.  No plotting.
"""

import argparse
import functools
import inspect
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import tmnet
from tmnet import io, lattice, maps, network, ode, systems


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param needs k=v, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError as exc:
            raise ValueError(f"--param {key.strip()} must be a number, got {value!r}") from exc
    return params


def _parse_x0(text: str) -> np.ndarray:
    try:
        X0 = np.array([float(f) for f in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"--x0 must be comma-separated numbers, got {text!r}") from exc
    if not np.all(np.isfinite(X0)):
        raise ValueError(f"--x0 must be finite, got {text!r}")
    return X0


def _resolve_system(args) -> ode.PolynomialODE:
    """The generating ODE from --system/--param or --ode."""
    if args.param and not args.system:
        raise ValueError("--param needs --system")
    if args.system:
        if args.system not in systems.SYSTEMS:
            known = ", ".join(sorted(systems.SYSTEMS))
            raise ValueError(f"unknown system {args.system!r} (known: {known})")
        factory = systems.SYSTEMS[args.system]
        params = _parse_params(args.param)
        known = list(inspect.signature(factory).parameters)
        unknown = sorted(params.keys() - set(known))
        if unknown:
            raise ValueError(f"unknown parameter {unknown[0]!r} for system {args.system!r} "
                             f"(known: {', '.join(known) or 'none'})")
        return factory(**params)
    if args.ode:
        return io.load_ode(args.ode)
    raise ValueError("need --system NAME or --ode path")


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def _emit_manifest(args: argparse.Namespace, inputs: dict, started: float) -> None:
    parameters = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        parameters[key] = value
    manifest = io.RunManifest(
        command=args.command,
        parameters=parameters,
        inputs=inputs,
        seed=getattr(args, "seed", None),
        tool_version=tmnet.__version__,
        duration_seconds=time.time() - started,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    io.write_manifest(manifest, _manifest_path(Path(args.out)))


def cmd_derive(args) -> str:
    system = _resolve_system(args)
    substeps = maps._count("--substeps", args.substeps, 1)
    tm = ode.ode_to_map(system, ode.FlowConfig(args.dt, substeps=substeps))
    out = Path(args.out)
    io.save_map(tm, out)
    return f"derived order-{tm.order} map (dim {tm.dim}) -> {out}"


# RK4 substeps per --dt step of the `simulate --oracle` reference columns
ORACLE_SUBSTEPS = 100


def cmd_simulate(args) -> str:
    maps._count("--steps", args.steps, 1)
    X0 = _parse_x0(args.x0)
    if args.map:
        # flags that would do nothing are refused, not recorded in the manifest
        if args.substeps is not None:
            raise ValueError("--map takes no --substeps: they set the derivation "
                             "from --system/--ode")
        if args.dt is not None and not args.oracle:
            raise ValueError("--map takes --dt only with --oracle")
        tm = io.load_map(args.map)
        system = _resolve_system(args) if args.system or args.ode or args.param else None
        if system is not None and not args.oracle:
            raise ValueError("--map takes --system, --ode and --param only with --oracle")
    else:
        system = _resolve_system(args)
        if args.dt is None:
            raise ValueError("simulating from an ODE needs --dt")
        args.substeps = maps._count(
            "--substeps", 1000 if args.substeps is None else args.substeps, 1)
        tm = ode.ode_to_map(system, ode.FlowConfig(args.dt, substeps=args.substeps))
    if X0.shape != (tm.dim,):
        raise ValueError(f"--x0 has {X0.size} components, map has dim {tm.dim}")

    predicted = network.predict_trajectory(
        network.build_shared_chain(tm, args.steps), X0
    )
    states = np.vstack([X0[np.newaxis, :], predicted])
    extra = None
    if args.oracle:
        if system is None:
            raise ValueError("--oracle needs the generating ODE (--system/--ode)")
        if args.dt is None:
            raise ValueError("--oracle needs --dt")
        ref = ode.reference_trajectory(system, X0, args.dt, args.steps, ORACLE_SUBSTEPS)
        # --substeps sets the derivation only; the manifest records both
        args.oracle_substeps = ORACLE_SUBSTEPS
        extra = {f"ref_x{i + 1}": ref[:, i] for i in range(ref.shape[1])}
    out = Path(args.out)
    io.write_trajectory(states, out, extra=extra)
    return f"simulated {args.steps} steps -> {out}"


def cmd_train(args) -> str:
    obs = io.read_observations(args.obs)
    if args.map:
        if args.dim is not None or args.order is not None:
            raise ValueError("--map and --dim/--order both set the initial map; give one")
        tm = io.load_map(args.map)
    else:
        if args.dim is None or args.order is None:
            raise ValueError("need --map, or --dim and --order for identity init")
        tm = maps.identity_map(args.dim, args.order)
    layers = max(obs.taps) if args.layers is None else maps._count("--layers", args.layers, 1)
    net = network.build_shared_chain(tm, layers)
    X0 = _parse_x0(args.x0)
    degrees = None
    if args.train_degrees:
        try:
            degrees = tuple(int(d) for d in args.train_degrees.split(","))
        except ValueError as exc:
            raise ValueError(f"--train-degrees must be comma-separated integers, "
                             f"got {args.train_degrees!r}") from exc
    cfg = network.TrainConfig(
        step_size=args.lr, clip_norm=args.clip,
        epochs=maps._count("--epochs", args.epochs, 0),
        penalty_rate=getattr(args, "lambda"),
        schedule=args.schedule, train_degrees=degrees,
        teacher_forcing=args.teacher_forcing,
    )
    trained, report = network.train_one_shot(net, X0, obs, cfg)
    out = Path(args.out)
    io.save_map(trained.group_maps[0], out)
    io.write_loss_history(report, out.with_name(out.stem + ".loss.csv"))
    if args.epochs > 0:
        return (f"trained {args.epochs} epochs: loss {report.total[0]:.6e} -> "
                f"{report.total[-1]:.6e} -> {out}")
    return f"trained 0 epochs: weights unchanged -> {out}"


def cmd_track(args) -> str:
    lat = io.load_lattice(args.lattice)
    X0 = _parse_x0(args.x0)
    series = lattice.multi_turn(lat, X0, maps._count("--turns", args.turns, 1))
    out = Path(args.out)
    io.write_turn_series(series, out)
    return f"tracked {args.turns} turns -> {out}"


def cmd_tunes(args) -> str:
    series = io.read_turn_series(args.series)
    est = lattice.estimate_tunes(series)
    out = Path(args.out)
    io._dump_json(
        {"qx": est.qx, "qy": est.qy,
         "degenerate_x": est.degenerate_x, "degenerate_y": est.degenerate_y},
        out,
    )
    return (f"Qx={est.qx:.6f}{' (degenerate)' if est.degenerate_x else ''} "
            f"Qy={est.qy:.6f}{' (degenerate)' if est.degenerate_y else ''}")


def cmd_check(args) -> str:
    tm = io.load_map(args.map)
    by_degree = [float(np.max(np.abs(c))) for c in maps.symplectic_residual(tm)]
    report = {
        "dim": tm.dim,
        "order": tm.order,
        "penalty": maps.symplectic_penalty(tm),
        "max_abs_residual": max(by_degree),
        "max_abs_by_degree": by_degree,
    }
    out = Path(args.out)
    io._dump_json(report, out)
    return (f"symplectic penalty {report['penalty']:.6e} "
            f"(max residual {report['max_abs_residual']:.6e})")


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--system", help="built-in system name")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="system parameter override (repeatable)")
    source.add_argument("--ode", help="path to a polynomial-ODE JSON spec")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, in subcommands too, raise ValueError
    for main to report on one line, instead of printing the usage and
    exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The tmnet parser, built once per process: parse_args fills a fresh
    namespace on every call, so no argument carries over."""
    parser = _Parser(
        prog="tmnet",
        description="Polynomial Taylor-map models of dynamical systems: "
                    "derive from ODEs, simulate, fine-tune from one trajectory, "
                    "track rings, estimate tunes.",
    )
    parser.add_argument("--version", action="version", version=tmnet.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="build a Taylor map from a polynomial ODE")
    _add_system_flags(p)
    p.add_argument("--dt", type=float, required=True, help="map time step")
    p.add_argument("--substeps", type=int, default=1000)
    p.add_argument("--out", required=True, help="output map JSON path")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", help="iterate a map (optionally vs RK4 reference)")
    p.add_argument("--map", help="map JSON (otherwise derive from --system/--ode)")
    _add_system_flags(p)
    p.add_argument("--dt", type=float, help="step for deriving / oracle reference")
    p.add_argument("--substeps", type=int,
                   help="RK4 substeps of the map derivation (default 1000); the "
                        f"--oracle reference always runs {ORACLE_SUBSTEPS}")
    p.add_argument("--x0", required=True, help="initial state a,b,...")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="append dense RK4 reference columns")
    p.add_argument("--out", required=True, help="output trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fine-tune a shared-map chain on observations")
    p.add_argument("--map", help="initial map JSON")
    p.add_argument("--dim", type=int, help="identity init: state dimension")
    p.add_argument("--order", type=int, help="identity init: map order")
    p.add_argument("--layers", type=int, help="chain length (default: last tap)")
    p.add_argument("--obs", required=True, help="observations CSV")
    p.add_argument("--x0", required=True, help="known initial state a,b,...")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip", type=float, default=1.0)
    p.add_argument("--schedule", choices=("constant", "cosine"),
                   default="constant", help="learning-rate schedule")
    p.add_argument("--train-degrees", default="",
                   help="comma list of weight degrees to update (default all)")
    p.add_argument("--teacher-forcing", action="store_true",
                   help="fit one-step pairs of a fully observed series")
    p.add_argument("--lambda", type=float, default=1e-10, dest="lambda",
                   help="symplectic penalty rate")
    p.add_argument("--seed", type=int, default=0,
                   help="label recorded in the manifest; training is deterministic")
    p.add_argument("--out", required=True, help="output tuned-map JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="multi-turn tracking of a ring lattice")
    p.add_argument("--lattice", required=True, help="lattice JSON")
    p.add_argument("--x0", required=True, help="initial state x,xp,y,yp")
    p.add_argument("--turns", type=int, required=True)
    p.add_argument("--out", required=True, help="output turn-series CSV path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("tunes", help="main per-plane frequencies of a turn series")
    p.add_argument("--series", required=True, help="turn-series CSV")
    p.add_argument("--out", required=True, help="output tunes JSON path")
    p.set_defaults(func=cmd_tunes)

    p = sub.add_parser("check", help="symplectic-penalty report for a map")
    p.add_argument("--map", required=True, help="map JSON")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    started = time.time()
    try:
        args = build_parser().parse_args(argv)
        # the files a command reads, digested before its --out can overwrite one
        files = (getattr(args, flag, None) for flag in ("map", "ode", "obs", "lattice", "series"))
        inputs = {path: io.sha256_file(path) for path in files if path}
        message = args.func(args)
        _emit_manifest(args, inputs, started)
    except (ValueError, KeyError, OSError,
            ode.FlowDivergenceError, network.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0

if __name__ == "__main__":
    sys.exit(main())
