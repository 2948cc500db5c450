"""Command-line surface: gen, fit, explain, verify, bench, rank-sweep.

Every option a config file may set is declared once, by ``_option``, with
its default (``REQUIRED`` for --model, --instances and --teacher), its
smallest accepted value and its argparse type and choices; a config file
fills the options the command line leaves unset, and may set every option
but --out, --config and --manifest. A path option (--model, --instances,
--teacher, --report) has type ``str`` and takes only a JSON string from a
config file. --out is required by every command but
verify. ``main`` hands each command a ``_Run``: the resolved options and
config, the wall time of each named phase, and the manifest writer.

Standard output carries only data (the verify report when no --out is
given); diagnostics go to stderr at the level selected by the TNSHAP_LOG
environment variable (error, info, debug). Every run writes a JSON manifest
recording the resolved configuration, seeds, paths, forward counts, and
per-phase wall times. Exit codes: 0 success, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import itertools
import json
import logging
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, attribute, fit, model_io, oracle
from .tensor_net import cut_rank

logger = logging.getLogger("tnshap.cli")

VERIFY_TOLERANCE = 1e-7
# the largest n verify and rank-sweep accept: their oracle costs 2^n forwards
ORACLE_MAX_FEATURES = 16
MANIFEST_VERSION = 1
# A bench repeat times ceil(BENCH_CALL_FEATURES / n) back-to-back explain calls
# and reports their mean. Order-1 time grows about linearly in n, so every
# repeat lasts about as long (2.4-4 ms at rank 16, n = 16..256, on a 2.0 GHz
# Xeon core with one BLAS thread), well above timer and host noise; fixing
# the count by n rather than by a timing probe keeps the bench JSON
# reproducible apart from its times.
BENCH_CALL_FEATURES = 256
# ``explain`` attributes and writes its instances in blocks of about this many
# values (rows x C(n, k), at least one row each), so its memory does not grow
# with the instance file
EXPLAIN_BLOCK_VALUES = 1 << 16
# the default of an option that the command line or the config file must set
REQUIRED = object()


class InputError(Exception):
    """Bad user input: malformed files, out-of-range arguments."""


def _setup_logging() -> None:
    level_name = os.environ.get("TNSHAP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown TNSHAP_LOG level {level_name!r}; using error",
              file=sys.stderr)
        level_name = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s", force=True)


def _read_instances_csv(path, n: int) -> np.ndarray:
    """Instance CSV: header f1..fn, one raw instance per row, with or without
    the UTF-8 byte-order mark spreadsheets write. Values are parsed a row at a
    time into one float64 buffer, 8 bytes each, and checked for finiteness in
    one pass (``_check_finite``)."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot open instances file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty instances file") from None
        expected = [f"f{i}" for i in range(1, n + 1)]
        if [h.strip() for h in header] != expected:
            raise InputError(
                f"{path} line 1: expected header {','.join(expected)}, "
                f"got {','.join(header)}"
            )
        values = array.array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                _check_finite(path, values, n)
                raise InputError(
                    f"{path} line {lineno}: expected {n} values, got {len(row)}"
                )
            try:
                values.extend([float(v) for v in row])
            except ValueError as exc:
                _check_finite(path, values, n)
                raise InputError(f"{path} line {lineno}: {exc}") from exc
    _check_finite(path, values, n)
    if not values:
        raise InputError(f"{path}: no instance rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, n)


def _check_finite(path, values, n: int) -> None:
    """Raise the InputError for the first non-finite value among the parsed
    rows ``values`` (n per row), if any, checked in one pass; the file is
    read again only then, to name the value's line and column and give its
    text as written. Called before a malformed line's error too, as the rows
    before it come first."""
    bad = np.flatnonzero(~np.isfinite(np.frombuffer(values, dtype=np.float64)))
    if not bad.size:
        return
    index, column = divmod(int(bad[0]), n)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = ((lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row)
        next(rows)  # the header
        lineno, row = next(itertools.islice(rows, index, None))
    raise InputError(f"{path} line {lineno}: non-finite value {row[column].strip()!r} "
                     f"in column f{column + 1}")


def _load_model(path):
    try:
        return model_io.load_model(path)
    except OSError as exc:
        raise InputError(f"cannot open model {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        # a TypeError here is a field of the wrong JSON type, such as "n": []
        raise InputError(f"malformed model {path}: {exc}") from exc


def _parse_int_list(text: str, what: str, lo: int) -> list:
    """Comma-separated integers, each at least ``lo``."""
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad {what} list {text!r}: {exc}") from exc
    if any(v < lo for v in values):
        raise InputError(f"{what} must be >= {lo}, got {values}")
    return values


def _parse_center(text, n: int) -> np.ndarray:
    """``--center``: n comma-separated finite numbers; the origin when unset."""
    if text is None:
        return np.zeros(n)
    try:
        center = np.asarray([float(v) for v in str(text).split(",")])
    except ValueError as exc:
        raise InputError(f"bad --center {text!r}: {exc}") from exc
    if center.shape != (n,):
        raise InputError(f"--center needs {n} values, got {center.shape[0]}")
    if not np.all(np.isfinite(center)):
        raise InputError(f"--center {text!r} has a non-finite value")
    return center


def _json_dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


@contextlib.contextmanager
def _replace_on_success(path):
    """A text file handle on a temporary sibling of ``path``, renamed over
    ``path`` when the block completes and removed when it raises, so a failed
    run leaves no partial file and an existing ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _apply_config_file(args) -> dict:
    """Overlay: config-file values fill the ``_option`` flags the command
    line left unset, and their declared defaults fill the rest; explicit
    flags win. A file value passes its flag's type and choices as if it were
    typed on the command line, and every resolved value its declared lower
    bound. Returns the resolved config dict."""
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot open config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InputError(f"config {args.config} must hold a JSON object")
    resolved = {}
    for action in args.parser._actions:
        if not hasattr(action, "fallback"):
            continue  # not an _option: --help, --out, --config, --manifest
        flag, value = action.option_strings[0], getattr(args, action.dest)
        if value is None and file_values.get(action.dest) is not None:
            value = _config_value(args.config, action, file_values[action.dest])
        elif value is None:
            value = action.fallback
        if value is REQUIRED:
            raise InputError(f"{args.command} requires {flag}")
        if action.lo is not None and value is not None and value < action.lo:
            raise InputError(f"{flag} must be >= {action.lo}, got {value}")
        setattr(args, action.dest, value)
        resolved[action.dest] = value
    return resolved


def _config_value(path, action, value):
    """A config-file value converted and checked like its command-line flag;
    a path option (``type=str``) takes only a JSON string."""
    if action.type is str and not isinstance(value, str):
        raise InputError(f"config {path}: {action.dest} must be a string, got {value!r}")
    try:
        if action.type is not None:
            value = action.type(str(value))
    except (TypeError, ValueError) as exc:
        raise InputError(f"config {path}: bad {action.dest} {value!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InputError(f"config {path}: {action.dest} {value!r} not in {action.choices}")
    return value


class _Run:
    """One command's run: its ``args`` with every option resolved, the
    resolved ``config``, and the wall time of each named phase."""

    def __init__(self, args):
        self.args = args
        self.config = _apply_config_file(args)
        if args.out is None and args.command != "verify":
            raise InputError(f"{args.command} requires --out")
        self.phases = {}

    @contextlib.contextmanager
    def phase(self, *names):
        """Add the wall time of the block to each named phase."""
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        for name in names:
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def write_manifest(self, inputs, outputs, forward_counts, **extra) -> None:
        """The manifest at --manifest, else beside --out, else in the working
        directory; ``extra`` entries follow the common ones."""
        args = self.args
        path = args.manifest or (
            f"{args.out}.manifest.json" if args.out else "tnshap-manifest.json")
        _json_dump(path, {
            "version": MANIFEST_VERSION,
            "command": args.command,
            "argv": args.argv,
            "config": self.config,
            "seed": args.seed,
            "library_version": __version__,
            "inputs": list(inputs),
            "outputs": list(outputs),
            "forward_counts": forward_counts,
            "phase_wall_times_s": self.phases,
            **extra,
        })


def cmd_gen(run) -> int:
    args = run.args
    gen = fit.gen_cp_teacher if args.kind == "cp" else fit.gen_tree_teacher
    with run.phase("generate"):
        model, lifts = gen(args.n, args.rank, args.seed)
    with run.phase("emit"):
        model_io.save_model(args.out, model, lifts)
    run.write_manifest([], [args.out], {"generation": model.forward_count})
    return 0


def _fit_config(args, **overrides) -> fit.FitConfig:
    """The ``FitConfig`` of the resolved fit flags, with ``overrides`` for
    fields that have no flag of their own; an invalid one is an input error
    that names the flag."""
    values = {f.name: getattr(args, f.name) for f in fields(fit.FitConfig)
              if f.name not in overrides}
    try:
        return fit.FitConfig(**values, **overrides)
    except ValueError as exc:
        # every FitConfig message starts with the field's name
        name, _, rest = str(exc).partition(" ")
        raise InputError(f"--{name.replace('_', '-')} {rest}") from exc


def cmd_fit(run) -> int:
    args = run.args
    with run.phase("load"):
        teacher, lifts = _load_model(args.teacher)
        center = _parse_center(args.center, teacher.n)
        fit_config = _fit_config(args)
    # "fit" is the sum of "build" and "als"
    with run.phase("fit", "build"):
        before = teacher.forward_count
        training = fit.build_training_set(teacher, lifts, center, fit_config)
        teacher_calls = teacher.forward_count - before
    with run.phase("fit", "als"):
        student, report = fit.fit_student(training, fit_config, lifts)
    with run.phase("emit"):
        model_io.save_model(args.out, student, lifts)
        report_path = args.report or f"{args.out}.report.json"
        _json_dump(report_path, report.to_json_dict())
    run.config["center"] = center.tolist()
    run.config["fit_config"] = fit_config.to_json_dict()
    run.write_manifest([args.teacher], [args.out, report_path],
                       {"teacher_calls": teacher_calls},
                       numerical_health=report.numerical_health())
    logger.info("fit: train R^2 %.6f in %d sweeps", report.train_r2, report.sweeps_used)
    return 0


def _nonfinite(values) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


def cmd_explain(run) -> int:
    args = run.args
    k = args.order
    with run.phase("load"):
        model, lifts = _load_model(args.model)
        instances = _read_instances_csv(args.instances, model.n)
        if not 1 <= k <= model.n:
            raise InputError(f"order {k} out of range 1..{model.n}")
    rows = max(1, EXPLAIN_BLOCK_VALUES // math.comb(model.n, k))
    total_forwards = nonfinite = 0
    with _replace_on_success(args.out) as fh:
        for start in range(0, len(instances), rows):
            block_start = time.perf_counter()
            with run.phase("attribution"):
                results = attribute.explain_batch(model, lifts, instances[start : start + rows],
                                                  k, mode=args.mode)
                block_forwards = 0
                for idx, res in enumerate(results, start):
                    if isinstance(res, Exception):
                        raise InputError(f"instance {idx}: {res}")
                    bad = _nonfinite(res.values)
                    logger.debug("instance %d: %d forwards, %d non-finite values",
                                 idx, res.forwards_used, bad)
                    block_forwards += res.forwards_used
                    nonfinite += bad
            with run.phase("emit"):
                attribute.write_attribution_csv(fh, [[res] for res in results], start)
            logger.debug("block %d: %d rows, %d forwards, %.3f ms", start // rows, len(results),
                         block_forwards, (time.perf_counter() - block_start) * 1e3)
            if start == 0:
                per_instance = results[0].forwards_used
            total_forwards += block_forwards
    run.write_manifest([args.model, args.instances], [args.out],
                       {"attribution": total_forwards, "per_instance": per_instance},
                       numerical_health={"nonfinite_values": nonfinite},
                       blocks=-(-len(instances) // rows))
    return 0


def cmd_verify(run) -> int:
    args = run.args
    max_order = args.max_order
    with run.phase("load"):
        model, lifts = _load_model(args.model)
        if model.n > ORACLE_MAX_FEATURES:
            raise InputError(f"verify needs n <= {ORACLE_MAX_FEATURES} for enumeration, "
                             f"model has n={model.n}")
        instances = _read_instances_csv(args.instances, model.n)
        if not 1 <= max_order <= model.n:
            raise InputError(f"max order {max_order} out of range 1..{model.n}")

    oracle_forwards = 0
    probe_forwards = 0
    order_diffs = {k: 0.0 for k in range(1, max_order + 1)}
    with run.phase("verify"):
        for x in instances:
            table = oracle.enumerate_game(model, lifts, x)
            oracle_forwards += table.forwards_used
            for k in range(1, max_order + 1):
                truth = oracle.exact_sii(table, k)
                probed = attribute.explain(model, lifts, x, k)
                probe_forwards += probed.forwards_used
                diff = float(np.max(np.abs(truth.values - probed.values)))
                order_diffs[k] = max(order_diffs[k], diff)

    orders_report = {
        str(k): {"max_abs_diff": d, "pass": bool(d <= VERIFY_TOLERANCE)}
        for k, d in order_diffs.items()
    }
    all_pass = all(entry["pass"] for entry in orders_report.values())
    report = {
        "version": 1,
        "n": model.n,
        "instances": int(instances.shape[0]),
        "tolerance": VERIFY_TOLERANCE,
        "orders": orders_report,
        "pass": all_pass,
    }
    if args.out:
        _json_dump(args.out, report)
    else:
        json.dump(report, sys.stdout, indent=1)
        sys.stdout.write("\n")
    run.write_manifest([args.model, args.instances], [args.out] if args.out else [],
                       {"oracle": oracle_forwards, "probes": probe_forwards})
    return 0 if all_pass else 1


def cmd_bench(run) -> int:
    args = run.args
    with run.phase("setup"):
        dims = _parse_int_list(str(args.dims), "dims", 1)
        if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
            raise InputError(f"dims must be strictly ascending, got {dims}")

    with run.phase("attribution"):
        cases = []
        for n in dims:
            teacher, lifts = fit.gen_tree_teacher(n, args.rank, seed=args.seed + n)
            x = np.random.default_rng(args.seed + n + 1).uniform(-1.0, 1.0, n)
            aset = attribute.explain(teacher, lifts, x, 1)  # warmup
            cases.append((n, teacher, lifts, x, aset.forwards_used,
                          -(-BENCH_CALL_FEATURES // n)))
        # repeats go round-robin over the dims, so a slow spell of the host
        # falls on every dim's samples instead of shifting one dim's median
        times = {n: [] for n in dims}
        for _ in range(args.repeats):
            for n, teacher, lifts, x, _forwards, calls in cases:
                start = time.perf_counter()
                for _ in range(calls):
                    attribute.explain(teacher, lifts, x, 1)
                times[n].append((time.perf_counter() - start) / calls * 1e3)
        rows = []
        for n, teacher, _lifts, _x, forwards, calls in cases:
            times_ms = times[n]
            rows.append({
                "n": n,
                "cut_rank": cut_rank(teacher.topology),
                "forwards_per_instance": forwards,
                "calls_per_repeat": calls,
                "mean_ms": float(np.mean(times_ms)),
                "std_ms": float(np.std(times_ms)),
                "median_ms": float(np.median(times_ms)),
                "times_ms": times_ms,
            })
            logger.info("bench n=%d: median %.3f ms, %d forwards", n,
                        rows[-1]["median_ms"], forwards)

    with run.phase("emit"):
        _json_dump(args.out, {"version": 1, "rank": args.rank, "repeats": args.repeats,
                              "rows": rows})
    run.write_manifest([], [args.out], {"per_instance_by_dim": {
        str(r["n"]): r["forwards_per_instance"] for r in rows}})
    return 0


def _aggregate_sweep(cells) -> list:
    by_rank = {}
    for cell in cells:
        by_rank.setdefault(cell["rank"], []).append(cell)
    aggregate = []
    for rank in sorted(by_rank):
        ok = [c for c in by_rank[rank] if c["error"] is None]
        entry = {"rank": rank, "cells": len(by_rank[rank]), "failures": len(by_rank[rank]) - len(ok)}
        if ok:
            train = [c["report"].train_r2 for c in ok]
            entry["train_r2_mean"] = float(np.mean(train))
            entry["train_r2_std"] = float(np.std(train))
            orders = sorted(ok[0]["report"].orders)
            entry["order_r2_mean"] = {}
            entry["order_r2_std"] = {}
            for k in orders:
                vals = [c["report"].orders[k].r2 for c in ok
                        if c["report"].orders[k].r2 is not None]
                if vals:
                    entry["order_r2_mean"][str(k)] = float(np.mean(vals))
                    entry["order_r2_std"][str(k)] = float(np.std(vals))
        aggregate.append(entry)
    return aggregate


def cmd_rank_sweep(run) -> int:
    args = run.args
    with run.phase("setup"):
        teacher, lifts = _load_model(args.teacher)
        if teacher.n > ORACLE_MAX_FEATURES:
            raise InputError(f"rank-sweep needs n <= {ORACLE_MAX_FEATURES} for the oracle, "
                             f"got n={teacher.n}")
        ranks = _parse_int_list(str(args.ranks), "ranks", 1)
        seeds = _parse_int_list(str(args.seeds), "seeds", 0)
        if not ranks or not seeds:
            raise InputError("rank-sweep needs at least one rank and one seed")
        center = _parse_center(args.center, teacher.n)
        if args.max_order > teacher.n:
            raise InputError(f"max order {args.max_order} out of range 1..{teacher.n}")
        orders = tuple(range(1, args.max_order + 1))
        base_config = _fit_config(args, bond_dim=max(ranks))
        eval_rng = np.random.default_rng(args.seed + 1)
        eval_instances = eval_rng.uniform(-1.0, 1.0, size=(args.eval_points, teacher.n))

    with run.phase("sweep"):
        cells = fit.rank_sweep(teacher, lifts, center, base_config, ranks, seeds,
                               eval_instances, orders)

    with run.phase("emit"):
        _json_dump(args.out, {
            "version": 1,
            "teacher": str(args.teacher),
            "ranks": ranks,
            "seeds": seeds,
            "cells": [{**c, "report": None if c["report"] is None
                       else c["report"].to_json_dict()} for c in cells],
            "aggregate": _aggregate_sweep(cells),
        })
    run.write_manifest([args.teacher], [args.out], {"teacher_total": teacher.forward_count})
    return 0


def _option(parser, *names, default=None, lo=None, **kwargs) -> None:
    """Declare a flag that a config file may set too. ``default`` applies
    when neither sets it (``REQUIRED``: one of them must); ``lo`` is the
    smallest value either may give. Commands check the bounds that depend
    on the model."""
    action = parser.add_argument(*names, **kwargs)
    action.fallback, action.lo = default, lo


def _add_common(parser) -> None:
    _option(parser, "--seed", type=int, default=0, lo=0, help="base RNG seed")
    parser.add_argument("--out", help="primary output path")
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    parser.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")


def _add_fit_flags(parser, defaults: fit.FitConfig) -> None:
    """The training flags ``fit`` and ``rank-sweep`` share, defaulting to
    the fields of ``defaults``."""
    _option(parser, "--center", help="comma-separated center point")
    _option(parser, "--topology", choices=["tt", "btree"], default=defaults.topology)
    _option(parser, "--neighborhood", type=int, default=defaults.neighborhood, lo=0)
    _option(parser, "--sigma-frac", type=float, default=defaults.sigma_frac)
    _option(parser, "--max-sweeps", type=int, default=defaults.max_sweeps, lo=1)
    _option(parser, "--tol", type=float, default=defaults.tol)


def build_parser(command) -> argparse.ArgumentParser:
    """The parser with every subcommand registered, and the arguments of
    ``command`` only: argparse formats each argument it adds, so the others
    would cost time without changing what it parses or prints."""
    parser = argparse.ArgumentParser(
        prog="tnshap",
        description="Exact Shapley values and interactions on tensor-network "
                    "surrogates via structured probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic teacher model")
    if command == "gen":
        _option(p, "--kind", choices=["cp", "tree"], default="tree")
        _option(p, "--n", type=int, default=8, lo=1)
        _option(p, "--rank", type=int, default=3, lo=1)
        _add_common(p)
        p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("fit", help="fit a student network to a teacher model")
    if command == "fit":
        _option(p, "--teacher", type=str, default=REQUIRED)
        _option(p, "--bond-dim", type=int, default=fit.FitConfig().bond_dim, lo=1)
        _add_fit_flags(p, fit.FitConfig())
        _option(p, "--report", type=str, help="fit report path")
        _add_common(p)
        p.set_defaults(func=cmd_fit, parser=p)

    p = sub.add_parser("explain", help="compute attributions for instances")
    if command == "explain":
        _option(p, "--model", type=str, default=REQUIRED)
        _option(p, "--instances", type=str, default=REQUIRED)
        _option(p, "--order", type=int, default=1, lo=1)
        _option(p, "--mode", choices=["auto", attribute.INCLUSION_EXCLUSION,
                                      attribute.SIGNED_TOGGLE], default="auto")
        _add_common(p)
        p.set_defaults(func=cmd_explain, parser=p)

    p = sub.add_parser("verify", help="check probe attributions against enumeration")
    if command == "verify":
        _option(p, "--model", type=str, default=REQUIRED)
        _option(p, "--instances", type=str, default=REQUIRED)
        _option(p, "--max-order", type=int, default=3, lo=1)
        _add_common(p)
        p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("bench", help="time order-1 attribution across dimensions")
    if command == "bench":
        _option(p, "--dims", default="10,20,30,40,50", help="comma-separated ascending dims")
        _option(p, "--rank", type=int, default=16, lo=1)
        _option(p, "--repeats", type=int, default=3, lo=1)
        _add_common(p)
        p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("rank-sweep", help="fit students across ranks and score them")
    if command == "rank-sweep":
        _option(p, "--teacher", type=str, default=REQUIRED)
        _option(p, "--ranks", default="2,4,8", help="comma-separated student ranks")
        _option(p, "--seeds", default="0", help="comma-separated fit seeds")
        _option(p, "--eval-points", type=int, default=12, lo=1)
        _option(p, "--max-order", type=int, default=3, lo=1)
        _add_fit_flags(p, fit.FitConfig(neighborhood=2048, sigma_frac=1.0, max_sweeps=40,
                                         tol=1e-12))
        _add_common(p)
        p.set_defaults(func=cmd_rank_sweep, parser=p)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first token that is not an option
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    args.argv = argv  # the manifest records the arguments this call parsed
    try:
        return args.func(_Run(args))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
