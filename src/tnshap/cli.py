"""Command-line surface: gen, fit, explain, verify, bench, rank-sweep.

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
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__, attribute, fit, model_io, oracle
from .tensor_net import cut_rank

logger = logging.getLogger("tnshap.cli")

VERIFY_TOLERANCE = 1e-7
MANIFEST_VERSION = 1
# A bench repeat times ceil(BENCH_CALL_FEATURES / n) back-to-back explain calls
# and reports their mean. Order-1 time grows about linearly in n, so every
# repeat lasts about as long (20-30 ms on a 2.0 GHz Xeon core), well above
# timer and host noise; fixing the count by n rather than by a timing probe
# keeps the bench JSON reproducible apart from its times.
BENCH_CALL_FEATURES = 256
# ``explain`` attributes and writes its instances in blocks of about this many
# values (rows x C(n, k), at least one row each), so its memory does not grow
# with the instance file
EXPLAIN_BLOCK_VALUES = 1 << 16
# smallest accepted value of each integer flag, from the command line or a
# config file; the commands check upper bounds that depend on the model
MIN_FLAG_VALUE = {
    "n": 1, "rank": 1, "seed": 0, "bond_dim": 1, "neighborhood": 0, "probe_nodes": 1,
    "max_sweeps": 1, "order": 1, "max_order": 1, "repeats": 1, "eval_points": 1,
}


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
    """Instance CSV: header f1..fn, one raw instance per row. Values are
    parsed a row at a time into one float64 buffer, 8 bytes each."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
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
                raise InputError(
                    f"{path} line {lineno}: expected {n} values, got {len(row)}"
                )
            try:
                parsed = [float(v) for v in row]
            except ValueError as exc:
                raise InputError(f"{path} line {lineno}: {exc}") from exc
            bad = [i for i, v in enumerate(parsed, start=1) if not math.isfinite(v)]
            if bad:
                raise InputError(
                    f"{path} line {lineno}: non-finite value {row[bad[0] - 1].strip()!r} "
                    f"in column f{bad[0]}"
                )
            values.extend(parsed)
    if not values:
        raise InputError(f"{path}: no instance rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, n)


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
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _write_manifest(path, command, config, seed, inputs, outputs,
                    forward_counts, phases, numerical_health=None, blocks=None) -> None:
    manifest = {
        "version": MANIFEST_VERSION,
        "command": command,
        "argv": list(sys.argv[1:]) if sys.argv else [],
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "forward_counts": forward_counts,
        "phase_wall_times_s": phases,
    }
    if numerical_health is not None:
        manifest["numerical_health"] = numerical_health
    if blocks is not None:
        manifest["blocks"] = blocks
    _json_dump(path, manifest)


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


def _manifest_path(args, default_anchor) -> str:
    if getattr(args, "manifest", None):
        return args.manifest
    if default_anchor:
        return str(default_anchor) + ".manifest.json"
    return "tnshap-manifest.json"


def _apply_config_file(args, parser_defaults) -> dict:
    """Overlay: config-file values fill flags the user left at their default;
    explicit CLI flags win. A file value passes its flag's type and choices
    as if it were typed on the command line, and every resolved value its
    ``MIN_FLAG_VALUE`` bound. Returns the resolved config dict."""
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot open config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InputError(f"config {args.config} must hold a JSON object")
    flags = {action.dest: action for action in args.parser._actions}
    resolved = {}
    for dest, default in parser_defaults.items():
        current = getattr(args, dest)
        if current is None and file_values.get(dest) is not None:
            setattr(args, dest, _config_value(args.config, flags[dest], file_values[dest]))
        elif current is None:
            setattr(args, dest, default)
        value = resolved[dest] = getattr(args, dest)
        lo = MIN_FLAG_VALUE.get(dest)
        if lo is not None and value is not None and value < lo:
            raise InputError(f"{flags[dest].option_strings[0]} must be >= {lo}, got {value}")
    return resolved


def _config_value(path, action, value):
    """A config-file value converted and checked like its command-line flag."""
    try:
        if action.type is not None:
            value = action.type(str(value))
    except (TypeError, ValueError) as exc:
        raise InputError(f"config {path}: bad {action.dest} {value!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InputError(f"config {path}: {action.dest} {value!r} not in {action.choices}")
    return value


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    defaults = {"kind": "tree", "n": 8, "rank": 3, "seed": 0}
    config = _apply_config_file(args, defaults)
    if args.out is None:
        raise InputError("gen requires --out")
    if args.kind == "cp":
        teacher, lifts = fit.gen_cp_teacher(args.n, args.rank, args.seed)
        model = teacher.to_tensor_train()
    else:
        model, lifts = fit.gen_tree_teacher(args.n, args.rank, args.seed)
    gen_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    model_io.save_model(args.out, model, lifts)
    emit_time = time.perf_counter() - t1
    _write_manifest(
        _manifest_path(args, args.out), "gen", config, args.seed,
        inputs=[], outputs=[args.out],
        forward_counts={"generation": model.forward_count},
        phases={"generate": gen_time, "emit": emit_time},
    )
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


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    defaults = {"teacher": None, "center": None, **asdict(fit.FitConfig()), "report": None}
    config = _apply_config_file(args, defaults)
    if args.teacher is None:
        raise InputError("fit requires --teacher")
    if args.out is None:
        raise InputError("fit requires --out")
    teacher, lifts = _load_model(args.teacher)
    center = _parse_center(args.center, teacher.n)
    fit_config = _fit_config(args)
    load_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    before = teacher.forward_count
    training = fit.build_training_set(teacher, lifts, center, fit_config)
    teacher_calls = teacher.forward_count - before
    build_time = time.perf_counter() - t1
    student, report = fit.fit_student(training, fit_config, lifts)
    fit_time = time.perf_counter() - t1

    t2 = time.perf_counter()
    model_io.save_model(args.out, student, lifts)
    report_path = args.report or (str(args.out) + ".report.json")
    _json_dump(report_path, report.to_json_dict())
    emit_time = time.perf_counter() - t2
    config["center"] = center.tolist()
    _write_manifest(
        _manifest_path(args, args.out), "fit",
        {**config, "fit_config": fit_config.to_json_dict()}, args.seed,
        inputs=[args.teacher], outputs=[args.out, report_path],
        forward_counts={"teacher_calls": teacher_calls},
        phases={"load": load_time, "fit": fit_time, "build": build_time,
                "als": fit_time - build_time, "emit": emit_time},
        numerical_health=report.numerical_health(),
    )
    logger.info("fit: train R^2 %.6f in %d sweeps", report.train_r2, report.sweeps_used)
    return 0


def _nonfinite(values) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


def cmd_explain(args) -> int:
    t0 = time.perf_counter()
    defaults = {"model": None, "instances": None, "order": 1, "mode": "auto", "seed": 0}
    config = _apply_config_file(args, defaults)
    if args.model is None or args.instances is None:
        raise InputError("explain requires --model and --instances")
    if args.out is None:
        raise InputError("explain requires --out")
    model, lifts = _load_model(args.model)
    instances = _read_instances_csv(args.instances, model.n)
    k = int(args.order)
    if not 1 <= k <= model.n:
        raise InputError(f"order {k} out of range 1..{model.n}")
    mode = None if args.mode == "auto" else args.mode
    load_time = time.perf_counter() - t0

    rows = max(1, EXPLAIN_BLOCK_VALUES // math.comb(model.n, k))
    attribution_time = emit_time = 0.0
    total_forwards = nonfinite = 0
    with _replace_on_success(args.out) as fh:
        for start in range(0, len(instances), rows):
            t1 = time.perf_counter()
            results = attribute.explain_batch(model, lifts, instances[start : start + rows], k,
                                              mode=mode)
            block_forwards = 0
            for idx, res in enumerate(results, start):
                if isinstance(res, Exception):
                    raise InputError(f"instance {idx}: {res}")
                bad = _nonfinite(res.values)
                logger.debug("instance %d: %d forwards, %d non-finite values",
                             idx, res.forwards_used, bad)
                block_forwards += res.forwards_used
                nonfinite += bad
            if start == 0:
                per_instance = results[0].forwards_used
            t2 = time.perf_counter()
            attribute.write_attribution_csv(fh, [[res] for res in results], start)
            t3 = time.perf_counter()
            logger.debug("block %d: %d rows, %d forwards, %.3f ms", start // rows,
                         len(results), block_forwards, (t3 - t1) * 1e3)
            total_forwards += block_forwards
            attribution_time += t2 - t1
            emit_time += t3 - t2
    _write_manifest(
        _manifest_path(args, args.out), "explain", config, args.seed,
        inputs=[args.model, args.instances], outputs=[args.out],
        forward_counts={"attribution": total_forwards, "per_instance": per_instance},
        phases={"load": load_time, "attribution": attribution_time, "emit": emit_time},
        numerical_health={"nonfinite_values": nonfinite},
        blocks=-(-len(instances) // rows),
    )
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    defaults = {"model": None, "instances": None, "max_order": 3, "seed": 0}
    config = _apply_config_file(args, defaults)
    if args.model is None or args.instances is None:
        raise InputError("verify requires --model and --instances")
    model, lifts = _load_model(args.model)
    if model.n > 16:
        raise InputError(f"verify needs n <= 16 for enumeration, model has n={model.n}")
    instances = _read_instances_csv(args.instances, model.n)
    max_order = int(args.max_order)
    if not 1 <= max_order <= model.n:
        raise InputError(f"max order {max_order} out of range 1..{model.n}")
    load_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    oracle_forwards = 0
    probe_forwards = 0
    order_diffs = {k: 0.0 for k in range(1, max_order + 1)}
    for x in instances:
        table = oracle.enumerate_game(model, lifts, x)
        oracle_forwards += table.forwards_used
        for k in range(1, max_order + 1):
            truth = oracle.exact_sii(table, k)
            probed = attribute.explain(model, lifts, x, k)
            probe_forwards += probed.forwards_used
            diff = float(np.max(np.abs(truth.values - probed.values)))
            order_diffs[k] = max(order_diffs[k], diff)
    verify_time = time.perf_counter() - t1

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
    _write_manifest(
        _manifest_path(args, args.out), "verify", config, args.seed,
        inputs=[args.model, args.instances], outputs=[args.out] if args.out else [],
        forward_counts={"oracle": oracle_forwards, "probes": probe_forwards},
        phases={"load": load_time, "verify": verify_time},
    )
    return 0 if all_pass else 1


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    defaults = {"dims": "10,20,30,40,50", "rank": 16, "repeats": 3, "seed": 0}
    config = _apply_config_file(args, defaults)
    if args.out is None:
        raise InputError("bench requires --out")
    dims = _parse_int_list(str(args.dims), "dims", 1)
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise InputError(f"dims must be strictly ascending, got {dims}")
    repeats = int(args.repeats)
    setup_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    cases = []
    for n in dims:
        teacher, lifts = fit.gen_tree_teacher(n, int(args.rank), seed=int(args.seed) + n)
        x = np.random.default_rng(int(args.seed) + n + 1).uniform(-1.0, 1.0, n)
        aset = attribute.explain(teacher, lifts, x, 1)  # warmup
        cases.append((n, teacher, lifts, x, aset.forwards_used, -(-BENCH_CALL_FEATURES // n)))
    # repeats go round-robin over the dims, so a slow spell of the host falls
    # on every dim's samples instead of shifting one dim's median
    times = {n: [] for n in dims}
    for _ in range(repeats):
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
    bench_time = time.perf_counter() - t1

    t2 = time.perf_counter()
    _json_dump(args.out, {"version": 1, "rank": int(args.rank),
                          "repeats": repeats, "rows": rows})
    emit_time = time.perf_counter() - t2
    _write_manifest(
        _manifest_path(args, args.out), "bench", config, args.seed,
        inputs=[], outputs=[args.out],
        forward_counts={"per_instance_by_dim": {str(r["n"]): r["forwards_per_instance"]
                                                for r in rows}},
        phases={"setup": setup_time, "attribution": bench_time, "emit": emit_time},
    )
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


def cmd_rank_sweep(args) -> int:
    t0 = time.perf_counter()
    defaults = {
        "teacher": None, "ranks": "2,4,8", "seeds": "0", "eval_points": 12,
        "max_order": 3, "center": None, "neighborhood": 2048, "probe_nodes": None,
        "sigma_frac": 1.0, "max_sweeps": 40, "tol": 1e-12, "topology": "btree",
        "seed": 0,
    }
    config = _apply_config_file(args, defaults)
    if args.teacher is None:
        raise InputError("rank-sweep requires --teacher")
    if args.out is None:
        raise InputError("rank-sweep requires --out")
    teacher, lifts = _load_model(args.teacher)
    if teacher.n > 16:
        raise InputError(f"rank-sweep needs n <= 16 for the oracle, got n={teacher.n}")
    ranks = _parse_int_list(str(args.ranks), "ranks", 1)
    seeds = _parse_int_list(str(args.seeds), "seeds", 0)
    if not ranks or not seeds:
        raise InputError("rank-sweep needs at least one rank and one seed")
    center = _parse_center(args.center, teacher.n)
    max_order = int(args.max_order)
    if max_order > teacher.n:
        raise InputError(f"max order {max_order} out of range 1..{teacher.n}")
    orders = tuple(range(1, max_order + 1))
    base_config = _fit_config(args, bond_dim=max(ranks))
    eval_rng = np.random.default_rng(int(args.seed) + 1)
    eval_instances = eval_rng.uniform(-1.0, 1.0, size=(int(args.eval_points), teacher.n))
    setup_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    cells = fit.rank_sweep(teacher, lifts, center, base_config, ranks, seeds,
                           eval_instances, orders)
    sweep_time = time.perf_counter() - t1

    t2 = time.perf_counter()
    payload = {
        "version": 1,
        "teacher": str(args.teacher),
        "ranks": ranks,
        "seeds": seeds,
        "cells": [{**c, "report": None if c["report"] is None else c["report"].to_json_dict()}
                  for c in cells],
        "aggregate": _aggregate_sweep(cells),
    }
    _json_dump(args.out, payload)
    emit_time = time.perf_counter() - t2
    _write_manifest(
        _manifest_path(args, args.out), "rank-sweep", config, args.seed,
        inputs=[args.teacher], outputs=[args.out],
        forward_counts={"teacher_total": teacher.forward_count},
        phases={"setup": setup_time, "sweep": sweep_time, "emit": emit_time},
    )
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--out", default=None, help="primary output path")
    parser.add_argument("--config", default=None,
                        help="JSON config file; explicit flags override it")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: <out>.manifest.json)")


def _add_fit_flags(parser) -> None:
    """The training flags ``fit`` and ``rank-sweep`` share."""
    parser.add_argument("--center", default=None, help="comma-separated center point")
    parser.add_argument("--topology", choices=["tt", "btree"], default=None)
    parser.add_argument("--neighborhood", type=int, default=None)
    parser.add_argument("--probe-nodes", dest="probe_nodes", type=int, default=None)
    parser.add_argument("--sigma-frac", dest="sigma_frac", type=float, default=None)
    parser.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnshap",
        description="Exact Shapley values and interactions on tensor-network "
                    "surrogates via structured probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic teacher model")
    p.add_argument("--kind", choices=["cp", "tree"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("fit", help="fit a student network to a teacher model")
    p.add_argument("--teacher", default=None)
    p.add_argument("--bond-dim", dest="bond_dim", type=int, default=None)
    _add_fit_flags(p)
    p.add_argument("--report", default=None, help="fit report path")
    _add_common(p)
    p.set_defaults(func=cmd_fit, parser=p)

    p = sub.add_parser("explain", help="compute attributions for instances")
    p.add_argument("--model", default=None)
    p.add_argument("--instances", default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--mode", choices=["auto", attribute.INCLUSION_EXCLUSION,
                                      attribute.SIGNED_TOGGLE], default=None)
    _add_common(p)
    p.set_defaults(func=cmd_explain, parser=p)

    p = sub.add_parser("verify", help="check probe attributions against enumeration")
    p.add_argument("--model", default=None)
    p.add_argument("--instances", default=None)
    p.add_argument("--max-order", dest="max_order", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("bench", help="time order-1 attribution across dimensions")
    p.add_argument("--dims", default=None, help="comma-separated ascending dims")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("rank-sweep", help="fit students across ranks and score them")
    p.add_argument("--teacher", default=None)
    p.add_argument("--ranks", default=None, help="comma-separated student ranks")
    p.add_argument("--seeds", default=None, help="comma-separated fit seeds")
    p.add_argument("--eval-points", dest="eval_points", type=int, default=None)
    p.add_argument("--max-order", dest="max_order", type=int, default=None)
    _add_fit_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_rank_sweep, parser=p)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
