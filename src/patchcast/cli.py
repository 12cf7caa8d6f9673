"""Command-line frontend wiring the pipeline end to end.

Exit codes: 0 success, 1 validation problem (bad flags, bad config, bad
input data), 2 runtime/numeric failure (divergence, corrupt checkpoint,
failed self-test).  ``OMEGA_LOG={error|info|debug}`` adjusts verbosity on
stderr.  ``main`` resolves the configuration once (defaults, ``--config``,
then each set flag, whose ``dest`` is its dotted key).  A command then reads
and checks its inputs, creates ``--out`` with the resolved configuration as
``config.resolved`` (which ``--config`` accepts back), and only then trains or
scores, so a missing or corrupt input leaves no ``--out``.  When the work
fails after that, ``main`` removes the ``--out`` the run created, with any
parent directories it made for it; a directory that existed before the run is
not removed.
"""

import argparse
import logging
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import build_run_config, parse_config_file, render_config
from .data import denormalize, load_csv, minmax_normalize, split_series, write_trace_csv
from .errors import ConfigError, DataError, PatchcastError, ShapeError
from .eval import (
    TASKS,
    baseline_persistence,
    check_geometry,
    evaluate_zero_shot,
    select_best_snapshot,
    three_way_compare,
    write_report_summary,
    write_window_csv,
)
from .model import decode_forecast, decode_reconstruct, encode, init_params
from .selfcheck import TOLERANCE, run_gradient_selfcheck
from .synth import (
    build_corpus,
    default_pretrain_recipe,
    read_manifest,
    series_from_record,
    write_manifest,
)
from .train import (
    finetune,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    target_train,
    write_curve_csv,
)

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad command line; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to exit 1
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="patchcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, out_required=True):
        p.add_argument("--config", help="key = value config file (dotted keys)")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument(
            "--seed",
            type=int,
            help="master seed: sets model.seed=N, train.seed=N+1, synth.seed=N+2",
        )

    def eval_flags(p):
        p.add_argument("--window", dest="eval.window", type=int, help="context length in samples")
        p.add_argument("--horizon", dest="eval.horizon", type=int, help="forecast length in samples")
        p.add_argument("--stride", dest="eval.stride", type=int, help="window step in samples")
        p.add_argument("--task", dest="eval.task", choices=TASKS)

    p = sub.add_parser("synth", help="build the synthetic pretraining corpus")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="dual-head self-supervised pretraining")
    common(p)
    p.add_argument("--data", help="corpus manifest (or directory holding one)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt one decoder head to a target series")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="target series CSV")
    eval_flags(p)
    p.set_defaults(func=_adapt, fresh=False)

    p = sub.add_parser("target-train", help="train a fresh model on one target series")
    common(p)
    p.add_argument("--data", required=True, help="target series CSV")
    eval_flags(p)
    p.set_defaults(func=_adapt, fresh=True)

    p = sub.add_parser("eval", help="zero-shot sliding-window evaluation")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="series CSV to evaluate on")
    p.add_argument("--emit-traces", action="store_true")
    eval_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="zero-shot vs fine-tuned vs target-trained")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="target series CSV")
    eval_flags(p)
    p.set_defaults(func=cmd_compare)

    for name, help_text in (
        ("forecast", "forecast beyond the end of a series"),
        ("reconstruct", "reconstruct the most recent context window"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", "--input", dest="data", required=True, help="series CSV")
        if name == "forecast":
            p.add_argument("--horizon", dest="eval.horizon", type=int, help="forecast rows")
        p.set_defaults(func=cmd_trace, trace_task=name)

    p = sub.add_parser("gradcheck", help="numerics self-test on a tiny model")
    p.set_defaults(func=cmd_gradcheck)

    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _resolve_config(args):
    """Defaults, then ``--config``, then every flag that is set."""
    layers = []
    if getattr(args, "config", None):
        layers.append(parse_config_file(args.config))
    # a flag's dest is its dotted config key
    cli = {key: value for key, value in vars(args).items() if "." in key and value is not None}
    if getattr(args, "seed", None) is not None:
        cli["model.seed"] = args.seed
        cli["train.seed"] = args.seed + 1
        cli["synth.seed"] = args.seed + 2
    layers.append(cli)
    return build_run_config(*layers)


def _prepare_outdir(args, rc) -> Path:
    """Create ``--out`` and echo ``rc`` into it; called once the inputs passed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(render_config(rc), encoding="utf-8")
    return out


def _default_corpus(rc):
    """(pool, manifest) of the stock recipe under ``rc.synth``."""
    recipe = default_pretrain_recipe(variants_per_entry=rc.synth.variants_per_entry)
    return build_corpus(recipe, seed=rc.synth.seed)


def _load_pool(data_arg, rc):
    """A training pool from a manifest path/directory, or the default recipe."""
    if data_arg:
        path = Path(data_arg)
        if path.is_dir():
            path = path / "corpus.manifest"
        records = read_manifest(path)
        if not records:
            raise DataError(f"manifest {path} lists no series")
        return [series_from_record(r) for r in records]
    return _default_corpus(rc)[0]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, rc) -> int:
    _, manifest = _default_corpus(rc)
    out = _prepare_outdir(args, rc)
    write_manifest(out / "corpus.manifest", manifest)
    print(f"wrote corpus.manifest listing {len(manifest)} series to {out}")
    return 0


def cmd_pretrain(args, rc) -> int:
    pool = _load_pool(args.data, rc)
    rc = replace(rc, train=replace(rc.train, target_mode="pretrain"))
    out = _prepare_outdir(args, rc)
    result = pretrain(pool, rc.model, rc.train)
    save_checkpoint(result.model, out / "checkpoint.omg", step=rc.train.steps)
    write_curve_csv(out / "curve.csv", result.curve)
    print(
        f"pretrained {rc.train.steps} steps on {len(pool)} series: "
        f"loss {result.curve[0].total:.6f} -> {result.curve[-1].total:.6f}"
    )
    return 0


def _adapt(args, rc) -> int:
    """finetune (``args.fresh`` False) and target-train (True)."""
    target = load_csv(args.data)
    task = rc.eval.task
    model = None if args.fresh else load_checkpoint(args.checkpoint)[0]
    mc = rc.model if args.fresh else model.config
    _, val_seg, _ = split_series(target, mc.context_length, mc.l_pred)
    window, horizon, stride = rc.eval.resolve(mc)
    check_geometry(mc, window, horizon)
    mode = "target_train" if args.fresh else f"finetune_{task}"
    rc = replace(rc, train=replace(rc.train, target_mode=mode))
    out = _prepare_outdir(args, rc)
    if args.fresh:
        result = target_train(target, mc, rc.train)
    else:
        result = finetune(model, target, rc.train)
    model = result.model
    step, val_mse = select_best_snapshot(model, result, val_seg, task, window, horizon, stride)
    save_checkpoint(model, out / "checkpoint.omg", step=step + 1)
    write_curve_csv(out / "curve.csv", result.curve)
    print(f"kept snapshot from step {step + 1} (validation mse {val_mse:.6g})")
    return 0


def cmd_eval(args, rc) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    series = load_csv(args.data)
    window, horizon, stride = rc.eval.resolve(model.config)
    check_geometry(model.config, window, horizon)
    out = _prepare_outdir(args, rc)
    task = rc.eval.task

    on_window = None
    if args.emit_traces:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)

        def on_window(offset, ctx, pred):
            src = denormalize(pred, ctx)
            base = offset + window if task == "forecast" else offset
            rows = [
                (base + j, float(series.values[base + j]), float(value))
                for j, value in enumerate(src)
            ]
            write_trace_csv(traces / f"window_{offset}.csv", rows)

    report = evaluate_zero_shot(model, series, task, window, horizon, stride, on_window=on_window)
    baseline = baseline_persistence(series, window, horizon, stride, task=task)
    write_report_summary(out / "report.csv", [report, baseline])
    write_window_csv(out / "windows.csv", report)
    print(
        f"{series.id}: {task} mean mse {report.mean_mse:.6g} over "
        f"{report.n_windows} windows (persistence {report.persistence_mse:.6g}, "
        f"window-mean {report.mean_baseline_mse:.6g})"
    )
    return 0


def cmd_compare(args, rc) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    target = load_csv(args.data)
    window, horizon, stride = rc.eval.resolve(model.config)
    check_geometry(model.config, window, horizon)
    split_series(target, window, horizon)  # refuse a short series before --out exists
    out = _prepare_outdir(args, rc)
    result = three_way_compare(
        model, target, rc.eval.task, window, horizon, stride, rc.train
    )
    write_report_summary(out / "report.csv", list(result.reports.values()))
    for variant, report in result.reports.items():
        write_window_csv(out / f"windows_{variant}.csv", report)
    summary_text = "\n".join(result.summary.lines()) + "\n"
    (out / "summary.txt").write_text(summary_text, encoding="utf-8")
    print(summary_text, end="")
    return 0


def cmd_trace(args, rc) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    series = load_csv(args.data)
    mc = model.config
    W = mc.context_length
    L = len(series.values)
    if L < W:
        raise DataError(f"series has {L} samples; the model needs a context of {W}")
    _, horizon, _ = rc.eval.resolve(mc)
    check_geometry(mc, W, horizon)

    ctx = minmax_normalize(series.values[L - W :], source_offset=L - W)
    patches = ctx.values.reshape(mc.n_patches, mc.l_patch).astype(np.float32)
    _, z = encode(patches, model, mode="infer")

    rows = []
    if args.trace_task == "forecast":
        pred = denormalize(decode_forecast(z, model.forecast).data[:horizon], ctx)
        for i in range(W):
            rows.append((L - W + i, float(series.values[L - W + i]), None))
        for j in range(horizon):
            rows.append((L + j, None, float(pred[j])))
    else:
        pred = denormalize(decode_reconstruct(z, model.reconstruct).data, ctx)
        for i in range(W):
            rows.append((L - W + i, float(series.values[L - W + i]), float(pred[i])))

    out = Path(args.out)
    if out.suffix == ".csv":
        out.parent.mkdir(parents=True, exist_ok=True)
        trace_path = out
    else:
        out = _prepare_outdir(args, rc)
        trace_path = out / "trace.csv"
    write_trace_csv(trace_path, rows)
    print(f"wrote {len(rows)} trace rows to {trace_path}")
    return 0


def cmd_gradcheck(args, rc) -> int:
    worst = 0.0
    ok = True
    for label, report in run_gradient_selfcheck():
        status = "ok" if report.passed else "FAIL"
        print(f"{label}: max rel error {report.max_rel_error:.3e} [{status}]")
        worst = max(worst, report.max_rel_error)
        ok = ok and report.passed
    print(f"max relative error {worst:.3e} (tolerance {TOLERANCE:.1e})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point


class _StderrHandler(logging.Handler):
    """Writes to whatever sys.stderr is at emit time (it may be swapped)."""

    def emit(self, record):
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def _setup_logging() -> None:
    level_name = os.environ.get("OMEGA_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: OMEGA_LOG={level_name!r} not recognized; using error", file=sys.stderr)
        level_name = "error"
    root = logging.getLogger("patchcast")
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
    root.setLevel(levels[level_name])


def _first_missing(path: Path):
    """The topmost of ``path`` and its ancestors that does not exist yet, or None."""
    top = None
    while not path.exists() and path != path.parent:
        top, path = path, path.parent
    return top


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    made = None  # the topmost path this run creates for --out; removed unless it succeeds
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None):
            made = _first_missing(Path(args.out))
        # every non-finite value is caught at a boundary and raised as a typed
        # error, so NumPy's overflow warnings on the way there are only noise
        with np.errstate(over="ignore", invalid="ignore"):
            status = args.func(args, _resolve_config(args))
        made = None
        return status
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, DataError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PatchcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if made is not None and made.is_dir():
            shutil.rmtree(made)
        elif made is not None and made.exists():  # a ``forecast --out x.csv`` cut short
            made.unlink()


if __name__ == "__main__":
    sys.exit(main())
