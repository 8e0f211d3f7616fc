"""Command line front end.

Three subcommands:

* ``dpms select``   run one private selection on a CSV file.
* ``dpms sweep``    run a synthetic Monte Carlo grid and emit CSV rows.
* ``dpms validate`` check a CSV against the bound contract and suggest
  a constraint radius.

Exit codes: 0 success, 1 data problem (bounds, malformed rows), 2 usage
or configuration problem.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, load_csv, standardize
from .enumeration import CandidateSet, all_subsets, from_explicit
from .errors import ConfigError, DpmsError
from .mechanisms import PrivacyBudget, RngStream
from .selection import _ALGORITHMS, _MECHANISMS, SelectionConfig, pcls_select, pcpl_select
from .simulate import (
    BUILTIN_MODELS,
    SweepGrid,
    SyntheticSpec,
    run_sweep,
)

__all__ = ["main"]

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# How many size-k subsets we are willing to scan for the exact restricted
# eigenvalue before falling back to the full-design lower bound.
_EXACT_KAPPA_CAP = 4096


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="dpms",
        description="Differentially private model selection for bounded linear regression.",
    )
    parser.add_argument("--version", action="version", version=f"dpms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run one private selection on a CSV file")
    sel.add_argument("--input", help="CSV file with a header row")
    sel.add_argument("--response", help="name of the response column")
    sel.add_argument("--algorithm", choices=_ALGORITHMS, default="pcls")
    sel.add_argument("--R", type=float, dest="R", help="l1 constraint radius")
    sel.add_argument("--phi", type=float, help="penalty per selected covariate")
    sel.add_argument("--epsilon", type=float, help="privacy budget (inf disables noise)")
    sel.add_argument("--delta", type=float, default=0.0, help="failure probability, pcpl only")
    sel.add_argument(
        "--models",
        default="all-nonempty",
        help="candidate family: all | all-nonempty | size<=K | @file.json",
    )
    sel.add_argument("--mechanism", choices=_MECHANISMS, default="noisy_argmin")
    sel.add_argument(
        "--seed",
        type=int,
        help="128-bit key for all noise; replays a run (default: a fresh key from the OS)",
    )
    sel.add_argument("--stream-id", type=int, default=0, help="noise stream under the seed")
    sel.add_argument("--r", type=float, default=None, help="public bound on |response|")
    sel.add_argument(
        "--standardize",
        choices=("none", "clip", "rescale"),
        default="none",
        help="how to force raw data into the bounds contract",
    )
    sel.add_argument("--ranges", default=None, help="JSON file with public x/y ranges for rescale")
    sel.add_argument(
        "--include-intercept",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="prepend an all-ones intercept column",
    )
    sel.add_argument(
        "--debug-unsafe",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="include NON-PRIVATE clean scores in the report",
    )
    sel.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    sel.add_argument("--config", default=None, help="key=value defaults file")
    sel.set_defaults(func=_cmd_select)

    swp = sub.add_parser("sweep", help="run a synthetic Monte Carlo sweep")
    swp.add_argument("--model-id", choices=sorted(BUILTIN_MODELS), default=None)
    swp.add_argument("--beta0", type=_comma_floats, default=None, help="custom coefficient vector")
    swp.add_argument("--n", type=_comma_ints, dest="n_values", help="sample sizes")
    swp.add_argument("--R", type=_comma_floats, dest="radius_values", help="constraint radii")
    swp.add_argument("--eps", type=_comma_floats, dest="epsilon_values", help="privacy budgets")
    swp.add_argument("--phi", type=_comma_floats, dest="phi_values", default=None,
                     help="penalty levels (default: 0 plus a 40-point log grid)")
    swp.add_argument("--delta", type=_comma_floats, dest="delta_values", default=None)
    swp.add_argument("--replications", type=int, default=500)
    swp.add_argument("--algorithm", choices=_ALGORITHMS, default="pcls")
    swp.add_argument("--mechanism", choices=_MECHANISMS, default="noisy_argmin")
    swp.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    swp.add_argument("--seed", type=int,
                     help="master seed (default: a fresh 128-bit key, printed to stderr)")
    swp.add_argument("--timing", action=argparse.BooleanOptionalAction, default=False,
                     help="measure mean_runtime_ms (makes that column non-reproducible)")
    swp.add_argument("--threads", type=int, default=None,
                     help="worker cap (default: the CPU count)")
    swp.add_argument("--out", default=None, help="write CSV here instead of stdout (.json for JSON)")
    swp.add_argument("--config", default=None, help="key=value defaults file")
    swp.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check bounds and suggest a constraint radius")
    val.add_argument("--input", help="CSV file with a header row")
    val.add_argument("--response", help="name of the response column")
    val.add_argument("--r", type=float, default=None, help="public bound on |response|")
    val.add_argument("--max-size", type=int, default=None, help="largest model size you intend to fit")
    val.add_argument(
        "--include-intercept",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    val.add_argument("--config", default=None, help="key=value defaults file")
    val.set_defaults(func=_cmd_validate)

    return parser, {"select": sel, "sweep": swp, "validate": val}


def _require(args: argparse.Namespace, pairs: list[tuple[str, str]]) -> None:
    missing = [flag for flag, dest in pairs if getattr(args, dest) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def _read_text(path: str, what: str, parse=None):
    """The UTF-8 text of the file at ``path``, or ``parse`` of it.  A file
    that cannot be opened, decoded or parsed is a usage error naming
    ``what``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return text if parse is None else parse(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: str, text: str, mode: str = "w") -> None:
    try:
        with Path(path).open(mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _config_tokens(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """The command line tokens a key=value file stands for.

    Keys are an option's dest or its first flag name, with '-' or '_'.  A
    value becomes ``--flag=value`` and a boolean ``--flag`` or
    ``--no-flag``, so argparse checks file values with each option's type
    and choices, and the command line, parsed after the file, always wins.
    """
    options = {}
    for action in subparser._actions:
        if action.dest not in ("help", "config"):
            flag = action.option_strings[0].lstrip("-").replace("-", "_")
            options[action.dest] = options[flag] = action
    text = _read_text(path, "config file")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        action = options.get(key)
        if action is None:
            raise ConfigError(
                f"{path}:{lineno}: unknown option {key!r}; valid keys: {', '.join(sorted(options))}"
            )
        if action.nargs != 0:
            tokens.append(f"{action.option_strings[0]}={value}")
            continue
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{path}:{lineno}: {key} must be true or false, got {value!r}")
        # Every boolean has both spellings, --x and --no-x.
        tokens.append(action.option_strings[0 if _BOOL_WORDS[word] else 1])
    return tokens


def _parse_models(spec: str, d: int) -> CandidateSet:
    if spec == "all":
        return all_subsets(d, include_empty=True)
    if spec == "all-nonempty":
        return all_subsets(d)
    if spec.startswith("size<="):
        try:
            cap = int(spec[len("size<="):])
        except ValueError as exc:
            raise ConfigError(f"bad size cap in --models {spec!r}") from exc
        return all_subsets(d, max_size=cap)
    if spec.startswith("@"):
        path = spec[1:]
        payload = _read_text(path, "model list", json.loads)
        if not isinstance(payload, list) or not all(isinstance(s, list) for s in payload):
            raise ConfigError(f"{path} must hold a JSON list of index lists")
        return from_explicit(payload, d)
    raise ConfigError(
        f"--models must be all, all-nonempty, size<=K, or @file.json; got {spec!r}"
    )


def _check_r(args: argparse.Namespace) -> None:
    """A given ``--r`` is an option like any other: a bad one is a usage
    error, raised before the CSV is read."""
    if args.r is not None and not (math.isfinite(args.r) and args.r > 0):
        raise ConfigError(f"--r must be positive and finite, got {args.r}")


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, list[str]]:
    _check_r(args)
    x_raw, y_raw, names = load_csv(args.input, args.response, args.include_intercept)
    if args.standardize == "none":
        return Dataset.from_arrays(x_raw, y_raw, response_bound=args.r), names
    x_ranges = y_range = None
    if args.ranges is not None:
        payload = _read_text(args.ranges, "ranges file", json.loads)
        if not isinstance(payload, dict):
            raise ConfigError(
                f"ranges file {args.ranges} must hold a JSON object with keys x and y"
            )
        x_ranges = payload.get("x")
        y_range = payload.get("y")
        if args.include_intercept and x_ranges is not None:
            # The intercept column is synthetic, so the ranges file only
            # describes real covariates.  [-1, 1] maps the ones column to
            # itself.
            x_ranges = [[-1.0, 1.0], *x_ranges]
    return (
        standardize(
            x_raw,
            y_raw,
            args.standardize,
            response_bound=args.r,
            x_ranges=x_ranges,
            y_range=y_range,
        ),
        names,
    )


def _cmd_select(args: argparse.Namespace) -> int:
    _require(
        args,
        [("--input", "input"), ("--response", "response"), ("--R", "R"),
         ("--phi", "phi"), ("--epsilon", "epsilon")],
    )
    dataset, names = _load_dataset(args)
    models = _parse_models(args.models, dataset.d)
    config = SelectionConfig(
        radius=args.R,
        penalty=args.phi,
        budget=PrivacyBudget(args.epsilon, args.delta),
        mechanism=args.mechanism,
    )
    seed = _fresh_key() if args.seed is None else args.seed
    rng = RngStream(seed, args.stream_id)
    select = pcls_select if args.algorithm == "pcls" else pcpl_select
    report = select(dataset, models, config, rng)
    text = report.to_json(include_clean_scores=args.debug_unsafe)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        chosen = ", ".join(names[i - 1] for i in report.chosen.indices()) or "(empty model)"
        print(f"chosen model: {list(report.chosen.indices())} [{chosen}]")
        print(f"report written to {args.out}")
    return 0


def _fresh_key() -> int:
    """A fresh 128-bit key from the OS's random source; os is loaded at
    interpreter start, where the secrets module would cost ~1 ms."""
    from os import urandom

    return int.from_bytes(urandom(16), "little")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(
        args,
        [("--n", "n_values"), ("--R", "radius_values"), ("--eps", "epsilon_values")],
    )
    if args.beta0 is not None:
        coefficients = args.beta0
        model_id = args.model_id or "custom"
    elif args.model_id is not None:
        coefficients = BUILTIN_MODELS[args.model_id]
        model_id = args.model_id
    else:
        raise ConfigError("one of --model-id or --beta0 is required")
    deltas = args.delta_values
    if deltas is None:
        deltas = (0.0,) if args.algorithm == "pcls" else None
    if deltas is None:
        raise ConfigError("pcpl sweeps need an explicit --delta in (0, 1)")
    grid = SweepGrid(
        n_values=args.n_values,
        radius_values=args.radius_values,
        epsilon_values=args.epsilon_values,
        phi_values=args.phi_values,
        delta_values=deltas,
        replications=args.replications,
        algorithm=args.algorithm,
    )
    seed = args.seed
    if seed is None:
        # The data are synthetic, so the key is no secret: print it, so the
        # run can be replayed.
        seed = _fresh_key()
        print(f"sweep key: {seed} (replay with --seed {seed})", file=sys.stderr)
    template = SyntheticSpec(
        n=grid.n_values[0],
        coefficients=coefficients,
        rng=RngStream(seed, 0),
        noise_sd=args.sigma,
    )
    if args.out is not None:
        # Appending nothing fails where the write would, before the sweep
        # runs, and keeps an existing file's bytes.
        _write_text(args.out, "", "a")
    result = run_sweep(
        grid,
        template,
        model_id=model_id,
        mechanism=args.mechanism,
        measure_runtime=args.timing,
        max_workers=args.threads,
    )
    text = result.to_json() if (args.out or "").endswith(".json") else result.to_csv()
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        print(f"{len(result.rows)} rows written to {args.out}")
    return 0


def _restricted_min_eigenvalue(gram: np.ndarray, size: int) -> tuple[float, str]:
    """Smallest eigenvalue among restricted design matrices.

    Exact over every size-``size`` subset when that is affordable; the
    full-design eigenvalue is a valid lower bound otherwise (eigenvalues
    of principal submatrices never drop below it).
    """
    d = gram.shape[0]
    if math.comb(d, size) <= _EXACT_KAPPA_CAP:
        value = min(
            float(np.linalg.eigvalsh(gram[np.ix_(idx, idx)])[0])
            for idx in itertools.combinations(range(d), size)
        )
        return value, f"exact minimum over all {math.comb(d, size)} subsets of size {size}"
    return float(np.linalg.eigvalsh(gram)[0]), "lower bound from the full design matrix"


def _cmd_validate(args: argparse.Namespace) -> int:
    _require(args, [("--input", "input"), ("--response", "response")])
    _check_r(args)
    x_raw, y_raw, names = load_csv(args.input, args.response, args.include_intercept)
    n, d = x_raw.shape
    print(f"rows: {n}")
    intercept_note = " (including intercept)" if args.include_intercept else ""
    print(f"covariates: {d}{intercept_note}")

    dataset = Dataset.from_arrays(x_raw, y_raw, response_bound=args.r)
    source = "data-dependent maximum |y|" if dataset.bound_is_data_dependent else "given"
    print(f"bounds: OK (|x| <= 1, |y| <= r = {dataset.response_bound:g}, r {source})")

    size = d if args.max_size is None else args.max_size
    if not 1 <= size <= d:
        raise ConfigError(f"--max-size must be in [1, {d}], got {args.max_size}")
    gram = (x_raw.T @ x_raw) / n
    kappa, how = _restricted_min_eigenvalue(gram, size)
    print(f"kappa0: {kappa:.6g} ({how})")
    if kappa <= 1e-12:
        print(
            "suggested minimum R: none; some restricted design is singular, so no "
            "radius makes every constrained fit match least squares"
        )
    else:
        radius = dataset.response_bound * math.sqrt(size / kappa)
        print(
            f"suggested minimum R: {radius:.6g} "
            f"(= r * sqrt({size} / kappa0); at or above this, constrained fits of "
            f"size <= {size} coincide with least squares)"
        )
    return 0


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser of every run, built on first use.

    Parsing leaves a parser as it was, so one serves every later call of
    :func:`main` in the process, ``--config`` runs included.
    """
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, subparsers = _shared_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # A successful parse puts the subcommand first, since the
            # top-level parser has no option but --version.
            tokens = _config_tokens(args.config, subparsers[args.command])
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DpmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
