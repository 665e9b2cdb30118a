"""Command-line front end.

Subcommands: train (k-fold cross-validated experiment), bound (excess-risk
heatmap grid), influence (influence-function curves), epochs (per-epoch
accuracy traces), corrupt (standalone label corruption), attack (standalone
adversarial perturbation).  All outputs are plot-ready CSV files and every
command is deterministic given its flags and seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import PurePath

import numpy as np

from . import data_io
from .attacks import BOX, AttackConfig, adversarial_trainset
from .contamination import check_eta, corrupt_labels
from .data_io import DataFormatError, Dataset
from .divergence import LossSpec, ParameterError, _require, clip_probs, make_tuning
from .network import ArchitectureSpec, _one_blas_thread, _run_tasks, example_model
from .optimizer import TrainConfig, accuracy, train
from .theory import bound_grid, default_feature_sample, influence_function

EXIT_OK = 0
EXIT_BAD_FLAGS = 2
EXIT_BAD_DATA = 3
EXIT_NUMERIC = 4

# every network the CLI trains or attacks computes in float32, whatever
# its data: at blob scale it cuts a training step by a third, at image
# scale it halves the matmuls and the Adam update.  The library default,
# the features, the losses and the attack's projection stay float64.
ARCH_PRESETS = {
    "mnist-mlp": ArchitectureSpec(784, ((128, "relu"), (128, "relu")), 10, np.float32),
    "fmnist-mlp": ArchitectureSpec(784, ((200, "relu"), (100, "relu")), 10, np.float32),
    "surrogate-64": ArchitectureSpec(784, ((64, "relu"),), 10, np.float32),
    "toy": ArchitectureSpec(2, ((16, "tanh"),), 2, np.float32),
    "example1-mlp": ArchitectureSpec(1, ((16, "tanh"),), 2, np.float32),
    # enough capacity to memorize noisy labels on the blob set, which is what
    # makes the label-noise comparison informative at desk scale
    "blob-mlp": ArchitectureSpec(2, ((64, "relu"), (64, "relu")), 2, np.float32),
}


LOSS_GRAMMAR = "cce | mae | gce:Q | tcce:D | sd:BETA,LAMBDA"
# the spelling of each loss that takes numbers
LOSS_FORMS = {"gce": "gce:Q", "tcce": "tcce:D", "sd": "sd:BETA,LAMBDA"}


def parse_loss(text: str) -> LossSpec:
    """The loss a --loss value names; LOSS_GRAMMAR is the only spelling."""
    kind, sep, arg = text.partition(":")
    if kind in ("cce", "mae") and not sep:
        return LossSpec(kind=kind)
    if kind not in LOSS_FORMS:
        raise ValueError(f"unknown loss spec {text!r}; expected {LOSS_GRAMMAR}")
    try:
        values = [float(v) for v in arg.split(",")]
    except ValueError:
        values = []
    if len(values) != LOSS_FORMS[kind].count(",") + 1:
        raise ValueError(f"bad loss spec {text!r}: expected {LOSS_FORMS[kind]}")
    try:
        if kind == "sd":
            return LossSpec(kind="sd", tuning=make_tuning(*values))
        if kind == "gce":
            return LossSpec(kind="gce", q=values[0])
        return LossSpec(kind="tcce", delta=values[0])
    except ValueError as exc:
        raise ValueError(f"bad loss spec {text!r}: {exc}") from exc


# the library parameters whose flags have other names; every other
# ParameterError name is a flag dest
FLAGS = {"J": "--classes", "k": "--folds", "batch_size": "--batch",
         "step_size": "--step", "max_iters": "--iters"}


def flag(name: str) -> str:
    """The flag a ParameterError's parameter name stands for."""
    return FLAGS.get(name, "--" + name.replace("_", "-"))


def load_dataset_arg(text: str, n: int, seed: int,
                     num_classes: int | None = None) -> Dataset:
    """Resolve a --dataset selector.

    "blobs" and "example1" are synthetic (size n, seeded); "idx:IMG,LAB"
    reads an IDX pair; "csv:FEATURES,LABELS" reads a CSV dump, with
    num_classes classes if given (a dump does not record its class
    count) and max label + 1 otherwise.  A dataset without examples
    raises DataFormatError (tag empty).
    """
    if text in ("blobs", "example1"):
        _require(n >= 1, "n", "must be at least 1", n)
        make = data_io.synthetic_blobs if text == "blobs" else data_io.synthetic_example1
        return make(n, seed)
    kind, _, arg = text.partition(":")
    paths = arg.split(",")
    if kind == "idx" and len(paths) == 2:
        dataset = data_io.read_idx(paths[0], paths[1])
    elif kind == "csv" and len(paths) == 2:
        dataset = data_io.load_dataset(paths[0], paths[1], num_classes)
    else:
        raise ValueError(f"unknown dataset selector: {text!r}")
    if dataset.n == 0:
        raise DataFormatError("empty", f"{text}: the dataset has no examples")
    return dataset


def resolve_arch(args) -> tuple[ArchitectureSpec, Dataset]:
    """The --arch preset and the --dataset, read with the preset's class
    count and checked against its feature width and class count.  A
    feature beyond the range of the preset's dtype, which its batch would
    cast to inf, raises FloatingPointError before any training."""
    try:
        arch = ARCH_PRESETS[args.arch]
    except KeyError:
        raise ValueError(f"unknown architecture preset: {args.arch!r}") from None
    dataset = load_dataset_arg(args.dataset, args.n, args.seed, arch.output_classes)
    if arch.input_dim != dataset.features.shape[1]:
        raise DataFormatError(
            "arch_mismatch", f"preset {args.arch} expects {arch.input_dim} "
            f"features, dataset has {dataset.features.shape[1]}")
    if arch.output_classes != dataset.num_classes:
        raise DataFormatError(
            "arch_mismatch", f"preset {args.arch} expects {arch.output_classes} "
            f"classes, dataset has {dataset.num_classes}")
    limit = np.finfo(arch.dtype).max  # min and max: abs would copy the features
    if dataset.features.min() < -limit or dataset.features.max() > limit:
        raise FloatingPointError(f"a feature lies beyond the {arch.dtype} range "
                                 f"of the network (|x| > {limit:.4g})")
    return arch, dataset


def _surrogate_attack(dataset: Dataset, attack_cfg: AttackConfig,
                      surrogate_cfg: TrainConfig, init_seed: int,
                      shuffle_seed: int, rows: np.ndarray | None = None) -> Dataset:
    """dataset, or its rows given an index array, attacked through a
    surrogate trained at surrogate_cfg, which trains on those rows in
    place, has the hidden layers and dtype of the surrogate-64 preset and
    is sized to the data.

    The surrogate trains and attacks inside one _one_blas_thread hold, at
    one BLAS thread as train's folds do.  So no OpenBLAS worker, woken by
    the training, spins on a core the attack's pool needs, and the
    attacked bits are those of one BLAS thread whatever the core count."""
    arch = replace(ARCH_PRESETS["surrogate-64"], input_dim=dataset.features.shape[1],
                   output_classes=dataset.num_classes)
    with _one_blas_thread():
        [(params, _)] = train(dataset, arch, init_seed, surrogate_cfg, rows=rows,
                              shuffle_seed=shuffle_seed)
        return adversarial_trainset(params, arch, dataset, attack_cfg, rows=rows)


def _attack_config(args, dataset: Dataset) -> tuple[AttackConfig, TrainConfig]:
    """The attack flags as an AttackConfig and the surrogate's CCE
    TrainConfig, both checked before any surrogate trains; the surrogate's
    epochs are --surrogate-epochs.  A dataset with a feature outside BOX
    raises DataFormatError (tag outside_box): the attack would clamp it,
    not perturb it."""
    cfg = AttackConfig(kind=args.attack, epsilon=args.epsilon,
                       step_size=args.step, max_iters=args.iters)
    try:
        surrogate_cfg = TrainConfig(losses=(LossSpec(kind="cce"),),
                                    epochs=args.surrogate_epochs, batch_size=args.batch)
    except ParameterError as exc:
        if exc.name == "epochs":
            exc.name = "surrogate_epochs"
        raise
    lo, hi = BOX
    outside = np.count_nonzero((dataset.features < lo) | (dataset.features > hi))
    if outside:
        raise DataFormatError(
            "outside_box", f"{outside} of {dataset.features.size} features lie "
            f"outside the attack box [{lo:g}, {hi:g}]")
    return cfg, surrogate_cfg


def _train_split(args, arch: ArchitectureSpec, dataset: Dataset, train_idx,
                 fold: int, train_cfg: TrainConfig,
                 attack: tuple[AttackConfig, TrainConfig] | None = None,
                 eval_rows=None):
    """train's (params, metrics) pairs, one per loss of train_cfg, for the
    rows train_idx of dataset: their labels corrupted at --eta and, given
    attack (_attack_config's pair), their features attacked through a
    surrogate.  Every seed is --seed plus an offset per step and the fold.
    Only the attacked rows are copied: clean ones are trained on in place,
    as rows of the full matrix, by the surrogate too.  Given eval_rows (no
    attack), each epoch scores those rows of dataset, whose labels stay
    clean: corrupt_labels draws only those of train_idx and keeps every
    other row's."""
    train_ds, _ = corrupt_labels(dataset, args.eta, args.seed + 1000 + fold,
                                 rows=train_idx)
    rows = train_idx
    if attack is not None:
        train_ds = _surrogate_attack(train_ds, *attack, args.seed + 2000 + fold,
                                     args.seed + 3000 + fold, rows=train_idx)
        rows = None
    return train(train_ds, arch, args.seed + fold, train_cfg, eval_rows=eval_rows,
                 rows=rows, shuffle_seed=args.seed + 100 + fold)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    """k-fold cross-validation.  Every fold, with or without --attack, is
    a task of _run_tasks, so the bits do not depend on the number of
    workers.  Every setting is checked before the first fold starts."""
    arch, dataset = resolve_arch(args)
    loss = parse_loss(args.loss)
    train_cfg = TrainConfig(losses=(loss,), epochs=args.epochs, batch_size=args.batch)
    check_eta(args.eta)
    attack = _attack_config(args, dataset) if args.attack else None
    folds = data_io.make_folds(dataset.n, args.folds, args.seed)

    def run_fold(fold: int):
        train_idx, val_idx = folds[fold]
        [(params, _)] = _train_split(args, arch, dataset, train_idx, fold, train_cfg,
                                     attack)
        clean = accuracy(params, arch, dataset, rows=val_idx)
        adv = None
        if attack is not None:  # white-box: against the trained model
            adv = accuracy(params, arch, adversarial_trainset(
                params, arch, dataset, attack[0], rows=val_idx))
        return params, _result_row(args, loss, str(fold), clean, adv)

    saved, records = zip(*_run_tasks(run_fold, len(folds)))
    clean = [rec["clean_accuracy"] for rec in records]
    adv = [rec["adv_accuracy"] for rec in records]
    records = [*records, _result_row(args, loss, "mean", float(np.mean(clean)),
                                     float(np.mean(adv)) if attack else None)]
    data_io.write_results(records, args.out)
    # one row per fold; .npy is byte-reproducible, unlike zip containers
    np.save(args.out + ".params.npy", np.stack(saved))
    return EXIT_OK


def _result_row(args, loss: LossSpec, fold: str, clean, adv):
    kind, sep, paths = args.dataset.partition(":")
    return {
        # input files by name: the row does not depend on where they live
        "dataset": kind + sep + ",".join(PurePath(p).name for p in paths.split(",")),
        "loss": loss.describe(),
        "beta": loss.tuning.beta if loss.tuning else None,
        "lambda": loss.tuning.lam if loss.tuning else None,
        "eta": args.eta,
        "attack": f"{args.attack}({args.epsilon:g})" if args.attack else None,
        "fold": fold,
        "clean_accuracy": clean,
        "adv_accuracy": adv,
        "epochs": args.epochs,
    }


def cmd_bound(args) -> int:
    grid = bound_grid(args.eta, args.classes,
                      (args.beta_min, args.beta_max),
                      (args.lambda_min, args.lambda_max),
                      args.resolution)
    # one row per grid point, beta-major; inadmissible values are left empty
    data_io.write_csv(args.out, ("beta", "lambda", "admissible", "value"), (
        np.repeat(grid.betas, grid.lambdas.size),
        np.tile(grid.lambdas, grid.betas.size),
        grid.admissible.ravel(),
        np.ma.masked_array(grid.values, mask=~grid.admissible).ravel(),
    ))
    return EXIT_OK


def cmd_influence(args) -> int:
    tuning = make_tuning(args.beta, args.lam)
    model = example_model(args.model)
    if args.theta is not None:
        try:
            theta = np.array([float(v) for v in args.theta.split(",")])
        except ValueError:
            raise ValueError(f"--theta needs a comma list of numbers, "
                             f"got {args.theta!r}") from None
        if not np.isfinite(theta).all():
            raise ValueError(f"--theta needs finite entries, got {args.theta!r}")
    else:
        theta = np.ones(model.n_params)
    try:
        lo, hi, count = args.grid.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"--grid needs MIN,MAX,COUNT, got {args.grid!r}") from None
    if count < 1:
        raise ValueError(f"--grid needs a count of at least 1, got {args.grid!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        x_grid = np.linspace(lo, hi, count)
    if not np.isfinite(x_grid).all():
        raise ValueError(f"--grid needs finite points, got {args.grid!r}")
    p_star_fn = None
    if args.correctly_specified:
        def p_star_fn(xs):
            return clip_probs(model.probs(theta, xs))
    # the finiteness check below is the one report of an overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curves = influence_function(
            model, theta, tuning, x_grid,
            default_feature_sample(args.sample_size, args.seed), p_star_fn)
    finite = np.isfinite(curves).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            f"non-finite influence value at x_t = {x_grid[~finite][0]:g}")
    # one row per (grid point, parameter), grid-point-major
    data_io.write_csv(args.out, ("x_t", "param_index", "value"), (
        np.repeat(x_grid, model.n_params),
        np.tile(np.arange(model.n_params), x_grid.size),
        curves.ravel(),
    ))
    return EXIT_OK


def cmd_epochs(args) -> int:
    arch, dataset = resolve_arch(args)
    train_cfg = TrainConfig(losses=tuple(parse_loss(text) for text in args.loss),
                            epochs=args.epochs, batch_size=args.batch)
    check_eta(args.eta)
    # one fixed 3:1 train/test split, trained as fold 0 in one lockstep run:
    # every model has the same init and batch order
    cut = (3 * dataset.n) // 4
    if cut == 0:
        raise ValueError(f"the 3:1 train/test split of {dataset.n} example "
                         "leaves no training row; epochs needs at least 2 examples")
    perm = np.random.default_rng(args.seed).permutation(dataset.n)
    trained = _train_split(args, arch, dataset, perm[:cut], 0, train_cfg,
                           eval_rows=perm[cut:])
    rows = [(loss.describe(), *row)
            for loss, (_, metrics) in zip(train_cfg.losses, trained) for row in metrics]
    header = ("loss", "epoch", "train_loss", "test_accuracy")
    data_io.write_csv(args.out, header,
                      [[row[i] for row in rows] for i in range(len(header))])
    return EXIT_OK


def cmd_corrupt(args) -> int:
    dataset = load_dataset_arg(args.dataset, args.n, args.seed)
    corrupted, mask = corrupt_labels(dataset, args.eta, args.seed)
    data_io.dump_dataset(corrupted, args.out + ".features.csv",
                         args.out + ".labels.csv", flip_mask=mask)
    return EXIT_OK


def cmd_attack(args) -> int:
    """The --dataset attacked through _surrogate_attack, dumped."""
    dataset = load_dataset_arg(args.dataset, args.n, args.seed)
    attack_cfg, surrogate_cfg = _attack_config(args, dataset)
    attacked = _surrogate_attack(dataset, attack_cfg, surrogate_cfg, args.seed,
                                 args.seed + 100)
    data_io.dump_dataset(attacked, args.out + ".features.csv",
                         args.out + ".labels.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, required=True,
                   help="master seed; wall-clock seeding is not supported")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", default=None,
                   help="flat key=value config file; flags override it")


def _add_dataset(p):
    p.add_argument("--dataset", default="blobs",
                   help="blobs | example1 | idx:IMAGES,LABELS | csv:FEAT,LAB")
    p.add_argument("--n", type=int, default=400, help="synthetic dataset size")


def _add_data(p):
    _add_dataset(p)
    p.add_argument("--arch", default="toy", choices=sorted(ARCH_PRESETS))
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--eta", type=float, default=0.0,
                   help="label-noise level in [0, 1)")


def _add_attack(p, required=False):
    p.add_argument("--attack", required=required, choices=["fgsm", "pgd"])
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--surrogate-epochs", type=int, default=20)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The rsdnet parser; config maps flag dests to config-file defaults.

    argparse converts a string default with the flag's type, exactly as
    if it had been given on the command line, and only when the flag was
    not given, so explicit flags beat the config file.
    """
    parser = argparse.ArgumentParser(
        prog="rsdnet",
        description="Robust divergence-based neural classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="k-fold cross-validated training run")
    _add_common(p)
    _add_data(p)
    _add_attack(p)
    p.add_argument("--loss", default="cce", help=LOSS_GRAMMAR)
    p.add_argument("--folds", type=int, default=3)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bound", help="excess-risk bound heatmap grid")
    _add_common(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--lambda-min", type=float, default=-1.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=50)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("influence", help="influence-function curves")
    _add_common(p)
    p.add_argument("--model", required=True, choices=["M1", "M2", "M3"])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--theta", default=None, help="comma list; default all ones")
    p.add_argument("--grid", default="-10,10,201", help="min,max,count")
    p.add_argument("--sample-size", type=int, default=100)
    p.add_argument("--correctly-specified", action="store_true",
                   help="override the reference posterior by the model output")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("epochs", help="per-epoch accuracy trace")
    _add_common(p)
    _add_data(p)
    p.add_argument("--loss", action="append", required=True,
                   help=f"repeatable: {LOSS_GRAMMAR}")
    p.set_defaults(func=cmd_epochs)

    p = sub.add_parser("corrupt", help="standalone label corruption dump")
    _add_common(p)
    _add_dataset(p)
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("attack", help="standalone adversarial perturbation dump")
    _add_common(p)
    _add_dataset(p)
    p.add_argument("--batch", type=int, default=128)
    _add_attack(p, required=True)
    p.set_defaults(func=cmd_attack)
    if config:
        for p in sub.choices.values():
            p.set_defaults(**config)
    return parser


def _read_config(path, args) -> dict:
    """Flag dests and values from a flat key=value config file.

    args is the namespace parsed without the config; it decides which keys
    the command knows.  Boolean switches take 1/true/yes as true.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    config = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {line!r}")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            raise ValueError(f"unknown config key: {key!r}")
        current = getattr(args, dest)
        if isinstance(current, list):
            raise ValueError(f"config key {key!r} is a repeatable flag; "
                             "give it on the command line")
        if isinstance(current, bool):
            value = value.lower() in ("1", "true", "yes")
        config[dest] = value
    return config


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """build_parser() without a config, built once per process; parsing
    does not change a parser, so every main call can share it.  A --config
    run parses with a parser of its own."""
    return build_parser()


def main(argv=None) -> int:
    args = _plain_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args.config, args)).parse_args(argv)
        _require(args.seed >= 0, "seed", "must be at least 0", args.seed)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc.render(flag)}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
