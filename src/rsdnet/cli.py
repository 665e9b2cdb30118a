"""Command-line front end.

Subcommands: train (k-fold cross-validated experiment), bound (excess-risk
heatmap grid), influence (influence-function curves), epochs (per-epoch
accuracy traces), corrupt (standalone label corruption), attack (standalone
adversarial perturbation).  All outputs are plot-ready CSV files and every
command is deterministic given its flags and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import PurePath

import numpy as np

from . import data_io
from .attacks import AttackConfig, adversarial_trainset
from .contamination import NoiseConfig, corrupt_labels
from .data_io import DataFormatError, Dataset
from .divergence import LossSpec, clip_probs, make_tuning
from .network import ArchitectureSpec, example_model
from .optimizer import TrainConfig, accuracy, train
from .theory import IFRequest, bound_grid, default_feature_sample, influence_function

EXIT_OK = 0
EXIT_BAD_FLAGS = 2
EXIT_BAD_DATA = 3
EXIT_NUMERIC = 4

ARCH_PRESETS = {
    "mnist-mlp": ArchitectureSpec(784, ((128, "relu"), (128, "relu")), 10),
    "fmnist-mlp": ArchitectureSpec(784, ((200, "relu"), (100, "relu")), 10),
    "surrogate-64": ArchitectureSpec(784, ((64, "relu"),), 10),
    "toy": ArchitectureSpec(2, ((16, "tanh"),), 2),
    "example1-mlp": ArchitectureSpec(1, ((16, "tanh"),), 2),
    # enough capacity to memorize noisy labels on the blob set, which is what
    # makes the label-noise comparison informative at desk scale
    "blob-mlp": ArchitectureSpec(2, ((64, "relu"), (64, "relu")), 2),
}


LOSS_GRAMMAR = "cce | mae | gce:Q | tcce:D | sd:BETA,LAMBDA"


class CliError(ValueError):
    """A bad flag value; main maps it, like any ValueError, to exit 2."""


def parse_loss(text: str) -> LossSpec:
    """The loss a --loss value names; LOSS_GRAMMAR is the only spelling."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "sd":
            b, _, l = arg.partition(",")
            return LossSpec(kind="sd", tuning=make_tuning(float(b), float(l)))
        if kind == "gce":
            return LossSpec(kind="gce", q=float(arg))
        if kind == "tcce":
            return LossSpec(kind="tcce", delta=float(arg))
        if kind in ("cce", "mae") and not arg:
            return LossSpec(kind=kind)
    except ValueError as exc:
        raise CliError(f"bad loss spec {text!r}: {exc}") from exc
    raise CliError(f"unknown loss spec {text!r}; expected {LOSS_GRAMMAR}")


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
        if n < 1:
            raise CliError(f"--n must be at least 1, got {n}")
        make = data_io.synthetic_blobs if text == "blobs" else data_io.synthetic_example1
        return make(n, seed)
    kind, _, arg = text.partition(":")
    paths = arg.split(",")
    if kind == "idx" and len(paths) == 2:
        dataset = data_io.read_idx(paths[0], paths[1])
    elif kind == "csv" and len(paths) == 2:
        dataset = data_io.load_dataset(paths[0], paths[1], num_classes)
    else:
        raise CliError(f"unknown dataset selector: {text!r}")
    if dataset.n == 0:
        raise DataFormatError("empty", f"{text}: the dataset has no examples")
    return dataset


def resolve_arch(args) -> tuple[ArchitectureSpec, Dataset]:
    """The --arch preset and the --dataset, read with the preset's class
    count and checked against its feature width and class count."""
    try:
        arch = ARCH_PRESETS[args.arch]
    except KeyError:
        raise CliError(f"unknown architecture preset: {args.arch!r}") from None
    dataset = load_dataset_arg(args.dataset, args.n, args.seed, arch.output_classes)
    if arch.input_dim != dataset.features.shape[1]:
        raise DataFormatError(
            "arch_mismatch", f"preset {args.arch} expects {arch.input_dim} "
            f"features, dataset has {dataset.features.shape[1]}")
    if arch.output_classes != dataset.num_classes:
        raise DataFormatError(
            "arch_mismatch", f"preset {args.arch} expects {arch.output_classes} "
            f"classes, dataset has {dataset.num_classes}")
    return arch, dataset


def _surrogate(args, dataset: Dataset, init_seed: int, shuffle_seed: int):
    """(params, arch) of a CCE-trained surrogate for the attacks: one hidden
    layer of 64 ReLU nodes, sized to the data at hand."""
    arch = ArchitectureSpec(dataset.features.shape[1], ((64, "relu"),),
                            dataset.num_classes)
    params, _ = train(
        dataset, arch, init_seed,
        TrainConfig(loss=LossSpec(kind="cce"), epochs=args.surrogate_epochs,
                    batch_size=args.batch, shuffle_seed=shuffle_seed),
    )
    return params, arch


def _attack_config(args) -> AttackConfig:
    return AttackConfig(kind=args.attack, epsilon=args.epsilon,
                        step_size=args.step, max_iters=args.iters)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    arch, dataset = resolve_arch(args)
    loss = parse_loss(args.loss)
    attack_cfg = _attack_config(args) if args.attack else None
    plan = data_io.make_folds(dataset.n, args.folds, args.seed)
    records = []
    saved = []
    for fold in range(plan.k):
        train_idx, val_idx = data_io.fold_split(plan, fold)
        train_ds = dataset.subset(train_idx)
        val_ds = dataset.subset(val_idx)
        adv_val = None
        train_ds, _ = corrupt_labels(
            train_ds, NoiseConfig(eta=args.eta, seed=args.seed + 1000 + fold))
        if attack_cfg is not None:
            sparams, sarch = _surrogate(args, train_ds, args.seed + 2000 + fold,
                                        args.seed + 3000 + fold)
            train_ds = adversarial_trainset(sparams, sarch, train_ds, attack_cfg)
            adv_val = adversarial_trainset(sparams, sarch, val_ds, attack_cfg)
        params, _ = train(
            train_ds, arch, args.seed + fold,
            TrainConfig(loss=loss, epochs=args.epochs, batch_size=args.batch,
                        shuffle_seed=args.seed + 100 + fold),
        )
        clean = accuracy(params, arch, val_ds)
        adv = accuracy(params, arch, adv_val) if adv_val is not None else None
        saved.append(params)
        records.append(_result_row(args, loss, str(fold), clean, adv))
    clean = [rec["clean_accuracy"] for rec in records]
    adv = [rec["adv_accuracy"] for rec in records]
    records.append(_result_row(args, loss, "mean", float(np.mean(clean)),
                               float(np.mean(adv)) if attack_cfg else None))
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
    if args.theta:
        theta = np.array([float(v) for v in args.theta.split(",")])
    else:
        theta = np.ones(model.n_params)
    lo, hi, count = args.grid.split(",")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 1 or not np.isfinite([lo, hi]).all():
        raise CliError(f"--grid needs finite ends and a count of at least 1, "
                       f"got {args.grid!r}")
    x_grid = np.linspace(lo, hi, count)
    p_star_fn = None
    if args.correctly_specified:
        def p_star_fn(x, _m=model, _th=theta):
            return clip_probs(_m.probs(_th, x))
    req = IFRequest(model=args.model, theta_g=theta, tuning=tuning,
                    x_grid=x_grid,
                    feature_sample=default_feature_sample(args.sample_size,
                                                          args.seed),
                    p_star_fn=p_star_fn)
    curves = influence_function(req)
    # one row per (grid point, parameter), grid-point-major
    data_io.write_csv(args.out, ("x_t", "param_index", "value"), (
        np.repeat(x_grid, model.n_params),
        np.tile(np.arange(model.n_params), x_grid.size),
        curves.ravel(),
    ))
    return EXIT_OK


def cmd_epochs(args) -> int:
    arch, dataset = resolve_arch(args)
    losses = [parse_loss(text) for text in args.loss]
    # single fixed train/test split (3:1)
    perm = np.random.default_rng(args.seed).permutation(dataset.n)
    cut = (3 * dataset.n) // 4
    train_ds = dataset.subset(perm[:cut])
    test_ds = dataset.subset(perm[cut:])
    train_ds, _ = corrupt_labels(
        train_ds, NoiseConfig(eta=args.eta, seed=args.seed + 1000))
    rows = []
    for loss in losses:
        _, metrics = train(
            train_ds, arch, args.seed,
            TrainConfig(loss=loss, epochs=args.epochs, batch_size=args.batch,
                        shuffle_seed=args.seed + 100),
            eval_set=test_ds,
        )
        rows += [(loss.describe(), *row) for row in metrics]
    header = ("loss", "epoch", "train_loss", "test_accuracy")
    data_io.write_csv(args.out, header,
                      [[row[i] for row in rows] for i in range(len(header))])
    return EXIT_OK


def cmd_corrupt(args) -> int:
    dataset = load_dataset_arg(args.dataset, args.n, args.seed)
    corrupted, mask = corrupt_labels(dataset,
                                     NoiseConfig(eta=args.eta, seed=args.seed))
    data_io.dump_dataset(corrupted, args.out + ".features.csv",
                         args.out + ".labels.csv", flip_mask=mask)
    return EXIT_OK


def cmd_attack(args) -> int:
    dataset = load_dataset_arg(args.dataset, args.n, args.seed)
    sparams, sarch = _surrogate(args, dataset, args.seed, args.seed + 100)
    attacked = adversarial_trainset(sparams, sarch, dataset, _attack_config(args))
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
            raise CliError(f"bad config line: {line!r}")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            raise CliError(f"unknown config key: {key!r}")
        current = getattr(args, dest)
        if isinstance(current, list):
            raise CliError(f"config key {key!r} is a repeatable flag; "
                           "give it on the command line")
        if isinstance(current, bool):
            value = value.lower() in ("1", "true", "yes")
        config[dest] = value
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args.config, args)).parse_args(argv)
        return args.func(args)
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
