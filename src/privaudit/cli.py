"""Command-line front end.

Subcommands: train, synthesize, attack, audit, report. Configuration is a
single JSON file; every emitted report is deterministic for a fixed config
and seed (timestamps go to a run_info.json sidecar, never into reports).

Exit codes: 0 success or audit pass, 1 audit fail, 2 audit inconclusive,
3 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import attacks as attacks_mod
from . import audit as audit_mod
from .attacks import _num
from .core_stats import NoValidGuaranteeError
from .data import (
    DataError,
    Dataset,
    Schema,
    SchemaError,
    count_value,
    fraction,
    load_csv,
    open_input,
    select_targets,
)
from .dpsgd import BugMode, DpSgdConfig, PredictiveTrainer
from .models import save_params
from .shadow import (
    ThreatModel,
    _stratified_bits,
    check_features,
    query_features,
    query_sample_count,
    run_shadow_experiment,
    shadow_run_count,
)
from .synthesizers import (
    DegenerateMarginalError,
    GanTrainer,
    MarginalSynthSpec,
    MarginalTrainer,
    gan_spec_for_schema,
    sample,
    sample_count,
    save_artifact,
)

EXIT_USAGE = 3


class ConfigError(Exception):
    """Configuration problem, annotated with the offending field path."""


def _build(path: str, fn, *args, keys=()):
    """fn(*args); an error becomes a ConfigError at path, or at path.key when
    its message begins with one of keys, the name a value was checked under."""
    try:
        return fn(*args)
    except (ValueError, KeyError, TypeError, SchemaError, DataError) as e:
        detail = str(e) or type(e).__name__
        path += next((f".{k}" for k in keys if detail.startswith(f"{k} ")), "")
        raise ConfigError(f"{path}: {detail}") from e


def load_config(path) -> dict:
    try:
        with open_input(path) as f:
            doc = json.load(f)
    except DataError as e:
        raise ConfigError(f"config: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config: {path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return doc


def _load_data(cfg: dict) -> Dataset:
    for key in ("schema", "dataset"):
        if key not in cfg:
            raise ConfigError(f"{key}: missing")
    schema = _build("schema", lambda: Schema.from_json_file(cfg["schema"]))
    ds = _build("dataset", lambda: load_csv(cfg["dataset"], schema))
    if len(ds) == 0:
        # nothing to train on or to pick a target from: a config problem
        raise ConfigError(f"dataset: {cfg['dataset']}: no rows")
    return ds


def _record_from_json(schema: Schema, values, path: str):
    """A config record, a list of values (level names or indices for
    categorical columns), checked by the data layer's one rule."""
    if not isinstance(values, list):
        raise ConfigError(f"{path}: must be a list of values, got {type(values).__name__}")
    return _build(path, lambda: Dataset.from_rows(schema, [values]).rows[0])


def _as_is(value):
    return value


# One table per config block: every accepted key and the conversion applied to
# its value. A key's default lives only in the signature of the function the
# block configures, so a block passes on just the keys it was given.
CONFIG = {**dict.fromkeys(("schema", "dataset", "out", "trainer",
                           "threat_model", "attack", "audit", "synthesize"), _as_is),
          "schema_version": partial(count_value, "schema_version", minimum=1),
          "master_seed": partial(count_value, "master_seed", minimum=None),
          "delta": partial(fraction, "delta"), "confidence": partial(fraction, "confidence")}
ATTACK = {"attacks": _as_is, "t_runs": shadow_run_count,
          "n_samples": query_sample_count, "target": _as_is}
TARGET = dict.fromkeys(("strategy", "record"), _as_is)
THREAT_MODEL = dict.fromkeys(("model_access", "data_knowledge", "architecture_known"),
                             _as_is)
SYNTHESIZE = {"n_samples": sample_count}
DPSGD = {**dict.fromkeys(("clip_norm", "noise_multiplier", "sample_rate", "steps",
                          "learning_rate"), _as_is), "bug_mode": BugMode}
TRAINER = {
    "predictive": dict.fromkeys(("kind", "label_column", "dpsgd", "model_kind",
                                 "hidden_dim", "init_scale", "observability"), _as_is),
    "marginal": dict.fromkeys(("kind", "noise_std", "bins"), _as_is),
    # a null steps would mean disc_config's steps: a default the config did not ask for
    "gan": {**dict.fromkeys(("kind", "dpsgd", "latent_dim", "gen_hidden", "disc_hidden",
                             "gen_lr"), _as_is),
            "steps": partial(count_value, "steps", minimum=None)},
}
AUDIT = {
    "step_mechanism": {"mode": _as_is, "trials": partial(count_value, "trials", minimum=None),
                       "audit_delta": partial(fraction, "audit_delta"),
                       "slack": audit_mod.audit_slack},
    "end_to_end": {"mode": _as_is, "t_runs": audit_mod.audit_run_count, "canary": _as_is,
                   "slack": audit_mod.audit_slack},
}


def _read_block(doc, table: dict, path: str) -> dict:
    """The keys the block sets, each converted by its table entry. An unknown
    key would otherwise fall back to a default silently."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    return {k: _build(f"{path}.{k}", table[k], v) for k, v in doc.items()}


def _given(doc: dict, *keys) -> dict:
    return {k: doc[k] for k in keys if k in doc}


def _dpsgd_config(doc) -> DpSgdConfig:
    kw = _read_block(doc, DPSGD, "trainer.dpsgd")
    return _build("trainer.dpsgd", lambda: DpSgdConfig(**kw), keys=kw)


def build_trainer(cfg: dict, schema: Schema):
    doc = cfg.get("trainer")
    if doc is None:
        raise ConfigError("trainer: missing")
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in TRAINER:
        raise ConfigError(f"trainer.kind: expected predictive/marginal/gan, got {kind!r}")
    kw = _read_block(doc, TRAINER[kind], "trainer")
    del kw["kind"]
    if kind == "marginal":
        return MarginalTrainer(_build("trainer", lambda: MarginalSynthSpec(**kw), keys=kw),
                               schema=schema)
    dp = _dpsgd_config(kw.pop("dpsgd", {}))
    if kind == "predictive":
        def predictive():
            trainer = PredictiveTrainer(config=dp, **kw)
            trainer.model_spec(schema, 0)  # rejects a label column the schema cannot serve
            return trainer
        return _build("trainer", predictive, keys=kw)
    return GanTrainer(_build("trainer", lambda: gan_spec_for_schema(
        schema, disc_config=dp, **kw), keys=kw))


def _threat_model(cfg: dict) -> ThreatModel:
    kw = _read_block(cfg.get("threat_model", {}), THREAT_MODEL, "threat_model")
    return _build("threat_model", lambda: ThreatModel(**kw), keys=kw)


def _delta(cfg: dict, n: int) -> float:
    # convention: delta defaults to 1/N
    return cfg["delta"] if "delta" in cfg else 1.0 / n


def _out_dir(cfg: dict, args) -> Path:
    """The output directory. A command checks it before its work and makes
    it only once it has results to write, so a failed run leaves none: the
    path, or the nearest of its parents that exists, must be a directory."""
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("out: missing (set in config or pass --out)")
    out = Path(out)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"out: {p} is not a directory")
            break
    return out


def _write_sidecar(out: Path, command: str) -> None:
    attacks_mod.write_json(out / "run_info.json", {
        "schema_version": 1,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def _accountant_doc(trainer, n: int, delta: float) -> dict:
    # a claim computed while a bug mode is active is the claim being audited,
    # not a guarantee, so the broken configurations are named before any claim
    dp = getattr(trainer, "config", None) or getattr(
        getattr(trainer, "spec", None), "disc_config", None)
    if dp is not None and dp.bug_mode != BugMode.NONE:
        reason = f"bug_mode={dp.bug_mode.value}"
    elif isinstance(trainer, MarginalTrainer) and trainer.spec.noise_std == 0:
        reason = "noise_std=0"
    else:
        try:
            eps = trainer.claimed_epsilon(n, delta)
        except NoValidGuaranteeError:
            reason = "configuration provides no valid privacy guarantee"
        else:
            return {"schema_version": 1, "claimed": {"epsilon": _num(eps), "delta": delta}}
    return {"schema_version": 1, "no_valid_guarantee": True, "reason": reason}


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    out = _out_dir(cfg, args)
    delta = _delta(cfg, len(ds))

    art = trainer.fit(ds, cfg["master_seed"])
    out.mkdir(parents=True, exist_ok=True)
    if trainer.kind == "predictive":
        save_params(out / "model.params", art.spec, art.params)
    else:
        save_artifact(out / "synthesizer.gen", art)
    attacks_mod.write_json(out / "accountant.json", _accountant_doc(trainer, len(ds), delta))
    _write_sidecar(out, "train")
    print(f"trained {trainer.kind} artifact -> {out}")
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    kw = _read_block(cfg.get("synthesize", {}), SYNTHESIZE, "synthesize")
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    if trainer.kind != "generative":
        raise ConfigError("trainer.kind: synthesize requires marginal or gan")
    out = _out_dir(cfg, args)
    seed = cfg["master_seed"]
    n = kw.get("n_samples", len(ds))

    art = trainer.fit(ds, seed)
    syn = sample(art, n, seed)
    out.mkdir(parents=True, exist_ok=True)
    syn.to_csv(out / "synthetic.csv")
    save_artifact(out / "synthesizer.gen", art)
    attacks_mod.write_json(out / "accountant.json",
                           _accountant_doc(trainer, len(ds), _delta(cfg, len(ds))))
    _write_sidecar(out, "synthesize")
    print(f"wrote {n} synthetic rows -> {out / 'synthetic.csv'}")
    return 0


ATTACK_FEATURES = {
    "loss_threshold": "pred_loss",
    "lira": "pred_loss",
    "dcr": "synth_dataset",
    "groundhog": "synth_dataset",
    "disc_loss": "disc_loss",
}

ATTACK_FNS = {
    "loss_threshold": attacks_mod.attack_loss_threshold,
    "lira": attacks_mod.attack_lira,
    "dcr": attacks_mod.attack_dcr,
    "groundhog": attacks_mod.attack_groundhog,
    "disc_loss": attacks_mod.attack_disc_loss,
}


def _check_attack_compat(names, trainer, tm: ThreatModel, t_runs: int) -> None:
    """Reject incompatible attack/trainer/threat-model combinations, and too
    few runs for an attack's calibration split, before any training starts."""
    if not names:
        raise ConfigError("attack.attacks: missing or empty")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"attack.attacks: must be a list of attack names, got {names!r}")
    for name in names:
        if name not in ATTACK_FNS:
            raise ConfigError(f"attack.attacks: unknown attack {name!r}")
        _build(f"attack.attacks: {name}", check_features, ATTACK_FEATURES[name], trainer, tm)
        if name in ("lira", "groundhog"):
            # the split depends only on the class sizes, which the seed does not change
            _build(f"attack.t_runs: {name}", attacks_mod._split_stratified,
                   _stratified_bits(t_runs, 0))


def _pick_target(cfg: dict, ds: Dataset):
    """Return (target record, pool). The target is an explicit record or one
    picked from the data by a strategy; either way every copy of it is
    removed from the pool."""
    doc = cfg.get("attack", {}).get("target", {})
    seed = cfg["master_seed"]
    if "record" in doc:
        target = _record_from_json(ds.schema, doc["record"], "attack.target.record")
    else:
        strategy = doc.get("strategy", "marginal_outlier")
        target = _build("attack.target.strategy",
                        lambda: select_targets(ds, strategy, 1, seed)[0])
    return target, ds.take(np.flatnonzero(~ds.matches(target)))


def cmd_attack(cfg: dict, args) -> int:
    kw = _read_block(cfg.get("attack", {}), ATTACK, "attack")
    _read_block(kw.get("target", {}), TARGET, "attack.target")
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    tm = _threat_model(cfg)
    names = kw.get("attacks")
    t_runs = kw.get("t_runs", 64)
    _check_attack_compat(names, trainer, tm, t_runs)

    if args.dry_run:
        est = audit_mod.estimate_mia_cost(
            len(ds), t_runs,
            audit_mod.AffineCost(slope=1.0), audit_mod.AffineCost(slope=1.0))
        print(json.dumps({"n": est.n, "t": est.t, "total": est.total},
                         sort_keys=True))
        return 0

    target, pool = _pick_target(cfg, ds)
    out = _out_dir(cfg, args)
    delta = _delta(cfg, len(ds))
    coll = _build("attack", run_shadow_experiment, target, pool, trainer, tm, t_runs,
                  cfg["master_seed"], args.workers)
    out.mkdir(parents=True, exist_ok=True)
    bundles = {}
    for name in names:
        mode = ATTACK_FEATURES[name]
        if mode not in bundles:
            bundles[mode] = query_features(coll, mode, _given(kw, "n_samples"))
        scored = ATTACK_FNS[name](bundles[mode])
        report = attacks_mod.evaluate(scored, delta, **_given(cfg, "confidence"))
        attacks_mod.save_report(out / f"attack_{name}.json", report)
        attacks_mod.save_roc_csv(out / f"attack_{name}_roc.csv", report)
        print(f"{name}: auc={report.auc:.3f} -> {out / f'attack_{name}.json'}")
    _write_sidecar(out, "attack")
    return 0


def cmd_audit(cfg: dict, args) -> int:
    adoc = cfg.get("audit", {})
    mode = adoc.get("mode", "end_to_end") if isinstance(adoc, dict) else None
    if not isinstance(mode, str) or mode not in AUDIT:
        raise ConfigError(f"audit.mode: expected step_mechanism or end_to_end, got {mode!r}")
    kw = _read_block(adoc, AUDIT[mode], "audit")
    kw.pop("mode", None)
    kw.update(_given(cfg, "confidence"), master_seed=cfg["master_seed"])

    if mode == "step_mechanism":
        # dataset-free: audits the configured update mechanism directly
        tdoc = cfg.get("trainer", {})
        if not isinstance(tdoc, dict):
            raise ConfigError("trainer: must be an object")
        doc = tdoc.get("dpsgd")
        if doc is None:
            raise ConfigError("trainer.dpsgd: missing (required for step audit)")
        dp = _dpsgd_config(doc)
        if "audit_delta" in kw:
            kw["delta"] = kw.pop("audit_delta")
        out = _out_dir(cfg, args)
        verdict = _build("audit", lambda: audit_mod.audit_step_mechanism(dp, **kw), keys=kw)
    else:
        ds = _load_data(cfg)
        trainer = build_trainer(cfg, ds.schema)
        if "canary" in kw:
            canary = _record_from_json(ds.schema, kw.pop("canary"), "audit.canary")
        else:
            canary = audit_mod.default_record_canary(ds.schema, ds)
        out = _out_dir(cfg, args)
        verdict = _build("audit", lambda: audit_mod.audit_end_to_end(
            trainer, ds, canary, **_given(cfg, "delta"), workers=args.workers, **kw))

    out.mkdir(parents=True, exist_ok=True)
    audit_mod.save_verdict(out / "audit.json", verdict)
    _write_sidecar(out, "audit")
    claimed = verdict.claimed.epsilon
    print(f"audit {verdict.audit}: measured {verdict.measured_lower_bound:.4g} "
          f"vs claimed {claimed:.4g} -> {verdict.status}")
    return audit_mod.exit_code(verdict)


def _fmt(v, spec: str = ".4g") -> str:
    """A report number as text: "-" where the number is absent."""
    if v == "unbounded":
        return "unbounded"
    if not isinstance(v, (int, float)):
        return "-"
    return format(v, spec)


def _json_object(path: Path) -> dict | None:
    """The file's JSON object, or None when it holds anything else."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _field(doc, *keys):
    """doc[keys[0]][keys[1]]..., or None where a level is not an object."""
    for key in keys:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def cmd_report(cfg: dict | None, args) -> int:
    out = Path(args.out or (cfg or {}).get("out") or ".")
    if not out.is_dir():
        raise ConfigError(f"out: no such directory: {out}")
    summary = {"schema_version": 1, "attacks": [], "audits": [], "missing": []}
    claimed = None
    acct = out / "accountant.json"
    if acct.exists():
        doc = _json_object(acct)
        if doc is None:
            summary["missing"].append(acct.name)
        claimed = _field(doc, "claimed", "epsilon")

    for p in sorted(out.glob("attack_*.json")):
        doc = _json_object(p)
        if doc is None:
            summary["missing"].append(p.name)
            continue
        ops = doc.get("operating_points")
        targeted = [op for op in (ops if isinstance(ops, list) else [])
                    if isinstance(_field(op, "target_fpr"), (int, float))]
        low = min(targeted, key=lambda op: op["target_fpr"], default={})
        summary["attacks"].append({
            "file": p.name,
            "attack": doc.get("attack"),
            "auc": doc.get("auc"),
            "eps_point": low.get("eps_point"),
            "eps_lower": low.get("eps_lower"),
            "claimed_epsilon": claimed,
        })
    for p in sorted(out.glob("audit*.json")):
        doc = _json_object(p)
        if doc is None:
            summary["missing"].append(p.name)
            continue
        summary["audits"].append({
            "file": p.name,
            "audit": doc.get("audit"),
            "claimed_epsilon": _field(doc, "claimed", "epsilon"),
            "measured_lower_bound": doc.get("measured_lower_bound"),
            "status": doc.get("status"),
        })

    attacks_mod.write_json(out / "summary.json", summary)
    lines = [f"{'source':<24}{'auc':>8}{'eps_point':>12}{'eps_lower':>12}{'claimed':>10}"]
    for row in summary["attacks"]:
        lines.append(f"{str(row['attack'] or '-'):<24}{_fmt(row['auc'], '.3f'):>8}"
                     f"{_fmt(row['eps_point']):>12}{_fmt(row['eps_lower']):>12}"
                     f"{_fmt(row['claimed_epsilon']):>10}")
    for row in summary["audits"]:
        lines.append(f"{str(row['audit'] or '-'):<24}{'-':>8}"
                     f"{_fmt(row['measured_lower_bound']):>12}{'-':>12}"
                     f"{_fmt(row['claimed_epsilon']):>10} {row['status']}")
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for inconclusive audits; usage errors are 3
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _worker_count(value: str) -> int:
    try:
        return count_value("--workers", int(value), 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}") from None


def _make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="privaudit",
                description="empirical privacy measurement for small tabular models")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("train", "synthesize", "attack", "audit", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="experiment config JSON",
                        required=name != "report")
        if name in ("attack", "audit"):
            sp.add_argument("--workers", type=_worker_count, default=1,
                            help="processes that train the predictive shadow runs "
                                 "(at most one per CPU); output does not depend on it")
        if name == "attack":
            sp.add_argument("--dry-run", action="store_true",
                            help="print the estimated attack cost and exit")
        sp.add_argument("--out", help="output directory (overrides config)")
    return p


COMMANDS = {
    "train": cmd_train,
    "synthesize": cmd_synthesize,
    "attack": cmd_attack,
    "audit": cmd_audit,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command != "report" and cfg is None:
            raise ConfigError("config: missing")
        if cfg is not None:
            cfg = {"master_seed": 0, **_read_block(cfg, CONFIG, "config")}
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateMarginalError as e:
        # the configured noise swamps a column's counts: a config problem
        print(f"error: trainer: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
