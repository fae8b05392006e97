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
from pathlib import Path

import numpy as np

from . import attacks as attacks_mod
from . import audit as audit_mod
from .core_stats import confidence_level
from .data import (
    CategoricalColumn,
    DataError,
    Dataset,
    Schema,
    SchemaError,
    load_csv,
    select_targets,
)
from .dpsgd import BugMode, DpSgdConfig, NoValidGuaranteeError, PredictiveTrainer
from .models import save_params
from .shadow import (
    ThreatModel,
    query_features,
    query_sample_count,
    run_shadow_experiment,
    shadow_run_count,
)
from .synthesizers import (
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


def _build(path: str, fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError, TypeError, SchemaError, DataError,
            NoValidGuaranteeError) as e:
        detail = str(e) or type(e).__name__
        raise ConfigError(f"{path}: {detail}") from e


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config: no such file: {path}")
    try:
        doc = json.loads(p.read_text())
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
    return _build("dataset", lambda: load_csv(cfg["dataset"], schema))


def _record_from_json(schema: Schema, values, path: str):
    def convert():
        if len(values) != len(schema.columns):
            raise ValueError(f"record has {len(values)} values, "
                             f"schema has {len(schema.columns)} columns")
        out = []
        for col, v in zip(schema.columns, values):
            if isinstance(col, CategoricalColumn) and isinstance(v, str):
                if v not in col.levels:
                    raise ValueError(f"unknown level {v!r} for column {col.name!r}")
                v = col.levels.index(v)
            out.append(v)
        return schema.validate_record(out)
    return _build(path, convert)


def _as_is(value):
    return value


def _delta_value(value) -> float:
    """value as a privacy delta: a float strictly between 0 and 1."""
    delta = float(value)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {value}")
    return delta


# One table per config block: every accepted key and the conversion applied to
# its value. A key's default lives only in the signature of the function the
# block configures, so a block passes on just the keys it was given.
CONFIG = {**dict.fromkeys(("schema_version", "schema", "dataset", "out", "trainer",
                           "threat_model", "attack", "audit", "synthesize"), _as_is),
          "master_seed": int, "delta": _delta_value, "confidence": confidence_level}
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
    "gan": dict.fromkeys(("kind", "dpsgd", "latent_dim", "gen_hidden", "disc_hidden",
                          "gen_lr", "steps"), _as_is),
}
AUDIT = {
    "step_mechanism": {"mode": _as_is, "trials": int, "audit_delta": float,
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
    return _build("trainer.dpsgd", lambda: DpSgdConfig(**kw))


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
        return MarginalTrainer(_build("trainer", lambda: MarginalSynthSpec(**kw)),
                               schema=schema)
    dp = _dpsgd_config(kw.pop("dpsgd", {}))
    if kind == "predictive":
        def predictive():
            trainer = PredictiveTrainer(config=dp, **kw)
            trainer.model_spec(schema, 0)  # rejects a label column the schema cannot serve
            return trainer
        return _build("trainer", predictive)
    return GanTrainer(_build("trainer", lambda: gan_spec_for_schema(
        schema, disc_config=dp, **kw)))


def _threat_model(cfg: dict) -> ThreatModel:
    kw = _read_block(cfg.get("threat_model", {}), THREAT_MODEL, "threat_model")
    return _build("threat_model", lambda: ThreatModel(**kw))


def _delta(cfg: dict, n: int) -> float:
    # convention: delta defaults to 1/N
    return cfg.get("delta", 1.0 / n)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("out: missing (set in config or pass --out)")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


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
            return {"schema_version": 1, "claimed": {"epsilon": eps, "delta": delta}}
    return {"schema_version": 1, "no_valid_guarantee": True, "reason": reason}


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    out = _out_dir(cfg, args)
    delta = _delta(cfg, len(ds))

    art = trainer.fit(ds, cfg["master_seed"])
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


def _check_attack_compat(names, trainer, tm: ThreatModel) -> None:
    """Reject incompatible attack/trainer/threat-model combinations before
    any training starts."""
    if not names:
        raise ConfigError("attack.attacks: missing or empty")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"attack.attacks: must be a list of attack names, got {names!r}")
    for name in names:
        if name not in ATTACK_FNS:
            raise ConfigError(f"attack.attacks: unknown attack {name!r}")
        mode = ATTACK_FEATURES[name]
        if mode == "pred_loss" and trainer.kind != "predictive":
            raise ConfigError(f"attack.attacks: {name} needs a predictive trainer")
        if mode == "synth_dataset" and trainer.kind != "generative":
            raise ConfigError(f"attack.attacks: {name} needs a generative trainer")
        if mode == "disc_loss":
            if tm.model_access != "white_box":
                raise ConfigError(f"attack.attacks: {name} needs white_box access")
            if not isinstance(trainer, GanTrainer):
                raise ConfigError(f"attack.attacks: {name} needs a gan trainer")


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
    _check_attack_compat(names, trainer, tm)
    t_runs = kw.get("t_runs", 64)

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
    coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, cfg["master_seed"],
                                 args.workers)
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
        verdict = _build("audit", lambda: audit_mod.audit_step_mechanism(dp, **kw))
        out = _out_dir(cfg, args)
    else:
        ds = _load_data(cfg)
        trainer = build_trainer(cfg, ds.schema)
        if "canary" in kw:
            canary = _record_from_json(ds.schema, kw.pop("canary"), "audit.canary")
        else:
            canary = audit_mod.default_record_canary(ds.schema, ds)
        # a configuration without a valid claim fails before any directory or training
        _build("audit", lambda: audit_mod.end_to_end_claim(
            trainer, len(ds), **_given(cfg, "delta")))
        out = _out_dir(cfg, args)
        verdict = _build("audit", lambda: audit_mod.audit_end_to_end(
            trainer, ds, canary, **_given(cfg, "delta"), workers=args.workers, **kw))

    audit_mod.save_verdict(out / "audit.json", verdict)
    _write_sidecar(out, "audit")
    claimed = verdict.claimed.epsilon
    print(f"audit {verdict.audit}: measured {verdict.measured_lower_bound:.4g} "
          f"vs claimed {claimed:.4g} -> {verdict.status}")
    return audit_mod.exit_code(verdict)


def _fmt(v) -> str:
    if v == "unbounded":
        return "unbounded"
    if v is None:
        return "-"
    return f"{v:.4g}"


def cmd_report(cfg: dict | None, args) -> int:
    out = Path(args.out or (cfg or {}).get("out") or ".")
    if not out.is_dir():
        raise ConfigError(f"out: no such directory: {out}")
    summary = {"schema_version": 1, "attacks": [], "audits": [], "missing": []}
    claimed = None
    acct = out / "accountant.json"
    if acct.exists():
        doc = json.loads(acct.read_text())
        claimed = doc.get("claimed", {}).get("epsilon")

    for p in sorted(out.glob("attack_*.json")):
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError:
            summary["missing"].append(p.name)
            continue
        targeted = [op for op in doc.get("operating_points", [])
                    if op.get("target_fpr") is not None]
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
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError:
            summary["missing"].append(p.name)
            continue
        summary["audits"].append({
            "file": p.name,
            "audit": doc.get("audit"),
            "claimed_epsilon": doc.get("claimed", {}).get("epsilon"),
            "measured_lower_bound": doc.get("measured_lower_bound"),
            "status": doc.get("status"),
        })

    attacks_mod.write_json(out / "summary.json", summary)
    lines = [f"{'source':<24}{'auc':>8}{'eps_point':>12}{'eps_lower':>12}{'claimed':>10}"]
    for row in summary["attacks"]:
        lines.append(f"{row['attack']:<24}{row['auc']:>8.3f}"
                     f"{_fmt(row['eps_point']):>12}{_fmt(row['eps_lower']):>12}"
                     f"{_fmt(row['claimed_epsilon']):>10}")
    for row in summary["audits"]:
        lines.append(f"{row['audit']:<24}{'-':>8}"
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
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
    return workers


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


if __name__ == "__main__":
    sys.exit(main())
