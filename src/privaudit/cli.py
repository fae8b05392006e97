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
from .shadow import ThreatModel, query_features, run_shadow_experiment
from .synthesizers import (
    GanTrainer,
    MarginalSynthSpec,
    MarginalTrainer,
    gan_spec_for_schema,
    sample,
    save_artifact,
)

EXIT_USAGE = 3


class ConfigError(Exception):
    """Configuration problem, annotated with the offending field path."""


def _build(path: str, fn):
    try:
        return fn()
    except (ValueError, KeyError, TypeError, SchemaError, DataError) as e:
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
        out = []
        for col, v in zip(schema.columns, values):
            if isinstance(col, CategoricalColumn) and isinstance(v, str):
                if v not in col.levels:
                    raise ValueError(f"unknown level {v!r} for column {col.name!r}")
                v = col.levels.index(v)
            out.append(v)
        return schema.validate_record(out)
    return _build(path, convert)


def _check_keys(doc, allowed, path: str) -> None:
    """A mistyped key would otherwise fall back to a default silently."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key {', '.join(map(repr, unknown))}")


DPSGD_KEYS = ("clip_norm", "noise_multiplier", "sample_rate", "steps",
              "learning_rate", "bug_mode")
TRAINER_KEYS = {
    "predictive": ("kind", "label_column", "dpsgd", "model_kind", "hidden_dim",
                   "init_scale", "observability"),
    "marginal": ("kind", "noise_std", "bins"),
    "gan": ("kind", "dpsgd", "latent_dim", "gen_hidden", "disc_hidden",
            "gen_lr", "steps"),
}
AUDIT_KEYS = {
    "step_mechanism": ("mode", "trials", "audit_delta", "slack"),
    "end_to_end": ("mode", "t_runs", "canary", "slack"),
}


def _dpsgd_config(doc: dict, path: str) -> DpSgdConfig:
    _check_keys(doc, DPSGD_KEYS, path)

    def build():
        return DpSgdConfig(
            clip_norm=doc["clip_norm"],
            noise_multiplier=doc["noise_multiplier"],
            sample_rate=doc["sample_rate"],
            steps=doc["steps"],
            learning_rate=doc["learning_rate"],
            bug_mode=BugMode(doc.get("bug_mode", "none")),
        )
    return _build(path, build)


def build_trainer(cfg: dict, schema: Schema):
    doc = cfg.get("trainer")
    if doc is None:
        raise ConfigError("trainer: missing")
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in TRAINER_KEYS:
        raise ConfigError(f"trainer.kind: expected predictive/marginal/gan, got {kind!r}")
    _check_keys(doc, TRAINER_KEYS[kind], "trainer")
    if kind == "predictive":
        dp = _dpsgd_config(doc.get("dpsgd", {}), "trainer.dpsgd")
        return _build("trainer", lambda: PredictiveTrainer(
            label_column=doc["label_column"],
            config=dp,
            model_kind=doc.get("model_kind", "logistic_regression"),
            hidden_dim=doc.get("hidden_dim", 0),
            init_scale=doc.get("init_scale", 0.1),
            observability=doc.get("observability", "black_box"),
        ))
    if kind == "marginal":
        spec = _build("trainer", lambda: MarginalSynthSpec(
            noise_std=doc.get("noise_std", 0.0), bins=doc.get("bins", 10)))
        return MarginalTrainer(spec, schema=schema)
    dp = _dpsgd_config(doc.get("dpsgd", {}), "trainer.dpsgd")
    spec = _build("trainer", lambda: gan_spec_for_schema(
        schema,
        latent_dim=doc.get("latent_dim", 4),
        gen_hidden=doc.get("gen_hidden", 16),
        disc_hidden=doc.get("disc_hidden", 16),
        disc_config=dp,
        gen_lr=doc.get("gen_lr", 0.05),
        steps=doc.get("steps"),
    ))
    return GanTrainer(spec)


def _threat_model(cfg: dict) -> ThreatModel:
    doc = cfg.get("threat_model", {})
    return _build("threat_model", lambda: ThreatModel(
        model_access=doc.get("model_access", "black_box_query"),
        data_knowledge=doc.get("data_knowledge", "fixed_dataset"),
        architecture_known=doc.get("architecture_known", True),
    ))


def _delta(cfg: dict, n: int) -> float:
    # convention: delta defaults to 1/N
    d = cfg.get("delta")
    if d is None:
        return 1.0 / n
    if not (0.0 < d < 1.0):
        raise ConfigError(f"delta: must be in (0, 1), got {d}")
    return float(d)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("out: missing (set in config or pass --out)")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_sidecar(out: Path, command: str) -> None:
    _write_json(out / "run_info.json", {
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
    seed = int(cfg.get("master_seed", 0))

    art = trainer.fit(ds, seed)
    if trainer.kind == "predictive":
        save_params(out / "model.params", art.spec, art.params)
    else:
        save_artifact(out / "synthesizer.gen", art)
    _write_json(out / "accountant.json", _accountant_doc(trainer, len(ds), delta))
    _write_sidecar(out, "train")
    print(f"trained {trainer.kind} artifact -> {out}")
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    if trainer.kind != "generative":
        raise ConfigError("trainer.kind: synthesize requires marginal or gan")
    out = _out_dir(cfg, args)
    seed = int(cfg.get("master_seed", 0))
    n = int(cfg.get("synthesize", {}).get("n_samples", len(ds)))

    art = trainer.fit(ds, seed)
    syn = sample(art, n, seed)
    syn.to_csv(out / "synthetic.csv")
    save_artifact(out / "synthesizer.gen", art)
    _write_json(out / "accountant.json",
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
    """Return (target record, pool). Every copy of a selected in-data target
    is removed from the pool; an explicit record must be absent from the data
    already."""
    doc = cfg.get("attack", {}).get("target", {"strategy": "marginal_outlier"})
    seed = int(cfg.get("master_seed", 0))
    if "record" in doc:
        return _record_from_json(ds.schema, doc["record"], "attack.target.record"), ds
    strategy = doc.get("strategy", "marginal_outlier")
    target = _build("attack.target.strategy",
                    lambda: select_targets(ds, strategy, 1, seed)[0])
    return target, ds.take(np.flatnonzero(~ds.matches(target)))


def cmd_attack(cfg: dict, args) -> int:
    ds = _load_data(cfg)
    trainer = build_trainer(cfg, ds.schema)
    tm = _threat_model(cfg)
    adoc = cfg.get("attack", {})
    names = adoc.get("attacks")
    if not names:
        raise ConfigError("attack.attacks: missing or empty")
    _check_attack_compat(names, trainer, tm)

    t_runs = int(adoc.get("t_runs", 64))
    seed = int(cfg.get("master_seed", 0))

    if args.dry_run:
        est = audit_mod.estimate_mia_cost(
            len(ds), t_runs,
            audit_mod.AffineCost(slope=1.0), audit_mod.AffineCost(slope=1.0))
        print(json.dumps({"n": est.n, "t": est.t, "total": est.total},
                         sort_keys=True))
        return 0

    out = _out_dir(cfg, args)
    target, pool = _pick_target(cfg, ds)
    delta = _delta(cfg, len(ds))
    confidence = float(cfg.get("confidence", 0.95))
    coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, seed,
                                 workers=args.workers)
    bundles = {}
    for name in names:
        mode = ATTACK_FEATURES[name]
        if mode not in bundles:
            qc = {"n_samples": int(adoc.get("n_samples", 100))}
            bundles[mode] = query_features(coll, mode, qc)
        scored = ATTACK_FNS[name](bundles[mode])
        report = attacks_mod.evaluate(scored, delta, confidence)
        attacks_mod.save_report(out / f"attack_{name}.json", report)
        attacks_mod.save_roc_csv(out / f"attack_{name}_roc.csv", report)
        print(f"{name}: auc={report.auc:.3f} -> {out / f'attack_{name}.json'}")
    _write_sidecar(out, "attack")
    return 0


def cmd_audit(cfg: dict, args) -> int:
    adoc = cfg.get("audit", {})
    mode = adoc.get("mode", "end_to_end") if isinstance(adoc, dict) else None
    if not isinstance(mode, str) or mode not in AUDIT_KEYS:
        raise ConfigError(f"audit.mode: expected step_mechanism or end_to_end, got {mode!r}")
    _check_keys(adoc, AUDIT_KEYS[mode], "audit")
    seed = int(cfg.get("master_seed", 0))
    confidence = float(cfg.get("confidence", 0.95))
    slack = float(adoc.get("slack", 0.0))

    if mode == "step_mechanism":
        # dataset-free: audits the configured update mechanism directly
        doc = cfg.get("trainer", {}).get("dpsgd")
        if doc is None:
            raise ConfigError("trainer.dpsgd: missing (required for step audit)")
        dp = _dpsgd_config(doc, "trainer.dpsgd")
        verdict = _build("audit", lambda: audit_mod.audit_step_mechanism(
            dp,
            trials=int(adoc.get("trials", 1000)),
            delta=float(adoc.get("audit_delta", 0.1)),
            confidence=confidence,
            master_seed=seed,
            slack=slack,
        ))
        out = _out_dir(cfg, args)
    else:
        ds = _load_data(cfg)
        trainer = build_trainer(cfg, ds.schema)
        out = _out_dir(cfg, args)
        if "canary" in adoc:
            canary = audit_mod.CanarySpec(
                kind="record_canary",
                record=_record_from_json(ds.schema, adoc["canary"],
                                         "audit.canary"))
        else:
            canary = audit_mod.default_record_canary(ds.schema, ds)
        verdict = _build("audit", lambda: audit_mod.audit_end_to_end(
            trainer, ds, canary,
            t_runs=int(adoc.get("t_runs", 100)),
            delta=cfg.get("delta"),
            confidence=confidence,
            master_seed=seed,
            workers=args.workers,
            slack=slack,
        ))

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

    _write_json(out / "summary.json", summary)
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


def _make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="privaudit",
                description="empirical privacy measurement for small tabular models")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("train", "synthesize", "attack", "audit", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="experiment config JSON",
                        required=name != "report")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--dry-run", action="store_true", dest="dry_run")
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
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
