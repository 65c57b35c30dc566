"""Run configuration and the per-device hyperparameter bundle.

Configuration is one JSON document validated against a closed schema:
unknown keys are errors so typos fail fast instead of silently falling back
to defaults. The bundle serializes the priors the training stage produces
and the streaming/synthesis stages consume; its documents are checked
against a closed schema too, level by level. Neither accepts ``true`` or
``false`` where a number is expected.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..distributions import SIMPLEX_ATOL, NormalPrior
from ..hdp import DurationMixturePrior, EmissionMixturePrior
from ..hsmm import DurationHyper


@dataclass(frozen=True)
class DeviceConfig:
    name: str
    n_states: int = 2
    sigma2: float = 100.0

    def __post_init__(self):
        _check_floors(self, _DEVICE_LEAST, positive=("sigma2",))


# each numeric setting's smallest workable value: a weak limit of one state
# leaves no transition row any off-diagonal mass, training keeps the path of
# its last sweep, a noise variance is never negative, and a device's segment
# model needs two states to move between
_LEAST = {"particles": 1, "weak_limit": 2, "sweeps": 1, "burn_in": 0, "horizon": 1,
          "meter_noise_var": 0}
_CONTROL_LEAST = {"n_loads": 1, "n_houses": 1, "steps": 1, "period": 1, "transient": 0,
                  "hook_particles": 1, "meter_noise_var": 0}
_DEVICE_LEAST = {"n_states": 2}


def _check_floors(cfg, least: dict, positive=(), finite=()) -> None:
    """Every way of making a config, a file or a command-line override
    through ``dataclasses.replace``, passes here; NaN fails too. The
    ``positive`` fields must also lie above 0 and be finite, and the
    ``finite`` ones be finite."""
    for key, floor in least.items():
        value = getattr(cfg, key)
        if not value >= floor:
            raise ValueError(f"field {key!r} must be >= {floor}, got {value!r}")
    for key in positive:
        value = getattr(cfg, key)
        if not 0.0 < value < np.inf:
            raise ValueError(f"field {key!r} must be positive and finite, got {value!r}")
    for key in finite:
        value = getattr(cfg, key)
        if not abs(value) < np.inf:
            raise ValueError(f"field {key!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class ControlConfig:
    n_loads: int = 10000
    n_houses: int = 20
    steps: int = 1440
    amplitude_frac: float = 0.5      # sinusoid amplitude / nominal baseline
    period: int = 720                # samples per reference cycle
    transient: int = 240
    hook: str = "none"               # none | oracle | fbpf
    hook_particles: int = 200
    meter_noise_var: float = 1.0

    def __post_init__(self):
        _check_floors(self, _CONTROL_LEAST, finite=("amplitude_frac",))


_DEFAULT_DEVICES = (
    DeviceConfig("compressor", 2, 2500.0),
    DeviceConfig("furnace", 3, 400.0),
    DeviceConfig("refrigerator", 2, 100.0),
    DeviceConfig("dishwasher", 3, 400.0),
)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    particles: int = 2000
    weak_limit: int = 8
    sweeps: int = 60
    burn_in: int = 40
    horizon: int = 5000
    meter_noise_var: float = 0.0
    devices: tuple[DeviceConfig, ...] = _DEFAULT_DEVICES
    control: ControlConfig = field(default_factory=ControlConfig)

    def __post_init__(self):
        _check_floors(self, _LEAST)

    def device_names(self) -> list[str]:
        return [d.name for d in self.devices]


_NUMBER = (int, float)
_SCHEMA = {
    "seed": int,
    "particles": int,
    "weak_limit": int,
    "sweeps": int,
    "burn_in": int,
    "horizon": int,
    "meter_noise_var": _NUMBER,
    "devices": list,
    "control": dict,
}
_DEVICE_SCHEMA = {"name": str, "n_states": int, "sigma2": _NUMBER}
_CONTROL_SCHEMA = {
    "n_loads": int, "n_houses": int, "steps": int,
    "amplitude_frac": _NUMBER, "period": int, "transient": int,
    "hook": str, "hook_particles": int, "meter_noise_var": _NUMBER,
}


def check_tracking_window(control: ControlConfig) -> None:
    """Tracking is scored on the steps after the transient, so there must be
    at least one."""
    if control.transient >= control.steps:
        raise ValueError(
            f"control steps ({control.steps}) must exceed transient "
            f"({control.transient}): tracking is scored after the transient")


def _check_keys(doc, schema: dict, where: str, required=()):
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, val in doc.items():
        if key not in schema:
            raise ValueError(f"{where}: unknown key {key!r}")
        # bool is an int subclass, but no field here is a flag
        if isinstance(val, bool) or not isinstance(val, schema[key]):
            raise ValueError(f"{where}: field {key!r} has wrong type "
                             f"({type(val).__name__})")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where}: missing key {key!r}")


def load_config(path_or_doc) -> RunConfig:
    """Parse and validate a JSON config; dicts are accepted directly."""
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
    else:
        with open(path_or_doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    _check_keys(doc, _SCHEMA, "top level")
    kwargs = {k: v for k, v in doc.items() if k not in ("devices", "control")}
    if "devices" in doc:
        devs = []
        for i, d in enumerate(doc["devices"]):
            _check_keys(d, _DEVICE_SCHEMA, f"devices[{i}]", required=("name",))
            try:
                devs.append(DeviceConfig(**d))
            except ValueError as exc:
                raise ValueError(f"devices[{i}]: {exc}") from None
        kwargs["devices"] = tuple(devs)
    if "control" in doc:
        _check_keys(doc["control"], _CONTROL_SCHEMA, "control")
        kwargs["control"] = ControlConfig(**doc["control"])
    cfg = RunConfig(**kwargs)
    if cfg.control.hook not in ("none", "oracle", "fbpf"):
        raise ValueError(f"unknown control hook {cfg.control.hook!r}")
    check_tracking_window(cfg.control)
    return cfg


# ---------------------------------------------------------------------------
# the hyperparameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceBundle:
    """Priors for one device: what training emits and streaming consumes."""

    name: str
    emission_mix: EmissionMixturePrior
    duration_mix: DurationMixturePrior
    alpha: float          # symmetric transition concentration
    sigma2: float         # fixed emission variance
    r: int                # fixed negative-binomial shape

    @property
    def n_states(self) -> int:
        return len(self.emission_mix.components)


@dataclass(frozen=True)
class HyperParamBundle:
    devices: tuple[DeviceBundle, ...]

    def device(self, name: str) -> DeviceBundle:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)


def bundle_to_doc(bundle: HyperParamBundle) -> dict:
    out = {"devices": []}
    for d in bundle.devices:
        out["devices"].append({
            "name": d.name,
            "alpha": d.alpha,
            "sigma2": d.sigma2,
            "r": d.r,
            "emission": {
                "weights": [float(w) for w in d.emission_mix.weights],
                "means": [c.mean for c in d.emission_mix.components],
                "vars": [c.var for c in d.emission_mix.components],
            },
            "duration": {
                "weights": [float(w) for w in d.duration_mix.weights],
                "components": [asdict(h) for h in d.duration_mix.components],
            },
        })
    return out


_BUNDLE_SCHEMA = {"devices": list}
_BUNDLE_DEVICE_SCHEMA = {"name": str, "alpha": _NUMBER, "sigma2": _NUMBER, "r": int,
                         "emission": dict, "duration": dict}
_EMISSION_SCHEMA = {"weights": list, "means": list, "vars": list}
_DURATION_SCHEMA = {"weights": list, "components": list}
_DURATION_HYPER_SCHEMA = {f.name: int if f.name == "r" else _NUMBER
                          for f in fields(DurationHyper)}


def _numbers(doc: dict, key: str, where: str) -> list:
    vals = doc[key]
    if any(isinstance(v, bool) or not isinstance(v, _NUMBER) for v in vals):
        raise ValueError(f"{where}: field {key!r} must hold numbers only")
    return vals


def _positive(doc: dict, keys, where: str) -> None:
    """Each of ``keys`` in ``doc`` is a finite number above 0; NaN and
    infinities fail too."""
    for key in keys:
        if not 0.0 < doc[key] < np.inf:
            raise ValueError(f"{where}: field {key!r} must be positive and finite, "
                             f"got {doc[key]!r}")


def _simplex(doc: dict, key: str, where: str) -> np.ndarray:
    """``doc[key]`` as a probability vector: numbers in [0, 1] that sum to 1
    within the mixture priors' tolerance."""
    w = np.asarray(_numbers(doc, key, where), dtype=float)
    if not (np.all((w >= 0.0) & (w <= 1.0)) and abs(w.sum() - 1.0) <= SIMPLEX_ATOL):
        raise ValueError(f"{where}: field {key!r} must be a probability vector "
                         f"(entries in [0, 1] summing to 1), got {doc[key]!r}")
    return w


def bundle_from_doc(doc) -> HyperParamBundle:
    """The bundle a document describes; ``ValueError`` names the device and
    field of the first key or value that breaks the schema or its range:
    concentrations, variances and duration hyperparameters are positive,
    and mixture weights are probability vectors."""
    _check_keys(doc, _BUNDLE_SCHEMA, "bundle", required=tuple(_BUNDLE_SCHEMA))
    devs = []
    for i, d in enumerate(doc["devices"]):
        name = d.get("name") if isinstance(d, dict) else None
        where = f"device {name!r}" if isinstance(name, str) else f"devices[{i}]"
        _check_keys(d, _BUNDLE_DEVICE_SCHEMA, where, required=tuple(_BUNDLE_DEVICE_SCHEMA))
        _positive(d, ("alpha", "sigma2", "r"), where)
        em, at = d["emission"], f"{where} emission"
        _check_keys(em, _EMISSION_SCHEMA, at, required=tuple(_EMISSION_SCHEMA))
        means, vars_ = (_numbers(em, key, at) for key in ("means", "vars"))
        weights = _simplex(em, "weights", at)
        if not len(weights) == len(means) == len(vars_):
            raise ValueError(f"{at}: 'weights', 'means' and 'vars' differ in length")
        if not all(0.0 < v < np.inf for v in vars_):
            raise ValueError(f"{at}: field 'vars' must hold positive finite numbers, "
                             f"got {vars_!r}")
        emission = EmissionMixturePrior(
            weights=weights,
            components=tuple(NormalPrior(m, v) for m, v in zip(means, vars_)),
        )
        du, at = d["duration"], f"{where} duration"
        _check_keys(du, _DURATION_SCHEMA, at, required=tuple(_DURATION_SCHEMA))
        for j, h in enumerate(du["components"]):
            _check_keys(h, _DURATION_HYPER_SCHEMA, f"{at} component {j}")
            _positive(h, h.keys(), f"{at} component {j}")
        duration = DurationMixturePrior(
            weights=_simplex(du, "weights", at),
            components=tuple(DurationHyper(**h) for h in du["components"]),
        )
        devs.append(DeviceBundle(name=name, emission_mix=emission,
                                 duration_mix=duration, alpha=float(d["alpha"]),
                                 sigma2=float(d["sigma2"]), r=d["r"]))
    return HyperParamBundle(devices=tuple(devs))


def save_bundle(bundle: HyperParamBundle, path) -> None:
    from .io import atomic_write_text
    atomic_write_text(path, json.dumps(bundle_to_doc(bundle), indent=2) + "\n")


def load_bundle(path) -> HyperParamBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return bundle_from_doc(json.load(fh))


def default_bundle(config: RunConfig | None = None) -> HyperParamBundle:
    """Synthesis-ready bundle for the standard four-device house: one
    dominant load about ten times the others."""
    def dur(a_lam, b_lam, r=2):
        return DurationHyper(a_phi=2.0, b_phi=2.0, a_lam=a_lam, b_lam=b_lam,
                             a_vphi=2.0, b_vphi=6.0, r=r)

    def dev(name, means, taus, sigma2, lam_scale, r=2):
        M = len(means)
        em = EmissionMixturePrior(
            weights=np.full(M, 1.0 / M),
            components=tuple(NormalPrior(m, t) for m, t in zip(means, taus)),
        )
        dm = DurationMixturePrior(weights=np.array([1.0]),
                                  components=(dur(lam_scale * 2.0, 2.0, r),))
        return DeviceBundle(name=name, emission_mix=em, duration_mix=dm,
                            alpha=1.0, sigma2=sigma2, r=r)

    devs = (
        dev("compressor", (0.0, 5000.0), (400.0, 10000.0), 2500.0, 8.0),
        dev("furnace", (0.0, 300.0, 800.0), (100.0, 400.0, 900.0), 400.0, 6.0),
        dev("refrigerator", (0.0, 150.0), (25.0, 100.0), 100.0, 10.0),
        dev("dishwasher", (0.0, 250.0, 1200.0), (100.0, 400.0, 900.0), 400.0, 4.0),
    )
    if config is not None:
        wanted = {d.name for d in config.devices}
        devs = tuple(d for d in devs if d.name in wanted)
        if not devs:
            raise ValueError("no default priors for the configured devices")
    return HyperParamBundle(devices=devs)
