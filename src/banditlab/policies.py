"""Reference policies and config-facing policy specs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .abse import AbseConfig, AbsePolicy
from .sacb import SacbConfig, SacbPolicy


class FixedArmPolicy:
    """Always plays one arm; the simplest baseline."""

    kind = "fixed"

    def __init__(self, arm: int):
        # An integer only: a bool is an int to Python, and 2.0 == 2.
        if (isinstance(arm, bool) or not isinstance(arm, (int, np.integer))
                or arm not in (1, 2)):
            raise ValueError(f"arm must be 1 or 2, got {arm!r}")
        self.arm = int(arm)

    def choose(self, x) -> int:
        return self.arm

    def update(self, x, arm, y) -> None:
        pass


class OraclePolicy:
    """Plays argmax of the true payoff means; ties go to arm 1."""

    kind = "oracle"

    def __init__(self, instance):
        self.instance = instance

    def choose(self, x) -> int:
        f1 = float(np.asarray(self.instance.f1(x)).reshape(-1)[0])
        f2 = float(np.asarray(self.instance.f2(x)).reshape(-1)[0])
        return 2 if f2 > f1 else 1

    def update(self, x, arm, y) -> None:
        pass


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description used by the runner and the CLI.

    kind: "abse" | "sacb" | "oracle" | "fixed".  params are kind-specific:
    abse and sacb take the fields of AbseConfig (less T and d) and
    SacbConfig, whose defaults fill in every tuning value params leave out;
    fixed takes {arm} and oracle nothing.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        if self.kind == "abse":
            return f"abse({self.params.get('beta')})"
        if self.kind == "fixed":
            return f"fixed({self.params.get('arm', 1)})"
        return self.kind

    def build(self, instance, T: int):
        """Construct a live policy for one episode.

        Under Gaussian noise the instance's sigma is the default noise_scale.
        instance None stands for an instance that cannot be built: d = 1,
        and the config classes' own noise_scale.
        """
        p = dict(self.params)
        if self.kind in ("fixed", "oracle"):
            policy = (FixedArmPolicy(p.pop("arm", 1)) if self.kind == "fixed"
                      else OraclePolicy(instance))
            if p:
                raise ValueError(f"unknown {self.kind} keys {sorted(p)}")
            return policy
        d, noise = (1, None) if instance is None else (instance.d, instance.noise)
        if noise and noise[0] == "gaussian":
            p.setdefault("noise_scale", noise[1])
        if self.kind == "abse":
            return AbsePolicy(AbseConfig(T=int(T), d=d, **p))
        if self.kind == "sacb":
            return SacbPolicy(SacbConfig(**p), T=int(T), d=d)
        raise ValueError(f"unknown policy kind {self.kind!r}")


def tuning_defaults(kind: str) -> dict:
    """An abse or sacb spec's published tuning, less the fields runs set."""
    config = AbseConfig if kind == "abse" else SacbConfig
    return {f.name: f.default for f in fields(config)
            if f.name not in ("beta", "T", "d", "noise_scale")}
