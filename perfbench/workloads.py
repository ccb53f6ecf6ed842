"""Workload definitions and the seeded configs handed to the CLI.

The grid and the amount of work of each workload are fixed; the seed
drives only the scenario parameters, drawn from ranges on which every run
succeeds and does the same work (the Picard sweep count does not move).
This module imports nothing from the package, so the harness can reject
a checkout without sources before it starts a child.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "picard"
    domain: str  # "strip" or "rectangle"
    x_extent: int
    nx: int
    nz: int
    scenario: str
    t_final: float
    dt: float = 0.0  # simulate only
    snapshot_every: int = 0  # simulate only
    n_time_nodes: int = 0  # picard only

    def params(self, seed: int) -> dict:
        """Scenario parameters drawn from the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.scenario == "stratified_perturbed":
            return {"eps": round(rng.uniform(0.01, 0.05), 6),
                    "mode": rng.choice((1, 2))}
        if self.scenario == "patch":
            return {"cx": round(rng.uniform(0.0, self.x_extent), 6),
                    "cz": round(rng.uniform(0.66, 0.70), 6)}
        raise ValueError(f"no parameter draw for scenario {self.scenario!r}")

    def config(self, seed: int) -> str:
        """INI text for the CLI subcommand, as a user would write it."""
        keys = {"domain": self.domain, "x_extent": self.x_extent,
                "nx": self.nx, "nz": self.nz, "scenario": self.scenario,
                "t_final": self.t_final}
        if self.command == "simulate":
            keys.update(dt=self.dt, snapshot_every=self.snapshot_every)
        else:
            keys.update(n_time_nodes=self.n_time_nodes)
        keys.update({f"scenario.{k}": v for k, v in self.params(seed).items()})
        lines = [f"[{self.command}]"] + [f"{k} = {v}" for k, v in keys.items()]
        return "\n".join(lines) + "\n"

    def updates_per_run(self, sweeps: int = 0) -> int:
        """Density fields one run produces: steps + 1, or sweeps x nodes."""
        if self.command == "picard":
            return sweeps * self.n_time_nodes
        return round(self.t_final / self.dt) + 1


WORKLOADS = {
    w.name: w for w in (
        Workload("strip_march", "simulate", "strip", 8, 128, 128,
                 "stratified_perturbed", t_final=1.0, dt=0.01,
                 snapshot_every=10),
        Workload("rect_march", "simulate", "rectangle", 1, 128, 128,
                 "stratified_perturbed", t_final=1.0, dt=0.02),
        Workload("strip_picard", "picard", "strip", 32, 512, 16, "patch",
                 t_final=1.0, n_time_nodes=16),
    )
}
