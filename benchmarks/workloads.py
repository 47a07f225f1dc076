"""The benchmark's workloads: the RunConfig each one hands to lieharm, why it
was chosen, which traced layers it must exercise, and which span group is
expected to hold the largest self time.

The seed is not part of a workload; `run.py` adds it, so the program only
ever receives the generated config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Tuple

FAMILIES = ("sun_son", "spn_un", "so2n_un", "su2n_spn")

RECORDS_DIR = Path(__file__).resolve().parent / "records"

# params that identify a record independently of the seed
IDENTITY_PARAMS = ("n", "draw", "p")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Dict
    # span groups and counters the trace must see called at least once
    exercised: FrozenSet[str]
    # span groups one of which should hold the largest self time
    dominant: FrozenSet[str]

    def run_config(self, seed: int) -> Dict:
        """Keyword arguments for lieharm.harness.RunConfig."""
        return dict(self.config, seed=seed, jobs=1, out=None)

    def pinned_records(self) -> Tuple[str, ...]:
        with open(RECORDS_DIR / f"{self.name}.json", encoding="utf-8") as fh:
            return tuple(json.load(fh))


def record_key(record: Dict) -> str:
    """`name k=v ...` over the seed-independent params of a report record."""
    params = record.get("params", {})
    parts = [record["name"]] + [f"{k}={params[k]}" for k in IDENTITY_PARAMS if k in params]
    return " ".join(parts)


_TRACED_EVERYWHERE = frozenset({"lie.basis"})

# The numeric route (jets through x exp(tZ)) and the exact route (Q(sqrt2)
# and the formal phi^a log^b algebra) are the two independent halves of
# every check, and each optimisation planned so far touches one of them.
#
# The nested-jet suites (dual, crosscheck) are not timed here, because
# their verdicts are not reliable.  tau^2 of a p-harmonic map is 0, but the
# computed value is rounding noise of order 1e-6 to 1e-5 relative to |h|,
# and the fixed tolerances (dual tau2_tol 1e-5, crosscheck abs_tol 1e-6)
# are not derived from a rounding bound, so about one seed in 25 reports a
# true claim as failed even at 1-2 samples per space.  A workload must give
# a correct verdict on every seed; these suites can come back once their
# tolerances follow error bounds.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="eigen-sweep",
            why=(
                "eigen on the 4 n=3 spaces at default samples and draws: one batched "
                "single-variable jet sweep (tau_and_kappa) plus expm samples per point, "
                "no nesting, no exact arithmetic"
            ),
            config={
                "suites": ["eigen"],
                "spaces": [[f, 3] for f in FAMILIES],
            },
            exercised=_TRACED_EVERYWHERE
            | {
                "harness.eigen",
                "eigenfamilies.verify_eigen",
                "lie.sample",
                "diffops.sweep",
                "diffops.fn_evals",
                "jets.mul_calls",
                "jets.add_calls",
                "matrices.object_matmul_calls",
                "matrices.complex_matmul_calls",
            },
            dominant=frozenset({"diffops.sweep"}),
        ),
        Workload(
            name="exact-algebra",
            why=(
                "identities plus pharmonic on n=2..6 for all families at p_max 8: exact "
                "Q(sqrt2) and formal tau arithmetic, no jets, 213 records to assemble"
            ),
            config={
                "suites": ["identities", "pharmonic"],
                "spaces": [[f, n] for f in FAMILIES for n in range(2, 7)],
                "p_max": 8,
            },
            exercised=_TRACED_EVERYWHERE
            | {
                "harness.identities",
                "harness.pharmonic",
                "identities.generator_sums",
                "identities.coordinate",
                "identities.decomposition",
                "identities.skew_lemma",
                "identities.symplectic",
                "formal.tau_formal",
                "formal.certify",
                "matrices.object_matmul_calls",
                "exact.mul_calls",
                "exact.add_calls",
            },
            dominant=frozenset(
                {
                    "identities.generator_sums",
                    "identities.coordinate",
                    "identities.decomposition",
                    "identities.skew_lemma",
                    "identities.symplectic",
                    "formal.tau_formal",
                    "formal.certify",
                }
            ),
        ),
    )
}
