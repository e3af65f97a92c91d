"""The op of each in-process workload: the public-API calls it times.

Kept apart from `workloads` so that the set-up probe imports only these
calls and the gatediscrim modules they need, not the CLI or the
benchmark's checks and tracing.
"""

from __future__ import annotations

from typing import NamedTuple

from gatediscrim import canonical, discrimination, oracle

from inputs import VERIFY_SHOTS

SEARCH = oracle.SearchConfig()


def sweep(it):
    return discrimination.discriminate(it.u1, it.u2)


def decompose(it):
    dec = canonical.extract_interaction(it.gate)
    return dec, canonical.classify(dec.alpha)


class VerifyOut(NamedTuple):
    product_value: float
    probe: object
    all_value: float
    sim: object


def verify(it):
    pv, probe = oracle.min_over_product_states(it.u1, it.u2, SEARCH)
    av, _ = oracle.min_over_all_states(it.u1, it.u2, SEARCH)
    sim = oracle.helstrom_simulate(it.u1, it.u2, probe, p1=0.5, shots=VERIFY_SHOTS,
                                   seed=it.sim_seed)
    return VerifyOut(pv, probe, av, sim)


OPS = {"sweep": sweep, "decompose": decompose, "verify": verify}
