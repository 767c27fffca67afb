"""Analytic queueing oracles for the load plane.

The simulated appserver is cross-checked against independent models
the same way ``jmmw diffcheck`` cross-checks the caches: closed-form
M/M/1 and M/M/c for the open loop, the finite-population M/M/c//N
birth–death chain (the machine-repairman model) for the closed loop,
plus the operational laws (Little, utilization, interactive response
time) and the asymptotic-bound bottleneck analysis from the classic
queueing-network playbook.

Everything here is exact under the model's assumptions (Poisson
arrivals / exponential think and service times), numerically stable in
the regimes the sweeps reach — Erlang C via the Erlang-B recurrence
rather than factorials, the closed chain in log space — and fast
enough to evaluate at a million users (the chain is one vectorized
pass over the population).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class OpenMetrics:
    """Steady-state M/M/1 / M/M/c predictions."""

    arrival_rate: float
    service_s: float
    servers: int
    utilization: float  # rho = lambda / (c * mu)
    wait_probability: float  # Erlang C: P(arrival queues)
    queue_wait_s: float  # Wq
    response_s: float  # R = Wq + 1/mu
    mean_queue: float  # Nq = lambda * Wq
    mean_in_system: float  # N = lambda * R


@dataclass(frozen=True)
class ClosedMetrics:
    """Steady-state M/M/c//N (finite population, exponential think)."""

    n_users: int
    think_s: float
    service_s: float
    servers: int
    throughput: float  # X
    utilization: float  # E[min(n, c)] / c
    mean_in_system: float  # time-average users at the station
    response_s: float  # R = N_station / X (Little at the station)

    @property
    def cycle_s(self) -> float:
        """Full user cycle: think + response (R + Z = N/X)."""
        return self.think_s + self.response_s


def erlang_c(servers: int, offered_load: float) -> float:
    """P(wait) for M/M/c with offered load ``a = lambda/mu`` Erlangs.

    Uses the Erlang-B recurrence ``B(k) = a B(k-1) / (k + a B(k-1))``
    and the B-to-C identity — stable for hundreds of servers where the
    textbook factorial formula overflows (the rho -> 1 edge the sweep
    layer reaches).

    >>> round(erlang_c(1, 0.5), 3)   # M/M/1: P(wait) = rho
    0.5
    """
    if servers < 1:
        raise ConfigError("servers must be >= 1")
    if offered_load < 0:
        raise ConfigError("offered load must be non-negative")
    if offered_load >= servers:
        return 1.0  # saturated: every arrival waits
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho * (1.0 - b))


def mmc_metrics(arrival_rate: float, service_s: float, servers: int) -> OpenMetrics:
    """Exact M/M/c steady state (M/M/1 when ``servers == 1``)."""
    if arrival_rate <= 0 or service_s <= 0:
        raise ConfigError("arrival rate and service time must be positive")
    if servers < 1:
        raise ConfigError("servers must be >= 1")
    mu = 1.0 / service_s
    rho = arrival_rate / (servers * mu)
    if rho >= 1.0:
        raise ConfigError(
            f"offered utilization {rho:.3f} >= 1: the open system has no "
            f"steady state (raise servers or lower the arrival rate)"
        )
    wait_prob = erlang_c(servers, arrival_rate / mu)
    queue_wait = wait_prob / (servers * mu - arrival_rate)
    response = queue_wait + service_s
    return OpenMetrics(
        arrival_rate=arrival_rate,
        service_s=service_s,
        servers=servers,
        utilization=rho,
        wait_probability=wait_prob,
        queue_wait_s=queue_wait,
        response_s=response,
        mean_queue=arrival_rate * queue_wait,
        mean_in_system=arrival_rate * response,
    )


def mm1_metrics(arrival_rate: float, service_s: float) -> OpenMetrics:
    """M/M/1 steady state — the ``c = 1`` degenerate case of M/M/c."""
    return mmc_metrics(arrival_rate, service_s, servers=1)


@lru_cache(maxsize=64, typed=True)
def closed_mmc_metrics(
    n_users: int, think_s: float, service_s: float, servers: int
) -> ClosedMetrics:
    """Exact M/M/c//N: ``n_users`` cycling through think + station.

    Solves the birth–death chain on the station population ``n`` with
    birth rate ``(N - n)/Z`` and death rate ``min(n, c) * mu``, in log
    space (a normalized product over a million states underflows in
    linear space).  ``think_s == 0`` is the degenerate chain whose mass
    sits entirely at ``n = N``: every user is always at the station.

    Memoized (a pure function of four scalars, returning a frozen
    record): a saturation point's warm start and its report row share
    one solve, which takes tens of milliseconds at a million users.
    """
    if n_users < 1:
        raise ConfigError("n_users must be >= 1")
    if service_s <= 0:
        raise ConfigError("service time must be positive")
    if think_s < 0:
        raise ConfigError("think time must be non-negative")
    if servers < 1:
        raise ConfigError("servers must be >= 1")
    mu = 1.0 / service_s
    if think_s == 0.0:
        busy = float(min(n_users, servers))
        x = busy * mu
        return ClosedMetrics(
            n_users=n_users,
            think_s=0.0,
            service_s=service_s,
            servers=servers,
            throughput=x,
            utilization=busy / servers,
            mean_in_system=float(n_users),
            response_s=n_users / x,
        )
    n = np.arange(n_users, dtype=np.float64)  # transitions n -> n+1
    up = np.log((n_users - n) / think_s)
    down = np.log(np.minimum(n + 1.0, float(servers)) * mu)
    log_p = np.concatenate(([0.0], np.cumsum(up - down)))
    log_p -= log_p.max()
    p = np.exp(log_p)
    p /= p.sum()
    states = np.arange(n_users + 1, dtype=np.float64)
    busy = np.minimum(states, float(servers))
    x = float((p * busy).sum() * mu)
    mean_station = float((p * states).sum())
    return ClosedMetrics(
        n_users=n_users,
        think_s=think_s,
        service_s=service_s,
        servers=servers,
        throughput=x,
        utilization=float((p * busy).sum()) / servers,
        mean_in_system=mean_station,
        response_s=mean_station / x,
    )


# -- operational laws -------------------------------------------------------


def littles_law(throughput: float, response_s: float) -> float:
    """N = X * R."""
    return throughput * response_s


def utilization_law(throughput: float, service_s: float, servers: int) -> float:
    """U = X * s / c."""
    if servers < 1:
        raise ConfigError("servers must be >= 1")
    return throughput * service_s / servers


def interactive_response_time(n_users: int, throughput: float, think_s: float) -> float:
    """R = N / X - Z (the interactive response-time law)."""
    if throughput <= 0:
        raise ConfigError("throughput must be positive")
    return n_users / throughput - think_s


# -- bottleneck + knee ------------------------------------------------------


@dataclass(frozen=True)
class Bottleneck:
    """Asymptotic-bound analysis of a closed multi-station system."""

    station: str  # the saturating station
    max_throughput: float  # min over stations of capacity / demand
    knee_users: float  # N* = X_max * (Z + total demand)
    demands_s: dict[str, float]
    capacities: dict[str, int]

    def describe(self) -> str:
        per_station = ", ".join(
            f"{name} {self.capacities[name]}/{demand:.4g}s"
            for name, demand in sorted(self.demands_s.items())
        )
        return (
            f"bottleneck: {self.station} (X_max {self.max_throughput:.4g}/s, "
            f"knee at ~{self.knee_users:.0f} users; capacity/demand: "
            f"{per_station})"
        )


def bottleneck_analysis(
    demands_s: dict[str, float],
    capacities: dict[str, int],
    think_s: float,
) -> Bottleneck:
    """Name the saturating station and place the analytic knee.

    ``demands_s[k]`` is the per-operation service demand at station
    ``k`` and ``capacities[k]`` its server count; the station with the
    largest ``demand / capacity`` saturates first, bounding system
    throughput at ``capacity / demand`` and putting the saturation
    knee at ``N* = X_max * (Z + sum(demands))`` users.
    """
    if not demands_s:
        raise ConfigError("bottleneck analysis needs at least one station")
    if set(demands_s) != set(capacities):
        raise ConfigError("demands and capacities must name the same stations")
    rates = {}
    for name, demand in demands_s.items():
        if demand < 0:
            raise ConfigError(f"station {name}: demand must be non-negative")
        capacity = capacities[name]
        if capacity < 1:
            raise ConfigError(f"station {name}: capacity must be >= 1")
        rates[name] = capacity / demand if demand > 0 else math.inf
    station = min(sorted(rates), key=lambda name: rates[name])
    x_max = rates[station]
    if not math.isfinite(x_max):
        raise ConfigError("every station has zero demand; nothing saturates")
    total_demand = sum(demands_s.values())
    return Bottleneck(
        station=station,
        max_throughput=x_max,
        knee_users=x_max * (think_s + total_demand),
        demands_s=dict(demands_s),
        capacities=dict(capacities),
    )


#: A sweep point "left the linear-scaling regime" below this fraction
#: of the light-load asymptote X = N / (Z + R_base).
KNEE_FRACTION = 0.9


def measured_knee(
    points: list[tuple[int, float]], think_s: float, base_response_s: float
) -> int | None:
    """First sweep population that falls off the linear asymptote.

    Light load scales as ``X = N / (Z + R_base)``; the knee is the
    first measured point below :data:`KNEE_FRACTION` of that line
    *from which the curve never recovers* — requiring every later
    point to stay below the line too makes the detector robust to a
    single statistically-noisy light-load point, which dips and comes
    back, where a true knee persists.  ``None`` means the sweep never
    left the linear regime.
    """
    if base_response_s < 0:
        raise ConfigError("base response time must be non-negative")
    cycle = think_s + base_response_s
    if cycle <= 0:
        raise ConfigError("think + response must be positive")
    knee = None
    for n_users, throughput in sorted(points):
        if throughput < KNEE_FRACTION * (n_users / cycle):
            if knee is None:
                knee = n_users
        else:
            knee = None  # recovered: the earlier dip was noise
    return knee
