"""Worked tasks: private hypothesis testing and a circular location family.

Both tasks are invariant under a transitive group (the full symmetric
group for hypothesis testing, rotations for the location family), so
their trade-offs reduce to a minimum over subset orbits with
closed-form per-orbit risks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .channels import Channel, PrivacyLevel, as_level
from .decision import DecisionProblem, Prior
from .groups import FiniteAlphabet, mask_to_positions
from .rationals import as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def ht_problem(m: int, gamma) -> tuple[DecisionProblem, Prior]:
    """m-ary hypothesis testing: guess which letter the data favors.

    Under parameter i the letter distribution is uniform tilted toward
    letter i with strength gamma; the loss is 0-1 on guessing i.
    """
    gamma = as_fraction(gamma)
    if not 0 < gamma <= 1:
        raise ValueError("signal strength gamma must lie in (0, 1]")
    base = (1 - gamma) / m
    model = tuple(
        tuple(base + (gamma if x == i else _ZERO) for i in range(m))
        for x in range(m)
    )
    loss = tuple(
        tuple(_ZERO if a == i else _ONE for a in range(m))
        for i in range(m)
    )
    problem = DecisionProblem(parameters=tuple(range(m)),
                              input_alphabet=FiniteAlphabet(tuple(range(m))),
                              model=model,
                              actions=tuple(range(m)),
                              loss=loss)
    return problem, Prior.uniform(m)


def ht_put_closed_form(m: int, gamma, level) -> Fraction:
    """Optimal Bayes testing risk under the privacy constraint.

    The singleton orbit (randomized response) wins for every m, gamma,
    and t; its risk is 1 - (1-gamma)/m - gamma*t/(t+m-1).
    """
    return ht_subset_risk(m, gamma, level, 1)


def ht_subset_risk(m: int, gamma, level, k: int) -> Fraction:
    """Bayes testing risk of subset selection at size k (closed form)."""
    gamma = as_fraction(gamma)
    t = as_level(level).t
    return 1 - (1 - gamma) / m - gamma * t / (k * t + m - k)


def z_magnitude(mask: int, m: int) -> float:
    """Magnitude of the subset's sum of m-th roots of unity."""
    total = sum(cmath.exp(2j * cmath.pi * x / m) for x in mask_to_positions(mask))
    return abs(total)


@dataclass(frozen=True)
class CardioidSpec:
    """Circular location family on m letters with signal strength gamma.

    Observations follow (1 + gamma*cos(2*pi*x/m - theta))/m for a
    uniform direction theta; actions are directions, with loss
    1 - cos(theta - a).
    """

    m: int
    gamma: Fraction
    level: PrivacyLevel

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("the circular family needs at least 3 letters")
        if not 0 < self.gamma <= 1:
            raise ValueError("signal strength gamma must lie in (0, 1]")

    @classmethod
    def build(cls, m: int, gamma, level) -> "CardioidSpec":
        return cls(m=m, gamma=as_fraction(gamma), level=as_level(level))


def cardioid_orbit_risk(spec: CardioidSpec, mask: int) -> float:
    """Bayes risk of the pure rotation-orbit channel through this subset.

    The rotation-orbit size cancels, leaving
    1 - gamma*(t-1)*|Z|/(2*(k*t + m - k)) with |Z| the root-of-unity
    sum magnitude of the subset; orbits whose roots cancel (|Z| = 0)
    carry no directional information and sit at risk 1.
    """
    m = spec.m
    k = len(mask_to_positions(mask))
    t = spec.level.t
    amplitude = z_magnitude(mask, m)
    return 1.0 - float(spec.gamma) * (float(t) - 1.0) * amplitude \
        / (2.0 * (k * float(t) + m - k))


def cardioid_put_closed_form(spec: CardioidSpec) -> float:
    """Optimal location risk under the privacy constraint.

    Consecutive runs maximize |Z| at each size, giving
    1 - gamma*(t-1)/(2*sin(pi/m)) * max_k sin(pi*k/m)/(k*t + m - k).
    """
    m = spec.m
    t = float(spec.level.t)
    best = max(math.sin(math.pi * k / m) / (k * t + m - k) for k in range(1, m))
    return 1.0 - float(spec.gamma) * (t - 1.0) / (2.0 * math.sin(math.pi / m)) * best


def cardioid_bayes_risk(spec: CardioidSpec, channel: Channel) -> float:
    """Bayes location risk of an arbitrary channel on the same alphabet.

    The model's moments against 1, cos, sin reduce each output's best
    action to the phase of a complex sum, so the risk is a finite
    expression even though the parameter is continuous.
    """
    m = spec.m
    if channel.input_alphabet.size != m:
        raise ValueError("channel input size must match the family size")
    gamma = float(spec.gamma)
    m0 = [1.0 / m] * m
    mc = [gamma * math.cos(2.0 * math.pi * x / m) / (2.0 * m) for x in range(m)]
    ms = [gamma * math.sin(2.0 * math.pi * x / m) / (2.0 * m) for x in range(m)]
    total = 0.0
    for row in channel.rows:
        c0 = sum(float(v) * m0[x] for x, v in enumerate(row))
        cc = sum(float(v) * mc[x] for x, v in enumerate(row))
        cs = sum(float(v) * ms[x] for x, v in enumerate(row))
        total += c0 - math.hypot(cc, cs)
    return total
