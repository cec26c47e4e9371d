"""A small Mamdani fuzzy-inference engine.

Section II-D: "we have developed a run-time fuzzy-logic thermal
controller that uses run-time varying flow rate and DVFS to minimize the
consumed energy while keeping the systems temperature below the thermal
threshold" [15].  This module provides the generic engine — triangular
membership functions, min-AND rule firing, max aggregation and centroid
defuzzification — and :mod:`repro.core.controller` instantiates the
thermal rule base on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TriangularMF:
    """A triangular membership function with optional shoulders.

    ``a <= b <= c`` are the left foot, peak and right foot.  Setting
    ``a == b`` produces a left shoulder (membership 1 for x <= b);
    ``b == c`` produces a right shoulder.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c:
            raise ValueError("membership function requires a <= b <= c")
        if self.a == self.c:
            raise ValueError("membership function must have nonzero support")

    def membership(self, x: float) -> float:
        """Degree of membership of ``x`` in [0, 1]."""
        if x <= self.a:
            return 1.0 if self.a == self.b else 0.0
        if x >= self.c:
            return 1.0 if self.b == self.c else 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        if x > self.b:
            return (self.c - x) / (self.c - self.b)
        return 1.0

    def membership_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`membership` (bitwise; NaN maps to 0).

        Inside ``(a, c)`` the smaller slope is the branch
        :meth:`membership` takes, and outside one slope is <= 0; a
        shoulder has no slope on its open side.
        """
        rise = (xs - self.a) / (self.b - self.a) if self.b > self.a else np.inf
        fall = (self.c - xs) / (self.c - self.b) if self.c > self.b else np.inf
        return np.minimum(np.fmax(np.minimum(rise, fall), 0.0), 1.0)


@dataclass(frozen=True)
class FuzzyVariable:
    """A linguistic variable over a crisp range.

    Attributes
    ----------
    name:
        Variable name used in rules, e.g. ``"temperature"``.
    low, high:
        Crisp range the variable lives on.
    sets:
        Mapping from linguistic term (``"low"``, ``"high"`` ...) to its
        membership function.
    """

    name: str
    low: float
    high: float
    sets: Mapping[str, TriangularMF]

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"{self.name}: low must be below high")
        if not self.sets:
            raise ValueError(f"{self.name}: at least one fuzzy set required")

    def clamp(self, x: float) -> float:
        """Clamp a crisp value into the variable range."""
        return min(self.high, max(self.low, x))

    def fuzzify(self, x: float) -> Dict[str, float]:
        """Memberships of a crisp value in every set."""
        x = self.clamp(x)
        return {term: mf.membership(x) for term, mf in self.sets.items()}


class _Firing(NamedTuple):
    """One output's rule base laid out for inference.

    ``columns``: (antecedents, rules) term rows each rule ANDs, a
    shorter rule repeating its first row (``min(m, m) == m``);
    ``weights``: (rules, 1); ``starts``: the first rule of each
    consequent, as rules are sorted by consequent so that the ones
    sharing it fold by ``max`` before the clip (``max_r min(s_r, T) ==
    min(max_r s_r, T)``); ``consequents``: (consequents, grid) sets
    sampled over the output grid.
    """

    columns: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    consequents: np.ndarray


@dataclass(frozen=True)
class FuzzyRule:
    """IF (antecedents, ANDed) THEN (output variable IS term).

    Attributes
    ----------
    antecedents:
        Mapping ``input variable name -> linguistic term``.
    consequent:
        ``(output variable name, linguistic term)``.
    weight:
        Rule weight multiplying the firing strength.
    """

    antecedents: Mapping[str, str]
    consequent: Tuple[str, str]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise ValueError("a rule needs at least one antecedent")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("rule weight must be in (0, 1]")


class MamdaniController:
    """Min-AND / max-aggregation / centroid-defuzzification inference.

    Parameters
    ----------
    inputs, outputs:
        The linguistic variables.
    rules:
        The rule base; every referenced variable and term must exist.
    resolution:
        Sample count of the output grids used for the centroid.
    """

    def __init__(
        self,
        inputs: Sequence[FuzzyVariable],
        outputs: Sequence[FuzzyVariable],
        rules: Sequence[FuzzyRule],
        resolution: int = 101,
    ) -> None:
        if resolution < 11:
            raise ValueError("resolution too coarse for a stable centroid")
        self.inputs = {v.name: v for v in inputs}
        self.outputs = {v.name: v for v in outputs}
        if len(self.inputs) != len(inputs) or len(self.outputs) != len(outputs):
            raise ValueError("variable names must be unique")
        self.rules = list(rules)
        self.resolution = resolution
        self._grids = {
            name: np.linspace(var.low, var.high, resolution)
            for name, var in self.outputs.items()
        }
        self._validate_rules()
        # Inference is on the closed-loop hot path (every control
        # period), so everything that does not depend on the crisp
        # inputs is laid out once: one row per (input, term), and per
        # output the rows each rule ANDs (see _Firing).
        rows: Dict[Tuple[str, str], int] = {}
        term_input: List[int] = []
        mfs: List[TriangularMF] = []
        for v, var in enumerate(self.inputs.values()):
            for term, mf in var.sets.items():
                rows[(var.name, term)] = len(mfs)
                term_input.append(v)
                mfs.append(mf)
        # Both slopes of every row at once: rows [0, terms) rise as
        # (x - a) / (b - a), rows [terms, 2 terms) fall as
        # (x - c) / (b - c), which is (c - x) / (c - b) bit for bit.  A
        # shoulder's open side moves to -inf/+inf, so its slope there is
        # inf and the clip turns it into the 1 TriangularMF.membership
        # returns.
        self._slope_input = np.array(term_input * 2)
        corners = np.array([(mf.a, mf.b, mf.c) for mf in mfs], dtype=float)
        a, b, c = corners.T[:, :, None]
        self._feet = np.vstack(
            (np.where(a == b, -np.inf, a), np.where(b == c, np.inf, c))
        )
        self._widths = np.vstack(
            (np.where(a == b, 1.0, b - a), np.where(b == c, -1.0, b - c))
        )
        bounds = np.array([(var.low, var.high) for var in self.inputs.values()])
        self._low, self._high = bounds[:, :1], bounds[:, 1:]
        width = max(len(rule.antecedents) for rule in self.rules)
        self._firing: Dict[str, _Firing] = {}
        for name, var in self.outputs.items():
            terms = list(var.sets)
            out_rules = sorted(
                (r for r in self.rules if r.consequent[0] == name),
                key=lambda rule: terms.index(rule.consequent[1]),
            )
            if not out_rules:
                continue
            antecedents = []
            for rule in out_rules:
                ands = [rows[item] for item in rule.antecedents.items()]
                antecedents.append(ands + ands[:1] * (width - len(ands)))
            fired = [rule.consequent[1] for rule in out_rules]
            groups = sorted(set(fired), key=terms.index)
            self._firing[name] = _Firing(
                columns=np.array(antecedents).T,
                weights=np.array([[rule.weight] for rule in out_rules]),
                starts=np.array([fired.index(term) for term in groups]),
                consequents=np.stack(
                    [
                        var.sets[term].membership_array(self._grids[name])
                        for term in groups
                    ]
                ),
            )

    def _validate_rules(self) -> None:
        if not self.rules:
            raise ValueError("the rule base is empty")
        for rule in self.rules:
            for var_name, term in rule.antecedents.items():
                if var_name not in self.inputs:
                    raise KeyError(f"unknown input variable {var_name!r}")
                if term not in self.inputs[var_name].sets:
                    raise KeyError(f"{var_name} has no term {term!r}")
            out_name, out_term = rule.consequent
            if out_name not in self.outputs:
                raise KeyError(f"unknown output variable {out_name!r}")
            if out_term not in self.outputs[out_name].sets:
                raise KeyError(f"{out_name} has no term {out_term!r}")

    def _memberships(self, points: np.ndarray) -> np.ndarray:
        """``(terms, N)`` memberships of ``(inputs, N)`` crisp points.

        Every term of every input in one pass over the triangle
        corners; each value is the same expression
        :meth:`TriangularMF.membership` selects, so the result is
        bitwise that of the per-term calls.
        """
        x = np.minimum(np.maximum(points, self._low), self._high)
        slopes = (x[self._slope_input] - self._feet) / self._widths
        terms = len(slopes) // 2
        slope = np.minimum(slopes[:terms], slopes[terms:])
        return np.minimum(np.fmax(slope, 0.0), 1.0)  # as membership_array

    def _infer(self, points: np.ndarray) -> Dict[str, np.ndarray]:
        """Crisp outputs for ``(inputs, N)`` crisp points."""
        memberships = self._memberships(points)
        results: Dict[str, np.ndarray] = {}
        for name, grid in self._grids.items():
            firing = self._firing.get(name)
            if firing is None:
                results[name] = np.full(points.shape[1], 0.5 * (grid[0] + grid[-1]))
                continue
            # (rules, points) firing strengths: min-AND, weighted, then
            # folded per consequent.
            strengths = np.minimum.reduce(memberships[firing.columns])
            strengths *= firing.weights
            strengths = np.maximum.reduceat(strengths, firing.starts)
            # Clip every consequent and max-aggregate; a zero strength
            # clips to zeros, which cannot move the (non-negative) max.
            # min/max are exact, and the centroid sums run along each
            # point's own grid row.  The reductions are the ufuncs' own:
            # ndarray.max/sum run the same loops behind a Python wrapper
            # that costs a closed-loop step more than these few values.
            clipped = np.minimum(strengths[:, :, None], firing.consequents[:, None])
            mu = np.maximum.reduce(clipped)
            total = np.add.reduce(mu, axis=1)
            centroid = np.add.reduce(grid * mu, axis=1)
            if np.minimum.reduce(total, initial=np.inf) > 0.0:  # or no points
                results[name] = centroid / total
            else:  # a point where no rule fires keeps the midpoint
                out = np.full(points.shape[1], 0.5 * (grid[0] + grid[-1]))
                np.divide(centroid, total, out=out, where=total > 0.0)
                results[name] = out
        return results

    def infer(self, values: Mapping[str, float]) -> Dict[str, float]:
        """Run one inference step (:meth:`infer_many` on one point).

        Parameters
        ----------
        values:
            Crisp value per input variable (all inputs required).

        Returns
        -------
        dict
            Crisp output per output variable (centroid; the range
            midpoint if no rule fires).
        """
        missing = set(self.inputs) - set(values)
        if missing:
            raise KeyError(f"missing inputs: {sorted(missing)}")
        points = np.array([[values[name]] for name in self.inputs], dtype=float)
        return {name: float(out[0]) for name, out in self._infer(points).items()}

    def infer_many(
        self, values: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Run one inference step for a batch of input points.

        The closed-loop controller defuzzifies one speed level per core
        every control period; evaluating all cores in one batch turns
        the per-core Python rule loop into a handful of array
        operations.  A point's arithmetic does not depend on the rest
        of the batch (min/max are exact selections, the centroid sums
        run along the point's own grid row), so the outputs are bitwise
        those of a per-point loop — asserted by the test suite.  Inputs
        other than the engine's are ignored.

        Parameters
        ----------
        values:
            ``(N,)`` array of crisp values per input variable.

        Returns
        -------
        dict
            ``(N,)`` array of crisp outputs per output variable.
        """
        missing = set(self.inputs) - set(values)
        if missing:
            raise KeyError(f"missing inputs: {sorted(missing)}")
        try:
            points = np.array([values[name] for name in self.inputs], dtype=float)
        except ValueError:  # ragged
            points = None
        if points is None or points.ndim != 2:
            raise ValueError("all inputs must be 1-D arrays of equal length")
        return self._infer(points)


def three_level_variable(
    name: str, low: float, high: float
) -> FuzzyVariable:
    """A variable with overlapping ``low`` / ``medium`` / ``high`` terms."""
    mid = 0.5 * (low + high)
    return FuzzyVariable(
        name=name,
        low=low,
        high=high,
        sets={
            "low": TriangularMF(low, low, mid),
            "medium": TriangularMF(low, mid, high),
            "high": TriangularMF(mid, high, high),
        },
    )
