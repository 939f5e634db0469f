"""Central finite-difference checking of analytic gradients.

The function under test must be deterministic (no dropout rng): it runs
once on a tape, then with no tape (None) for each probed entry nudged by
+/-step. Relative errors use max(|analytic|, |numeric|, 1e-6) as the
denominator so vanishing gradients do not produce spurious failures from
finite-difference noise.
A NaN on either side counts as an infinite relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidConfigError
from .autodiff import Tape, Tensor, backward

REL_ERR_FLOOR = 1e-6


@dataclass(frozen=True)
class GradCheckEntry:
    name: str
    max_rel_err: float
    worst_flat_index: int
    analytic: float
    numeric: float


@dataclass(frozen=True)
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err <= self.tolerance for e in self.entries)

    @property
    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.max_rel_err)

    def format(self) -> str:
        lines = []
        for e in sorted(self.entries, key=lambda e: -e.max_rel_err):
            flag = "ok  " if e.max_rel_err <= self.tolerance else "FAIL"
            lines.append(
                f"{flag} {e.name:24s} max_rel_err={e.max_rel_err:.3e} "
                f"(analytic={e.analytic:+.6e} numeric={e.numeric:+.6e} at flat index {e.worst_flat_index})"
            )
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status}: worst {self.worst.name} rel_err={self.worst.max_rel_err:.3e} tol={self.tolerance:.1e}")
        return "\n".join(lines)


def grad_check(
    fn: Callable[[Tape | None], Tensor],
    params: dict[str, Tensor],
    step: float = 1e-4,
    tolerance: float = 1e-5,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of fn's scalar output against central
    differences, entry by entry.

    max_entries_per_param caps the probed entries per tensor (sampled
    deterministically from rng) to keep large checks affordable.
    """
    if max_entries_per_param is not None and max_entries_per_param < 1:
        raise InvalidConfigError(f"max_entries_per_param must be >= 1, got {max_entries_per_param}")
    tape = Tape()
    loss = fn(tape)
    backward(tape, loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}
    for p in params.values():
        p.grad = None

    entries = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        n_entries = flat.shape[0]
        if max_entries_per_param is not None and n_entries > max_entries_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            sel = rng.choice(n_entries, size=max_entries_per_param, replace=False)
            sel.sort()
        else:
            sel = np.arange(n_entries)
        worst = (0.0, 0, 0.0, 0.0)
        for idx in sel:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = float(fn(None).data)
            flat[idx] = orig - step
            f_minus = float(fn(None).data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(a_flat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_ERR_FLOOR)
            if np.isnan(rel):
                rel = np.inf
            if rel >= worst[0]:
                worst = (rel, int(idx), a, numeric)
        entries.append(GradCheckEntry(name, worst[0], worst[1], worst[2], worst[3]))
    return GradCheckReport(entries, tolerance)
