"""Vectorized whole-grid cost engine.

Evaluates an entire hardware grid (``num_pes`` x NoC bandwidth) for one
(layer, dataflow) pair in a handful of NumPy array operations instead
of one Python pipeline run per point, with bit-identical results. See
``docs/vectorized-engine.md`` for the lowering rules, the fallback
semantics, and the tolerance policy; parity with the scalar
``analyze_layer`` is checked by :func:`repro.verify.differential.run_vector`.

Public API:

- :func:`lower_group` / :class:`LoweredGroup` — partial evaluation of
  the cost model against a grid template (everything but the two grid
  axes folded to constants).
- :func:`evaluate_grid` — run one lowered group over concrete grid
  points into a :class:`GridBlock`: one
  :class:`~repro.engines.analysis.EvalOutcome` per point, whose report
  is built from the block's columns on first read.
- :class:`VectorLoweringError` — raised for groups outside the
  expressible space; the batch backend then falls back to the scalar
  engines point by point.
"""

from repro.vector.engine import GridBlock, evaluate_grid
from repro.vector.lower import (
    LoweredGroup,
    VectorLoweringError,
    accelerator_template,
    group_key,
    lower_group,
)

__all__ = [
    "GridBlock",
    "LoweredGroup",
    "VectorLoweringError",
    "accelerator_template",
    "evaluate_grid",
    "group_key",
    "lower_group",
]
