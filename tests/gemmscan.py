"""The float32 shape grid on which ``tensor.linear_fwd`` must return the
stacked ``x @ W.T``'s bytes and layout, whichever form it runs.

Run as a script (``PYTHONPATH=src:tests python -m gemmscan``) it prints the
shapes that break that rule, one per line, and exits 1 if there are any;
the tests run it once more under two BLAS threads this way.
"""

import sys

import numpy as np

from skiproute import tensor as T

BATCHES = (2, 5, 16, 33)
ROWS = tuple(range(1, 41)) + (48, 64, 100, 136, 200, 255)
# (out_features, in_features): the model's q/k/v/o, gate/up and down
# projections, the head, the rank-8 factors, and two shapes off the model
WEIGHTS = ((64, 64), (256, 64), (64, 256), (260, 64), (8, 64), (64, 8),
           (256, 8), (8, 256), (48, 48), (96, 32))


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape, strides and bytes."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.strides == want.strides and got.tobytes() == want.tobytes())


def mismatches(seed: int = 0) -> list:
    """The (b, n, out_features, in_features) shapes of the grid where
    ``linear_fwd`` differs from the stacked product, for a C-contiguous
    input and for a transposed view of one."""
    rng = np.random.default_rng(seed)
    bad = []
    for b in BATCHES:
        for n in ROWS:
            for m, k in WEIGHTS:
                w = rng.normal(size=(m, k)).astype(np.float32)
                x = rng.normal(size=(b, n, k)).astype(np.float32)
                view = rng.normal(size=(n, b, k)).astype(np.float32).transpose(1, 0, 2)
                if not all(same_array(T.linear_fwd(v, w), v @ w.T) for v in (x, view)):
                    bad.append((b, n, m, k))
    return bad


if __name__ == "__main__":
    found = mismatches()
    for shape in found:
        print(*shape)
    sys.exit(1 if found else 0)
