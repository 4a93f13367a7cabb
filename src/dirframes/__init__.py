"""Directional block-frame toolkit.

Parseval block frames built from cosine/sine transform pairs, a mean-separated
pyramid variant, fast sensing operators (scrambled Hadamard / noiselet), and a
primal-dual solver for recovering images from compressive measurements.

The package exports the names of the README's quickstart; everything else is
reached through its module (``dirframes.frames``, ``.sensing``, ``.solver``,
``.imagegrid``, ``.transforms``, ``.backend``, ``.cli``).
"""

__version__ = "0.1.0"

from .frames import build_frame
from .imagegrid import block_mosaic, psnr, to_blocks
from .sensing import pseudo_inverse_estimate, sense_image
from .solver import ProblemSpec, SolverConfig, solve

__all__ = [
    "__version__",
    "build_frame", "to_blocks", "block_mosaic",
    "sense_image", "pseudo_inverse_estimate",
    "ProblemSpec", "SolverConfig", "solve", "psnr",
]
