"""Dense one-channel images as the CNN's (values, support, shape) input and back.

``cnn_forward_batch`` and ``autodiff.conv2d_support`` read an image batch
as its values at a support of flat (B, H, W) indices. Tests that start
from dense images pass every pixel as the support; tests that start from
a support rebuild the dense image that the channels-first reference ops
read.
"""

import numpy as np


def full_support(images):
    """(values (B*H*W,), support, shape) of a (B, H, W) or (B, H, W, 1)
    array: every pixel is in the support, in row-major order."""
    images = np.asarray(images, dtype=np.float64)
    shape = images.shape[:3]
    return images.reshape(-1).copy(), np.arange(images.size), shape


def densify(values, support, shape) -> np.ndarray:
    """The (B, H, W) image that is values at support and zero elsewhere."""
    dense = np.zeros(int(np.prod(shape)))
    dense[support] = values
    return dense.reshape(shape)
