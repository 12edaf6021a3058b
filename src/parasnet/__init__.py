"""Three-class scattering-image classification toolkit.

Everything numeric is implemented on top of plain numpy arrays: the CNN
layer kernels, the Adam optimizer, the synthetic image generator, the
SIFT + SVM baseline pipeline, the exact t-SNE embedding, and the
evaluation and benchmarking utilities.
"""

__version__ = "0.1.0"

OTHERS = 0
CRYPTO = 1
GIARDIA = 2

CLASS_NAMES = ("others", "crypto", "giardia")
NUM_CLASSES = 3

# the frame size the network takes and the generator draws
INPUT_HEIGHT = 244
INPUT_WIDTH = 324
