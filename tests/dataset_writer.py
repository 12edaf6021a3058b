"""write_dataset: any images written in the layout `parasnet gen` writes,
through pgmio's start_dataset, image_path and write_manifest."""

import numpy as np

from parasnet import NUM_CLASSES, pgmio


def write_dataset(root, images, labels, master_seed, extra=None):
    """Write images into the class-directory layout with a manifest.

    images is an array or any iterable of same-sized images, such as a
    generator, and is consumed one image at a time, so a split need not
    be held in memory whole. The manifest is written last: an image and
    label count that disagree, or an image of another size, raise
    ValueError before it.
    """
    counts = [0] * NUM_CLASSES
    size = None
    pgmio.start_dataset(root)
    images = iter(images)
    for label in np.asarray(labels).tolist():
        image = next(images, None)
        if image is None:
            raise ValueError("images and labels disagree in length")
        if size is None:
            size = image.shape[:2]
        elif image.shape[:2] != size:
            raise ValueError(f"image of size {image.shape[:2]} among images of {size}")
        pgmio.write_pgm(pgmio.image_path(root, label, counts[label]), image)
        counts[label] += 1
        # dropped before the next image is made, so a generator's images
        # are held one at a time
        del image
    if next(images, None) is not None:
        raise ValueError("images and labels disagree in length")
    if size is None:
        raise ValueError("no images to write")
    pgmio.write_manifest(root, size[0], size[1], master_seed, counts, extra)
