"""Build script: compiles the kernel library ``src/powersplit/_kernels/kernels.c``.

The file is plain C99 with no Python or NumPy headers; ``_kernels/_compiled.py``
loads it with ctypes. ``-ffp-contract=off`` keeps the compiler from fusing
multiply-adds, which the bit-identical filter kernels rely on.
``-fno-math-errno`` lets ``sqrt`` compile to the instruction; no kernel
reads ``errno``, and every result stays the correctly rounded one.
``-falign-functions=64`` starts every kernel on a cache line, so the
placement of its hot loops does not move when code before it changes
size: a 16-byte shift of ``hsmm_backward``, after another pass stopped
calling ``memset``, made it about 7% slower on an Intel Xeon host.
``KERNELS_DIGEST`` is the sha256 of the source, which the loader checks
against the ``kernels.c`` next to it.
"""

import hashlib

from setuptools import Extension, setup

SOURCE = "src/powersplit/_kernels/kernels.c"

with open(SOURCE, "rb") as fh:
    DIGEST = hashlib.sha256(fh.read()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "powersplit._kernels._libkernels",
            [SOURCE],
            extra_compile_args=["-std=c99", "-ffp-contract=off", "-fno-math-errno",
                                "-falign-functions=64"],
            define_macros=[("KERNELS_DIGEST", f'"{DIGEST}"')],
            libraries=["m"],
        )
    ],
)
