"""Build script: compiles the kernel library ``src/powersplit/_kernels/kernels.c``.

The file is plain C99 with no Python or NumPy headers; ``_kernels/_compiled.py``
loads it with ctypes. ``-ffp-contract=off`` keeps the compiler from fusing
multiply-adds, which the bit-identical filter kernels rely on.
``-fno-math-errno`` lets ``sqrt`` compile to the instruction; no kernel
reads ``errno``, and every result stays the correctly rounded one.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "powersplit._kernels._libkernels",
            ["src/powersplit/_kernels/kernels.c"],
            extra_compile_args=["-std=c99", "-ffp-contract=off", "-fno-math-errno"],
            libraries=["m"],
        )
    ],
)
