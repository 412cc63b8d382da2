"""Legacy setup shim: this environment's setuptools predates PEP 517 wheels.

Builds the optional compiled blossom kernel
(``repro.decode._cblossom``).  The extension is an accelerator, not a
requirement: any build failure — missing C toolchain, exotic platform —
degrades to a warning and the pure-Python engine, never an install
error.  ``python setup.py build_ext --inplace`` compiles it for a
source checkout.
"""

import sys
import warnings

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that degrades to pure-Python instead of failing."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # toolchain missing entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:  # compile/link failure
            self._skip(exc)

    def _skip(self, exc):
        warnings.warn(
            "repro: building the compiled blossom kernel failed "
            f"({exc!r}); falling back to the pure-Python engine. "
            "Decoding works identically but matching is slower.",
            RuntimeWarning,
            stacklevel=2,
        )


if sys.platform == "win32":  # MSVC: contraction is off by default
    _KERNEL_CFLAGS = ["/O2"]
else:
    # -ffp-contract=off: no FMA contraction, so the kernel's float
    # arithmetic rounds exactly like the pure-Python oracle's.
    _KERNEL_CFLAGS = ["-O2", "-ffp-contract=off"]

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Surf-Deformer: adaptive code deformation for dynamic defects on "
        "surface codes (MICRO 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: the annotations on the public decode/sim/eval/store
    # surfaces are part of the API; ship the marker so type checkers
    # consume them from an installed copy too.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy", "networkx"],
    ext_modules=[
        Extension(
            "repro.decode._cblossom",
            sources=["src/repro/decode/_cblossom.c"],
            extra_compile_args=_KERNEL_CFLAGS,
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
