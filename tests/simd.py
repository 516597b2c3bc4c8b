"""Fresh Python processes under numpy's default SIMD dispatch or with its
AVX-512 targets turned off.

numpy picks some float kernels (power, exp, log) by CPU, and they give
different bits on different kernels.  A test that must show a result does
not depend on that runs the same snippet in children under both
dispatches with run_children and compares what they print.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import dtl

_TESTS = pathlib.Path(__file__).resolve().parent


def cpu():
    """numpy's dispatch targets and the CPU features it found."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


def avx512_targets() -> list[str]:
    """The AVX-512 targets this numpy dispatches to and this CPU has.  On
    a host without them the list is empty, and a child with AVX-512 off
    runs the default dispatch: the test still compares two processes."""
    dispatch, found = cpu()
    return [
        name for name in dispatch
        if (name == "X86_V4" or name.startswith("AVX512")) and found.get(name)
    ]


def run_children(code: str, avx512=(True, False), timeout: float = 120, srcs=None) -> list[str]:
    """The stdout of `code` run in one child per entry of `avx512`, all at
    once: True keeps numpy's default dispatch, False turns the AVX-512
    targets off through NPY_DISABLE_CPU_FEATURES.  The children import
    dtl from this checkout, or each from its entry of `srcs` (a src/
    directory), and can import the modules of tests/.  A child that exits
    nonzero fails the calling test with its stderr."""
    targets = avx512_targets()
    base = dict(os.environ)
    base.pop("NPY_DISABLE_CPU_FEATURES", None)
    procs = []
    for on, src in zip(avx512, srcs or [pathlib.Path(dtl.__file__).parents[1]] * len(avx512)):
        env = dict(base, PYTHONPATH=os.pathsep.join([str(src), str(_TESTS)]))
        if not on and targets:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=timeout)
            assert proc.returncode == 0, err
            outs.append(out)
    finally:  # a failed or timed-out child leaves no sibling running
        for proc in procs:
            proc.kill()
            proc.wait()
    return outs
