"""One benchmark pipeline in a fresh process: mine -> train -> encode -> eval.

Usage: worker.py ROOT WORKDIR REPORT [--setup-only] [--trace]

WORKDIR holds config.json and encode.txt as written by workloads.generate;
artifacts go to WORKDIR/out. Prints nothing of its own and writes a JSON
report to REPORT. `ready` is read from the monotonic clock, which all
processes of the machine share, so `ready` minus the parent's launch time is
the set-up time: interpreter start, `import sentenc` and loading the config.
"""

import sys
import time

THREADS = 1  # `--threads` for every stage; never more than nproc


def main(argv):
    root, workdir, report_path = argv[:3]
    flags = argv[3:]
    config_path = f"{workdir}/config.json"
    sys.path.insert(0, f"{root}/src")

    import sentenc.cli
    from sentenc.config import load_run_config

    load_run_config(config_path)
    ready = time.monotonic()

    import contextlib
    import io
    import resource
    import traceback

    report = {"ready": ready, "module": sentenc.__file__}
    if "--setup-only" in flags:
        report["env"] = describe_env()
        _dump(report, report_path)
        return 0

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    common = ["--config", config_path, "--threads", str(THREADS)]
    stages = [
        ("mine", ["mine", *common]),
        ("train", ["train", *common]),
        ("encode", ["encode", *common, "--input", f"{workdir}/encode.txt",
                    "--output", f"{workdir}/out/emb.tsv"]),
        ("eval", ["eval", *common]),
    ]
    results = []
    for name, stage_argv in stages:
        if tracer is not None:
            tracer.stage = name
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sentenc.cli.main(stage_argv)
            error = err.getvalue() if code != 0 else None
        except Exception:  # a crash is a failed op: report it and stop here
            code, error = None, traceback.format_exc()
        results.append({"stage": name, "exit": code, "s": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "error": error})
        if code != 0:
            break
    report["stages"] = results
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(f"{workdir}/out/spans.csv")
        report["layers"] = tracer.summary()
        report["absent"] = tracer.absent
    _dump(report, report_path)
    return 0


def describe_env() -> dict:
    """Interpreter, numpy and BLAS versions and the BLAS thread count."""
    import ctypes
    import glob
    import os
    import platform

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads_flag": THREADS,
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(f"{site}/numpy.libs/*openblas*") + glob.glob(
        f"{site}/scipy_openblas*/lib/*openblas*.so*"
    ):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                env["blas_threads"] = fn()
                return env
    return env


def _dump(report, path):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
