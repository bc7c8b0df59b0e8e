"""Fresh-interpreter probes the benchmark spawns; not meant to be run by hand.

    probe.py setup <workload> <call seed> --out DIR
        imports gradremedy.cli and starts one `gradremedy run` call, stopping
        it at the first optimizer step; prints time.perf_counter() there
    probe.py rss <workload> <workload seed> --out DIR
        makes one call per strategy and prints its peak resident set in KiB
"""

import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import catalog  # noqa: E402 - pure data; gradremedy is imported inside the timing


class FirstStep(BaseException):
    """Stops a call at its first optimizer step; not an Exception, so the
    CLI's error handling lets it through."""

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


def _first_step(*_args, **_kwargs):
    raise FirstStep(time.perf_counter())


def setup(workload: catalog.Workload, seed: int, out: str) -> int:
    import gradremedy.cli
    import gradremedy.trainer

    hooked = []
    for name in ("Adam", "SGD"):
        optimizer = getattr(gradremedy.trainer, name, None)
        if optimizer is not None and hasattr(optimizer, "step"):
            optimizer.step = _first_step
            hooked.append(name)
    if not hooked:
        print("no optimizer class with a step method in gradremedy.trainer",
              file=sys.stderr)
        return 3
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = gradremedy.cli.main(workload.argv("gradient-remedy", seed, out))
    except FirstStep as stop:
        print(repr(stop.at))
        return 0
    print(f"call ended with {code} before any optimizer step", file=sys.stderr)
    return 3


def peak_rss_kib() -> int:
    """This process's peak resident set. Linux keeps ru_maxrss across exec,
    so a child spawned by a large parent would report the parent's peak;
    VmHWM belongs to the current process image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rss(workload: catalog.Workload, seed: int, out: str) -> int:
    import gradremedy.cli

    call_seed = catalog.call_seeds(workload.name, seed)[0]
    for token, _ in catalog.STRATEGIES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = gradremedy.cli.main(workload.argv(token, call_seed, out))
        if code != 0:
            print(f"{token} call exited {code}", file=sys.stderr)
            return 3
    print(peak_rss_kib())
    return 0


def main(argv: list[str]) -> int:
    mode, workload, seed, flag, out = argv
    if flag != "--out":
        raise SystemExit(f"usage: {__doc__}")
    probe = {"setup": setup, "rss": rss}[mode]
    return probe(catalog.WORKLOADS[workload], int(seed), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
