"""Benchmark of the spinscan measurement chain.

    python3 perfbench/run.py --workload contact-map --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  One run is one fresh process
that pins the BLAS and OpenMP pools to one thread, builds the
workload's texture, then repeats the workload's job until --seconds
have passed, with set-up measured in fresh child processes spread over
the same window, and checks the last job's output files against the
independent reference.  Every job and set-up is timed between two runs
of a calibration kernel, and its time is reported scaled to the
reference host (see calibrate.py).  The last line of standard output is
one JSON object: correct, attempted and failed calls into spinscan, and
the metrics that BENCHMARK.json lists, the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import os

# The pools read these when numpy loads, so they are set before any import
# that loads it; the set-up probes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import REF_S, calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

STAGES = ("texture.build", "texture.io", "scan.map", "scan.iso",
          "spectrum.measure", "reconstruct.forward", "reconstruct.solve",
          "reconstruct.lcurve", "fileio.write", "fileio.read")


def import_program():
    """Put the checkout's own src/ first on the path; fail if it is absent."""
    if not (SRC / "spinscan" / "__init__.py").is_file():
        raise SystemExit(f"error: no spinscan package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import spinscan

    if Path(spinscan.__file__).resolve().parent != SRC / "spinscan":
        raise SystemExit(f"error: imported spinscan from {spinscan.__file__}")


def measure_setup(workload: str, seed: int, probe_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    probe_dir.mkdir()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(probe_dir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def thread_count() -> int:
    """Threads of this process, from /proc; 1 where /proc is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()


def layer_metrics(tex, tracer, jobs, out, overhead_s) -> dict:
    """Per-layer metrics: medians over the traced jobs, counts from outputs.

    jobs maps each traced job's id to the factor that scales its wall
    time to the reference host; span times are scaled by the same factor.
    """
    def seconds(run_id, factor):
        total = dict.fromkeys(STAGES, 0.0)
        for span in tracer.children(run_id):
            total[span["name"]] += (span["end"] - span["start"]) * factor
        return total

    per_job = [seconds(j, f) for j, f in jobs.items()]
    t = {s: statistics.median(p[s] for p in per_job) for s in STAGES}
    setup = seconds("setup", 1.0)
    last = tracer.children(list(jobs)[-1])

    def rss_after(name):
        return max((s["rss_mb"] for s in last if s["name"] == name), default=0.0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    map_px = out["rmap"].f_plus.size if "rmap" in out else 0
    iso = out.get("iso")
    iso_px = iso.heights.size if iso is not None else 0
    error = out.get("error")
    spec_px = error.size if error is not None else 0
    results = out.get("results", [])
    return {
        "texture.build_s": setup["texture.build"],
        "texture.io_s": setup["texture.io"],
        "texture.sites": tex.n_sites,
        "scan.map_s": t["scan.map"],
        "scan.map_pairs_per_s": rate(map_px * tex.n_sites, t["scan.map"]),
        "scan.map_pixels": map_px,
        "scan.map_rss_mb": rss_after("scan.map"),
        "scan.iso_s": t["scan.iso"],
        "scan.iso_px_per_s": rate(iso_px, t["scan.iso"]),
        "scan.iso_pixels": iso_px,
        "scan.iso_bracketed": int(np.isfinite(iso.heights).sum()) if iso is not None else 0,
        "scan.iso_rss_mb": rss_after("scan.iso"),
        "spectrum.measure_s": t["spectrum.measure"],
        "spectrum.px_per_s": rate(spec_px, t["spectrum.measure"]),
        "spectrum.pixels": spec_px,
        "spectrum.failed_px": int(np.isinf(error).sum()) if error is not None else 0,
        "reconstruct.forward_s": t["reconstruct.forward"],
        "reconstruct.solve_s": t["reconstruct.solve"],
        "reconstruct.lcurve_s": t["reconstruct.lcurve"],
        "reconstruct.solve_iterations": sum(r.iterations for r in results),
        "reconstruct.lcurve_points": sum(len(rows) for rows in out.get("lcurves", [])),
        "reconstruct.kernel_mb": sum(p * n * 8 for p, n in out.get("kernels", [])) / 2**20,
        "fileio.write_s": t["fileio.write"],
        "fileio.bytes_written": sum(Path(p).stat().st_size for p in out["files"]),
        "fileio.read_s": t["fileio.read"],
        "trace.overhead_s": overhead_s,
    }


class Series:
    """Wall times of one kind of operation, each scaled to the reference
    host by the calibration runs just before and after it."""

    def __init__(self, kind: str):
        self.kind = kind
        self.wall: list = []
        self.scaled: list = []
        self._before = None

    def time(self, fn):
        """Call fn bracketed by calibrations; record and return its result."""
        if self._before is None:
            self._before = calibrate(self.kind)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = calibrate(self.kind)
        factor = REF_S[self.kind] / (0.5 * (self._before + after))
        self._before = after
        self.wall.append(wall)
        self.scaled.append(wall * factor)
        return result, factor

    def invalidate(self):
        """Other work ran since the last calibration; calibrate afresh."""
        self._before = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    from spans import Tracer, peak_rss_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed)
        tracer = Tracer(enabled=traced)
        tex = wl.setup(tracer, workdir)

        # Whole jobs until the time is up.  The host's speed drifts over
        # seconds, so the set-up probes are spread evenly over the same
        # window rather than run in one burst.  A traced run measures no
        # set-up; it alternates untraced and traced jobs so that both
        # medians come from the same stretch of time, and their
        # difference is the tracing overhead.
        setups, jobs = Series("interp"), Series(wl.calibration)
        n_probes = 0 if traced else SETUP_PROBES
        traced_flags, traced_ids, digests, out, k = [], {}, set(), None, 0
        started = time.perf_counter()

        def probe():
            setups.time(lambda: measure_setup(args.workload, args.seed,
                                              workdir / f"probe{len(setups.wall)}"))
            setups.invalidate()
            jobs.invalidate()

        while k < 1 + traced or time.perf_counter() - started < args.seconds:
            while (len(setups.wall) < n_probes and time.perf_counter() - started
                   >= len(setups.wall) * args.seconds / n_probes):
                probe()
            tracer.enabled = traced and k % 2 == 1
            job_id = f"job{k}"

            def job():
                with tracer.run(job_id):
                    return wl.job(tex, tracer, workdir)
            try:
                out_k, factor = jobs.time(job)
            except Exception:  # counted in `failed`; the run goes on
                print(f"job {k} failed:", file=sys.stderr)
                traceback.print_exc()
                jobs.invalidate()
            else:
                out = out_k
                traced_flags.append(tracer.enabled)
                if tracer.enabled:
                    traced_ids[job_id] = factor
                digests.add(digest(out["files"]))
            k += 1
        while len(setups.wall) < n_probes:
            probe()
        rss_mb = peak_rss_mb()
        if out is None:
            raise SystemExit("error: no job completed")
        problems = wl.check(out, workdir)
        if len(digests) != 1:
            problems.append(f"output files differ between jobs ({len(digests)} versions)")
        n_threads = thread_count()
        if n_threads != 1:
            problems.append(f"run used {n_threads} threads, want 1")

        if traced:
            by_flag = {f: [t for t, g in zip(jobs.scaled, traced_flags) if g == f]
                       for f in (True, False)}
            overhead = statistics.median(by_flag[True]) - statistics.median(by_flag[False])
            values = layer_metrics(tex, tracer, traced_ids, out, overhead)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            wanted = bench["per_layer"]
        else:
            values = {"job_s": statistics.median(jobs.scaled),
                      "setup_s": statistics.median(setups.scaled),
                      "peak_rss_mb": rss_mb}
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed {args.seed}")
    for label, series in (("set-up", setups), ("job", jobs)):
        if series.wall:
            print(f"  {label} wall (s):   " + " ".join(f"{t:.4f}" for t in series.wall))
            print(f"  {label} scaled (s): " + " ".join(f"{t:.4f}" for t in series.scaled))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": tracer.calls,
                      "failed": tracer.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
