"""The benchmark's three workloads.

Every workload is a closed loop with one client: it sets up several times
(set-up time is the median), sends its requests back to back until
the run's seconds have passed, and checks every output outside the timed
calls. All inputs derive from the seed. A workload calls potvit through
module attributes so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from potvit import accelsim, cli, dataset, fakequant, intengine, quantizer, refmodel
from potvit.numerics import Rng

SETUP_REPEATS = 5
# pipeline-tiny's set-up takes about 1 ms, so its median needs many samples
# before it is steady
PIPELINE_SETUP_REPEATS = 101
SIM_MODES = ("none", "inter", "intra", "inter,intra")

# default CLI pipeline; the step name is the traced span's name
PIPELINE = (
    ("train", ["train"]),
    ("calibrate", ["calibrate"]),
    ("search_bits", ["search-bits", "--budget-mb", "0.012"]),
    ("quantize", ["quantize"]),
    ("eval", ["eval", "--engine", "float"]),
    ("eval", ["eval", "--engine", "fakequant"]),
    ("eval", ["eval", "--engine", "int", "--check"]),
    *(("simulate", ["simulate", "--pipeline", mode]) for mode in SIM_MODES),
    ("report", ["report"]),
)
VAL_CALLS = 40  # int and fake-quant calls on the validation split after a pipeline
CALIBRATE_REPEATS = 4

DEIT = refmodel.ModelConfig(
    layers=1, heads=3, dim=192, tokens=197, mlp_ratio=4, classes=1000, in_dim=768
)
DEIT_BATCH = 8
DEIT_CALIB = 8
DEIT_BATCHES = 4  # distinct input batches, cycled by the measured loop
# fake-quant calls per batch: each costs about a sixth of an int_forward call
# and spreads more (it allocates ~0.5 GB of float64 temporaries), so it gets
# more samples
DEIT_FQ_CALLS = 3

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "calibrate_s": "s",
    "int_images_per_s": "images/s",
    "fq_images_per_s": "images/s",
    "int_latency_p50_ms": "ms",
    "int_acc": "fraction",
    "peak_rss_mb": "MB",
}


def mismatched_points(ti: dict, tf: dict) -> list[str]:
    """Trace points whose integer codes differ between the two engines."""
    return sorted(k for k in ti.keys() | tf.keys() if k not in ti or k not in tf
                  or not np.array_equal(ti[k], tf[k]))


@dataclass
class Outcome:
    primary: str  # end-to-end metric the tracing overhead is measured on
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    mismatch_points: int = 0
    latencies_ms: list = field(default_factory=list)
    cycles: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check_codes(self, ti: dict, tf: dict, what: str) -> None:
        bad = mismatched_points(ti, tf)
        self.mismatch_points += len(bad)
        self.check(not bad, f"{what}: integer and fake-quant codes differ at {bad}")

    def record_trace(self, trace: dict) -> None:
        for key in sorted(trace):
            codes = np.ascontiguousarray(trace[key], dtype=np.int64)
            self.digest.update(f"{key}{codes.shape}".encode())
            self.digest.update(codes.tobytes())

    def record_cycles(self) -> None:
        self.digest.update(json.dumps(self.cycles, sort_keys=True).encode())

    @property
    def latency_p99_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 99)) if self.latencies_ms else 0.0

    def finish(self, **metrics) -> "Outcome":
        self.metrics = {**metrics, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        return self


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _request(tracer, rid):
    if tracer is not None:
        tracer.request_id = rid


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def simulate_modes(out: Outcome, workload, arch) -> float:
    """Analytic cycles against the event-driven oracle in all four modes;
    returns the host seconds spent."""
    t0 = time.perf_counter()
    for mode in SIM_MODES:
        inter, intra = "inter" in mode, "intra" in mode
        if inter or intra:
            report = accelsim.simulate_pipelined(workload, arch, inter=inter, intra=intra)
        else:
            report = accelsim.simulate_sequential(workload, arch)
        oracle = accelsim.event_driven_oracle(workload, arch, inter=inter, intra=intra)
        out.check(
            report.total_cycles == oracle.total_cycles,
            f"simulate {mode}: analytic {report.total_cycles} != event-driven {oracle.total_cycles} cycles",
        )
        out.cycles[mode.replace(",", "_")] = report.total_cycles
    out.ratios = accelsim.speedup_ratios(workload, arch)
    out.record_cycles()
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# pipeline-tiny: the whole potvit CLI, in process, on the default config


def pipeline_tiny(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    out = Outcome(primary="pipeline_s")
    doc = json.dumps({"seed": seed, "dataset": {"seed": seed}})
    setups = []
    for _ in range(PIPELINE_SETUP_REPEATS):
        t0 = time.perf_counter()
        config = Path(tempfile.mkdtemp(dir=work)) / "run.json"
        config.write_text(doc)
        ds = dataset.make_dataset(dataset.DatasetConfig(seed=seed))
        setups.append(time.perf_counter() - t0)

    if tracer is not None:
        seconds = 0  # one pipeline, so that per-layer counts are per pipeline
    totals, calibrations = [], []
    start = time.perf_counter()
    while not totals or time.perf_counter() - start < seconds:
        art = Path(tempfile.mkdtemp(dir=work))
        total = 0.0
        for rid, (step, argv) in enumerate(PIPELINE):
            _request(tracer, rid)
            with _span(tracer, f"cli.{step}"), contextlib.redirect_stdout(sys.stderr):
                dt, rc = _timed(cli.main, [*argv, "--config", str(config), "--out", str(art)])
            out.check(rc == 0, f"potvit {' '.join(argv)} exited {rc}")
            total += dt
            if step == "calibrate":
                calibrations.append(dt)
        totals.append(total)

    # one pipeline gives one calibrate sample; repeat the step for a steadier
    # median, each time in a fresh directory holding only the checkpoint, as
    # in the pipeline (overwriting an older artifact is slower on some file
    # systems). Their span has its own name so that cli.calibrate covers only
    # the pipeline's step.
    for _ in range(CALIBRATE_REPEATS):
        again = Path(tempfile.mkdtemp(dir=work))
        shutil.copytree(art / "checkpoint", again / "checkpoint")
        with _span(tracer, "bench.calibrate_repeat"), contextlib.redirect_stdout(sys.stderr):
            dt, rc = _timed(cli.main, ["calibrate", "--config", str(config), "--out", str(again)])
        out.check(rc == 0, f"potvit calibrate exited {rc}")
        calibrations.append(dt)

    qm = intengine.load_qmodel(art / "qmodel")
    vx, _ = ds.val
    int_times, fq_times = [], []
    for rid in range(VAL_CALLS):
        _request(tracer, len(PIPELINE) + rid)
        dt, (_, ti) = _timed(intengine.int_forward, qm, vx)
        int_times.append(dt)
        dt, (_, tf) = _timed(fakequant.fake_quant_forward, qm, vx)
        fq_times.append(dt)
        out.check_codes(ti, tf, f"validation call {rid}")
    out.record_trace(ti)
    out.latencies_ms = [1e3 * t for t in int_times]
    for mode in SIM_MODES:
        sim = json.loads((art / f"sim_{mode.replace(',', '-')}.json").read_text())
        out.cycles[mode.replace(",", "_")] = sim["total_cycles"]
    out.ratios = sim["ratios"]
    out.record_cycles()
    return out.finish(
        setup_s=statistics.median(setups),
        pipeline_s=statistics.median(totals),
        calibrate_s=statistics.median(calibrations),
        int_images_per_s=len(vx) / statistics.median(int_times),
        fq_images_per_s=len(vx) / statistics.median(fq_times),
        int_latency_p50_ms=1e3 * statistics.median(int_times),
        int_acc=json.loads((art / "eval_int.json").read_text())["accuracy"],
    )


# --------------------------------------------------------------------------
# deit-block-b8: one random-init DeiT-Tiny-shaped block at batch 8


def deit_block_b8(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    out = Outcome(primary="int_latency_p50_ms")
    setups, calibrations, quantizations = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model = refmodel.init_model(DEIT, Rng(seed))
        rng = np.random.default_rng(seed)
        shape = (DEIT.tokens - 1, DEIT.in_dim)
        calib = rng.standard_normal((DEIT_CALIB, *shape), dtype=np.float32)
        batches = [rng.standard_normal((DEIT_BATCH, *shape), dtype=np.float32) for _ in range(DEIT_BATCHES)]
        dt, qparams = _timed(quantizer.calibrate, model, calib, quantizer.QuantConfig())
        calibrations.append(dt)
        build_s, qm = _timed(intengine.build_quantized_model, model, qparams)
        quantizations.append(dt + build_s)
        setups.append(time.perf_counter() - t0)

    int_times, fq_times, agree = [], [], []
    start = time.perf_counter()
    rid = 0
    while rid < DEIT_BATCHES or time.perf_counter() - start < seconds:
        x = batches[rid % DEIT_BATCHES]
        _request(tracer, rid)
        dt, (logits, ti) = _timed(intengine.int_forward, qm, x)
        int_times.append(dt)
        for _ in range(DEIT_FQ_CALLS):
            dt, (fq_logits, tf) = _timed(fakequant.fake_quant_forward, qm, x)
            fq_times.append(dt)
            out.check_codes(ti, tf, f"batch {rid}")
        # a random-init block has no true labels; the fake-quant oracle's
        # top-1 stands in for them
        agree.extend(logits.argmax(axis=-1) == fq_logits.argmax(axis=-1))
        if rid < DEIT_BATCHES:
            out.record_trace(ti)
        del ti, tf
        rid += 1
    out.latencies_ms = [1e3 * t for t in int_times]

    _request(tracer, rid)
    sim_s = simulate_modes(out, accelsim.deit_tiny_workload(), accelsim.AcceleratorConfig())
    return out.finish(
        setup_s=statistics.median(setups),
        pipeline_s=statistics.median(quantizations)
        + statistics.median(int_times)
        + statistics.median(fq_times)
        + sim_s,
        calibrate_s=statistics.median(calibrations),
        int_images_per_s=DEIT_BATCH / statistics.median(int_times),
        fq_images_per_s=DEIT_BATCH / statistics.median(fq_times),
        int_latency_p50_ms=1e3 * statistics.median(int_times),
        int_acc=float(np.mean(agree)),
    )


# --------------------------------------------------------------------------
# tiny-b1-latency: single-image requests to the trained default model


def tiny_b1_latency(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    out = Outcome(primary="int_latency_p50_ms")
    setups, calibrations, quantizations = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ds = dataset.make_dataset(dataset.DatasetConfig(seed=seed))
        model = refmodel.train(refmodel.ModelConfig(), ds, seed=seed)
        dt, qparams = _timed(quantizer.calibrate, model, ds.calibration(), quantizer.QuantConfig())
        calibrations.append(dt)
        build_s, qm = _timed(intengine.build_quantized_model, model, qparams)
        quantizations.append(dt + build_s)
        setups.append(time.perf_counter() - t0)

    images, labels = ds.val
    expected, fq_times = [], []
    for j, image in enumerate(images):
        _request(tracer, j)
        dt, (_, tf) = _timed(fakequant.fake_quant_forward, qm, image)
        fq_times.append(dt)
        expected.append(tf)

    correct = 0
    start = time.perf_counter()
    rid = 0
    while rid < len(images) or time.perf_counter() - start < seconds:
        j = rid % len(images)
        _request(tracer, len(images) + rid)
        dt, (logits, ti) = _timed(intengine.int_forward, qm, images[j])
        out.latencies_ms.append(1e3 * dt)
        out.check_codes(ti, expected[j], f"request {rid}")
        if rid < len(images):
            out.record_trace(ti)
        correct += int(np.argmax(logits) == labels[j])
        rid += 1

    p50 = statistics.median(out.latencies_ms)
    return out.finish(
        setup_s=statistics.median(setups),
        pipeline_s=statistics.median(quantizations) + p50 / 1e3 + statistics.median(fq_times),
        calibrate_s=statistics.median(calibrations),
        int_images_per_s=1e3 / p50,
        fq_images_per_s=1 / statistics.median(fq_times),
        int_latency_p50_ms=p50,
        int_acc=correct / rid,
    )


WORKLOADS = {
    "pipeline-tiny": pipeline_tiny,
    "deit-block-b8": deit_block_b8,
    "tiny-b1-latency": tiny_b1_latency,
}
