"""End-to-end and per-layer benchmark of srcodes.

    python3 perfbench/run.py --workload bch15-radius --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  One process builds the workload's codes, decodes its pre-generated
received words one at a time (closed loop, one caller) and runs
simulate(..., jobs=1), alternating the two in rounds until --seconds have
passed.  Every output is checked.  Times are scaled to a fixed machine
speed (see machine.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and what each metric means.
"""

import os

# One thread: the loads run in the main thread alone, and OpenBLAS would
# otherwise start a worker that spins on the second core after each
# parity-check product.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from machine import reference_ns, speed_scale
from workloads import WORKLOADS, build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

# Statuses with which sr_decode may correctly give up beyond its radius.
TYPED_FAILURES = ("c1_failure", "all_branches_failed", "ambiguous")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


_REPORTED = set()


def _report(exc):
    """Print an exception from the package to stderr, once per kind."""
    key = (type(exc).__name__, str(exc))
    if key not in _REPORTED:
        _REPORTED.add(key)
        print(f"operation raised {key[0]}: {key[1]}", file=sys.stderr)


# ----------------------------------------------------------------------
# checks, written apart from the library's own arithmetic
# ----------------------------------------------------------------------

# GF(4) with symbols 0, 1, w, w^2 stored as 0, 1, 2, 3 (w^2 = w + 1).
GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
                   dtype=np.uint8)


def _block_rank(a0, a1):
    """GF(2)-rank of the block x -> a0*x + a1*x^2 on GF(4): two minus the
    dimension of its kernel."""
    kernel = sum(1 for x in range(4)
                 if GF4_MUL[a0, x] ^ GF4_MUL[a1, GF4_MUL[x, x]] == 0)
    return 2 - (kernel.bit_length() - 1)


BLOCK_RANK = np.array([_block_rank(a0, a1) for a0 in range(4) for a1 in range(4)])


def rank_sum(x, x2):
    """Sum of the 2x2 block ranks of words with x coefficients x and x^2
    coefficients x2, given as uint8 arrays of shape (..., n)."""
    return BLOCK_RANK[4 * x + x2].sum(axis=-1)


def binary_parity(parity_rows):
    """The GF(4) parity-check rows as a 0/1 float matrix acting on words
    written two bits per symbol (bit 0: coefficient of 1, bit 1: of w)."""
    H = np.array([list(r) for r in parity_rows], dtype=np.uint8)
    r, n = H.shape
    Hb = np.zeros((2 * r, 2 * n), dtype=np.float32)
    for c, basis in enumerate((1, 2)):
        img = GF4_MUL[H, basis]
        for b in range(2):
            Hb[b::2, c::2] = img >> b & 1
    return Hb


def in_code(Hb, words):
    """Per row of words (B, n): every parity check vanishes."""
    bits = np.empty((words.shape[0], 2 * words.shape[1]), dtype=np.float32)
    bits[:, 0::2] = words & 1
    bits[:, 1::2] = words >> 1
    syn = (bits @ Hb.T).astype(np.int64) & 1
    return ~syn.any(axis=1)


def _rows(byte_strings, n):
    return np.frombuffer(b"".join(byte_strings), dtype=np.uint8).reshape(-1, n)


class Inputs:
    """The workload's received words, with what was sent and injected."""

    def __init__(self, code, workload, seed):
        from srcodes import sample_error
        rng = np.random.default_rng(seed)
        n = code.n
        weights = np.resize(np.array(workload.weights), workload.words)
        sent, errors = [], []
        for w in weights:
            bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
            sent.append(code.encode(bits))
            errors.append(sample_error(n, int(w), rng))
        self.received = [s + e for s, e in zip(sent, errors)]
        self.sent_x = _rows([s.coeff_x for s in sent], n)
        self.sent_x2 = _rows([s.coeff_x2 for s in sent], n)
        self.err_x = _rows([e.coeff_x for e in errors], n)
        self.err_x2 = _rows([e.coeff_x2 for e in errors], n)
        self.recv_x = self.sent_x ^ self.err_x
        self.recv_x2 = self.sent_x2 ^ self.err_x2
        self.weights_ok = bool(np.array_equal(rank_sum(self.err_x, self.err_x2), weights))
        self.in_radius = weights <= workload.radius


class Checker:
    def __init__(self, code, workload):
        self.n = code.n
        self.radius = workload.radius
        self.h1 = binary_parity(code.c1.parity_matrix)   # C1 holds the x^2 part
        self.h2 = binary_parity(code.c2.parity_matrix)   # C2 holds the x part

    def decodes(self, inputs, results):
        """Number of sr_decode results that fail a check (None: it raised)."""
        failed = 0
        idx, cws, errs = [], [], []
        for i, res in enumerate(results):
            if res is None:
                failed += 1
            elif res.status == "success":
                idx.append(i)
                cws.append(res.codeword)
                errs.append(res.error)
            elif res.status not in TYPED_FAILURES or inputs.in_radius[i]:
                failed += 1
        if not idx:
            return failed
        n = self.n
        cx, cx2 = _rows([c.coeff_x for c in cws], n), _rows([c.coeff_x2 for c in cws], n)
        ex, ex2 = _rows([e.coeff_x for e in errs], n), _rows([e.coeff_x2 for e in errs], n)
        rx, rx2 = inputs.recv_x[idx], inputs.recv_x2[idx]
        ok = in_code(self.h2, cx) & in_code(self.h1, cx2)
        ok &= rank_sum(rx ^ cx, rx2 ^ cx2) <= self.radius
        ok &= ((ex == rx ^ cx) & (ex2 == rx2 ^ cx2)).all(axis=1)
        exact = ((cx == inputs.sent_x[idx]) & (cx2 == inputs.sent_x2[idx])).all(axis=1)
        ok &= exact | ~inputs.in_radius[idx]
        return failed + int(np.count_nonzero(~ok))

    def sim_row(self, row, weight, trials):
        """Number of trials of one simulate() row that fail a check (None:
        the call raised)."""
        if (row is None or row["weight"] != weight or row["trials"] != trials
                or row["success"] + row["failure"] + row["ambiguous"] != trials
                or row["dec1_calls_max"] > 1 or row["dec2_calls_max"] > 3):
            return trials
        return trials - row["success"] if weight <= self.radius else 0


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

class Scaler:
    """Runs the reference loop at each boundary between measured stretches
    of work; a call gives the speed scale of the stretch that just ended."""

    def __init__(self):
        self._ref = reference_ns()

    def __call__(self):
        after = reference_ns()
        scale = speed_scale(self._ref, after)
        self._ref = after
        return scale


class TimedDecoder:
    """Stands in for a component decoder inside sr_decode, carrying its
    decode, radius and code, and times and counts its decode calls."""

    def __init__(self, inner):
        self.code = inner.code
        self.radius = inner.radius
        self._decode = inner.decode
        self.calls = self.ok = self.ns = self._settled = 0
        self.scaled_ns = 0.0

    def decode(self, word):
        t0 = time.perf_counter_ns()
        res = self._decode(word)
        self.ns += time.perf_counter_ns() - t0
        self.calls += 1
        self.ok += res.ok
        return res

    def settle(self, scale):
        """Add the time spent since the last call, scaled, to scaled_ns."""
        self.scaled_ns += (self.ns - self._settled) * scale
        self._settled = self.ns


def decode_pass(code, dec1, dec2, d_sr, received, chunk):
    """Decode every word once, one at a time, in chunks of `chunk` words
    timed between reference-loop runs.

    Returns the results (None where sr_decode raised), the scaled per-word
    latencies in ns (one float32 array per chunk, which keeps the memory
    they take small next to the program's), and the scaled and the wall time
    of the pass in ns.
    """
    from srcodes import sr_decode
    clock = time.perf_counter_ns
    timed = [d for d in (dec1, dec2) if isinstance(d, TimedDecoder)]
    results, lat = [], []
    scaled = wall = 0.0
    scaler = Scaler()
    for start in range(0, len(received), chunk):
        part = []
        t_start = clock()
        for y in received[start:start + chunk]:
            t0 = clock()
            try:
                res = sr_decode(code, dec1, dec2, y, d_sr)
            except Exception as exc:  # a decode that raises is a failed operation
                _report(exc)
                res = None
            part.append(clock() - t0)
            results.append(res)
        ns = clock() - t_start
        scale = scaler()
        lat.append(np.array(part, dtype=np.float32) * scale)
        scaled += ns * scale
        wall += ns
        for d in timed:
            d.settle(scale)
    return results, lat, scaled, wall


def sim_pass(code, dec1, dec2, workload, seed):
    """One simulate(..., jobs=1) call per weight of the workload, each timed
    between reference-loop runs.

    Returns one row per weight (None where the call raised), and the scaled
    and the wall time of the calls in ns.
    """
    from srcodes import simulate
    clock = time.perf_counter_ns
    rows = []
    scaled = wall = 0.0
    scaler = Scaler()
    for w in workload.weights:
        t0 = clock()
        try:
            row, = simulate(code, dec1, dec2, [w], workload.sim_trials, seed=seed,
                            d_sr=workload.d_sr, jobs=1)
        except Exception as exc:  # every trial of a raising call counts as failed
            _report(exc)
            row = None
        ns = clock() - t0
        scaled += ns * scaler()
        wall += ns
        rows.append(row)
    return rows, scaled, wall


def sim_replay(code, dec1, dec2, workload, seed):
    """Time the parts of the trials that sim_pass runs for this seed, using
    the per-trial generators that simulate uses.

    Returns the scaled ns spent in the message draw, encode, sample_error
    and sr_decode, and whether every sampled error had its target weight.
    """
    from srcodes import sample_error, sr_decode
    clock = time.perf_counter_ns
    spent = dict.fromkeys(("draw", "encode", "sample", "decode"), 0.0)
    weights_ok = True
    scaler = Scaler()
    for w in workload.weights:
        part = dict.fromkeys(spent, 0)
        for trial in range(workload.sim_trials):
            t0 = clock()
            rng = np.random.default_rng((seed, w, trial))
            bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
            t1 = clock()
            sent = code.encode(bits)
            t2 = clock()
            err = sample_error(code.n, w, rng)
            t3 = clock()
            received = sent + err
            t4 = clock()
            sr_decode(code, dec1, dec2, received, workload.d_sr)
            t5 = clock()
            part["draw"] += t1 - t0
            part["encode"] += t2 - t1
            part["sample"] += t3 - t2
            part["decode"] += t5 - t4
            e = np.frombuffer(err.coeff_x + err.coeff_x2, dtype=np.uint8).reshape(2, -1)
            weights_ok &= int(rank_sum(e[0], e[1])) == w
        scale = scaler()
        for key in spent:
            spent[key] += part[key] * scale
    return spent, weights_ok


def setup_probes(workload, reps):
    """Set the workload up `reps` times, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, PROBE, workload.name], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not probe["srcodes"].startswith(SRC + os.sep):
            raise BenchError(f"srcodes was imported from {probe['srcodes']}, not {SRC}")
        out.append(probe)
    return out


def run_workload(workload, seed, seconds, trace, decorate=None):
    """Run one workload for `seconds`; returns the result object, with the
    number of rounds and unscaled figures under "rounds" and "wall".

    decorate, when given, wraps each component decoder before use (the
    self-test passes a deliberately faulty one).
    """
    probes = setup_probes(workload, workload.setup_reps)
    code, dec1, dec2 = build(workload)
    if decorate is not None:
        dec1, dec2 = decorate(dec1), decorate(dec2)
    inputs = Inputs(code, workload, seed)
    check = Checker(code, workload)
    correct = inputs.weights_ok
    words = workload.words
    trials = len(workload.weights) * workload.sim_trials
    attempted = failed = 0

    def decode(d1, d2):
        nonlocal attempted, failed
        results, lat, scaled, wall = decode_pass(code, d1, d2, workload.d_sr,
                                                 inputs.received, workload.chunk)
        failed += check.decodes(inputs, results)
        attempted += words
        return lat, scaled, wall

    def sim(sim_seed):
        nonlocal attempted, failed
        rows, scaled, wall = sim_pass(code, dec1, dec2, workload, sim_seed)
        failed += sum(check.sim_row(row, w, workload.sim_trials)
                      for row, w in zip(rows, workload.weights))
        attempted += trials
        return scaled, wall

    per_round = defaultdict(list)
    counts = dict.fromkeys(("c1", "c1_ok", "c2", "c2_ok"), 0)
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < 2 or time.perf_counter() < deadline:
        # round 0 is a warm-up: checked and counted, not reported
        sim_seed = seed * 1_000_000 + rnd
        lat, dns, dwall = decode(dec1, dec2)
        sns, swall = sim(sim_seed)
        got = {"rate": words / dns * 1e9, "lat": lat, "sim": trials / sns * 1e9,
               "wall_rate": words / dwall * 1e9, "wall_sim": trials / swall * 1e9}
        if trace:
            # The traced pass and the replay each sit between two untraced
            # runs of the same work, and are compared with their mean.
            t1, t2 = TimedDecoder(dec1), TimedDecoder(dec2)
            _, tns, _ = decode(t1, t2)
            _, dns2, _ = decode(dec1, dec2)
            spent, weights_ok = sim_replay(code, dec1, dec2, workload, sim_seed)
            correct &= weights_ok
            sns2, _ = sim(sim_seed)
            got.update(traced=(tns - (dns + dns2) / 2) / words,
                       self=(tns - t1.scaled_ns - t2.scaled_ns) / words,
                       c1=t1.scaled_ns / t1.calls, c2=t2.scaled_ns / max(t2.calls, 1),
                       overhead=((sns + sns2) / 2 - sum(spent.values())) / trials,
                       draw=spent["draw"] / trials, encode=spent["encode"] / trials,
                       sample=spent["sample"] / trials)
            if rnd:
                for key, val in (("c1", t1.calls), ("c1_ok", t1.ok),
                                 ("c2", t2.calls), ("c2_ok", t2.ok)):
                    counts[key] += val
        if rnd:
            for key, val in got.items():
                per_round[key].append(val)
        rnd += 1

    med = statistics.median
    if trace:
        us = {key: med(per_round[key]) / 1e3 for key in
              ("traced", "self", "c1", "c2", "overhead", "draw", "encode", "sample")}
        timed_words = words * (rnd - 1)
        metrics = {
            "srdec.self_us_per_word": (us["self"], "us"),
            "hamdec.c1_decode_us": (us["c1"], "us"),
            "hamdec.c2_decode_us": (us["c2"], "us"),
            "hamdec.c2_calls_per_word": (counts["c2"] / timed_words, "calls/word"),
            "hamdec.c1_ok_per_call": (counts["c1_ok"] / counts["c1"], "ratio"),
            "hamdec.c2_ok_per_call": (counts["c2_ok"] / max(counts["c2"], 1), "ratio"),
            "srdec.message_draw_us": (us["draw"], "us"),
            "sumrank.encode_us": (us["encode"], "us"),
            "srdec.sample_error_us": (us["sample"], "us"),
            "srdec.sim_overhead_us_per_trial": (us["overhead"], "us"),
            "gf2m.build_field_s": (med(p["field"] for p in probes), "s"),
            "codes.build_s": (med(p["codes"] for p in probes), "s"),
            "hamdec.init_s": (med(p["decoders"] for p in probes), "s"),
            "trace.overhead_us_per_word": (us["traced"], "us"),
        }
    else:
        lat_us = np.concatenate([x for lat in per_round["lat"] for x in lat]) / 1e3
        metrics = {
            "setup_s": (med(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "decode_words_per_s": (med(per_round["rate"]), "1/s"),
            "decode_us_p50": (float(np.percentile(lat_us, 50)), "us"),
            "decode_us_p99": (float(np.percentile(lat_us, 99)), "us"),
            "sim_trials_per_s": (med(per_round["sim"]), "1/s"),
        }
    wall = {"setup_s": med(p["setup_s"] / p["scale"] for p in probes),
            "decode_words_per_s": med(per_round["wall_rate"]),
            "sim_trials_per_s": med(per_round["wall_sim"])}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "rounds": rnd, "wall": wall}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "srcodes", "__init__.py")):
        print(f"error: no srcodes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds, wall = result.pop("rounds"), result.pop("wall")
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  unscaled wall-clock figures: " +
          ", ".join(f"{name} = {value:.6g}" for name, value in wall.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
