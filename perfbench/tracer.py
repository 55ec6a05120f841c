"""Span tracer that wraps the program's public functions from outside.

Entering a Tracer replaces every public function of the eight ariswpc
modules (their ``__all__``) with a recording wrapper, in every ariswpc
namespace that holds it: for example ``ergodic_terms`` in closedform and
optimize, ``sample_batch`` in channel, montecarlo and closedform. Calls
inside a module go through its globals, so they are caught as well.
Leaving the ``with`` block restores the originals.

Each span stores its name, start, end (perf_counter_ns), parent span and
job id in flat arrays kept in memory; save() writes them out at the end.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("config", "ris", "channel", "closedform", "power", "optimize", "montecarlo", "cli")
OPTIMIZERS = (
    "optimize_alpha_ergodic",
    "optimize_alpha_ergodic_constrained",
    "optimize_alpha_effective",
    "optimize_alpha_effective_constrained",
)

# Per-layer metrics, in the order they are reported: (name, unit).
LAYER_METRICS = (
    ("channel.sample_batch.calls", "count"),
    ("channel.self_ms", "ms"),
    ("channel.samples_drawn", "count"),
    ("channel.chunks", "count"),
    ("channel.bytes_drawn_computed", "B"),
    ("montecarlo.self_ms", "ms"),
    ("montecarlo.self_ns_per_sample", "ns"),
    ("montecarlo.draws_per_estimate", "ratio"),
    ("montecarlo.speedup_workers2", "x"),
    ("closedform.outage_probability.calls", "count"),
    ("closedform.outage_probability.self_ms", "ms"),
    ("closedform.ergodic_terms.calls", "count"),
    ("closedform.gamma_fit.calls", "count"),
    ("closedform.ergodic_rate.calls", "count"),
    ("closedform.effective_rate.calls", "count"),
    ("closedform.self_ms", "ms"),
    *((f"optimize.{name}.calls", "count") for name in OPTIMIZERS),
    ("optimize.self_ms", "ms"),
    ("optimize.iterations", "count"),
    ("optimize.cf_evals_per_opt", "ratio"),
    ("power.expected_power.calls", "count"),
    ("power.inverse_power.calls", "count"),
    ("power.self_ms", "ms"),
    ("ris.phase_error_stats.calls", "count"),
    ("config.replace_config.calls", "count"),
    ("config.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.counts_repeat", "bool"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # ---- installation ---------------------------------------------------------

    def __enter__(self):
        import ariswpc

        modules = {layer: sys.modules[f"ariswpc.{layer}"] for layer in LAYERS}
        namespaces = [ariswpc, *modules.values()]
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}")
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        self._undo.append((ns, name, fn))
                        setattr(ns, name, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, name, fn in reversed(self._undo):
            setattr(ns, name, fn)
        self._undo.clear()

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        hook = _HOOKS.get(qualname)
        nids, parents, jobs, t0s, t1s, stack = self.nid, self.parent, self.job, self.t0, self.t1, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            t1s.append(0)
            stack.append(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ---- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "nid": np.frombuffer(self.nid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.int64),
            "t1": np.frombuffer(self.t1, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Calls and self time per function and per layer, plus boundary counts."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["t1"] - a["t0"]).astype(float)
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - covered
        calls = np.bincount(a["nid"], minlength=n_names)
        fn_self = np.bincount(a["nid"], weights=self_ns, minlength=n_names)

        layer_of = [name.split(".")[0] for name in self.names]
        layers = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
        functions = {}
        for i, name in enumerate(self.names):
            layers[layer_of[i]]["calls"] += int(calls[i])
            layers[layer_of[i]]["self_ms"] += fn_self[i] / 1e6
            if calls[i]:
                functions[name] = {"calls": int(calls[i]), "self_ms": fn_self[i] / 1e6}
        return {
            "spans": int(dur.size),
            "layers": layers,
            "functions": functions,
            "counts": dict(self.counts),
            "cf_entries_in_optimizers": self._cf_entries_in_optimizers(a, layer_of),
        }

    def _cf_entries_in_optimizers(self, a, layer_of) -> int:
        """Calls into the closedform layer (from another layer) made under an optimizer span."""
        is_opt = [layer_of[i] == "optimize" and self.names[i].split(".")[1] in OPTIMIZERS for i in range(len(self.names))]
        is_cf = [layer == "closedform" for layer in layer_of]
        nid, parent = a["nid"].tolist(), a["parent"].tolist()
        under = [False] * len(nid)  # span has an optimizer ancestor
        total = 0
        for span, (name, up) in enumerate(zip(nid, parent)):
            if up >= 0:
                under[span] = under[up] or is_opt[nid[up]]
                if under[span] and is_cf[name] and not is_cf[nid[up]]:
                    total += 1
        return total

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _sample_batch_hook(tracer, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counts["samples_drawn"] += n
    tracer.counts["bytes_drawn_computed"] += n * (2 + 3 * cfg.M) * 8


def _optimizer_hook(tracer, args, kwargs, result):
    # Outermost optimizer calls only: the constrained optimizers call the
    # unconstrained ones and report the same iteration count.
    names, nids = tracer.names, tracer.nid
    if any(names[nids[s]].split(".")[-1] in OPTIMIZERS for s in tracer.stack):
        return
    tracer.counts["optimizer_calls"] += 1
    tracer.counts["optimizer_iterations"] += result.iterations


_HOOKS = {"channel.sample_batch": _sample_batch_hook}
_HOOKS.update({f"optimize.{name}": _optimizer_hook for name in OPTIMIZERS})


def layer_metrics(summary: dict, mc_estimates: int, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of LAYER_METRICS (less the run-level ones) from a summary."""
    fns, layers, counts = summary["functions"], summary["layers"], summary["counts"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    samples = counts.get("samples_drawn", 0)
    mc_self_ms = layers["montecarlo"]["self_ms"]
    opt_calls = counts.get("optimizer_calls", 0)
    out = {
        "channel.sample_batch.calls": calls("channel.sample_batch"),
        "channel.self_ms": layers["channel"]["self_ms"],
        "channel.samples_drawn": samples,
        "channel.chunks": calls("channel.chunk_rng"),
        "channel.bytes_drawn_computed": counts.get("bytes_drawn_computed", 0),
        "montecarlo.self_ms": mc_self_ms,
        "montecarlo.self_ns_per_sample": mc_self_ms * 1e6 / samples if samples else 0.0,
        "montecarlo.draws_per_estimate": samples / mc_estimates if mc_estimates else 0.0,
        "closedform.outage_probability.calls": calls("closedform.outage_probability"),
        "closedform.outage_probability.self_ms": fns.get("closedform.outage_probability", {}).get("self_ms", 0.0),
        "closedform.ergodic_terms.calls": calls("closedform.ergodic_terms"),
        "closedform.gamma_fit.calls": calls("closedform.gamma_fit"),
        "closedform.ergodic_rate.calls": calls("closedform.ergodic_rate"),
        "closedform.effective_rate.calls": calls("closedform.effective_rate"),
        "closedform.self_ms": layers["closedform"]["self_ms"],
        **{f"optimize.{name}.calls": calls(f"optimize.{name}") for name in OPTIMIZERS},
        "optimize.self_ms": layers["optimize"]["self_ms"],
        "optimize.iterations": counts.get("optimizer_iterations", 0),
        "optimize.cf_evals_per_opt": summary["cf_entries_in_optimizers"] / opt_calls if opt_calls else 0.0,
        "power.expected_power.calls": calls("power.expected_power"),
        "power.inverse_power.calls": calls("power.inverse_power"),
        "power.self_ms": layers["power"]["self_ms"],
        "ris.phase_error_stats.calls": calls("ris.phase_error_stats"),
        "config.replace_config.calls": calls("config.replace_config"),
        "config.self_ms": layers["config"]["self_ms"],
        "cli.self_ms": layers["cli"]["self_ms"],
        "cli.output_bytes": output_bytes,
    }
    return out
