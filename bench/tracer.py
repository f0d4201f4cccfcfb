"""Spans around the calls into weaksep's layers, recorded from outside the package.

`Tracer.install` rebinds the public functions listed in TARGETS in every
weaksep module that holds a binding to them (for example both
`walk.derive_generator` and `experiments.run_ensemble`), so calls between
modules and calls inside a module both pass through a span. Nothing under
src/ changes. A span is (name, start, end, parent); spans stay in memory
and are written once, by `write_spans`, when the run ends.

Generators returned by `derive_generator` are wrapped so that each
`.random` call is timed and its uniforms counted. Draw time is charged to
the span open at the time of the draw, as if it were a child span, so self
times exclude it.
"""

import inspect
from collections import Counter
from time import perf_counter

# (module, function) -> span name. The layer is the part before the dot.
TARGETS = {
    ("stats", "derive_generator"): "stats.derive_generator",
    ("stats", "fit_lognormal"): "stats.fit_lognormal",
    ("stats", "quadratic_scaling_fit"): "stats.quadratic_scaling_fit",
    ("stats", "empirical_cdf"): "stats.empirical_cdf",
    ("walk", "run_ensemble"): "walk.run_ensemble",
    ("walk", "run_walk"): "walk.run_walk",
    ("walk", "bias_update"): "walk.bias_update",
    ("discriminate", "hypothesis_success_curves"): "discriminate.hypothesis_success_curves",
    ("discriminate", "average_cdf"): "discriminate.average_cdf",
    ("discriminate", "collapse_success_curve"): "discriminate.collapse_success_curve",
    ("tsvf", "analytic_moments"): "tsvf.analytic_moments",
    ("tsvf", "quadrature_moments"): "tsvf.quadrature_moments",
    ("tsvf", "optimal_eta"): "tsvf.optimal_eta",
    ("tsvf", "separation_report"): "tsvf.separation_report",
    ("tsvf", "quad"): "tsvf.quad",  # tsvf's binding of scipy.integrate.quad
    ("experiments", "run"): "experiments.run",
}
MODULES = ("qubit", "stats", "walk", "discriminate", "tsvf", "experiments")

FIT_SPANS = ("stats.fit_lognormal", "stats.quadratic_scaling_fit", "stats.empirical_cdf")
DISCRIMINATE_SPANS = ("discriminate.hypothesis_success_curves", "discriminate.average_cdf",
                      "discriminate.collapse_success_curve")

# Per-layer metrics that are counts; they must repeat exactly for one seed.
COUNT_METRICS = (
    "stats.derive_calls", "stats.uniforms_drawn", "stats.uniforms_used",
    "walk.lane_steps", "walk.scalar_steps", "walk.bias_update_calls",
    "discriminate.lane_steps", "tsvf.quadrature_calls", "tsvf.integrand_evals",
    "experiments.csv_rows", "experiments.csv_bytes",
)


class _TracedGenerator:
    """Stands in for a numpy Generator; times `.random` and passes the rest through."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        t0 = perf_counter()
        out = self._gen.random(*args, **kwargs)
        self._tracer.record_draw(out, perf_counter() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.draw_s = []  # draw time charged to each span
        self._stack = []
        self.counts = Counter()
        self.draw_time = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.draw_s.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = perf_counter()
        self._stack.pop()

    def record_draw(self, out, seconds):
        scalar = isinstance(out, float)
        self.counts["stats.uniforms_drawn"] += 1 if scalar else out.size
        self.draw_time += seconds
        if self._stack:
            top = self._stack[-1]
            self.draw_s[top] += seconds
            if scalar and self.names[top].startswith("discriminate."):
                self.counts["discriminate.scalar_draws"] += 1

    def span(self, fn, name, after=None):
        """`fn` wrapped in a span; `after(result, args, kwargs)` may replace the result."""

        def wrapped(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                replaced = after(result, args, kwargs)
                if replaced is not None:
                    return replaced
            return result

        return wrapped

    def counter(self, fn, key):
        """`fn` wrapped to count calls only: for integrands called too often to span."""

        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- hooks on results --------------------------------------------------

    def _after_derive(self, gen, _args, _kwargs):
        return _TracedGenerator(gen, self)

    def _after_ensemble(self, ens, _args, _kwargs):
        self.counts["walk.lanes"] += int(ens.steps.size)
        self.counts["walk.lane_steps"] += int(ens.steps.sum())
        self.counts["walk.maxed_lanes"] += int((ens.labels == 2).sum())  # Outcome.MAXED_OUT

    def _after_walk(self, outcome, _args, _kwargs):
        self.counts["walk.scalar_steps"] += int(outcome.steps)

    def _lane_steps_hook(self, fn, steps_of):
        """Hook adding steps_of(bound arguments) to discriminate.lane_steps."""
        sig = inspect.signature(fn)

        def after(_result, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["discriminate.lane_steps"] += steps_of(bound.arguments)

        return after

    def install(self, package):
        """Rebind every TARGETS function in every weaksep module that binds it."""
        disc = package.discriminate
        after = {
            "stats.derive_generator": self._after_derive,
            "walk.run_ensemble": self._after_ensemble,
            "walk.run_walk": self._after_walk,
            # every trial of every theta walks max(m) steps; the m values share them
            "discriminate.hypothesis_success_curves": self._lane_steps_hook(
                disc.hypothesis_success_curves,
                lambda a: a["trials"] * len(a["theta_grid"]) * max(a["m_values"])),
            "discriminate.average_cdf": self._lane_steps_hook(
                disc.average_cdf, lambda a: a["trials"] * a["m"]),
        }
        modules = [getattr(package, m) for m in MODULES]
        replacements = {}
        for (home, attr), name in TARGETS.items():
            original = getattr(getattr(package, home), attr, None)
            if original is not None:
                replacements[id(original)] = self.span(original, name, after.get(name))
        density = getattr(package.tsvf, "needle_density", None)
        if density is not None:
            replacements[id(density)] = self.counter(density, "tsvf.integrand_evals")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    # -- reduction -----------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds, seconds spent
        in spans of this name whose parent is in another layer)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        totals = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            p = self.parents[i]
            entry = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i] - self.draw_s[i]
            if p < 0 or self.names[p].split(".")[0] != name.split(".")[0]:
                entry[3] += dur
        return totals

    def metrics(self, csv_rows, csv_bytes):
        """The per-layer metrics of one traced run (see bench/README.md)."""
        tot = self.span_totals()
        c = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0, 0.0))[0]

        def incl(*names):
            return sum(tot.get(n, (0, 0.0, 0.0, 0.0))[1] for n in names)

        def own(*names):
            return sum(tot.get(n, (0, 0.0, 0.0, 0.0))[2] for n in names)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        lane_steps = c["walk.lane_steps"]
        disc_steps = c["discriminate.lane_steps"]
        used = 2 * (lane_steps + disc_steps + c["walk.scalar_steps"]) + c["discriminate.scalar_draws"]
        drawn = c["stats.uniforms_drawn"]
        derive_s = incl("stats.derive_generator")
        tsvf_entry = sum(v[3] for k, v in tot.items() if k.startswith("tsvf."))
        ensemble_self = own("walk.run_ensemble")
        disc_self = own(*DISCRIMINATE_SPANS)
        exp_self = own("experiments.run")
        return {
            "stats.derive_calls": calls("stats.derive_generator"),
            "stats.derive_s": derive_s,
            "stats.derive_us_per_call": ratio(derive_s, calls("stats.derive_generator"), 1e6),
            "stats.uniforms_drawn": drawn,
            "stats.uniforms_used": used,
            "stats.uniform_use_ratio": ratio(used, drawn),
            "stats.ns_per_uniform": ratio(self.draw_time, drawn, 1e9),
            "stats.fit_s": incl(*FIT_SPANS),
            "walk.lane_steps": lane_steps,
            "walk.ensemble_self_s": ensemble_self,
            "walk.ns_per_lane_step": ratio(ensemble_self, lane_steps, 1e9),
            "walk.maxed_fraction": ratio(c["walk.maxed_lanes"], c["walk.lanes"]),
            "walk.scalar_steps": c["walk.scalar_steps"],
            "walk.run_walk_self_s": own("walk.run_walk"),
            "walk.bias_update_calls": calls("walk.bias_update"),
            "walk.bias_update_s": incl("walk.bias_update"),
            "discriminate.lane_steps": disc_steps,
            "discriminate.self_s": disc_self,
            "discriminate.ns_per_lane_step": ratio(disc_self, disc_steps, 1e9),
            "tsvf.quadrature_calls": calls("tsvf.quad"),
            "tsvf.integrand_evals": c["tsvf.integrand_evals"],
            "tsvf.quadrature_s": incl("tsvf.quad"),
            "tsvf.ms_per_setup": ratio(tsvf_entry, calls("tsvf.quadrature_moments"), 1e3),
            "experiments.csv_rows": csv_rows,
            "experiments.csv_bytes": csv_bytes,
            "experiments.self_s": exp_self,
            "experiments.us_per_row": ratio(exp_self, csv_rows, 1e6),
        }

    def write_spans(self, path):
        """All spans as CSV: index, name, parent index, start and end (s), draw time (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s,draw_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.draw_s[i]!r}\n")
