"""In-memory spans around calls into adlv's public functions.

The tracer replaces a function in every adlv module that binds it (a name
imported with `from .x import y` lives in each importer's namespace), or a
method on its class, with a wrapper that times the call.  Spans are
aggregated per name as they close: call count, inclusive time and self
time, the span's duration minus the time its child spans covered.  Hooks
see each call's arguments and result to count units of work.  `restore`
puts every original back.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import weakref


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.enabled = True
        self._stack = [0.0]  # child-span time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        """A timing wrapper around fn; hook(args, result, seconds) runs
        after each successful call."""
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                st.total_s += dt
                st.calls += 1
            if hook is not None:
                hook(args, out, dt)
            return out

        return wrapper

    def count(self, name, fn):
        """A wrapper that only counts calls, for hot helpers like mat_mul."""
        st = self.stats.setdefault(name, Stat())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, owner, attr, new):
        """Set owner.attr to new, remembering the original for `restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(self, module, attr, name, hook=None, count_only=False):
        """Wrap module.attr in every loaded adlv module that binds it."""
        orig = getattr(module, attr)
        new = self.count(name, orig) if count_only else self.wrap(name, orig, hook)
        for mod in adlv_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.replace(mod, key, new)
        return new

    def patch_method(self, cls, attr, name, hook=None):
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr], hook))

    def restore(self) -> bool:
        """Undo every patch; True when each original is back in place."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        ok = all(vars(owner)[attr] is orig for owner, attr, orig in self._patches)
        self._patches.clear()
        return ok


def adlv_modules():
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == "adlv" or n.startswith("adlv."))
    ]


def _quantile(xs, q):
    """Nearest-rank quantile; 0 for an empty sample."""
    if not xs:
        return 0.0
    return sorted(xs)[max(0, math.ceil(q * len(xs)) - 1)]


def install(tracer: Tracer) -> dict:
    """Wrap the layers the benchmark reports on; returns the per-call
    accumulators the hooks fill, read back by `layer_metrics`."""
    import adlv.admissible as admissible
    import adlv.affine_weyl as affine_weyl
    import adlv.cli as cli
    import adlv.fgab as fgab
    import adlv.frobenius as frobenius
    import adlv.levi as levi
    import adlv.linalg as linalg
    import adlv.newton_bg as newton_bg
    import adlv.picard as picard
    import adlv.root_datum as root_datum
    import adlv.verify as verify

    acc = {
        "bruhat_true": 0,
        "ball_elements": 0,
        "adm_elements": 0,
        "adm_inputs": set(),
        "in_adm_s": [],
        "straight_in": 0,
        "straight_kept": 0,
        "element_action_inputs": set(),
        "cli_by_command": {},
        "cli_s": [],
        "groups": weakref.WeakSet(),
    }

    def on_bruhat(args, out, dt):
        acc["bruhat_true"] += bool(out)

    def on_ball(args, out, dt):
        acc["ball_elements"] += len(out)

    def on_adm(args, out, dt):
        acc["adm_elements"] += len(out)
        acc["adm_inputs"].add((args[0], tuple(args[1])))

    def on_in_adm(args, out, dt):
        acc["in_adm_s"].append(dt)

    def on_straight(args, out, dt):
        if hasattr(args[1], "__len__"):
            acc["straight_in"] += len(args[1])
            acc["straight_kept"] += len(out)

    def on_element_action(args, out, dt):
        x = args[1]
        acc["element_action_inputs"].add((id(x.group), x.key()))

    def on_cli_run(args, out, dt):
        cmd = args[0].command
        acc["cli_by_command"][cmd] = acc["cli_by_command"].get(cmd, 0.0) + dt
        acc["cli_s"].append(dt)

    def on_group_init(args, out, dt):
        acc["groups"].add(args[0])

    W = affine_weyl.AffineWeylGroup
    tracer.patch_method(W, "__init__", "affine_weyl.group_builds", on_group_init)
    tracer.patch_method(W, "bruhat_leq", "affine_weyl.bruhat_leq", on_bruhat)
    tracer.patch_method(W, "covers_below", "affine_weyl.covers_below")
    tracer.patch_method(W, "reduced_word", "affine_weyl.reduced_word")
    tracer.patch_method(W, "ball", "affine_weyl.ball", on_ball)
    tracer.patch_method(W, "coset_ball", "affine_weyl.coset_ball")
    tracer.patch_function(admissible, "adm", "admissible.adm", on_adm)
    tracer.patch_function(admissible, "in_adm", "admissible.in_adm", on_in_adm)
    F = frobenius.FrobeniusDatum
    tracer.patch_method(F, "is_straight", "frobenius.is_straight")
    tracer.patch_method(
        F, "straight_elements_in", "frobenius.straight_elements_in", on_straight
    )
    tracer.patch_method(F, "tag_of", "frobenius.tag_of")
    tracer.patch_method(F, "reduce_to_minimal", "frobenius.reduce_to_minimal")
    tracer.patch_function(newton_bg, "b_g_mu", "newton_bg.b_g_mu")
    for fn in ("pi0_predict", "is_fundamental", "levi_of", "sub_element", "tau_orbits"):
        tracer.patch_function(levi, fn, f"levi.{fn}")
    tracer.patch_function(
        picard, "descent_certificate", "picard.descent_certificate"
    )
    tracer.patch_method(
        picard.PicardLattice, "element_action", "picard.element_action",
        on_element_action,
    )
    tracer.patch_function(linalg, "solve_fraction", "linalg.solve_fraction")
    tracer.patch_function(linalg, "mat_mul", "linalg.mat_mul", count_only=True)
    tracer.patch_method(fgab.FinAbGroup, "project", "fgab.FinAbGroup.project")
    tracer.patch_function(fgab, "smith_normal_form", "fgab.smith_normal_form")
    tracer.patch_method(root_datum.RootDatum, "dominant_rep", "root_datum.dominant_rep")
    # run_verify iterates the ALL_CHECKS tuple, so the tuple is rebuilt
    # from the wrapped checks.
    checks = tuple(
        tracer.patch_function(verify, fn.__name__, "verify." + fn.__name__[len("check_"):])
        for fn in verify.ALL_CHECKS
    )
    tracer.replace(verify, "ALL_CHECKS", checks)
    tracer.patch_function(cli, "run", "cli.run", on_cli_run)
    return acc


CHECK_NAMES = (
    "sl2_pipeline",
    "straight_class_containment",
    "wall_times_tau",
    "min_length_reduction",
    "tag_injectivity",
    "straight_iff_fundamental",
    "fixed_point_generators",
    "picard_suite",
    "levi_embedding_facts",
)
CLI_COMMANDS = ("adm", "straight", "bgmu", "pi0", "pic-cert")


def layer_metrics(tracer: Tracer, acc: dict) -> dict:
    """Flatten the spans and hooks into `<module>.<function>.<stat>`."""
    st = tracer.stats
    out: dict[str, float] = {}

    def calls_self(name):
        out[name + ".calls"] = st[name].calls
        out[name + ".self_s"] = st[name].self_s

    for name in (
        "affine_weyl.bruhat_leq",
        "affine_weyl.covers_below",
        "affine_weyl.reduced_word",
        "affine_weyl.ball",
        "affine_weyl.coset_ball",
        "affine_weyl.group_builds",
        "admissible.adm",
        "admissible.in_adm",
        "frobenius.is_straight",
        "frobenius.tag_of",
        "frobenius.reduce_to_minimal",
        "newton_bg.b_g_mu",
        "levi.pi0_predict",
        "levi.is_fundamental",
        "levi.levi_of",
        "levi.sub_element",
        "levi.tau_orbits",
        "picard.descent_certificate",
        "picard.element_action",
        "linalg.solve_fraction",
        "fgab.FinAbGroup.project",
        "fgab.smith_normal_form",
        "root_datum.dominant_rep",
    ):
        calls_self(name)

    def ratio(a, b):
        return a / b if b else 0.0

    bruhat = st["affine_weyl.bruhat_leq"]
    out["affine_weyl.bruhat_leq.true_ratio"] = ratio(acc["bruhat_true"], bruhat.calls)
    out["affine_weyl.ball.elements"] = acc["ball_elements"]
    groups = list(acc["groups"])
    out["affine_weyl.bruhat_memo_entries"] = sum(len(g._bruhat_cache) for g in groups)
    out["affine_weyl.rw_memo_entries"] = sum(len(g._rw_cache) for g in groups)
    out["admissible.adm.elements"] = acc["adm_elements"]
    out["admissible.adm.distinct_inputs"] = len(acc["adm_inputs"])
    out["admissible.in_adm.p50_us"] = (
        statistics.median(acc["in_adm_s"]) * 1e6 if acc["in_adm_s"] else 0.0
    )
    out["frobenius.straight_elements_in.kept_ratio"] = ratio(
        acc["straight_kept"], acc["straight_in"]
    )
    cert = st["picard.descent_certificate"]
    out["picard.descent_certificate.per_call_us"] = ratio(cert.total_s, cert.calls) * 1e6
    action = st["picard.element_action"]
    out["picard.element_action.distinct_ratio"] = ratio(
        len(acc["element_action_inputs"]), action.calls
    )
    out["linalg.mat_mul.calls"] = st["linalg.mat_mul"].calls
    for check in CHECK_NAMES:
        out[f"verify.{check}.s"] = st[f"verify.{check}"].total_s
    for cmd in CLI_COMMANDS:
        out[f"cli.run.{cmd}.total_s"] = acc["cli_by_command"].get(cmd, 0.0)
    out["cli.run.p90_ms"] = _quantile(acc["cli_s"], 0.9) * 1e3
    return out
