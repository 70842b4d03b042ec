"""Independent reference values for every output the benchmark checks.

Each check recomputes the expected data from the physics in numpy and the
standard library, without calling mesonosc, and raises CheckError on a
mismatch.  Deterministic outputs are compared at a relative 1e-8, far
below any physical effect and far above float round-off or the 1e-10
quadrature tolerance.  Stochastic outputs get bands (5 sigma for the
oracle, a full interval width past the 90% CI for the fit) that a correct
change of random-number scheme cannot miss by chance.
"""

from __future__ import annotations

import json
import math

import numpy as np

HBAR_MEV_S = 6.582119569e-22   # CODATA 2018
C_CM_S = 2.99792458e10
RTOL = 1e-8
ATOL = 1e-11
MC_SIGMAS = 5.0

_erf = np.vectorize(math.erf, otypes=[float])


class CheckError(Exception):
    pass


def _close(name: str, got, want, rtol: float = RTOL, atol: float = ATOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"{name}[{i}]: got {got.flat[i]!r}, "
                         f"want {want.flat[i]!r}")


def _csv(text: str, header: str, rows: int) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"bad header {lines[:1]}")
    body = [ln.split(",") for ln in lines[1:]]
    if len(body) != rows:
        raise CheckError(f"{len(body)} rows, expected {rows}")
    return body


def _numbers(body: list[list[str]], start: int = 0) -> np.ndarray:
    try:
        return np.array([[float(x) for x in row[start:]] for row in body])
    except ValueError as exc:
        raise CheckError(f"non-numeric cell: {exc}") from None


def growth(kernel: str, tau, t: np.ndarray) -> np.ndarray:
    """D(t) = int_0^t f(s)(t-s) ds for a unit-integral kernel."""
    t = np.asarray(t, dtype=float)
    if kernel == "white":
        return 0.5 * t
    if kernel == "exp":
        return 0.5 * (t + tau * np.expm1(-t / tau))
    if kernel == "gauss":
        return (0.5 * t * _erf(t / (math.sqrt(2.0) * tau))
                + tau / math.sqrt(2.0 * math.pi)
                * np.expm1(-t * t / (2.0 * tau * tau)))
    raise CheckError(f"no reference for kernel {kernel}")


def _spatial_zero(r_c: float) -> float:
    return (4.0 * math.pi) ** -1.5 / r_c**3


def _exponent(p: dict, sp: dict, t: np.ndarray) -> np.ndarray:
    """Interference damping exponent L(t) of the call's model."""
    if p["model"] == "none":
        return np.zeros_like(t)
    if p["model"] == "lindblad":
        return p["lambda"] * t
    preset = p["presets"][p["preset"]]
    dm = sp["delta_m"]
    if "momentum" in p:
        # splitting of the effective mass m^2 c^4 / E, to first order in
        # the splitting: dm m (m^2 + 2 p^2) / (m^2 + p^2)^(3/2)
        m, q = sp["m_light"], p["momentum"]
        dm *= m * (m * m + 2.0 * q * q) / (m * m + q * q) ** 1.5
    coeff = (preset["gamma"] * (dm / preset["m0"]) ** 2
             * _spatial_zero(preset["r_c"]))
    return coeff * growth(p["kernel"], p["tau"], t)


def _rates(sp: dict):
    return 1.0 / sp["tau_light"], 1.0 / sp["tau_heavy"], sp["delta_m"] / HBAR_MEV_S


def check_single(text: str, p: dict) -> None:
    body = _csv(text, "t_s,p_survive,p_flip,p_survive_anti,p_flip_anti,"
                      "sum_check", p["n"])
    cols = _numbers(body)
    sp = p["species_table"][p["species"]]
    t = np.linspace(0.0, p["tmax"], p["n"])
    rl, rh, omega = _rates(sp)
    decay = np.exp(-rl * t) + np.exp(-rh * t)
    inter = 2.0 * np.cos(omega * t) * np.exp(-0.5 * (rl + rh) * t
                                             - _exponent(p, sp, t))
    survive = 0.25 * (decay + inter)
    flip = 0.25 * (decay - inter)
    _close("t", cols[:, 0], t, rtol=1e-11, atol=0.0)
    _close("p_survive", cols[:, 1], survive)
    _close("p_flip", cols[:, 2], flip)
    _close("p_survive_anti", cols[:, 3], survive)
    _close("p_flip_anti", cols[:, 4], flip)
    _close("sum_check", cols[:, 5], 0.5 * decay)


def check_joint(text: str, p: dict) -> None:
    n = p["n"]
    body = _csv(text, "t_left_s,t_right_s,probability", n * n)
    cols = _numbers(body)
    sp = p["species_table"][p["species"]]
    grid = np.linspace(0.0, p["tmax"], n)
    tl, tr = np.meshgrid(grid, grid, indexing="ij")
    tl, tr = tl.ravel(), tr.ravel()
    rl, rh, omega = _rates(sp)
    sign = -1.0 if p["proj"][0] == p["proj"][1] else 1.0
    damp = _exponent(p, sp, tl) + _exponent(p, sp, tr)
    prob = 0.125 * (
        np.exp(-rl * tl - rh * tr) + np.exp(-rh * tl - rl * tr)
        + sign * 2.0 * np.cos(omega * (tr - tl))
        * np.exp(-0.5 * (rl + rh) * (tl + tr) - damp))
    _close("t_left", cols[:, 0], tl, rtol=1e-11, atol=0.0)
    _close("t_right", cols[:, 1], tr, rtol=1e-11, atol=0.0)
    _close("probability", cols[:, 2], np.maximum(prob, 0.0))
    if p["model"] == "none" and sign < 0:
        diag = cols[:, 2][tl == tr]
        if np.any(np.abs(diag) > 1e-14):
            raise CheckError(f"EPR zero violated: {diag.max()!r}")


def check_rates(text: str, p: dict) -> None:
    order = p["species_order"]
    body = _csv(text, "species,lambda_csl_per_s,lambda_over_width", len(order))
    if [row[0] for row in body] != order:
        raise CheckError(f"species column {[row[0] for row in body]}")
    preset = p["presets"][p["preset"]]
    lam = np.array([
        preset["gamma"] * (p["species_table"][s]["delta_m"] / preset["m0"]) ** 2
        * _spatial_zero(preset["r_c"]) / 2.0 for s in order])
    ratio = lam * np.array([p["species_table"][s]["tau_light"] for s in order])
    cols = _numbers(body, start=1)
    _close("lambda_csl_per_s", cols[:, 0], lam, atol=0.0)
    _close("lambda_over_width", cols[:, 1], ratio, atol=0.0)


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"bad JSON: {exc}") from None


def check_diag(text: str, p: dict) -> None:
    doc = _json(text)
    sp = p["species_table"][p["species"]]
    hbar_rc = HBAR_MEV_S * C_CM_S / p["r_c"] * 1e6
    m_heavy = sp["m_light"] + sp["delta_m"]
    coeff = (p["t"] / (2.0 * HBAR_MEV_S) * sp["delta_m"]
             / (sp["m_light"] * m_heavy) * 1e-12)
    try:
        got = [doc["momentum_spread"]["hbar_over_rc_ev_per_c"],
               doc["momentum_spread"]["h_over_rc_ev_per_c"],
               doc["phase_magnitude"]["coefficient_per_ev2"]]
    except (KeyError, TypeError) as exc:
        raise CheckError(f"missing key {exc}") from None
    _close("diag", got, [hbar_rc, 2.0 * math.pi * hbar_rc, coeff], atol=0.0)


def check_overlap(text: str, p: dict) -> None:
    body = _csv(text, "t_s,separation_cm,suppression_ratio", p["n"])
    cols = _numbers(body)
    t = np.linspace(0.0, p["tmax"], p["n"])
    d = 2.0 * p["speed"] * t
    ratio = np.exp(-d * d / (4.0 * (p["r_c"] ** 2 + p["sigma"] ** 2)))
    _close("t", cols[:, 0], t, rtol=1e-11, atol=0.0)
    _close("separation_cm", cols[:, 1], d, atol=0.0)
    _close("suppression_ratio", cols[:, 2], ratio, atol=1e-300)


def check_mc(text: str, p: dict) -> None:
    doc = _json(text)
    kernel = "white" if p["tau"] is None else "exp"
    coupling = math.sqrt(p["gamma_j"]) - math.sqrt(p["gamma_k"])
    pred = math.exp(-coupling**2 * p["f0"]
                    * float(growth(kernel, p["tau"], p["t"])))
    # the phase difference is Gaussian with variance 2 L, so
    # E cos = e^-L and E cos^2 = (1 + e^-4L) / 2
    sigma = math.sqrt(((1.0 + pred**4) / 2.0 - pred**2) / p["n"])
    try:
        mean, err = doc["mean_interference"], doc["std_error"]
        _close("analytic_prediction", doc["analytic_prediction"], pred,
               atol=0.0)
    except KeyError as exc:
        raise CheckError(f"missing key {exc}") from None
    if not abs(mean - pred) <= MC_SIGMAS * sigma:
        raise CheckError(f"mean {mean!r} is {abs(mean - pred) / sigma:.1f} "
                         f"sigma from {pred!r}")
    if not 0.8 * sigma <= err <= 1.25 * sigma:
        raise CheckError(f"std_error {err!r}, expected about {sigma!r}")


_FIT_KEYS = ("ci_high", "ci_low", "converged", "log_likelihood", "n_events",
             "zeta_hat")


def _fit_doc(text: str, n: int) -> dict:
    doc = _json(text)
    if sorted(doc) != sorted(_FIT_KEYS):
        raise CheckError(f"fit keys {sorted(doc)}")
    if doc["n_events"] != n or doc["converged"] is not True:
        raise CheckError(f"n_events {doc['n_events']}, "
                         f"converged {doc['converged']}")
    if not 0.0 <= doc["ci_low"] <= doc["zeta_hat"] <= doc["ci_high"] <= 1.0:
        raise CheckError(f"interval {doc['ci_low']}..{doc['ci_high']} "
                         f"does not bracket {doc['zeta_hat']}")
    if not math.isfinite(doc["log_likelihood"]):
        raise CheckError(f"log_likelihood {doc['log_likelihood']!r}")
    return doc


def check_fit_write(text: str, p: dict) -> dict:
    doc = _fit_doc(text, p["n"])
    width = doc["ci_high"] - doc["ci_low"]
    lo, hi = doc["ci_low"] - width - 0.05, doc["ci_high"] + width + 0.05
    if not lo <= p["zeta_true"] <= hi:
        raise CheckError(f"zeta_true {p['zeta_true']!r} outside "
                         f"[{lo:.4f}, {hi:.4f}]")
    with open(p["events"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "t_left_s,t_right_s,flavor_left,flavor_right":
        raise CheckError("bad event file header")
    if len(lines) != p["n"] + 1:
        raise CheckError(f"event file has {len(lines) - 1} events")
    for ln in lines[1:]:
        tl, tr, fl, fr = ln.split(",")
        if fl not in "PA" or fr not in "PA" or float(tl) < 0 or float(tr) < 0:
            raise CheckError(f"bad event line {ln!r}")
    return doc


def check_fit_read(text: str, p: dict, written: dict) -> dict:
    doc = _fit_doc(text, p["n"])
    for key in ("zeta_hat", "ci_low", "ci_high"):
        if not abs(doc[key] - written[key]) <= 1e-6:
            raise CheckError(f"read-back {key} {doc[key]!r} != "
                             f"{written[key]!r}")
    _close("log_likelihood", doc["log_likelihood"], written["log_likelihood"],
           rtol=1e-6, atol=0.0)
    return doc


CHECKS = {
    "single": check_single,
    "joint": check_joint,
    "rates": check_rates,
    "diag": check_diag,
    "overlap": check_overlap,
    "mc": check_mc,
}
