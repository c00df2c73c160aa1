"""The per-dataset workspace, the posterior at one parameter and the kernels over them.

`_Workspace` holds a dataset's arrays behind every risk-set sum, `Posterior` the atoms of
one E-step, and the functions below compute from them the E-step, the observed log
likelihood, the risk-set sums W, C, D and the score along the canonical probes.  The
fitter (`fit`) and the variance operator (`variance`) both read them here.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property

import numpy as np

from .data import Dataset, SieveHazard, validate_dataset
from .exceptions import InsufficientDataError, ValidationError
from .posterior import batch_posterior, exp_clipped, gauss_logpdf
from .transition import TransitionParams, TransitionStats


class _Workspace:
    """Per-dataset arrays behind every risk-set sum, in O(n J + K) memory.

    The covariate path is a step function on the grid, so risk-set sums
    collapse onto the J grid intervals (t_j, t_{j+1}] (the last one ends at
    tau).  Subject i is at risk at every event of an interval j < a_x(i), an
    observed entry of subject `t_sub` with the value `t_next` = z_{j+1}; in its
    terminal interval a_x(i) only at events <= x_i, with the value z_extra when
    the dataset stores it (full-information form) and the latent value otherwise.

    The observed entries are stored interval-major, `t_count` of them per interval,
    so each interval is one contiguous segment and each subject's entries come in
    increasing j.  Interval j holds the subjects with a_x > j, in order of decreasing
    a_x; these counts never rise with j, so the intervals without entries are a suffix.

    A dataset has at most one live workspace (`of`), which callers may share across
    threads.  Past the build it only caches: `terminal_at_risk` and `zmax_obs`, computed
    on first use, and the observed interval sums of the last beta asked, kept as one
    (beta, sums) pair so that no thread pairs one beta with another beta's sums.
    """

    @classmethod
    def of(cls, dataset: Dataset) -> "_Workspace":
        """The dataset's live workspace, held by a posterior, a fit or a caller, or else a
        new one.  The dataset points to it by a weak reference, so it lives no longer than
        its holders and forms no cycle with its `dataset`; a copy of the dataset gets its own."""
        ref = getattr(dataset, "_workspace", None)
        ws = ref() if ref is not None else None
        if ws is None:
            ws = cls(dataset)
            object.__setattr__(dataset, "_workspace", weakref.ref(ws))
        return ws

    def __init__(self, dataset: Dataset):
        self.dataset = validate_dataset(dataset)
        n = self.n = dataset.n
        self.ids = dataset.ids
        self.x, self.delta, self.a_x, self.has_extra = dataset.x, dataset.delta, dataset.a_x, dataset.has_extra
        ev = np.flatnonzero(self.delta)
        self.ev_row = ev[np.argsort(self.x[ev], kind="stable")]
        self.xe = self.x[self.ev_row]
        self.K = len(self.xe)
        if self.K == 0:
            raise InsufficientDataError("no uncensored subjects")
        self.J = J = len(dataset.grid)
        self.a_e = self.a_x[self.ev_row]
        # subject i's measurement z_j is values[first[i] + j]; its observed entries are
        # also its observed transitions z_j -> z_{j+1}, j < a_x (the atoms carry the
        # terminal step)
        first, values = dataset.offsets[:-1], dataset.values
        self.extra_rows = np.flatnonzero(self.has_extra)
        self.z0, self.z_pred = values[first], values[first + self.a_x]
        self.z_extra = np.zeros(n)  # 0 where not stored
        self.z_extra[self.extra_rows] = values[first[self.extra_rows] + self.a_x[self.extra_rows] + 1]
        self.t_count = count = n - np.cumsum(np.bincount(self.a_x, minlength=J))
        start = np.cumsum(count) - count
        by_a_x = np.argsort(-self.a_x, kind="stable")  # interval j holds the first count[j]
        self.t_sub = by_a_x[np.arange(count.sum()) - np.repeat(start, count)]
        at = first[self.t_sub] + np.repeat(np.arange(J), count)
        self.t_prev, self.t_next = values[at], values[at + 1]
        self._segments = start[count > 0]
        self.obs = TransitionStats.of(self.z0, self.t_prev, self.t_next)
        self._obs = (None, None)
        # Running sums within each grid interval, over a (J, 1 + most events in an
        # interval) pad: the event of rank r in its interval sits in column r + 1, a
        # subject in the column of the number of its interval's events at or before its
        # time (so an event comes before a subject leaving at its time, who is at risk
        # there).  A late small sum is never a difference of large totals.
        e_count = np.bincount(self.a_e, minlength=J)
        e_first = np.cumsum(e_count) - e_count
        self._pad = (J, 1 + int(e_count.max()))
        row = np.concatenate([self.a_e, self.a_x])
        col = np.concatenate([np.arange(self.K) - e_first[self.a_e] + 1,
                              np.searchsorted(self.xe, self.x, side="right") - e_first[self.a_x]])
        # each item's cell (events, then subjects) as a flat index into the pad, and with mirrored columns
        self._cell = (row * self._pad[1] + col, (row + 1) * self._pad[1] - 1 - col)

    def transition_stats(self, est: "Posterior") -> TransitionStats:
        """The observed histories' statistics merged with the terminal transitions
        z_pred -> latent value, integrated over `est`'s atoms (kept on `est`)."""
        if est._stats is None:
            est._stats = self.obs.merge(TransitionStats.of((), self.z_pred, est.E1, est.V))
        return est._stats

    def interval_sums(self, v: np.ndarray, beta: float) -> np.ndarray:
        """Per grid interval, the sums of v^m e^{beta v}, m = 0, 1, 2 (J x 3), of values v
        on the observed entries, each a reduction over the interval's segment (0 for an
        interval without entries)."""
        f = exp_clipped(np.multiply(v, beta))  # times v in place: v e^{beta v}, then v^2 e^{beta v}
        return np.stack([self._segment_sums(np.multiply(f, v, out=f) if m else f) for m in range(3)], axis=1)

    def _segment_sums(self, f: np.ndarray) -> np.ndarray:
        """Per grid interval, the sum of f over its observed entries."""
        out = np.zeros(self.J)
        with np.errstate(over="ignore"):  # an overflowing sum is inf, without a warning
            out[: self._segments.size] = np.add.reduceat(f, self._segments)
        return out

    def obs_mats(self, beta: float) -> np.ndarray:
        """`interval_sums` of the observed values, kept for the last beta (an update
        asks for one beta from the E-step, the certificate and the operator)."""
        kept = self._obs  # one read: another thread may replace the pair meanwhile
        if beta != kept[0]:
            kept = (beta, self.interval_sums(self.t_next, beta))
            kept[1].flags.writeable = False  # shared by every caller at this beta
            self._obs = kept
        return kept[1]

    @cached_property
    def terminal_at_risk(self) -> np.ndarray:
        """Whether each subject's terminal window holds an event time, at which its
        terminal value (latent, or stored) is at risk."""
        return self.masses(np.ones(self.K))[1] > 0

    @cached_property
    def zmax_obs(self) -> float:
        """The largest |z| of the observed values at risk at some event: the entries of
        the intervals holding events, and the stored terminal values at risk."""
        held = np.repeat(np.bincount(self.a_e, minlength=self.J) > 0, self.t_count)
        return float(np.max(np.abs(np.concatenate([self.t_next[held], self.z_extra * self.terminal_at_risk]))))

    def masses(self, dL: np.ndarray):
        """Hazard mass of each grid interval (J) and of each subject's terminal window (n):
        the running sum over its interval's events up to the subject."""
        pad = np.zeros(self._pad[0] * self._pad[1])
        pad[self._cell[0][: self.K]] = dL
        rows = pad.reshape(self._pad)
        np.cumsum(rows, axis=1, out=rows)
        return (np.bincount(self.a_e, weights=dL, minlength=self.J),
                pad[self._cell[0][self.K:]])

    def mass_split(self, beta: float, dL: np.ndarray):
        """The hazard mass times e^{beta z} where z is observed, summed over the subjects
        (sum_j H_j S_j0, plus e^{beta z_extra} P where stored), and each subject's latent mass."""
        H, P = self.masses(dL)
        x, m = self.extra_rows, self._segments.size  # entries lie in j < m: no 0 * inf past them
        with np.errstate(over="ignore"):  # an overflowing mass is inf; `_loglik` names its subject
            a_obs = float(H[:m] @ self.obs_mats(beta)[:m, 0]) + float(exp_clipped(beta * self.z_extra[x]) @ P[x])
        return a_obs, np.where(self.has_extra, 0.0, P)

    def cols(self, S, g) -> np.ndarray:
        """Per event time, the sum over its risk set of each subject's value there: S (J,
        optional trailing axes; None for zero) sums per interval the values of the
        subjects at risk past it, g (n, same trailing axes) holds their terminal values.

        The subjects' values are summed per cell of the pad, then run forward over its
        mirrored columns: each event gets the sum over its interval's subjects from it on."""
        cell, size = self._cell[1], self._pad[0] * self._pad[1]
        w = g.reshape(self.n, -1).T
        pad = np.empty((len(w), size))
        for p, v in zip(pad, w):
            p[:] = np.bincount(cell[self.K:], v, size)
        rows = pad.reshape(-1, *self._pad)
        np.cumsum(rows, axis=2, out=rows)
        out = pad[:, cell[: self.K]].T.reshape((self.K,) + g.shape[1:])
        if S is not None:
            out += np.take(S, self.a_e, axis=0)
        return out


class Posterior:
    """The posterior of every subject's terminal value at one parameter, on the workspace
    `ws` it was computed on (the dataset's live one, `_Workspace.of`), which the calls
    that take it read.

    `nodes` and `weights` (n x Q) are the atoms: mode-recentred Gauss-Hermite nodes, or a
    stored terminal value repeated with weight one on the first.  `log_norm` is the log of
    each subject's integral factor, `a_lat` its hazard mass on latent values, `a_obs` the total
    over subjects of hazard mass times e^{beta z} on observed values, `E1` and `V` the posterior
    mean and variance.  Sums over nodes run along the subjects of the transposes.  The
    risk-set sums are kept read-only for the last beta asked, one (beta, sums) pair (`_risk_cols`).
    """

    __slots__ = ("ws", "nodes", "weights", "log_norm", "a_obs", "a_lat", "E1", "V", "mode", "sd",
                 "_risk", "_stats")

    def __init__(self, ws, nodes, weights, log_norm, a_obs, a_lat, mode=None, sd=None):
        self.ws = ws
        self.nodes = nodes
        self.weights = weights
        self.log_norm = log_norm
        self.a_obs = a_obs
        self.a_lat = a_lat
        self.mode = mode
        self.sd = sd
        wz = weights.T * nodes.T
        self.E1 = np.sum(wz, axis=0)
        # posterior variance E[Z^2] - E[Z]^2: the cancellation stays within one subject's term
        self.V = np.sum(np.multiply(wz, nodes.T, out=wz), axis=0) - self.E1**2
        self._risk, self._stats = (None, None), None

    def exp_moments(self, beta: float) -> np.ndarray:
        """E[Z^m e^{bZ}], m = 0, 1, 2 (n x 3) at beta."""
        z = self.nodes.T
        t = exp_clipped(np.multiply(z, beta))
        t *= self.weights.T
        m = np.empty((z.shape[1], 3))
        for j in range(3):
            if j:
                t *= z
            m[:, j] = np.sum(t, axis=0)
        return m


def _estep(ws: _Workspace, alpha: TransitionParams, beta: float, dL: np.ndarray, Q: int,
           modes=None) -> Posterior:
    """The E-step at (alpha, beta, dL) with a Q-node rule; `modes`, the (mode, sd) of a
    posterior at the same parameter, skips the mode search."""
    a_obs, a_lat = ws.mass_split(beta, dL)
    mean = alpha.a + alpha.b * ws.z_pred
    nodes, weights, mode, sd, log_norm = batch_posterior(ws.delta, a_lat, mean, alpha.ssq, beta, Q,
                                                         ids=ws.ids, modes=modes)
    full = ws.extra_rows
    if full.size:
        # a stored terminal value is one atom, written over its quadrature row
        zf = ws.z_extra[full]
        nodes[full], weights[full], weights[full, 0], mode[full], sd[full] = zf[:, None], 0.0, 1.0, zf, 0.0
        log_norm[full] = ws.delta[full] * beta * zf + gauss_logpdf(zf, mean[full], alpha.ssq)
    return Posterior(ws, nodes, weights, log_norm, a_obs, a_lat, mode, sd)


def _loglik(ws: _Workspace, alpha: TransitionParams, beta: float, dL: np.ndarray, est: Posterior) -> float:
    out = float(np.sum(np.log(dL)))
    out += float(np.sum(est.log_norm)) - est.a_obs
    out += ws.obs.objective(alpha)
    if not math.isfinite(out):
        # the observed mass per subject, derived only here, to name the first subject at fault
        H, P = ws.masses(dL)
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.where(ws.has_extra, exp_clipped(beta * ws.z_extra), 0.0)
            a_obs = np.where(ws.has_extra, g * P, 0.0)
            a_obs += np.bincount(ws.t_sub, np.repeat(H, ws.t_count) * exp_clipped(beta * ws.t_next), ws.n)
            bad = np.flatnonzero(~np.isfinite(est.log_norm - a_obs))
            if not bad.size and not math.isfinite(est.a_obs):
                # every subject's mass is finite but not their total: name the event time
                # whose jump times its risk set's observed e^{beta z} is largest
                k = int(np.argmax(dL * ws.cols(ws.obs_mats(beta)[:, 0], g)))
                raise ValidationError(f"non-finite log likelihood (observed hazard mass overflows at "
                                      f"event time {float(ws.xe[k])!r})")
        sid = ws.ids[bad[0]] if bad.size else "?"
        raise ValidationError(f"non-finite log likelihood (subject {sid!r})")
    return out


def _score_beta(ws, est, R, dL) -> float:
    """(1/n) sum_i E_i[delta_i Z - int Z e^{beta Z} dL], the beta score at a fixed hazard,
    from the risk-set sums R at beta (`_risk_cols`)."""
    return (float(np.sum(ws.delta * est.E1)) - float(dL @ R[:, 1])) / ws.n



def _score(ws, est, alpha: TransitionParams, beta: float, dL: np.ndarray) -> np.ndarray:
    """The score of the observed log likelihood / n at (alpha, beta, dL), `est` being the
    E-step there, along the canonical probes (6 + K): the five alpha directions, beta, and
    each jump dL_k scaled by 1 + t, along which it is the fixed-point residual
    1/n - dL_k W_n(x_k).  Divided by dL in its hazard part it is the score representer g of
    the variance operator's inner product."""
    R = _risk_cols(ws, est, beta)
    out = np.empty(6 + ws.K)
    out[:5] = ws.transition_stats(est).score(alpha) / ws.n
    out[5] = _score_beta(ws, est, R, dL)
    out[6:] = 1.0 / ws.n - dL * (R[:, 0] / ws.n)
    return out

def _risk_cols(ws, est, beta):
    """Per event time, the risk-set sums W, C, D of E[Z^m e^{beta Z}], m = 0, 1, 2 (K x 3),
    kept on `est` for the last beta (the certificate's sums serve the next operator)."""
    kept = est._risk  # one read: another thread may replace the pair meanwhile
    if beta != kept[0]:
        kept = (beta, ws.cols(ws.obs_mats(beta), est.exp_moments(beta)))
        kept[1].flags.writeable = False
        est._risk = kept
    return kept[1]


def _hazard_jumps(times: np.ndarray, hazard: SieveHazard) -> np.ndarray:
    ht = np.asarray(hazard.times)
    # agreement to 1e-12 of the latest event time, so that the unit of time does not matter
    if ht.size != times.size or not np.all(np.abs(ht - times) <= 1e-12 * np.max(np.abs(times), initial=0.0)):
        raise ValidationError("hazard must jump exactly at the dataset event times")
    return np.asarray(hazard.jumps, dtype=float)


def _workspace_of(dataset: Dataset, atoms: Posterior) -> _Workspace:
    """The workspace `atoms` was computed on, refused unless it belongs to `dataset`."""
    if not isinstance(atoms, Posterior):
        raise ValidationError("atoms must be a Posterior (estep_atoms or FitResult.posterior)")
    if atoms.ws.dataset is not dataset and atoms.ws.dataset != dataset:
        raise ValidationError("the posterior was computed on a different dataset")
    return atoms.ws
