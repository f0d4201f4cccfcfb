"""QUADPACK's QAGS on finite intervals, many integrals in lockstep.

A port of dqagse (Piessens et al. 1983, *QUADPACK*), what `scipy.integrate.quad`
runs on a finite interval: adaptive bisection, with extrapolation by Wynn's
epsilon algorithm, and the routines it calls: dqk21 (the 21-point Gauss-Kronrod
rule), dqpsrt (the error estimates in descending order) and dqelg (the epsilon
table). Every floating-point operation happens in QUADPACK's order, so for the
same integrand values the result, error estimate and evaluation count equal
scipy's bit for bit. Only the calling convention differs: `qags_many` takes the
bisections of up to WINDOW integrals in lockstep, with one call of the
integrand per round on a row of 21 nodes for each interval any of them waits
on, and dqk21 on all the rows at once. Its Kronrod sums add left to right along
each row (`np.add.accumulate`, in dqk21's order; a numpy reduction would round
differently), so no number depends on WINDOW or on which integrals share a
round. Lists are 1-based like QUADPACK's arrays (entry 0 is unused) and grow
with the intervals.
"""

from __future__ import annotations

import math
import sys
from itertools import islice

import numpy as np

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)
# integrals in flight in `qags_many`: rounds of up to 2 * WINDOW intervals, and
# QUADPACK's per-integral lists held for WINDOW integrals at a time
WINDOW = 64

# the doubles nearest QUADPACK's constants: dqk21's abscissae xgk(1..10) (xgk(11), the
# centre, is 0), its weights wgk(1..11), and the Gauss weights wg(1..5) of xgk(2), xgk(4), ...
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                 0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                 0.2943928627014602, 0.14887433898163122])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
# the 0-based j of xgk(j + 1) in the order dqk21 sums them: the Gauss nodes first
_KRONROD_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]


def _sum(first, terms):
    """first + terms[:, 0] + terms[:, 1] + ..., added left to right along each row."""
    return np.add.accumulate(np.concatenate((first, terms), axis=1), axis=1)[:, -1]


def dqk21(f, intervals, owners):
    """dqk21 on each (a, b) row of the array `intervals`: a list of (result, abserr,
    resabs, resasc). f is called once, as f(x, owners): row i of x holds the nodes of
    interval i (its centre, then centre - hlgth * xgk(j) for j = 1..10, then
    centre + hlgth * xgk(j)), and f returns their values in the same shape."""
    hlgth = 0.5 * (intervals[:, 1] - intervals[:, 0])
    c = 0.5 * (intervals[:, :1] + intervals[:, 1:])
    absc = hlgth[:, None] * _XGK
    values = f(np.concatenate((c, c - absc, c + absc), axis=1), owners)
    fc, fv1, fv2 = values[:, :1], values[:, 1:11], values[:, 11:]
    centre = _WGK[10] * fc
    wgk = _WGK[_KRONROD_ORDER]
    fsum = (fv1 + fv2)[:, _KRONROD_ORDER]
    resg = _sum(np.zeros_like(fc), _WG * fsum[:, :5])
    resk = _sum(centre, wgk * fsum)
    resabs = _sum(np.abs(centre), wgk * (np.abs(fv1) + np.abs(fv2))[:, _KRONROD_ORDER])
    reskh = (resk * 0.5)[:, None]
    resasc = _sum(_WGK[10] * np.abs(fc - reskh),
                  _WGK[:10] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh)))
    out = []
    # math.pow, one interval at a time: np.power's vector code need not round as libm does
    for result, abserr, resabs, resasc in zip(
            (resk * hlgth).tolist(), np.abs((resk - resg) * hlgth).tolist(),
            (resabs * np.abs(hlgth)).tolist(), (resasc * np.abs(hlgth)).tolist()):
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, math.pow(200.0 * abserr / resasc, 1.5))
        if resabs > UFLOW / (50.0 * EPMACH):
            abserr = max((EPMACH * 50.0) * resabs, abserr)
        out.append((result, abserr, resabs, resasc))
    return out


def dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Insert the two newest error estimates into iord, which lists the intervals
    by descending elist; return the next (maxerr, errmax, nrmax) to bisect."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and errmax > elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        # only as many entries stay ordered as subdivisions are still allowed
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            if errmax >= elist[iord[i]]:
                iord[i - 1] = maxerr
                for k in range(jbnd, i - 1, -1):  # insert errmin bottom-up
                    if errmin < elist[iord[k]]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = iord[k]
                else:
                    iord[i] = last
                break
            iord[i - 1] = iord[i]
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def dqelg(n, epstab, res3la, nres):
    """Extrapolate epstab[1..n], whose last entry is new, by the epsilon algorithm:
    (n, result, abserr, nres) are the table's new length, the limit, its error
    estimate and the calls so far, and res3la keeps the last 3 results."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            e0, e1, e2, e3 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2], epstab[k1]
            delta1, delta2, delta3 = e1 - e3, e2 - e1, e1 - e0
            err1, err2, err3 = abs(delta1), abs(delta2), abs(delta3)
            e1abs = abs(e1)
            tol1, tol2, tol3 = (max(e1abs, abs(e3)) * EPMACH, max(abs(e2), e1abs) * EPMACH,
                                max(e1abs, abs(e0)) * EPMACH)
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 are equal to within machine accuracy: converged
                return n, e2, max(err2 + err3, 5.0 * EPMACH * abs(e2)), nres
            epstab[k1] = e1
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements are very close: omit part of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if abs(ss * e1) <= 1e-4:
                n = i + i - 1  # irregular behaviour in the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr, result = error, res
        if n == 50:  # limexp, the table's largest length
            n = 49
        # shift the table; each copy reads entries ahead of those it writes
        ib = 2 if num % 2 == 0 else 1
        epstab[ib:ib + 2 * newelm + 2:2] = epstab[ib + 2:ib + 2 * newelm + 4:2]
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1:] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def _dqagse(a, b, epsabs, epsrel, limit):
    """dqagse as a generator: it yields the list of intervals it needs dqk21 on next,
    is sent their (result, abserr, resabs, resasc) tuples, and returns its qags_many entry."""
    if limit < 1 or (epsabs <= 0 and epsrel < max(50 * EPMACH, 5e-29)):
        raise ValueError("qags_many needs limit >= 1, and epsrel >= max(50 eps, 5e-29) "
                         "if epsabs <= 0")
    (result, abserr, defabs, resabs), = yield [(a, b)]
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 1 if limit == 1 else 2 if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd else 0
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier
    alist, blist, rlist, elist, iord = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr], [0, 1]
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, OFLOW
    nrmax, nres, numrl2, ktmin, ierro, iroff3, extrap, noext = 1, 0, 2, 0, 0, 0, False, False
    iroff = [0, 0]  # QUADPACK's iroff1 and iroff2, counted without and with extrapolation
    positive = dres >= (1.0 - 50.0 * EPMACH) * defabs  # QUADPACK's ksgn = 1
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b1 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield [(a1, b1), (a2, b2)]
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff[extrap] += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        ierro = 3 if iroff[1] >= 5 else 0
        # ier is 0 here; of QUADPACK's assignments in turn, the last that applies holds
        ier = (4 if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW)
               else 1 if last == limit else 2 if sum(iroff) >= 10 or iroff3 >= 20 else 0)
        # interval maxerr keeps the half with the larger error, a new interval last the other
        for entries in (alist, blist, rlist, elist, iord):
            entries.append(0)
        halves = [(a1, b1, area1, error1), (a2, b2, area2, error2)]
        for k, half in zip((maxerr, last), halves[::-1] if error2 > error1 else halves):
            alist[k], blist[k], rlist[k], elist[k] = half
        maxerr, errmax, nrmax = dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        summed = errsum <= errbnd  # the result is then the sum over the intervals
        if summed or ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast + erro12 if abs(b1 - a1) > small else erlarg - erlast
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect first the larger one
            # with the next largest error, if any (if none, maxerr, errmax and nrmax go unread)
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            nrmax = next((k for k in range(nrmax, jupbnd + 1)
                          if abs(blist[iord[k]] - alist[iord[k]]) > small), 0)
            if nrmax:
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        noext = numrl2 == 1
        if ier == 5:
            break
        # go back to bisecting the largest error
        maxerr, nrmax, extrap, small, erlarg = iord[1], 1, False, small * 0.5, errsum
        errmax = elist[maxerr]

    # the final result and error estimate, QUADPACK's labels 100 to 140
    summed = summed or abserr == OFLOW
    divergence_test = not summed
    if divergence_test and ier + ierro != 0:
        abserr = abserr + correc if ierro == 3 else abserr
        ier = ier or 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
        divergence_test = not summed and area != 0.0
    if divergence_test and not (not positive and max(abs(result), abs(area)) <= defabs * 0.01):
        ratio = result / area if area else math.inf * (result != 0.0)  # IEEE's inf or nan
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier


def qags_many(f, problems):
    """dqagse on each (a, b, epsabs, epsrel, limit) of `problems`, in lockstep: a list of
    its integrals of f over [a, b] as (result, abserr, neval, ier). ier is QUADPACK's: 0
    success, 1 `limit` intervals used, 2 roundoff, 3 bad integrand behaviour, 4 roundoff
    in the extrapolation, 5 divergence.

    Up to WINDOW integrals are in flight; as one finishes, the next problem starts.
    Each round calls f(x, owners) once: x has a row of 21 nodes for each interval an
    integral in flight waits on, and owners[i] is the index in `problems` of row i's
    integral. f returns the integrand values in x's shape."""
    results = [None] * len(problems)
    waiting = iter(enumerate(problems))
    flight = []  # (index in problems, its dqagse, the intervals it waits on)
    while True:
        for i, problem in islice(waiting, WINDOW - len(flight)):
            run = _dqagse(*problem)
            flight.append((i, run, next(run)))
        if not flight:
            return results
        owners = np.array([i for i, _, wanted in flight for _ in wanted])
        rules = dqk21(f, np.array([ab for _, _, wanted in flight for ab in wanted]), owners)
        running, k = [], 0
        for i, run, wanted in flight:
            try:
                running.append((i, run, run.send(rules[k:k + len(wanted)])))
            except StopIteration as finished:
                results[i] = finished.value
            k += len(wanted)
        flight = running
