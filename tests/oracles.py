"""Brute-force reference implementations, independent of the package.

Everything here recomputes results straight from the definitions with plain
loops. Slow on purpose. The interval oracles work on plain (start, end) /
(start, end, score) tuples, and the tests adapt package objects down to tuples
before comparing; the conv oracle reads arrays one element at a time. The
checkpoint writer and Adam work one parameter array at a time, independent of
the engine's flat parameter vector. The results writers build the whole
envelope as dicts and hand it to json.dump.

The loop_* functions are the package's earlier per-item loops, kept as the
bitwise references of the array passes that replaced them: grouping and
region scores, the random baseline, NMS, per-video anchor inference, the
masked tIoU kernel and the entry-by-entry results reader.
"""

from __future__ import annotations

import io
import json
import struct
import sys

import numpy as np

GRID = tuple(0.50 + 0.05 * i for i in range(10))


def oracle_tiou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def mc_tiou(a, b, samples, rng):
    """Membership-count estimate of tIoU over the pair's bounding span."""
    lo = min(a[0], b[0])
    hi = max(a[1], b[1])
    pts = rng.uniform(lo, hi, size=samples)
    in_a = (pts >= a[0]) & (pts < a[1])
    in_b = (pts >= b[0]) & (pts < b[1])
    either = int(np.count_nonzero(in_a | in_b))
    both = int(np.count_nonzero(in_a & in_b))
    if either == 0:
        return 0.0
    return both / either


def _rank_key(p):
    # score desc, then earlier start, then shorter
    return (-p[2], p[0], p[1] - p[0])


def brute_recall(props, gt, an, threshold):
    """props: vid -> [(s, e, score)], gt: vid -> [(s, e)]. Pooled over videos."""
    recalled = 0
    total = 0
    for vid, instances in gt.items():
        if not instances:
            continue
        total += len(instances)
        kept = sorted(props.get(vid, []), key=_rank_key)[:an]
        for g in instances:
            if any(oracle_tiou((p[0], p[1]), g) >= threshold for p in kept):
                recalled += 1
    return recalled / total


def brute_average_recall(props, gt, an, grid=GRID):
    return float(np.mean([brute_recall(props, gt, an, t) for t in grid]))


def brute_ar_an(props, gt, an_max, grid=GRID):
    ar = [brute_average_recall(props, gt, an, grid) for an in range(1, an_max + 1)]
    return ar, float(np.mean(ar))


def brute_ap(preds, gt, threshold):
    """preds: [(vid, s, e, score)], gt: vid -> [(s, e)]. Greedy best-IoU match,
    all-points interpolation via the definitional suffix-max envelope."""
    total = sum(len(v) for v in gt.values())
    if not preds:
        return 0.0
    ordered = sorted(preds, key=lambda p: (-p[3], p[1], p[2] - p[1], p[0]))
    used = {vid: set() for vid in gt}
    tp = []
    for vid, s, e, _score in ordered:
        best_iou, best_gi = 0.0, -1
        for gi, g in enumerate(gt.get(vid, [])):
            if gi in used.get(vid, set()):
                continue
            v = oracle_tiou((s, e), g)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0 and best_iou >= threshold:
            used.setdefault(vid, set()).add(best_gi)
            tp.append(1)
        else:
            tp.append(0)

    precision = []
    recall = []
    running = 0
    for k, flag in enumerate(tp):
        running += flag
        precision.append(running / (k + 1))
        recall.append(running / total)
    ap = 0.0
    prev = 0.0
    for k, flag in enumerate(tp):
        if flag:
            ap += (recall[k] - prev) * max(precision[k:])
            prev = recall[k]
    return ap


def brute_mean_ap(loc, gt_labeled, threshold):
    """loc: vid -> [(label, s, e, score)], gt_labeled: vid -> [(label, s, e)].
    Mean of per-class AP over the classes that appear in the ground truth."""
    classes = sorted({label for rows in gt_labeled.values() for label, _s, _e in rows})
    aps = []
    for cls in classes:
        gt_c = {}
        for vid, rows in gt_labeled.items():
            spans = [(s, e) for label, s, e in rows if label == cls]
            if spans:
                gt_c[vid] = spans
        preds_c = [
            (vid, s, e, score)
            for vid, rows in loc.items()
            for label, s, e, score in rows
            if label == cls
        ]
        aps.append(brute_ap(preds_c, gt_c, threshold))
    return float(np.mean(aps))


def brute_fragments(values, tau, min_frag=1):
    runs = []
    start = None
    for t, v in enumerate(values):
        if v >= tau:
            if start is None:
                start = t
        else:
            if start is not None and t - start >= min_frag:
                runs.append((start, t))
            start = None
    if start is not None and len(values) - start >= min_frag:
        runs.append((start, len(values)))
    return runs


def brute_group(values, tau, gamma, min_frag=1):
    """Every (fragment start, fragment end) pair checked directly against the
    coverage definition; no scan order, no cutoff."""
    frags = brute_fragments(values, tau, min_frag)
    starts = [f[0] for f in frags]
    ends = [f[1] for f in frags]
    regions = set()
    for a in starts:
        for b in ends:
            if a >= b:
                continue
            covered = sum(fe - fs for fs, fe in frags if a <= fs and fe <= b)
            if covered / (b - a) >= gamma:
                regions.add((a, b))
    return sorted(regions)


def brute_nms(props, threshold, max_keep):
    """Full greedy pass (suppress tiou strictly above threshold, plus exact
    duplicate intervals), then truncate."""
    remaining = sorted(props, key=_rank_key)
    kept = []
    while remaining:
        top = remaining.pop(0)
        kept.append(top)
        survivors = []
        for p in remaining:
            if (p[0], p[1]) == (top[0], top[1]):
                continue
            if oracle_tiou((p[0], p[1]), (top[0], top[1])) > threshold:
                continue
            survivors.append(p)
        remaining = survivors
    return kept[:max_keep]


def brute_refine(ssad, tag, threshold):
    """ssad, tag: [(s, e, score)]. Returns the ranked [(s, e, score, refined)]
    with one entry per ssad proposal.

    Each grouped proposal is matched to its highest-tIoU anchor proposal (ties:
    earlier start, then shorter, then better ranked); a match counts only when
    its tIoU is strictly above the threshold. Of several grouped proposals
    matched to one anchor proposal the highest tIoU wins (ties: earlier start,
    then shorter, then better ranked), and the anchor proposal takes its
    bounds while keeping its own score.
    """
    ssad = sorted(ssad, key=_rank_key)
    tag = sorted(tag, key=_rank_key)
    claimants = {}
    for t in tag:
        best = None
        for i, p in enumerate(ssad):
            v = oracle_tiou((p[0], p[1]), (t[0], t[1]))
            key = (-v, p[0], p[1] - p[0], i)
            if best is None or key < best[0]:
                best = (key, i, v)
        if best is not None and best[2] > threshold:
            claimants.setdefault(best[1], []).append((-best[2], t[0], t[1] - t[0], t))
    out = []
    for i, p in enumerate(ssad):
        if i in claimants:
            winner = min(claimants[i], key=lambda c: c[:3])[3]
            out.append((winner[0], winner[1], p[2], True))
        else:
            out.append((p[0], p[1], p[2], False))
    return sorted(out, key=_rank_key)


def brute_conv1d(x, w, b, stride, pad, grad_y):
    """y[n,o,t] = b[o] + sum_{c,j} w[o,c,j] * x_pad[n,c,t*stride+j], where x_pad
    is x with pad zeros on each side, and the gradients of sum(grad_y * y)
    w.r.t. x, w and b. Returns (y, grad_x, grad_w, grad_b) as float64."""
    n_batch, n_in, length = x.shape
    n_out, _, kernel = w.shape
    t_out = (length + 2 * pad - kernel) // stride + 1

    y = np.zeros((n_batch, n_out, t_out))
    grad_x = np.zeros(x.shape)
    grad_w = np.zeros(w.shape)
    grad_b = np.zeros(b.shape)
    for n in range(n_batch):
        for o in range(n_out):
            for t in range(t_out):
                g = float(grad_y[n, o, t])
                y[n, o, t] = float(b[o])
                grad_b[o] += g
                for c in range(n_in):
                    for j in range(kernel):
                        i = t * stride + j - pad  # index into x; outside is padding
                        if 0 <= i < length:
                            y[n, o, t] += float(w[o, c, j]) * float(x[n, c, i])
                            grad_w[o, c, j] += g * float(x[n, c, i])
                            grad_x[n, c, i] += g * float(w[o, c, j])
    return y, grad_x, grad_w, grad_b


_KIND_CODES = {"conv1d": 1, "relu": 2, "sigmoid": 3, "dense": 4}


def per_array_checkpoint(layers):
    """Checkpoint bytes written one array at a time: magic, version, the
    layer-spec table, then each layer's w and b as little-endian float32."""
    out = [b"TAPM", struct.pack("<II", 1, len(layers))]
    for layer in layers:
        s = layer.spec
        out.append(struct.pack("<6I", _KIND_CODES[s.kind], s.in_channels, s.out_channels,
                               s.kernel, s.stride, s.pad))
    for layer in layers:
        for name in ("w", "b"):
            if hasattr(layer, name):
                out.append(np.ascontiguousarray(getattr(layer, name), dtype="<f4").tobytes())
    return b"".join(out)


def per_array_adam(params, grad_steps, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam run array by array: params is a list of arrays,
    updated in place; grad_steps holds one list of gradients per step."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            params[i][...] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


def _dumped_envelope(results):
    """The results envelope as json.dump(indent=2, sort_keys=True) writes it,
    plus a newline, as bytes."""
    out = io.StringIO()
    json.dump({"version": "1.0", "results": results, "external_data": {}}, out,
              indent=2, sort_keys=True)
    out.write("\n")
    return out.getvalue().encode("utf-8")


def json_dump_results(proposal_sets):
    """Proposal results file bytes: vid -> ProposalSet, entries in set order."""
    return _dumped_envelope({
        vid: [{"segment": [p.start, p.end], "score": p.score} for p in pset]
        for vid, pset in proposal_sets.items()
    })


def json_dump_localization(localization):
    """Localization file bytes: vid -> [(label, start, end, score)] in list order."""
    return _dumped_envelope({
        vid: [{"label": label, "segment": [start, end], "score": score}
              for label, start, end, score in rows]
        for vid, rows in localization.items()
    })


# --------------------------------------------------------------------------
# the earlier per-item loops


def loop_fragments(values, tau, min_frag):
    """Maximal runs of values >= tau, kept when at least min_frag long."""
    frags = []
    start = None
    for t, v in enumerate(values):
        if v >= tau:
            if start is None:
                start = t
        elif start is not None:
            if t - start >= min_frag:
                frags.append((start, t))
            start = None
    if start is not None and len(values) - start >= min_frag:
        frags.append((start, len(values)))
    return frags


def loop_group_fragments(frags, gamma, scan_cutoff):
    """Regions spanning fragment i..j pairs whose coverage reaches gamma; with
    scan_cutoff the j scan stops after two consecutive failures."""
    regions = set()
    for i in range(len(frags)):
        covered = 0
        failures = 0
        for j in range(i, len(frags)):
            covered += frags[j][1] - frags[j][0]
            span = frags[j][1] - frags[i][0]
            if covered / span >= gamma:
                regions.add((frags[i][0], frags[j][1]))
                failures = 0
            else:
                failures += 1
                if scan_cutoff and failures >= 2:
                    break
    return regions


def loop_regions(values, taus, gammas, min_frag, scan_cutoff):
    """Sorted union of the grouped regions, one (tau, gamma) pair at a time."""
    regions = set()
    for tau in taus:
        frags = loop_fragments(values, tau, min_frag)
        for gamma in gammas:
            regions.update(loop_group_fragments(frags, gamma, scan_cutoff))
    return sorted(regions)


def loop_tag_columns(values, cfg, duration):
    """tag_proposals' (starts, ends, scores) in region order: seconds per
    index and the clipped mean actionness of one region at a time."""
    num = len(values)

    def to_seconds(idx):
        return duration if idx == num else idx * duration / num

    starts, ends, scores = [], [], []
    for start, end in loop_regions(values, cfg.tau_grid, cfg.gamma_grid, cfg.min_fragment,
                                   cfg.scan_cutoff):
        starts.append(to_seconds(start))
        ends.append(to_seconds(end))
        scores.append(min(1.0, max(0.0, float(values[start:end].mean()))))
    return starts, ends, scores


def loop_random_intervals(rng, duration, count):
    """The random baseline of one video, one uniform draw at a time."""
    starts, ends, scores = [], [], []
    for _ in range(count):
        lo, hi = np.sort(rng.uniform(0.0, duration, size=2))
        while hi <= lo:
            lo, hi = np.sort(rng.uniform(0.0, duration, size=2))
        starts.append(lo)
        ends.append(hi)
        scores.append(rng.uniform(0.0, 1.0))
    return starts, ends, scores


def loop_nms_keep(starts, ends, suppress, max_keep):
    """Indices NMS keeps, one row of the boolean suppression matrix at a time."""
    alive = np.ones(len(starts), dtype=bool)
    kept = []
    for i in range(len(starts)):
        if len(kept) >= max_keep:
            break
        if alive[i]:
            kept.append(i)
            alive &= ~suppress[i]
    return kept


def masked_tiou_matrix(starts_a, ends_a, starts_b, ends_b):
    """The earlier kernel: zeros, then inter / union where inter > 0."""
    sa = np.asarray(starts_a, dtype=np.float64)[:, None]
    ea = np.asarray(ends_a, dtype=np.float64)[:, None]
    sb = np.asarray(starts_b, dtype=np.float64)[None, :]
    eb = np.asarray(ends_b, dtype=np.float64)[None, :]
    inter = np.minimum(ea, eb) - np.maximum(sa, sb)
    union = ((ea - sa) + (eb - sb)) - inter
    out = np.zeros(inter.shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=inter > 0.0)
    return out


def loop_infer_scores(model, x):
    """Anchor scores of each video of x (N, D, L) from its own batch-1 forward pass."""
    return np.concatenate([model.forward(x[n : n + 1]) for n in range(len(x))])


def _is_number(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def loop_read_columns(path):
    """Yield (vid, (starts, ends, scores)) float lists, each video checked one
    entry at a time, or raise ValueError with the message read_results gives
    after the path, when the scan reaches the bad video."""
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict) or not isinstance(raw.get("results"), dict):
        raise ValueError("missing 'results' map")
    for vid, entries in raw["results"].items():
        if not isinstance(entries, list):
            raise ValueError(f"results.{vid} must be a list")
        starts, ends, scores = [], [], []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"results.{vid}[{i}] is not an object")
            seg = entry.get("segment")
            if (not isinstance(seg, (list, tuple)) or len(seg) != 2
                    or not _is_number(seg[0]) or not _is_number(seg[1])):
                raise ValueError(f"results.{vid}[{i}].segment must be a [start, end] pair")
            score = entry.get("score")
            if not _is_number(score):
                raise ValueError(f"results.{vid}[{i}].score must be a number")
            starts.append(float(seg[0]))
            ends.append(float(seg[1]))
            scores.append(float(score))
        yield vid, (starts, ends, scores)
