"""Verification metrics computed from sorted copies of the scores.

``evaluation`` reads EER, AUC and the ROC off one table of match and
non-match counts per distinct score. The references below get the same
numbers another way: a ``searchsorted`` threshold sweep for EER, a
``searchsorted`` rank count for AUC and a stable argsort with running
sums for the ROC. A stratum's reference is these functions on a masked
copy of its trials. Tests compare the two bit for bit.
"""

import numpy as np


def eer_from_scores(scores, labels):
    """EER and its threshold; accept iff score >= threshold, interpolated at the crossing."""
    pos = np.sort(scores[labels])
    neg = np.sort(scores[~labels])
    thresholds = np.unique(scores)
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))
    if idx == 0:
        return float(far[0]), float(thresholds[0])
    d0, d1 = diff[idx - 1], diff[idx]
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def auc_from_scores(scores, labels):
    """(concordant + half ties) / (P * N), each positive's rank found by binary search."""
    pos = scores[labels]
    neg = np.sort(scores[~labels])
    below = np.searchsorted(neg, pos, side="left").sum()
    ties = (np.searchsorted(neg, pos, side="right") - np.searchsorted(neg, pos, side="left")).sum()
    return float((below + 0.5 * ties) / (pos.size * neg.size))


def roc_points(scores, labels):
    """(FPR, TPR) from (0, 0), one point after each tied-score run, scores descending."""
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    keep = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tpr = np.concatenate([[0.0], tp[keep] / tp[-1]])
    fpr = np.concatenate([[0.0], fp[keep] / fp[-1]])
    return fpr, tpr


def tied_share(scores):
    """Share of the scores that another score equals."""
    _, counts = np.unique(scores, return_counts=True)
    return float(counts[counts > 1].sum() / counts.sum())


def stratum_row(scores, labels, keep):
    """(n_trials, eer, auc, threshold, tied_share) of the trials ``keep`` selects, or None without both classes."""
    s, lab = scores[keep], labels[keep]
    if lab.all() or not lab.any():
        return None
    eer, threshold = eer_from_scores(s, lab)
    return len(s), eer, auc_from_scores(s, lab), threshold, tied_share(s)
