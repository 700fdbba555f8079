"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the mathematical definitions
(naive O(n^2) DFT sums, central finite differences, scalar loss formulas)
and never calls the fast paths it is used to check.
"""

import math
import statistics

import numpy as np

from jnrf import tensor as T
from jnrf.corpus import Token, bio_label
from jnrf.tokenizer import UNK


def naive_dft_matrix(n: int) -> np.ndarray:
    """Complex forward DFT matrix, for batched naive transforms."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def naive_mix(x: np.ndarray) -> np.ndarray:
    """Reference for the two-axis real mixing: pad to powers of two, DFT the
    hidden axis then the sequence axis with naive matrices, Re, crop."""
    n, d = x.shape
    np_ = 1
    while np_ < n:
        np_ *= 2
    dp = 1
    while dp < d:
        dp *= 2
    padded = np.zeros((np_, dp), dtype=np.complex128)
    padded[:n, :d] = x
    hidden = padded @ naive_dft_matrix(dp).T
    seq = naive_dft_matrix(np_) @ hidden
    return seq.real[:n, :d]


def scalar_gelu(x: float) -> float:
    """tanh-approximated gelu from the formula in the tensor module docstring."""
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def scalar_gelu_grad(x: float) -> float:
    """Derivative of the tensor module docstring's gelu formula by the
    product and chain rules: with u = c (x + 0.044715 x^3), c = sqrt(2/pi),
    0.5 (1 + tanh u) + 0.5 x (1 - tanh(u)^2) c (1 + 3 * 0.044715 x^2)."""
    c = math.sqrt(2.0 / math.pi)
    t = math.tanh(c * (x + 0.044715 * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x**2)


def scalar_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Row-wise layer norm with each row's mean and (biased) variance summed
    exactly by math.fsum: gain * (x - mean) / sqrt(var + eps) + bias."""
    n, d = x.shape
    out = np.zeros((n, d))
    for i in range(n):
        row = [float(v) for v in x[i]]
        mu = math.fsum(row) / d
        var = math.fsum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        for j in range(d):
            out[i, j] = gain[0, j] * ((row[j] - mu) * inv) + bias[0, j]
    return out


def layer_norm_input_grad(x: np.ndarray, gain: np.ndarray, g: np.ndarray, eps: float = 1e-5):
    """d(sum(g * layer_norm(x)))/dx through each row's explicit Jacobian
    J[j, i] = dy_j/dx_i = gain_j (inv (delta_ij - 1/d) - inv^3 (x_j - mu)(x_i - mu) / d),
    with inv = 1 / sqrt(var + eps); the row gradient is J^T g."""
    n, d = x.shape
    out = np.zeros((n, d))
    for r in range(n):
        row = [float(v) for v in x[r]]
        mu = math.fsum(row) / d
        var = math.fsum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        for i in range(d):
            terms = []
            for j in range(d):
                jac = gain[0, j] * (inv * ((1.0 if i == j else 0.0) - 1.0 / d)
                                    - inv**3 * (row[j] - mu) * (row[i] - mu) / d)
                terms.append(g[r, j] * jac)
            out[r, i] = math.fsum(terms)
    return out


def composed_windowed_attention(x, wq, wk, wv, wo, window: int, n_heads: int):
    """Windowed attention built from the tape's elementary ops, one window
    and head at a time: each window's rows are sliced out and projected, a
    head's columns are picked by a matmul with 0/1 selection columns, the
    head computes softmax(q_h k_h^T / sqrt(dk)) v_h, the heads go back side
    by side through the transposed selections, the window is multiplied by
    wo, and the windows are concatenated. Takes and returns Tensors, so a
    tape records every step and gives the reference gradients."""
    n, m = x.rows, wq.cols
    dk = m // n_heads
    eye = np.eye(m)
    parts = []
    for s0 in range(0, n, window):
        xs = T.slice_rows(x, s0, min(s0 + window, n))
        q, k, v = (T.matmul(xs, w) for w in (wq, wk, wv))
        merged = None
        for h in range(n_heads):
            pick = T.Tensor(eye[:, h * dk:(h + 1) * dk])
            qh = T.scale(T.matmul(q, pick), dk ** -0.5)
            att = T.softmax_rows(T.matmul(qh, T.transpose(T.matmul(k, pick))))
            head = T.matmul(T.matmul(att, T.matmul(v, pick)), T.transpose(pick))
            merged = head if merged is None else T.add(merged, head)
        parts.append(T.matmul(merged, wo))
    return parts[0] if len(parts) == 1 else T.concat_rows(parts)


def scalar_positional_encoding(pos: int, d: int) -> list[float]:
    """Sinusoidal encoding of one position from the formula, one float at a
    time: sin at even indices, cos at odd, angle pos / 10000^(2i/d)."""
    out = []
    for i in range(d // 2):
        angle = pos / 10000.0 ** (2.0 * i / d)
        out += [math.sin(angle), math.cos(angle)]
    return out


def linear_map_matrix(f, rows: int, cols: int) -> np.ndarray:
    """Materialize a linear map on rows x cols matrices as a dense matrix
    by probing it with basis inputs. Used to get adjoints independently."""
    m = np.zeros((rows * cols, rows * cols))
    for i in range(rows * cols):
        e = np.zeros(rows * cols)
        e[i] = 1.0
        m[:, i] = f(e.reshape(rows, cols)).ravel()
    return m


def fd_grad(f, arr: np.ndarray, h: float = 1e-5, coords=None) -> np.ndarray:
    """Central finite differences of scalar f with respect to arr, in place.

    coords limits the check to a subset of flat indices (full grid when None).
    """
    flat = arr.ravel()
    out = np.zeros_like(flat)
    idxs = range(flat.size) if coords is None else coords
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(arr.shape)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def scalar_ner_loss(logits: np.ndarray, labels) -> float:
    """Token-wise cross entropy from the formula, one float at a time."""
    n, c = logits.shape
    total = 0.0
    for i in range(n):
        m = max(logits[i, k] for k in range(c))
        lse = m + math.log(sum(math.exp(logits[i, k] - m) for k in range(c)))
        for k in range(c):
            e = 1.0 if k == labels[i] else 0.0
            total += (logits[i, k] - lse) * e
    return -total / n


def scalar_re_loss(psi: np.ndarray, targets: np.ndarray) -> float:
    """Relation cross entropy from the formula; psi and targets are (t, H, L)
    and the log-softmax runs over the H axis for each fixed (key, head)."""
    t, nh, nl = psi.shape
    if nh == 0 or nl == 0:
        return 0.0
    total = 0.0
    for j in range(t):
        for p in range(nl):
            m = max(psi[j, h, p] for h in range(nh))
            lse = m + math.log(sum(math.exp(psi[j, h, p] - m) for h in range(nh)))
            for h in range(nh):
                if targets[j, h, p]:
                    total += psi[j, h, p] - lse
    return -total / (nh * nl)


def all_heads_relation_scores(params, q: np.ndarray, k: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Every (head, drug, attribute) score, as (t, |H|, |L|) planes: the
    bilinear form (q W_q^j) (k W_k^j + b)^T plus a_j D^2 + b_j D for every
    head j, whatever the attribute's type. dist is (|H|, |L|)."""
    alpha = params["alpha"].data
    planes = []
    for j in range(alpha.shape[0]):
        qj = q @ params[f"rel.{j}.q.w"].data
        kj = k @ params[f"rel.{j}.k.w"].data + params[f"rel.{j}.k.b"].data
        a, b = alpha[j]
        planes.append(qj @ kj.T + (a * dist**2 + b * dist))
    return np.stack(planes)


def scan_pretokens(text: str):
    """Yield (surface, start, end) split on whitespace and punctuation, one
    character at a time: a maximal `str.isalnum` run, or any other character
    that is not `str.isspace`, on its own."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            yield text[i:j], i, j
            i = j
        else:
            yield ch, i, i + 1
            i += 1


def scan_wordpiece_tokenize(text: str, vocab) -> list:
    """Greedy longest-match wordpiece split of every pre-token, trying every
    candidate length at every position; a pre-token with a position no
    candidate matches becomes one [UNK] token over its span."""
    ids = vocab.id_of
    out = []
    for word, start, end in scan_pretokens(text):
        pieces = []
        pos = 0
        ok = True
        while pos < len(word):
            best = None
            for stop in range(len(word), pos, -1):
                cand = word[pos:stop]
                if pos > 0:
                    cand = "##" + cand
                if cand in ids:
                    best = (cand, stop)
                    break
            if best is None:
                ok = False
                break
            piece, stop = best
            pieces.append(Token(piece, start + pos, start + stop, ids[piece]))
            pos = stop
        if ok:
            out.extend(pieces)
        else:
            out.append(Token(UNK, start, end, vocab.unk_id))
    return out


def scan_split_sentences(doc) -> list[int]:
    """Sentence starts by testing every pair of neighbouring tokens: a
    boundary falls after a token whose last character in the text is '.',
    '!' or '?', or when a newline lies between it and the next token."""
    tokens, text = doc.tokens, doc.text
    starts = [0] if tokens else []
    for i in range(1, len(tokens)):
        before, after = tokens[i - 1], tokens[i]
        if text[before.end - 1] in (".", "!", "?") or "\n" in text[before.end:after.start]:
            starts.append(i)
    return starts


def scan_token_range(tokens, start: int, end: int) -> list[int]:
    """Indices of the tokens overlapping characters [start, end), by testing
    every token; needs no ordering of the tokens."""
    return [i for i, t in enumerate(tokens) if t.start < end and start < t.end]


def scan_align_bio(doc, error):
    """BIO labels and entity token spans by a scan over every token per
    entity: overlap means inside, the first overlapped token is B-, the rest
    I-. Raises `error` with the message the tokenizer uses."""
    labels = [0] * len(doc.tokens)
    owner = [None] * len(doc.tokens)
    spans = []
    for ent in doc.gold_entities:
        idx = scan_token_range(doc.tokens, ent.start, ent.end)
        if not idx:
            raise error(
                f"{doc.doc_id}: entity {ent.id} ({ent.etype} {ent.start}..{ent.end}) covers no token"
            )
        for i in idx:
            if owner[i] is not None:
                other = owner[i]
                raise error(
                    f"{doc.doc_id}: token {i} ({doc.tokens[i].surface!r}) overlaps both "
                    f"{other.id} ({other.etype}) and {ent.id} ({ent.etype})"
                )
            owner[i] = ent
        for i in idx:
            labels[i] = bio_label(ent.etype, first=i == idx[0])
        spans.append((idx[0], idx[-1] + 1))
    return labels, spans


def scan_sentence_index_of_token(starts, tok: int) -> int:
    """Last sentence whose start is at or before the token, 0 if none is."""
    found = 0
    for i, s in enumerate(starts):
        if s <= tok:
            found = i
    return found


def scan_sentence_index_of_char(tokens, starts, pos: int) -> int:
    """Sentence of the first token ending after the character position, or
    of the last token when none does; 0 for a document without tokens."""
    for i, t in enumerate(tokens):
        if t.end > pos:
            return scan_sentence_index_of_token(starts, i)
    return scan_sentence_index_of_token(starts, len(tokens) - 1) if tokens else 0


def naive_greedy_counts(pred, gold, order, same) -> tuple[int, int, int]:
    """(tp, fp, fn) of greedy one-to-one matching from the rule: both lists
    sorted by `order`, each prediction in turn takes the earliest gold item
    it matches that no earlier prediction took."""
    pred = sorted(pred, key=order)
    gold = sorted(gold, key=order)
    used = set()
    for p in pred:
        free = [i for i in range(len(gold)) if i not in used and same(p, gold[i])]
        if free:
            used.add(min(free))
    tp = len(used)
    return tp, len(pred) - tp, len(gold) - tp


def fd_bins(lengths) -> list[tuple[int, int]]:
    """Freedman-Diaconis bins from the formula: width round(2 * IQR * N^(-1/3))
    with quartiles interpolated linearly between order statistics, edges at
    multiples of the width from 0 up to the first past the longest length,
    and one bin [0, max + 1) when the width rounds below 1."""
    q1, _, q3 = statistics.quantiles(lengths, n=4, method="inclusive")
    width = round(2.0 * (q3 - q1) * len(lengths) ** (-1.0 / 3.0))
    longest = max(lengths)
    if width < 1:
        return [(0, longest + 1)]
    edges = [0]
    while edges[-1] <= longest:
        edges.append(edges[-1] + width)
    return list(zip(edges, edges[1:]))
