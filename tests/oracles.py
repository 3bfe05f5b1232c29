"""One copy of each reference the tests check mvhash against.

Pytest does not collect this module (no `test_` prefix); test files import
from it. The ranking and metric oracles work on unpacked rows and never call
`mvhash.retrieval`, and `central_difference` knows nothing of `net.backward`,
so none of them shares code with what it checks. The `seed_*` and `oracle_*`
functions are the loops that a faster or flatter implementation replaced,
kept to show that the replacement computes the same bytes.
"""

import numpy as np

from mvhash import centers as C
from mvhash import loss as L
from mvhash.errors import GenerationFailure, InvalidArgument


# ---- Hamming ranking and retrieval metrics ----

def ranking(codes, query):
    """(order, d): the distance `d` of every row of `codes` to `query` by an
    element-wise compare, and the row ids by ascending distance, ties by
    ascending id. Rows may hold +-1 values or unpacked 0/1 bits."""
    d = (np.asarray(codes) != np.asarray(query)).sum(axis=1)
    return np.lexsort((np.arange(d.size), d)), d


def brute_force_metrics(q_codes, q_labels, r_codes, r_labels, r_cap=None, k_grid=None):
    """(mAP, [(k, mAP@k, Recall@k) for k in k_grid]) from first principles:
    the oracle ranking, relevance as a shared class, and explicit sums over
    ranks. The mAP counts ranks up to r_cap (all of R when None)."""
    n = len(r_codes)
    aps, per_k = [], {k: [] for k in k_grid or ()}
    for q, lab in zip(q_codes, q_labels):
        order, _ = ranking(r_codes, q)
        rel = [bool((r_labels[i] & lab).any()) for i in order]
        m = sum(rel)

        def ap_and_recall(cap):
            hits, s = 0, 0.0
            for r in range(min(cap, n)):
                if rel[r]:
                    hits += 1
                    s += hits / (r + 1)
            return (s / m, hits / m) if m else (0.0, 0.0)

        aps.append(ap_and_recall(n if r_cap is None else r_cap)[0])
        for k, rows in per_k.items():
            rows.append(ap_and_recall(k))
    table = [(k, float(np.mean([a for a, _ in rows])), float(np.mean([r for _, r in rows])))
             for k, rows in sorted(per_k.items())]
    return float(np.mean(aps)), table


def seed_ap(rel_mask, ids, cap):
    """AP exactly as first written: uint8 @ int64 relevance, float64 cumsum."""
    m = int(rel_mask.sum())
    if m == 0:
        return 0.0
    rel = rel_mask[ids[:cap]].astype(np.float64)
    cum = np.cumsum(rel)
    ranks = np.arange(1, cap + 1, dtype=np.float64)
    return float(np.sum(rel * cum / ranks) / m)


def seed_terms(rel):
    """The seed's precision terms, dense: rel * cumsum(rel) / ranks."""
    r = rel.astype(np.float64)
    return r * np.cumsum(r) / np.arange(1, r.size + 1, dtype=np.float64)


def seed_metrics(codes, labels, q_codes, q_labels, r_cap, k_grid):
    """(mAP at r_cap, curve rows) from the oracle ranking and the seed arithmetic."""
    n = len(codes)
    orders = [ranking(codes, q)[0] for q in q_codes]
    masks = [(labels.astype(np.uint8) @ q.astype(np.int64)) > 0 for q in q_labels]
    cap = n if r_cap is None else min(r_cap, n)
    full = float(np.mean([seed_ap(m, o, cap) for m, o in zip(masks, orders)]))
    rows = []
    for k in k_grid:
        kk = min(k, n)
        aps = [seed_ap(m, o, kk) for m, o in zip(masks, orders)]
        recalls = [int(m[o[:kk]].sum()) / int(m.sum()) if m.any() else 0.0
                   for m, o in zip(masks, orders)]
        rows.append((k, float(np.mean(aps)), float(np.mean(recalls))))
    return full, rows


# ---- gradients ----

def central_difference(f, x, eps):
    """(f(x + eps e_i) - f(x - eps e_i)) / (2 eps) for every element i of x,
    shaped like x. It perturbs x in place, so `f` may read x through another
    view of the same buffer, and restores each element before the next."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        up = f(x)
        x[idx] = orig - eps
        down = f(x)
        x[idx] = orig
        g[idx] = (up - down) / (2 * eps)
    return g


# ---- the loops that the flat parameter buffer replaced ----

# the .csmv block order, written out here so that the layout tests do not read it from mvhash
CHECKPOINT_BLOCKS = ("W_vnorm", "b_vnorm", "W_tnorm", "b_tnorm",
                     "W_i", "W_t", "W_z", "W_hash", "b_hash")

def seed_init_blocks(dims, seed):
    """The per-block initialisation the flat buffer replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)

    def w(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    d, k = dims.d, dims.code_length
    return {
        "W_vnorm": w(d, dims.d_img), "b_vnorm": np.zeros(d),
        "W_tnorm": w(d, dims.d_txt), "b_tnorm": np.zeros(d),
        "W_i": w(d, d), "W_t": w(d, d), "W_z": w(d, 2 * d),
        "W_hash": w(k, d), "b_hash": np.zeros(k),
    }


def seed_backward(params, cache, grad_he):
    """The dict-of-blocks backward the flat gradient replaced, kept as its oracle."""
    d = params.dims.d
    g_a = grad_he * (1.0 - cache.he**2)
    gW_hash = g_a.T @ cache.h_f
    gb_hash = g_a.sum(axis=0)
    g_hf = g_a @ params.W_hash
    g_xi = np.zeros_like(cache.x_i)
    g_xt = np.zeros_like(cache.x_t)
    gW_z = np.zeros_like(params.W_z)
    gW_i = np.zeros_like(params.W_i)
    gW_t = np.zeros_like(params.W_t)

    def through_hi(g_hi):
        nonlocal gW_i, g_xi
        g_p = g_hi * (1.0 - cache.h_i**2)
        gW_i = g_p.T @ cache.x_i
        g_xi += g_p @ params.W_i

    def through_ht(g_ht):
        nonlocal gW_t, g_xt
        g_p = g_ht * (1.0 - cache.h_t**2)
        gW_t = g_p.T @ cache.x_t
        g_xt += g_p @ params.W_t

    if cache.fusion == "gmu":
        g_z = g_hf * (cache.h_i - cache.h_t)
        g_u = g_z * cache.z * (1.0 - cache.z)
        xc = np.concatenate([cache.x_i, cache.x_t], axis=1)
        gW_z = g_u.T @ xc
        g_xi += g_u @ params.W_z[:, :d]
        g_xt += g_u @ params.W_z[:, d:]
        through_hi(g_hf * cache.z)
        through_ht(g_hf * (1.0 - cache.z))
    elif cache.fusion == "image":
        through_hi(g_hf)
    elif cache.fusion == "text":
        through_ht(g_hf)
    else:
        hc = np.concatenate([cache.h_i, cache.h_t], axis=1)
        gW_z = g_hf.T @ hc
        through_hi(g_hf @ params.W_z[:, :d])
        through_ht(g_hf @ params.W_z[:, d:])
    if cache.mask_i is not None:
        g_xi = g_xi * cache.mask_i
        g_xt = g_xt * cache.mask_t
    return {
        "W_vnorm": g_xi.T @ cache.img, "b_vnorm": g_xi.sum(axis=0),
        "W_tnorm": g_xt.T @ cache.txt, "b_tnorm": g_xt.sum(axis=0),
        "W_i": gW_i, "W_t": gW_t, "W_z": gW_z, "W_hash": gW_hash, "b_hash": gb_hash,
    }


def seed_adam_step(blocks, grads, m, v, step_index, config):
    """The per-block Adam loop the flat update replaced, kept as its oracle."""
    b1, b2 = config.adam_betas
    lr, eps = config.learning_rate, config.adam_epsilon
    for name, p in blocks.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**step_index)
        v_hat = v[name] / (1 - b2**step_index)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def seed_batch_loss(he, target_centers, lam, loss_mode):
    """The trainer's per-mode loss from before total_loss took the mode, with
    that total_loss inlined: the oracle for the mode argument."""
    if loss_mode == "quant":
        l_q, g_q = L.quantization_loss(he)
        return L.LossReport(l_central=0.0, l_quant=l_q, l_total=l_q), g_q
    if loss_mode == "central":
        lam = 0.0
    l_c, g_c = L.central_similarity_loss(he, target_centers)
    l_q, g_q = L.quantization_loss(he)
    return L.LossReport(l_central=l_c, l_quant=l_q, l_total=l_c + lam * l_q), g_c + lam * g_q


# ---- hash centers: the per-center and per-bit loops ----

def oracle_bernoulli_centers(existing, count, code_length, rng):
    """The per-center acceptance loop that the one-matrix sampler replaces,
    with its inner products taken in int64."""
    min_dist = -(-code_length // 4)  # ceil(K/4)
    chosen = [np.asarray(c, dtype=np.int64) for c in existing]
    out = []
    for _ in range(count):
        for _ in range(C.MAX_RETRIES_PER_CENTER):
            cand = rng.integers(0, 2, size=code_length).astype(np.int64) * 2 - 1
            if not chosen:
                chosen.append(cand)
                out.append(cand)
                break
            inners = np.array([int(cand @ c) for c in chosen])
            dists = (code_length - inners) // 2
            if dists.min() >= min_dist and inners.sum() <= 0:
                chosen.append(cand)
                out.append(cand)
                break
        else:
            raise GenerationFailure(
                f"no acceptable center after {C.MAX_RETRIES_PER_CENTER} tries "
                f"(need separation >= {min_dist}, best candidate reached {int(dists.min())})"
            )
    return out


def oracle_generate_centers(v, k, seed):
    """(method, centers) from the three branches that one construction path replaces."""
    rng = np.random.default_rng(seed)
    if k & (k - 1) == 0:
        h = C.sylvester_hadamard(k)
        stacked = np.vstack([h, -h])
        if v <= 2 * k:
            return "hadamard", stacked[:v]
        extra = oracle_bernoulli_centers(list(stacked), v - 2 * k, k, rng)
        return "hadamard_plus_bernoulli", np.vstack([stacked, extra])
    return "bernoulli", np.array(oracle_bernoulli_centers([], v, k, rng))


def oracle_semantic_center(label_vector, centers, sample_id, seed=0):
    """The per-bit default_rng loop that the batched semantic centers replace."""
    labels = np.asarray(label_vector)
    active = np.flatnonzero(labels)
    if active.size == 0:
        raise InvalidArgument("label vector has no active label")
    if labels.shape[0] != centers.num_classes:
        raise InvalidArgument(
            f"label vector length {labels.shape[0]} != num_classes {centers.num_classes}"
        )
    if active.size == 1:
        return centers.centers[active[0]].copy()

    sums = centers.centers[active].astype(np.int64).sum(axis=0)
    code = np.sign(sums).astype(np.int8)
    for bit in np.flatnonzero(sums == 0):
        coin = np.random.default_rng([int(seed), int(sample_id), int(bit)])
        code[bit] = 1 if coin.integers(0, 2) else -1
    return code


def oracle_semantic_centers_for(labels, centers, seed=0):
    return np.array(
        [oracle_semantic_center(row, centers, i, seed) for i, row in enumerate(labels)],
        dtype=np.int8,
    )
