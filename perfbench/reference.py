"""A fixed plain-numpy two-task training step: the benchmark's yardstick.

On a shared virtual machine the speed of the same code swings by up to
1.7x, in spells that can last a minute. A small compute loop does not see
those swings, but a training step of the same shapes does. So after each
timed call the benchmark times a few steps of this reference with the
workload's shapes and optimizer, and reports the call's time per step as a
multiple of the reference's. On a 2-vCPU x86_64 virtual machine, over
30-second windows, that ratio held to about +-3% while the raw times moved
by +-12%.

The reference does what a gradremedy step does, in the plainest numpy: draw
a seeded batch, run the ReLU trunk and both heads forward, take both
losses, backpropagate each task, compare the two gradients of each trunk
layer and project away a conflict, and update every parameter. It imports
nothing from gradremedy, so no change to gradremedy moves it.
"""

from __future__ import annotations

import numpy as np

DIM = 32
CLASSES = 4
BATCH = 64
LR = 1e-3


class ReferenceStep:
    def __init__(self, trunk: tuple[int, ...], adam: bool, seed: int = 0):
        rng = np.random.default_rng(seed)

        def dense(fan_in: int, fan_out: int) -> list[np.ndarray]:
            return [rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in),
                    np.zeros(fan_out)]

        sizes = (DIM, *trunk)
        self.trunk = [dense(a, b) for a, b in zip(sizes, sizes[1:])]
        self.heads = [dense(trunk[-1], DIM), dense(trunk[-1], CLASSES)]
        self.templates = rng.standard_normal((CLASSES, DIM))
        self.adam = adam
        self.seed = seed
        self.moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.t = 0

    def _update(self, param: np.ndarray, grad: np.ndarray) -> None:
        if not self.adam:
            param -= LR * grad
            return
        m, v = self.moments.setdefault(id(param), (np.zeros_like(param), np.zeros_like(param)))
        m *= 0.9
        m += 0.1 * grad
        v *= 0.999
        v += 0.001 * grad * grad
        param -= LR * (m / (1.0 - 0.9 ** self.t)) / (
            np.sqrt(v / (1.0 - 0.999 ** self.t)) + 1e-8)

    def step(self, index: int) -> float:
        """One training step on batch `index`; returns the summed loss."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, index))))
        labels = rng.integers(0, CLASSES, size=BATCH)
        clean = self.templates[labels] + 0.05 * rng.standard_normal((BATCH, DIM))
        acts = [clean + rng.standard_normal((BATCH, DIM))]
        for w, b in self.trunk:
            acts.append(np.maximum(acts[-1] @ w + b, 0.0))
        top = acts[-1]
        aux = top @ self.heads[0][0] + self.heads[0][1]
        logits = top @ self.heads[1][0] + self.heads[1][1]
        prob = np.exp(logits - logits.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        rows = np.arange(BATCH)
        loss = float(((aux - clean) ** 2).mean()) - float(np.log(prob[rows, labels]).mean())

        grad_aux = 2.0 * (aux - clean) / aux.size
        grad_dom = prob
        grad_dom[rows, labels] -= 1.0
        grad_dom /= BATCH
        self.t += 1
        trunk_grads = []
        for head, delta in zip(self.heads, (grad_aux, grad_dom)):
            head_w, head_b = top.T @ delta, delta.sum(axis=0)
            delta = delta @ head[0].T
            per_layer = []
            for k in range(len(self.trunk) - 1, -1, -1):
                delta = delta * (acts[k + 1] > 0.0)
                per_layer.append(np.concatenate([(acts[k].T @ delta).ravel(), delta.sum(axis=0)]))
                delta = delta @ self.trunk[k][0].T
            trunk_grads.append(per_layer[::-1])
            self._update(head[0], head_w)
            self._update(head[1], head_b)
        for (w, b), g_aux, g_dom in zip(self.trunk, *trunk_grads):
            if not (np.isfinite(g_aux).all() and np.isfinite(g_dom).all()):
                raise FloatingPointError("reference step diverged")
            dot = float(g_aux @ g_dom)
            norm_dom = float(np.linalg.norm(g_dom))
            if dot < 0.0 and norm_dom > 0.0 and float(np.linalg.norm(g_aux)) > 0.0:
                g_aux = g_aux - (dot / (norm_dom * norm_dom)) * g_dom
            total = g_aux + g_dom
            self._update(w, total[: w.size].reshape(w.shape))
            self._update(b, total[w.size:])
        return loss
