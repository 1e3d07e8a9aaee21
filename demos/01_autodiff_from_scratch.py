"""Reverse-mode autodiff tour: build a tape by hand, pull gradients back
through it, check them against central differences, and fit a tiny dense
net with Adam.

Run from the repo root:  python3 demos/01_autodiff_from_scratch.py
"""

import numpy as np

from marlab.ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, backward,
                          grad_check, param)

rng = np.random.default_rng(0)

# -- a hand-built scalar -----------------------------------------------------
# f(W, b) = mean(tanh(x W + b)^2) for a fixed batch x
x = rng.normal(size=(4, 3))
W = param(rng.normal(size=(3, 2)), name="W")
b = param(np.zeros((1, 2)), name="b")

g = Graph()
h = g.tanh(g.add(g.matmul(g.constant(x), W), b))   # b's row is added to every row
loss = g.mean(g.square(h))
print("forward value:", float(loss.value))

backward(g, loss)            # accumulates into W.grad and b.grad
print("dloss/dW:\n", W.grad)
print("dloss/db:", b.grad)

# every op's backward rule is checked against finite differences; f runs the
# forward on the graph it is given and returns the scalar root.  grad_check
# calls it on a fresh Graph for the tape gradient, then once on a Stacked
# graph that runs all 2 x 8 perturbed copies of W and b side by side
W.grad[...] = 0.0
b.grad[...] = 0.0


def f(g):
    h = g.tanh(g.add(g.matmul(g.constant(x), W), b))
    return g.mean(g.square(h))


err = grad_check(f, [W, b])
print(f"grad_check max relative error: {err:.2e}")

# -- fitting a curve with a DenseNet ----------------------------------------
# y = sin(3t) on [-1, 1], 64 sample points, 1-16-16-1 net
t = np.linspace(-1.0, 1.0, 64)[:, None]
y = np.sin(3.0 * t)

net = DenseNet([1, 16, 16, 1], ["tanh", "tanh", "identity"], rng)
opt = AdamState(net.params, lr=1e-2)

for step in range(1, 2001):
    g = Graph()
    pred = net.forward(g, g.constant(t))
    loss = g.mean(g.square(g.sub(pred, g.constant(y))))
    backward(g, loss)
    adam_step(net.params, opt)
    if step % 400 == 0:
        print(f"step {step:4d}  mse {float(loss.value):.6f}")

# the same forward off the tape: on EVAL it records nothing and returns an array
resid = net.forward(EVAL, t) - y
print("final max |residual|:", float(np.abs(resid).max()))
