"""Monte Carlo confidence samples into one uncertainty score per vertebra.

Two sweeps: sharpening the underlying distribution drives the entropy of the
sample mean down and the certainty weight up, while widening the sample
dispersion drives the per-class variance up. The certainty weight is what
message fusion uses to decide how much to trust each neighbor.
"""

import numpy as np

from spineid import McSampleSet, aggregate_samples, certainty_from_variance, report
from spineid.labels import N_CLASSES

rng = np.random.default_rng(7)
truth = 12


def sample_set(true_mass: float, kappa: float) -> McSampleSet:
    base = np.full(N_CLASSES, (1.0 - true_mass - 0.2) / (N_CLASSES - 3))
    base[truth] = true_mass
    base[truth - 1] = base[truth + 1] = 0.1
    base /= base.sum()
    samples = rng.dirichlet(kappa * base, size=20)
    samples /= samples.sum(axis=1, keepdims=True)
    return McSampleSet(samples)


print("sharpness sweep (fixed dispersion, kappa = 200)")
print("  true_mass   entropy   certainty_weight")
for true_mass in (0.75, 0.6, 0.45, 0.3):
    rep = report(sample_set(true_mass, kappa=200.0))
    print(f"  {true_mass:9.2f}   {rep.entropy:7.4f}   {rep.certainty_weight:16.4f}")

print("\ndispersion sweep (fixed base, true_mass = 0.6)")
print("  kappa   variance   variance_weight")
for kappa in (1000.0, 100.0, 20.0, 5.0, 1.0):
    rep = report(sample_set(0.6, kappa))
    print(f"  {kappa:5.0f}   {rep.variance:8.5f}   {certainty_from_variance(rep):15.4f}")

# The two degenerate ends of the scale:
one_hot = np.zeros((5, N_CLASSES))
one_hot[:, truth] = 1.0
rep = report(McSampleSet(one_hot))
print(f"\nall samples one-hot : entropy {rep.entropy:.4f}, certainty {rep.certainty_weight:.4f}")

uniform = np.full((5, N_CLASSES), 1.0 / N_CLASSES)
rep = report(McSampleSet(uniform))
print(f"all samples uniform : entropy {rep.entropy:.4f} (= ln 24 = {np.log(24):.4f}), "
      f"certainty {rep.certainty_weight:.4f}")

mean = aggregate_samples(McSampleSet(one_hot))
print(f"\nmean of the one-hot set puts {mean[truth]:.0%} on class {truth}")
