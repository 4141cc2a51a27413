"""Stepwise (1+1)-ES reference, built only from the es primitives.

One generation at a time: ``mutate``, then ``sphere_eval``, then
``update_sigma``.  The lockstep kernel must match it bit for bit and raise
exactly where it raises.
"""

from estune.es import make_rng, mutate, sphere_eval, update_sigma


def stepwise_run(template, tau, seed, history=None):
    """(best_f, final_sigma) of one run; appends f after each generation."""
    rng = make_rng(seed)
    x = rng.uniform(template.init_low, template.init_high, size=template.dimension)
    f = sphere_eval(x)
    sigma = template.sigma0
    for _ in range(template.max_generations):
        candidate = mutate(x, sigma, rng)
        f_new = sphere_eval(candidate)
        success = f_new <= f
        if success:
            x, f = candidate, f_new
        sigma = update_sigma(sigma, tau, success)
        if history is not None:
            history.append(f)
    return f, sigma
