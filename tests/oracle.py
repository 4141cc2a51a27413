"""Stepwise (1+1)-ES reference, built only from the es primitives.

One generation at a time: ``mutate``, then ``sphere_eval``, then
``update_sigma``.  The lockstep kernel must match it bit for bit and raise
exactly where it raises.
"""

from estune.es import make_rng, mutate, sphere_eval, update_sigma


def stepwise_run(config, history=None):
    """(best_f, final_sigma) of one run; appends f after each generation."""
    rng = make_rng(config.seed)
    x = rng.uniform(config.init_low, config.init_high, size=config.dimension)
    f = sphere_eval(x)
    sigma = config.sigma0
    for _ in range(config.max_generations):
        candidate = mutate(x, sigma, rng)
        f_new = sphere_eval(candidate)
        success = f_new <= f
        if success:
            x, f = candidate, f_new
        sigma = update_sigma(sigma, config.tau, success)
        if history is not None:
            history.append(f)
    return f, sigma
