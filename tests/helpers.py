"""Small shared constructors for tests."""

from structbandit import RewardSpec, Structure


def mk(rows, true_index, reward=None):
    """Structure from a list of mean rows."""
    return Structure(rows, true_index, reward or RewardSpec())


def structures_strategy(max_models=6, max_arms=4):
    """Hypothesis strategy over small valid structures."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw):
        arm_count = draw(st.integers(2, max_arms))
        model_count = draw(st.integers(1, max_models))
        rows = []
        for _ in range(model_count):
            row = [draw(st.integers(0, 16)) / 20 for _ in range(arm_count)]
            best = draw(st.integers(0, arm_count - 1))
            row[best] = max(row) + draw(st.integers(1, 3)) / 20
            rows.append(row)
        true_index = draw(st.integers(0, model_count - 1))
        return mk(rows, true_index)

    return build()


def copies_strategy(max_base=5, max_arms=5, max_copies=5, steps=20):
    """Hypothesis strategy over structures with the cases that reductions
    over the models must get right: exact copies of a model (ties between
    minimising models), hard copies of the true model (one arm raised above
    its best mean, one other arm shrunk), and copies of the true model that
    differ on one arm (zero gaps on all others) or on none.  Means are
    multiples of 1/steps."""
    from hypothesis import strategies as st

    def mean(low, high):
        return st.integers(round(low * steps), round(high * steps)).map(lambda v: v / steps)

    @st.composite
    def build(draw):
        arm_count = draw(st.integers(2, max_arms))
        rows = []
        for _ in range(draw(st.integers(1, max_base))):
            row = [draw(mean(0.0, 0.8)) for _ in range(arm_count)]
            row[draw(st.integers(0, arm_count - 1))] = max(row) + draw(mean(0.05, 0.15))
            rows.append(row)
        true_index = draw(st.integers(0, len(rows) - 1))
        true = rows[true_index]
        best = max(true)
        others = [i for i in range(arm_count) if true[i] != best]
        for _ in range(draw(st.integers(0, max_copies))):
            kind = draw(st.sampled_from(("copy", "hard", "one_arm", "true")))
            if kind == "copy":
                rows.append(list(draw(st.sampled_from(rows))))
                continue
            row = list(true)
            if kind == "hard":
                raised = draw(st.sampled_from(others))
                row[raised] = min(best + draw(mean(0.05, 0.15)), 1.0)
                shrink = [i for i in others if i != raised]
                if shrink:
                    row[draw(st.sampled_from(shrink))] *= 0.1
            elif kind == "one_arm":
                row[draw(st.sampled_from(others))] = draw(mean(0.0, 0.8)) * best
            rows.append(row)
        return mk(rows, true_index)

    return build()
