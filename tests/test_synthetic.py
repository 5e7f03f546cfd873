import numpy as np
import pytest

from lama import synthetic
from lama.synthetic import FILLERS, FOOD_BAD, FOOD_GOOD, NEG_MARKERS, POS_MARKERS, SVC_BAD, SVC_GOOD


# the generators as first written, drawing list items with rng.choice; the
# integer draws that replaced it must give the same corpora


def reference_keyword_pairs(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for i in range(n):
        label = "pos" if i % 2 == 0 else "neg"
        family = POS_MARKERS if label == "pos" else NEG_MARKERS
        markers = list(rng.choice(family, size=int(rng.integers(2, 4))))
        length = int(rng.integers(6, 13))
        tokens = list(rng.choice(FILLERS, size=length))
        for marker in markers:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), marker)
        pairs.append((label, " ".join(tokens)))
    return pairs


def reference_multi_aspect_pairs(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for i in range(n):
        if i % 2 == 0:
            food, svc = True, True
        else:
            food, svc = [(False, False), (False, True), (True, False)][int(rng.integers(3))]
        half = int(rng.integers(8, 13))
        front = list(rng.choice(FILLERS, size=half))
        back = list(rng.choice(FILLERS, size=half))
        for marker in rng.choice(FOOD_GOOD if food else FOOD_BAD, size=2):
            front.insert(int(rng.integers(0, len(front) + 1)), str(marker))
        for marker in rng.choice(SVC_GOOD if svc else SVC_BAD, size=2):
            back.insert(int(rng.integers(0, len(back) + 1)), str(marker))
        label = "pos" if (food and svc) else "neg"
        pairs.append((label, " ".join(front + back)))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 7, 20_000])
@pytest.mark.parametrize("generate,reference", [
    (synthetic.keyword_pairs, reference_keyword_pairs),
    (synthetic.multi_aspect_pairs, reference_multi_aspect_pairs),
], ids=["keyword", "multi-aspect"])
def test_pairs_equal_the_choice_formulas(generate, reference, seed):
    pairs = generate(300, seed)
    assert pairs == reference(300, seed)
    assert all(type(text) is str for _, text in pairs)
