import pytest

import conescope as cs


@pytest.fixture(scope="session")
def f2():
    return cs.FreeGroup(2)


@pytest.fixture(scope="session")
def z2():
    return cs.FreeAbelian(2)


@pytest.fixture(scope="session")
def klein():
    return cs.KleinBottle()


@pytest.fixture(scope="session")
def f2xz():
    return cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))


@pytest.fixture(scope="session")
def magnus(f2):
    return cs.magnus_order(f2)


@pytest.fixture(scope="session")
def hyper_irr(z2):
    """Hyperplane cone with weights (1, sqrt2): never hits the tie-break."""
    return cs.hyperplane_order(z2, cs.sqrt2_weights(), name="hyperplane-irrational")


@pytest.fixture(scope="session")
def hyper_lex(z2):
    """Hyperplane cone with weights (1, 0): the lex cone via the tie-break."""
    return cs.hyperplane_order(z2, [(1, 0), (0, 0)], name="hyperplane-lex")


@pytest.fixture(scope="session")
def klein_oracle(klein):
    return cs.klein_order(klein)


@pytest.fixture(scope="session")
def z_natural():
    return cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="z-natural")


@pytest.fixture(scope="session")
def f2_leading(magnus, z_natural):
    """F2 x Z with the free factor leading (disconnected cone)."""
    return cs.lex_pair_sign(magnus, z_natural, leading_factor=0,
                            name="f2-leading")


@pytest.fixture(scope="session")
def z_leading(magnus, z_natural):
    """F2 x Z with the Z factor leading (cofinal central cone)."""
    return cs.lex_pair_sign(z_natural, magnus, leading_factor=1,
                            name="z-leading")


@pytest.fixture
def built(monkeypatch):
    """The keys of the Elements built while the test runs, in order."""
    keys = []
    init = cs.Element.__init__

    def counted(self, model, key):
        keys.append(key)
        init(self, model, key)
    monkeypatch.setattr(cs.Element, "__init__", counted)
    return keys
