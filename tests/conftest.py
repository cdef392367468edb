from fractions import Fraction as Q

import pytest

from weylblocks import SubgroupHandle, build_root_system, integral_datum, \
    weyl_dimension


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A3")


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="session")
def a3_block(a3):
    """The half-integral middle-node block of A3 used throughout."""
    return integral_datum(a3, (Q(0), Q(1, 2), Q(0)))


def w(*coords):
    """Shorthand for an exact weight."""
    return tuple(Q(c) for c in coords)


def trivial_subgroup(datum):
    """The subgroup {e}."""
    return SubgroupHandle(datum, (), frozenset({datum.identity}))


def dominant_weights_up_to_dim(datum, cap):
    """Every dominant integral weight of Weyl dimension at most cap; the
    dimension grows with each coordinate, so a search upwards from 0
    stops at the cap."""
    out = []
    frontier = [datum.zero_weight()]
    seen = {datum.zero_weight()}
    while frontier:
        nxt = []
        for v in frontier:
            if weyl_dimension(datum, v) > cap:
                continue
            out.append(v)
            for i in range(datum.rank):
                u = v[:i] + (v[i] + 1,) + v[i + 1:]
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return out


def check_enumeration(system, fresh):
    """The recorded tables against a fresh system and element products."""
    enum = system.enumeration()
    els = enum.elements
    index = {u.root_perm: x for x, u in enumerate(els)}
    assert len(index) == len(els) and els[0].is_identity
    for x, u in enumerate(els):
        assert enum.length[x] == fresh.length(u) == system.length(u)
        assert system.reduced_word(u) == fresh.reduced_word(u)
        first = fresh.first_left_descent(u.root_perm)
        assert enum.descent[x] == (-1 if first is None else first - 1)
        for j, s in enumerate(system.simple_reflections):
            assert enum.left[j][x] == index[(s * u).root_perm]
    assert [fresh.sort_key(u) for u in els] == \
        sorted(fresh.sort_key(u) for u in els)
