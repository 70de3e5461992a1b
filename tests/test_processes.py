import random

from chorus import (
    B_END, BCond, BTRUE, Branch, Lit, Network, Recv, Send, behaviour_wf,
    network_disjoint, network_wf, par, remove, singleton,
)
from chorus.processes import EMPTY_NETWORK, behaviour_depth

from helpers import auth_expected_network, gen_behaviour


def test_par_identity():
    net = auth_expected_network()
    assert par(net, EMPTY_NETWORK) == net
    assert par(EMPTY_NETWORK, net) == net


def test_par_left_bias_on_overlap():
    first = Send("q", Lit(1), "", B_END)
    second = Recv("q", "x", "", B_END)
    assert par(singleton("p", first), singleton("p", second)).get("p") == first
    assert par(singleton("p", second), singleton("p", first)).get("p") == second


def test_par_commutes_on_disjoint_supports():
    rng = random.Random(3)
    for _ in range(50):
        left = Network({"a": gen_behaviour(rng, 3), "b": gen_behaviour(rng, 2)})
        right = Network({"c": gen_behaviour(rng, 3)})
        assert network_disjoint(left, right)
        assert par(left, right) == par(right, left)


def test_par_associative():
    rng = random.Random(4)
    for _ in range(50):
        nets = [Network({p: gen_behaviour(rng, 2)}) for p in "abc"]
        assert par(par(nets[0], nets[1]), nets[2]) == par(nets[0], par(nets[1], nets[2]))


def test_remove_absorbs_singleton():
    rng = random.Random(5)
    for _ in range(20):
        net = Network({"a": gen_behaviour(rng, 2), "b": gen_behaviour(rng, 2)})
        b = gen_behaviour(rng, 3)
        assert remove(par(singleton("p", b), net), "p") == remove(net, "p")


def test_behaviour_wf():
    assert not behaviour_wf("p", Send("p", Lit(1), "", B_END))
    assert behaviour_wf("c", auth_expected_network().get("c"))
    assert behaviour_wf("ip", auth_expected_network().get("ip"))
    assert network_wf(EMPTY_NETWORK)
    assert network_wf(auth_expected_network())
    assert not behaviour_wf("q", Branch("q", None, None))
    assert not behaviour_wf("p", BCond(BTRUE, B_END, Recv("p", "x", "", B_END)))


def test_behaviour_depth_sees_branch_slots():
    deep = Branch("p", ("", Send("q", Lit(0), "", B_END)), None)
    assert behaviour_depth(deep) == 3
    assert behaviour_depth(B_END) == 1

