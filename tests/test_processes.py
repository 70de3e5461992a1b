from chorus import B_END, BCond, BTRUE, Branch, Lit, Recv, Send, behaviour_wf

from helpers import auth_expected_network


def test_behaviour_wf():
    assert not behaviour_wf("p", Send("p", Lit(1), "", B_END))
    assert behaviour_wf("c", auth_expected_network().get("c"))
    assert behaviour_wf("ip", auth_expected_network().get("ip"))
    assert all(behaviour_wf(p, b) for p, b in auth_expected_network().items())
    assert not behaviour_wf("q", Branch("q", None, None))
    assert not behaviour_wf("p", BCond(BTRUE, B_END, Recv("p", "x", "", B_END)))
