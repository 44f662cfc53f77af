"""Seeded randomized parity fuzz of the stateful tail: random rulesets
dense in correlation state — ``after``/``threshold`` tracked by username,
destination and source port, flexbit set/isset/unset/count in the
``by_src``, ``both_p`` and ``username`` directions, ``json_map``-ed
usernames and a stateful ``pass`` rule — over generated transcripts,
oracle ≡ Ray on every one. Its own generator and seeds, so the stream of
``test_fuzz_parity`` stays what it was. Failures reproduce by seed."""

import numpy as np
import pytest

from sagan_ray.rules import parse_rules
from sagan_ray.synth import gen_transcripts

from .helpers import run_both

# anchors of the generated transcript templates (synth._mk_text) — the
# IP:port lines, the JSON lines that carry a .username, the login lines
# with a user — plus single letters that hit most turns of every template,
# so state set on one kind of turn is read on another
WORDS = ["connection from", "authentication", "login", '"username"', "ERROR",
         "session", "user", "e", "o"]
TRACKS = ["by_username", "by_dst", "by_srcport", "by_src&by_username",
          "by_dst&by_srcport"]
DIRECTIONS = ["by_src", "both_p", "username"]


def _stateful_opts(rng: np.random.Generator, kind: int) -> list[str]:
    name = rng.choice(["f1", "f1", "f2"])
    direction = rng.choice(DIRECTIONS)
    if kind == 0:
        return [f"after: track {rng.choice(TRACKS)}, "
                f"count {int(rng.integers(1, 4))}, "
                f"seconds {int(rng.integers(30, 900))}"]
    if kind == 1:
        return [f"threshold: type {rng.choice(['limit', 'suppress'])}, "
                f"track {rng.choice(TRACKS)}, count {int(rng.integers(1, 4))}, "
                f"seconds {int(rng.integers(30, 900))}"]
    if kind == 2:
        opts = [f"flexbits: set,{name},{int(rng.integers(60, 900))}"]
        if rng.integers(0, 3) == 0:
            opts.append("flexbit_noalert")
        return opts
    if kind == 3:
        op = rng.choice(["isset", "isnotset"])
        return [f"flexbits: {op},{direction},{name}"]
    if kind == 4:
        return [f"flexbits: unset,{direction},{name}"]
    cmp = rng.choice([">", "<"])
    return [f"flexbits: count,{direction},{cmp}{int(rng.integers(0, 3))},{name}"]


def _rand_stateful_rule(rng: np.random.Generator, sid: int,
                        action: str | None = None, setter: bool = False) -> str:
    """``setter``: a flexbit set with IP and port extraction, so the
    port-comparing directions of later rules have entries to match."""
    opts = []
    opts.append(f'content:"{rng.choice(WORDS)}"')
    if rng.integers(0, 3) == 0:
        opts.append(f'content:"{rng.choice(["e", "o"])}"')
    # a third of the rules keep only the .username JSON fallback as their
    # username source (no parse_*/json_map)
    src = 1 if setter else int(rng.integers(0, 3))
    if src == 1:
        opts += ["parse_src_ip:1", "parse_dst_ip:2", "parse_port"]
    elif src == 2:
        opts.append('json_map:"username",".username"')
    opts += _stateful_opts(rng, 2 if setter else int(rng.integers(0, 6)))
    if action is None:
        action = rng.choice(["alert"] * 5 + ["drop"])
    opts.append(f'msg:"stateful fuzz {sid}"')
    opts.append(f"sid:{sid}")
    return f"{action} any any any -> any any ({'; '.join(opts)};)"


@pytest.mark.parametrize("seed", [3101, 3202, 3303, 3404, 3505,
                                  3606, 3707, 3808, 3909, 4010])
def test_fuzz_stateful_parity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 12))
    # one stateful pass rule at a random position after the setter: every
    # match of a turn it hits is then re-decided in rule order by the
    # correlator
    pass_at = int(rng.integers(1, n))
    rules = [_rand_stateful_rule(rng, 6000 + i,
                                 "pass" if i == pass_at else None, i == 0)
             for i in range(n)]
    ruleset = parse_rules("\n".join(rules))
    assert any(r.action == "pass" and r.is_stateful for r in ruleset)
    tbl = gen_transcripts(int(rng.integers(800, 2000)), seed=seed)
    run_both(ruleset, tbl, expect_hits=False)
