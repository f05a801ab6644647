"""Golden CLI outputs: exit code and sha256 of stdout for a fixed query set,
and the full stderr of every exit-2 query.

The hashes pin the output of every subcommand, for every type, in both
formats, and each exit-2 path (which prints nothing on stdout).  A change to
the package that alters any of these answers fails here; an intended change
updates the hash together with a test of the new behaviour.
"""
import hashlib
import json

import pytest

from cmfamilies.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("families --type A --n 4 --c 1", 0, "131a8a6531e3493bc93afee89f21509daafc9a108059517fb468abd985fb164f"),
    ("families --type A --n 1 --c 1 --format text", 0, "9c1079036f3c82a6f0e0623f33283a458262b972aed461f0a00586fd3444852a"),
    ("families --type A --n 3 --c 0 --method both", 0, "78112a87109304c50e72ce907e3d21a1ac721bdf1892d19013d43b6ab38d5994"),
    ("families --type A --n 4 --c 2 --generic --method both", 0, "926e54fa57dc15ec48b3fbfc5eb9cb035f286c667433eaa3a43260f1e03d4602"),
    ("families --type B --n 4 --c1 1 --kappa 1 --method both", 0, "c51aaa05c52d77c01580e4e6cdb25d0af818099defd133c139c229294e8011c7"),
    ("families --type B --n 4 --c1 1 --kappa 1 --generic --method both", 0, "4060e03d7ff8837b9d77beb14becb500f41cbf649f3a2d000910ce395b72214a"),
    ("families --type B --n 3 --c1=-1 --kappa 1 --format text", 0, "520e7fb13c5ed2c0fbb3ce313d46f91545cf25c820c7209257449944ae913993"),
    ("families --type B --n 3 --c1 1 --kappa 0 --method both", 0, "9f6acce98f297cfb128bd4f7d42d5be587475c433f6fe4faf615c47f8d573884"),
    ("families --type B --n 4 --c1 1/2 --kappa 1 --method Lusztig --format text", 0, "657cad4c0733939d806fe69dd7f6f745634077051b7b106acd59875ba4524c4f"),
    ("families --type B --n 4 --c1 1/7 --kappa 3/5 --generic --method both --format text", 0, "09830b432ab34710cfa3e541c6c1ddb9496353061d7839b3f0f94f330a4a8463"),
    ("families --type D --n 4 --kappa 1 --method both", 0, "b43313e7fa6c485682b7f797e7864145be719d17b3a3a864ac7aa84de0842936"),
    ("families --type I2 --m 7 --a 1 --b 1 --method both", 0, "6c45ca6db3a8a4b466a295012a1eb42f182a96d9a3d7965c5d56ac84cb2fab29"),
    ("families --type I2 --m 8 --a 1 --b 2 --method both --format text", 0, "ce9f30fafffa4bec068f345cc8166590b063dbba8b4c9df23872520b7dad8fa3"),
    ("families --type I2 --m 8 --a 0 --b 1 --method Lusztig", 0, "72b1a33c1d7246186dd3f08dbac25c3d2db76c628c6642d892f6a4ab034c187f"),
    ("families --type I2 --m 6 --a=-1 --b 1 --format text", 0, "8f5979ff9ba74da8d6cf96ac1066a3c2993b295c00a3f3c8547424ef49e81a22"),
    ("cuspidal --type B --n 6 --c1 1 --kappa 1 --format text", 0, "1d41cca4803b94e741ed889e3b740a3e8b17820a8bd5079122d5622e3f8742a7"),
    ("cuspidal --type D --n 9 --kappa 2 --method both", 0, "6d3cc4c0149f05433ca230093ed1bc117f04d9b53bbc8ab7874ce2c268cd577d"),
    ("cuspidal --type I2 --m 10 --a 2 --b 1 --method both --format text", 0, "c9f1461aea24ece2775c43aa30c6dbe80bdf021b9e08812491e6518abb67f521"),
    ("rigid --type A --n 1 --c 1", 0, "b47f33b612f7b7c3cdce47222fbb05db22c14195b2e3b060c0263d88021b887d"),
    ("rigid --type A --n 3 --c 1 --mode oracle --format text", 0, "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f"),
    ("rigid --type A --n 2 --c 0", 0, "354db61c473fe1b4911269808ab7c6d5cfdf33cad075f73f43ffb9699c4d3226"),
    ("rigid --type B --n 3 --c1=-1 --kappa 1 --format text", 0, "5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f"),
    ("rigid --type B --n 2 --c1 1 --kappa 1", 0, "9313a441c7e62d73dfbfcaa0d2c990a93af9d78dae5c6f56675ee4b1258c011b"),
    ("rigid --type B --n 2 --c1 1 --kappa 1 --mode oracle", 0, "96aa44d5cce3744690bd357226fce28d41b26790d8701f4cb7ab391ccdccadce"),
    ("rigid --type D --n 4 --kappa 1", 0, "2f908f88b139cbe24cd41dd46b76e9143d0cc42daaaed0a8ed0d9cb8cb33b69f"),
    ("rigid --type D --n 3 --kappa 0 --format text", 0, "b34ebf446608e2a7f34a40dd6d4fde04cf04b165c1c753798251ee7e4b7c39a2"),
    ("rigid --type I2 --m 7 --a 1 --b 1 --mode oracle", 0, "ced629d722a676ff23d8065f7d42b6a54d40de83a50c1b3e51889dd3d24c3df5"),
    ("rigid --type I2 --m 8 --a=-1 --b 1 --format text", 0, "1b822558c0a47a1bcc943c4a1c514891fb9f37b2e0a47f1afddcf8473bec210f"),
    ("rigid --type I2 --m 6 --a 1 --b 1 --mode equation_oracle", 0, "2da8fcd2bc9a7c3dfc657d7689347168e0d8e4a44f6d7021a314027038100fab"),
    ("leaves --type B --n 6 --c1 1 --kappa 1 --format text", 0, "9d433ff6e71ae7093bd1f59688072a2f6b9ef0653b8e7d3debedea57da1ffe8c"),
    ("leaves --type B --n 4 --c1 1 --kappa 0", 0, "2ebdf3f2248db319326f94bc2ca694618ad436ba145e248f7bd91cb3df1dd285"),
    ("leaves --type D --n 4 --kappa 1", 0, "7dcb1767e5a7a9e388f33a7fb0531975967e613112153e47d91971bb4190a04a"),
    ("leaves --type B --n 3 --c1 5 --kappa 1", 0, "c4a85923ca2be4a354f01798496d45cbc31b36fb3e7872922acf6b38cd7be03a"),
    ("leaves --type B --n 4 --c1 1/2 --kappa 1 --format text", 0, "bab043836b384ed0904b81def65eb40cfdd4dd26b53954d965de82cd16e7c6f2"),
    ("symbols --type B --c1 1 --kappa 1 --bp [2,1|1] --enn 3", 0, "a84da6cf9ed69da10a0cd0f1969ac492b3890ed7548c921e6efe6d8a9fb4a365"),
    ("symbols --type B --c1 1 --kappa 1 --bp [2,1|1] --enn 3 --bar 5 --format text", 0, "106f263e43741dbd0b29d9f80e2c46cb0af3a54d588e747df707fb6ed1a2a6a0"),
    ("symbols --type B --c1 1 --kappa 1 --bp [2,1|1] --enn 3 --bar 1", 2, EMPTY),
    ("symbols --type B --c1 3/2 --kappa 1/2 --bp [2,1|1] --enn 3", 0, "5e41579953348167448447cd46901a5f435daae1bf9b5e644578b19cc991042f"),
    ("symbols --type B --c1 5/2 --kappa 1 --bp [2,1|1]", 0, "48b6438a1e2329825698ec7be348c8678367d6e1d430921593ab68cfb4931a60"),
    ("symbols --type B --c1 40 --kappa 3 --bp [3,1|2,2] --enn 6", 0, "248615440ea06452b1a45aad4edc849a4454d0edcb4d7c1d025eefe517578d44"),
    ("symbols --type B --c1 12 --kappa 1 --bp [4,2|1] --bar 40 --format text", 0, "4209d89dfcebc34625aaaee7f01fde8b92fe0f039d5184dcafa4b5c414081df1"),
    ("families --type B --n 5 --c1 9/2 --kappa 3/2 --method both", 0, "fa4cf539efc7c39b6d750feccacdcec737fd0cd73ec9219051c23dd53880a020"),
    ("families --type B --n 3 --c1 1000000 --kappa 1 --method both", 0, "2733b90c0b09fbccee323fefc5904015900437323e2d3461219c3e4f2bd39dc9"),
    ("families --type D --n 6 --kappa 2/3 --method both", 0, "6beab17dca5f7dbbde6cffd78f11cb726d40203151b1a3f25255fd4ea1b66b3d"),
    # the largest outputs: every B14 label in two partitions, and D14 by the B keys at c1 = 0
    ("families --type B --n 14 --c1 6 --kappa 1 --method both", 0, "4a3c8b48503d887e39d0fd30c5643e92491272f053628fcdeb365866cdc4250b"),
    ("families --type D --n 14 --kappa 1/2 --method both", 0, "07e73ea06dbb135a2ac09ddfd6f25e9797c4255841c83a46e57a8a1a8f860a6e"),
    ("verify --suite 5", 0, "b7947464da2dc4fa7fca484937a4eaff69d988c200aaf08e90c600fc23351941"),
    ("verify --suite 3", 0, "fd388f0cce2bd2c1a486fb0c8b8bfa088ad3ce81a49cac7f839657953678fd9f"),
    ("verify --suite 8", 0, "5cd83a221cb014a0ad8193e739bf4f0e2881ea17224b37c8ccc7ae8b98e7a5d5"),
    ("families --type B --n 3 --c1 1", 2, EMPTY),
    ("families --type I2 --a 1 --b 1", 2, EMPTY),
    ("families --type D --n 1 --kappa 1", 2, EMPTY),
    ("families --type I2 --m 7 --a 1 --b 2", 2, EMPTY),
    ("families --type B --n 3 --c1=-1 --kappa 1 --method Lusztig", 2, EMPTY),
    ("cuspidal --type B --n 3 --c1 1 --kappa 1/0", 2, EMPTY),
    ("families --type B --n 3 --c1 x --kappa 1", 2, EMPTY),
    ("families --type B --n 2 --c1 1 --kappa 1 --a 5 --m 9", 2, EMPTY),
    ("rigid --type A --n 2 --c 1 --kappa 3", 2, EMPTY),
    ("symbols --type B --c1 1 --kappa 1 --bp [1|] --n 7", 2, EMPTY),
    ("rigid --type D --n 4 --kappa 1 --mode oracle", 0, "089c6e7e885024ce6ce0cd6f547b005a401ba4d98419436501957d872218752a"),
    ("rigid --type D --n 6 --kappa 1 --mode oracle", 0, "9d7319d1ca329ce31c581024b3643716e086338d9b64151e88be5c6522d58175"),
    ("rigid --type D --n 7 --kappa 1 --mode oracle", 0, "4ed9d0c11ee944f1524dedc47b8c7e7072ca4121eac2464427f27e824ddd4f0f"),
    ("rigid --type D --n 8 --kappa 1 --mode oracle", 2, EMPTY),
    ("rigid --type B --n 6 --c1 1 --kappa 1 --mode oracle", 0, "a81374474d37dea2c734ace152f701e1272ba136c5ca3c346a4e8a844b72527a"),
    ("rigid --type B --n 7 --c1 1 --kappa 1 --mode oracle", 0, "4e601ac64657507da1c6077d9f5061159e44637429b87811dc85dccf0c93609b"),
    ("rigid --type B --n 7 --c1 6 --kappa 1 --mode oracle", 0, "5bf2fdcf83951eb921177a7ad0cdcdee01b2dbb6e46a3937007187186c2d4abd"),
    ("rigid --type B --n 8 --c1 1 --kappa 1 --mode oracle", 2, EMPTY),
    ("leaves --type A --n 3 --c 1", 2, EMPTY),
    ("leaves --type D --n 4 --kappa 0", 2, EMPTY),
    ("leaves --type B --n 2 --c1 0 --kappa 0", 2, EMPTY),
    ("symbols --type D --kappa 1 --bp [1|1]", 2, EMPTY),
    ("symbols --type B --c1 1 --kappa 1 --bp 2,1", 2, EMPTY),
    ("symbols --type B --c1 1 --kappa 1 --bp [0|]", 2, EMPTY),
    ("symbols --type B --c1 1 --kappa 1 --bp [2,3|]", 2, EMPTY),
    ("symbols --type B --c1 1e400 --kappa 1 --bp [1|]", 2, EMPTY),
    ("symbols --type B --c1 1 --kappa 1 --bp [1|] --bar 1000000000", 2, EMPTY),
    ("verify --suite nope", 2, EMPTY),
]

# the stderr of each exit-2 query in GOLDEN
ERRORS = {
    "symbols --type B --c1 1 --kappa 1 --bp [2,1|1] --enn 3 --bar 1": "error: t=1 below the largest entry 5\n",
    "families --type B --n 3 --c1 1": "error: type B needs --c1 and --kappa\n",
    "families --type I2 --a 1 --b 1": "error: type I2 needs --m (with m >= 5)\n",
    "families --type D --n 1 --kappa 1": "error: need n >= 2\n",
    "families --type I2 --m 7 --a 1 --b 2": "error: odd m forces a = b (one reflection class)\n",
    "families --type B --n 3 --c1=-1 --kappa 1 --method Lusztig": "error: Lusztig families are defined for nonnegative parameters; twist by a linear character (tau) to reduce to this case\n",
    "cuspidal --type B --n 3 --c1 1 --kappa 1/0": "error: --kappa: '1/0' is not a rational p/q\n",
    "families --type B --n 3 --c1 x --kappa 1": "error: --c1: 'x' is not a rational p/q\n",
    "families --type B --n 2 --c1 1 --kappa 1 --a 5 --m 9": "error: families --type B takes no --m, --a\n",
    "rigid --type A --n 2 --c 1 --kappa 3": "error: rigid --type A takes no --kappa\n",
    "symbols --type B --c1 1 --kappa 1 --bp [1|] --n 7": "error: symbols --type B takes no --n\n",
    "rigid --type D --n 8 --kappa 1 --mode oracle": "error: oracle mode for type D is bounded by n <= 7\n",
    "rigid --type B --n 8 --c1 1 --kappa 1 --mode oracle": "error: oracle mode for type B is bounded by n <= 7\n",
    "leaves --type A --n 3 --c 1": "error: no leaf poset is computed for type A\n",
    "leaves --type D --n 4 --kappa 0": "error: the type-D classification needs kappa != 0\n",
    "leaves --type B --n 2 --c1 0 --kappa 0": "error: the type-B classification needs (c1, kappa) != 0\n",
    "symbols --type D --kappa 1 --bp [1|1]": "error: symbols are computed for type B\n",
    "symbols --type B --c1 1 --kappa 1 --bp 2,1": "error: not a bipartition: '2,1'\n",
    "symbols --type B --c1 1 --kappa 1 --bp [0|]": "error: not a bipartition: '[0|]'\n",
    "symbols --type B --c1 1 --kappa 1 --bp [2,3|]": "error: not a bipartition: '[2,3|]'\n",
    "symbols --type B --c1 1e400 --kappa 1 --bp [1|]": "error: N + m exceeds the symbol row bound 100000\n",
    "symbols --type B --c1 1 --kappa 1 --bp [1|] --bar 1000000000": "error: t + 1 exceeds the symbol row bound 100000\n",
    "verify --suite nope": "error: unknown suite 'nope'\n",
}


@pytest.mark.parametrize("query,code,digest", GOLDEN, ids=[q for q, _, _ in GOLDEN])
def test_cli_golden(capsys, query, code, digest):
    assert main(query.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


EXIT_2 = [q for q, code, _ in GOLDEN if code == 2]


@pytest.mark.parametrize("query", EXIT_2)
def test_cli_golden_stderr(capsys, query):
    """Every exit-2 query prints exactly its pinned message on stderr."""
    assert main(query.split()) == 2
    assert capsys.readouterr().err == ERRORS[query]


def test_every_pinned_message_is_an_exit_2_query():
    assert sorted(ERRORS) == sorted(EXIT_2)


ORACLE_ROWS = [q for q, code, _ in GOLDEN if code == 0 and " --mode " in q and "oracle" in q]


@pytest.mark.parametrize("query", ORACLE_ROWS)
def test_oracle_row_matches_closed_form(capsys, query):
    """Each oracle row prints the rigid labels that the same query prints
    with --mode closed: the labels of the JSON, or all of the text."""
    mode = query.split("--mode ")[1].split()[0]
    out = []
    for q in (query, query.replace(f"--mode {mode}", "--mode closed")):
        assert main(q.split()) == 0
        out.append(capsys.readouterr().out)
    if "--format text" not in query:
        out = [json.loads(o)["rigid"] for o in out]
    assert out[0] == out[1]
