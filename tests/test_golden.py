"""Byte identity of the command line: digests of stdout, stderr and the --json report.

Each entry is an argv, the exit code, and the first 16 hex digits of the
sha256 of stdout, of stderr and of the report written to --json (None
when no report is written).  The digests pin the output bytes of every
verb, so a refactor that changes any of them fails here in about a
second, long before the `verify all` comparison of the acceptance suite.
The `gen` reports carry `meta.seed` (and `meta.caps.requested` under
--cap-n) like every other verb.  New entries go at the end of the list,
because each test id carries its entry's index.
"""

import hashlib

import pytest

from pricedbool.cli import main

COSTS = '{"x0": "2", "x1": "3", "x2": "7/2"}'

GOLDEN = [
    (('analyze', '--f', 'fstar:2'),
     0, '751b511c59cb5444', 'e3b0c44298fc1c14', '285f5bcc33ab6feb'),
    (('analyze', '--f', 'parity:5'),
     0, '5aed649fd0e3fe21', 'e3b0c44298fc1c14', '2af00092f3c4f8c0'),
    (('analyze', '--f', 'majority:5'),
     0, '1ffa47e7fb1585f2', 'e3b0c44298fc1c14', '9db4689aa9c9391d'),
    (('analyze', '--f', 'x0 & x1 | x2'),
     0, '490078c9b35c42b8', 'e3b0c44298fc1c14', '2b9063d3725fad20'),
    (('analyze', '--f', 'x0 & !x1 | x1 & x2 | !x0 & x3'),
     0, 'be3ea9d3d7d5ae2f', 'e3b0c44298fc1c14', '58b4df5bbae2cf9f'),
    (('analyze', '--f', 'sym:000'),
     0, '368bc5e3a3bc507a', 'e3b0c44298fc1c14', '1ee7533f424e73d5'),
    (('ratio', '--f', 'sym:00111', '--alg', 'greedy', '--cost', 'extremal'),
     0, 'b8df817552a5d99e', 'e3b0c44298fc1c14', 'de6f46f4a570522c'),
    (('ratio', '--f', 'sym:0110', '--alg', 'greedy', '--cost', 'random:3'),
     0, 'babc15911f76a509', 'e3b0c44298fc1c14', 'd6a17103dcd56110'),
    (('ratio', '--f', 'x0 & x1 | x2', '--cost', COSTS),
     0, '5498eaa5dd914cd5', 'e3b0c44298fc1c14', '88e674921a76418f'),
    (('ratio', '--f', 'fstar:2', '--alg', 'bf2', '--cost', 'random:7'),
     0, '2b3e9c74852f181d', 'e3b0c44298fc1c14', 'e4f63c888599a1d5'),
    (('ratio', '--f', 'x0 & x1 | x0 & x2 | x1 & x3', '--alg', 'lpa', '--cost', 'random:2'),
     0, '8697635db56df769', 'e3b0c44298fc1c14', '08632803365804e1'),
    (('ratio', '--f', 'sym:00111', '--adversary', 'symmetric', '--cost', 'random:5'),
     0, '10ef926be877ecc9', 'e3b0c44298fc1c14', '10ec2257631ce7de'),
    (('ratio', '--f', 'sym:11000', '--adversary', 'symmetric'),
     0, '85c2189b261af19d', 'e3b0c44298fc1c14', 'e223ec70ebe506a4'),
    (('ratio', '--f', 'fstar:2', '--adversary', 'winners'),
     0, '0444d4560874bfe3', 'e3b0c44298fc1c14', '239cbec932ba3102'),
    (('ratio', '--f', 'fstar:2', '--alg', 'bf2', '--adversary', 'survivors'),
     0, 'bea38c839d95ac63', 'e3b0c44298fc1c14', '31b2b4a12cda8045'),
    (('lp', 'solve', '--f', 'majority:5'),
     0, 'f6672299c9de452f', 'e3b0c44298fc1c14', 'a60d46153736e6c1'),
    (('lp', 'solve', '--f', 'x0 & x1 | x0 & x2 | x1 & x2'),
     0, '4e9420089ebbd286', 'e3b0c44298fc1c14', '93ef99fba9efbeaa'),
    (('lp', 'delta', '--f', 'g'),
     0, '46b64ad6f0e33591', 'e3b0c44298fc1c14', '83283d6a02856096'),
    (('lp', 'lpa', '--f', 'g', '--cost', 'random:2'),
     0, 'acf36e03f8f888e4', 'e3b0c44298fc1c14', '50641562d7ddb7cc'),
    (('lp', 'family', '--f', 'family:1,2'),
     0, '1df0bc53f892c7f1', 'e3b0c44298fc1c14', 'd96a5259686c503b'),
    (('lp', 'lemma2', '--f', 'g'),
     0, '5283d93acc510db1', 'e3b0c44298fc1c14', 'c677fb3a2bcde6b0'),
    (('lp', 'lemma2', '--f', 'x4 & x2 & x3 | !x4 & x0 & x1'),
     0, '5283d93acc510db1', 'e3b0c44298fc1c14', '38e15bb3dbf5c038'),
    (('quad', 'fstar', '--s', '3'),
     0, '99fe847d67d32fbd', 'e3b0c44298fc1c14', '9d9a140cdffeeb7f'),
    (('quad', 'analyze', '--f', 'fstar:2'),
     0, '27bfb794ed14529e', 'e3b0c44298fc1c14', '660a69901cb8aa72'),
    (('sym', '--f', 'sym:0110', '--cost', 'random:1'),
     0, '741f0535bc94c02c', 'e3b0c44298fc1c14', '25d2a78dce5fb1ca'),
    (('sym', '--f', 'sym:1000111'),
     0, '4681740431728a15', 'e3b0c44298fc1c14', '7cc5c7e9480dd9b7'),
    (('gen', '--f', 'fstar:2'),
     0, 'cf572b216b61a940', 'e3b0c44298fc1c14', '55588bad5ff5aa64'),
    (('gen', '--f', 'parity:3'),
     0, '713b8eae8aa9b822', 'e3b0c44298fc1c14', '84b228e681a019e6'),
    (('gen', '--f', 'g', '--seed', '5', '--cap-n', '3'),
     0, '71dc662ba6cd00dd', 'e3b0c44298fc1c14', '1e021dda4988e55b'),
    (('ratio', '--f', 'sym:0110', '--alg', 'lpa', '--cap-n', '5'),
     0, '06de131cedd12634', 'e3b0c44298fc1c14', 'fafe73ea60daeab6'),
    (('ratio', '--f', 'parity:13'),
     2, 'e3b0c44298fc1c14', 'd410c6d3bbabce06', None),
    (('ratio', '--f', 'majority:5', '--cap-n', '4'),
     2, 'e3b0c44298fc1c14', 'c61a356fa489f870', None),
    (('ratio', '--f', 'g', '--cost', 'cheap'),
     2, 'e3b0c44298fc1c14', 'b19d0da7f584f72d', None),
    (('analyze', '--f', 'parity:15'),
     2, 'e3b0c44298fc1c14', '7b73c585b786ff45', None),
    (('analyze', '--f', 'majority:5', '--cap-n', '4'),
     2, 'e3b0c44298fc1c14', 'c6ecc01bbf5e5a21', None),
    (('quad', 'analyze', '--f', 'parity:15'),
     2, 'e3b0c44298fc1c14', 'c8c9e399a077efdd', None),
    # lp lemma2 on more switch instances, and each of its input errors
    (('lp', 'lemma2', '--f', 'family:2,1'),
     0, '8fc747262d985f5f', 'e3b0c44298fc1c14', '8c8bb6b8ca3c9222'),
    (('lp', 'lemma2', '--f', 'fstar:2'),
     0, 'c56d1add868f656b', 'e3b0c44298fc1c14', 'dabff36d4a0cadab'),
    (('lp', 'lemma2', '--f', 'x0 & x1 & x3 | !x0 & x2 | !x3 & x2'),
     0, '4c2d0fca46237a04', 'e3b0c44298fc1c14', '401201271b54378d'),
    (('lp', 'lemma2', '--f', 'family:1,8'),
     2, 'e3b0c44298fc1c14', '50b66c3ff3bec328', None),
    (('lp', 'lemma2', '--f', 'x0 | !x0'),
     2, 'e3b0c44298fc1c14', '6e8707856673c7c1', None),
    (('lp', 'lemma2', '--f', 'x0 & x1 | !x0 & x1'),
     2, 'e3b0c44298fc1c14', '2cac50715d6a68f1', None),
    (('lp', 'lemma2', '--f', 'majority:3'),
     2, 'e3b0c44298fc1c14', 'f9278d292b8c3fc6', None),
    # the maxterm adversaries' own verdict, and constant or zero-variable inputs
    (('ratio', '--f', 'x0 | x1', '--adversary', 'winners'),
     0, '4d103003187751c0', 'e3b0c44298fc1c14', 'c28ccae56c7e5fcd'),
    (('ratio', '--f', 'sym:00111', '--adversary', 'survivors'),
     0, '486da2190d68a79d', 'e3b0c44298fc1c14', 'ed2facbeccc45cec'),
    (('ratio', '--f', 'parity:0'),
     0, '5e537f0e17d54978', 'e3b0c44298fc1c14', '7293cefd8157efaf'),
    (('lp', 'lpa', '--f', 'parity:0'),
     2, 'e3b0c44298fc1c14', 'a69c435508677c85', None),
    (('analyze', '--f', 'parity:-1'),
     2, 'e3b0c44298fc1c14', '1bdd1e5f1d3e117b', None),
    # switch settings that leave a constant branch
    (('lp', 'lemma2', '--f', 'x0 & x1 | !x0 & x2 & x3 | x0 & !x2'),
     2, 'e3b0c44298fc1c14', '2cac50715d6a68f1', None),
    (('lp', 'lemma2', '--f', 'x0 & x1 & x2 | !x0 & !x1 & x3'),
     2, 'e3b0c44298fc1c14', '6ba1e6747f4cdd58', None),
    # a DNF with no variable in both polarities has no switch
    (('lp', 'lemma2', '--f', 'x0 & x1 | x2'),
     2, 'e3b0c44298fc1c14', 'd36f85a0420bd8f9', None),
]


def _digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("argv, code, out, err, report", GOLDEN)
def test_output_bytes_are_pinned(capsys, tmp_path, argv, code, out, err, report):
    path = tmp_path / "report.json"
    got_code = main(list(argv) + ["--json", str(path)])
    captured = capsys.readouterr()
    written = path.read_bytes() if path.exists() else None
    assert (got_code, _digest(captured.out.encode()), _digest(captured.err.encode()),
            _digest(written)) == (code, out, err, report)
