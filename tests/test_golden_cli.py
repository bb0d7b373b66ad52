"""Golden CLI output: stdout digests of cheap invocations, frozen.

Each invocation drives ldpput.cli.main(argv) and compares the sha256
of its stdout with a digest recorded before the exact elimination
kernels were merged, so any change to a vertex, its order, a Fraction
or the formatting shows up here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ldpput.channels import Channel
from ldpput.cli import EXIT_OK, main
from ldpput.serialize import channel_to_json

# A non-symmetric three-letter decision problem (parameters, inputs and
# actions 0..2); with its prior it is a Bayes problem, without a minimax one.
PROBLEM = {
    "parameters": [0, 1, 2], "inputs": [0, 1, 2], "actions": [0, 1, 2],
    "model": [["6/13", "1/5", "1/8"], ["2/13", "3/5", "1/8"], ["5/13", "1/5", "3/4"]],
    "loss": [["4", "0", "3"], ["1", "3", "0"], ["4", "1", "3"]],
    "prior": ["4/11", "5/11", "2/11"],
}

# Two four-letter minimax problems.  Their model columns have zeros, so some
# vertex channels have output rows that no parameter can produce.
MINIMAX_M4 = {
    "m4a": {
        "parameters": [0, 1, 2], "inputs": [0, 1, 2, 3], "actions": [0, 1, 2],
        "model": [["1/2", "0", "1/7"], ["1/3", "1/4", "0"],
                  ["0", "1/4", "2/7"], ["1/6", "1/2", "4/7"]],
        "loss": [["0", "2", "3"], ["2", "0", "1"], ["3", "1", "0"]],
    },
    "m4b": {
        "parameters": [0, 1, 2, 3], "inputs": [0, 1, 2, 3], "actions": [0, 1],
        "model": [["3/5", "0", "1/9", "0"], ["2/5", "1/3", "0", "1/4"],
                  ["0", "2/3", "5/9", "1/4"], ["0", "0", "1/3", "1/2"]],
        "loss": [["0", "1"], ["1", "0"], ["1", "1"], ["5/2", "0"]],
    },
}

GOLDEN = {
    "enumerate --m 3 --t 1":
        "28a124093dddc324947c91658148243bc1a74540e76136bfb4ff03d6a63e37d8",
    "enumerate --m 3 --t 1 --format csv":
        "c1d8f7c7a94c06350b50242aae9aea1f004835595aedd907ba6bf985f5f7b21c",
    "enumerate --m 3 --t 2":
        "77207e0e3ec808850a985154ceac1ee8b4a808e79e9e3edd1120ca6824377d45",
    "enumerate --m 3 --t 2 --format csv":
        "1148539c337bff9bd4ad79e5cd1014972b6345ef56b65569d47a990402e1bab5",
    "enumerate --m 4 --t 1":
        "0d3587dc37b4d0f87dd34e0a7c9fae2a7ad37702b1825828f333b9ae089a4df5",
    "enumerate --m 4 --t 1 --format csv":
        "adf3f30b1bf02cb5e264778870976e71ac1ac689001a666580c71b6da84bc385",
    "enumerate --m 4 --t 2":
        "768a9a5481b3f2add57bbae22909a1571cf64c264659c36531dfff24eefa03b2",
    "enumerate --m 4 --t 2 --format csv":
        "88b0f4e85a08875e5b415fb3b77e16baf12b553da66a1fdd7223755fa58a65ec",
    "enumerate --m 4 --t 2 --group sym":
        "03937630c501541e3b76b8a62f9d0dc9aec149e109175b9102f52c252c0f52fb",
    "enumerate --m 4 --t 2 --group cyclic":
        "db3bedb0af4f87145c4e99c063b861c3ade4824f2befd269ff1271354c14784c",
    # Recorded with the scan of all 142,506 supports, before the m = 5
    # scan solved one support per S_5 orbit.
    "enumerate --m 5 --t 2":
        "8933b5d4ce45bd83c9561af9ac989350bb75cb53e975296651a33db1a19ba730",
    "enumerate --m 5 --t 2 --format csv":
        "0abb7beb190d19d15c80cfbc145cf64814803601272190d71059f9c041d2fd1a",
    "put --task ht --m 4 --t 2":
        "2ed16bc5f10d3eb8fdd30eaeddbc2df30158a96dd866f49132a7a096fe3636f8",
    "put --task cardioid --m 5 --t 2":
        "ea8eb42e8e750059fd5fd06cf87ee50ba5d9b03dcb8a27ad69581bd912005251",
    # Recorded with one root-of-unity sum per mask and one Bayes cost per
    # staircase row, before both came from tables built by doubling; the
    # cardioid values are floats, so these pin their bytes.
    "put --task cardioid --m 10 --t 3/2 --gamma 1/3":
        "5f9b4b487975cda391414537ad7f95b31734e90e4f127b72378fd7127906ba14",
    "put --task cardioid --m 10 --t 2 --gamma 1/2":
        "791c96a9e00b32c15fcb4b60acb73cb4cebbc4e8216de22c3f919388510ca238",
    "put --task cardioid --m 10 --t 3 --gamma 2/3":
        "92154b8cf538456cf7a63d3f517f00c85c532df1a04fbc2c75dcf913279c191a",
    "put --task cardioid --m 10 --t 5 --gamma 3/4":
        "2fa6c712b868a597a02f4cd6371f3095e615d7befdf48f046b0f536ea899b21e",
    "put --task ht --m 7 --method closed,transitive,vertex --t 7/3":
        "3c48b07f3e341becf5c293beb3b20ffa2792b39089a218f7030c078dcb8886eb",
    "put --problem {prior} --t 3":
        "a972bb1bc3d2486d038321f4a4ce4f7f375ece760a9ab178bf908709bb431be1",
    "put --problem {noprior} --t 3":
        "5f3e4fb6843429e1d12230267fa67e262040a7e33411d95fbc2c30ff35d663f4",
    # Recorded with a minimax LP that had one rule block per output row,
    # before the LP kept only the outputs that can occur.
    "put --problem {m4a} --t 3/2":
        "3dfcbfb37efd93646501c627b84c58ec0c4756119e2bb42b591eb761b07bb854",
    "put --problem {m4a} --t 5":
        "7c29e3500275bd19be7c74bf219479061ee194c033824f0dbd52c53b122b45c9",
    "put --problem {m4b} --t 3/2":
        "8c629d2d080e330313f3b4e7d39770115e1e4087394042e40c65427a035b0f55",
    "put --problem {m4b} --t 5":
        "b0e306565caa26dc51a10eaea300b25c8c5c1b47924ea6c6fbf9c46ed24579ff",
    # Recorded with one output row per subset in every extremal channel,
    # before a maximal channel kept only its nonzero-weight subsets.  Each
    # grouped sweep builds the channel of every orbit vertex.
    "put --task ht --m 7 --t 2 --group cyclic --method transitive,vertex":
        "ed4a4603dfc14639f939e165e660cce09c9066757a062ab046683b7d8a9e5f44",
    "put --problem {m4a} --t 2 --group sym":
        "e68e9b18ed88eef018c2073d13b6f4b2b2bf5773066b7c51e03b0f8267e49ab7",
    "put --problem {m4b} --t 5 --group cyclic":
        "0dba5eb0e3edebcd91fdcc928400d3df77548e4e4ca493d57068a14d32c0caa6",
    "check-channel {channel} --t 2":
        "52fa688e8720f56bc9b294e33fe3cc53f63d8533e4152fbb6695470898df85a0",
    "audit --task ht --m 3 --t 2 --samples 20":
        "2f842d07aa1b408d7a4861a1dc024ffbbc12bc4db1cbee3c8a75e59dabc05331",
    # Recorded with Fraction-per-multiply-add compose and Bayes risk, before
    # the audit's kernels ran on integers over one denominator per matrix;
    # the first pins post-processed channels, the second a float objective.
    "audit --task ht --m 4 --t 3 --gamma 1/2 --samples 60 --seed 5":
        "33a7c1582f3bf43e78f769e3ae677b17550f27351924eca12d97ca56bb775aff",
    "audit --task cardioid --m 4 --t 2 --gamma 2/3 --samples 60 --seed 5":
        "9f36a35e7cb9e975cca192991871823db162711064e1c96d9f8de557b4490554",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    prior = root / "prior.json"
    prior.write_text(json.dumps(PROBLEM))
    noprior = root / "noprior.json"
    noprior.write_text(json.dumps({k: v for k, v in PROBLEM.items() if k != "prior"}))
    rows = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
    channel = root / "rr.json"
    channel.write_text(json.dumps(channel_to_json(Channel.build((0, 1), (1, 2), rows))))
    paths = {"prior": str(prior), "noprior": str(noprior), "channel": str(channel)}
    for name, problem in MINIMAX_M4.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(problem))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_digest(capsys, files, command):
    code = main(command.format(**files).split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
