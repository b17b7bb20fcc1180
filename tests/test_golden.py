"""Golden digests: the SHA-256 of CLI outputs that changes to the
program's internals must leave byte-identical.

A change that alters one of these outputs on purpose updates its digest
here and says in CHANGES.md which output changed and why."""

import hashlib
import json

import pytest

from z4dc import cli
from z4dc.reference import REFERENCE_CASES

GOLDEN = {
    "analyze 1": "16c77face931cfecb3bb530a560efbc841240a095f7eb0e6aace9ee923e0b83f",
    "analyze 2": "36637f30dca201ce3a7f01eece17353c22724c909eb7eaf738362c1d50f4573f",
    "analyze 3": "20690bb0f2a30af6b1b8a47768ed20c1d5f66261ab85f533efb55ad477cf0b16",
    "analyze 4": "8c97061796c1ef3d63914b45f2d1f4ee0a83e3afeeee545827d18fc41a1d594e",
    "analyze 5": "a00e598f398ae64ea445f4d1d78e410d5dc9e31c587fb7b697ebc046c285b4e4",
    "search 1 15 --forms ii": "5c0bc0281126398d011e6466d8eebe3f2b0aebe15ca469637798308581c89854",
    "search 3 9": "f92b1ddd3533984789ac45795550fef2e681107fc61231276d0f9b77a23c0b41",
    "verify-examples": "8803ce31f3c8616d87f4a26b5008a18246da6ebdb78d1246d1a0b539b193eb69",
    "gray-export 1": "a81cf63668dba6798f0967d92f3b1fa03c5182517a1e91cf12d55e18d6c11789",
    "gray-export 3": "5784908adb22b8c01f111006dca247a679d09ad92913b1f285de783a9d6d38ae",
    "gray-export 4": "0736d1f456f6f1e1604cdaae937f72039ebb6492242ddc8bfbeab124e32aeeda",
    "gray-export 5": "82bf6157685baaa008cc7fbf81083e9aa46dc3d728196db88fed6af44bd673bd",
}


def stdout_digest(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda case: f"case{case['id']}")
def test_analyze_reference_case(case, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(case["spec"]))
    assert (stdout_digest(["analyze", str(spec), "--no-timing"], capsys)
            == GOLDEN[f"analyze {case['id']}"])


# case 2's image, 2^24 words of 48 bits, is too large to print in a test;
# case 3 takes 3 uint64 words per codeword (66 columns)
@pytest.mark.parametrize("case", [case for case in REFERENCE_CASES if case["id"] != 2],
                         ids=lambda case: f"case{case['id']}")
def test_gray_export_reference_case(case, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(case["spec"]))
    assert (stdout_digest(["gray-export", str(spec)], capsys)
            == GOLDEN[f"gray-export {case['id']}"])


@pytest.mark.parametrize("command", ["search 1 15 --forms ii", "search 3 9",
                                     "verify-examples"])
def test_command(command, capsys):
    assert stdout_digest(command.split(), capsys) == GOLDEN[command]

