"""Golden-byte gate: container bytes of a fixed seeded corpus never drift.

Every case compresses one small seeded synthetic trajectory and pins the
SHA-256 of its serialized container.  A change that alters any byte must
declare and justify a format change and record new hashes here.
"""

import hashlib

import pytest

from pilotc import PROFILES, compress, serialize, synthetic_trajectory

# profile -> (eps, dim): block sizes 25..110; mopsi at eps=0.3 keeps every slot (r_ret = 1)
_PROFILES = {
    "geolife": (10.0, 2),
    "geolife3d": (20.0, 3),
    "nuplan": (0.5, 2),
    "mopsi": (0.3, 2),
}
_KINDS = {
    "smooth": dict(),
    "jittery": dict(jitter=2.0),
    "nonuniform": dict(gap_jitter=0.6, big_gap_rate=0.004),
    "mixed": dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.004,
                  teleport_rate=0.002),
}
_CHUNK_BITS = (1, 2, 4)
_POINTS = 1200

GOLDEN = {
    "geolife/smooth/l1": "d63e427610c650302c0afdae794be9fec1231ac0424a4b92945f8ea4f2a714bd",
    "geolife/smooth/l2": "af1c80a1c1c79c1b987d34315b31dc44eb49b39abf486276abd3300293add8e8",
    "geolife/smooth/l4": "c5b2ffc7bcc9afd669fd32ff05e33de1a3d81c56258c1b55803a97501d9f27bf",
    "geolife/jittery/l1": "6c0b3faa3e2a12e53aff3db065aacec1fa4dea1a985ea3bf428af4e5f7bc0477",
    "geolife/jittery/l2": "e12ca07c5d81dcc136e8fa6f63e78d0aa88a959c349a2bced06ff4cfedef4d65",
    "geolife/jittery/l4": "1b590c10d93a4cfb9ce9283611a7cb4fc6280ca0dca728df88a627187ee5067e",
    "geolife/nonuniform/l1": "90ba80bd951ad945710dbefa6980bd963cd05039c58b5711806bde9705b89170",
    "geolife/nonuniform/l2": "012a3aab7f394384b53db48bda1bb2ac4796bfc27df98f6bf0aaa002e3707596",
    "geolife/nonuniform/l4": "b009956bfb13a9dabfde738ab75acb6e03ec404319f2e91782dee49254ea7f6d",
    "geolife/mixed/l1": "938e61718f6f51113ab18059c87d3c5fa27b46780613b4f0a9db8fa37c9774eb",
    "geolife/mixed/l2": "0c1f3510496f1dd053560e2999998777717bc5bc716810d4d086d681ec048559",
    "geolife/mixed/l4": "19ac5847e63e5b57a1cca4b38e06c9c7519ac4e3a49def139f62cbc26bc560ba",
    "geolife3d/smooth/l1": "83daf948dc8ea0e8af12677870b66e46c8b057c955b764c858faa773496b5bc1",
    "geolife3d/smooth/l2": "260d6637706f8a8822631720c22ba64817c1dac93358de910f896b2958086c97",
    "geolife3d/smooth/l4": "52af6cd7184dfe06e523895ae084e2768f333d15309a6ea0a5320cdf684d5d59",
    "geolife3d/jittery/l1": "3a89d71bcd60173bc22233c64c1587a3fddc1c29a72ca58b8d63af56a16a83f0",
    "geolife3d/jittery/l2": "45ae5923a4b7ad56bbd656d593aee67da2a1374835d5def596ebfbe3879cd484",
    "geolife3d/jittery/l4": "9e65dcea2cd0fd97ef51be19bec4c368b7415736563d7536de5630842645efc3",
    "geolife3d/nonuniform/l1": "0b692d06bbd2e14feca6f29ab7827d615de4d371384b889d6a28c2fef8b4cba8",
    "geolife3d/nonuniform/l2": "6081e16a1ebd70ece1e2b7c5b7fb8d6a25a1622a2b1a2d72a48e1274bf415f7e",
    "geolife3d/nonuniform/l4": "43b7993cdce4a99afb01fb2c4d76d26b6af708730245fe47e9deeabb9956c0b4",
    "geolife3d/mixed/l1": "df7d09f3c963c0a63ce47b7839e7886b6d9cfb70448f5205c9b9eca8a19d6647",
    "geolife3d/mixed/l2": "f9d8dc590e2952c87f09a1a2aa444aac1e010936e079f0f8de696a7bc6282074",
    "geolife3d/mixed/l4": "b37e594f0910581ae0976aef2e4aa7b0b28bc4af5b4cb3b1274ef705d9e06c1e",
    "nuplan/smooth/l1": "63898ccdfff93546c9d10e85b90092c598da91de95618b46da7a1964b6700095",
    "nuplan/smooth/l2": "9baecbb67e63364fe9491c5d90949079234b92c7024c6c90d54b63391be2a09f",
    "nuplan/smooth/l4": "a201fd231b0fbb375b0cbcd6c2e37b8949f1b804ee73ecfb0d83391d64eef816",
    "nuplan/jittery/l1": "6d13ed8a980c1377a1e439ebe5375a0c8176513b28b932b5c0e5d29ba7120329",
    "nuplan/jittery/l2": "302bef6e24bebb490f7e3c0c8f149a7c7de67e88c15168efac456ea67effaf5e",
    "nuplan/jittery/l4": "931b6e6b9fe47293f34326c8ff485706bb24afa32c0aedb7fd8f04633b5e456a",
    "nuplan/nonuniform/l1": "4af24162281cfb6a6f1928981700a82eb46ffabbc09b6fcdc5d4a0c482c9e44f",
    "nuplan/nonuniform/l2": "2d54abf649b67ebc77b6df25ba699224c807037c0f26547ccc762ff5bf6e7453",
    "nuplan/nonuniform/l4": "3d390ee1acdb35d96fca8c8cd662caff640f93dff4c54f6b3a26992c17354ceb",
    "nuplan/mixed/l1": "8758cf695217df81853f8c93da1e2a8588020bd24f227f9f1168347869c3ed3c",
    "nuplan/mixed/l2": "a54505aed74fde2da7bf8e81ac6d10f3e1e55db4aaf49009e9c7e0b76c8324d6",
    "nuplan/mixed/l4": "90d2d0b3e47cdeeb651d779fe7018baf2266410a17c6f3657975cb3d0a1723ef",
    "mopsi/smooth/l1": "4ca854f2ee7988e7daed7f6150c107219fc70a65cb3da46c0122caedb10d8edb",
    "mopsi/smooth/l2": "4f69983c0f497f367332aff011e9c6f98b0f3584453078a7d153430cace9c49d",
    "mopsi/smooth/l4": "472f17513700941f6e21b47ac0408e8fb1352220518d693fb284ebab766c279a",
    "mopsi/jittery/l1": "f3afaad7ccc3d313d6ed1939fab11524f3b550d106309aeac5fe736fa2533352",
    "mopsi/jittery/l2": "ece7eb6a56f0a584fc6766fc066ad13844aaf26017e1a4e145f62db2e7ee4d4f",
    "mopsi/jittery/l4": "e3745a9b970c860f670105fb89c26e927094f35cc92b74c4bc1c9a50d9f569b8",
    "mopsi/nonuniform/l1": "d3f8b13621c2a11405cf60d03808fbd2ab3355d6290bb4bffb16c27401c5249c",
    "mopsi/nonuniform/l2": "3178874d903fc1a955b6a31114a261bf94f5e0ddcbbcfb51d52720d07be8e1b0",
    "mopsi/nonuniform/l4": "e319c0b58e90803de56164847a35ead1c6e35f8c8fb85a9a3274757e891f99ba",
    "mopsi/mixed/l1": "8c04916dada0e72cd5cd96a25e31d3df4c1a41a1f2fafb475abe70d8dc0f7f83",
    "mopsi/mixed/l2": "f0676ca2bea6315a1ed9c0fe41d55d97cbabd34228b81b7716ebcf0a7e1cac7c",
    "mopsi/mixed/l4": "27c9b2caebced4212979e4df6175e6206c34680ea655908e010acfadb354544d",
}


def _container(profile_name: str, kind: str, chunk_bits: int) -> bytes:
    eps, dim = _PROFILES[profile_name]
    seed = 1000 * list(_PROFILES).index(profile_name) + list(_KINDS).index(kind)
    traj = synthetic_trajectory(_POINTS, dim=dim, seed=seed, **_KINDS[kind])
    profile = PROFILES[profile_name]
    params = profile.params(eps, eps_t=0.001, chunk_bits=chunk_bits)
    return serialize(compress(traj, params), profile)


@pytest.mark.parametrize("chunk_bits", _CHUNK_BITS)
@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("profile_name", list(_PROFILES))
def test_container_bytes_are_pinned(profile_name, kind, chunk_bits):
    payload = _container(profile_name, kind, chunk_bits)
    digest = hashlib.sha256(payload).hexdigest()
    assert digest == GOLDEN[f"{profile_name}/{kind}/l{chunk_bits}"]
