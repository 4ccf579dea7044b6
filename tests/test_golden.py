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
    "geolife/smooth/l1": "2ad408fc9f5d6f56fb3e641e1672dd49289acc067b10144a18d525535a546710",
    "geolife/smooth/l2": "23f963c898c0fade34a2d7f884539fd0eb07b6f86c673c5469770dd6e021528e",
    "geolife/smooth/l4": "f8806c0c1e1642a9fd18ade9c122b7e12e84b1e09bfd0901ee8787d841826939",
    "geolife/jittery/l1": "c219f0a309707e2f551145f35992314ae34e4d4a7b1f8f4ceb94f588bb845a37",
    "geolife/jittery/l2": "bed1103e3942109b5c275201aa406f17c39bae969a7b7a9ae582ce6b5c65e52a",
    "geolife/jittery/l4": "f4ebef966720f47b956397d8da1c0ba3764829456b114984161a6323d581dbb2",
    "geolife/nonuniform/l1": "6442db8708f9b2b4b79846ef5794384acfd7927a689101226fa62d049572bf8c",
    "geolife/nonuniform/l2": "998348103c1c8f7dd4e5531665ac32db6be0215c3572776128e97e7cf32acc75",
    "geolife/nonuniform/l4": "3c66e7173e7bac0574c97e39ff09de71f8a1559be25a733ce1ef3399c86a6339",
    "geolife/mixed/l1": "49582892079591917a9fe05004b2a688d5483b6f3dc9bf4c0147d529e6922368",
    "geolife/mixed/l2": "3af372fbbdd0bbeed797a38af213de70edb959c7a44a6495d4d554935d04bb16",
    "geolife/mixed/l4": "66ba488ea96b52ea7f357b51fca4a784c711a5e980969ebcc304132a288ad313",
    "geolife3d/smooth/l1": "a43c40ff3ea23f89f6948303dacc619a6646dcf0664b90b995e211131354f563",
    "geolife3d/smooth/l2": "cea245b777d3ebc8c89352abcfbddc31fdcb510e6e854991ff67583c5d7b33e6",
    "geolife3d/smooth/l4": "7f8515eb12af5eb46e6b74310f30566557dbeecca226dc9c84aaf695d2a0952b",
    "geolife3d/jittery/l1": "f280ef215b37583c4b791a92bdece7d0d13b586c10e1ed6b45db29df3a9cf920",
    "geolife3d/jittery/l2": "7213ccb1580aec1d515eaf4362a9f4f3e09d7d7db4356c9bb97312aa6a87e003",
    "geolife3d/jittery/l4": "234fc89e79de4aa8221ac13c9b3de500ce0227a8b330458e86a78fad7f832fe2",
    "geolife3d/nonuniform/l1": "a662ec314b976a81a9172203bdc754a05d2fb2761560efab17d57b6aa2932822",
    "geolife3d/nonuniform/l2": "1f05e3abc593b6ff6d910ba1bc4ad873e90133fdff29f82d5eaa602bbb0e7a83",
    "geolife3d/nonuniform/l4": "eea094fc278674addf6ca7eb8ffbf425189282a2d1b34f3bc091a19150fa4d78",
    "geolife3d/mixed/l1": "b24bee11449de2417204105e091532a15ca7a003e5c0f32d6878a813e3089727",
    "geolife3d/mixed/l2": "59c91d7808b8c15d5ae69d97efb8dae86bcef97631bbb95894fc0c9efd88aee6",
    "geolife3d/mixed/l4": "7c13a8044d080ba8069dc0ed8f33596cc25265d316e20a8a8cb8ea4d851272ad",
    "nuplan/smooth/l1": "5b9e55bcd0a8ad74f8bd93dab15a1711e98b22c809169386cf2cff2c7888e512",
    "nuplan/smooth/l2": "360d1108925bac7e43c89a0d3683b51105f36881caad52ef0ecc0f0093ec6510",
    "nuplan/smooth/l4": "6b17d7a7281c3b28744224815f4f9e9ed44ce734c4b7727aef80faf09891b292",
    "nuplan/jittery/l1": "6d13ed8a980c1377a1e439ebe5375a0c8176513b28b932b5c0e5d29ba7120329",
    "nuplan/jittery/l2": "302bef6e24bebb490f7e3c0c8f149a7c7de67e88c15168efac456ea67effaf5e",
    "nuplan/jittery/l4": "931b6e6b9fe47293f34326c8ff485706bb24afa32c0aedb7fd8f04633b5e456a",
    "nuplan/nonuniform/l1": "4af24162281cfb6a6f1928981700a82eb46ffabbc09b6fcdc5d4a0c482c9e44f",
    "nuplan/nonuniform/l2": "2d54abf649b67ebc77b6df25ba699224c807037c0f26547ccc762ff5bf6e7453",
    "nuplan/nonuniform/l4": "3d390ee1acdb35d96fca8c8cd662caff640f93dff4c54f6b3a26992c17354ceb",
    "nuplan/mixed/l1": "8758cf695217df81853f8c93da1e2a8588020bd24f227f9f1168347869c3ed3c",
    "nuplan/mixed/l2": "a54505aed74fde2da7bf8e81ac6d10f3e1e55db4aaf49009e9c7e0b76c8324d6",
    "nuplan/mixed/l4": "90d2d0b3e47cdeeb651d779fe7018baf2266410a17c6f3657975cb3d0a1723ef",
    "mopsi/smooth/l1": "3bf2f3f58f3d1626829f0ef330eb44cabdcd665867c9e793104784c6f58fa454",
    "mopsi/smooth/l2": "c9c4101b59d6aace468550f950090947ef162bde14c1b2da8027a79ed57b8179",
    "mopsi/smooth/l4": "15f17d4a8e9e146896c3dbb664cd7d82219b235635fb49cf69b0eb517d56c980",
    "mopsi/jittery/l1": "d87f6cd512818203732b5b57ed77986170706b68af62bf2fa687dab5e59bfc8b",
    "mopsi/jittery/l2": "ebe12fa77454e1fc6ab7340c5b93c85caf381389c344acb78e4c460ca7ff79e7",
    "mopsi/jittery/l4": "22a49655068299d5565a5107af7adb4955b28e6980425bcb1bb716a07e72a0a1",
    "mopsi/nonuniform/l1": "bf421b907f36ca5a634f44fb6bc23db83b574314ca249ecaa03965b44a909ccc",
    "mopsi/nonuniform/l2": "16af018ded98a753b690087ac2fd7f052db768944595958f487941d469722f29",
    "mopsi/nonuniform/l4": "426ad34aa2df0ab993230e7c5b68eae92c11f62b639f73ec3c59620ec9637759",
    "mopsi/mixed/l1": "c369a21a3ef27ee88f90d352fe212b41b09c2b675b95344eae0a680f504acd37",
    "mopsi/mixed/l2": "4dc2a032e04c11aae77ff2364f70a7e06d5e03c6160f82586dca8a8c2dc62d68",
    "mopsi/mixed/l4": "ee2a52346176aeaca4b3bc3a42dfdf9aca484d7fa33d483067996ca58f9457ea",
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
