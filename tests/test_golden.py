"""Golden-byte gate: container bytes of a fixed seeded corpus never drift.

Every case compresses one small seeded synthetic trajectory and pins the
SHA-256 and the byte length of its serialized container.  A change that
alters any byte must declare and justify a format change and record new
hashes here; one that only moves bits keeps every length.
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
    "geolife/smooth/l1":
        ("104239309deb346a64f8b37a66186c37dc624be253097da2187ba4770059a71a", 342),
    "geolife/smooth/l2":
        ("ad2f57fc0218251cf19f62b8f53b726c3ff7974f7197bdc38408784fd8c68fe2", 354),
    "geolife/smooth/l4":
        ("83200f2fe04efd1f5f85677391a90874eef65713a86d90dea8f871bc25e6e1fb", 397),
    "geolife/jittery/l1":
        ("bb3e0d8ae96eaa132cead68ec9d50522c8601cb934e95caf86692909b85fac63", 435),
    "geolife/jittery/l2":
        ("33be246cd5a54699464f83f1971a36e574aec0e3fc97034e8c5c5d29b39935d5", 435),
    "geolife/jittery/l4":
        ("33f79704206925e2b81a21c64b1e8d55176d750c2e5110343477ba9daa1eb958", 475),
    "geolife/nonuniform/l1":
        ("c794a40f9ac474ce7e558f730ff7630ed59aa5973bd8afa0397b4ac6e930f19a", 440),
    "geolife/nonuniform/l2":
        ("6ba8f8bdddd6720d44977c836acb42cdb2cf403a6c60a5237705cb0c70adbf15", 441),
    "geolife/nonuniform/l4":
        ("da919c7208431d370319aa73dbff3d3986f203958b4068ccac7ba43ca98bf002", 468),
    "geolife/mixed/l1":
        ("3b739b775c15be02522c3bfbd824365c677e4d8d8818dcb5e921b40d503eee6c", 527),
    "geolife/mixed/l2":
        ("1e7db9ffbd1655289fba24720f6393cfd38a300a0517113e9db0c559035c7c7f", 516),
    "geolife/mixed/l4":
        ("3f1b964769e632443543630d5f28ad71be7bcef8d7fc78355165887d58ea213b", 552),
    "geolife3d/smooth/l1":
        ("43411588eb7d31a84c856f19f00a01243d3fa5b896d792d63b5702d110ed571c", 280),
    "geolife3d/smooth/l2":
        ("0fbad8ad2fd5afa9d2be1f700f3668e56ee59d5c96e3c01a193c4c6220172e76", 303),
    "geolife3d/smooth/l4":
        ("1781f0117021b1f55773bfacbd9044ba54d2ce59646e133c6da82845654d3423", 365),
    "geolife3d/jittery/l1":
        ("2dcdd284efc1defab0dda48b38cd4d368e3dee6dec2aa2821baaadfeca98e6bf", 365),
    "geolife3d/jittery/l2":
        ("188f565f3438b793e28331734c0ec8e15d206c00aaf33032d37bb3302fa78d02", 376),
    "geolife3d/jittery/l4":
        ("1f3f0c12e9cff5ad49bcb5b6396aeaef6d8ed0cb437b6ed9895be5bcec63b077", 441),
    "geolife3d/nonuniform/l1":
        ("4c99e3fe3bb75f8e82b5e7dd7e74b39d40255da2b7243cfda5fc951269e9726d", 338),
    "geolife3d/nonuniform/l2":
        ("81922d1b9b66c1889fa1e91266eb2aea564c6fa76ac434ff4e76e9f1c97aee26", 347),
    "geolife3d/nonuniform/l4":
        ("d9aeb6b14cded215b06b525ac519c0d01076f44b85872bad4162b2bc1fcc59e3", 414),
    "geolife3d/mixed/l1":
        ("b4c3f85194767a8149d8517510f6d8bf66769f8c6733c82b2d1fe0a9943ea17a", 389),
    "geolife3d/mixed/l2":
        ("99fcfbaf9c9c223630a7978f6c569241c76488b227eaa2cbca61bb448cfee2e0", 400),
    "geolife3d/mixed/l4":
        ("1b9f4ca0be5f9d0ede5da6abe8db6a7eb1c7d30a16b4ff0aedbecc4c5aa9022e", 461),
    "nuplan/smooth/l1":
        ("fa93b30b3fb6766114d520da74da5942fd3c1727c98aba033c50ea8e032405fd", 5901),
    "nuplan/smooth/l2":
        ("dcc5036490123a656991bb8619e3de568202b2e6d0ddbc120e500789c25f4f30", 4912),
    "nuplan/smooth/l4":
        ("1516984bce639dfb7516538f9c9abeec968cbd7c914808d0a98403a915b217f8", 4906),
    "nuplan/jittery/l1":
        ("186b243b52d9fbc4c50417b0a490bedd8a481d9f7cc200f9e218708af9b9a141", 5937),
    "nuplan/jittery/l2":
        ("95b44eb382a72251096c42723179d78dae555341d7ef2e77fd7f4c6ea0260e7b", 4953),
    "nuplan/jittery/l4":
        ("04a7742a83d7e2189a87546b19c0aba11f5658e6d541c32fb13a31372478e126", 4953),
    "nuplan/nonuniform/l1":
        ("3e906312e0b3dfd1a3daa2a2cf1a5906d71e12fb072afcffe2401e147b6dc7b3", 6526),
    "nuplan/nonuniform/l2":
        ("1e84bc3eeaaabf1a0d6a89d9ea365a934a49f50f394321027a76b4d86c4baee8", 5500),
    "nuplan/nonuniform/l4":
        ("bc39bc8d72d87faa019f836fc60ecf3199c4b49434cf5fe0f391b03d008f90ef", 5171),
    "nuplan/mixed/l1":
        ("e154621bf4d7358bcc6a81eb7e6937d4b86e6c7ee9ed6c1d87a3fc21b3ae5e04", 6473),
    "nuplan/mixed/l2":
        ("4fd55760b0626531bb1e480625c120f24b099d0504e0224f465e95b53a0171a6", 5450),
    "nuplan/mixed/l4":
        ("7875d395f210ac60d72d81f1c49d4f393c190e7fc7ab261106d17c2bd144f7c6", 5146),
    "mopsi/smooth/l1":
        ("aff723a6736e217b0ed301b76f9881810dc322c9c909f57140858f60db87d9aa", 4220),
    "mopsi/smooth/l2":
        ("96c7b1886297a84c61b7f0431ee28864dc5c5af362fed2a899ba1930e5a5960d", 3848),
    "mopsi/smooth/l4":
        ("10ba8ba21953e13d9bf9a4dab225037d5e214eea242ea67d080408799ec86e06", 3829),
    "mopsi/jittery/l1":
        ("3e647dad434121f9f7359554bc46742ad8ba4497478b50434e46b488508471f8", 6716),
    "mopsi/jittery/l2":
        ("2877857c5a142f1fac1da376fe17554325f7239c32eb3aa32756290f540b8500", 5892),
    "mopsi/jittery/l4":
        ("fb3f95d359e69e96182b8bd9c52239992ddd9933b27d9d9bb070567abf7a2377", 5887),
    "mopsi/nonuniform/l1":
        ("b6399d91afc5f659036944af1127bbd036849384fdede916451980ec8ccc57d9", 4517),
    "mopsi/nonuniform/l2":
        ("151f632386dcfda0ffc1d2fed6a61ab853758e059cde4d2f041af51ad1b7be24", 4102),
    "mopsi/nonuniform/l4":
        ("adb12e16930eedfade77589bec1ee0a3b6108236ac52d8ae429cefa2c78bd93c", 4020),
    "mopsi/mixed/l1":
        ("076c2953098d0764ef4d432a208da3a37d8feb8b9f942880902f9a2f30ab8c52", 6013),
    "mopsi/mixed/l2":
        ("3a352e567b326a0f3e73e9f97e77125a0bf854e66382fe9eae3d6b11a8eeab88", 5379),
    "mopsi/mixed/l4":
        ("2fc0297f3df4ee44f39d6e086b33141c849b69476748f17b26450832988d0241", 5250),
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
    digest, size = GOLDEN[f"{profile_name}/{kind}/l{chunk_bits}"]
    assert len(payload) == size
    assert hashlib.sha256(payload).hexdigest() == digest
