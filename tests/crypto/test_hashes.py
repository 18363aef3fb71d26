"""Unit tests: hashing and measurement chains."""

from hypothesis import given, strategies as st

from repro.crypto import MeasurementChain, page_measurement, sha256, \
    sha256_hex


class TestSha256:
    def test_known_vector(self):
        assert sha256_hex(b"") == ("e3b0c44298fc1c149afbf4c8996fb924"
                                   "27ae41e4649b934ca495991b7852b855")

    def test_digest_matches_hex(self):
        assert sha256(b"veil").hex() == sha256_hex(b"veil")


class TestMeasurementChain:
    def test_order_sensitivity(self):
        a = MeasurementChain()
        a.extend("x", b"1")
        a.extend("y", b"2")
        b = MeasurementChain()
        b.extend("y", b"2")
        b.extend("x", b"1")
        assert a.digest != b.digest

    def test_label_sensitivity(self):
        a = MeasurementChain()
        a.extend("code", b"1")
        b = MeasurementChain()
        b.extend("data", b"1")
        assert a.digest != b.digest

    def test_deterministic(self):
        a = MeasurementChain()
        b = MeasurementChain()
        for chain in (a, b):
            chain.extend("p", b"contents")
        assert a.hexdigest == b.hexdigest

    def test_digest_is_the_documented_fold(self):
        chain = MeasurementChain()
        digest = b"\x00" * 32
        for label, data in (("p1", b"a"), ("p2", b"bc")):
            chain.extend(label, data)
            digest = sha256(digest + label.encode() +
                            len(data).to_bytes(8, "little") + data)
        assert chain.digest == digest

    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=8))
    def test_extension_changes_digest(self, blobs):
        chain = MeasurementChain()
        seen = {chain.hexdigest}
        for blob in blobs:
            chain.extend("page", blob)
            assert chain.hexdigest not in seen
            seen.add(chain.hexdigest)


class TestPageMeasurement:
    def test_metadata_affects_measurement(self):
        content = b"\x00" * 64
        base = page_measurement(content, vpn=1, writable=True,
                                executable=False)
        assert base != page_measurement(content, vpn=2, writable=True,
                                        executable=False)
        assert base != page_measurement(content, vpn=1, writable=False,
                                        executable=False)
        assert base != page_measurement(content, vpn=1, writable=True,
                                        executable=True)

    def test_content_affects_measurement(self):
        a = page_measurement(b"a" * 16, vpn=1, writable=True,
                             executable=False)
        b = page_measurement(b"b" * 16, vpn=1, writable=True,
                             executable=False)
        assert a != b
