"""Unit tests: the virtio-style host console."""

from repro.hv.devices import VirtioConsole


class TestConsole:
    def test_lines_split_on_newline(self):
        console = VirtioConsole()
        console.write(b"first\nsecond\npart")
        assert console.lines == ["first", "second"]
        console.write(b"ial\n")
        assert console.lines[-1] == "partial"

    def test_flush_emits_partial(self):
        console = VirtioConsole()
        console.write(b"no newline")
        console.flush()
        assert console.lines == ["no newline"]

    def test_output_includes_partial(self):
        console = VirtioConsole()
        console.write(b"a\nb")
        assert console.output == "a\nb"

    def test_invalid_utf8_replaced(self):
        console = VirtioConsole()
        console.write(b"\xff\xfe ok\n")
        assert "ok" in console.lines[0]

