"""Whole-component membership on canonical paths.

``CanonicalPath.components`` holds exactly the names that sit between
separators, so a name is a component iff "/name/" occurs in the path with
one "/" appended: the final component counts, a partial name does not.
"""

import itertools

from pathguard import CanonicalPath, canonicalize, validate_raw


class TestContainsComponent:
    def test_inner_component(self):
        assert "etc" in CanonicalPath("/etc/passwd").components

    def test_partial_name_does_not_count(self):
        assert "my_dir" not in CanonicalPath("/my_dir1").components

    def test_final_component_counts(self):
        assert "passwd" in CanonicalPath("/etc/passwd").components

    def test_equivalent_to_component_split_on_canonical_paths(self):
        for k in range(0, 6):
            for chars in itertools.product("/.ab", repeat=k):
                canon = canonicalize(validate_raw("".join(chars)))
                for name in ["a", "b", "ab", "ba"]:
                    assert (name in canon.components) == (
                        f"/{name}/" in canon.text + "/"
                    )
