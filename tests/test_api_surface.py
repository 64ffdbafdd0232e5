import ast
from pathlib import Path

import resistwalk


def test_all_names_resolve_once_and_match_the_imports():
    # a deletion that leaves an export behind, or an import that is not
    # exported, fails here
    exported = resistwalk.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(resistwalk, name), name
    tree = ast.parse(Path(resistwalk.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported - set(exported) == set()
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if target.id != "__all__"}
    assert set(exported) == imported | assigned
