import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_documents_exactly_the_scripts():
    # a deleted script cannot stay documented, nor a new one go
    # unlisted; an empty or absent scripts/ documents none
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"python3 scripts/([\w.-]+\.py)", readme))
    present = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert documented == present
